//! The traced binary: one round with spans recorded in memory around
//! every call the generator makes into the front door, then the layer
//! probes, then the counters. The only binary that installs the
//! counting allocator. Takes a round's arguments, prints one report.

use mqx_benchmark::alloc_count::CountingAlloc;
use mqx_benchmark::loadgen::Trace;
use mqx_benchmark::probes;
use mqx_benchmark::round::{self, RoundArgs};
use mqx_json::Json;
use std::fmt::Write as _;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn write_spans(workload: &str, traces: &[Trace; 2]) -> std::io::Result<()> {
    let mut lines = String::new();
    for span in traces.iter().flat_map(|t| &t.spans) {
        let _ = writeln!(
            lines,
            r#"{{"id":{},"parent":"{}","name":"{}","start_ns":{},"end_ns":{}}}"#,
            span.id, span.parent, span.name, span.start_ns, span.end_ns
        );
    }
    let out = mqx_benchmark::out_dir();
    std::fs::create_dir_all(&out)?;
    std::fs::write(out.join(format!("trace-{workload}.jsonl")), lines)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let prepared = RoundArgs::parse(&args)
        .and_then(|args| round::prepare(args).map_err(|e| format!("set-up failed: {e}")))
        .unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        });
    let mut traces = [Trace::default(), Trace::default()];
    let cache = mqx::plan_cache::global();
    let before = cache.stats();
    let phases = round::run_phases(&prepared, Some(&mut traces));
    let in_run = (before, cache.stats());
    if let Err(e) = write_spans(prepared.args.workload.name, &traces) {
        eprintln!("cannot write the span file: {e}");
        std::process::exit(2);
    }
    let metrics = probes::run(&prepared, &phases, &traces, in_run, &ALLOC);

    let Json::Obj(mut report) = round::report(&prepared, &phases) else {
        unreachable!("a round report is an object");
    };
    // The round's own end-to-end numbers are traced ones here, and
    // end-to-end metrics only ever come from the untraced binary.
    report.retain(|(key, _)| key != "metrics");
    report.push((
        "metrics".to_string(),
        Json::Obj(
            metrics
                .into_iter()
                .map(|(name, value)| (name.to_string(), Json::Num(value)))
                .collect(),
        ),
    ));
    println!("{}", Json::Obj(report).compact());
}
