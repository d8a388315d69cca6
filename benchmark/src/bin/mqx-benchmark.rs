//! The untraced binary: the suite driver, and — re-invoked by the
//! driver with `--round` — one round of one workload. It runs on the
//! default allocator; end-to-end metrics only ever come from here.

use mqx_benchmark::round::{self, RoundArgs};
use mqx_benchmark::suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("--round") {
        std::process::exit(suite::main(&args));
    }
    let prepared = RoundArgs::parse(&args)
        .and_then(|args| round::prepare(args).map_err(|e| format!("set-up failed: {e}")))
        .unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        });
    let phases = round::run_phases(&prepared, None);
    println!("{}", round::report(&prepared, &phases).compact());
}
