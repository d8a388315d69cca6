//! Drives the built binaries end to end with `--quick` (one round,
//! 0.3 s phases; both passes, all four workloads) and checks the output
//! against the contract in `BENCHMARK.json`.

use mqx_benchmark::spec;
use mqx_json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn is_contract_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_suite_prints_every_contract_metric_and_a_well_formed_trace() {
    let spec = spec::load();
    let output = Command::new(env!("CARGO_BIN_EXE_mqx-benchmark"))
        .arg("--quick")
        .output()
        .expect("the driver starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    // Metric lines read `<workload> <name> <value> <unit> ...`.
    let mut printed: BTreeMap<(String, String), Vec<(f64, String)>> = BTreeMap::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [workload, name, value, unit, ..] = words[..] {
            if let (true, Ok(value)) = (spec.workloads.iter().any(|w| w == workload), value.parse())
            {
                printed
                    .entry((workload.to_string(), name.to_string()))
                    .or_default()
                    .push((value, unit.to_string()));
            }
        }
    }
    let value_of = |workload: &str, name: &str| -> f64 {
        let key = (workload.to_string(), name.to_string());
        let lines = printed
            .get(&key)
            .unwrap_or_else(|| panic!("{workload} {name} is not printed\n{stdout}"));
        assert_eq!(lines.len(), 1, "{workload} {name} is printed once");
        lines[0].0
    };
    assert_eq!(spec.workloads.len(), 4);
    for workload in &spec.workloads {
        assert!(is_contract_name(workload), "{workload}");
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(is_contract_name(&metric.name), "{}", metric.name);
            let value = value_of(workload, &metric.name);
            assert!(value.is_finite(), "{workload} {}: {value}", metric.name);
            let unit = &printed[&(workload.clone(), metric.name.clone())][0].1;
            assert_eq!(unit, &metric.unit, "{workload} {}", metric.name);
        }
        for metric in &spec.end_to_end {
            assert!(
                value_of(workload, &metric.name) > 0.0,
                "{workload} {}: end-to-end metrics are never 0",
                metric.name
            );
        }
        assert_eq!(value_of(workload, "failed_share"), 0.0, "{workload}");
        assert_eq!(
            value_of(workload, "frontdoor.reconciles"),
            1.0,
            "{workload}"
        );

        // The span file: one JSON object a line; the spans of a request
        // share its id, and every child lies inside the root `request`.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.jsonl"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut requests: BTreeMap<i128, Vec<Json>> = BTreeMap::new();
        for line in text.lines() {
            let span = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let id = span.get("id").and_then(Json::as_i128).expect("span id");
            requests.entry(id).or_default().push(span);
        }
        assert!(
            !requests.is_empty(),
            "{workload}: the traced phases sent requests"
        );
        let field =
            |span: &Json, key: &str| span.get(key).and_then(Json::as_i128).expect("span time");
        for (id, spans) in &requests {
            let name = |span: &Json| span.get("name").and_then(Json::as_str).map(str::to_string);
            let root = spans
                .iter()
                .find(|s| name(s).as_deref() == Some("request"))
                .unwrap_or_else(|| panic!("{workload}: request {id} has no root span"));
            assert_eq!(root.get("parent").and_then(Json::as_str), Some(""));
            assert_eq!(spans.len(), 5, "{workload}: request {id}");
            for span in spans {
                let (start, end) = (field(span, "start_ns"), field(span, "end_ns"));
                assert!(start <= end, "{workload}: request {id} {:?}", name(span));
                assert!(
                    field(root, "start_ns") <= start && end <= field(root, "end_ns"),
                    "{workload}: request {id} {:?} leaves its parent",
                    name(span)
                );
                if name(span).as_deref() != Some("request") {
                    assert_eq!(span.get("parent").and_then(Json::as_str), Some("request"));
                }
            }
        }
    }

    // The document on the last line carries the host block.
    let document = Json::parse(stdout.lines().last().expect("output")).expect("document parses");
    let host = document.get("host").expect("host block");
    for key in [
        "nproc",
        "workers",
        "cpu_model",
        "simd_tiers",
        "rustc",
        "git_commit",
        "seed",
    ] {
        assert!(host.get(key).is_some(), "host block lacks {key}");
    }
}
