//! The metric contract: `BENCHMARK.json` at the repository root, read
//! at compile time so the binaries, `--check-repeat` and the package
//! test all judge against the same names, units and bounds.

use mqx_json::Json;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// One metric of the contract.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's value by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without `{k}`"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// Parses the embedded `BENCHMARK.json`.
///
/// # Panics
///
/// On a malformed file — a build-time input, so a bug in this package.
pub fn load() -> Spec {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json: run_seconds"),
        workloads: doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json: workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("BENCHMARK.json: workload name")
                    .to_string()
            })
            .collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}
