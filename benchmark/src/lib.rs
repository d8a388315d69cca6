//! The serving benchmark of the MQX reproduction: four workloads driven
//! through the public API only (`FrontDoor::submit` → `RingExecutor` →
//! `PolyRing` → `Backend`), every response checked bit for bit, end-to-end
//! metrics from an untraced binary and per-layer metrics from a traced
//! one. README.md has the protocol and the tables; `../BENCHMARK.json`
//! has the contract.

pub mod alloc_count;
pub mod host;
pub mod loadgen;
pub mod probes;
pub mod round;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod verify;
pub mod workload;

use mqx_json::Json;
use std::path::PathBuf;

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Where results and span files go: `benchmark/out/`, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
