//! The benchmark harness: the paper's §5.1 timing methodology, tier
//! runners for every kernel variant, the paper's measurement engines
//! (MQX in functional and PISA mode, the Figure 6 ablation, the Table
//! 5/6 proxies; see [`engines`]), and one experiment module per
//! figure/table of the evaluation.
//!
//! Each reproduction binary (`fig1`, `fig4`, `fig5`, `fig6`, `fig7`,
//! `table6`, `listing4`, `sensitivity_mul`, `calibrate`, `rns`) is a
//! thin `main` over the corresponding [`experiments`] module, so the
//! logic is testable and `repro_all` can chain everything; `sol_probe`
//! checks §6's linear multi-core scaling assumption on [`batch`]'s
//! queue-drained multi-core NTTs. Results print as aligned text tables
//! and are also written as JSON under `repro_results/`. Serving throughput, latency and allocation are
//! measured by the `benchmark/` package, not here.
//!
//! Set `MQX_QUICK=1` to shrink sizes and iteration counts (used by the
//! integration tests; numbers are then *not* publication-grade).

#![warn(missing_docs)]

pub mod batch;
pub mod engines;
pub mod experiments;
pub mod report;
pub mod timing;
pub mod workload;

/// Returns `true` when quick mode is requested via `MQX_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("MQX_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The NTT sizes (log₂ n) an experiment sweeps: the paper's 2¹⁰–2¹⁶
/// range, or a two-point subset in quick mode.
pub fn sweep_log_sizes() -> Vec<u32> {
    if quick_mode() {
        vec![10, 12]
    } else {
        (10..=16).collect()
    }
}
