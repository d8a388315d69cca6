//! Backend auto-tuning calibration: the measured ns/butterfly ranking
//! behind `Ring::auto`, as a reproducible JSON artifact.
//!
//! Exits non-zero on either of two regressions, so CI fails loudly
//! instead of shipping a slower default:
//!
//! * the lazy-reduction fused polymul path measures more than 10%
//!   slower than the canonical path on any tier — the fused pipeline is
//!   the default path;
//! * the host detects AVX-512 or AVX2 and the widest detected tier's
//!   lazy fused polymul is not faster than `portable`'s, or that tier
//!   does not head the measured ranking — the vector kernels must pay
//!   off in this ordinary release build, with no `-C target-cpu` flag
//!   (the margin is several-fold, so this is not a noise-sized gate).
fn main() {
    let report = mqx_bench::experiments::calibrate::run(mqx_bench::quick_mode());
    let mut failed = false;

    let regressions: Vec<&str> = report
        .lazy
        .iter()
        .filter(|row| row.regression)
        .map(|row| row.name.as_str())
        .collect();
    if !regressions.is_empty() {
        eprintln!(
            "error: lazy fused polymul ranked >10% slower than canonical on: {}",
            regressions.join(", ")
        );
        failed = true;
    }

    // The static rule names the widest detected tier.
    let widest = mqx::backend::default_backend().name();
    if widest != "portable" {
        let lazy_of = |name: &str| {
            report
                .lazy
                .iter()
                .find(|row| row.name == name)
                .map(|row| row.lazy_ns_per_butterfly)
                .expect("every consumable registry backend has a lazy row")
        };
        let (wide, portable) = (lazy_of(widest), lazy_of("portable"));
        if wide >= portable {
            eprintln!(
                "error: {widest} lazy fused polymul at {wide:.3} ns/butterfly does not beat \
                 portable at {portable:.3}"
            );
            failed = true;
        }
        if report.winner != widest {
            eprintln!(
                "error: the measured ranking is headed by '{}', not the widest detected tier \
                 '{widest}'",
                report.winner
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}
