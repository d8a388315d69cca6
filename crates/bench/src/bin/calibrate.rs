//! Backend auto-tuning calibration: the measured ns/butterfly ranking
//! behind `Ring::auto`, as a reproducible JSON artifact.
//!
//! Exits non-zero on any of four regressions, so CI fails loudly
//! instead of shipping a slower default:
//!
//! * the lazy-reduction fused polymul path measures more than 10%
//!   slower than the canonical path on any tier — the fused pipeline is
//!   the default path;
//! * the host detects AVX-512 or AVX2 and the widest detected tier's
//!   lazy fused polymul is not faster than `portable`'s, or that tier
//!   does not head the measured ranking — the vector kernels must pay
//!   off in this ordinary release build, with no `-C target-cpu` flag
//!   (the margin is several-fold, so this is not a noise-sized gate);
//! * a word-sized RNS channel's lazy fused cyclic polymul at n = 256 is
//!   not at least 1.5× faster per butterfly than `Q124`'s on the widest
//!   detected tier — below `2^62` the plan runs one 64-bit limb per
//!   residue, and a ratio near 1 means it went back to two;
//! * `NttPlan::new(Q124, 4096)` costs more than 10× one lazy fused
//!   negacyclic polymul on that plan on the widest detected tier —
//!   opening a ring (and every `PlanCache` miss) must stay in the
//!   order of what one request costs (≈ 1.3× here; ≈ 40× with a
//!   bit-serial long division per Shoup constant, ≈ 70× when every
//!   reference table was built up front as well).
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

    // The prediction the measurement must confirm: the widest detected
    // tier.
    let widest = mqx::backend::default_backend().name();
    if widest != "portable" {
        let lazy_of = |name: &str| {
            report
                .lazy
                .iter()
                .find(|row| row.name == name)
                .map(|row| row.lazy_ns_per_butterfly)
                .expect("every registry backend has a lazy row")
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

    let w = &report.width;
    if w.regression {
        eprintln!(
            "error: the lazy fused cyclic polymul on the channel prime {} (one limb) at {:.3} \
             ns/butterfly is only {:.2}× faster than Q124 (two limbs) at {:.3} on {}; the gate \
             is {}×",
            w.channel_modulus,
            w.one_limb_ns_per_butterfly,
            w.speedup,
            w.two_limb_ns_per_butterfly,
            w.backend,
            mqx_bench::experiments::calibrate::ONE_LIMB_MIN_SPEEDUP
        );
        failed = true;
    }

    let pb = &report.plan_build;
    if pb.regression {
        eprintln!(
            "error: NttPlan::new(Q124, {}) at {:.0} µs is {:.1}× one lazy fused negacyclic \
             polymul on {} ({:.0} µs); the gate is {}×",
            pb.n,
            pb.plan_build_us,
            pb.ratio,
            pb.backend,
            pb.polymul_us,
            mqx_bench::experiments::calibrate::PLAN_BUILD_MARGIN
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
}
