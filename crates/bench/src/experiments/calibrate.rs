//! Backend auto-tuning calibration (extension beyond the paper's
//! static tier list): the same once-per-process measurement `Ring::auto`
//! uses to rank vector tiers, surfaced as a reproducible artifact.
//!
//! The paper's thesis is that kernel cost must be *measured* on the
//! machine at hand, not assumed from the ISA matrix — the fastest
//! engine shifts with the host (a wide tier can be throttled or
//! emulated, two tiers can tie). This experiment reports the
//! facade's startup micro-calibration: per-backend ns/butterfly of the
//! forward-NTT + `vmul` burst, the resulting ranking, the winner, and
//! the backend auto selection resolves to in this process (the winner
//! unless `MQX_BACKEND` pins another).

use crate::report::{fmt_ns, write_json, Table};
use mqx::backend::{self, calibrate};
use mqx::core::{primes, Modulus};
use mqx::ntt::NttPlan;
use mqx::simd::ResidueSoa;
use mqx_json::impl_to_json;

/// One backend's calibration measurement.
#[derive(Clone, Debug)]
pub struct CalibrateRow {
    /// Registry name of the measured backend.
    pub name: String,
    /// The backend's vector tier.
    pub tier: String,
    /// Median ns of one forward NTT at the calibration size.
    pub ntt_ns: f64,
    /// Median ns of one element-wise `vmul` at the calibration size.
    pub vmul_ns: f64,
    /// The ranking score: burst ns normalized by butterfly count.
    pub ns_per_butterfly: f64,
    /// Whether this backend heads the measured ranking.
    pub winner: bool,
}

impl_to_json!(CalibrateRow {
    name,
    tier,
    ntt_ns,
    vmul_ns,
    ns_per_butterfly,
    winner,
});

/// Lazy-vs-canonical polymul pipeline comparison for one backend: the
/// ns/butterfly delta the lazy-reduction fused path buys on this tier.
#[derive(Clone, Debug)]
pub struct LazyRow {
    /// Registry name of the measured backend.
    pub name: String,
    /// The backend's vector tier.
    pub tier: String,
    /// Median ns/butterfly of a full cyclic polymul through the
    /// canonical per-stage-reduced path.
    pub canonical_ns_per_butterfly: f64,
    /// Median ns/butterfly of the same polymul through the
    /// lazy-reduction fused path (Shoup butterflies, 2q/4q domains).
    pub lazy_ns_per_butterfly: f64,
    /// `canonical / lazy` — above 1.0 means the lazy path is faster.
    pub speedup: f64,
    /// Whether the lazy path measured more than [`LAZY_REGRESSION_MARGIN`]
    /// slower than canonical on this tier (a result the `calibrate` bin
    /// turns into a non-zero exit).
    pub regression: bool,
}

impl_to_json!(LazyRow {
    name,
    tier,
    canonical_ns_per_butterfly,
    lazy_ns_per_butterfly,
    speedup,
    regression,
});

/// A lazy measurement above `canonical × this` counts as a regression:
/// the fused pipeline exists to be faster, so "more than 10% slower"
/// fails the `calibrate` bin loudly instead of shipping a silently
/// slower default path.
pub const LAZY_REGRESSION_MARGIN: f64 = 1.10;

/// What opening a ring costs against using it once: `NttPlan::new` next
/// to one lazy fused negacyclic polymul on that plan, on the widest
/// detected tier. A ratio, so host speed cancels.
#[derive(Clone, Debug)]
pub struct PlanBuildRow {
    /// Registry name of the backend the polymul ran on.
    pub backend: String,
    /// Transform size of the plan.
    pub n: usize,
    /// Median µs of one `NttPlan::new(Q124, n)`.
    pub plan_build_us: f64,
    /// Median µs of one lazy fused negacyclic polymul on that plan.
    pub polymul_us: f64,
    /// `plan_build_us / polymul_us`.
    pub ratio: f64,
    /// Whether the ratio exceeds [`PLAN_BUILD_MARGIN`] (a result the
    /// `calibrate` bin turns into a non-zero exit).
    pub regression: bool,
}

impl_to_json!(PlanBuildRow {
    backend,
    n,
    plan_build_us,
    polymul_us,
    ratio,
    regression,
});

/// A plan may cost at most this many served polymuls to build: a
/// `PlanCache` miss stalls a worker for that long. With a bit-serial
/// division per Shoup constant and every reference table built up
/// front the ratio was ≈ 70; exact division
/// (`mqx_core::shoup::ShoupCtx`) and one eager table family bring it
/// to ≈ 1.3.
pub const PLAN_BUILD_MARGIN: f64 = 10.0;

/// The full calibration artifact.
#[derive(Clone, Debug)]
pub struct CalibrateReport {
    /// The backend auto selection resolves to in this process
    /// (honors an `MQX_BACKEND` pin).
    pub selected: String,
    /// The measured-ranking winner (ignores pins).
    pub winner: String,
    /// The measured ranking, best first.
    pub ranking: Vec<String>,
    /// Per-backend measurements, registry order.
    pub backends: Vec<CalibrateRow>,
    /// Lazy-vs-canonical polymul pipeline deltas, one row per registry
    /// backend (same registry order as `backends`).
    pub lazy: Vec<LazyRow>,
    /// Plan build cost against one served polymul.
    pub plan_build: PlanBuildRow,
}

impl_to_json!(CalibrateReport {
    selected,
    winner,
    ranking,
    backends,
    lazy,
    plan_build,
});

/// Reports the process calibration, prints the table, and archives the
/// `calibration` JSON artifact.
///
/// The `_quick` flag is accepted for signature uniformity with the
/// other experiments but does not shrink anything here: the burst is
/// already startup-sized (milliseconds). Quick mode still suppresses
/// the JSON write, via `write_json`'s own `MQX_QUICK` check.
pub fn run(_quick: bool) -> CalibrateReport {
    let measured = backend::calibration();

    // A bad MQX_BACKEND pin (a name the registry does not hold) must not
    // abort the experiment — repro_all runs this first, so panicking
    // here would cost the whole reproduction run. Report the failure
    // in the artifact instead.
    let selected = match backend::selected_backend() {
        Ok(b) => b.name().to_string(),
        Err(e) => {
            eprintln!("note: auto selection unresolved ({e}); reporting measurements only");
            format!("<unresolved: {e}>")
        }
    };
    let winner = measured.winner();
    let ranking: Vec<String> = measured
        .ranking()
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    let rows: Vec<CalibrateRow> = measured
        .measurements()
        .iter()
        .map(|m| CalibrateRow {
            name: m.name.to_string(),
            tier: m.tier.to_string(),
            ntt_ns: m.ntt_ns,
            vmul_ns: m.vmul_ns,
            ns_per_butterfly: m.ns_per_butterfly,
            winner: m.name == winner.name(),
        })
        .collect();

    let mut table = Table::new(
        "backend calibration — forward-NTT + vmul burst, median ns",
        &["backend", "tier", "ntt", "vmul", "ns/butterfly", "note"],
    );
    for r in &rows {
        let note = if r.winner { "winner" } else { "ranked" };
        table.row(&[
            r.name.clone(),
            r.tier.clone(),
            fmt_ns(r.ntt_ns),
            fmt_ns(r.vmul_ns),
            format!("{:.3}", r.ns_per_butterfly),
            note.to_string(),
        ]);
    }
    table.print();
    println!(
        "auto selection resolves to '{}' (measured winner '{}')",
        selected,
        winner.name(),
    );

    let lazy = measure_lazy_rows();
    let mut lazy_table = Table::new(
        "lazy-reduction fused polymul vs canonical — median ns/butterfly",
        &["backend", "tier", "canonical", "lazy", "speedup", "note"],
    );
    for r in &lazy {
        let note = if r.regression {
            "REGRESSION (>10% slower)"
        } else {
            "ok"
        };
        lazy_table.row(&[
            r.name.clone(),
            r.tier.clone(),
            format!("{:.3}", r.canonical_ns_per_butterfly),
            format!("{:.3}", r.lazy_ns_per_butterfly),
            format!("{:.2}x", r.speedup),
            note.to_string(),
        ]);
    }
    lazy_table.print();

    let plan_build = measure_plan_build();
    println!(
        "plan build: NttPlan::new(Q124, {}) {:.0} µs = {:.1}× one lazy fused negacyclic polymul \
         on '{}' ({:.0} µs; gate ≤ {PLAN_BUILD_MARGIN}×)",
        plan_build.n,
        plan_build.plan_build_us,
        plan_build.ratio,
        plan_build.backend,
        plan_build.polymul_us,
    );

    let report = CalibrateReport {
        selected,
        winner: winner.name().to_string(),
        ranking,
        backends: rows,
        lazy,
        plan_build,
    };
    write_json("calibration", &report);
    report
}

/// `n` xorshift residues below `q`.
fn seeded_poly(seed: u64, n: usize, q: u128) -> Vec<u128> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            u128::from(state) % q
        })
        .collect()
}

/// Times `NttPlan::new` at the `word_polymul` workload's shape (Q124,
/// n = 4096) against one lazy fused negacyclic polymul on that plan,
/// on [`default_backend`](backend::default_backend) (the widest
/// detected tier).
fn measure_plan_build() -> PlanBuildRow {
    const N: usize = 4096;
    let m = Modulus::new_prime(primes::Q124).expect("Q124 is prime");
    let build = || NttPlan::new(&m, N).expect("Q124 supports n = 4096");
    let plan_build_us = calibrate::median_ns(7, 5, || {
        std::hint::black_box(build());
    }) / 1e3;

    let backend = backend::default_backend();
    let plan = build();
    let mut sa = ResidueSoa::from_u128s(&seeded_poly(0xCA11_B8A7E, N, m.value()));
    let mut sb = ResidueSoa::from_u128s(&seeded_poly(0x5E1EC7, N, m.value()));
    let mut tmp = ResidueSoa::zeros(N);
    // The product leaves `a` canonical and `b` in the lazy domain, both
    // valid inputs for the next round.
    let polymul_us = calibrate::median_ns(20, 10, || {
        backend
            .polymul_negacyclic_fused(&plan, &mut sa, &mut sb, &mut tmp)
            .expect("Q124 has a 2n-th root at n = 4096");
    }) / 1e3;
    let ratio = plan_build_us / polymul_us;
    PlanBuildRow {
        backend: backend.name().to_string(),
        n: N,
        plan_build_us,
        polymul_us,
        ratio,
        regression: ratio > PLAN_BUILD_MARGIN,
    }
}

/// Times a full cyclic polymul through the canonical and lazy-fused
/// backend entry points on every registry backend, at the
/// same size the startup calibration uses.
fn measure_lazy_rows() -> Vec<LazyRow> {
    const N: usize = 256;
    const TOTAL: usize = 20;
    const KEEP: usize = 10;
    let m = Modulus::new_prime(primes::Q124).expect("Q124 is prime");
    let plan = NttPlan::new(&m, N).expect("Q124 supports the calibration size");
    // One cyclic polymul = forward(a) + forward(b) + inverse.
    let butterflies = 3.0 * (N / 2) as f64 * f64::from(N.trailing_zeros());
    let a = seeded_poly(0xCA11_B8A7E, N, m.value());
    let b = seeded_poly(0x5E1EC7, N, m.value());

    backend::available()
        .into_iter()
        .map(|backend| {
            let mut sa = ResidueSoa::from_u128s(&a);
            let mut sb = ResidueSoa::from_u128s(&b);
            let mut tmp = ResidueSoa::zeros(N);
            // Products of reduced inputs stay reduced, so re-running the
            // kernel over the previous output is a valid steady state
            // for both paths.
            let canonical = calibrate::median_ns(TOTAL, KEEP, || {
                backend.polymul_cyclic(&plan, &mut sa, &mut sb, &mut tmp)
            }) / butterflies;
            let lazy = calibrate::median_ns(TOTAL, KEEP, || {
                backend.polymul_cyclic_fused(&plan, &mut sa, &mut sb, &mut tmp)
            }) / butterflies;
            LazyRow {
                name: backend.name().to_string(),
                tier: backend.tier().to_string(),
                canonical_ns_per_butterfly: canonical,
                lazy_ns_per_butterfly: lazy,
                speedup: canonical / lazy,
                regression: lazy > canonical * LAZY_REGRESSION_MARGIN,
            }
        })
        .collect()
}
