//! Integration: every reproduction experiment runs end to end in quick
//! mode and produces structurally sane results.

use std::sync::OnceLock;

/// All experiments share the process environment; force quick mode once.
fn quick() -> bool {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| std::env::set_var("MQX_QUICK", "1"));
    true
}

#[test]
fn fig4_produces_all_ops_and_tiers() {
    let fig = mqx_bench::experiments::fig4::run(quick());
    assert_eq!(fig.rows.len(), 4, "vadd, vsub, vmul, axpy");
    for row in &fig.rows {
        assert!(
            row.tiers.len() >= 3,
            "{} tiers for {}",
            row.tiers.len(),
            row.op
        );
        assert!(row.tiers.iter().all(|(_, ns)| *ns > 0.0));
        // The arbitrary-precision baseline must be the slowest tier by a
        // wide margin — the paper's headline 17–18× BLAS gap.
        let gmp = row.tiers.iter().find(|(n, _)| n == "gmp").unwrap().1;
        let best = row
            .tiers
            .iter()
            .filter(|(n, _)| n != "gmp")
            .map(|(_, ns)| *ns)
            .fold(f64::INFINITY, f64::min);
        assert!(gmp > 2.0 * best, "gmp {gmp} vs best {best} for {}", row.op);
    }
}

#[test]
fn fig5_sweeps_sizes_with_ordered_tiers() {
    let fig = mqx_bench::experiments::fig5::run(quick());
    assert!(!fig.rows.is_empty());
    for row in &fig.rows {
        let find = |name: &str| row.tiers.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        // Baselines must trail the optimized scalar tier.
        let scalar = find("scalar").expect("scalar tier");
        let gmp = find("gmp").expect("gmp tier");
        assert!(
            gmp > scalar,
            "gmp {gmp} vs scalar {scalar} at 2^{}",
            row.log_n
        );
    }
}

#[test]
fn fig6_has_six_variants_normalized_to_base() {
    let rows = mqx_bench::experiments::fig6::run(quick());
    assert_eq!(rows.len(), 6);
    assert_eq!(rows[0].variant, "Base");
    assert!((rows[0].normalized - 1.0).abs() < 1e-9);
    let labels: Vec<_> = rows.iter().map(|r| r.variant).collect();
    assert_eq!(labels, vec!["Base", "+M", "+C", "+M,C", "+Mh,C", "+M,C,P"]);
    // The full extension must improve on the baseline.
    let mc = rows.iter().find(|r| r.variant == "+M,C").unwrap();
    assert!(mc.normalized < 1.0, "+M,C normalized = {}", mc.normalized);
}

#[test]
fn table6_reports_epsilon_for_each_pair() {
    let rows = mqx_bench::experiments::table6::run(quick());
    assert!(!rows.is_empty());
    for r in &rows {
        assert!(r.t_target_ns > 0.0 && r.t_proxy_ns > 0.0);
        // Structural only: quick-mode timings under a parallel test
        // runner are too noisy for a magnitude bound; the release-mode
        // `table6` binary is the quantitative check.
        assert!(r.epsilon_percent.is_finite(), "{:?}", r);
    }
}

#[test]
fn listing4_shows_mqx_advantage() {
    let rows = mqx_bench::experiments::listing4::run(false);
    assert_eq!(rows.len(), 12, "3 kernels × 2 ISAs × 2 machines");
    for kernel in ["addmod128", "submod128", "mulmod128"] {
        for machine in ["sunny-cove", "zen4"] {
            let avx = rows
                .iter()
                .find(|r| r.kernel == kernel && r.machine == machine && r.isa == "avx512")
                .unwrap();
            let mqx = rows
                .iter()
                .find(|r| r.kernel == kernel && r.machine == machine && r.isa == "mqx")
                .unwrap();
            assert!(mqx.instructions < avx.instructions, "{kernel} on {machine}");
            assert!(mqx.rthroughput < avx.rthroughput, "{kernel} on {machine}");
        }
    }
}

#[test]
fn sensitivity_compares_both_algorithms() {
    let rows = mqx_bench::experiments::sensitivity::run(quick());
    assert!(!rows.is_empty());
    for r in &rows {
        assert!(r.schoolbook_ns > 0.0 && r.karatsuba_ns > 0.0);
        assert!(
            r.ratio.is_finite() && r.ratio > 0.1 && r.ratio < 10.0,
            "{:?}",
            r
        );
    }
}

#[test]
fn fig7_projects_onto_both_targets() {
    let fig = mqx_bench::experiments::fig7::run(quick());
    assert_eq!(fig.sol.len(), 2, "Xeon 6980P and EPYC 9965S");
    assert!(!fig.measured_single_core.is_empty());
    // The projection must beat the 32-core OpenFHE reference (the
    // qualitative Figure 1/7 claim). Structural only: quick-mode timings
    // from an unoptimized parallel test build are too noisy for the
    // release-grade >10× magnitude; the `fig7` binary is the
    // quantitative check.
    for (_, accel_name, speedup) in &fig.speedups {
        assert!(speedup.is_finite() && *speedup > 0.0);
        if accel_name.contains("OpenFHE") {
            assert!(*speedup > 1.0, "SOL vs OpenFHE-32c only {speedup}");
        }
    }
}

#[test]
fn rns_scaling_covers_widening_moduli() {
    let report = mqx_bench::experiments::rns::run(quick());
    let rows = &report.scaling;
    let ks: Vec<usize> = rows.iter().map(|r| r.channels).collect();
    assert_eq!(ks, vec![1, 2, 4], "quick-mode channel counts");
    for r in rows {
        assert!(r.ns > 0.0 && r.ns_per_channel > 0.0);
        // Each channel is a ~62-bit prime, so the emulated modulus must
        // widen by ~62 bits per channel.
        assert!(
            r.modulus_bits >= 61 * r.channels as u64,
            "{} channels only span {} bits",
            r.channels,
            r.modulus_bits
        );
        assert!(!r.backend.is_empty());
    }
    // The wide-vs-RNS row: one 124-bit modulus against two word-sized
    // channels spanning about as many bits.
    let w = &report.wide_vs_rns;
    assert_eq!((w.wide_modulus_bits, w.channels), (124, 2));
    assert!(
        w.rns_modulus_bits >= 122,
        "two channels span {} bits",
        w.rns_modulus_bits
    );
    assert!(w.wide_ns > 0.0 && w.rns_channels_ns > 0.0 && w.wide_over_rns > 0.0);
    assert!(!w.backend.is_empty());
    // The boundary column: every step timed per coefficient at the
    // served size, and the kernel at both lane widths.
    let b = &w.boundary;
    assert_eq!((b.n, b.channels), (2048, 3));
    for ns in [
        b.split_ns_per_coeff,
        b.extend_ns_per_coeff,
        b.rescale_ns_per_coeff,
        b.join_ns_per_coeff,
        b.one_limb_kernel_ns_per_coeff,
        b.two_limb_kernel_ns_per_coeff,
    ] {
        assert!(ns > 0.0, "{b:?}");
    }
    assert!(!b.backend.is_empty() && !b.kernel_engine.is_empty());
    assert_eq!(
        b.regression,
        b.kernel_speedup < mqx_bench::experiments::rns::BOUNDARY_ONE_LIMB_MIN_SPEEDUP
    );
    // Structural only: wall-clock scaling is too noisy under the
    // parallel test runner; the release-mode `rns` binary is the
    // quantitative check.
}

#[test]
fn calibrate_reports_a_measured_ranking_and_winner() {
    let report = mqx_bench::experiments::calibrate::run(quick());
    // Honor the documented override instead of assuming it unset: an
    // MQX_BACKEND pin (whitespace-trimmed, like the facade's parse)
    // decouples `selected` from the measured winner.
    let pinned = std::env::var("MQX_BACKEND").is_ok_and(|v| !v.trim().is_empty());
    assert!(!report.backends.is_empty());
    assert!(!report.ranking.is_empty());
    assert_eq!(report.winner, report.ranking[0]);
    // Measured backends cover every registry entry; each carries
    // positive burst timings.
    let registered = mqx::backend::available().len();
    assert_eq!(report.backends.len(), registered);
    for row in &report.backends {
        assert!(row.ntt_ns > 0.0 && row.vmul_ns > 0.0, "{}", row.name);
        assert!(row.ns_per_butterfly > 0.0, "{}", row.name);
        assert_eq!(row.winner, row.name == report.winner);
    }
    // The winner carries the best score among the ranked backends.
    let winner_score = report
        .backends
        .iter()
        .find(|r| r.winner)
        .expect("winner row present")
        .ns_per_butterfly;
    for row in &report.backends {
        assert!(
            row.ns_per_butterfly >= winner_score,
            "{} beats the declared winner",
            row.name
        );
    }
    // Without a pin the selection is the measured winner.
    if !pinned {
        assert_eq!(report.selected, report.winner);
    }
    // The lazy-vs-canonical comparison carries one row per registry
    // backend, with finite positive measurements on both paths. The
    // "lazy must not regress" gate itself is enforced by the release
    // `calibrate` binary (non-zero exit) — quick-mode timings under the
    // parallel test runner are too noisy for a ratio bound here.
    assert_eq!(report.lazy.len(), registered);
    for (lazy_row, backend_row) in report.lazy.iter().zip(&report.backends) {
        assert_eq!(lazy_row.name, backend_row.name);
        assert!(
            lazy_row.canonical_ns_per_butterfly > 0.0 && lazy_row.lazy_ns_per_butterfly > 0.0,
            "{}",
            lazy_row.name
        );
        assert!(lazy_row.speedup.is_finite() && lazy_row.speedup > 0.0);
        assert_eq!(
            lazy_row.regression,
            lazy_row.lazy_ns_per_butterfly
                > lazy_row.canonical_ns_per_butterfly
                    * mqx_bench::experiments::calibrate::LAZY_REGRESSION_MARGIN
        );
    }
    // Plan build against one served polymul: shape only, for the same
    // reason — the ratio gate is the release `calibrate` binary's.
    let pb = &report.plan_build;
    assert_eq!(pb.backend, mqx::backend::default_backend().name());
    assert!(pb.plan_build_us > 0.0 && pb.polymul_us > 0.0);
    assert_eq!(pb.ratio, pb.plan_build_us / pb.polymul_us);
    assert_eq!(
        pb.regression,
        pb.ratio > mqx_bench::experiments::calibrate::PLAN_BUILD_MARGIN
    );
    // One limb against two: shape only; the speedup gate is the release
    // `calibrate` binary's.
    let w = &report.width;
    assert_eq!(w.backend, mqx::backend::default_backend().name());
    assert_eq!(w.n, 256);
    assert!(w.one_limb_ns_per_butterfly > 0.0 && w.two_limb_ns_per_butterfly > 0.0);
    assert_eq!(
        w.speedup,
        w.two_limb_ns_per_butterfly / w.one_limb_ns_per_butterfly
    );
    assert_eq!(
        w.regression,
        w.speedup < mqx_bench::experiments::calibrate::ONE_LIMB_MIN_SPEEDUP
    );
}

#[test]
fn fig1_headline_orders_baseline_vs_optimized() {
    let rows = mqx_bench::experiments::fig1::run(quick());
    assert!(rows.len() >= 5);
    let find = |needle: &str| {
        rows.iter()
            .find(|r| r.name.contains(needle))
            .map(|r| r.runtime_ns)
    };
    let gmp = find("gmp").expect("gmp row");
    let scalar = find("scalar").expect("scalar row");
    assert!(gmp > scalar, "baseline ordering");
    let rpu = find("RPU").expect("rpu row");
    assert!(rpu < scalar, "ASIC reference is fastest class");
}

#[test]
fn lint_gate_passes_on_the_tree() {
    // The same scan CI runs with `--deny`: the workspace must stay
    // clean so the static-analysis gate cannot fail on a fresh clone.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = mqx_lint::Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    let outcome = mqx_lint::lint_workspace(root, &config).expect("workspace scan succeeds");
    assert!(
        outcome.findings.is_empty(),
        "mqx_lint --deny would fail:\n{}",
        outcome
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
