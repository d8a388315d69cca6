//! RNS channel-count scaling: sharded multi-modulus polynomial products
//! at 1–8 word-sized residue channels (62 → 496 emulated modulus bits),
//! the wide-vs-RNS row with its boundary column. Exits non-zero if the
//! boundary kernel at one limb per lane is not
//! `BOUNDARY_ONE_LIMB_MIN_SPEEDUP` times faster than at two limbs.
fn main() {
    let report = mqx_bench::experiments::rns::run(mqx_bench::quick_mode());
    let b = &report.wide_vs_rns.boundary;
    if b.regression {
        eprintln!(
            "error: the boundary kernel on {} at one limb ({:.2} ns/coefficient) is only {:.2}× \
             faster than at two limbs ({:.2}); the gate is {}×",
            b.kernel_engine,
            b.one_limb_kernel_ns_per_coeff,
            b.kernel_speedup,
            b.two_limb_kernel_ns_per_coeff,
            mqx_bench::experiments::rns::BOUNDARY_ONE_LIMB_MIN_SPEEDUP
        );
        std::process::exit(1);
    }
}
