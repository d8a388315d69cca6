//! Roofline what-if: project a measured single-core NTT onto any CPU
//! (§6, Eq. 13) and inspect the §5.4 L2 cache knee. The measurement
//! runs on whatever backend `Ring::auto` selects for this machine.
//!
//! ```sh
//! cargo run --release -p mqx_bench --example roofline_what_if          # built-in CPUs
//! cargo run --release -p mqx_bench --example roofline_what_if 64 3.1   # custom cores/GHz
//! ```

use mqx::core::primes;
use mqx::ntt::butterfly_count;
use mqx::simd::ResidueSoa;
use mqx::Ring;
use mqx_roofline::{accel, cpu, predicted_l2_knee, sol_runtime, CpuSpec, SolSeries};
use std::time::Instant;

fn measure_single_core(log_n: u32) -> (String, f64) {
    let n = 1_usize << log_n;
    let ring = Ring::auto(primes::Q124, n).expect("ring");
    let backend_name = ring.backend().name().to_string();
    let mut x = ResidueSoa::from_u128s(&(0..n as u64).map(u128::from).collect::<Vec<_>>());
    // Warm up, then average a few runs.
    ring.forward(&mut x).expect("sized buffer");
    let reps = 10;
    let t0 = Instant::now();
    for _ in 0..reps {
        ring.forward(&mut x).expect("sized buffer");
    }
    (
        backend_name,
        t0.elapsed().as_nanos() as f64 / f64::from(reps),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    let log_n = 12;
    println!("measuring a single-core 2^{log_n} NTT (auto-selected backend)…");
    let (backend_name, t) = measure_single_core(log_n);
    println!(
        "measured on '{backend_name}': {:.1} µs  ({:.2} ns/butterfly)\n",
        t / 1e3,
        t / butterfly_count(1 << log_n) as f64
    );
    let measured = [(log_n, t)];

    // Custom CPU from the command line, if given.
    let custom: Option<CpuSpec> = match (args.get(1), args.get(2)) {
        (Some(cores), Some(ghz)) => Some(CpuSpec {
            name: "custom",
            cores: cores.parse().expect("cores: integer"),
            base_ghz: 2.0,
            allcore_boost_ghz: ghz.parse().expect("GHz: float"),
            max_boost_ghz: ghz.parse().expect("GHz: float"),
            l2_per_core_bytes: 1024 * 1024,
            l3_bytes: 256 * 1024 * 1024,
            avx512: true,
        }),
        _ => None,
    };

    println!("Eq. 13 projections of that measurement:");
    let host_ghz = 3.0; // assume nominal; pass your clock for precision
    for spec in cpu::all() {
        let sol = sol_runtime(t, host_ghz, 1, spec);
        println!(
            "  {:<22} {:>3} cores @ {:.2} GHz → {:>9.1} ns",
            spec.name, spec.cores, spec.allcore_boost_ghz, sol
        );
    }
    if let Some(spec) = &custom {
        let sol = sol_runtime(t, host_ghz, 1, spec);
        println!(
            "  {:<22} {:>3} cores @ {:.2} GHz → {:>9.1} ns   (yours)",
            spec.name, spec.cores, spec.allcore_boost_ghz, sol
        );
    }

    // Where does each projected series land against the ASIC references?
    println!("\nspeedup over the accelerator reference series (geomean, >1 = CPU ahead):");
    for spec in [&cpu::XEON_6980P, &cpu::EPYC_9965S] {
        let series = SolSeries::project("mqx-sol", &measured, host_ghz, spec);
        for a in [accel::rpu(), accel::moma(), accel::openfhe_32core()] {
            if let Some(s) = series.geomean_speedup_vs(&a) {
                println!("  {:<28} vs {:<30} {s:>8.2}x", series.name, a.name);
            }
        }
    }

    // The §5.4 cache knee.
    println!("\npredicted L2 knee (first NTT size whose stage working set spills L2):");
    for spec in cpu::all() {
        println!(
            "  {:<22} L2/core {:>7} KiB → knee at 2^{}",
            spec.name,
            spec.l2_per_core_bytes / 1024,
            predicted_l2_knee(spec)
        );
    }
    println!("\npaper reference: MQX degrades at 2^16 on the Xeon 8352Y (§5.4)");
}
