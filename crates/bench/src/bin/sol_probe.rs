//! Empirically probes the speed-of-light scaling assumption (§6): Eq. 13
//! assumes batched independent NTTs scale linearly across cores. This
//! binary runs a batch of transforms on 1, 2, … `available_parallelism`
//! threads and reports the measured speedup against the ideal.

use mqx_bench::batch;
use mqx_bench::timing::time_paper_style;
use mqx_bench::workload::Workload;
use mqx_core::{primes, Modulus};
use mqx_ntt::NttPlan;
use mqx_simd::{Portable, ResidueSoa};

fn main() {
    let quick = mqx_bench::quick_mode();
    let log_n = if quick { 10 } else { 12 };
    let n = 1_usize << log_n;
    let batch_size = if quick { 8 } else { 32 };
    let cores = std::thread::available_parallelism().map_or(2, |c| c.get());

    let m = Modulus::new_prime(primes::Q124).expect("Q124");
    let plan = NttPlan::new(&m, n).expect("plan");
    let mut w = Workload::new(m, 0x501_1234);
    let template: Vec<ResidueSoa> = (0..batch_size).map(|_| w.residues_soa(n)).collect();

    println!(
        "SOL scaling probe: batch of {batch_size} × 2^{log_n} NTTs, host reports {cores} core(s)\n"
    );
    println!(
        "{:<8} {:>12} {:>10} {:>10}",
        "threads", "batch time", "speedup", "ideal"
    );

    let mut t1 = 0.0_f64;
    for threads in 1..=cores {
        let mut bufs = template.clone();
        let iters = if quick { 4 } else { 10 };
        let ns = time_paper_style(iters, iters / 2, || {
            batch::forward_batch_simd::<Portable>(&plan, &mut bufs, threads);
        });
        if threads == 1 {
            t1 = ns;
        }
        println!(
            "{:<8} {:>10.2} ms {:>9.2}x {:>9.2}x",
            threads,
            ns / 1e6,
            t1 / ns,
            threads as f64
        );
    }
    println!(
        "\nEq. 13 assumes the 'ideal' column; the measured column shows what\n\
         this host's memory system concedes (the paper's §6 caveat)."
    );
}
