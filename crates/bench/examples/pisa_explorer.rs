//! PISA explorer: see the MQX functional-correctness flag (§4.2) in
//! action on the two MQX engines, then inspect how the instruction
//! streams schedule on the simplified machine models.
//!
//! ```sh
//! cargo run --release -p mqx_bench --example pisa_explorer
//! ```

use mqx::core::{primes, Modulus};
use mqx::simd::ResidueSoa;
use mqx_bench::engines;
use mqx_mca::{analyze, kernels, Machine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = Modulus::new_prime(primes::Q124)?;
    let q = m.value();

    // The same eight lanes of work for every engine.
    let a: Vec<u128> = (1..=8_u64)
        .map(|i| (q / 3).wrapping_mul(u128::from(i)) % q)
        .collect();
    let b: Vec<u128> = (1..=8_u64)
        .map(|i| (q / 7).wrapping_mul(u128::from(i)) % q)
        .collect();
    let sa = ResidueSoa::from_u128s(&a);
    let sb = ResidueSoa::from_u128s(&b);

    // Both MQX modes over this host's base engine; the flag travels
    // with each.
    let (functional, pisa) = (engines::mqx_functional(), engines::mqx_pisa());
    assert!(functional.consumable);
    assert!(!pisa.consumable);
    let (functional, pisa) = (functional.backend, pisa.backend);

    // Functional mode: Table 2 semantics, bit-exact.
    let mut sum_f = ResidueSoa::zeros(8);
    let mut prod_f = ResidueSoa::zeros(8);
    functional.vadd(&sa, &sb, &mut sum_f, &m);
    functional.vmul(&sa, &sb, &mut prod_f, &m);

    // PISA mode: Table 3 proxies, representative cost, WRONG numbers.
    let mut sum_p = ResidueSoa::zeros(8);
    let mut prod_p = ResidueSoa::zeros(8);
    pisa.vadd(&sa, &sb, &mut sum_p, &m);
    pisa.vmul(&sa, &sb, &mut prod_p, &m);

    println!("MQX functional vs PISA (lane 0):");
    println!("  addmod functional = {:#x}", sum_f.get(0));
    println!(
        "  addmod PISA       = {:#x}   <- not meaningful",
        sum_p.get(0)
    );
    println!("  mulmod functional = {:#x}", prod_f.get(0));
    println!(
        "  mulmod PISA       = {:#x}   <- not meaningful",
        prod_p.get(0)
    );

    // The flag's contract: functional matches the scalar kernels...
    for i in 0..8 {
        assert_eq!(sum_f.get(i), m.add_mod(a[i], b[i]));
        assert_eq!(prod_f.get(i), m.mul_mod(a[i], b[i]));
    }
    // ...and PISA does not (if it did, the proxy would be doing the full
    // work and the projection would be meaningless).
    assert_ne!(prod_p.get(0), m.mul_mod(a[0], b[0]));
    println!("\nfunctional ≡ scalar: verified; PISA ≠ scalar: verified (the §4.2 flag)");

    // Now the static view: how the two instruction streams schedule.
    println!("\n──────────────────────────────────────────────────");
    for machine in [Machine::sunny_cove(), Machine::zen4()] {
        for (label, stream) in [
            ("addmod128 / AVX-512", kernels::addmod128_avx512()),
            ("addmod128 / MQX", kernels::addmod128_mqx()),
        ] {
            let report = analyze(&machine, &stream);
            println!(
                "{label:<22} on {:<11}: {:>3} insts, {:>3} uops, rthroughput {:>5.2}, critical path {:>2}",
                machine.name(),
                report.instruction_count,
                report.total_uops,
                report.rthroughput,
                report.critical_path,
            );
        }
    }

    println!("\nfull Listing 4 view (addmod128 / MQX on Sunny Cove):\n");
    let stream = kernels::addmod128_mqx();
    let machine = Machine::sunny_cove();
    println!("{}", analyze(&machine, &stream).render(&machine, &stream));

    Ok(())
}
