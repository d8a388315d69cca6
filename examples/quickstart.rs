//! Quickstart: the workspace in five minutes — modular arithmetic, a
//! runtime-dispatched ring, an NTT round trip, and a polynomial product.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mqx::core::{nt, primes, Modulus};
use mqx::simd::ResidueSoa;
use mqx::{backend, Ring};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 124-bit prime field with Barrett constants precomputed.
    let m = Modulus::new_prime(primes::Q124)?;
    println!("modulus  q = {} ({} bits)", m.value(), m.bits());
    println!("barrett  µ = {:#x}, k = {}", m.mu(), m.barrett_shift());

    // 2. Double-word modular arithmetic (§2.1–§2.2).
    let a = m.reduce(0xDEAD_BEEF_CAFE_BABE_0123_4567_89AB_CDEF);
    let b = m.reduce(0x0FED_CBA9_8765_4321_F0E1_D2C3_B4A5_9687);
    println!("\n(a + b) mod q = {:#x}", m.add_mod(a, b));
    println!("(a · b) mod q = {:#x}", m.mul_mod(a, b));
    assert_eq!(m.mul_mod(a, m.inv_mod(a).expect("prime field")), 1);

    // 3. The field has 2-adicity 20: every radix-2 NTT size up to 2^20.
    println!("\n2-adicity of q - 1: {}", nt::two_adicity(m.value()));

    // 4. What can this machine run? The registry detects tiers at
    //    runtime — no rebuild, no cfg(target_feature).
    println!("\nvector tiers: {}", mqx::simd::tier_summary());
    for be in backend::available() {
        println!(
            "  backend {:<16} tier {:<8} lanes {}",
            be.name(),
            be.tier().to_string(),
            be.lanes()
        );
    }

    // 5. One entry point over all of them: Ring::auto picks the
    //    fastest tier *as measured on this machine* — the first auto
    //    build runs a one-shot micro-calibration (NTT + vmul burst on
    //    every registry backend) and memoizes the ranking.
    //    MQX_BACKEND=<name> pins a tier.
    let n = 1024;
    let ring = Ring::auto(primes::Q124, n)?;
    println!(
        "\nRing::auto selected the {:?} backend",
        ring.backend().name()
    );
    let cal = backend::calibration();
    for m in cal.measurements() {
        println!("  {:<16} {:>10.3} ns/butterfly", m.name, m.ns_per_butterfly);
    }
    let ranking: Vec<&str> = cal.ranking().iter().map(|b| b.name()).collect();
    println!("measured ranking: {}", ranking.join(" > "));

    let data: Vec<u128> = (0..n as u64).map(|i| u128::from(i * i + 1)).collect();
    let mut soa = ResidueSoa::from_u128s(&data);
    ring.forward(&mut soa)?;
    ring.inverse(&mut soa)?;
    assert_eq!(soa.to_u128s(), data);
    println!("NTT round trip at n = {n}: ok");

    // 6. The same on an explicitly pinned tier (portable runs anywhere).
    let portable = Ring::with_backend_name(primes::Q124, n, "portable")?;
    let mut soa = ResidueSoa::from_u128s(&data);
    portable.forward(&mut soa)?;
    portable.inverse(&mut soa)?;
    assert_eq!(soa.to_u128s(), data);
    println!("NTT round trip on pinned 'portable' backend: ok");

    // 7. Negacyclic polynomial multiplication — the RLWE workhorse.
    let f: Vec<u128> = (0..n as u64).map(|i| u128::from(i % 17)).collect();
    let g: Vec<u128> = (0..n as u64).map(|i| u128::from(i % 23)).collect();
    let product = ring.polymul_negacyclic(&f, &g)?;
    let reference = mqx::ntt::polymul::schoolbook_negacyclic(&f, &g, &m);
    assert_eq!(product, reference);
    println!("negacyclic polymul (n = {n}) matches the O(n²) schoolbook: ok");

    // 8. Rings are immutable `&self` handles: share one across threads
    //    and every caller gets bit-identical results (see the
    //    batch_serve example for the full executor-driven serving loop).
    let shared = std::sync::Arc::new(ring);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let ring = std::sync::Arc::clone(&shared);
            let (f, g, product) = (&f, &g, &product);
            scope.spawn(move || {
                assert_eq!(&ring.polymul_negacyclic(f, g).expect("sized"), product);
            });
        }
    });
    println!("one Arc<Ring> shared by 4 threads: bit-identical products");

    Ok(())
}
