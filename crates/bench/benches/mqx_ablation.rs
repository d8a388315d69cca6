//! Micro-bench: the Figure 6 MQX-component ablation on the vector
//! modular-multiply kernel (the butterfly's dominant cost).
//! `harness = false`; the variant set is `mqx_bench::engines`'s, built
//! over whatever base engine this host detects.

use mqx_bench::timing::micro;
use mqx_core::{primes, Modulus};
use mqx_simd::ResidueSoa;

fn main() {
    let m = Modulus::new(primes::Q124).unwrap();
    let q = m.value();
    let len = 64;
    let a: Vec<u128> = (1..=len as u128).map(|i| (q / 3) * i % q).collect();
    let b: Vec<u128> = (1..=len as u128).map(|i| (q / 7) * i % q).collect();
    let xs = ResidueSoa::from_u128s(&a);
    let ys = ResidueSoa::from_u128s(&b);

    println!("== mulmod128 ablation (×{len}) ==");
    for variant in mqx_bench::engines::ablation_variants() {
        let mut out = ResidueSoa::zeros(len);
        micro(variant.label, || {
            variant.backend.vmul(&xs, &ys, &mut out, &m)
        });
    }
}
