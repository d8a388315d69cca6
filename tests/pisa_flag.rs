//! Integration: the §4.2 functional-correctness flag on the paper's
//! measurement engines (`mqx_bench::engines`, outside the facade's
//! registry). Functional MQX is bit-exact against scalar; PISA MQX is
//! deliberately not ("we execute the code using PISA with the
//! expectation of not getting correct results") — and every engine
//! struct must carry that contract as its `consumable` flag.

use mqx::backend;
use mqx::core::{primes, Modulus};
use mqx::simd::ResidueSoa;
use mqx::Ring;
use mqx_bench::engines;
use std::sync::Arc;

fn lanes(q: u128) -> (Vec<u128>, Vec<u128>) {
    let a: Vec<u128> = (1..=8_u128).map(|i| (q / 5) * i % q).collect();
    let b: Vec<u128> = (1..=8_u128).map(|i| (q / 11) * i % q).collect();
    (a, b)
}

#[test]
fn registry_carries_the_correctness_flag() {
    let functional = engines::mqx_functional();
    assert!(
        functional.consumable,
        "functional mode is bit-exact and consumable"
    );
    let pisa = engines::mqx_pisa();
    assert!(
        !pisa.consumable,
        "PISA results must never be consumed as values"
    );
    // Both measure the MQX extension of the same base engine.
    assert_eq!(functional.backend.tier(), pisa.backend.tier());
    assert_eq!(functional.backend.lanes(), pisa.backend.lanes());
}

#[test]
fn functional_arithmetic_is_exact() {
    let m = Modulus::new_prime(primes::Q124).unwrap();
    let (a, b) = lanes(m.value());
    let functional = engines::mqx_functional().backend;
    let sa = ResidueSoa::from_u128s(&a);
    let sb = ResidueSoa::from_u128s(&b);
    let mut sum = ResidueSoa::zeros(8);
    let mut prod = ResidueSoa::zeros(8);
    functional.vadd(&sa, &sb, &mut sum, &m);
    functional.vmul(&sa, &sb, &mut prod, &m);
    for i in 0..8 {
        assert_eq!(sum.get(i), m.add_mod(a[i], b[i]), "add lane {i}");
        assert_eq!(prod.get(i), m.mul_mod(a[i], b[i]), "mul lane {i}");
    }
}

#[test]
fn pisa_arithmetic_is_wrong_by_design() {
    let m = Modulus::new_prime(primes::Q124).unwrap();
    let (a, b) = lanes(m.value());
    let pisa = engines::mqx_pisa().backend;
    let sa = ResidueSoa::from_u128s(&a);
    let sb = ResidueSoa::from_u128s(&b);
    let mut prod = ResidueSoa::zeros(8);
    pisa.vmul(&sa, &sb, &mut prod, &m);
    let wrong = (0..8)
        .filter(|&i| prod.get(i) != m.mul_mod(a[i], b[i]))
        .count();
    assert!(
        wrong >= 7,
        "PISA should corrupt essentially every lane; only {wrong} differ"
    );
}

#[test]
fn pisa_ntt_differs_functional_ntt_matches() {
    let n = 64;
    let q = primes::Q124;
    let xs: Vec<u128> = (0..n as u64).map(|i| u128::from(i * 31 + 7)).collect();

    let mut reference = xs.clone();
    let m = Modulus::new_prime(q).unwrap();
    let plan = mqx::ntt::NttPlan::new(&m, n).unwrap();
    plan.forward_scalar(&mut reference);

    let functional_ring = Ring::builder(q, n)
        .backend(engines::mqx_functional().backend)
        .build()
        .unwrap();
    let mut soa = ResidueSoa::from_u128s(&xs);
    functional_ring.forward(&mut soa).unwrap();
    assert_eq!(soa.to_u128s(), reference, "functional flag on");

    let pisa_ring = Ring::builder(q, n)
        .backend(engines::mqx_pisa().backend)
        .build()
        .unwrap();
    let mut soa = ResidueSoa::from_u128s(&xs);
    pisa_ring.forward(&mut soa).unwrap();
    assert_ne!(soa.to_u128s(), reference, "PISA flag off must not match");
}

/// Every functional-mode MQX component combination (+M, +C, +M,C,
/// +Mh,C, +M,C,P) must produce the bit-exact scalar NTT — the
/// correctness side of the Figure 6 ablation, at the transform level
/// (the dmod-level agreement alone would not catch a profile-specific
/// regression in the butterfly dataflow).
#[test]
fn all_functional_profiles_agree_on_ntt() {
    let n = 128;
    let q = primes::Q120;
    let m = Modulus::new_prime(q).unwrap();
    let plan = mqx::ntt::NttPlan::new(&m, n).unwrap();
    let xs: Vec<u128> = (0..n as u64).map(|i| u128::from(i * 13 + 1)).collect();
    let mut reference = xs.clone();
    plan.forward_scalar(&mut reference);

    for profile in engines::functional_profiles() {
        assert!(profile.consumable, "{}", profile.label);
        let mut soa = ResidueSoa::from_u128s(&xs);
        let mut scratch = ResidueSoa::zeros(n);
        profile.backend.forward_ntt(&plan, &mut soa, &mut scratch);
        assert_eq!(soa.to_u128s(), reference, "{}", profile.label);
    }
}

#[test]
fn ablation_variants_preserve_the_flag() {
    // Figure 6's variant set: the base engine is real, every MQX
    // component combination runs in PISA mode and must stay flagged.
    let variants = engines::ablation_variants();
    assert_eq!(variants.len(), 6);
    assert!(variants[0].consumable, "Base is a real engine");
    for v in &variants[1..] {
        assert!(!v.consumable, "{} must be PISA-flagged", v.label);
    }
    // `+M,C` is the mqx-pisa engine.
    assert_eq!(variants[3].backend.name(), "mqx-pisa");
}

#[test]
fn proxy_pairs_are_nonempty_and_non_consumable() {
    let pairs = engines::proxy_pairs();
    assert!(!pairs.is_empty());
    for p in &pairs {
        assert!(p.target.consumable, "{}", p.target.label);
        assert!(!p.proxy.consumable, "{}", p.proxy.label);
        assert_eq!(p.target.backend.tier(), p.proxy.backend.tier());
    }
}

#[test]
fn ablation_and_proxy_sets_reuse_registry_instances() {
    let base = engines::ablation_variants().swap_remove(0).backend;
    assert!(
        Arc::ptr_eq(&base, &backend::by_name(base.name()).unwrap()),
        "Base must be the registry instance"
    );
    for pair in engines::proxy_pairs() {
        let registered = backend::by_name(pair.target.backend.name())
            .expect("every proxy target is a registry backend");
        assert!(
            Arc::ptr_eq(&pair.target.backend, &registered),
            "{} target must be the registry instance",
            pair.target.label
        );
    }
}
