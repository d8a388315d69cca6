//! Randomized property tests: every engine available at runtime (and
//! every functional MQX profile) must agree lane-wise with the scalar
//! core on random reduced inputs, for all three modular operations.
//!
//! Seeded loops over the offline `rand` shim stand in for the crates.io
//! `proptest` harness (unavailable offline). Hardware engines are
//! exercised only when runtime feature detection confirms the host can
//! execute them.

use crate::profiles::*;
use crate::{
    addmod, mulmod, mulmod_karatsuba, submod, Mqx, Portable, SimdEngine, VDword, VModulus,
};
use mqx_core::{primes, Modulus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 192;

const MODULI: [u128; 7] = [
    primes::Q124,
    primes::Q120,
    primes::Q62,
    primes::Q30,
    97,
    3,
    (1 << 124) - 59, // large non-"nice" modulus (compositeness is fine)
];

fn check_engine<E: SimdEngine>(q: u128, a: &[u128], b: &[u128]) {
    let m = Modulus::new(q).unwrap();
    let vm = VModulus::<E>::new(&m);
    let mut a8 = [0_u128; 8];
    let mut b8 = [0_u128; 8];
    let lanes = E::LANES.min(8);
    a8[..lanes].copy_from_slice(&a[..lanes]);
    b8[..lanes].copy_from_slice(&b[..lanes]);
    let av = VDword::<E>::from_u128s(&a8);
    let bv = VDword::<E>::from_u128s(&b8);

    let sum = addmod::<E>(av, bv, &vm);
    let diff = submod::<E>(av, bv, &vm);
    let prod = mulmod::<E>(av, bv, &vm);
    let prod_k = mulmod_karatsuba::<E>(av, bv, &vm);
    for i in 0..E::LANES {
        assert_eq!(
            sum.extract(i),
            m.add_mod(a8[i], b8[i]),
            "add lane {i} q={q:#x}"
        );
        assert_eq!(
            diff.extract(i),
            m.sub_mod(a8[i], b8[i]),
            "sub lane {i} q={q:#x}"
        );
        assert_eq!(
            prod.extract(i),
            m.mul_mod(a8[i], b8[i]),
            "mul lane {i} q={q:#x}"
        );
        assert_eq!(prod_k.extract(i), prod.extract(i), "karatsuba lane {i}");
    }
}

/// Draws (q, a[8], b[8]) with a and b reduced below q.
fn case(rng: &mut StdRng) -> (u128, [u128; 8], [u128; 8]) {
    let q = MODULI[(rng.gen::<u64>() % MODULI.len() as u64) as usize];
    let mut a = [0_u128; 8];
    let mut b = [0_u128; 8];
    for i in 0..8 {
        a[i] = rng.gen::<u128>() % q;
        b[i] = rng.gen::<u128>() % q;
    }
    (q, a, b)
}

#[test]
fn portable_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0xA0);
    for _ in 0..CASES {
        let (q, a, b) = case(&mut rng);
        check_engine::<Portable>(q, &a, &b);
    }
}

#[test]
fn mqx_functional_profiles_match_scalar() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let (q, a, b) = case(&mut rng);
        check_engine::<Mqx<Portable, MFunctional>>(q, &a, &b);
        check_engine::<Mqx<Portable, CFunctional>>(q, &a, &b);
        check_engine::<Mqx<Portable, McFunctional>>(q, &a, &b);
        check_engine::<Mqx<Portable, MhCFunctional>>(q, &a, &b);
        check_engine::<Mqx<Portable, McpFunctional>>(q, &a, &b);
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_matches_scalar() {
    if !crate::avx2_detected() {
        return; // host cannot execute this engine
    }
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let (q, a, b) = case(&mut rng);
        check_engine::<crate::Avx2>(q, &a, &b);
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_and_mqx_match_scalar() {
    if !crate::avx512_detected() {
        return; // host cannot execute this engine
    }
    let mut rng = StdRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let (q, a, b) = case(&mut rng);
        check_engine::<crate::Avx512>(q, &a, &b);
        check_engine::<Mqx<crate::Avx512, McFunctional>>(q, &a, &b);
        check_engine::<Mqx<crate::Avx512, MhCFunctional>>(q, &a, &b);
        check_engine::<Mqx<crate::Avx512, McpFunctional>>(q, &a, &b);
    }
}

/// The low word of a PISA product is the true low word when the full
/// widening multiply is proxied by one mullo — spot-check the proxy is
/// "half right", which is what makes it cost-representative.
#[test]
fn pisa_mul_wide_low_half_is_exact() {
    type P = Mqx<Portable, McPisa>;
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let (a, b) = (rng.gen::<u64>(), rng.gen::<u64>());
        let t = P::token();
        let av = <P as SimdEngine>::splat(t, a);
        let bv = <P as SimdEngine>::splat(t, b);
        let (_hi, lo) = <P as SimdEngine>::mul_wide(av, bv);
        assert_eq!(<P as SimdEngine>::extract(lo, 0), a.wrapping_mul(b));
    }
}
