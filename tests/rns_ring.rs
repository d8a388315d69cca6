//! Integration: the sharded multi-modulus `RnsRing` against a
//! product-modulus reference, and the plan cache behind it.
//!
//! The defining invariant: a k-channel RNS polynomial product must be
//! **bit-identical** to the same product computed directly modulo
//! `Q = ∏ qᵢ` — for every k. The reference is the `O(n²)` big-integer
//! schoolbook (`ntt::polymul::schoolbook_*_big`), so no NTT code is
//! shared between the two sides.

use mqx::bignum::BigUint;
use mqx::core::{primes, Modulus};
use mqx::ntt::polymul::{schoolbook_cyclic_big, schoolbook_negacyclic_big};
use mqx::plan_cache::PlanCache;
use mqx::{backend, Error, PolyOp, PolyRing, RingOp, RnsRing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const N: usize = 64;

/// The 3-prime basis every test shards prefixes of.
fn basis() -> Vec<u128> {
    primes::ntt_prime_chain(62, 20, 3).expect("three 62-bit NTT primes")
}

fn random_coeffs(bound: &BigUint, n: usize, seed: u64) -> Vec<BigUint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| BigUint::random_below(&mut rng, bound))
        .collect()
}

/// `a · b` through [`PolyRing::apply`], as big-integer coefficients.
fn polymul(
    ring: &RnsRing,
    op: PolyOp,
    a: &[BigUint],
    b: &[BigUint],
) -> Result<Vec<BigUint>, Error> {
    let (a, b) = (a.to_vec().into(), b.to_vec().into());
    let product = ring.apply(&RingOp::Polymul(op), &a, Some(&b))?;
    Ok(product
        .into_bigs()
        .expect("an RnsRing joins to big coefficients"))
}

#[test]
fn polymul_is_bit_identical_to_product_modulus_reference() {
    let basis = basis();
    for k in 1..=3 {
        let ring = RnsRing::builder(N).moduli(&basis[..k]).build().unwrap();
        assert_eq!(ring.channels(), k);
        let q = ring.product_modulus().clone();
        let a = random_coeffs(&q, N, 0xA0 + k as u64);
        let b = random_coeffs(&q, N, 0xB0 + k as u64);

        assert_eq!(
            polymul(&ring, PolyOp::Negacyclic, &a, &b).unwrap(),
            schoolbook_negacyclic_big(&a, &b, &q),
            "negacyclic k = {k}"
        );
        assert_eq!(
            polymul(&ring, PolyOp::Cyclic, &a, &b).unwrap(),
            schoolbook_cyclic_big(&a, &b, &q),
            "cyclic k = {k}"
        );
    }
}

#[test]
fn single_channel_rns_matches_plain_ring_exactly() {
    // k = 1 degenerates to one prime field: the sharded path must agree
    // with the direct `Ring` word for word.
    let q = primes::Q62;
    let rns = RnsRing::builder(N).moduli(&[q]).build().unwrap();
    let ring = mqx::Ring::auto(q, N).unwrap();

    let a = random_coeffs(&BigUint::from(q), N, 0xC1);
    let b = random_coeffs(&BigUint::from(q), N, 0xC2);
    let a_words: Vec<u128> = a.iter().map(|x| x.to_u128().unwrap()).collect();
    let b_words: Vec<u128> = b.iter().map(|x| x.to_u128().unwrap()).collect();

    let rns_out = polymul(&rns, PolyOp::Negacyclic, &a, &b).unwrap();
    let ring_out = ring.polymul_negacyclic(&a_words, &b_words).unwrap();
    assert_eq!(
        rns_out
            .iter()
            .map(|x| x.to_u128().unwrap())
            .collect::<Vec<_>>(),
        ring_out
    );
}

#[test]
fn every_consumable_backend_agrees_through_the_rns_layer() {
    // The §5.3 bitwise-identical requirement survives sharding: pinning
    // all channels to any tier must not change a single bit.
    let basis = basis();
    let mut reference: Option<Vec<BigUint>> = None;
    for b in backend::available() {
        let name = b.name();
        let ring = RnsRing::builder(N)
            .moduli(&basis)
            .backend_name(name)
            .build()
            .unwrap();
        let q = ring.product_modulus().clone();
        let xs = random_coeffs(&q, N, 0xD1);
        let ys = random_coeffs(&q, N, 0xD2);
        let out = polymul(&ring, PolyOp::Negacyclic, &xs, &ys).unwrap();
        match &reference {
            None => reference = Some(out),
            Some(expected) => assert_eq!(&out, expected, "{name}"),
        }
    }
    assert!(reference.is_some(), "at least one backend ran");
}

#[test]
fn plan_cache_serves_second_ring_with_zero_rebuilds() {
    // An isolated cache so parallel tests cannot perturb the counters.
    let cache = Arc::new(PlanCache::new());
    let basis = basis();
    let build = || {
        RnsRing::builder(N)
            .moduli(&basis)
            .plan_cache(Arc::clone(&cache))
            .build()
            .unwrap()
    };

    let first = build();
    let stats = cache.stats();
    assert_eq!(stats.misses, 3, "one table build per channel");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, 3);

    let second = build();
    let stats = cache.stats();
    assert_eq!(stats.misses, 3, "second ring: ZERO plan rebuilds");
    assert_eq!(stats.hits, 3, "every channel served from cache");

    // The cached plans are genuinely shared, not re-derived copies.
    for (a, b) in first.rings().iter().zip(second.rings()) {
        assert!(std::ptr::eq(a.plan(), b.plan()));
    }

    // And a plain Ring open over a channel modulus reuses them too.
    let _ring = mqx::Ring::builder(basis[0], N)
        .plan_cache(Arc::clone(&cache))
        .build()
        .unwrap();
    assert_eq!(cache.stats().misses, 3, "per-request ring open: cache hit");
    assert_eq!(cache.stats().hits, 4);
}

#[test]
fn every_tier_recombines_bit_identically_to_portable() {
    // One backend per ring, pinned through the builder: each registry
    // tier's product must match the portable ring's bit for bit.
    let basis = basis();
    let portable = RnsRing::builder(N)
        .moduli(&basis)
        .backend_name("portable")
        .build()
        .unwrap();
    let q = portable.product_modulus().clone();
    let a = random_coeffs(&q, N, 0xE1);
    let b = random_coeffs(&q, N, 0xE2);
    let expected = polymul(&portable, PolyOp::Negacyclic, &a, &b).unwrap();
    for tier in backend::available() {
        let name = tier.name();
        let ring = RnsRing::builder(N)
            .moduli(&basis)
            .backend(tier)
            .build()
            .unwrap();
        assert_eq!(ring.backend_names(), [name; 3]);
        assert_eq!(
            polymul(&ring, PolyOp::Negacyclic, &a, &b).unwrap(),
            expected,
            "{name}"
        );
    }
}

#[test]
fn rns_layer_agrees_with_double_crt_baseline() {
    // The facade's sharded ring and the OpenFHE-style double-CRT
    // baseline compute the same cyclic product over the same basis.
    use mqx::baseline::fhe::FheRnsNtt;
    use mqx::core::nt;

    let basis = vec![primes::Q62, primes::Q30];
    let omegas: Vec<u128> = basis
        .iter()
        .map(|&q| {
            let m = mqx::core::Modulus::new_prime(q).unwrap();
            nt::root_of_unity(&m, N as u64).unwrap()
        })
        .collect();
    let baseline = FheRnsNtt::new(&basis, N, &omegas);
    let ring = RnsRing::builder(N).moduli(&basis).build().unwrap();

    let q = ring.product_modulus().clone();
    let a = random_coeffs(&q, N, 0xF1);
    let b = random_coeffs(&q, N, 0xF2);
    assert_eq!(
        polymul(&ring, PolyOp::Cyclic, &a, &b).unwrap(),
        baseline.polymul_cyclic(&a, &b),
        "optimized sharded ring vs division-based double-CRT baseline"
    );
}

#[test]
fn unreduced_input_is_rejected_not_aliased() {
    let ring = RnsRing::builder(N)
        .moduli(&[primes::Q30, primes::Q14])
        .build()
        .unwrap();
    let q = ring.product_modulus().clone();
    let mut a = random_coeffs(&q, N, 0x11);
    a[3] = q.clone(); // == Q: residues would alias 0
    let b = random_coeffs(&q, N, 0x12);
    assert!(matches!(
        polymul(&ring, PolyOp::Negacyclic, &a, &b).unwrap_err(),
        Error::CoefficientOutOfRange { index: 3 }
    ));
}

/// Add and Sub on a basis an extension reached: every output channel —
/// the ring's own and the fresh primes past them — against scalar
/// `Modulus::add_mod` / `sub_mod` over that channel's prime, on every
/// backend. The operands are per-channel residues (every pair of edge
/// values first, then random), which is all an element-wise work item
/// reads.
#[test]
fn extension_channel_add_sub_match_scalar_modular_arithmetic() {
    let basis = basis();
    let k = basis.len();
    for b in backend::available() {
        let name = b.name();
        let ring = RnsRing::builder(N)
            .moduli(&basis)
            .backend(b)
            .build()
            .unwrap();
        for extra in [1, 2] {
            let moduli = ring.extended_moduli(extra).unwrap();
            let width = k + extra;
            assert_eq!(moduli.len(), width);
            let mut rng = StdRng::seed_from_u64(0xE0 + extra as u64);
            // The first 16 coefficients pair every edge of `a` with
            // every edge of `b`, so both wraparound directions occur.
            let operand = |rng: &mut StdRng, edge: fn(usize) -> usize| -> Vec<Vec<u128>> {
                moduli
                    .iter()
                    .map(|&q| {
                        let edges = [0, 1, q - 2, q - 1];
                        let paired = (0..16).map(|i| edges[edge(i)]);
                        let random = (16..N).map(|_| rng.gen::<u128>() % q);
                        paired.chain(random).collect()
                    })
                    .collect()
            };
            let a = operand(&mut rng, |i| i / 4);
            let b = operand(&mut rng, |i| i % 4);
            for (op, scalar) in [
                (
                    RingOp::Add,
                    Modulus::add_mod as fn(&Modulus, u128, u128) -> u128,
                ),
                (RingOp::Sub, Modulus::sub_mod),
            ] {
                for (channel, &q) in moduli.iter().enumerate() {
                    let m = Modulus::new(q).unwrap();
                    let got = ring
                        .channel_apply_at(&op, width, channel, &a, Some(&b))
                        .unwrap();
                    let want: Vec<u128> = a[channel]
                        .iter()
                        .zip(&b[channel])
                        .map(|(&x, &y)| scalar(&m, x, y))
                        .collect();
                    assert_eq!(got, want, "{name}: {op:?} width {width} channel {channel}");
                }
            }
        }
    }
}
