//! The functional MQX engines pass the facade's cross-tier agreement
//! checks (`tests/cross_tier_agreement.rs` at the repository root,
//! which covers the registry tiers): every functional profile, over
//! the portable engine, and `mqx-functional`, over the detected base,
//! must agree bit for bit with the scalar and portable references.
//! The registry does not hold these engines, so the root suite no
//! longer reaches them.

use mqx::bignum::BigUint;
use mqx::core::{primes, Modulus};
use mqx::ntt::{polymul, NttPlan};
use mqx::simd::ResidueSoa;
use mqx::{Coefficients, PolyRing, Ring, RingBuilder, RingOp, RnsRingBuilder};
use mqx_bench::engines::{self, Engine};

/// Every functional engine, each checked to carry the flag.
fn functional_engines() -> Vec<Engine> {
    let mut all = engines::functional_profiles();
    all.push(engines::mqx_functional());
    for engine in &all {
        assert!(engine.consumable, "{} must be functional", engine.label);
    }
    all
}

fn what(engine: &Engine) -> String {
    format!("{} ({})", engine.label, engine.backend.name())
}

/// Deterministic residues below `q`, with the wrap-around extremes
/// `q − 1` and `0` up front.
fn residues(len: usize, q: u128, seed: u64) -> Vec<u128> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i {
                0 => q - 1,
                1 => 0,
                _ => ((u128::from(state) << 64) | u128::from(!state)) % q,
            }
        })
        .collect()
}

/// Forward and inverse transforms and both fused products against the
/// scalar references: n ≤ 16 takes the scalar-butterfly branch of the
/// Pease kernels inside the frame, n = 256 the all-vector one.
#[test]
fn transforms_and_fused_products_match_scalar() {
    for q in [primes::Q124, primes::Q62] {
        let m = Modulus::new_prime(q).unwrap();
        for n in [2, 4, 8, 16, 256] {
            let plan = NttPlan::new(&m, n).unwrap();
            let a = residues(n, q, 0xFACE);
            let b = residues(n, q, 0xFEED);
            let mut spectrum = a.clone();
            plan.forward_scalar(&mut spectrum);
            let cyclic = polymul::schoolbook_cyclic(&a, &b, &m);
            let negacyclic = polymul::schoolbook_negacyclic(&a, &b, &m);

            for engine in functional_engines() {
                let (backend, what) = (&engine.backend, what(&engine));
                let what = format!("{what} q={q:#x} n={n}");
                let mut scratch = ResidueSoa::zeros(n);

                let mut x = ResidueSoa::from_u128s(&a);
                backend.forward_ntt(&plan, &mut x, &mut scratch);
                assert_eq!(x.to_u128s(), spectrum, "{what} forward");
                backend.inverse_ntt(&plan, &mut x, &mut scratch);
                assert_eq!(x.to_u128s(), a, "{what} inverse");

                let (mut sa, mut sb) = (ResidueSoa::from_u128s(&a), ResidueSoa::from_u128s(&b));
                backend.polymul_cyclic_fused(&plan, &mut sa, &mut sb, &mut scratch);
                assert_eq!(sa.to_u128s(), cyclic, "{what} fused cyclic");

                let (mut sa, mut sb) = (ResidueSoa::from_u128s(&a), ResidueSoa::from_u128s(&b));
                backend
                    .polymul_negacyclic_fused(&plan, &mut sa, &mut sb, &mut scratch)
                    .unwrap();
                assert_eq!(sa.to_u128s(), negacyclic, "{what} fused negacyclic");
            }
        }
    }
}

/// Fused and canonical ring products on each engine reproduce the
/// canonical portable ring exactly, on seeded operands and on the
/// all-`(q − 1)` worst case of the lazy domains.
#[test]
fn ring_products_match_canonical_portable() {
    let q = primes::Q124;
    for (n, seeded) in [(256, true), (1024, true), (256, false)] {
        let (a, b) = if seeded {
            (residues(n, q, 0xC0FFEE), residues(n, q, 0xF00D))
        } else {
            (vec![q - 1; n], vec![q - 1; n])
        };
        let portable = RingBuilder::new(q, n)
            .backend_name("portable")
            .lazy(false)
            .build()
            .unwrap();
        let cyclic = portable.polymul_cyclic(&a, &b).unwrap();
        let negacyclic = portable.polymul_negacyclic(&a, &b).unwrap();
        for engine in functional_engines() {
            for lazy in [true, false] {
                let what = format!("{} n={n} seeded={seeded} lazy={lazy}", what(&engine));
                let ring = RingBuilder::new(q, n)
                    .backend(engine.backend.clone())
                    .lazy(lazy)
                    .build()
                    .unwrap();
                assert_eq!(ring.polymul_cyclic(&a, &b).unwrap(), cyclic, "{what}");
                assert_eq!(
                    ring.polymul_negacyclic(&a, &b).unwrap(),
                    negacyclic,
                    "{what}"
                );
            }
        }
    }
}

/// The element-wise kernels' vector body and scalar tail: lengths
/// below, at and just past one vector, and a long body with a
/// 3-element tail, on the wide word modulus and one RNS channel prime.
#[test]
fn elementwise_kernels_match_scalar_at_ragged_lengths() {
    for q in [primes::Q124, primes::Q62] {
        let m = Modulus::new(q).unwrap();
        for len in [1, 7, 8, 9, 17, 4096 + 3] {
            let x = residues(len, q, 0xA11CE);
            let y = residues(len, q, 0xB0B);
            let scale = q - 2;
            let sum = mqx::blas::scalar::vadd(&x, &y, &m);
            let diff = mqx::blas::scalar::vsub(&x, &y, &m);
            let prod = mqx::blas::scalar::vmul(&x, &y, &m);
            let mut fma = y.clone();
            mqx::blas::scalar::axpy(scale, &x, &mut fma, &m);

            let (sx, sy) = (ResidueSoa::from_u128s(&x), ResidueSoa::from_u128s(&y));
            for engine in functional_engines() {
                let (backend, what) = (&engine.backend, what(&engine));
                let what = format!("{what} q={q:#x} len={len}");
                let mut out = ResidueSoa::zeros(len);
                backend.vadd(&sx, &sy, &mut out, &m);
                assert_eq!(out.to_u128s(), sum, "{what} vadd");
                backend.vsub(&sx, &sy, &mut out, &m);
                assert_eq!(out.to_u128s(), diff, "{what} vsub");
                backend.vmul(&sx, &sy, &mut out, &m);
                assert_eq!(out.to_u128s(), prod, "{what} vmul");
                let mut acc = sy.clone();
                backend.axpy(scale, &sx, &mut acc, &m);
                assert_eq!(acc.to_u128s(), fma, "{what} axpy");
            }
        }
    }
}

/// The op vocabulary through both ring kinds: word `Add`, and RNS
/// `Add`, `Rescale` and negacyclic polymul with every channel on the
/// engine, against the same rings on portable.
#[test]
fn ring_ops_match_portable() {
    const N: usize = 256;
    let q = primes::Q124;
    let (a, b) = (residues(N, q, 1), residues(N, q, 2));
    let (a, b) = (Coefficients::Word(a), Coefficients::Word(b));
    let portable = Ring::with_backend_name(q, N, "portable").unwrap();
    let word_add = portable.apply(&RingOp::Add, &a, Some(&b)).unwrap();

    let basis = [primes::Q62, primes::Q30];
    let portable_rns = RnsRingBuilder::new(N)
        .moduli(&basis)
        .backend_name("portable")
        .build()
        .unwrap();
    let product = portable_rns.product_modulus().clone();
    let big = |seed: u64| -> Coefficients {
        let mut state = seed;
        Coefficients::Big(
            (0..N)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    BigUint::from(u128::from(state))
                        .mul_mod(&BigUint::from(u128::from(!state)), &product)
                })
                .collect(),
        )
    };
    let (ra, rb) = (big(0xC0FFEE), big(0xF00D));
    let polymul = RingOp::Polymul(mqx::PolyOp::Negacyclic);
    let rns_ops = [
        (RingOp::Add, Some(&rb)),
        (RingOp::Rescale, None),
        (polymul, Some(&rb)),
    ];
    let expected: Vec<_> = rns_ops
        .iter()
        .map(|(op, b)| portable_rns.apply(op, &ra, *b).unwrap())
        .collect();

    for engine in functional_engines() {
        let what = what(&engine);
        let ring = Ring::with_backend(q, N, engine.backend.clone()).unwrap();
        assert_eq!(
            ring.apply(&RingOp::Add, &a, Some(&b)).unwrap(),
            word_add,
            "{what} word add"
        );
        let rns = RnsRingBuilder::new(N)
            .moduli(&basis)
            .backend(engine.backend.clone())
            .build()
            .unwrap();
        for ((op, b), expected) in rns_ops.iter().zip(&expected) {
            assert_eq!(
                &rns.apply(op, &ra, *b).unwrap(),
                expected,
                "{what} rns {}",
                op.name()
            );
        }
    }
}
