//! Integration: the lazy-reduction fused polymul pipeline must be
//! **bit-identical** to the canonical per-stage-reduced path on every
//! backend tier this host offers, at every transform size, including
//! the worst-case input (all coefficients `q − 1`, which maximizes the
//! intermediate magnitudes the 2q/4q lazy domains have to absorb).
//!
//! Three independent oracles gate the fused path:
//!
//! 1. the canonical ring (`RingBuilder::lazy(false)`) on the same tier;
//! 2. the `O(n²)` word-arithmetic schoolbook product;
//! 3. a `BigUint` schoolbook that never reduces until the very end
//!    (run at `n = 256` only — it is quadratic in bignum ops).

use mqx::backend;
use mqx::bignum::BigUint;
use mqx::core::{primes, Modulus};
use mqx::ntt::polymul;
use mqx::{Ring, RingBuilder};
use std::sync::Arc;

fn poly(n: usize, q: u128, seed: u64) -> Vec<u128> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            u128::from(state).wrapping_mul(u128::from(state ^ 0xD1B5)) % q
        })
        .collect()
}

/// A pair of rings on the same backend differing only in the polymul
/// path: `(lazy, canonical)`.
fn ring_pair(backend: Arc<dyn mqx::Backend>, n: usize) -> (Ring, Ring) {
    let lazy = RingBuilder::new(primes::Q124, n)
        .backend(Arc::clone(&backend))
        .lazy(true)
        .build()
        .unwrap();
    let canonical = RingBuilder::new(primes::Q124, n)
        .backend(backend)
        .lazy(false)
        .build()
        .unwrap();
    (lazy, canonical)
}

/// Schoolbook products over `BigUint`, reducing only at the end: the
/// independent wide-arithmetic oracle (no Barrett, no Shoup, no NTT).
fn biguint_schoolbook(a: &[u128], b: &[u128], q: u128, negacyclic: bool) -> Vec<u128> {
    let n = a.len();
    let qb = BigUint::from(q);
    // Unreduced sums of the linear convolution, low and wrapped halves.
    let mut low = vec![BigUint::zero(); n];
    let mut high = vec![BigUint::zero(); n];
    for (i, &ai) in a.iter().enumerate() {
        let ab = BigUint::from(ai);
        for (j, &bj) in b.iter().enumerate() {
            let term = &ab * &BigUint::from(bj);
            if i + j < n {
                low[i + j] = &low[i + j] + &term;
            } else {
                high[i + j - n] = &high[i + j - n] + &term;
            }
        }
    }
    let m = Modulus::new_prime(q).unwrap();
    (0..n)
        .map(|k| {
            let lo = residue(&low[k], &qb);
            let hi = residue(&high[k], &qb);
            if negacyclic {
                m.sub_mod(lo, hi)
            } else {
                m.add_mod(lo, hi)
            }
        })
        .collect()
}

fn residue(x: &BigUint, q: &BigUint) -> u128 {
    (x % q).to_u128().expect("residue below a 124-bit modulus")
}

/// Seeded-loop property check: for every registry tier and
/// n ∈ {256, 1024, 4096}, the fused path matches the canonical path bit
/// for bit on both quotient rings, and both match the schoolbook
/// oracles at the small size.
#[test]
fn fused_matches_canonical_on_every_tier_and_size() {
    for n in [256_usize, 1024, 4096] {
        for backend in backend::available() {
            let name = backend.name();
            let (lazy, canonical) = ring_pair(backend, n);
            assert!(lazy.is_lazy() && !canonical.is_lazy());
            for seed in [1_u64, 0xABCD_EF01, 0x5EED_5EED_5EED] {
                let a = poly(n, primes::Q124, seed);
                let b = poly(n, primes::Q124, seed ^ 0xFFFF_0000_FFFF);

                let cyclic = lazy.polymul_cyclic(&a, &b).unwrap();
                assert_eq!(
                    cyclic,
                    canonical.polymul_cyclic(&a, &b).unwrap(),
                    "{name} cyclic n={n} seed={seed:#x}"
                );
                let nega = lazy.polymul_negacyclic(&a, &b).unwrap();
                assert_eq!(
                    nega,
                    canonical.polymul_negacyclic(&a, &b).unwrap(),
                    "{name} negacyclic n={n} seed={seed:#x}"
                );

                if n == 256 {
                    let m = Modulus::new_prime(primes::Q124).unwrap();
                    assert_eq!(
                        cyclic,
                        polymul::schoolbook_cyclic(&a, &b, &m),
                        "{name} cyclic vs schoolbook seed={seed:#x}"
                    );
                    assert_eq!(
                        nega,
                        polymul::schoolbook_negacyclic(&a, &b, &m),
                        "{name} negacyclic vs schoolbook seed={seed:#x}"
                    );
                    assert_eq!(
                        cyclic,
                        biguint_schoolbook(&a, &b, primes::Q124, false),
                        "{name} cyclic vs BigUint oracle seed={seed:#x}"
                    );
                    assert_eq!(
                        nega,
                        biguint_schoolbook(&a, &b, primes::Q124, true),
                        "{name} negacyclic vs BigUint oracle seed={seed:#x}"
                    );
                }
            }
        }
    }
}

/// Worst-case input: every coefficient at `q − 1` drives every butterfly
/// through its maximal lazy-domain values — any missing fold in the
/// 2q/4q bookkeeping overflows or lands out of range here.
#[test]
fn fused_worst_case_all_coefficients_q_minus_one() {
    let q = primes::Q124;
    for n in [256_usize, 1024] {
        let a = vec![q - 1; n];
        let m = Modulus::new_prime(q).unwrap();
        let cyclic_oracle = polymul::schoolbook_cyclic(&a, &a, &m);
        let nega_oracle = polymul::schoolbook_negacyclic(&a, &a, &m);
        for backend in backend::available() {
            let name = backend.name();
            let (lazy, canonical) = ring_pair(backend, n);
            let cyclic = lazy.polymul_cyclic(&a, &a).unwrap();
            assert_eq!(cyclic, cyclic_oracle, "{name} cyclic n={n}");
            assert_eq!(
                cyclic,
                canonical.polymul_cyclic(&a, &a).unwrap(),
                "{name} cyclic vs canonical n={n}"
            );
            let nega = lazy.polymul_negacyclic(&a, &a).unwrap();
            assert_eq!(nega, nega_oracle, "{name} negacyclic n={n}");
            assert_eq!(
                nega,
                canonical.polymul_negacyclic(&a, &a).unwrap(),
                "{name} negacyclic vs canonical n={n}"
            );
        }
    }
}

/// The `_into` forms write the same bits as the allocating forms, and
/// reuse the caller's buffer across calls.
#[test]
fn into_forms_match_allocating_forms() {
    let n = 256;
    let ring = Ring::auto(primes::Q124, n).unwrap();
    let a = poly(n, primes::Q124, 7);
    let b = poly(n, primes::Q124, 8);
    let mut out = Vec::new();
    ring.polymul_cyclic_into(&a, &b, &mut out).unwrap();
    assert_eq!(out, ring.polymul_cyclic(&a, &b).unwrap());
    let cap = out.capacity();
    ring.polymul_negacyclic_into(&a, &b, &mut out).unwrap();
    assert_eq!(out, ring.polymul_negacyclic(&a, &b).unwrap());
    assert_eq!(out.capacity(), cap, "buffer must be reused, not regrown");
}
