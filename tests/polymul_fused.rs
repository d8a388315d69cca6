//! Integration: the lazy-reduction fused polymul pipeline must be
//! **bit-identical** to the scalar reference products on every
//! backend tier this host offers, at every transform size, including
//! the worst-case input (all coefficients `q − 1`, which maximizes the
//! intermediate magnitudes the 2q/4q lazy domains have to absorb).
//!
//! Three independent oracles gate the fused path:
//!
//! 1. the reference ring (`RingBuilder::lazy(false)`: scalar
//!    Cooley–Tukey products that share no kernel with any backend);
//! 2. the `O(n²)` word-arithmetic schoolbook product;
//! 3. a `BigUint` schoolbook that never reduces until the very end
//!    (run at `n = 256` only — it is quadratic in bignum ops).

use mqx::backend::{self, Backend, Tier};
use mqx::bignum::BigUint;
use mqx::blas::LinComb;
use mqx::core::{primes, Modulus};
use mqx::ntt::{debug_assert_domain_soa, polymul, NttError, NttPlan};
use mqx::simd::ResidueSoa;
use mqx::Ring;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
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
/// path: `(lazy, reference)`.
fn ring_pair(backend: Arc<dyn mqx::Backend>, n: usize) -> (Ring, Ring) {
    let lazy = Ring::builder(primes::Q124, n)
        .backend(Arc::clone(&backend))
        .lazy(true)
        .build()
        .unwrap();
    let reference = Ring::builder(primes::Q124, n)
        .backend(backend)
        .lazy(false)
        .build()
        .unwrap();
    (lazy, reference)
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
/// n ∈ {256, 1024, 4096}, the fused path matches the reference ring bit
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

/// A backend whose transforms and fused products panic: only its
/// element-wise ops (delegated to the portable tier) work. The fused
/// methods still open with the `Backend` domain check (rule L3).
struct ElementwiseOnly(Arc<dyn Backend>);

impl Backend for ElementwiseOnly {
    fn name(&self) -> &'static str {
        "elementwise-only"
    }

    fn tier(&self) -> Tier {
        Tier::Portable
    }

    fn lanes(&self) -> usize {
        self.0.lanes()
    }

    fn forward_ntt(&self, _: &NttPlan, _: &mut ResidueSoa, _: &mut ResidueSoa) {
        panic!("the reference ring ran forward_ntt");
    }

    fn inverse_ntt(&self, _: &NttPlan, _: &mut ResidueSoa, _: &mut ResidueSoa) {
        panic!("the reference ring ran inverse_ntt");
    }

    fn vadd(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        self.0.vadd(x, y, out, m);
    }

    fn vsub(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        self.0.vsub(x, y, out, m);
    }

    fn vmul(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        self.0.vmul(x, y, out, m);
    }

    fn axpy(&self, a: u128, x: &ResidueSoa, y: &mut ResidueSoa, m: &Modulus) {
        self.0.axpy(a, x, y, m);
    }

    fn lincomb(&self, m: &Modulus, comb: &LinComb<'_>, out: &mut [u128]) {
        self.0.lincomb(m, comb, out);
    }

    fn polymul_cyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        _: &mut ResidueSoa,
        _: &mut ResidueSoa,
    ) {
        debug_assert_domain_soa(a, 2 * plan.modulus().value(), "polymul_cyclic_fused input");
        panic!("the reference ring ran polymul_cyclic_fused");
    }

    fn polymul_negacyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        _: &mut ResidueSoa,
        _: &mut ResidueSoa,
    ) -> Result<(), NttError> {
        debug_assert_domain_soa(
            a,
            2 * plan.modulus().value(),
            "polymul_negacyclic_fused input",
        );
        panic!("the reference ring ran polymul_negacyclic_fused");
    }
}

/// The `lazy(false)` reference ring computes its products without any
/// backend kernel, so it stays an independent oracle for every tier
/// (the benchmark checks served responses against it).
#[test]
fn reference_ring_shares_no_kernel_with_its_backend() {
    let (q, n) = (primes::Q124, 256);
    let portable = backend::by_name("portable").unwrap();
    let reference = Ring::builder(q, n)
        .backend(Arc::new(ElementwiseOnly(portable)))
        .lazy(false)
        .build()
        .unwrap();
    let a = poly(n, q, 0x0E1E);
    let b = poly(n, q, 0x0E1F);
    assert_eq!(
        reference.polymul_cyclic(&a, &b).unwrap(),
        biguint_schoolbook(&a, &b, q, false),
        "cyclic"
    );
    assert_eq!(
        reference.polymul_negacyclic(&a, &b).unwrap(),
        biguint_schoolbook(&a, &b, q, true),
        "negacyclic"
    );
}

/// A user backend that panics in its first fused negacyclic product and
/// otherwise delegates to the wrapped backend.
struct PanicsOnce {
    inner: Arc<dyn Backend>,
    armed: AtomicBool,
}

impl Backend for PanicsOnce {
    fn name(&self) -> &'static str {
        "panics-once"
    }

    fn tier(&self) -> Tier {
        self.inner.tier()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn forward_ntt(&self, plan: &NttPlan, x: &mut ResidueSoa, scratch: &mut ResidueSoa) {
        self.inner.forward_ntt(plan, x, scratch);
    }

    fn inverse_ntt(&self, plan: &NttPlan, x: &mut ResidueSoa, scratch: &mut ResidueSoa) {
        self.inner.inverse_ntt(plan, x, scratch);
    }

    fn vadd(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        self.inner.vadd(x, y, out, m);
    }

    fn vsub(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        self.inner.vsub(x, y, out, m);
    }

    fn vmul(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        self.inner.vmul(x, y, out, m);
    }

    fn axpy(&self, a: u128, x: &ResidueSoa, y: &mut ResidueSoa, m: &Modulus) {
        self.inner.axpy(a, x, y, m);
    }

    fn lincomb(&self, m: &Modulus, comb: &LinComb<'_>, out: &mut [u128]) {
        self.inner.lincomb(m, comb, out);
    }

    fn polymul_cyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) {
        debug_assert_domain_soa(a, 2 * plan.modulus().value(), "polymul_cyclic_fused input");
        self.inner.polymul_cyclic_fused(plan, a, b, scratch);
    }

    fn polymul_negacyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) -> Result<(), NttError> {
        debug_assert_domain_soa(
            a,
            2 * plan.modulus().value(),
            "polymul_negacyclic_fused input",
        );
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected backend fault");
        }
        self.inner.polymul_negacyclic_fused(plan, a, b, scratch)
    }
}

/// A panic inside a backend kernel unwinds out of the ring call and
/// costs that call its scratch, nothing more: the next product on the
/// same ring is correct.
#[test]
fn ring_serves_correct_products_after_a_backend_panic() {
    let (q, n) = (primes::Q124, 256);
    let ring = Ring::builder(q, n)
        .backend(Arc::new(PanicsOnce {
            inner: backend::by_name("portable").unwrap(),
            armed: AtomicBool::new(true),
        }))
        .build()
        .unwrap();
    let a = poly(n, q, 0xFA17);
    let b = poly(n, q, 0xFA18);
    let faulted = catch_unwind(AssertUnwindSafe(|| ring.polymul_negacyclic(&a, &b)));
    assert!(faulted.is_err(), "the first fused product panics");
    assert_eq!(
        ring.polymul_negacyclic(&a, &b).unwrap(),
        biguint_schoolbook(&a, &b, q, true)
    );
}
