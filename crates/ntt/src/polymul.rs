//! Polynomial multiplication via the convolution theorem (§2.3), in the
//! cyclic ring ℤ_q\[x\]/(xⁿ−1) and the negacyclic ring ℤ_q\[x\]/(xⁿ+1)
//! used by RLWE-based FHE schemes, plus O(n²) schoolbook references.
//!
//! [`polymul_cyclic`] / [`polymul_negacyclic`] are the scalar reference
//! products: the Cooley–Tukey [`NttPlan::forward_scalar`] /
//! [`NttPlan::inverse_scalar`] with a canonical Barrett multiply at every
//! step. They share no kernel with the served SIMD pipelines
//! ([`NttPlan::polymul_fused_cyclic_simd`] /
//! [`NttPlan::polymul_fused_negacyclic_simd`]), which is what makes them
//! an oracle for those pipelines.

use crate::{NttError, NttPlan};
use mqx_bignum::BigUint;
use mqx_core::Modulus;

/// Schoolbook product reduced mod `xⁿ − 1` (cyclic convolution) — the
/// Eq. 10 reference, used as the oracle for the NTT-based path.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn schoolbook_cyclic(a: &[u128], b: &[u128], m: &Modulus) -> Vec<u128> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0_u128; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let k = (i + j) % n;
            out[k] = m.add_mod(out[k], m.mul_mod(ai, bj));
        }
    }
    out
}

/// Schoolbook product reduced mod `xⁿ + 1` (negacyclic convolution):
/// wrapped terms flip sign.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn schoolbook_negacyclic(a: &[u128], b: &[u128], m: &Modulus) -> Vec<u128> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0_u128; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let p = m.mul_mod(ai, bj);
            if i + j < n {
                out[i + j] = m.add_mod(out[i + j], p);
            } else {
                let k = i + j - n;
                out[k] = m.sub_mod(out[k], p);
            }
        }
    }
    out
}

/// Big-integer schoolbook product reduced mod `xⁿ − 1`: the
/// product-modulus reference for RNS-sharded rings, whose modulus `q`
/// is wider than a machine word.
///
/// # Panics
///
/// Panics if `a.len() != b.len()` or `q` is zero.
pub fn schoolbook_cyclic_big(a: &[BigUint], b: &[BigUint], q: &BigUint) -> Vec<BigUint> {
    schoolbook_big(a, b, q, false)
}

/// Big-integer schoolbook product reduced mod `xⁿ + 1` (wrapped terms
/// flip sign) — see [`schoolbook_cyclic_big`].
///
/// # Panics
///
/// Panics if `a.len() != b.len()` or `q` is zero.
pub fn schoolbook_negacyclic_big(a: &[BigUint], b: &[BigUint], q: &BigUint) -> Vec<BigUint> {
    schoolbook_big(a, b, q, true)
}

fn schoolbook_big(a: &[BigUint], b: &[BigUint], q: &BigUint, negacyclic: bool) -> Vec<BigUint> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![BigUint::zero(); n];
    for (i, ai) in a.iter().enumerate() {
        for (j, bj) in b.iter().enumerate() {
            let prod = ai.mul_mod(bj, q);
            let k = (i + j) % n;
            out[k] = if i + j < n || !negacyclic {
                out[k].add_mod(&prod, q)
            } else {
                out[k].sub_mod(&prod, q)
            };
        }
    }
    out
}

/// Cyclic polynomial product via NTT: transform, point-wise multiply,
/// inverse transform — O(n log n).
///
/// # Panics
///
/// Panics if input lengths differ from the plan size.
pub fn polymul_cyclic(plan: &NttPlan, a: &[u128], b: &[u128]) -> Vec<u128> {
    assert_eq!(a.len(), plan.size());
    assert_eq!(b.len(), plan.size());
    let m = plan.modulus();
    let mut fa = a.to_vec();
    let mut fb = b.to_vec();
    plan.forward_scalar(&mut fa);
    plan.forward_scalar(&mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x = m.mul_mod(*x, *y);
    }
    plan.inverse_scalar(&mut fa);
    fa
}

/// Negacyclic polynomial product via the ψ-twisted NTT: scale by powers
/// of ψ, cyclic transform, point-wise multiply, inverse, unscale (the
/// standard RLWE trick; the inverse transform applies `n⁻¹`).
///
/// # Errors
///
/// Returns [`NttError::NoRoot`] if the plan's field has no 2n-th root of
/// unity (check [`NttPlan::supports_negacyclic`]).
///
/// # Panics
///
/// Panics if input lengths differ from the plan size.
pub fn polymul_negacyclic(plan: &NttPlan, a: &[u128], b: &[u128]) -> Result<Vec<u128>, NttError> {
    assert_eq!(a.len(), plan.size());
    assert_eq!(b.len(), plan.size());
    let (psi, psi_inv) = plan
        .psi()
        .zip(plan.psi_inv())
        .ok_or_else(|| plan.no_negacyclic_root())?;
    let m = plan.modulus();
    let twist =
        |xs: &[u128]| -> Vec<u128> { xs.iter().zip(psi).map(|(&x, &p)| m.mul_mod(x, p)).collect() };
    let mut fa = twist(a);
    let mut fb = twist(b);
    plan.forward_scalar(&mut fa);
    plan.forward_scalar(&mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x = m.mul_mod(*x, *y);
    }
    plan.inverse_scalar(&mut fa); // applies the 1/n scale
    Ok(fa
        .iter()
        .zip(psi_inv)
        .map(|(&x, &pi)| m.mul_mod(x, pi))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::primes;

    fn plan(q: u128, n: usize) -> NttPlan {
        NttPlan::new(&Modulus::new_prime(q).unwrap(), n).unwrap()
    }

    fn poly(n: usize, q: u128, seed: u64) -> Vec<u128> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                u128::from(state) % q
            })
            .collect()
    }

    #[test]
    fn big_schoolbook_matches_word_schoolbook_on_word_sized_fields() {
        // Same field, same inputs: the BigUint reference must agree
        // with the u128 reference bit for bit, both wrap conventions.
        let q = primes::Q62;
        let m = Modulus::new_prime(q).unwrap();
        let n = 16;
        let a = poly(n, q, 0xB16);
        let b = poly(n, q, 0xB17);
        let big = |xs: &[u128]| -> Vec<BigUint> { xs.iter().map(|&x| BigUint::from(x)).collect() };
        let lower =
            |xs: Vec<BigUint>| -> Vec<u128> { xs.iter().map(|x| x.to_u128().unwrap()).collect() };
        let qb = BigUint::from(q);
        assert_eq!(
            lower(schoolbook_cyclic_big(&big(&a), &big(&b), &qb)),
            schoolbook_cyclic(&a, &b, &m)
        );
        assert_eq!(
            lower(schoolbook_negacyclic_big(&big(&a), &big(&b), &qb)),
            schoolbook_negacyclic(&a, &b, &m)
        );
    }

    #[test]
    fn cyclic_matches_schoolbook() {
        for (q, n) in [(primes::Q30, 8), (primes::Q124, 64), (primes::Q62, 128)] {
            let p = plan(q, n);
            let a = poly(n, q, 0xA5A5_5A5A);
            let b = poly(n, q, 0x1234_5678);
            assert_eq!(
                polymul_cyclic(&p, &a, &b),
                schoolbook_cyclic(&a, &b, p.modulus()),
                "q={q} n={n}"
            );
        }
    }

    #[test]
    fn negacyclic_matches_schoolbook() {
        for (q, n) in [(primes::Q30, 8), (primes::Q124, 64)] {
            let p = plan(q, n);
            assert!(p.supports_negacyclic());
            let a = poly(n, q, 0xDEAD_BEEF);
            let b = poly(n, q, 0xCAFE_BABE);
            assert_eq!(
                polymul_negacyclic(&p, &a, &b).unwrap(),
                schoolbook_negacyclic(&a, &b, p.modulus()),
                "q={q} n={n}"
            );
        }
    }

    #[test]
    fn negacyclic_wraps_with_sign_flip() {
        // (x^{n-1})·(x) = x^n ≡ −1 in ℤ_q[x]/(x^n+1).
        let q = primes::Q30;
        let n = 16;
        let p = plan(q, n);
        let mut a = vec![0_u128; n];
        a[n - 1] = 1;
        let mut b = vec![0_u128; n];
        b[1] = 1;
        let c = polymul_negacyclic(&p, &a, &b).unwrap();
        assert_eq!(c[0], q - 1, "constant term is −1");
        assert!(c[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn cyclic_wraps_without_sign_flip() {
        let q = primes::Q30;
        let n = 16;
        let p = plan(q, n);
        let mut a = vec![0_u128; n];
        a[n - 1] = 1;
        let mut b = vec![0_u128; n];
        b[1] = 1;
        let c = polymul_cyclic(&p, &a, &b);
        assert_eq!(c[0], 1, "x^n ≡ 1 in the cyclic ring");
        assert!(c[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn identity_polynomial_is_neutral() {
        let q = primes::Q124;
        let n = 32;
        let p = plan(q, n);
        let a = poly(n, q, 7);
        let mut one = vec![0_u128; n];
        one[0] = 1;
        assert_eq!(polymul_cyclic(&p, &a, &one), a);
        assert_eq!(polymul_negacyclic(&p, &a, &one).unwrap(), a);
    }

    #[test]
    fn negacyclic_error_when_no_psi() {
        // Q14 2-adicity 10: n = 1024 cyclic works, negacyclic cannot.
        let p = plan(primes::Q14, 1024);
        let a = vec![1_u128; 1024];
        assert!(matches!(
            polymul_negacyclic(&p, &a, &a),
            Err(NttError::NoRoot(_))
        ));
    }
}
