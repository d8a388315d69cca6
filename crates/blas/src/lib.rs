//! BLAS-style vector kernels over 128-bit residues (§2.3, §5.3).
//!
//! Point-wise polynomial arithmetic in FHE schemes maps onto BLAS
//! level-1-style operations over coefficient vectors: vector addition,
//! vector subtraction, point-wise (Hadamard) multiplication, and `axpy`
//! (`y ← a·x + y` with a scalar `a`). The paper benchmarks those four at
//! vector length 1,024 (§5.1). This crate provides each kernel in a
//! scalar tier (native `u128` arithmetic over [`mqx_core::Modulus`])
//! and a SIMD tier generic over [`mqx_simd::SimdEngine`], plus `dot`
//! and `gemv` as the
//! natural level-1/level-2 extensions the paper's BLAS framing implies.
//! [`lincomb`] is the RNS boundary's kernel: a linear combination of
//! word rows with constant Shoup multipliers, at either lane width.
//!
//! # Example
//!
//! ```
//! use mqx_core::{Modulus, primes};
//! use mqx_simd::{Portable, ResidueSoa};
//!
//! let m = Modulus::new(primes::Q124)?;
//! let x = ResidueSoa::from_u128s(&[1, 2, 3, 4, 5, 6, 7, 8]);
//! let mut y = ResidueSoa::from_u128s(&[10, 20, 30, 40, 50, 60, 70, 80]);
//! mqx_blas::simd::axpy::<Portable>(7, &x, &mut y, &m);
//! assert_eq!(y.get(0), 17);
//! # Ok::<(), mqx_core::ModulusError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lincomb;
pub mod scalar;
pub mod simd;

pub use lincomb::{lincomb, LinComb};

/// The vector length the paper uses for all BLAS measurements: "the
/// vector length is set to 1,024, as it aligns with typical polynomial
/// sizes in FHE schemes" (§5.1).
pub const PAPER_VECTOR_LEN: usize = 1024;

#[cfg(test)]
mod tests {
    use mqx_core::{primes, Modulus};
    use mqx_simd::{Portable, ResidueSoa};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(n: usize, q: u128, rng: &mut StdRng) -> Vec<u128> {
        (0..n).map(|_| rng.gen::<u128>() % q).collect()
    }

    /// Every SIMD kernel must agree element-wise with its scalar twin on
    /// random data, across moduli and lengths (including non-multiples of
    /// the lane count, which exercise the scalar tails).
    #[test]
    fn simd_kernels_match_scalar_kernels() {
        let mut rng = StdRng::seed_from_u64(0xB1A5);
        for q in [primes::Q124, primes::Q62, primes::Q30] {
            let m = Modulus::new(q).unwrap();
            for n in [8_usize, 24, 1024, 1000, 7, 129] {
                let x = random_vec(n, q, &mut rng);
                let y = random_vec(n, q, &mut rng);
                let a = rng.gen::<u128>() % q;

                let xs = ResidueSoa::from_u128s(&x);
                let ys = ResidueSoa::from_u128s(&y);

                let mut out = ResidueSoa::zeros(n);
                crate::simd::vadd::<Portable>(&xs, &ys, &mut out, &m);
                assert_eq!(
                    out.to_u128s(),
                    crate::scalar::vadd(&x, &y, &m),
                    "vadd q={q} n={n}"
                );

                crate::simd::vsub::<Portable>(&xs, &ys, &mut out, &m);
                assert_eq!(
                    out.to_u128s(),
                    crate::scalar::vsub(&x, &y, &m),
                    "vsub q={q} n={n}"
                );

                crate::simd::vmul::<Portable>(&xs, &ys, &mut out, &m);
                assert_eq!(
                    out.to_u128s(),
                    crate::scalar::vmul(&x, &y, &m),
                    "vmul q={q} n={n}"
                );

                let mut y_simd = ys.clone();
                crate::simd::axpy::<Portable>(a, &xs, &mut y_simd, &m);
                let mut y_scalar = y.clone();
                crate::scalar::axpy(a, &x, &mut y_scalar, &m);
                assert_eq!(y_simd.to_u128s(), y_scalar, "axpy q={q} n={n}");

                assert_eq!(
                    crate::simd::dot::<Portable>(&xs, &ys, &m),
                    crate::scalar::dot(&x, &y, &m),
                    "dot q={q} n={n}"
                );
            }
        }
    }
}
