//! Number theoretic transforms over 128-bit prime fields (§2.3, §3.2).
//!
//! An `n`-point NTT (Eq. 11) evaluates a polynomial at the powers of a
//! primitive `n`-th root of unity ω_n in ℤ_q, turning O(n²) polynomial
//! multiplication into O(n log n). This crate provides:
//!
//! * [`NttPlan`] — per-(modulus, size) precomputation: Barrett constants,
//!   per-stage twiddle tables (scalar and structure-of-arrays forms),
//!   bit-reversal permutation, `n⁻¹`, and the ψ tables for negacyclic use.
//!   The tables the SIMD kernels read are built with the plan; those
//!   only the scalar reference transforms read, on their first use.
//! * Three transform dataflows, all verified against each other and the
//!   naive DFT:
//!   - [`naive::dft`] — the O(n²) oracle, a direct transcription of
//!     Eq. 11;
//!   - [`NttPlan::forward_scalar`] / [`NttPlan::inverse_scalar`] — the
//!     iterative in-place Cooley–Tukey radix-2 transform (the paper's
//!     optimized *scalar* tier, and the reference the SIMD kernels are
//!     checked against);
//!   - [`NttPlan::forward_simd`] / [`NttPlan::inverse_simd`] — the
//!     **Pease constant-geometry** dataflow (the paper's SIMD tier,
//!     after Fu et al. \[17\]), whose interleaved stores are the
//!     `_mm512_unpack*`/`_mm512_permutex2var_epi64` pattern of §3.2.
//!     [`NttPlan::forward_pease_scalar`] runs the same dataflow with
//!     scalar arithmetic.
//! * [`polymul`] — the scalar reference cyclic and negacyclic products
//!   via the convolution theorem, plus schoolbook references.
//!
//! # The lazy-reduction fused pipeline
//!
//! Polynomial products are served by one fused SIMD pipeline per ring,
//! [`NttPlan::polymul_fused_cyclic_simd`] /
//! [`NttPlan::polymul_fused_negacyclic_simd`] (what the `mqx` facade
//! runs). Its butterflies multiply by twiddles with Shoup's
//! precomputed-quotient trick — for each twiddle `w` the plan stores
//! `w' = ⌊w·2¹²⁸/q⌋`, so `x·w mod q` costs one 128×128→256 high product
//! plus two wrapping low products, **and the result is only guaranteed
//! below `2q`**. Instead of correcting immediately, the kernels let
//! coefficients ride in relaxed domains — `[0, 2q)` through the
//! constant-geometry forward stages, `[0, 4q)` through the transposed
//! inverse — paying at most one conditional fold per butterfly where a
//! canonical kernel pays a full Barrett reduction. This is sound
//! because moduli are capped at 124 bits
//! ([`mqx_core::MAX_MODULUS_BITS`]), so `4q < 2¹²⁶` never overflows a
//! `u128`.
//!
//! The pipeline chains twist → forward → forward → pointwise → inverse
//! with **no canonicalization between stages and no allocation**: the
//! only full reductions are one fold to canonical feeding the Barrett
//! pointwise multiply, and the final pass, which merges the `n⁻¹` scale
//! (negacyclic: a precomputed `ψ^{−i}·n⁻¹` table) with the closing
//! correction to `[0, q)`. It also runs **no permutation**: the Pease
//! forward leaves its output bit-reversed, the point-wise product does
//! not care about order, and the inverse is the transposed
//! (decimation-in-time) constant-geometry dataflow, which reads
//! bit-reversed input and writes natural order (see the `pease`
//! module). Only the standalone transforms ([`NttPlan::forward_simd`],
//! [`NttPlan::inverse_simd`]), which promise natural order in and out,
//! keep one bit-reversal pass each. The entry contracts are
//! `debug_assert`ed: inputs must be `< 2q`, the inverse's `< 4q`.
//!
//! The fused path is **bit-identical** to the scalar reference products
//! in [`polymul`] — both return the unique canonical residue of the
//! same ring element — and shares no kernel with them. Memory cost: the
//! Shoup quotients double the served twiddle storage (one extra `u128`
//! per twiddle across the Pease stage tables and their lane-expanded
//! forms, plus the merged negacyclic twist tables), paid once per
//! (modulus, size) and amortized by the facade's plan cache. The
//! facade's `RingBuilder::lazy(false)` builds a ring on the scalar
//! reference products — the oracle the fused default is compared
//! against.
//!
//! # Example
//!
//! ```
//! use mqx_core::{Modulus, primes};
//! use mqx_ntt::NttPlan;
//!
//! let m = Modulus::new_prime(primes::Q124)?;
//! let plan = NttPlan::new(&m, 1024)?;
//! let mut data: Vec<u128> = (0..1024_u64).map(u128::from).collect();
//! let original = data.clone();
//! plan.forward_scalar(&mut data);
//! plan.inverse_scalar(&mut data);
//! assert_eq!(data, original);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod naive;
mod pease;
mod plan;
pub mod polymul;

pub use error::NttError;
pub use mqx_simd::debug_assert_domain_soa;
pub use plan::NttPlan;

#[cfg(test)]
mod proptests;

/// Number of butterflies an `n`-point radix-2 NTT executes:
/// `(n/2)·log₂n`. The paper reports NTT runtime *per butterfly* (§A.6).
///
/// ```
/// assert_eq!(mqx_ntt::butterfly_count(1024), 5120);
/// ```
pub fn butterfly_count(n: usize) -> u64 {
    let logn = n.trailing_zeros() as u64;
    (n as u64 / 2) * logn
}
