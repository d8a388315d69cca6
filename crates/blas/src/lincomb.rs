//! The RNS boundary's one kernel: a linear combination of word rows with
//! constant Shoup multipliers,
//!
//! ```text
//! out[j] = (k + Σ_t c_t · x_t[j]) mod q,
//! ```
//!
//! lane-parallel across `j`. CRT decomposition (limb planes against
//! `2^(64t) mod q`), the Garner mixed-radix digits, the basis-extension
//! fold and both halves of a rescale are all this shape, with constants
//! fixed per basis width (a factor common to every term, such as a
//! Garner digit's inverse, is multiplied into the constants once, at
//! set-up).
//!
//! Each product is a lazy Shoup multiply (any lane value in, `[0, 2q)`
//! out), the running sum is folded back into `[0, 2q)` after every term,
//! and the one canonical reduction comes last. The kernel is generic
//! over the lane width ([`Lanes`]): one 64-bit limb per residue
//! ([`OneLimb`](mqx_simd::OneLimb), moduli below `2^62`, one widening
//! and two low-half multiplies per product) or two
//! ([`TwoLimbs`](mqx_simd::TwoLimbs), any modulus). The one-limb Shoup
//! constant `⌊c·2^64/q⌋` is the `hi` limb of the stored
//! `⌊c·2^128/q⌋`, so one [`ShoupMul`] serves both widths.
//!
//! Rows hold `u128` words. A one-limb load narrows each word to its
//! lane, reducing the rare word at or above `2^64` mod `q` first; a
//! word below `2^64` enters as it is, since the Shoup multiply takes any
//! lane value. A length that is not a lane multiple ends in one partial
//! vector whose missing lanes read 0 and are never stored.

use mqx_core::{Modulus, ShoupMul};
use mqx_simd::{Lanes, SimdEngine, VModulus, MAX_LANES};

/// The operands of one [`lincomb`] call over rows of `n` words:
/// `out[j] = (k + c_0 · lead[j] + Σ_{t≥1} c_t · rows[(t−1)·n + j]) mod
/// q`.
///
/// The first row is separate so that a caller can pair one row of its
/// own (a channel's residues) with a block of rows it computed (the
/// Garner digits so far) without copying either.
#[derive(Clone, Copy, Debug)]
pub struct LinComb<'a> {
    /// `c_0, c_1, …`: one multiplier per row, each with its Shoup
    /// constant for `q`.
    pub coeffs: &'a [ShoupMul],
    /// Row 0, `n` words.
    pub lead: &'a [u128],
    /// Rows `1 ..`, `n` words each, back to back.
    pub rows: &'a [u128],
    /// `k`, below `q`.
    pub offset: u128,
}

/// `out[j] = (k + Σ_t c_t · x_t[j]) mod q` for every `j < out.len()`
/// (see [`LinComb`]), canonical, at lane width `L`.
///
/// # Panics
///
/// Panics if `comb` has no multiplier, if a row is not `out.len()`
/// words long, if the offset is not below `q`, or if `q` is not below
/// `L`'s [`Lanes::BOUND`].
pub fn lincomb<E: SimdEngine, L: Lanes<E>>(m: &Modulus, comb: &LinComb<'_>, out: &mut [u128]) {
    let n = out.len();
    let LinComb {
        coeffs,
        lead,
        rows,
        offset,
    } = *comb;
    assert!(!coeffs.is_empty(), "a combination needs at least one row");
    assert_eq!(lead.len(), n, "lead row length");
    assert_eq!(rows.len(), (coeffs.len() - 1) * n, "one row per multiplier");
    assert!(offset < m.value(), "offset must be reduced");
    assert!(m.value() < L::BOUND, "modulus too wide for this lane width");
    assert!(E::LANES <= MAX_LANES);
    let vm = VModulus::<E>::new(m);
    E::vectorize(
        #[inline(always)]
        |t| {
            let k = L::splat(t, offset);
            for (chunk, out) in out.chunks_mut(E::LANES).enumerate() {
                let j = chunk * E::LANES;
                // Row t at coefficient j: the lead row, then the block.
                let row = |r: usize| match r {
                    0 => &lead[j..],
                    _ => &rows[(r - 1) * n + j..r * n],
                };
                let mut acc = k;
                for (r, c) in coeffs.iter().enumerate() {
                    let (w, w_shoup) = L::splat_twiddle(t, c.multiplier(), c.constant());
                    let x = L::load_words(t, row(r), &vm);
                    acc = L::add_lazy(acc, L::mul_shoup_lazy(x, w, w_shoup, &vm), &vm);
                }
                L::store_words(L::reduce_2q(acc, &vm), out);
            }
        },
    );
}
