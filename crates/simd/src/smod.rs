//! Vectorized single-word modular arithmetic for moduli below `2^62`.
//!
//! A residue of such a modulus fits one 64-bit lane, and so does every
//! value of the lazy butterfly domains: `4q < 2^64`. The ops here are
//! the one-limb counterparts of the lazy double-word ops
//! ([`addmod_lazy`](crate::addmod_lazy) and its siblings) — the same
//! contracts on the same domains, computed on one lane vector
//! instead of a (hi, lo) pair. They read the modulus constants from the
//! `lo` halves of a [`VModulus`] (its `hi` halves are zero for such a
//! modulus, and so is the `hi` half of its Barrett µ, which is below
//! `2^{bits(q)+2} ≤ 2^64`).
//!
//! The one-limb lazy Shoup multiply costs one widening multiply and two
//! low-half multiplies (the two-limb one: six and four), and the Barrett
//! product three widening multiplies and one low-half multiply (the
//! two-limb one: thirteen widening multiplies). The one-limb Shoup
//! constant `⌊w·2^64/q⌋` is the high limb of the two-limb constant
//! `⌊w·2^128/q⌋`, so a table of 128-bit constants serves both widths.
//!
//! The ops check nothing per lane; the kernels that call them
//! debug-assert their buffers' domains at entry.

use crate::dmod::VModulus;
use crate::engine::SimdEngine;

/// Correction-free lazy addition `a + b`: inputs `< 2q` give an output
/// `< 4q`, which cannot wrap a lane since `4q < 2^64`. The sum leg of
/// the Harvey Cooley–Tukey butterfly, as
/// [`add_unreduced`](crate::add_unreduced).
#[inline(always)]
pub fn add_unreduced_word<E: SimdEngine>(a: E::V, b: E::V) -> E::V {
    E::add(a, b)
}

/// One conditional correction: `x − c` if `x ≥ c`, else `x` — the
/// trial subtraction's borrow selects.
#[inline(always)]
fn fold_word<E: SimdEngine>(x: E::V, c: E::V) -> E::V {
    let (d, borrow) = E::sbb0(x, c);
    E::blend(borrow, d, x)
}

/// Lazy modular addition for the `[0, 2q)` domain: `a + b` and one
/// conditional subtraction of `2q`.
#[inline(always)]
pub fn addmod_lazy_word<E: SimdEngine>(a: E::V, b: E::V, m: &VModulus<E>) -> E::V {
    fold_word::<E>(E::add(a, b), m.two_q.lo)
}

/// Lazy modular subtraction `a − b + 2q` with no correction: inputs
/// `< 2q` give an output in `[0, 4q)`, which
/// [`mulmod_shoup_lazy_word`] accepts directly.
#[inline(always)]
pub fn submod_lazy_word<E: SimdEngine>(a: E::V, b: E::V, m: &VModulus<E>) -> E::V {
    E::sub(E::add(a, m.two_q.lo), b)
}

/// Lazy Shoup multiplication by a precomputed `(w, w' = ⌊w·2^64/q⌋)`
/// pair, `w < q`: `r = x·w − ⌊x·w'/2^64⌋·q mod 2^64 ∈ [0, 2q)` for
/// **any** lane value `x` (the quotient estimate is off by less than
/// `x/2^64 + 1 < 2`). One widening multiply for the estimate, two
/// low-half multiplies for the difference.
#[inline(always)]
pub fn mulmod_shoup_lazy_word<E: SimdEngine>(
    x: E::V,
    w: E::V,
    w_shoup: E::V,
    m: &VModulus<E>,
) -> E::V {
    let (qhat, _) = E::mul_wide(x, w_shoup);
    E::sub(E::mullo(x, w), E::mullo(qhat, m.q.lo))
}

/// Canonical modular product `a·b mod q` of canonical operands by
/// Barrett reduction with the modulus' own `(µ, k)`: `t = ⌊a·b·µ/2^k⌋`
/// is `⌊a·b/q⌋` or one less, so `a·b − t·q` needs one conditional
/// subtraction — the same estimate [`mqx_core::Modulus::mul_mod`]
/// makes, limb for limb.
#[inline(always)]
pub fn mulmod_word<E: SimdEngine>(a: E::V, b: E::V, m: &VModulus<E>) -> E::V {
    let zero = E::splat(E::witness(a), 0);
    // x = a·b < q² < 2^124, two limbs.
    let (x1, x0) = E::mul_wide(a, b);
    // y = x·µ, three limbs (< 2^188, so the top one never carries out).
    let (h0, y0) = E::mul_wide(x0, m.mu.lo);
    let (h1, l1) = E::mul_wide(x1, m.mu.lo);
    let (y1, c) = E::adc0(h0, l1);
    let (y2, _) = E::adc(h1, zero, c);
    // t = y >> k, one limb (t ≤ ⌊x/q⌋ < q).
    let y = [y0, y1, y2, zero];
    let (s, r) = ((m.k / 64) as usize, m.k % 64); // k = 2·bits(q) + 1 is odd: r ≠ 0
    let t = E::or(E::shr(y[s], r), E::shl(y[s + 1], 64 - r));
    // c = x − t·q ∈ [0, 2q): its low limb is exact.
    let c = E::sub(x0, E::mullo(t, m.q.lo));
    fold_word::<E>(c, m.q.lo)
}

/// Canonicalizes a `[0, 2q)` lazy value into `[0, q)` with one
/// conditional subtraction.
#[inline(always)]
pub fn reduce_2q_to_q_word<E: SimdEngine>(x: E::V, m: &VModulus<E>) -> E::V {
    fold_word::<E>(x, m.q.lo)
}

/// Folds a `[0, 4q)` value into `[0, 2q)` with one conditional
/// subtraction of `2q`.
#[inline(always)]
pub fn reduce_4q_to_2q_word<E: SimdEngine>(x: E::V, m: &VModulus<E>) -> E::V {
    fold_word::<E>(x, m.two_q.lo)
}
