//! The lane width a fused lazy pipeline runs at.
//!
//! A residue of a modulus below `2^62` fits one 64-bit lane, and so
//! does every value of the lazy domains (`4q < 2^64`). Such a plan runs
//! its fused pipelines on the `lo` plane alone with the single-word ops
//! ([`OneLimb`]); every other plan runs the two-limb (hi, lo) ops
//! ([`TwoLimbs`]). The Pease stage loops in [`crate::pease`] are written
//! once, over [`Lanes`], and the plan picks the width once per call.
//!
//! Both widths read the same tables: a twiddle's value sits in the
//! `lo` plane of its table, and its one-limb Shoup constant
//! `⌊w·2^64/q⌋` is the `hi` limb of the stored two-limb constant
//! `⌊w·2^128/q⌋`.
//!
//! A one-limb pipeline never reads or writes a `hi` plane until its
//! final pass, which writes zeros there, so whatever `hi` plane the
//! scratch buffer (swapped with the operands between stages) carried
//! never reaches the result.

use mqx_simd::{
    add_unreduced, add_unreduced_word, addmod_lazy, addmod_lazy_word, mulmod, mulmod_shoup_lazy,
    mulmod_shoup_lazy_word, mulmod_word, reduce_2q_to_q, reduce_2q_to_q_word, reduce_4q_to_2q,
    reduce_4q_to_2q_word, submod_lazy, submod_lazy_word, ResidueSoa, SimdEngine, VDword, VModulus,
};

/// One vector of `E::LANES` residues at a lane width, and the lazy ops
/// the fused pipeline runs on it. Vector loads and stores index
/// residues; `read` / `write` are the scalar fallbacks' per-residue
/// access to the same planes.
pub(crate) trait Lanes<E: SimdEngine> {
    /// A vector of residues.
    type V: Copy;

    /// Loads residues `[i, i + E::LANES)` of `x`.
    fn load(t: E::Token, x: &ResidueSoa, i: usize) -> Self::V;
    /// Stores a lazy vector to residues `[i, i + E::LANES)` of `y`.
    fn store(y: &mut ResidueSoa, i: usize, v: Self::V);
    /// Stores a canonical vector to residues `[i, i + E::LANES)` of `y`,
    /// writing every plane (the final pass of a pipeline).
    fn store_canonical(t: E::Token, y: &mut ResidueSoa, i: usize, v: Self::V);
    /// Twiddles `[i, i + E::LANES)` of a per-index table and their Shoup
    /// constants.
    fn load_twiddles(
        t: E::Token,
        w: &ResidueSoa,
        w_shoup: &ResidueSoa,
        i: usize,
    ) -> (Self::V, Self::V);
    /// One twiddle and its (two-limb) Shoup constant, broadcast.
    fn splat_twiddle(t: E::Token, w: u128, w_shoup: u128) -> (Self::V, Self::V);
    /// Residue `i` of `x`, as the planes this width keeps hold it.
    fn read(x: &ResidueSoa, i: usize) -> u128;
    /// Writes a lazy value (below `2^64` at one limb) to residue `i`.
    fn write(x: &mut ResidueSoa, i: usize, v: u128);
    /// The transposed stage's paired load: `x[base..base + 2L] = [u0, v0,
    /// u1, v1, …]` split into the butterfly legs `(u, v)`.
    fn load_deinterleaved(t: E::Token, x: &ResidueSoa, base: usize) -> (Self::V, Self::V);
    /// The Pease paired store: `y[base..base + 2L] = [sum0, diff0, sum1,
    /// …]`.
    fn store_interleaved(y: &mut ResidueSoa, base: usize, sum: Self::V, diff: Self::V);

    /// `fold_{2q}(a + b)`: `[0, 2q)` in and out.
    fn add_lazy(a: Self::V, b: Self::V, m: &VModulus<E>) -> Self::V;
    /// `a − b + 2q`: `[0, 2q)` in, `[0, 4q)` out.
    fn sub_lazy(a: Self::V, b: Self::V, m: &VModulus<E>) -> Self::V;
    /// `a + b`: `[0, 2q)` in, `[0, 4q)` out.
    fn add_unreduced(a: Self::V, b: Self::V) -> Self::V;
    /// Lazy Shoup multiply by `(w, w')`: any lane in, `[0, 2q)` out.
    fn mul_shoup_lazy(x: Self::V, w: Self::V, w_shoup: Self::V, m: &VModulus<E>) -> Self::V;
    /// `[0, 2q)` → `[0, q)`.
    fn reduce_2q(x: Self::V, m: &VModulus<E>) -> Self::V;
    /// `[0, 4q)` → `[0, 2q)`.
    fn reduce_4q(x: Self::V, m: &VModulus<E>) -> Self::V;
    /// Canonical `a·b mod q` of canonical operands.
    fn mul(a: Self::V, b: Self::V, m: &VModulus<E>) -> Self::V;

    /// Debug-asserts every residue of `x`, as this width reads it, below
    /// `bound`.
    fn debug_assert_domain(x: &ResidueSoa, bound: u128, what: &str);
}

/// Two 64-bit limbs per residue: the (hi, lo) [`VDword`] ops, for any
/// modulus up to 124 bits.
pub(crate) struct TwoLimbs;

/// One 64-bit limb per residue, on the `lo` plane: the single-word ops,
/// for moduli below `2^62`.
pub(crate) struct OneLimb;

impl<E: SimdEngine> Lanes<E> for TwoLimbs {
    type V = VDword<E>;

    #[inline(always)]
    fn load(t: E::Token, x: &ResidueSoa, i: usize) -> VDword<E> {
        x.load_vector::<E>(t, i)
    }

    #[inline(always)]
    fn store(y: &mut ResidueSoa, i: usize, v: VDword<E>) {
        y.store_vector::<E>(i, v);
    }

    #[inline(always)]
    fn store_canonical(_: E::Token, y: &mut ResidueSoa, i: usize, v: VDword<E>) {
        y.store_vector::<E>(i, v);
    }

    #[inline(always)]
    fn load_twiddles(
        t: E::Token,
        w: &ResidueSoa,
        w_shoup: &ResidueSoa,
        i: usize,
    ) -> (VDword<E>, VDword<E>) {
        (w.load_vector::<E>(t, i), w_shoup.load_vector::<E>(t, i))
    }

    #[inline(always)]
    fn splat_twiddle(t: E::Token, w: u128, w_shoup: u128) -> (VDword<E>, VDword<E>) {
        (VDword::broadcast(t, w), VDword::broadcast(t, w_shoup))
    }

    #[inline(always)]
    fn read(x: &ResidueSoa, i: usize) -> u128 {
        x.get(i)
    }

    #[inline(always)]
    fn write(x: &mut ResidueSoa, i: usize, v: u128) {
        x.set(i, v);
    }

    #[inline(always)]
    fn load_deinterleaved(t: E::Token, x: &ResidueSoa, base: usize) -> (VDword<E>, VDword<E>) {
        let a = x.load_vector::<E>(t, base);
        let b = x.load_vector::<E>(t, base + E::LANES);
        (
            VDword {
                hi: E::deinterleave_even(a.hi, b.hi),
                lo: E::deinterleave_even(a.lo, b.lo),
            },
            VDword {
                hi: E::deinterleave_odd(a.hi, b.hi),
                lo: E::deinterleave_odd(a.lo, b.lo),
            },
        )
    }

    #[inline(always)]
    fn store_interleaved(y: &mut ResidueSoa, base: usize, sum: VDword<E>, diff: VDword<E>) {
        crate::pease::store_interleaved::<E>(y, base, sum, diff);
    }

    #[inline(always)]
    fn add_lazy(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
        addmod_lazy::<E>(a, b, m)
    }

    #[inline(always)]
    fn sub_lazy(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
        submod_lazy::<E>(a, b, m)
    }

    #[inline(always)]
    fn add_unreduced(a: VDword<E>, b: VDword<E>) -> VDword<E> {
        add_unreduced::<E>(a, b)
    }

    #[inline(always)]
    fn mul_shoup_lazy(
        x: VDword<E>,
        w: VDword<E>,
        w_shoup: VDword<E>,
        m: &VModulus<E>,
    ) -> VDword<E> {
        mulmod_shoup_lazy::<E>(x, w, w_shoup, m)
    }

    #[inline(always)]
    fn reduce_2q(x: VDword<E>, m: &VModulus<E>) -> VDword<E> {
        reduce_2q_to_q::<E>(x, m)
    }

    #[inline(always)]
    fn reduce_4q(x: VDword<E>, m: &VModulus<E>) -> VDword<E> {
        reduce_4q_to_2q::<E>(x, m)
    }

    #[inline(always)]
    fn mul(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
        mulmod::<E>(a, b, m)
    }

    fn debug_assert_domain(x: &ResidueSoa, bound: u128, what: &str) {
        crate::plan::debug_assert_domain_soa(x, bound, what);
    }
}

impl<E: SimdEngine> Lanes<E> for OneLimb {
    type V = E::V;

    #[inline(always)]
    fn load(t: E::Token, x: &ResidueSoa, i: usize) -> E::V {
        E::load(t, &x.lo()[i..])
    }

    #[inline(always)]
    fn store(y: &mut ResidueSoa, i: usize, v: E::V) {
        E::store(v, &mut y.parts_mut().1[i..]);
    }

    #[inline(always)]
    fn store_canonical(t: E::Token, y: &mut ResidueSoa, i: usize, v: E::V) {
        let (yh, yl) = y.parts_mut();
        E::store(E::splat(t, 0), &mut yh[i..]);
        E::store(v, &mut yl[i..]);
    }

    #[inline(always)]
    fn load_twiddles(t: E::Token, w: &ResidueSoa, w_shoup: &ResidueSoa, i: usize) -> (E::V, E::V) {
        (E::load(t, &w.lo()[i..]), E::load(t, &w_shoup.hi()[i..]))
    }

    #[inline(always)]
    fn splat_twiddle(t: E::Token, w: u128, w_shoup: u128) -> (E::V, E::V) {
        (E::splat(t, w as u64), E::splat(t, (w_shoup >> 64) as u64))
    }

    #[inline(always)]
    fn read(x: &ResidueSoa, i: usize) -> u128 {
        u128::from(x.lo()[i])
    }

    #[inline(always)]
    fn write(x: &mut ResidueSoa, i: usize, v: u128) {
        x.parts_mut().1[i] = v as u64;
    }

    #[inline(always)]
    fn load_deinterleaved(t: E::Token, x: &ResidueSoa, base: usize) -> (E::V, E::V) {
        let a = E::load(t, &x.lo()[base..]);
        let b = E::load(t, &x.lo()[base + E::LANES..]);
        (E::deinterleave_even(a, b), E::deinterleave_odd(a, b))
    }

    #[inline(always)]
    fn store_interleaved(y: &mut ResidueSoa, base: usize, sum: E::V, diff: E::V) {
        let yl = y.parts_mut().1;
        E::store(E::interleave_lo(sum, diff), &mut yl[base..]);
        E::store(E::interleave_hi(sum, diff), &mut yl[base + E::LANES..]);
    }

    #[inline(always)]
    fn add_lazy(a: E::V, b: E::V, m: &VModulus<E>) -> E::V {
        addmod_lazy_word::<E>(a, b, m)
    }

    #[inline(always)]
    fn sub_lazy(a: E::V, b: E::V, m: &VModulus<E>) -> E::V {
        submod_lazy_word::<E>(a, b, m)
    }

    #[inline(always)]
    fn add_unreduced(a: E::V, b: E::V) -> E::V {
        add_unreduced_word::<E>(a, b)
    }

    #[inline(always)]
    fn mul_shoup_lazy(x: E::V, w: E::V, w_shoup: E::V, m: &VModulus<E>) -> E::V {
        mulmod_shoup_lazy_word::<E>(x, w, w_shoup, m)
    }

    #[inline(always)]
    fn reduce_2q(x: E::V, m: &VModulus<E>) -> E::V {
        reduce_2q_to_q_word::<E>(x, m)
    }

    #[inline(always)]
    fn reduce_4q(x: E::V, m: &VModulus<E>) -> E::V {
        reduce_4q_to_2q_word::<E>(x, m)
    }

    #[inline(always)]
    fn mul(a: E::V, b: E::V, m: &VModulus<E>) -> E::V {
        mulmod_word::<E>(a, b, m)
    }

    fn debug_assert_domain(x: &ResidueSoa, bound: u128, what: &str) {
        if cfg!(debug_assertions) {
            for (i, &v) in x.lo().iter().enumerate() {
                assert!(
                    u128::from(v) < bound,
                    "{what}: coefficient {i} = {v:#x} ≥ {bound:#x} (lo plane)"
                );
            }
        }
    }
}
