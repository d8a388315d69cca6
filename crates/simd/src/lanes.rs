//! The lane width a lazy kernel runs at.
//!
//! A residue of a modulus below `2^62` fits one 64-bit lane, and so
//! does every value of the lazy domains (`4q < 2^64`). Such a modulus
//! runs its lazy kernels on the `lo` plane alone with the single-word
//! ops ([`OneLimb`]); every other modulus runs the two-limb (hi, lo) ops
//! ([`TwoLimbs`]). A kernel is written once, over [`Lanes`], and its
//! caller picks the width once per call: the NTT plans' fused pipelines
//! and Pease stage loops (`mqx_ntt`), and the RNS boundary's
//! linear-combination kernel (`mqx_blas::lincomb`).
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

use crate::{
    add_unreduced, add_unreduced_word, addmod_lazy, addmod_lazy_word, debug_assert_domain_soa,
    mulmod, mulmod_shoup_lazy, mulmod_shoup_lazy_word, mulmod_word, reduce_2q_to_q,
    reduce_2q_to_q_word, reduce_4q_to_2q, reduce_4q_to_2q_word, submod_lazy, submod_lazy_word,
    ResidueSoa, SimdEngine, VDword, VModulus,
};

/// The most lanes any engine's vector holds: the stack buffers of the
/// partial `u128` loads and stores ([`Lanes::load_words`],
/// [`Lanes::store_words`]) are this long.
pub const MAX_LANES: usize = 8;

/// `xs` as its 64-bit halves, in memory order: `[lo_0, hi_0, lo_1, …]`
/// on a little-endian target.
#[inline(always)]
fn halves(xs: &[u128]) -> &[u64] {
    // SAFETY: a `u128` is two `u64`s with no padding and is aligned at
    // least as strictly as `u64`; every bit pattern is a valid `u64`. The
    // view covers exactly the `2 · xs.len()` words of `xs` and borrows it.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u64>(), 2 * xs.len()) }
}

/// [`halves`] for writing.
#[inline(always)]
fn halves_mut(xs: &mut [u128]) -> &mut [u64] {
    // SAFETY: as in `halves`; the view borrows `xs` mutably, so it is
    // the only access to those words while it lives, and any `u64`
    // pair written through it is a valid `u128`.
    unsafe { std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast::<u64>(), 2 * xs.len()) }
}

/// Words `[0, E::LANES)` of `xs` as (hi, lo) limb vectors: two loads and
/// two permutes.
#[inline(always)]
fn load_limbs<E: SimdEngine>(t: E::Token, xs: &[u128]) -> (E::V, E::V) {
    let h = halves(&xs[..E::LANES]);
    let (a, b) = (E::load(t, h), E::load(t, &h[E::LANES..]));
    let (even, odd) = (E::deinterleave_even(a, b), E::deinterleave_odd(a, b));
    if cfg!(target_endian = "little") {
        (odd, even)
    } else {
        (even, odd)
    }
}

/// Writes (hi, lo) limb vectors to words `[0, E::LANES)` of `out`: two
/// permutes and two stores.
#[inline(always)]
fn store_limbs<E: SimdEngine>(hi: E::V, lo: E::V, out: &mut [u128]) {
    let (first, second) = if cfg!(target_endian = "little") {
        (lo, hi)
    } else {
        (hi, lo)
    };
    let h = halves_mut(&mut out[..E::LANES]);
    E::store(E::interleave_lo(first, second), h);
    E::store(E::interleave_hi(first, second), &mut h[E::LANES..]);
}

/// One vector of `E::LANES` residues at a lane width, and the lazy ops
/// the fused pipeline runs on it. Vector loads and stores index
/// residues; `read` / `write` are the scalar fallbacks' per-residue
/// access to the same planes.
pub trait Lanes<E: SimdEngine> {
    /// A vector of residues.
    type V: Copy;
    /// Moduli below this run at this width: `4q` must fit the lanes.
    const BOUND: u128;

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

    /// One value, broadcast; it must fit this width (below `2^64` at one
    /// limb).
    fn splat(t: E::Token, x: u128) -> Self::V;
    /// The first `E::LANES` words of `xs`, or all of them when `xs` is
    /// shorter (the missing lanes read 0). A word this width cannot hold
    /// is reduced mod `m` first, never truncated.
    fn load_words(t: E::Token, xs: &[u128], m: &VModulus<E>) -> Self::V;
    /// Writes the first `min(out.len(), E::LANES)` lanes of `v` to `out`.
    fn store_words(v: Self::V, out: &mut [u128]);
}

/// Two 64-bit limbs per residue: the (hi, lo) [`VDword`] ops, for any
/// modulus up to 124 bits.
pub struct TwoLimbs;

/// One 64-bit limb per residue, on the `lo` plane: the single-word ops,
/// for moduli below `2^62`.
pub struct OneLimb;

impl<E: SimdEngine> Lanes<E> for TwoLimbs {
    type V = VDword<E>;
    const BOUND: u128 = 1 << 126;

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
        let lanes = E::LANES;
        let (yh, yl) = y.parts_mut();
        E::store(E::interleave_lo(sum.hi, diff.hi), &mut yh[base..]);
        E::store(E::interleave_hi(sum.hi, diff.hi), &mut yh[base + lanes..]);
        E::store(E::interleave_lo(sum.lo, diff.lo), &mut yl[base..]);
        E::store(E::interleave_hi(sum.lo, diff.lo), &mut yl[base + lanes..]);
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
        debug_assert_domain_soa(x, bound, what);
    }

    #[inline(always)]
    fn splat(t: E::Token, x: u128) -> VDword<E> {
        VDword::broadcast(t, x)
    }

    #[inline(always)]
    fn load_words(t: E::Token, xs: &[u128], _: &VModulus<E>) -> VDword<E> {
        if xs.len() >= E::LANES {
            let (hi, lo) = load_limbs::<E>(t, xs);
            return VDword { hi, lo };
        }
        let (mut hi, mut lo) = ([0_u64; MAX_LANES], [0_u64; MAX_LANES]);
        for ((h, l), &x) in hi
            .iter_mut()
            .zip(&mut lo)
            .zip(&xs[..xs.len().min(E::LANES)])
        {
            (*h, *l) = ((x >> 64) as u64, x as u64);
        }
        VDword::load(t, &hi, &lo)
    }

    #[inline(always)]
    fn store_words(v: VDword<E>, out: &mut [u128]) {
        if out.len() >= E::LANES {
            return store_limbs::<E>(v.hi, v.lo, out);
        }
        let (mut hi, mut lo) = ([0_u64; MAX_LANES], [0_u64; MAX_LANES]);
        v.store(&mut hi, &mut lo);
        for (o, (&h, &l)) in out.iter_mut().zip(hi.iter().zip(&lo)).take(E::LANES) {
            *o = (u128::from(h) << 64) | u128::from(l);
        }
    }
}

impl<E: SimdEngine> Lanes<E> for OneLimb {
    type V = E::V;
    const BOUND: u128 = 1 << 62;

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

    #[inline(always)]
    fn splat(t: E::Token, x: u128) -> E::V {
        E::splat(t, x as u64)
    }

    #[inline(always)]
    fn load_words(t: E::Token, xs: &[u128], m: &VModulus<E>) -> E::V {
        if xs.len() >= E::LANES {
            let (hi, lo) = load_limbs::<E>(t, xs);
            if !E::mask_any(E::cmp_gt(hi, E::splat(t, 0))) {
                return lo;
            }
        }
        // A partial vector, or a word at or above 2^64: lane by lane.
        let mut lo = [0_u64; MAX_LANES];
        for (l, &x) in lo.iter_mut().zip(&xs[..xs.len().min(E::LANES)]) {
            *l = if x >> 64 == 0 { x } else { m.scalar.reduce(x) } as u64;
        }
        E::load(t, &lo)
    }

    #[inline(always)]
    fn store_words(v: E::V, out: &mut [u128]) {
        if out.len() >= E::LANES {
            return store_limbs::<E>(E::splat(E::witness(v), 0), v, out);
        }
        let mut lo = [0_u64; MAX_LANES];
        E::store(v, &mut lo);
        for (o, &l) in out.iter_mut().zip(&lo).take(E::LANES) {
            *o = u128::from(l);
        }
    }
}
