//! The [`SimdEngine`] trait: vector primitives that map one-to-one onto
//! AVX-512/AVX2 instructions, plus the derived multi-word operations whose
//! defaults are the paper's baseline emulation sequences — and the
//! [`Token`] that proves an engine may run on this CPU.

use std::fmt::Debug;
use std::marker::PhantomData;

/// Engines are defined by this crate only: the derived-op defaults
/// encode cost-model assumptions that downstream code must not change.
///
/// The trait is crate-private, not merely unnameable, so that its two
/// methods — the only ways to obtain a [`Token`] without running the
/// CPU check — cannot be called from outside the crate even through a
/// `SimdEngine` bound.
pub(crate) trait Sealed {
    /// The token of the engine `v` belongs to, minted without a check.
    /// Holding a vector proves the check ran: a hardware engine's
    /// vectors and masks are built only by constructors that take a
    /// token, and a token is minted only by [`SimdEngine::token`]. This
    /// is what lets the derived ops and the modular kernels build their
    /// constants (`splat(1)`, the zero mask) on the per-vector path
    /// without a second detection check.
    fn witness(v: <Self as SimdEngine>::V) -> <Self as SimdEngine>::Token
    where
        Self: SimdEngine;

    /// Runs `f` inside this engine's target-feature frame on the
    /// strength of `t`, without checking the CPU; see
    /// [`SimdEngine::vectorize`], the public entry that checks first.
    ///
    /// This default is the frame of an engine with no features to
    /// enable: a plain out-of-line function — still a real call
    /// boundary, so each engine keeps one compiled copy of each kernel
    /// (the same code shape the hardware engines get) instead of the
    /// force-inlined arithmetic beneath it being duplicated into every
    /// caller.
    #[inline(always)]
    fn enter<R>(
        t: <Self as SimdEngine>::Token,
        f: impl FnOnce(<Self as SimdEngine>::Token) -> R,
    ) -> R
    where
        Self: SimdEngine,
    {
        #[inline(never)]
        fn frame<T, R>(t: T, f: impl FnOnce(T) -> R) -> R {
            f(t)
        }
        frame(t, f)
    }
}

/// Proof that the running CPU can execute engine `E`'s instructions.
///
/// Zero-sized, and only this crate can build one:
/// [`SimdEngine::token`] mints it after checking the CPU, and
/// [`SimdEngine::vectorize`] mints one per kernel call and hands it to
/// the kernel. Every constructor of a vector or mask
/// ([`splat`](SimdEngine::splat), [`load`](SimdEngine::load),
/// [`mask_zero`](SimdEngine::mask_zero),
/// [`mask_from_bits`](SimdEngine::mask_from_bits), and on top of them
/// [`VDword::broadcast`](crate::VDword::broadcast),
/// [`VDword::load`](crate::VDword::load) and
/// [`ResidueSoa::load_vector`](crate::ResidueSoa::load_vector)) takes
/// one, so a hardware engine's vector exists only on a CPU that passed
/// the check, and the engines' arithmetic runs no check at all.
///
/// A vector cannot be built without a token:
///
/// ```compile_fail
/// use mqx_simd::{Avx512, SimdEngine};
/// let v = Avx512::splat(7); // `splat` takes a token first
/// ```
///
/// and a token cannot be built outside this crate:
///
/// ```compile_fail
/// use mqx_simd::{Avx512, Token};
/// let t: Token<Avx512> = Token(std::marker::PhantomData); // private field
/// ```
///
/// The one way in checks the CPU (and panics on a host without the
/// features):
///
/// ```
/// use mqx_simd::{Portable, SimdEngine};
/// let t = Portable::token();
/// assert_eq!(Portable::extract(Portable::splat(t, 7), 0), 7);
/// ```
pub struct Token<E>(PhantomData<fn() -> E>);

impl<E> Token<E> {
    /// Mints a token without checking anything.
    ///
    /// # Safety
    ///
    /// The running CPU must support every target feature `E`'s
    /// operations and its [`Sealed::enter`] frame use.
    // SAFETY: building the zero-sized value is sound in itself; what it
    // vouches for is the caller's obligation above.
    #[inline(always)]
    pub(crate) const unsafe fn new() -> Self {
        Token(PhantomData)
    }
}

impl<E> Clone for Token<E> {
    #[inline(always)]
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for Token<E> {}

impl<E> Debug for Token<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Token")
    }
}

/// A SIMD instruction-set engine operating on vectors of 64-bit lanes.
///
/// Required methods correspond to single machine instructions of the
/// engine's ISA (the doc comment on each names the AVX-512 instruction).
/// The *provided* methods — [`mul_wide`](Self::mul_wide),
/// [`adc`](Self::adc), [`sbb`](Self::sbb), [`padc`](Self::padc),
/// [`psbb`](Self::psbb) — default to the multi-instruction emulations
/// that baseline AVX-512 is forced into (Table 1 / §4), and are overridden
/// by [`Mqx`](crate::Mqx) with the proposed one-instruction forms.
///
/// This trait is sealed: implementations live in this crate only.
// The private supertrait is the point: it keeps the unchecked token
// paths (`Sealed::witness`, `Sealed::enter`) out of reach downstream.
#[allow(private_bounds)]
pub trait SimdEngine: Sealed + Copy + Send + Sync + 'static {
    /// Number of 64-bit lanes per vector.
    const LANES: usize;
    /// Human-readable engine name for benchmark reports.
    const NAME: &'static str;
    /// Whether the engine provides single-instruction predicated
    /// carry/borrow ops (the `+P` MQX profile, §5.5). Kernels pick the
    /// predicated dataflow when this is set; the flag is a `const` so the
    /// untaken branch compiles out.
    const HAS_PREDICATION: bool = false;

    /// A vector of [`Self::LANES`] unsigned 64-bit lanes.
    type V: Copy + Debug + Send + Sync;
    /// A per-lane mask (one bit of predicate per lane).
    type M: Copy + Debug + Send + Sync;
    /// The proof this engine may run here: [`Token<Self>`] for the base
    /// engines, the base engine's token for the wrapper engines
    /// ([`Mqx`](crate::Mqx), the [`proxy`](crate::proxy) engines), whose
    /// instructions are their base engine's.
    type Token: Copy + Debug + Send + Sync;

    // ---- the CPU check and the target-feature frame ----------------------

    /// Checks that the running CPU can execute this engine and returns
    /// the token that says so: the one-off entry for code outside a
    /// kernel frame ([`VModulus::new`](crate::VModulus::new), tests).
    /// Kernels get theirs from [`vectorize`](Self::vectorize).
    ///
    /// # Panics
    ///
    /// [`Avx512`](crate::Avx512) / [`Avx2`](crate::Avx2) panic on a CPU
    /// without their features; [`Portable`](crate::Portable)'s token is
    /// free.
    fn token() -> Self::Token;

    /// Runs `f` inside this engine's **target-feature frame** and returns
    /// its result, handing `f` the engine's [`Token`].
    ///
    /// The hardware engines are compiled into every x86-64 build, but an
    /// ordinary build enables none of their target features, so an
    /// intrinsic reached from ordinary code is an out-of-line call per
    /// instruction. `vectorize` is the one place the features are turned
    /// on: it checks the running CPU **once** ([`token`](Self::token),
    /// which panics on a host without the features), then runs `f` in a
    /// function compiled with `avx512f,avx512dq` / `avx2`, where every
    /// intrinsic that was inlined into `f` becomes the single instruction
    /// it names, and no engine op checks the CPU again.
    /// [`Portable`](crate::Portable) has no features to enable; its frame
    /// is a plain out-of-line function. The wrapper engines
    /// ([`Mqx`](crate::Mqx), the [`proxy`](crate::proxy) engines) run in
    /// their base engine's frame. The result is the same with or without
    /// the frame — only the cost differs — so every kernel is written
    /// once, over the whole vector loop, building its vectors with the
    /// token it is handed:
    ///
    /// ```
    /// use mqx_simd::{Portable, SimdEngine};
    ///
    /// fn sum_lanes<E: SimdEngine>(xs: &[u64]) -> u64 {
    ///     E::vectorize(
    ///         #[inline(always)]
    ///         |t| {
    ///             let mut acc = E::splat(t, 0);
    ///             for chunk in xs.chunks_exact(E::LANES) {
    ///                 acc = E::add(acc, E::load(t, chunk));
    ///             }
    ///             (0..E::LANES).map(|i| E::extract(acc, i)).sum()
    ///         },
    ///     )
    /// }
    /// assert_eq!(sum_lanes::<Portable>(&[1; 16]), 16);
    /// ```
    ///
    /// # What a kernel author must keep true
    ///
    /// The features reach only code that is **inlined into the frame**:
    ///
    /// * the closure itself and every function between it and the
    ///   intrinsics must be `#[inline(always)]` (as every engine op,
    ///   [`VDword`](crate::VDword) / [`ResidueSoa`](crate::ResidueSoa)
    ///   accessor and modular op in this crate is). A plain `#[inline]`
    ///   is a hint; one frame that stays out of line is compiled without
    ///   the features and puts every intrinsic beneath it back out of
    ///   line;
    /// * never pass a **fn item** (`addmod::<E>`) where an `impl Fn` is
    ///   expected inside the frame: the call goes through a
    ///   compiler-generated shim that `#[inline(always)]` does not reach,
    ///   and the whole callee lands in that shim without the features.
    ///   Pass `#[inline(always)] |a, b, m| addmod::<E>(a, b, m)` instead;
    /// * build vectors with the token the closure is handed, never with
    ///   a fresh [`token`](Self::token) per vector: that is a CPU check
    ///   inside the loop.
    ///
    /// Frames nest for free: a function that opens its own frame (as
    /// [`mulmod_schoolbook`](crate::mulmod_schoolbook) does, so each
    /// engine carries one copy of the Barrett chain) may be called from
    /// inside another, and the compiler may inline one into the other
    /// because their features match.
    #[inline(always)]
    fn vectorize<R>(f: impl FnOnce(Self::Token) -> R) -> R {
        Self::enter(Self::token(), f)
    }

    // ---- data movement ------------------------------------------------

    /// Broadcasts a scalar to all lanes (`vpbroadcastq`).
    fn splat(t: Self::Token, x: u64) -> Self::V;

    /// Loads [`Self::LANES`] consecutive values (`vmovdqu64`).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < Self::LANES`.
    fn load(t: Self::Token, src: &[u64]) -> Self::V;

    /// Stores [`Self::LANES`] consecutive values (`vmovdqu64`).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < Self::LANES`.
    fn store(v: Self::V, dst: &mut [u64]);

    /// Reads one lane (test/trace support; not used by kernels).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn extract(v: Self::V, lane: usize) -> u64;

    // ---- lane-wise arithmetic and logic --------------------------------

    /// Lane-wise wrapping addition (`vpaddq`).
    fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise wrapping subtraction (`vpsubq`).
    fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise low-half 64×64 multiply (`vpmullq`, AVX-512DQ).
    fn mullo(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise 32×32→64 unsigned multiply of each lane's low 32 bits
    /// (`vpmuludq`).
    fn mul32_wide(a: Self::V, b: Self::V) -> Self::V;
    /// Low-half 32×32 multiply on each 32-bit sub-lane (`vpmulld`).
    /// Not used by the kernels themselves; it is the Table 5 *proxy* for
    /// `vpmuludq` in the PISA validation experiment.
    fn mullo32(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise logical shift left by a uniform amount (`vpsllq`).
    fn shl(a: Self::V, n: u32) -> Self::V;
    /// Lane-wise logical shift right by a uniform amount (`vpsrlq`).
    fn shr(a: Self::V, n: u32) -> Self::V;
    /// Bitwise and (`vpandq`).
    fn and(a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise or (`vporq`).
    fn or(a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise xor (`vpxorq`).
    fn xor(a: Self::V, b: Self::V) -> Self::V;

    // ---- comparisons (unsigned) → masks --------------------------------

    /// `a < b` per lane, unsigned (`vpcmpuq` imm `LT`).
    fn cmp_lt(a: Self::V, b: Self::V) -> Self::M;
    /// `a ≤ b` per lane, unsigned (`vpcmpuq` imm `LE`).
    fn cmp_le(a: Self::V, b: Self::V) -> Self::M;
    /// `a = b` per lane (`vpcmpeqq`).
    fn cmp_eq(a: Self::V, b: Self::V) -> Self::M;
    /// `a > b` per lane, unsigned.
    #[inline(always)]
    fn cmp_gt(a: Self::V, b: Self::V) -> Self::M {
        Self::cmp_lt(b, a)
    }

    // ---- mask algebra ---------------------------------------------------

    /// The all-false mask (the paper's `z_mask`).
    fn mask_zero(t: Self::Token) -> Self::M;
    /// Lane-wise mask and (`kandb`).
    fn mask_and(a: Self::M, b: Self::M) -> Self::M;
    /// Lane-wise mask or (`korb`).
    fn mask_or(a: Self::M, b: Self::M) -> Self::M;
    /// Lane-wise mask not (`knotb`).
    fn mask_not(a: Self::M) -> Self::M;
    /// Collapses the mask to one bit per lane (bit `i` = lane `i`).
    fn mask_to_bits(m: Self::M) -> u64;
    /// Builds a mask from one bit per lane.
    fn mask_from_bits(t: Self::Token, bits: u64) -> Self::M;
    /// `true` if any lane is set (test support).
    #[inline(always)]
    fn mask_any(m: Self::M) -> bool {
        Self::mask_to_bits(m) != 0
    }

    // ---- masked / select operations ------------------------------------

    /// Per-lane select: lane = if `m` { `b` } else { `a` }
    /// (`vpblendmq` / `_mm512_mask_blend_epi64(m, a, b)` semantics).
    fn blend(m: Self::M, a: Self::V, b: Self::V) -> Self::V;
    /// Masked add: lane = if `m` { `a + b` } else { `src` }
    /// (`vpaddq {k}` / `_mm512_mask_add_epi64`).
    fn mask_add(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V;
    /// Masked sub: lane = if `m` { `a − b` } else { `src` }
    /// (`vpsubq {k}` / `_mm512_mask_sub_epi64`).
    fn mask_sub(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V;

    // ---- permutations (NTT data movement, §3.2) -------------------------
    //
    // Two inverse pairs, one per constant-geometry dataflow: the
    // decimation-in-frequency stage *stores* its butterfly legs as the
    // element-wise interleave `[u0, v0, u1, v1, …]`; the transposed
    // decimation-in-time stage *loads* its legs from that same layout
    // with the deinterleave. Either way a vector of `L` butterflies
    // costs four permutes (two per hi/lo plane), only their side of the
    // memory access differs.

    /// Element-wise interleave, low half: `[a0, b0, a1, b1, …]` for the
    /// first `LANES/2` pairs. On AVX-512 this is one `vpermt2q`
    /// (`_mm512_permutex2var_epi64`); on AVX2, `vpermq` + `vpunpcklqdq`.
    fn interleave_lo(a: Self::V, b: Self::V) -> Self::V;
    /// Element-wise interleave, high half: `[a_{L/2}, b_{L/2}, …]`.
    fn interleave_hi(a: Self::V, b: Self::V) -> Self::V;
    /// The even elements of the `2·LANES`-element concatenation `a ‖ b`:
    /// `[a0, a2, …, b0, b2, …]`. With [`deinterleave_odd`] the exact
    /// inverse of the interleave pair: for `lo = interleave_lo(u, v)` and
    /// `hi = interleave_hi(u, v)`, `deinterleave_even(lo, hi) = u`. The
    /// transposed (decimation-in-time) constant-geometry stage loads its
    /// butterfly pairs with it. On AVX-512 this is one `vpermt2q`; on
    /// AVX2, `vpunpcklqdq` + `vpermq`.
    ///
    /// [`deinterleave_odd`]: Self::deinterleave_odd
    fn deinterleave_even(a: Self::V, b: Self::V) -> Self::V;
    /// The odd elements of `a ‖ b`: `[a1, a3, …, b1, b3, …]`, so that
    /// `deinterleave_odd(interleave_lo(u, v), interleave_hi(u, v)) = v`.
    fn deinterleave_odd(a: Self::V, b: Self::V) -> Self::V;

    // ---- derived multi-word operations (the MQX seam, §4) ---------------

    /// Full 64×64→128 widening multiply per lane, returning `(hi, lo)`.
    ///
    /// Default: the 32-bit decomposition baseline AVX-512 must use — four
    /// `vpmuludq` partial products recombined with shifts and adds
    /// (bit-exact with [`mqx_core::word::mul_wide_via_u32`]). MQX profiles
    /// with `WIDENING_MUL` override this with the proposed
    /// `_mm512_mul_epi64` (Table 2), or with a mul-lo/mul-hi pair when
    /// `MULHI_ONLY` (§5.5).
    #[inline(always)]
    fn mul_wide(a: Self::V, b: Self::V) -> (Self::V, Self::V) {
        let mask32 = Self::splat(Self::witness(a), 0xFFFF_FFFF);
        let a_hi = Self::shr(a, 32);
        let b_hi = Self::shr(b, 32);
        let ll = Self::mul32_wide(a, b);
        let lh = Self::mul32_wide(a, b_hi);
        let hl = Self::mul32_wide(a_hi, b);
        let hh = Self::mul32_wide(a_hi, b_hi);

        let mid = Self::add(
            Self::add(Self::shr(ll, 32), Self::and(lh, mask32)),
            Self::and(hl, mask32),
        );
        let lo = Self::or(Self::and(ll, mask32), Self::shl(mid, 32));
        let hi = Self::add(
            Self::add(hh, Self::shr(lh, 32)),
            Self::add(Self::shr(hl, 32), Self::shr(mid, 32)),
        );
        (hi, lo)
    }

    /// Per-lane add-with-carry: returns the sum and the carry-out mask.
    ///
    /// Default: the Table 1 AVX-512 shape — add, masked increment, two
    /// unsigned compares, mask or (five instructions). The compares are
    /// `(t0 < a) ∨ (t1 < t0)` rather than the paper's `(t1 < a) ∨
    /// (t1 < b)`: identical instruction count, ports and dependency
    /// structure, but exact on *all* inputs instead of only the
    /// cryptographic domain (see [`mqx_core::word::adc_cmp`] for the
    /// boundary case). MQX profiles with `CARRY` override this with the
    /// proposed one-instruction `_mm512_adc_epi64`.
    #[inline(always)]
    fn adc(a: Self::V, b: Self::V, carry_in: Self::M) -> (Self::V, Self::M) {
        let one = Self::splat(Self::witness(a), 1);
        let t0 = Self::add(a, b);
        let t1 = Self::mask_add(t0, carry_in, t0, one);
        let q0 = Self::cmp_lt(t0, a);
        let q1 = Self::cmp_lt(t1, t0);
        (t1, Self::mask_or(q0, q1))
    }

    /// Add-with-carry with a known-zero carry-in — the common first link
    /// of a carry chain. Two instructions in the baseline (`vpaddq` +
    /// `vpcmpuq`); MQX profiles with `CARRY` override it with
    /// `_mm512_adc_epi64` fed the zero mask, exactly as Listing 3 passes
    /// `z_mask`.
    #[inline(always)]
    fn adc0(a: Self::V, b: Self::V) -> (Self::V, Self::M) {
        let t0 = Self::add(a, b);
        (t0, Self::cmp_lt(t0, a))
    }

    /// Per-lane subtract-with-borrow: returns the difference and the
    /// borrow-out mask.
    ///
    /// Default: subtract, masked decrement, compare-based borrow recovery
    /// (`borrow = (a < b) ∨ (borrow_in ∧ a = b)`, exact for all inputs).
    /// MQX profiles with `CARRY` override this with the proposed
    /// `_mm512_sbb_epi64`.
    #[inline(always)]
    fn sbb(a: Self::V, b: Self::V, borrow_in: Self::M) -> (Self::V, Self::M) {
        let one = Self::splat(Self::witness(a), 1);
        let t0 = Self::sub(a, b);
        let t1 = Self::mask_sub(t0, borrow_in, t0, one);
        let q0 = Self::cmp_lt(a, b);
        let q1 = Self::mask_and(borrow_in, Self::cmp_eq(a, b));
        (t1, Self::mask_or(q0, q1))
    }

    /// Subtract-with-borrow with a known-zero borrow-in. Two instructions
    /// in the baseline (`vpsubq` + `vpcmpuq`); MQX profiles with `CARRY`
    /// override it with `_mm512_sbb_epi64` fed the zero mask.
    #[inline(always)]
    fn sbb0(a: Self::V, b: Self::V) -> (Self::V, Self::M) {
        (Self::sub(a, b), Self::cmp_lt(a, b))
    }

    /// Predicated add-with-carry (§5.5 "+P"): lanes where `pred` is set
    /// get `a + b + carry_in`, others pass `a` through; no carry-out.
    ///
    /// Default: [`adc`](Self::adc) followed by a blend. MQX profiles with
    /// `PREDICATED` override this with the proposed single instruction.
    #[inline(always)]
    fn padc(a: Self::V, b: Self::V, carry_in: Self::M, pred: Self::M) -> Self::V {
        let (sum, _) = Self::adc(a, b, carry_in);
        Self::blend(pred, a, sum)
    }

    /// Predicated subtract-with-borrow (§5.5 "+P"): lanes where `pred` is
    /// set get `a − b − borrow_in`, others pass `a` through; no
    /// borrow-out.
    #[inline(always)]
    fn psbb(a: Self::V, b: Self::V, borrow_in: Self::M, pred: Self::M) -> Self::V {
        let (diff, _) = Self::sbb(a, b, borrow_in);
        Self::blend(pred, a, diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Portable;
    use mqx_core::word;

    type P = Portable;

    fn v(xs: [u64; 8]) -> <P as SimdEngine>::V {
        P::load(P::token(), &xs)
    }

    fn lanes(v: <P as SimdEngine>::V) -> [u64; 8] {
        let mut out = [0_u64; 8];
        P::store(v, &mut out);
        out
    }

    #[test]
    fn default_mul_wide_matches_scalar_reference() {
        let a = v([
            0,
            1,
            u64::MAX,
            0xDEAD_BEEF_CAFE_BABE,
            1 << 63,
            3,
            0xFFFF_FFFF,
            42,
        ]);
        let b = v([
            7,
            u64::MAX,
            u64::MAX,
            0x0123_4567_89AB_CDEF,
            2,
            3,
            0x1_0000_0001_u64,
            0,
        ]);
        let (hi, lo) = P::mul_wide(a, b);
        for i in 0..8 {
            let (eh, el) = word::mul_wide(P::extract(a, i), P::extract(b, i));
            assert_eq!(P::extract(hi, i), eh, "hi lane {i}");
            assert_eq!(P::extract(lo, i), el, "lo lane {i}");
        }
    }

    #[test]
    fn default_adc_exact_on_all_inputs() {
        // Includes the both-MAX-with-carry boundary that the paper's
        // printed compare form cannot recover (word::adc_cmp docs).
        let a = v([0, 1, u64::MAX, 77, 0, (1 << 59), u64::MAX, 1]);
        let b = v([0, u64::MAX, u64::MAX, 3, 1, 1 << 59, u64::MAX - 1, 0]);
        for bits in [0_u64, 0b1010_1010, 0xFF] {
            let ci = P::mask_from_bits(P::token(), bits);
            let (sum, co) = P::adc(a, b, ci);
            for i in 0..8 {
                let (es, ec) = word::adc(P::extract(a, i), P::extract(b, i), (bits >> i) & 1 == 1);
                assert_eq!(P::extract(sum, i), es, "sum lane {i}");
                assert_eq!((P::mask_to_bits(co) >> i) & 1 == 1, ec, "carry lane {i}");
            }
        }
    }

    #[test]
    fn adc0_sbb0_match_full_forms_with_zero_flag() {
        let a = v([0, 1, u64::MAX, 77, 5, 1 << 59, u64::MAX, 9]);
        let b = v([0, u64::MAX, u64::MAX, 3, 7, 1 << 59, 1, 9]);
        let z = P::mask_zero(P::token());
        let (s_full, c_full) = P::adc(a, b, z);
        let (s0, c0) = P::adc0(a, b);
        assert_eq!(lanes(s_full), lanes(s0));
        assert_eq!(P::mask_to_bits(c_full), P::mask_to_bits(c0));
        let (d_full, b_full) = P::sbb(a, b, z);
        let (d0, b0) = P::sbb0(a, b);
        assert_eq!(lanes(d_full), lanes(d0));
        assert_eq!(P::mask_to_bits(b_full), P::mask_to_bits(b0));
    }

    #[test]
    fn default_sbb_exact_on_all_inputs() {
        let a = v([0, 5, u64::MAX, 0, 1, 100, 0xDEAD, u64::MAX]);
        let b = v([0, 7, u64::MAX, 1, 0, 100, 0xBEEF, 0]);
        for bits in [0_u64, 0b0101_0101, 0xFF] {
            let bi = P::mask_from_bits(P::token(), bits);
            let (diff, bo) = P::sbb(a, b, bi);
            for i in 0..8 {
                let (ed, eb) = word::sbb(P::extract(a, i), P::extract(b, i), (bits >> i) & 1 == 1);
                assert_eq!(P::extract(diff, i), ed, "diff lane {i}");
                assert_eq!((P::mask_to_bits(bo) >> i) & 1 == 1, eb, "borrow lane {i}");
            }
        }
    }

    #[test]
    fn padc_psbb_defaults_predicate_correctly() {
        let a = v([10; 8]);
        let b = v([5; 8]);
        let pred = P::mask_from_bits(P::token(), 0b1111_0000);
        let got = P::padc(a, b, P::mask_zero(P::token()), pred);
        assert_eq!(lanes(got), [10, 10, 10, 10, 15, 15, 15, 15]);
        let got = P::psbb(a, b, P::mask_zero(P::token()), pred);
        assert_eq!(lanes(got), [10, 10, 10, 10, 5, 5, 5, 5]);
    }

    /// `deinterleave_{even,odd}` undo `interleave_{lo,hi}` exactly, on
    /// `E`'s own lane count.
    fn deinterleave_inverts_interleave<E: SimdEngine>() {
        let t = E::token();
        let (xs, ys): (Vec<u64>, Vec<u64>) = (0..E::LANES as u64)
            .map(|i| (i * 0x9E37_79B9 + 1, u64::MAX - i * 3))
            .unzip();
        let (a, b) = (E::load(t, &xs), E::load(t, &ys));
        let (lo, hi) = (E::interleave_lo(a, b), E::interleave_hi(a, b));
        let lanes = |v: E::V| (0..E::LANES).map(|i| E::extract(v, i)).collect::<Vec<_>>();
        assert_eq!(lanes(E::deinterleave_even(lo, hi)), xs, "{} even", E::NAME);
        assert_eq!(lanes(E::deinterleave_odd(lo, hi)), ys, "{} odd", E::NAME);
    }

    #[test]
    fn deinterleave_is_the_inverse_of_interleave_on_every_engine() {
        deinterleave_inverts_interleave::<P>();
        deinterleave_inverts_interleave::<crate::Mqx<P, crate::profiles::McpFunctional>>();
        #[cfg(target_arch = "x86_64")]
        {
            if crate::avx2_detected() {
                deinterleave_inverts_interleave::<crate::Avx2>();
            }
            if crate::avx512_detected() {
                deinterleave_inverts_interleave::<crate::Avx512>();
            }
        }
    }

    #[test]
    fn cmp_gt_is_flipped_lt() {
        let a = v([3, 5, 5, u64::MAX, 0, 9, 2, 8]);
        let b = v([5, 3, 5, 0, u64::MAX, 9, 2, 7]);
        assert_eq!(
            P::mask_to_bits(P::cmp_gt(a, b)),
            P::mask_to_bits(P::cmp_lt(b, a))
        );
    }
}
