//! The AVX-512 engine: eight 64-bit lanes in `__m512i` vectors with real
//! `__mmask8` mask registers — the paper's best natively-available tier
//! (§3.2).
//!
//! Compiled into every x86-64 build so that the `mqx` facade can select
//! it at **runtime** (the backend registry offers it only when
//! [`crate::avx512_detected`]). The CPU is checked where a [`Token`] is
//! minted — once per [`SimdEngine::vectorize`] kernel call, or by
//! [`SimdEngine::token`] — and nowhere else: `splat` / `load` and the
//! mask constructors take the token, so an `__m512i` exists only on a
//! host that passed the check, and the arithmetic shims below rely on
//! that.
//!
//! No build flag is needed for speed: the shims below are all
//! `#[inline(always)]`, and a kernel that runs its vector loop inside
//! [`SimdEngine::vectorize`] has them inlined into the one function this
//! file compiles with `avx512f,avx512dq` — each shim is then the single
//! instruction it names. Outside a frame the shims still compute the
//! same values, one out-of-line intrinsic call each.

#![allow(unsafe_code)]

use crate::engine::{Sealed, SimdEngine, Token};
use std::arch::x86_64::*;

/// The AVX-512 engine. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Avx512;

impl Sealed for Avx512 {
    #[inline(always)]
    fn witness(_: __m512i) -> Token<Avx512> {
        // SAFETY: an `__m512i` reaches safe code only through `splat` /
        // `load`, which take a token, and a token is minted only after
        // `require_avx512` passed.
        unsafe { Token::new() }
    }

    #[inline(always)]
    fn enter<R>(t: Token<Avx512>, f: impl FnOnce(Token<Avx512>) -> R) -> R {
        /// The frame: the only function in the workspace compiled with
        /// the AVX-512 features, one instance per kernel closure.
        #[target_feature(enable = "avx512f,avx512dq")]
        fn frame<R>(t: Token<Avx512>, f: impl FnOnce(Token<Avx512>) -> R) -> R {
            f(t)
        }
        // SAFETY: `t` proves this CPU has avx512f and avx512dq, the only
        // features `frame` enables.
        unsafe { frame(t, f) }
    }
}

/// The engine's one CPU check, run where a [`Token`] is minted
/// ([`SimdEngine::token`], and so once per [`SimdEngine::vectorize`]):
/// execution on an unsupported host becomes a deterministic panic
/// instead of an illegal-instruction fault from safe code. The check
/// constant-folds to nothing when the build already enables the
/// features (`is_x86_feature_detected!` short-circuits at compile
/// time), and costs one cached atomic load and a predictable branch
/// otherwise — per kernel call, not per vector.
#[inline(always)]
fn require_avx512() {
    assert!(
        crate::avx512_detected(),
        "mqx_simd::Avx512 executed on a CPU without avx512f+avx512dq; \
         select engines through the runtime backend registry"
    );
}

impl SimdEngine for Avx512 {
    const LANES: usize = 8;
    const NAME: &'static str = "avx512";

    type V = __m512i;
    type M = __mmask8;
    type Token = Token<Avx512>;

    #[inline(always)]
    fn token() -> Token<Avx512> {
        require_avx512();
        // SAFETY: `require_avx512` above proved avx512f and avx512dq.
        unsafe { Token::new() }
    }

    #[inline(always)]
    fn splat(_: Token<Avx512>, x: u64) -> Self::V {
        // SAFETY: the token proves the features; set1 touches no memory.
        unsafe { _mm512_set1_epi64(x as i64) }
    }

    #[inline(always)]
    fn load(_: Token<Avx512>, src: &[u64]) -> Self::V {
        assert!(src.len() >= 8, "avx512 load needs 8 lanes");
        // SAFETY: the token proves the features; the length assert
        // guarantees 64 readable bytes and `loadu` has no alignment
        // requirement.
        unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(v: Self::V, dst: &mut [u64]) {
        assert!(dst.len() >= 8, "avx512 store needs 8 lanes");
        // SAFETY: `v` exists only on a host whose token was minted (its
        // constructors take one); the length assert guarantees 64
        // writable bytes; `storeu` is unaligned.
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
    }

    #[inline(always)]
    fn extract(v: Self::V, lane: usize) -> u64 {
        assert!(lane < 8);
        let mut buf = [0_u64; 8];
        Self::store(v, &mut buf);
        buf[lane]
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_add_epi64(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_sub_epi64(a, b) }
    }

    #[inline(always)]
    fn mullo(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_mullo_epi64(a, b) }
    }

    #[inline(always)]
    fn mul32_wide(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_mul_epu32(a, b) }
    }

    #[inline(always)]
    fn mullo32(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_mullo_epi32(a, b) }
    }

    #[inline(always)]
    fn shl(a: Self::V, n: u32) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_sll_epi64(a, _mm_cvtsi32_si128(n as i32)) }
    }

    #[inline(always)]
    fn shr(a: Self::V, n: u32) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_srl_epi64(a, _mm_cvtsi32_si128(n as i32)) }
    }

    #[inline(always)]
    fn and(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_and_si512(a, b) }
    }

    #[inline(always)]
    fn or(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_or_si512(a, b) }
    }

    #[inline(always)]
    fn xor(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_xor_si512(a, b) }
    }

    #[inline(always)]
    fn cmp_lt(a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_cmplt_epu64_mask(a, b) }
    }

    #[inline(always)]
    fn cmp_le(a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_cmple_epu64_mask(a, b) }
    }

    #[inline(always)]
    fn cmp_eq(a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_cmpeq_epi64_mask(a, b) }
    }

    #[inline(always)]
    fn mask_zero(_: Token<Avx512>) -> Self::M {
        0
    }

    #[inline(always)]
    fn mask_and(a: Self::M, b: Self::M) -> Self::M {
        a & b
    }

    #[inline(always)]
    fn mask_or(a: Self::M, b: Self::M) -> Self::M {
        a | b
    }

    #[inline(always)]
    fn mask_not(a: Self::M) -> Self::M {
        !a
    }

    #[inline(always)]
    fn mask_to_bits(m: Self::M) -> u64 {
        u64::from(m)
    }

    #[inline(always)]
    fn mask_from_bits(_: Token<Avx512>, bits: u64) -> Self::M {
        bits as u8
    }

    #[inline(always)]
    fn blend(m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_mask_blend_epi64(m, a, b) }
    }

    #[inline(always)]
    fn mask_add(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_mask_add_epi64(src, m, a, b) }
    }

    #[inline(always)]
    fn mask_sub(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe { _mm512_mask_sub_epi64(src, m, a, b) }
    }

    #[inline(always)]
    fn interleave_lo(a: Self::V, b: Self::V) -> Self::V {
        // One vpermt2q: indices 0..3 of a interleaved with 8..11 of b.
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe {
            let idx = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
            _mm512_permutex2var_epi64(a, idx, b)
        }
    }

    #[inline(always)]
    fn interleave_hi(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe {
            let idx = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
            _mm512_permutex2var_epi64(a, idx, b)
        }
    }

    #[inline(always)]
    fn deinterleave_even(a: Self::V, b: Self::V) -> Self::V {
        // One vpermt2q: the even indices of the 16-element a ‖ b.
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe {
            let idx = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            _mm512_permutex2var_epi64(a, idx, b)
        }
    }

    #[inline(always)]
    fn deinterleave_odd(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX-512 op with no memory access; `__m512i`
        // inputs exist only via `splat`/`load`, which take a token.
        unsafe {
            let idx = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
            _mm512_permutex2var_epi64(a, idx, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Portable;

    /// Every engine op must agree lane-wise with the portable engine.
    /// This is the ground-truth test that lets the rest of the workspace
    /// trust `Avx512` blindly.
    #[test]
    fn avx512_matches_portable_on_stress_lanes() {
        if !crate::avx512_detected() {
            return; // host cannot execute this engine
        }
        let (t, p) = (Avx512::token(), Portable::token());
        let xs = [
            0_u64,
            1,
            u64::MAX,
            u64::MAX - 1,
            0xDEAD_BEEF_CAFE_BABE,
            1 << 63,
            0xFFFF_FFFF,
            0x1_0000_0000,
        ];
        let ys = [
            u64::MAX,
            0,
            u64::MAX,
            1,
            0x0123_4567_89AB_CDEF,
            1 << 63,
            0x8000_0001,
            0xFFFF_FFFF,
        ];
        let (av, bv) = (Avx512::load(t, &xs), Avx512::load(t, &ys));
        let (ap, bp) = (Portable::load(p, &xs), Portable::load(p, &ys));

        let check = |got: __m512i, want: [u64; 8], what: &str| {
            let mut buf = [0_u64; 8];
            Avx512::store(got, &mut buf);
            assert_eq!(buf, want, "{what}");
        };

        check(Avx512::add(av, bv), Portable::add(ap, bp), "add");
        check(Avx512::sub(av, bv), Portable::sub(ap, bp), "sub");
        check(Avx512::mullo(av, bv), Portable::mullo(ap, bp), "mullo");
        check(
            Avx512::mul32_wide(av, bv),
            Portable::mul32_wide(ap, bp),
            "mul32_wide",
        );
        check(
            Avx512::mullo32(av, bv),
            Portable::mullo32(ap, bp),
            "mullo32",
        );
        check(Avx512::and(av, bv), Portable::and(ap, bp), "and");
        check(Avx512::or(av, bv), Portable::or(ap, bp), "or");
        check(Avx512::xor(av, bv), Portable::xor(ap, bp), "xor");
        for n in [0_u32, 1, 31, 32, 63] {
            check(Avx512::shl(av, n), Portable::shl(ap, n), "shl");
            check(Avx512::shr(av, n), Portable::shr(ap, n), "shr");
        }
        assert_eq!(
            Avx512::mask_to_bits(Avx512::cmp_lt(av, bv)),
            Portable::mask_to_bits(Portable::cmp_lt(ap, bp)),
            "cmp_lt"
        );
        assert_eq!(
            Avx512::mask_to_bits(Avx512::cmp_le(av, bv)),
            Portable::mask_to_bits(Portable::cmp_le(ap, bp)),
            "cmp_le"
        );
        assert_eq!(
            Avx512::mask_to_bits(Avx512::cmp_eq(av, bv)),
            Portable::mask_to_bits(Portable::cmp_eq(ap, bp)),
            "cmp_eq"
        );
        check(
            Avx512::interleave_lo(av, bv),
            Portable::interleave_lo(ap, bp),
            "interleave_lo",
        );
        check(
            Avx512::interleave_hi(av, bv),
            Portable::interleave_hi(ap, bp),
            "interleave_hi",
        );
        check(
            Avx512::deinterleave_even(av, bv),
            Portable::deinterleave_even(ap, bp),
            "deinterleave_even",
        );
        check(
            Avx512::deinterleave_odd(av, bv),
            Portable::deinterleave_odd(ap, bp),
            "deinterleave_odd",
        );

        for bits in [0_u64, 0b0101_1010, 0xFF] {
            let m5 = Avx512::mask_from_bits(t, bits);
            let mp = Portable::mask_from_bits(p, bits);
            check(
                Avx512::blend(m5, av, bv),
                Portable::blend(mp, ap, bp),
                "blend",
            );
            check(
                Avx512::mask_add(av, m5, av, bv),
                Portable::mask_add(ap, mp, ap, bp),
                "mask_add",
            );
            check(
                Avx512::mask_sub(av, m5, av, bv),
                Portable::mask_sub(ap, mp, ap, bp),
                "mask_sub",
            );
        }
    }

    #[test]
    fn derived_ops_match_portable() {
        if !crate::avx512_detected() {
            return; // host cannot execute this engine
        }
        let (t, p) = (Avx512::token(), Portable::token());
        let xs = [0_u64, 1, u64::MAX, 7, 1 << 40, u64::MAX - 1, 3, 99];
        let ys = [5_u64, u64::MAX, u64::MAX, 7, 1 << 41, 1, 4, 98];
        let (av, bv) = (Avx512::load(t, &xs), Avx512::load(t, &ys));
        let (ap, bp) = (Portable::load(p, &xs), Portable::load(p, &ys));

        let (hi5, lo5) = Avx512::mul_wide(av, bv);
        let (hip, lop) = Portable::mul_wide(ap, bp);
        let mut buf = [0_u64; 8];
        Avx512::store(hi5, &mut buf);
        assert_eq!(buf, hip, "mul_wide hi");
        Avx512::store(lo5, &mut buf);
        assert_eq!(buf, lop, "mul_wide lo");

        for bits in [0_u64, 0b1100_0011] {
            let (s5, c5) = Avx512::adc(av, bv, Avx512::mask_from_bits(t, bits));
            let (sp, cp) = Portable::adc(ap, bp, Portable::mask_from_bits(p, bits));
            Avx512::store(s5, &mut buf);
            assert_eq!(buf, sp, "adc sum");
            assert_eq!(
                Avx512::mask_to_bits(c5),
                Portable::mask_to_bits(cp),
                "adc carry"
            );

            let (d5, b5) = Avx512::sbb(av, bv, Avx512::mask_from_bits(t, bits));
            let (dp, bbp) = Portable::sbb(ap, bp, Portable::mask_from_bits(p, bits));
            Avx512::store(d5, &mut buf);
            assert_eq!(buf, dp, "sbb diff");
            assert_eq!(
                Avx512::mask_to_bits(b5),
                Portable::mask_to_bits(bbp),
                "sbb borrow"
            );
        }
    }
}
