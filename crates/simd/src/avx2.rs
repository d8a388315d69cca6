//! The AVX2 engine: four 64-bit lanes in `__m256i` vectors.
//!
//! AVX2 has no mask registers and no unsigned 64-bit compares, so masks
//! are lane-wide 0/−1 vectors, unsigned order comes from sign-bit-flipped
//! signed compares, and 64-bit `mullo` must itself be emulated from
//! `vpmuludq` partials — the "more instructions and additional handling"
//! the paper describes for this tier (§3.2).
//!
//! As for the AVX-512 engine, the CPU is checked only where a [`Token`]
//! is minted (once per [`SimdEngine::vectorize`] kernel call, or by
//! [`SimdEngine::token`]): `splat` / `load` and the mask constructors
//! take the token — a mask is an `__m256i` here too — so the shims below
//! run unchecked on vectors that prove the check ran. No build flag is
//! needed for speed: the shims are `#[inline(always)]` and become single
//! instructions inside the `avx2` frame that `vectorize` opens.

#![allow(unsafe_code)]

use crate::engine::{Sealed, SimdEngine, Token};
use std::arch::x86_64::*;

/// The AVX2 engine. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Avx2;

impl Sealed for Avx2 {
    #[inline(always)]
    fn witness(_: __m256i) -> Token<Avx2> {
        // SAFETY: an `__m256i` reaches safe code only through `splat` /
        // `load` / the mask constructors, which take a token, and a token
        // is minted only after `require_avx2` passed.
        unsafe { Token::new() }
    }

    #[inline(always)]
    fn enter<R>(t: Token<Avx2>, f: impl FnOnce(Token<Avx2>) -> R) -> R {
        /// The frame: the only function in the workspace compiled with
        /// the AVX2 feature, one instance per kernel closure.
        #[target_feature(enable = "avx2")]
        fn frame<R>(t: Token<Avx2>, f: impl FnOnce(Token<Avx2>) -> R) -> R {
            f(t)
        }
        // SAFETY: `t` proves this CPU has avx2, the only feature `frame`
        // enables.
        unsafe { frame(t, f) }
    }
}

/// The engine's one CPU check, run where a [`Token`] is minted (see the
/// identical guard in the AVX-512 engine): execution on a host without
/// AVX2 fails fast in safe code instead of faulting. Free when the build
/// enables the feature statically; once per kernel call otherwise.
#[inline(always)]
fn require_avx2() {
    assert!(
        crate::avx2_detected(),
        "mqx_simd::Avx2 executed on a CPU without avx2; \
         select engines through the runtime backend registry"
    );
}

#[inline(always)]
fn sign_flip(a: __m256i) -> __m256i {
    // SAFETY: xor/set1 are lane-wise AVX2 ops with no memory access;
    // `a` exists only via the token-taking constructors below.
    unsafe { _mm256_xor_si256(a, _mm256_set1_epi64x(i64::MIN)) }
}

impl SimdEngine for Avx2 {
    const LANES: usize = 4;
    const NAME: &'static str = "avx2";

    type V = __m256i;
    /// Lane-wide boolean vector: each 64-bit lane is all-ones or all-zeros.
    type M = __m256i;
    type Token = Token<Avx2>;

    #[inline(always)]
    fn token() -> Token<Avx2> {
        require_avx2();
        // SAFETY: `require_avx2` above proved avx2.
        unsafe { Token::new() }
    }

    #[inline(always)]
    fn splat(_: Token<Avx2>, x: u64) -> Self::V {
        // SAFETY: the token proves the feature; set1 touches no memory.
        unsafe { _mm256_set1_epi64x(x as i64) }
    }

    #[inline(always)]
    fn load(_: Token<Avx2>, src: &[u64]) -> Self::V {
        assert!(src.len() >= 4, "avx2 load needs 4 lanes");
        // SAFETY: the token proves the feature; the length assert
        // guarantees 32 readable bytes and `loadu` has no alignment
        // requirement.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(v: Self::V, dst: &mut [u64]) {
        assert!(dst.len() >= 4, "avx2 store needs 4 lanes");
        // SAFETY: `v` exists only on a host whose token was minted (its
        // constructors take one); the length assert guarantees 32
        // writable bytes; `storeu` is unaligned.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[inline(always)]
    fn extract(v: Self::V, lane: usize) -> u64 {
        assert!(lane < 4);
        let mut buf = [0_u64; 4];
        Self::store(v, &mut buf);
        buf[lane]
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_add_epi64(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_sub_epi64(a, b) }
    }

    #[inline(always)]
    fn mullo(a: Self::V, b: Self::V) -> Self::V {
        // No vpmullq below AVX-512DQ: assemble the low 64 bits from three
        // vpmuludq partials: lo = ll + ((lh + hl) << 32).
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe {
            let ll = _mm256_mul_epu32(a, b);
            let lh = _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b));
            let hl = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
            let mid = _mm256_add_epi64(lh, hl);
            _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(mid))
        }
    }

    #[inline(always)]
    fn mul32_wide(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_mul_epu32(a, b) }
    }

    #[inline(always)]
    fn mullo32(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_mullo_epi32(a, b) }
    }

    #[inline(always)]
    fn shl(a: Self::V, n: u32) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_sll_epi64(a, _mm_cvtsi32_si128(n as i32)) }
    }

    #[inline(always)]
    fn shr(a: Self::V, n: u32) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_srl_epi64(a, _mm_cvtsi32_si128(n as i32)) }
    }

    #[inline(always)]
    fn and(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_and_si256(a, b) }
    }

    #[inline(always)]
    fn or(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_or_si256(a, b) }
    }

    #[inline(always)]
    fn xor(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_xor_si256(a, b) }
    }

    #[inline(always)]
    fn cmp_lt(a: Self::V, b: Self::V) -> Self::M {
        // Unsigned a < b via signed compare on sign-flipped operands.
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_cmpgt_epi64(sign_flip(b), sign_flip(a)) }
    }

    #[inline(always)]
    fn cmp_le(a: Self::V, b: Self::V) -> Self::M {
        Self::mask_not(Self::cmp_lt(b, a))
    }

    #[inline(always)]
    fn cmp_eq(a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_cmpeq_epi64(a, b) }
    }

    #[inline(always)]
    fn mask_zero(_: Token<Avx2>) -> Self::M {
        // SAFETY: the token proves the feature; setzero touches no memory.
        unsafe { _mm256_setzero_si256() }
    }

    #[inline(always)]
    fn mask_and(a: Self::M, b: Self::M) -> Self::M {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_and_si256(a, b) }
    }

    #[inline(always)]
    fn mask_or(a: Self::M, b: Self::M) -> Self::M {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_or_si256(a, b) }
    }

    #[inline(always)]
    fn mask_not(a: Self::M) -> Self::M {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_xor_si256(a, _mm256_set1_epi64x(-1)) }
    }

    #[inline(always)]
    fn mask_to_bits(m: Self::M) -> u64 {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u64 }
    }

    #[inline(always)]
    fn mask_from_bits(_: Token<Avx2>, bits: u64) -> Self::M {
        let lane = |i: u64| -> i64 {
            if (bits >> i) & 1 == 1 {
                -1
            } else {
                0
            }
        };
        // SAFETY: the token proves the feature; setr touches no memory.
        unsafe { _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3)) }
    }

    #[inline(always)]
    fn blend(m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_blendv_epi8(a, b, m) }
    }

    #[inline(always)]
    fn mask_add(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        Self::blend(m, src, Self::add(a, b))
    }

    #[inline(always)]
    fn mask_sub(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        Self::blend(m, src, Self::sub(a, b))
    }

    #[inline(always)]
    fn interleave_lo(a: Self::V, b: Self::V) -> Self::V {
        // Pre-permute both operands so in-lane unpack produces the true
        // element-wise interleave: [a0, b0, a1, b1].
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe {
            let pa = _mm256_permute4x64_epi64::<0xD8>(a); // [a0, a2, a1, a3]
            let pb = _mm256_permute4x64_epi64::<0xD8>(b);
            _mm256_unpacklo_epi64(pa, pb)
        }
    }

    #[inline(always)]
    fn interleave_hi(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe {
            let pa = _mm256_permute4x64_epi64::<0xD8>(a);
            let pb = _mm256_permute4x64_epi64::<0xD8>(b);
            _mm256_unpackhi_epi64(pa, pb)
        }
    }

    #[inline(always)]
    fn deinterleave_even(a: Self::V, b: Self::V) -> Self::V {
        // In-lane unpack gives [a0, b0, a2, b2]; one cross-lane permute
        // puts it in order: [a0, a2, b0, b2].
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_permute4x64_epi64::<0xD8>(_mm256_unpacklo_epi64(a, b)) }
    }

    #[inline(always)]
    fn deinterleave_odd(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: lane-wise AVX2 op with no memory access; `__m256i` inputs
        // exist only via `splat`/`load`/mask constructors, which take a token.
        unsafe { _mm256_permute4x64_epi64::<0xD8>(_mm256_unpackhi_epi64(a, b)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Portable;

    /// AVX2 runs 4 lanes; compare against lanes 0..4 of the portable
    /// engine on the same inputs.
    #[test]
    fn avx2_matches_portable_on_stress_lanes() {
        if !crate::avx2_detected() {
            return; // host cannot execute this engine
        }
        let (t, p) = (Avx2::token(), Portable::token());
        let xs8 = [0_u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_BABE, 0, 0, 0, 0];
        let ys8 = [u64::MAX, 0, u64::MAX, 0x0123_4567_89AB_CDEF, 0, 0, 0, 0];
        let (a2, b2) = (Avx2::load(t, &xs8), Avx2::load(t, &ys8));
        let (ap, bp) = (Portable::load(p, &xs8), Portable::load(p, &ys8));

        let check = |got: __m256i, want: [u64; 8], what: &str| {
            let mut buf = [0_u64; 4];
            Avx2::store(got, &mut buf);
            assert_eq!(buf, want[..4], "{what}");
        };

        check(Avx2::add(a2, b2), Portable::add(ap, bp), "add");
        check(Avx2::sub(a2, b2), Portable::sub(ap, bp), "sub");
        check(Avx2::mullo(a2, b2), Portable::mullo(ap, bp), "mullo");
        check(
            Avx2::mul32_wide(a2, b2),
            Portable::mul32_wide(ap, bp),
            "mul32",
        );
        check(Avx2::mullo32(a2, b2), Portable::mullo32(ap, bp), "mullo32");
        for n in [0_u32, 5, 32, 63] {
            check(Avx2::shl(a2, n), Portable::shl(ap, n), "shl");
            check(Avx2::shr(a2, n), Portable::shr(ap, n), "shr");
        }
        assert_eq!(
            Avx2::mask_to_bits(Avx2::cmp_lt(a2, b2)),
            Portable::mask_to_bits(Portable::cmp_lt(ap, bp)) & 0xF,
            "cmp_lt"
        );
        assert_eq!(
            Avx2::mask_to_bits(Avx2::cmp_le(a2, b2)),
            Portable::mask_to_bits(Portable::cmp_le(ap, bp)) & 0xF,
            "cmp_le"
        );
        assert_eq!(
            Avx2::mask_to_bits(Avx2::cmp_eq(a2, b2)),
            Portable::mask_to_bits(Portable::cmp_eq(ap, bp)) & 0xF,
            "cmp_eq"
        );
    }

    #[test]
    fn masks_roundtrip_and_blend() {
        if !crate::avx2_detected() {
            return; // host cannot execute this engine
        }
        let t = Avx2::token();
        for bits in [0_u64, 0b0101, 0b1111, 0b1010] {
            assert_eq!(Avx2::mask_to_bits(Avx2::mask_from_bits(t, bits)), bits);
        }
        let a = Avx2::splat(t, 1);
        let b = Avx2::splat(t, 2);
        let m = Avx2::mask_from_bits(t, 0b0011);
        let mut buf = [0_u64; 4];
        Avx2::store(Avx2::blend(m, a, b), &mut buf);
        assert_eq!(buf, [2, 2, 1, 1]);
        Avx2::store(Avx2::mask_add(a, m, a, b), &mut buf);
        assert_eq!(buf, [3, 3, 1, 1]);
    }

    #[test]
    fn interleave_is_elementwise() {
        if !crate::avx2_detected() {
            return; // host cannot execute this engine
        }
        let t = Avx2::token();
        let a = Avx2::load(t, &[0, 1, 2, 3]);
        let b = Avx2::load(t, &[10, 11, 12, 13]);
        let mut buf = [0_u64; 4];
        Avx2::store(Avx2::interleave_lo(a, b), &mut buf);
        assert_eq!(buf, [0, 10, 1, 11]);
        Avx2::store(Avx2::interleave_hi(a, b), &mut buf);
        assert_eq!(buf, [2, 12, 3, 13]);
        Avx2::store(Avx2::deinterleave_even(a, b), &mut buf);
        assert_eq!(buf, [0, 2, 10, 12]);
        Avx2::store(Avx2::deinterleave_odd(a, b), &mut buf);
        assert_eq!(buf, [1, 3, 11, 13]);
    }

    #[test]
    fn derived_mul_wide_matches_portable() {
        if !crate::avx2_detected() {
            return; // host cannot execute this engine
        }
        let t = Avx2::token();
        let xs = [u64::MAX, 0xDEAD_BEEF_CAFE_BABE, 1, 0x8000_0000_0000_0001];
        let ys = [u64::MAX, 0x0123_4567_89AB_CDEF, u64::MAX, 2];
        let (hi, lo) = Avx2::mul_wide(Avx2::load(t, &xs), Avx2::load(t, &ys));
        let mut hbuf = [0_u64; 4];
        let mut lbuf = [0_u64; 4];
        Avx2::store(hi, &mut hbuf);
        Avx2::store(lo, &mut lbuf);
        for i in 0..4 {
            let (eh, el) = mqx_core::word::mul_wide(xs[i], ys[i]);
            assert_eq!(hbuf[i], eh, "hi {i}");
            assert_eq!(lbuf[i], el, "lo {i}");
        }
    }
}
