//! The always-available portable engine: eight `u64` lanes in plain
//! arrays. It executes the *same dataflows* as the AVX-512 engine
//! (including the emulated carry/widening sequences), so it serves as the
//! correctness anchor the SIMD and MQX engines are tested against, and as
//! the fallback tier on hosts without AVX-512.

use crate::engine::{Sealed, SimdEngine, Token};

/// The portable 8-lane engine. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

impl Sealed for Portable {
    #[inline]
    fn witness(_: [u64; 8]) -> Token<Portable> {
        Portable::token()
    }
}

impl SimdEngine for Portable {
    const LANES: usize = 8;
    const NAME: &'static str = "portable";

    type V = [u64; 8];
    type M = u8;
    type Token = Token<Portable>;

    /// Free: plain Rust runs on every CPU.
    #[inline]
    fn token() -> Token<Portable> {
        // SAFETY: the engine uses no target feature.
        unsafe { Token::new() }
    }

    #[inline]
    fn splat(_: Token<Portable>, x: u64) -> Self::V {
        [x; 8]
    }

    #[inline]
    fn load(_: Token<Portable>, src: &[u64]) -> Self::V {
        let mut out = [0_u64; 8];
        out.copy_from_slice(&src[..8]);
        out
    }

    #[inline]
    fn store(v: Self::V, dst: &mut [u64]) {
        dst[..8].copy_from_slice(&v);
    }

    #[inline]
    fn extract(v: Self::V, lane: usize) -> u64 {
        v[lane]
    }

    #[inline]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| a[i].wrapping_add(b[i]))
    }

    #[inline]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| a[i].wrapping_sub(b[i]))
    }

    #[inline]
    fn mullo(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| a[i].wrapping_mul(b[i]))
    }

    #[inline]
    fn mul32_wide(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| (a[i] & 0xFFFF_FFFF).wrapping_mul(b[i] & 0xFFFF_FFFF))
    }

    #[inline]
    fn mullo32(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| {
            let lo = (a[i] as u32).wrapping_mul(b[i] as u32) as u64;
            let hi = ((a[i] >> 32) as u32).wrapping_mul((b[i] >> 32) as u32) as u64;
            (hi << 32) | lo
        })
    }

    #[inline]
    fn shl(a: Self::V, n: u32) -> Self::V {
        std::array::from_fn(|i| a[i] << n)
    }

    #[inline]
    fn shr(a: Self::V, n: u32) -> Self::V {
        std::array::from_fn(|i| a[i] >> n)
    }

    #[inline]
    fn and(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| a[i] & b[i])
    }

    #[inline]
    fn or(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| a[i] | b[i])
    }

    #[inline]
    fn xor(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| a[i] ^ b[i])
    }

    #[inline]
    fn cmp_lt(a: Self::V, b: Self::V) -> Self::M {
        mask_from(|i| a[i] < b[i])
    }

    #[inline]
    fn cmp_le(a: Self::V, b: Self::V) -> Self::M {
        mask_from(|i| a[i] <= b[i])
    }

    #[inline]
    fn cmp_eq(a: Self::V, b: Self::V) -> Self::M {
        mask_from(|i| a[i] == b[i])
    }

    #[inline]
    fn mask_zero(_: Token<Portable>) -> Self::M {
        0
    }

    #[inline]
    fn mask_and(a: Self::M, b: Self::M) -> Self::M {
        a & b
    }

    #[inline]
    fn mask_or(a: Self::M, b: Self::M) -> Self::M {
        a | b
    }

    #[inline]
    fn mask_not(a: Self::M) -> Self::M {
        !a
    }

    #[inline]
    fn mask_to_bits(m: Self::M) -> u64 {
        u64::from(m)
    }

    #[inline]
    fn mask_from_bits(_: Token<Portable>, bits: u64) -> Self::M {
        bits as u8
    }

    #[inline]
    fn blend(m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| if (m >> i) & 1 == 1 { b[i] } else { a[i] })
    }

    #[inline]
    fn mask_add(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| {
            if (m >> i) & 1 == 1 {
                a[i].wrapping_add(b[i])
            } else {
                src[i]
            }
        })
    }

    #[inline]
    fn mask_sub(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|i| {
            if (m >> i) & 1 == 1 {
                a[i].wrapping_sub(b[i])
            } else {
                src[i]
            }
        })
    }

    #[inline]
    fn interleave_lo(a: Self::V, b: Self::V) -> Self::V {
        [a[0], b[0], a[1], b[1], a[2], b[2], a[3], b[3]]
    }

    #[inline]
    fn interleave_hi(a: Self::V, b: Self::V) -> Self::V {
        [a[4], b[4], a[5], b[5], a[6], b[6], a[7], b[7]]
    }

    #[inline]
    fn deinterleave_even(a: Self::V, b: Self::V) -> Self::V {
        [a[0], a[2], a[4], a[6], b[0], b[2], b[4], b[6]]
    }

    #[inline]
    fn deinterleave_odd(a: Self::V, b: Self::V) -> Self::V {
        [a[1], a[3], a[5], a[7], b[1], b[3], b[5], b[7]]
    }
}

#[inline]
fn mask_from(f: impl Fn(usize) -> bool) -> u8 {
    let mut m = 0_u8;
    for i in 0..8 {
        m |= u8::from(f(i)) << i;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    type P = Portable;

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<u64> = (0..10).collect();
        let v = P::load(P::token(), &src);
        let mut dst = [0_u64; 8];
        P::store(v, &mut dst);
        assert_eq!(dst, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(P::extract(v, 7), 7);
    }

    #[test]
    #[should_panic]
    fn short_load_panics() {
        let _ = P::load(P::token(), &[1, 2, 3]);
    }

    #[test]
    fn splat_fills_lanes() {
        assert_eq!(P::splat(P::token(), 9), [9; 8]);
    }

    #[test]
    fn arithmetic_wraps() {
        let a = P::splat(P::token(), u64::MAX);
        let b = P::splat(P::token(), 2);
        assert_eq!(P::add(a, b), [1; 8]);
        assert_eq!(P::sub([0; 8], b), [u64::MAX - 1; 8]);
        assert_eq!(P::mullo(a, b), [u64::MAX - 1; 8]);
    }

    #[test]
    fn mul32_wide_uses_low_halves_only() {
        let a = P::splat(P::token(), 0xAAAA_BBBB_0000_0002);
        let b = P::splat(P::token(), 0xCCCC_DDDD_0000_0003);
        assert_eq!(P::mul32_wide(a, b), [6; 8]);
        // Full 32-bit range: (2^32-1)^2.
        let m = P::splat(P::token(), 0xFFFF_FFFF);
        assert_eq!(P::mul32_wide(m, m), [0xFFFF_FFFE_0000_0001; 8]);
    }

    #[test]
    fn masks_roundtrip_bits() {
        for bits in [0_u64, 1, 0b1010_1010, 0xFF] {
            assert_eq!(P::mask_to_bits(P::mask_from_bits(P::token(), bits)), bits);
        }
        assert!(!P::mask_any(P::mask_zero(P::token())));
        assert!(P::mask_any(P::mask_from_bits(P::token(), 0b100)));
        assert_eq!(P::mask_to_bits(P::mask_not(P::mask_zero(P::token()))), 0xFF);
    }

    #[test]
    fn comparisons_set_expected_lanes() {
        let a = P::load(P::token(), &[0, 5, 5, u64::MAX, 1, 2, 3, 4]);
        let b = P::load(P::token(), &[1, 5, 4, 0, 1, 1, 4, 4]);
        assert_eq!(P::mask_to_bits(P::cmp_lt(a, b)), 0b0100_0001);
        assert_eq!(P::mask_to_bits(P::cmp_eq(a, b)), 0b1001_0010);
        assert_eq!(P::mask_to_bits(P::cmp_le(a, b)), 0b1101_0011);
    }

    #[test]
    fn blend_and_masked_ops() {
        let a = P::splat(P::token(), 1);
        let b = P::splat(P::token(), 2);
        let m = P::mask_from_bits(P::token(), 0b0000_1111);
        assert_eq!(P::blend(m, a, b), [2, 2, 2, 2, 1, 1, 1, 1]);
        assert_eq!(P::mask_add(a, m, a, b), [3, 3, 3, 3, 1, 1, 1, 1]);
        assert_eq!(P::mask_sub(b, m, b, a), [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn interleave_halves() {
        let a = P::load(P::token(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        let b = P::load(P::token(), &[10, 11, 12, 13, 14, 15, 16, 17]);
        assert_eq!(P::interleave_lo(a, b), [0, 10, 1, 11, 2, 12, 3, 13]);
        assert_eq!(P::interleave_hi(a, b), [4, 14, 5, 15, 6, 16, 7, 17]);
        assert_eq!(P::deinterleave_even(a, b), [0, 2, 4, 6, 10, 12, 14, 16]);
        assert_eq!(P::deinterleave_odd(a, b), [1, 3, 5, 7, 11, 13, 15, 17]);
    }

    #[test]
    fn shifts() {
        let a = P::splat(P::token(), 0b1010);
        assert_eq!(P::shl(a, 1), [0b10100; 8]);
        assert_eq!(P::shr(a, 1), [0b101; 8]);
    }
}
