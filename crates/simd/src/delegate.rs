//! Delegation macros for wrapper engines ([`Mqx`](crate::Mqx) and the
//! PISA-validation proxies). Each macro expands to a group of required
//! [`SimdEngine`](crate::SimdEngine) methods forwarding to a base engine,
//! so wrappers only spell out the operations they change.
//!
//! A wrapper's instructions are its base engine's, so it uses the base
//! engine's token (`type Token = <base>::Token`), CPU check and
//! target-feature frame.

macro_rules! delegate_sealed {
    ($base:ty) => {
        #[inline(always)]
        fn witness(
            v: <Self as crate::engine::SimdEngine>::V,
        ) -> <Self as crate::engine::SimdEngine>::Token {
            <$base as crate::engine::Sealed>::witness(v)
        }
        #[inline(always)]
        fn enter<R>(
            t: <Self as crate::engine::SimdEngine>::Token,
            f: impl FnOnce(<Self as crate::engine::SimdEngine>::Token) -> R,
        ) -> R {
            <$base as crate::engine::Sealed>::enter(t, f)
        }
    };
}

macro_rules! delegate_data {
    ($base:ty) => {
        #[inline(always)]
        fn token() -> Self::Token {
            <$base as crate::engine::SimdEngine>::token()
        }
        #[inline(always)]
        fn splat(t: Self::Token, x: u64) -> Self::V {
            <$base as crate::engine::SimdEngine>::splat(t, x)
        }
        #[inline(always)]
        fn load(t: Self::Token, src: &[u64]) -> Self::V {
            <$base as crate::engine::SimdEngine>::load(t, src)
        }
        #[inline(always)]
        fn store(v: Self::V, dst: &mut [u64]) {
            <$base as crate::engine::SimdEngine>::store(v, dst)
        }
        #[inline(always)]
        fn extract(v: Self::V, lane: usize) -> u64 {
            <$base as crate::engine::SimdEngine>::extract(v, lane)
        }
    };
}

macro_rules! delegate_arith {
    ($base:ty) => {
        #[inline(always)]
        fn add(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::add(a, b)
        }
        #[inline(always)]
        fn sub(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::sub(a, b)
        }
        #[inline(always)]
        fn mullo(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::mullo(a, b)
        }
        #[inline(always)]
        fn mul32_wide(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::mul32_wide(a, b)
        }
        #[inline(always)]
        fn mullo32(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::mullo32(a, b)
        }
        #[inline(always)]
        fn shl(a: Self::V, n: u32) -> Self::V {
            <$base as crate::engine::SimdEngine>::shl(a, n)
        }
        #[inline(always)]
        fn shr(a: Self::V, n: u32) -> Self::V {
            <$base as crate::engine::SimdEngine>::shr(a, n)
        }
        #[inline(always)]
        fn and(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::and(a, b)
        }
        #[inline(always)]
        fn or(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::or(a, b)
        }
        #[inline(always)]
        fn xor(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::xor(a, b)
        }
    };
}

macro_rules! delegate_cmp {
    ($base:ty) => {
        #[inline(always)]
        fn cmp_lt(a: Self::V, b: Self::V) -> Self::M {
            <$base as crate::engine::SimdEngine>::cmp_lt(a, b)
        }
        #[inline(always)]
        fn cmp_le(a: Self::V, b: Self::V) -> Self::M {
            <$base as crate::engine::SimdEngine>::cmp_le(a, b)
        }
        #[inline(always)]
        fn cmp_eq(a: Self::V, b: Self::V) -> Self::M {
            <$base as crate::engine::SimdEngine>::cmp_eq(a, b)
        }
    };
}

macro_rules! delegate_masks {
    ($base:ty) => {
        #[inline(always)]
        fn mask_zero(t: Self::Token) -> Self::M {
            <$base as crate::engine::SimdEngine>::mask_zero(t)
        }
        #[inline(always)]
        fn mask_and(a: Self::M, b: Self::M) -> Self::M {
            <$base as crate::engine::SimdEngine>::mask_and(a, b)
        }
        #[inline(always)]
        fn mask_or(a: Self::M, b: Self::M) -> Self::M {
            <$base as crate::engine::SimdEngine>::mask_or(a, b)
        }
        #[inline(always)]
        fn mask_not(a: Self::M) -> Self::M {
            <$base as crate::engine::SimdEngine>::mask_not(a)
        }
        #[inline(always)]
        fn mask_to_bits(m: Self::M) -> u64 {
            <$base as crate::engine::SimdEngine>::mask_to_bits(m)
        }
        #[inline(always)]
        fn mask_from_bits(t: Self::Token, bits: u64) -> Self::M {
            <$base as crate::engine::SimdEngine>::mask_from_bits(t, bits)
        }
    };
}

macro_rules! delegate_select {
    ($base:ty) => {
        #[inline(always)]
        fn blend(m: Self::M, a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::blend(m, a, b)
        }
        #[inline(always)]
        fn mask_add(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::mask_add(src, m, a, b)
        }
        #[inline(always)]
        fn mask_sub(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::mask_sub(src, m, a, b)
        }
    };
}

macro_rules! delegate_perm {
    ($base:ty) => {
        #[inline(always)]
        fn interleave_lo(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::interleave_lo(a, b)
        }
        #[inline(always)]
        fn interleave_hi(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::interleave_hi(a, b)
        }
        #[inline(always)]
        fn deinterleave_even(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::deinterleave_even(a, b)
        }
        #[inline(always)]
        fn deinterleave_odd(a: Self::V, b: Self::V) -> Self::V {
            <$base as crate::engine::SimdEngine>::deinterleave_odd(a, b)
        }
    };
}

pub(crate) use {
    delegate_arith, delegate_cmp, delegate_data, delegate_masks, delegate_perm, delegate_sealed,
    delegate_select,
};
