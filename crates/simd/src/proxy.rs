//! PISA-validation proxy engines (§5.2, Tables 5–6).
//!
//! To validate the PISA methodology, the paper re-runs its NTTs with an
//! *existing* instruction swapped for the proxy PISA would choose for it,
//! then compares runtimes against the unmodified kernel (the ground
//! truth). These wrapper engines perform exactly those swaps:
//!
//! | Wrapper | target instruction | proxy executed instead |
//! |---|---|---|
//! | [`ProxyMul32<E>`] | `_mm256_mul_epu32` / `vpmuludq` | `_mm256_mullo_epi32` / `vpmulld` |
//! | [`ProxyMaskAdd<E>`] | `_mm512_mask_add_epi64` | `_mm512_add_epi64` + mask barrier |
//! | [`ProxyMaskSub<E>`] | `_mm512_mask_sub_epi64` | `_mm512_sub_epi64` + mask barrier |
//!
//! Like every PISA stream, the proxied kernels produce **wrong numbers**;
//! only their runtime is meaningful.

use crate::delegate::{
    delegate_arith, delegate_cmp, delegate_data, delegate_masks, delegate_perm, delegate_sealed,
    delegate_select,
};
use crate::engine::{Sealed, SimdEngine};
use std::marker::PhantomData;

macro_rules! wrapper_struct {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        pub struct $name<E>(PhantomData<E>);

        impl<E> Clone for $name<E> {
            fn clone(&self) -> Self {
                *self
            }
        }
        impl<E> Copy for $name<E> {}
        impl<E> std::fmt::Debug for $name<E> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(stringify!($name))
            }
        }
        impl<E: SimdEngine> Sealed for $name<E> {
            delegate_sealed!(E);
        }
    };
}

wrapper_struct!(
    /// Runs every 32×32→64 widening multiply as its PISA proxy
    /// `mullo32` (`vpmulld`). Table 5, row 1.
    ProxyMul32
);
wrapper_struct!(
    /// Runs every masked 64-bit add as its PISA proxy — a plain add with
    /// the mask kept live through a compiler barrier (the paper's
    /// "guard the output with volatile"). Table 5, row 2.
    ProxyMaskAdd
);
wrapper_struct!(
    /// Runs every masked 64-bit sub as its PISA proxy. Table 5, row 3.
    ProxyMaskSub
);

impl<E: SimdEngine> SimdEngine for ProxyMul32<E> {
    const LANES: usize = E::LANES;
    const NAME: &'static str = "proxy(mul32→mullo32)";

    type V = E::V;
    type M = E::M;
    type Token = E::Token;

    delegate_data!(E);
    delegate_arith!(E);
    delegate_cmp!(E);
    delegate_masks!(E);
    delegate_select!(E);
    delegate_perm!(E);

    /// The default widening-multiply decomposition with each `vpmuludq`
    /// replaced by its `vpmulld` proxy. Same instruction count, same
    /// recombination arithmetic; the partial products are wrong.
    #[inline(always)]
    fn mul_wide(a: Self::V, b: Self::V) -> (Self::V, Self::V) {
        let mask32 = Self::splat(Self::witness(a), 0xFFFF_FFFF);
        let a_hi = Self::shr(a, 32);
        let b_hi = Self::shr(b, 32);
        let ll = E::mullo32(a, b);
        let lh = E::mullo32(a, b_hi);
        let hl = E::mullo32(a_hi, b);
        let hh = E::mullo32(a_hi, b_hi);

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
}

impl<E: SimdEngine> SimdEngine for ProxyMaskAdd<E> {
    const LANES: usize = E::LANES;
    const NAME: &'static str = "proxy(mask_add→add)";

    type V = E::V;
    type M = E::M;
    type Token = E::Token;

    delegate_data!(E);
    delegate_arith!(E);
    delegate_cmp!(E);
    delegate_masks!(E);
    delegate_perm!(E);

    #[inline(always)]
    fn blend(m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        E::blend(m, a, b)
    }

    /// Plain add; the mask register is kept live through a compiler
    /// barrier (the paper's "guard the output with `volatile`") so its
    /// producing instructions are not dead-code-eliminated.
    #[inline(always)]
    fn mask_add(_src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        std::hint::black_box(m);
        E::add(a, b)
    }

    #[inline(always)]
    fn mask_sub(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        E::mask_sub(src, m, a, b)
    }
}

impl<E: SimdEngine> SimdEngine for ProxyMaskSub<E> {
    const LANES: usize = E::LANES;
    const NAME: &'static str = "proxy(mask_sub→sub)";

    type V = E::V;
    type M = E::M;
    type Token = E::Token;

    delegate_data!(E);
    delegate_arith!(E);
    delegate_cmp!(E);
    delegate_masks!(E);
    delegate_perm!(E);

    #[inline(always)]
    fn blend(m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        E::blend(m, a, b)
    }

    #[inline(always)]
    fn mask_add(src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        E::mask_add(src, m, a, b)
    }

    /// Plain sub with the same dependency-preserving barrier.
    #[inline(always)]
    fn mask_sub(_src: Self::V, m: Self::M, a: Self::V, b: Self::V) -> Self::V {
        std::hint::black_box(m);
        E::sub(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Portable;

    #[test]
    fn proxy_mul32_changes_results_but_not_structure() {
        let a = [0xDEAD_BEEF_0000_0003_u64; 8];
        let b = [0x1234_5678_0000_0005_u64; 8];
        let (hi_t, lo_t) = Portable::mul_wide(
            Portable::load(Portable::token(), &a),
            Portable::load(Portable::token(), &b),
        );
        let (hi_p, lo_p) = ProxyMul32::<Portable>::mul_wide(
            ProxyMul32::<Portable>::load(Portable::token(), &a),
            ProxyMul32::<Portable>::load(Portable::token(), &b),
        );
        // The low 32 bits of each partial agree (mullo32 keeps them), so
        // the very low bits can match, but the full product must not.
        assert_ne!(
            (hi_t, lo_t),
            (hi_p, lo_p),
            "proxy must be a different computation"
        );
    }

    #[test]
    fn proxy_mask_add_ignores_src_lanes() {
        let src = [1_u64; 8];
        let a = [10_u64; 8];
        let b = [20_u64; 8];
        let m = Portable::mask_from_bits(Portable::token(), 0b0000_1111);
        let got = ProxyMaskAdd::<Portable>::mask_add(
            src,
            m,
            Portable::load(Portable::token(), &a),
            Portable::load(Portable::token(), &b),
        );
        // Real mask_add would keep src in the unset lanes; the proxy adds
        // everywhere (wrong by design).
        assert_eq!(got, [30; 8]);
        // And the untouched op still behaves normally.
        let real = ProxyMaskAdd::<Portable>::mask_sub(
            src,
            m,
            Portable::load(Portable::token(), &a),
            Portable::load(Portable::token(), &b),
        );
        assert_eq!(
            real,
            [
                u64::MAX - 9,
                u64::MAX - 9,
                u64::MAX - 9,
                u64::MAX - 9,
                1,
                1,
                1,
                1
            ]
        );
    }

    #[test]
    fn proxy_mask_sub_mirror() {
        let src = [7_u64; 8];
        let a = [10_u64; 8];
        let b = [4_u64; 8];
        let m = Portable::mask_zero(Portable::token());
        let got = ProxyMaskSub::<Portable>::mask_sub(
            src,
            m,
            Portable::load(Portable::token(), &a),
            Portable::load(Portable::token(), &b),
        );
        assert_eq!(got, [6; 8]); // subtracts everywhere despite empty mask
    }
}
