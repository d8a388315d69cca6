//! The [`Mqx`] engine: a base SIMD engine extended with the paper's three
//! proposed instructions (§4, Table 2), in either functional or PISA mode.

use crate::delegate::{
    delegate_arith, delegate_cmp, delegate_data, delegate_masks, delegate_perm, delegate_sealed,
    delegate_select,
};
use crate::engine::{Sealed, SimdEngine};
use crate::profiles::MqxProfile;
use mqx_core::word;
use std::hint::black_box;
use std::marker::PhantomData;

/// A base engine `E` augmented with MQX instructions per profile `P`.
///
/// * In **functional** mode every overridden operation is emulated
///   lane-by-lane with the exact Table 2 semantics — slow, bit-exact, used
///   by the test suites ("With that flag turned on, each MQX instruction
///   is emulated by a scalar implementation", §4.2).
/// * In **PISA** mode every overridden operation executes as its Table 3
///   proxy instruction — representative cost, meaningless numbers, used by
///   the benchmarks.
///
/// Operations the profile does not claim fall through to the base
/// engine's emulation sequences, which is exactly how the Figure 6
/// ablations (`+M`, `+C`, `+Mh,C`, `+M,C,P`) are formed.
pub struct Mqx<E, P>(PhantomData<(E, P)>);

impl<E, P> Clone for Mqx<E, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E, P> Copy for Mqx<E, P> {}

impl<E, P> std::fmt::Debug for Mqx<E, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mqx")
    }
}

impl<E: SimdEngine, P: MqxProfile> Sealed for Mqx<E, P> {
    delegate_sealed!(E);
}

/// Applies an exact two-output word function lane-by-lane (the Table 2
/// emulation loop).
#[inline(always)]
fn lanewise2<E: SimdEngine>(a: E::V, b: E::V, f: impl Fn(u64, u64) -> (u64, u64)) -> (E::V, E::V) {
    let mut ab = [0_u64; 8];
    let mut bb = [0_u64; 8];
    E::store(a, &mut ab);
    E::store(b, &mut bb);
    let mut first = [0_u64; 8];
    let mut second = [0_u64; 8];
    for i in 0..E::LANES {
        let (x, y) = f(ab[i], bb[i]);
        first[i] = x;
        second[i] = y;
    }
    let t = E::witness(a);
    (E::load(t, &first), E::load(t, &second))
}

/// Applies an exact carry-style word function lane-by-lane: value plus
/// flag in, value plus flag out.
#[inline(always)]
fn lanewise_carry<E: SimdEngine>(
    a: E::V,
    b: E::V,
    flag_in: E::M,
    f: impl Fn(u64, u64, bool) -> (u64, bool),
) -> (E::V, E::M) {
    let mut ab = [0_u64; 8];
    let mut bb = [0_u64; 8];
    E::store(a, &mut ab[..]);
    E::store(b, &mut bb[..]);
    let bits = E::mask_to_bits(flag_in);
    let mut out = [0_u64; 8];
    let mut out_bits = 0_u64;
    for i in 0..E::LANES {
        let (v, fl) = f(ab[i], bb[i], (bits >> i) & 1 == 1);
        out[i] = v;
        out_bits |= u64::from(fl) << i;
    }
    let t = E::witness(a);
    (E::load(t, &out), E::mask_from_bits(t, out_bits))
}

impl<E: SimdEngine, P: MqxProfile> SimdEngine for Mqx<E, P> {
    const LANES: usize = E::LANES;
    const NAME: &'static str = P::NAME;
    const HAS_PREDICATION: bool = P::PREDICATED;

    type V = E::V;
    type M = E::M;
    type Token = E::Token;

    delegate_data!(E);
    delegate_arith!(E);
    delegate_cmp!(E);
    delegate_masks!(E);
    delegate_select!(E);
    delegate_perm!(E);

    /// `_mm512_mul_epi64` (Table 2) or the `+Mh` mul-lo/mul-hi pair.
    #[inline(always)]
    fn mul_wide(a: Self::V, b: Self::V) -> (Self::V, Self::V) {
        if P::FUNCTIONAL {
            if P::WIDENING_MUL || P::MULHI_ONLY {
                lanewise2::<E>(a, b, word::mul_wide)
            } else {
                E::mul_wide(a, b)
            }
        } else if P::WIDENING_MUL {
            // PISA: one vpmullq stands in for the single proposed
            // instruction; both outputs alias its result (Table 3).
            let p = E::mullo(a, b);
            (p, p)
        } else if P::MULHI_ONLY {
            // PISA: two instructions — the real multiply-low plus a
            // second vpmullq standing in for multiply-high. black_box
            // keeps the compiler from folding the pair back into one.
            let lo = E::mullo(a, b);
            let hi = E::mullo(black_box(a), b);
            (hi, lo)
        } else {
            E::mul_wide(a, b)
        }
    }

    /// `_mm512_adc_epi64` (Table 2 / Table 3).
    #[inline(always)]
    fn adc(a: Self::V, b: Self::V, carry_in: Self::M) -> (Self::V, Self::M) {
        if !P::CARRY {
            // Profile without carry support: baseline emulation.
            let one = Self::splat(Self::witness(a), 1);
            let t0 = Self::add(a, b);
            let t1 = Self::mask_add(t0, carry_in, t0, one);
            let q0 = Self::cmp_lt(t0, a);
            let q1 = Self::cmp_lt(t1, t0);
            return (t1, Self::mask_or(q0, q1));
        }
        if P::FUNCTIONAL {
            lanewise_carry::<E>(a, b, carry_in, word::adc)
        } else {
            // PISA proxy: one masked vpaddq; the carry-out reuses the
            // carry-in mask to preserve the dependency chain (§5.2).
            (E::mask_add(a, carry_in, a, b), carry_in)
        }
    }

    #[inline(always)]
    fn adc0(a: Self::V, b: Self::V) -> (Self::V, Self::M) {
        if !P::CARRY {
            let t0 = Self::add(a, b);
            return (t0, Self::cmp_lt(t0, a));
        }
        if P::FUNCTIONAL {
            lanewise_carry::<E>(a, b, E::mask_zero(E::witness(a)), word::adc)
        } else {
            // Listing 3 feeds z_mask into the same one-instruction adc;
            // black_box keeps the constant mask from folding away.
            let z = black_box(E::mask_zero(E::witness(a)));
            (E::mask_add(a, z, a, b), z)
        }
    }

    /// `_mm512_sbb_epi64` (Table 2 / Table 3).
    #[inline(always)]
    fn sbb(a: Self::V, b: Self::V, borrow_in: Self::M) -> (Self::V, Self::M) {
        if !P::CARRY {
            let one = Self::splat(Self::witness(a), 1);
            let t0 = Self::sub(a, b);
            let t1 = Self::mask_sub(t0, borrow_in, t0, one);
            let q0 = Self::cmp_lt(a, b);
            let q1 = Self::mask_and(borrow_in, Self::cmp_eq(a, b));
            return (t1, Self::mask_or(q0, q1));
        }
        if P::FUNCTIONAL {
            lanewise_carry::<E>(a, b, borrow_in, word::sbb)
        } else {
            (E::mask_sub(a, borrow_in, a, b), borrow_in)
        }
    }

    #[inline(always)]
    fn sbb0(a: Self::V, b: Self::V) -> (Self::V, Self::M) {
        if !P::CARRY {
            return (Self::sub(a, b), Self::cmp_lt(a, b));
        }
        if P::FUNCTIONAL {
            lanewise_carry::<E>(a, b, E::mask_zero(E::witness(a)), word::sbb)
        } else {
            let z = black_box(E::mask_zero(E::witness(a)));
            (E::mask_sub(a, z, a, b), z)
        }
    }

    /// Predicated add-with-carry (§5.5 `+P`).
    #[inline(always)]
    fn padc(a: Self::V, b: Self::V, carry_in: Self::M, pred: Self::M) -> Self::V {
        if !P::PREDICATED {
            let (sum, _) = Self::adc(a, b, carry_in);
            return Self::blend(pred, a, sum);
        }
        if P::FUNCTIONAL {
            let (sum, _) = lanewise_carry::<E>(a, b, carry_in, word::adc);
            E::blend(pred, a, sum)
        } else {
            // PISA proxy: one masked add models the proposed instruction.
            E::mask_add(a, pred, a, b)
        }
    }

    /// Predicated subtract-with-borrow (§5.5 `+P`).
    #[inline(always)]
    fn psbb(a: Self::V, b: Self::V, borrow_in: Self::M, pred: Self::M) -> Self::V {
        if !P::PREDICATED {
            let (diff, _) = Self::sbb(a, b, borrow_in);
            return Self::blend(pred, a, diff);
        }
        if P::FUNCTIONAL {
            let (diff, _) = lanewise_carry::<E>(a, b, borrow_in, word::sbb);
            E::blend(pred, a, diff)
        } else {
            E::mask_sub(a, pred, a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::*;
    use crate::Portable;

    type McF = Mqx<Portable, McFunctional>;
    type MF = Mqx<Portable, MFunctional>;
    type CF = Mqx<Portable, CFunctional>;
    type McP = Mqx<Portable, McPisa>;
    type McpF = Mqx<Portable, McpFunctional>;

    fn v(xs: [u64; 8]) -> [u64; 8] {
        xs
    }

    #[test]
    fn functional_mul_wide_is_exact() {
        let a = v([u64::MAX, 2, 0xDEAD_BEEF_CAFE_BABE, 0, 1, 7, 1 << 63, 3]);
        let b = v([u64::MAX, 3, 0x0123_4567_89AB_CDEF, 9, 1, 7, 2, 4]);
        let (hi, lo) = McF::mul_wide(a, b);
        for i in 0..8 {
            let (eh, el) = word::mul_wide(a[i], b[i]);
            assert_eq!(hi[i], eh);
            assert_eq!(lo[i], el);
        }
        // +M alone also overrides the multiply.
        let (hi2, lo2) = MF::mul_wide(a, b);
        assert_eq!(hi, hi2);
        assert_eq!(lo, lo2);
    }

    #[test]
    fn functional_adc_sbb_are_exact_everywhere() {
        // Including the both-MAX boundary the Table 1 compare trick
        // cannot recover: the MQX instruction is defined exactly.
        let a = v([u64::MAX; 8]);
        let b = v([u64::MAX; 8]);
        let ci = Portable::mask_from_bits(Portable::token(), 0xFF);
        let (sum, co) = McF::adc(a, b, ci);
        assert_eq!(sum, [u64::MAX; 8]);
        assert_eq!(Portable::mask_to_bits(co), 0xFF);

        let (diff, bo) = McF::sbb(v([0; 8]), v([0; 8]), ci);
        assert_eq!(diff, [u64::MAX; 8]);
        assert_eq!(Portable::mask_to_bits(bo), 0xFF);
    }

    #[test]
    fn carry_only_profile_keeps_emulated_multiply() {
        let a = v([u64::MAX, 1, 2, 3, 4, 5, 6, 7]);
        let b = v([u64::MAX, 8, 9, 10, 11, 12, 13, 14]);
        let (hi_c, lo_c) = CF::mul_wide(a, b);
        let (hi_e, lo_e) = Portable::mul_wide(a, b);
        assert_eq!(hi_c, hi_e);
        assert_eq!(lo_c, lo_e);
    }

    #[test]
    fn pisa_mode_produces_wrong_numbers_by_design() {
        // The §4.2 flag: with functional correctness off, results are
        // expected to be incorrect. Verify the expectation holds (if PISA
        // accidentally computed the right answer, the projection would be
        // suspect — it would mean the proxy did the full work).
        let a = v([u64::MAX; 8]);
        let b = v([u64::MAX; 8]);
        let (hi_pisa, _lo) = McP::mul_wide(a, b);
        let (hi_true, _) = word::mul_wide(u64::MAX, u64::MAX);
        assert_ne!(hi_pisa[0], hi_true, "PISA hi must alias mullo, not real hi");

        let ci = Portable::mask_from_bits(Portable::token(), 0xFF);
        let (_, co) = McP::adc(
            v([u64::MAX; 8]),
            v([1; 8]),
            Portable::mask_zero(Portable::token()),
        );
        // Proxy carry-out is the pass-through carry-in (zero), though a
        // real adc would carry out of every lane.
        assert_eq!(Portable::mask_to_bits(co), 0);
        let _ = ci;
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the consts ARE the contract
    fn predicated_profile_advertises_capability() {
        assert!(McpF::HAS_PREDICATION);
        assert!(!McF::HAS_PREDICATION);
        let a = v([10; 8]);
        let b = v([5; 8]);
        let pred = Portable::mask_from_bits(Portable::token(), 0b1010_1010);
        let got = McpF::padc(a, b, Portable::mask_zero(Portable::token()), pred);
        assert_eq!(got, [10, 15, 10, 15, 10, 15, 10, 15]);
        let got = McpF::psbb(a, b, Portable::mask_zero(Portable::token()), pred);
        assert_eq!(got, [10, 5, 10, 5, 10, 5, 10, 5]);
    }

    #[test]
    fn names_come_from_profiles() {
        assert_eq!(McF::NAME, "mqx+M,C(func)");
        assert_eq!(McP::NAME, "mqx+M,C(pisa)");
    }
}
