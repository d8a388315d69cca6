//! Shoup modular multiplication by a fixed operand — an extension
//! beyond the paper (README, "How fast is it": the lazy fused pipeline).
//!
//! NTT butterflies always multiply by *precomputed* twiddles, so the
//! per-multiplier constant `w' = ⌊w·2^128 / q⌋` can be stored next to
//! each twiddle. The reduction then needs only multiplies-high/low and
//! one conditional subtraction:
//!
//! ```text
//! q̂ = hi128(x · w')          — quotient estimate
//! r  = (x·w − q̂·q) mod 2^128 — low halves only
//! r  ∈ [0, 2q): subtract q once if needed
//! ```
//!
//! This is the standard trick in 64-bit NTT libraries (HEXL, SEAL),
//! lifted to the double-word setting; it gives the ablation "how much of
//! Barrett's cost is the µ multiply" a concrete answer.
//!
//! The constants themselves come from [`ShoupCtx`]: an *exact* division
//! (one Barrett multiply plus one wrapping multiply by a 2-adic
//! inverse) instead of a 256-step long division per table entry, so
//! building a twiddle table costs about what using it once does.

use crate::{DWord, Modulus};

/// Per-modulus state for computing Shoup constants `⌊w·2^128 / q⌋`:
/// the two values that do not depend on `w`, hoisted so a table of
/// twiddles pays for them once.
///
/// With `r = w·2^128 mod q = w·(2^128 mod q) mod q`, the numerator
/// `w·2^128 − r` is an exact multiple of `q`, and an exact quotient
/// below `2^128` is its low half times `q⁻¹ mod 2^128` — no trial
/// subtraction anywhere. An even modulus `q = 2^e·q_odd` (the composite
/// RNS test bases) has no such inverse, so the 256-bit numerator is
/// first shifted right by `e` (still exact) and then multiplied by
/// `q_odd⁻¹`.
///
/// ```
/// use mqx_core::{primes, shoup::ShoupCtx, Modulus, ShoupMul};
///
/// let m = Modulus::new(primes::Q124)?;
/// let ctx = ShoupCtx::new(&m);
/// let w = 0xDEAD_BEEF_u128;
/// assert_eq!(ctx.constant(w), ShoupMul::new(w, &m).constant());
/// # Ok::<(), mqx_core::ModulusError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShoupCtx {
    m: Modulus,
    /// `2^128 mod q`.
    r128: u128,
    /// `e`, the number of trailing zero bits of `q`.
    shift: u32,
    /// `(q >> e)⁻¹ mod 2^128`.
    q_odd_inv: u128,
}

impl ShoupCtx {
    /// Precomputes `2^128 mod q` and the 2-adic inverse of `q`'s odd
    /// part.
    pub fn new(m: &Modulus) -> Self {
        let q = m.value();
        let shift = q.trailing_zeros();
        let q_odd = q >> shift;
        // Newton–Hensel: q·q ≡ 1 (mod 8) for odd q, and each step
        // x ← x·(2 − q·x) doubles the correct low bits: 3 → 192 in six.
        let mut inv = q_odd;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2_u128.wrapping_sub(q_odd.wrapping_mul(inv)));
        }
        ShoupCtx {
            m: *m,
            // 2^128 = u128::MAX + 1, and q ≥ 2 so the sum cannot wrap.
            r128: (u128::MAX % q + 1) % q,
            shift,
            q_odd_inv: inv,
        }
    }

    /// `⌊w·2^128 / q⌋` for a reduced multiplier `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w ≥ q`.
    #[inline]
    pub fn constant(&self, w: u128) -> u128 {
        assert!(w < self.m.value(), "multiplier must be reduced");
        let r = self.m.mul_mod(w, self.r128);
        // The exact numerator w·2^128 − r as (hi, lo) 128-bit halves.
        let lo = r.wrapping_neg();
        let lo = if self.shift == 0 {
            lo
        } else {
            let hi = w - u128::from(r > 0);
            (lo >> self.shift) | (hi << (128 - self.shift))
        };
        // The quotient is below 2^128 (w < q), so its low half is all of it.
        lo.wrapping_mul(self.q_odd_inv)
    }
}

/// A fixed multiplier `w < q` with its Shoup constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShoupMul {
    w: u128,
    /// `⌊w·2^128 / q⌋` — fits `u128` because `w < q`.
    w_shoup: u128,
    q: u128,
}

impl ShoupMul {
    /// Precomputes the constant `w' = ⌊w·2^128 / q⌋` for multiplier `w`
    /// in ring `m`, by exact division: `r = w·(2^128 mod q) mod q` makes
    /// `w·2^128 − r` a multiple of `q`, so for odd `q`
    /// `w' = (−r mod 2^128)·q⁻¹ mod 2^128` with `q⁻¹` the 2-adic inverse;
    /// for even `q = 2^e·q_odd` the 256-bit numerator is shifted right
    /// by `e` before the multiply by `q_odd⁻¹` (see [`ShoupCtx`], which
    /// callers building a whole table should hold instead).
    ///
    /// # Panics
    ///
    /// Panics if `w ≥ q`.
    pub fn new(w: u128, m: &Modulus) -> Self {
        ShoupMul {
            w,
            w_shoup: ShoupCtx::new(m).constant(w),
            q: m.value(),
        }
    }

    /// The multiplier.
    pub fn multiplier(&self) -> u128 {
        self.w
    }

    /// The precomputed `⌊w·2^128/q⌋`.
    pub fn constant(&self) -> u128 {
        self.w_shoup
    }

    /// Computes `x·w mod q`.
    ///
    /// # Panics (debug)
    ///
    /// Debug-asserts `x < q`.
    #[inline]
    pub fn mul(&self, x: u128) -> u128 {
        debug_assert!(x < self.q);
        let r = mul_lazy(x, self.w, self.w_shoup, self.q);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Computes `x·w mod q` *lazily*: the result is only reduced into
    /// `[0, 2q)` and the final conditional subtraction is skipped.
    ///
    /// Unlike [`ShoupMul::mul`] this accepts **any** `x`, reduced or not:
    /// with `q̂ = ⌊x·w'/2^128⌋` the error of the quotient estimate is
    /// `x·w/q − q̂ < x/2^128 + 1 < 2`, so `x·w − q̂·q ∈ [0, 2q)` for every
    /// `x < 2^128`. This is what lets lazy butterflies feed unreduced
    /// `[0, 4q)` values straight back into the next stage.
    #[inline]
    pub fn mul_lazy(&self, x: u128) -> u128 {
        mul_lazy(x, self.w, self.w_shoup, self.q)
    }
}

/// Free-function form of [`ShoupMul::mul_lazy`] for callers that store
/// the `(w, w')` pair themselves (twiddle tables): returns
/// `x·w − ⌊x·w'/2^128⌋·q ∈ [0, 2q)` for any `x`, where `w' = ⌊w·2^128/q⌋`
/// (see [`ShoupMul::constant`]) and `w < q`.
#[inline]
pub fn mul_lazy(x: u128, w: u128, w_shoup: u128, q: u128) -> u128 {
    let (qhat, _) = DWord::from(x).mul_wide_schoolbook(DWord::from(w_shoup));
    // Low halves of x·w and q̂·q; their difference is exact mod 2^128
    // and lands in [0, 2q).
    let xw_lo = x.wrapping_mul(w);
    let qq_lo = u128::from(qhat).wrapping_mul(q);
    xw_lo.wrapping_sub(qq_lo)
}

/// `⌊w·2^128 / q⌋` by restoring long division over 256 bits — the
/// oracle [`ShoupCtx::constant`] is tested against.
#[cfg(test)]
fn div_shifted_128(w: u128, q: u128) -> u128 {
    let mut rem: u128 = 0;
    let mut quot: u128 = 0;
    // Numerator bits, most significant first: the 128 bits of w, then
    // 128 zero bits.
    for i in (0..256).rev() {
        let bit = if i >= 128 { (w >> (i - 128)) & 1 } else { 0 };
        let carry = rem >> 127;
        rem = (rem << 1) | bit;
        quot <<= 1;
        if carry == 1 || rem >= q {
            rem = rem.wrapping_sub(q);
            quot |= 1;
        }
    }
    quot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;
    use mqx_bignum::BigUint;

    #[test]
    fn constant_matches_bignum() {
        let m = Modulus::new(primes::Q124).unwrap();
        for w in [1_u128, 2, primes::Q124 - 1, primes::Q124 / 2, 0xDEAD_BEEF] {
            let s = ShoupMul::new(w, &m);
            let expected = (&(&BigUint::from(w) << 128) / &BigUint::from(primes::Q124))
                .to_u128()
                .unwrap();
            assert_eq!(s.constant(), expected, "w={w:#x}");
        }
    }

    /// 128-bit LCG step shared by the seeded sweeps below.
    fn next(state: &mut u128) -> u128 {
        *state = state
            .wrapping_mul(0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645)
            .wrapping_add(0x5851_F42D_4C95_7F2D_1405_7B7E_F767_814F);
        *state ^ (*state >> 64)
    }

    fn assert_matches_oracle(ctx: &ShoupCtx, q: u128, w: u128) {
        let expected = div_shifted_128(w, q);
        assert_eq!(ctx.constant(w), expected, "q={q:#x} w={w:#x}");
    }

    #[test]
    fn exact_division_matches_long_division_for_every_w_under_small_moduli() {
        // Primes, composites, powers of two and other even moduli alike
        // (2, 4, 6, 9, 12, 25, … — the [4, 9, 25] RNS tests build
        // ShoupMuls over 4).
        for q in 2..=257_u128 {
            let m = Modulus::new(q).unwrap();
            let ctx = ShoupCtx::new(&m);
            for w in 0..q {
                assert_matches_oracle(&ctx, q, w);
                assert_eq!(ShoupMul::new(w, &m).constant(), ctx.constant(w));
            }
        }
    }

    #[test]
    fn exact_division_matches_long_division_under_wide_moduli() {
        let mut moduli = vec![
            primes::Q124,
            primes::Q120,
            primes::Q62,
            primes::Q30,
            (1 << 124) - 1, // the widest modulus, odd composite
            (1 << 123) + 2, // even, odd part 123 bits
            3 << 98,        // even, 98 trailing zeros
            1 << 123,       // odd part 1
        ];
        // The basis `RnsRing::auto(3, 2048)` generates.
        moduli.extend(primes::ntt_prime_chain(62, 12, 3).unwrap());
        let mut state: u128 = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210;
        for i in 0..240_u32 {
            // Every width from 2 bits to the 124-bit cap, odd and even.
            let bits = 2 + (next(&mut state) % 123) as u32;
            let top = 1_u128 << (bits - 1);
            let mut q = top | (next(&mut state) & (top - 1));
            if i % 3 == 0 {
                q &= !((1_u128 << (next(&mut state) % u128::from(bits))) - 1) | top;
            }
            moduli.push(q);
        }
        for q in moduli {
            let ctx = ShoupCtx::new(&Modulus::new(q).unwrap());
            for w in [0, 1 % q, q / 2, q - 1] {
                assert_matches_oracle(&ctx, q, w);
            }
            for _ in 0..48 {
                assert_matches_oracle(&ctx, q, next(&mut state) % q);
            }
        }
    }

    #[test]
    fn mul_matches_barrett_on_random_inputs() {
        let m = Modulus::new(primes::Q124).unwrap();
        let q = m.value();
        let mut state: u128 = 0x0F1E_2D3C_4B5A_6978_8796_A5B4_C3D2_E1F0;
        for _ in 0..50 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let w = state % q;
            let s = ShoupMul::new(w, &m);
            for _ in 0..20 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let x = state % q;
                assert_eq!(s.mul(x), m.mul_mod(x, w), "x={x:#x} w={w:#x}");
            }
        }
    }

    #[test]
    fn boundary_multipliers() {
        let m = Modulus::new(primes::Q120).unwrap();
        let q = m.value();
        for w in [0_u128, 1, q - 1] {
            let s = ShoupMul::new(w, &m);
            for x in [0_u128, 1, q - 1, q / 2] {
                assert_eq!(s.mul(x), m.mul_mod(x, w));
            }
        }
    }

    #[test]
    fn lazy_lands_in_two_q_for_arbitrary_inputs() {
        let m = Modulus::new(primes::Q124).unwrap();
        let q = m.value();
        let mut state: u128 = 0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321;
        for _ in 0..40 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let w = state % q;
            let s = ShoupMul::new(w, &m);
            // Unreduced inputs up to the full u128 range: lazy output must
            // stay below 2q and agree with Barrett mod q.
            for x in [0_u128, 1, q - 1, q, 2 * q - 1, 4 * q - 1, u128::MAX, state] {
                let r = s.mul_lazy(x);
                assert!(r < 2 * q, "x={x:#x} w={w:#x} r={r:#x}");
                assert_eq!(r % q, m.mul_mod(x % q, w), "x={x:#x} w={w:#x}");
                assert_eq!(r, mul_lazy(x, w, s.constant(), q));
            }
        }
    }

    #[test]
    #[should_panic(expected = "reduced")]
    fn unreduced_multiplier_rejected() {
        let m = Modulus::new(primes::Q124).unwrap();
        let _ = ShoupMul::new(primes::Q124, &m);
    }
}
