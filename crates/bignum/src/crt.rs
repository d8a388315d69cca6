//! Residue Number System (RNS) decomposition and Chinese Remainder
//! Theorem recombination.
//!
//! An RNS basis is a set of pairwise-coprime word-sized moduli
//! `m_0, …, m_{k−1}`; the CRT isomorphism `ℤ_M ≅ ℤ_{m_0} × ⋯ ×
//! ℤ_{m_{k−1}}` (with `M = ∏ m_i`) lets arithmetic on integers wider
//! than the machine word run as `k` independent word-sized channels —
//! the standard production alternative to multi-word arithmetic, and
//! the way scalable accelerator designs parallelize large-modulus
//! kernels.
//!
//! [`CrtContext`] precomputes the Garner (mixed-radix) constants once
//! per basis, so decomposing ([`CrtContext::to_residues`]) and
//! recombining ([`CrtContext::recombine`]) a long vector of
//! coefficients pays the `mod_inverse` cost only at construction.
//! Those routines run in `BigUint` arithmetic throughout and double as
//! the oracle for word-level CRT code; a caller that computes the
//! mixed-radix digits itself (as the `mqx` facade's RNS rings do, from
//! word-sized constants) needs only [`CrtContext::assemble`] to sum
//! them into the wide result, in one allocation.
//!
//! # Example
//!
//! ```
//! use mqx_bignum::{crt::CrtContext, BigUint};
//!
//! let ctx = CrtContext::new(&[97, 101, 103]).unwrap();
//! let x = BigUint::from(123_456_u64);
//! let residues = ctx.to_residues(&x);
//! assert_eq!(residues, x.to_residues(&[97, 101, 103]));
//! assert_eq!(ctx.recombine(&residues), x);
//! ```

use crate::BigUint;
use std::fmt;

/// The reasons an RNS basis is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CrtError {
    /// The basis has no moduli.
    EmptyBasis,
    /// A modulus is below 2 (no residue arithmetic possible).
    ModulusTooSmall {
        /// Index of the offending modulus.
        index: usize,
    },
    /// Two moduli share a factor, so the CRT map is not a bijection.
    NotCoprime {
        /// Index of the first offending modulus.
        i: usize,
        /// Index of the second offending modulus.
        j: usize,
    },
}

impl fmt::Display for CrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrtError::EmptyBasis => write!(f, "RNS basis must contain at least one modulus"),
            CrtError::ModulusTooSmall { index } => {
                write!(f, "RNS modulus at index {index} must be at least 2")
            }
            CrtError::NotCoprime { i, j } => {
                write!(f, "RNS moduli at indices {i} and {j} are not coprime")
            }
        }
    }
}

impl std::error::Error for CrtError {}

/// A validated RNS basis with the Garner recombination constants
/// precomputed.
///
/// Construction is `O(k²)` big-integer work (pairwise coprimality plus
/// `k` modular inverses); decomposition and recombination are then
/// `O(k)` big-integer operations per value, with no inversions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrtContext {
    moduli: Vec<u128>,
    big_moduli: Vec<BigUint>,
    /// `prefix[i] = m_0 · m_1 ⋯ m_{i−1}` (so `prefix[0] = 1`).
    prefixes: Vec<BigUint>,
    /// Garner constants: `inverses[i] = prefix[i]⁻¹ mod m_i`
    /// (`inverses[0]` is trivially 1).
    inverses: Vec<BigUint>,
    product: BigUint,
}

impl CrtContext {
    /// Validates the basis and precomputes the Garner constants.
    ///
    /// # Errors
    ///
    /// [`CrtError::EmptyBasis`] for an empty slice,
    /// [`CrtError::ModulusTooSmall`] for any modulus below 2, and
    /// [`CrtError::NotCoprime`] when two moduli share a factor.
    pub fn new(moduli: &[u128]) -> Result<Self, CrtError> {
        if moduli.is_empty() {
            return Err(CrtError::EmptyBasis);
        }
        let big_moduli: Vec<BigUint> = moduli.iter().map(|&m| BigUint::from(m)).collect();
        for (index, (&m, big)) in moduli.iter().zip(&big_moduli).enumerate() {
            if m < 2 {
                return Err(CrtError::ModulusTooSmall { index });
            }
            for (j, other) in big_moduli.iter().enumerate().take(index) {
                if !big.gcd(other).is_one() {
                    return Err(CrtError::NotCoprime { i: j, j: index });
                }
            }
        }

        let mut prefixes = Vec::with_capacity(moduli.len());
        let mut inverses = Vec::with_capacity(moduli.len());
        let mut product = BigUint::one();
        for big in &big_moduli {
            let inv = (&product % big)
                .mod_inverse(big)
                .expect("pairwise-coprime basis makes every prefix invertible");
            prefixes.push(product.clone());
            inverses.push(inv);
            product = &product * big;
        }

        Ok(CrtContext {
            moduli: moduli.to_vec(),
            big_moduli,
            prefixes,
            inverses,
            product,
        })
    }

    /// The number of residue channels `k`.
    pub fn channels(&self) -> usize {
        self.moduli.len()
    }

    /// The basis moduli, in channel order.
    pub fn moduli(&self) -> &[u128] {
        &self.moduli
    }

    /// The product modulus `M = ∏ m_i` — the dynamic range of the basis.
    pub fn product(&self) -> &BigUint {
        &self.product
    }

    /// Decomposes `x` into its residues `x mod m_i`, one per channel.
    ///
    /// `x` may be any size; values at or above [`CrtContext::product`]
    /// alias their reduction mod `M` (recombination returns the
    /// canonical representative in `[0, M)`).
    pub fn to_residues(&self, x: &BigUint) -> Vec<u128> {
        self.big_moduli
            .iter()
            .map(|m| (x % m).to_u128().expect("residue of a u128 modulus fits"))
            .collect()
    }

    /// Recombines one residue per channel into the unique `x ∈ [0, M)`
    /// with `x ≡ residues[i] (mod m_i)`, by Garner's mixed-radix
    /// algorithm (no reduction modulo the wide `M` is ever needed:
    /// every intermediate digit stays word-sized).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.channels()`.
    pub fn recombine(&self, residues: &[u128]) -> BigUint {
        self.mixed_radix(residues).1
    }

    /// The Garner mixed-radix digits `v_0, …, v_{k−1}` of the value the
    /// residues represent: `x = v_0 + v_1·m_0 + v_2·m_0·m_1 + …` with
    /// each digit `v_i < m_i` (word-sized).
    ///
    /// This is [`recombine`](CrtContext::recombine) stopped one step
    /// short of the final summation, computed in `BigUint` arithmetic —
    /// the *reference* that word-level Garner implementations (the
    /// `mqx` facade's RNS rings compute the same digits from
    /// precomputed word constants) are tested against, not a hot-path
    /// routine: every call builds and discards the recombined value.
    /// The digits are what *basis extension* folds: re-expressing `x`
    /// modulo a new coprime prime `p` is
    /// `x mod p = Σ v_i · (prefix_i mod p) mod p`, and
    /// [`assemble`](CrtContext::assemble) sums them back into `x`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.channels()`.
    pub fn digits(&self, residues: &[u128]) -> Vec<u128> {
        self.mixed_radix(residues).0
    }

    /// Assembles the value from its mixed-radix digits:
    /// `x = Σ digits[i] · prefix_i`, the final summation of Garner's
    /// algorithm for callers that computed the digits themselves in
    /// word arithmetic. The sum is accumulated straight into the
    /// result's limb vector, sized for [`CrtContext::product`]: exactly
    /// one allocation and no `BigUint` temporaries.
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != self.channels()` or a digit is not
    /// below its radix `m_i` (the bound that keeps `x < M`).
    ///
    /// ```
    /// use mqx_bignum::{crt::CrtContext, BigUint};
    ///
    /// let ctx = CrtContext::new(&[3, 5, 7]).unwrap();
    /// // 23 = 2 + 2·3 + 1·(3·5)
    /// assert_eq!(ctx.digits(&[2, 3, 2]), [2, 2, 1]);
    /// assert_eq!(ctx.assemble(&[2, 2, 1]), BigUint::from(23_u64));
    /// ```
    pub fn assemble(&self, digits: &[u128]) -> BigUint {
        assert_eq!(
            digits.len(),
            self.channels(),
            "one digit per basis modulus required"
        );
        let mut limbs = vec![0_u64; self.product.limbs.len()];
        for ((&digit, &m), prefix) in digits.iter().zip(&self.moduli).zip(&self.prefixes) {
            assert!(digit < m, "mixed-radix digit must be below its radix");
            // digit · prefix_i, one 64-bit half of the digit at a time.
            // Every partial sum is below M, so it fits `limbs`: a
            // non-zero high half means the term alone spans
            // `prefix_i.limbs + 1` limbs.
            for (shift, half) in [digit as u64, (digit >> 64) as u64].into_iter().enumerate() {
                if half == 0 {
                    continue;
                }
                let (low, high) = limbs[shift..].split_at_mut(prefix.limbs.len());
                let mut carry = 0_u64;
                for (limb, &p) in low.iter_mut().zip(&prefix.limbs) {
                    let t =
                        u128::from(*limb) + u128::from(p) * u128::from(half) + u128::from(carry);
                    *limb = t as u64;
                    carry = (t >> 64) as u64;
                }
                for limb in high {
                    let (sum, overflow) = limb.overflowing_add(carry);
                    *limb = sum;
                    carry = u64::from(overflow);
                }
                debug_assert_eq!(carry, 0, "partial sums stay below the product");
            }
        }
        BigUint::from_limbs(limbs)
    }

    /// `prefix_i = m_0 ⋯ m_{i−1}` reduced modulo `p` for every channel
    /// — the fold table a basis extension precomputes per target
    /// modulus.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn prefixes_mod(&self, p: u128) -> Vec<u128> {
        assert!(p != 0, "fold modulus must be non-zero");
        let big = BigUint::from(p);
        self.prefixes
            .iter()
            .map(|prefix| {
                (prefix % &big)
                    .to_u128()
                    .expect("residue of a u128 modulus fits")
            })
            .collect()
    }

    /// Shared Garner walk: returns the mixed-radix digits together with
    /// the recombined value.
    fn mixed_radix(&self, residues: &[u128]) -> (Vec<u128>, BigUint) {
        assert_eq!(
            residues.len(),
            self.channels(),
            "one residue per basis modulus required"
        );
        // x accumulates the mixed-radix expansion
        // v_0 + v_1·m_0 + v_2·m_0·m_1 + …, each digit v_i < m_i.
        let mut digits = Vec::with_capacity(residues.len());
        let mut x = &BigUint::from(residues[0]) % &self.big_moduli[0];
        digits.push(x.to_u128().expect("digit below a u128 modulus fits"));
        let channels = residues
            .iter()
            .zip(&self.big_moduli)
            .zip(&self.inverses)
            .zip(&self.prefixes)
            .skip(1);
        for (((&r, m), inv), prefix) in channels {
            let r = &BigUint::from(r) % m;
            // v_i = (r_i − x) · prefix[i]⁻¹ mod m_i.
            let digit = r.sub_mod(&(&x % m), m).mul_mod(inv, m);
            x = &x + &(&digit * prefix);
            digits.push(digit.to_u128().expect("digit below a u128 modulus fits"));
        }
        (digits, x)
    }
}

impl BigUint {
    /// Decomposes the value into residues modulo each entry of `moduli`
    /// — the RNS forward map. The moduli need not form a coprime basis
    /// for this direction; see [`CrtContext`] for the validated
    /// round-trip.
    ///
    /// # Panics
    ///
    /// Panics if any modulus is zero.
    ///
    /// ```
    /// use mqx_bignum::BigUint;
    /// let x = BigUint::from(1_000_000_u64);
    /// assert_eq!(x.to_residues(&[97, 101]), vec![1_000_000 % 97, 1_000_000 % 101]);
    /// ```
    pub fn to_residues(&self, moduli: &[u128]) -> Vec<u128> {
        moduli
            .iter()
            .map(|&m| {
                assert!(m != 0, "RNS modulus must be non-zero");
                (self % &BigUint::from(m))
                    .to_u128()
                    .expect("residue of a u128 modulus fits")
            })
            .collect()
    }
}

/// One-shot Garner recombination: builds a [`CrtContext`] for `moduli`
/// and recombines `residues` through it.
///
/// Callers recombining many values against one basis should build the
/// context once instead.
///
/// # Errors
///
/// Any [`CrtError`] the basis validation produces.
///
/// # Panics
///
/// Panics if `residues.len() != moduli.len()`.
pub fn garner(residues: &[u128], moduli: &[u128]) -> Result<BigUint, CrtError> {
    Ok(CrtContext::new(moduli)?.recombine(residues))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_hand_checked_recombination() {
        // x = 23: 23 mod 3 = 2, 23 mod 5 = 3, 23 mod 7 = 2.
        let ctx = CrtContext::new(&[3, 5, 7]).unwrap();
        assert_eq!(ctx.channels(), 3);
        assert_eq!(ctx.product(), &BigUint::from(105_u64));
        assert_eq!(ctx.recombine(&[2, 3, 2]), BigUint::from(23_u64));
        assert_eq!(
            garner(&[2, 3, 2], &[3, 5, 7]).unwrap(),
            BigUint::from(23_u64)
        );
    }

    #[test]
    fn roundtrip_covers_the_full_range_of_a_tiny_basis() {
        let moduli = [4_u128, 9, 25]; // coprime but not prime: 900 values
        let ctx = CrtContext::new(&moduli).unwrap();
        for v in 0..900_u64 {
            let x = BigUint::from(v);
            assert_eq!(ctx.recombine(&ctx.to_residues(&x)), x, "{v}");
        }
    }

    #[test]
    fn wide_value_roundtrips_through_wide_basis() {
        // Three word-sized primes: M has ~189 bits, above u128.
        let moduli = [
            18_446_744_073_709_551_557_u128, // largest 64-bit prime
            9_223_372_036_854_775_783,       // largest 63-bit prime
            4_611_686_018_427_387_847,       // largest 62-bit prime
        ];
        let ctx = CrtContext::new(&moduli).unwrap();
        assert!(ctx.product().bits() > 128);
        let x = &(&BigUint::from(u128::MAX) * &BigUint::from(12_345_678_u64)) % ctx.product();
        let rs = ctx.to_residues(&x);
        assert_eq!(ctx.recombine(&rs), x);
        // The free-method decomposition agrees with the context's.
        assert_eq!(x.to_residues(&moduli), rs);
    }

    #[test]
    fn values_at_or_above_the_product_alias_their_reduction() {
        let ctx = CrtContext::new(&[7, 11]).unwrap();
        let big = BigUint::from(77_u64 + 5);
        assert_eq!(ctx.recombine(&ctx.to_residues(&big)), BigUint::from(5_u64));
    }

    #[test]
    fn single_channel_basis_is_plain_reduction() {
        let ctx = CrtContext::new(&[97]).unwrap();
        assert_eq!(ctx.recombine(&[205]), BigUint::from(205_u64 % 97));
    }

    #[test]
    fn invalid_bases_are_rejected() {
        assert_eq!(CrtContext::new(&[]).unwrap_err(), CrtError::EmptyBasis);
        assert_eq!(
            CrtContext::new(&[7, 1]).unwrap_err(),
            CrtError::ModulusTooSmall { index: 1 }
        );
        assert_eq!(
            CrtContext::new(&[6, 35, 10]).unwrap_err(),
            CrtError::NotCoprime { i: 0, j: 2 }
        );
        assert_eq!(
            CrtContext::new(&[5, 5]).unwrap_err(),
            CrtError::NotCoprime { i: 0, j: 1 }
        );
        let msg = CrtError::NotCoprime { i: 0, j: 1 }.to_string();
        assert!(msg.contains("not coprime"), "{msg}");
    }

    #[test]
    fn digits_fold_to_residues_in_any_coprime_target() {
        let moduli = [
            4_611_686_018_427_387_847_u128, // largest 62-bit prime
            1_073_741_789,                  // below 2^30
            16_381,                         // below 2^14
        ];
        let ctx = CrtContext::new(&moduli).unwrap();
        let x = &(&BigUint::from(u128::MAX) * &BigUint::from(987_654_321_u64)) % ctx.product();
        let digits = ctx.digits(&ctx.to_residues(&x));
        assert_eq!(digits.len(), 3);
        for (d, m) in digits.iter().zip(&moduli) {
            assert!(d < m, "digit {d} not below its radix {m}");
        }
        // The digits rebuild the value…
        assert_eq!(ctx.recombine(&ctx.to_residues(&x)), x);
        // …and fold to x mod p for a target prime outside the basis,
        // using only the precomputed prefix table.
        let p = 2_147_483_647_u128; // 2^31 − 1, coprime to the basis
        let prefixes = ctx.prefixes_mod(p);
        let folded = digits
            .iter()
            .zip(&prefixes)
            .fold(0_u128, |acc, (&d, &pre)| (acc + (d % p) * pre % p) % p);
        assert_eq!(BigUint::from(folded), &x % &BigUint::from(p));
    }

    #[test]
    fn assemble_sums_digits_back_to_the_value() {
        // Every value of a tiny basis…
        let ctx = CrtContext::new(&[4, 9, 25]).unwrap();
        for v in 0..900_u64 {
            let residues = ctx.to_residues(&BigUint::from(v));
            assert_eq!(ctx.assemble(&ctx.digits(&residues)), BigUint::from(v));
        }
        // …and the extremes of wide ones (two-word digits, carries
        // across every limb), in a limb vector no larger than M's.
        let q124 = (1_u128 << 124) - 95_420_033;
        let q62 = 4_611_686_018_427_387_847_u128;
        for moduli in [&[q124, q62, 1_073_741_789][..], &[q62, q124], &[q124]] {
            let ctx = CrtContext::new(moduli).unwrap();
            let top: Vec<u128> = moduli.iter().map(|m| m - 1).collect();
            let max = ctx.assemble(&top);
            assert_eq!(&max + &BigUint::one(), *ctx.product());
            assert_eq!(max.limbs.capacity(), ctx.product().limbs().len());
            assert_eq!(ctx.assemble(&vec![0; moduli.len()]), BigUint::zero());
            let x = &(&BigUint::from(u128::MAX) * &BigUint::from(u128::MAX - 58)) % ctx.product();
            assert_eq!(ctx.assemble(&ctx.digits(&ctx.to_residues(&x))), x);
        }
    }

    #[test]
    #[should_panic(expected = "below its radix")]
    fn assemble_rejects_a_digit_at_its_radix() {
        let ctx = CrtContext::new(&[3, 5]).unwrap();
        let _ = ctx.assemble(&[2, 5]);
    }

    #[test]
    #[should_panic(expected = "one digit per basis modulus")]
    fn assemble_length_mismatch_panics() {
        let ctx = CrtContext::new(&[3, 5]).unwrap();
        let _ = ctx.assemble(&[1]);
    }

    #[test]
    #[should_panic(expected = "one residue per basis modulus")]
    fn recombine_length_mismatch_panics() {
        let ctx = CrtContext::new(&[3, 5]).unwrap();
        let _ = ctx.recombine(&[1]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn to_residues_rejects_zero_modulus() {
        let _ = BigUint::from(5_u64).to_residues(&[3, 0]);
    }
}
