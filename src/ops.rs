//! The executor-facing ring-operation vocabulary.
//!
//! PRs 1–5 built a serving substrate — backend registry, RNS sharding,
//! a work-stealing [`RingExecutor`](crate::RingExecutor) with QoS — that
//! spoke exactly one verb: polynomial multiplication. Production FHE/ZK
//! traffic is a *graph* of ring operations: keyswitching-style polymul
//! chains, ciphertext addition, modulus rescaling, RNS basis extension.
//! [`RingOp`] names that vocabulary, and the
//! [`PolyRing::channel_apply_at_into`](crate::PolyRing::channel_apply_at_into)
//! / [`PolyRing::join_at`](crate::PolyRing::join_at) contract
//! decomposes every op into independent per-channel work items so the
//! executor's fan-out/steal/join path handles them all uniformly.
//!
//! # The vocabulary
//!
//! | Op | Arity | Output channels | Join |
//! |----|-------|-----------------|------|
//! | [`Polymul`](RingOp::Polymul) | 2 | `k` | CRT over the input basis |
//! | [`Add`](RingOp::Add) / [`Sub`](RingOp::Sub) | 2 | `k` | CRT over the input basis |
//! | [`Rescale`](RingOp::Rescale) | 1 | `k − 1` | CRT over the basis minus its last channel |
//! | [`BasisExtend`](RingOp::BasisExtend) | 1 | `k + extra` | CRT over the extended basis |
//!
//! `Rescale` drops the last RNS channel with the standard
//! divide-and-round correction: for `x < Q = Q′·q` it computes
//! `round(x / q) mod Q′` channel-wise, using only word arithmetic and
//! the precomputed constants `(q mod qᵢ)⁻¹`. `BasisExtend` re-expresses
//! the residues in a larger coprime basis via the Garner mixed-radix
//! digits already computed by `mqx_bignum`'s CRT machinery — the
//! round-trip `extend ∘ recombine` is the identity, which is exactly
//! what the oracle tests assert.
//!
//! # Example
//!
//! A polymul → rescale → add pipeline over a 3-channel RNS ring:
//!
//! ```
//! use mqx::{Coefficients, PolyOp, PolyRing, RingOp, RnsRing};
//! use mqx::bignum::BigUint;
//!
//! let ring = RnsRing::auto(3, 64)?;
//! let q = ring.product_modulus().clone();
//! let a = Coefficients::from(vec![BigUint::from(7_u64); 64]);
//! let b = Coefficients::from(vec![BigUint::from(5_u64); 64]);
//!
//! let product = ring.apply(&RingOp::Polymul(PolyOp::Negacyclic), &a, Some(&b))?;
//! let rescaled = ring.apply(&RingOp::Rescale, &product, None)?;
//! let masked = ring.apply(&RingOp::Add, &rescaled, Some(&rescaled))?;
//! assert_eq!(masked.len(), 64);
//! # let _ = q;
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::poly::PolyOp;
use std::fmt;

/// One operation in the executor's ciphertext-pipeline vocabulary.
///
/// Each variant carries a per-channel decomposition contract (see
/// [`PolyRing::channel_apply_at_into`](crate::PolyRing::channel_apply_at_into)):
/// the executor splits the operands once, fans one work item per
/// *output* channel into the work-stealing deques, and joins the
/// channel results with
/// [`PolyRing::join_at`](crate::PolyRing::join_at) — CRT recombination
/// over the basis the op produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RingOp {
    /// Polynomial multiplication (cyclic or negacyclic) — today's
    /// behavior, source-compatible with every existing polymul call
    /// site. Binary; output basis equals the input basis.
    Polymul(PolyOp),
    /// Coefficient-wise modular addition. Binary; output basis equals
    /// the input basis.
    Add,
    /// Coefficient-wise modular subtraction (first minus second).
    /// Binary; output basis equals the input basis.
    Sub,
    /// Drop the last RNS channel with the divide-and-round correction:
    /// `x ↦ round(x / q_last) mod (Q / q_last)`. Unary; needs at least
    /// two channels, output basis is the input basis minus its last
    /// prime.
    Rescale,
    /// Re-express the residues in a larger coprime basis (the input
    /// primes plus `extra_channels` freshly generated NTT primes) via
    /// Garner mixed-radix digits. Unary; the recombined value is
    /// unchanged — only its representation widens.
    BasisExtend {
        /// How many coprime channels to append to the basis.
        extra_channels: usize,
    },
}

impl RingOp {
    /// A short lowercase name for diagnostics, artifacts, and errors.
    pub fn name(&self) -> &'static str {
        match self {
            RingOp::Polymul(PolyOp::Cyclic) => "polymul-cyclic",
            RingOp::Polymul(PolyOp::Negacyclic) => "polymul-negacyclic",
            RingOp::Add => "add",
            RingOp::Sub => "sub",
            RingOp::Rescale => "rescale",
            RingOp::BasisExtend { .. } => "basis-extend",
        }
    }

    /// The number of operands the op consumes (1 or 2).
    pub fn arity(&self) -> usize {
        if self.is_binary() {
            2
        } else {
            1
        }
    }

    /// Whether the op consumes two operands.
    pub fn is_binary(&self) -> bool {
        matches!(self, RingOp::Polymul(_) | RingOp::Add | RingOp::Sub)
    }
}

impl fmt::Display for RingOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<PolyOp> for RingOp {
    fn from(op: PolyOp) -> Self {
        RingOp::Polymul(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_arity() {
        let ops = [
            (RingOp::Polymul(PolyOp::Cyclic), "polymul-cyclic", 2),
            (RingOp::Polymul(PolyOp::Negacyclic), "polymul-negacyclic", 2),
            (RingOp::Add, "add", 2),
            (RingOp::Sub, "sub", 2),
            (RingOp::Rescale, "rescale", 1),
            (RingOp::BasisExtend { extra_channels: 1 }, "basis-extend", 1),
        ];
        for (op, name, arity) in ops {
            assert_eq!(op.name(), name);
            assert_eq!(op.to_string(), name);
            assert_eq!(op.arity(), arity);
            assert_eq!(op.is_binary(), arity == 2);
        }
    }

    #[test]
    fn polymul_lifts_from_poly_op() {
        assert_eq!(
            RingOp::from(PolyOp::Negacyclic),
            RingOp::Polymul(PolyOp::Negacyclic)
        );
    }
}
