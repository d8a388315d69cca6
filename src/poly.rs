//! The object-safe [`PolyRing`] abstraction: one polynomial-ring
//! interface over both the single-modulus [`Ring`](crate::Ring) and the
//! sharded multi-modulus [`RnsRing`](crate::RnsRing).
//!
//! Callers that only need "multiply two polynomials in some ring" —
//! batch executors, benches, generic tests — program against
//! `Arc<dyn PolyRing>` and stop caring whether the modulus fits a
//! machine word. The trait also exposes the *channel* structure
//! (`channels`, [`PolyRing::split`],
//! [`PolyRing::channel_apply_at_into`], [`PolyRing::join_at`]) so a
//! scheduler can fan one request out into independent word-sized work
//! items: a `Ring` is one channel, an `RnsRing` is `k` channels joined
//! by CRT recombination. That is
//! exactly how [`RingExecutor`](crate::RingExecutor) turns a queue of
//! requests into `channels × batch` work-stealing items.
//!
//! ```
//! use std::sync::Arc;
//! use mqx::{core::primes, Coefficients, PolyOp, PolyRing, Ring, RnsRing};
//!
//! let word: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, 64)?);
//! let wide: Arc<dyn PolyRing> = Arc::new(RnsRing::auto(3, 64)?);
//! for ring in [&word, &wide] {
//!     assert_eq!(ring.size(), 64);
//!     assert!(ring.supports_negacyclic());
//! }
//! assert_eq!(word.channels(), 1);
//! assert_eq!(wide.channels(), 3);
//! assert!(wide.modulus_bits() > word.modulus_bits());
//!
//! let a = Coefficients::Word(vec![1; 64]);
//! let b = Coefficients::Word(vec![2; 64]);
//! let product = word.polymul(PolyOp::Cyclic, &a, &b)?;
//! assert_eq!(product.len(), 64);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::error::Error;
use crate::graph::{NodeWidths, OpGraph, Operand};
use crate::ops::RingOp;
use mqx_bignum::BigUint;
use std::borrow::{Borrow, Cow};

/// Which quotient ring a polynomial product runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolyOp {
    /// `ℤ_q[x]/(xⁿ − 1)` — plain convolution.
    Cyclic,
    /// `ℤ_q[x]/(xⁿ + 1)` — the RLWE workhorse (needs a `2n`-th root of
    /// unity in every channel field).
    Negacyclic,
}

/// Polynomial coefficients in the representation a ring natively
/// accepts: word-sized residues for a single-modulus [`Ring`], wide
/// integers for a multi-modulus [`RnsRing`].
///
/// [`Ring`]: crate::Ring
/// [`RnsRing`]: crate::RnsRing
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Coefficients {
    /// Residues below a word-sized modulus (`u128` with the top bits
    /// clear), as [`Ring`](crate::Ring) consumes.
    Word(Vec<u128>),
    /// Big-integer coefficients reduced below an RNS product modulus,
    /// as [`RnsRing`](crate::RnsRing) consumes.
    Big(Vec<BigUint>),
}

impl Coefficients {
    /// Number of coefficients.
    pub fn len(&self) -> usize {
        match self {
            Coefficients::Word(v) => v.len(),
            Coefficients::Big(v) => v.len(),
        }
    }

    /// Whether the polynomial has no coefficients.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The representation's name, for error messages: `"word"` or
    /// `"big"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Coefficients::Word(_) => "word",
            Coefficients::Big(_) => "big",
        }
    }

    /// The word-sized residues, if this is the word representation.
    pub fn as_words(&self) -> Option<&[u128]> {
        match self {
            Coefficients::Word(v) => Some(v),
            Coefficients::Big(_) => None,
        }
    }

    /// The big-integer coefficients, if this is the wide representation.
    pub fn as_bigs(&self) -> Option<&[BigUint]> {
        match self {
            Coefficients::Big(v) => Some(v),
            Coefficients::Word(_) => None,
        }
    }

    /// Consumes into word-sized residues, if this is the word
    /// representation.
    pub fn into_words(self) -> Option<Vec<u128>> {
        match self {
            Coefficients::Word(v) => Some(v),
            Coefficients::Big(_) => None,
        }
    }

    /// Consumes into big-integer coefficients, if this is the wide
    /// representation.
    pub fn into_bigs(self) -> Option<Vec<BigUint>> {
        match self {
            Coefficients::Big(v) => Some(v),
            Coefficients::Word(_) => None,
        }
    }
}

impl From<Vec<u128>> for Coefficients {
    fn from(v: Vec<u128>) -> Self {
        Coefficients::Word(v)
    }
}

impl From<Vec<BigUint>> for Coefficients {
    fn from(v: Vec<BigUint>) -> Self {
        Coefficients::Big(v)
    }
}

/// An immutable, shareable polynomial ring `ℤ_Q[x]/(xⁿ ± 1)`: the
/// object-safe interface both [`Ring`](crate::Ring) (one word-sized
/// modulus, one channel) and [`RnsRing`](crate::RnsRing) (`k` coprime
/// word-sized channels, CRT at the boundary) implement.
///
/// Every method takes `&self` and implementors are `Send + Sync`, so an
/// `Arc<dyn PolyRing>` can be driven from any number of threads — the
/// contract [`RingExecutor`](crate::RingExecutor) is built on.
///
/// An implementor provides seven methods: four shape queries
/// ([`size`](PolyRing::size), [`modulus_bits`](PolyRing::modulus_bits),
/// [`supports_negacyclic`](PolyRing::supports_negacyclic),
/// [`channels`](PolyRing::channels)) and the three steps every request
/// decomposes into:
///
/// 1. [`split_cow`](PolyRing::split_cow) each operand into `channels()`
///    residue vectors (validating length and range once, up front);
/// 2. run [`channel_apply_at_into`](PolyRing::channel_apply_at_into) —
///    the one evaluation primitive — for every output channel of every
///    node, independently, on any thread, in any order;
/// 3. [`join_at`](PolyRing::join_at) the output node's channels back
///    into coefficients: the single join of a request.
///
/// Everything else is provided on top of those:
/// [`apply_graph`](PolyRing::apply_graph) runs the three steps
/// sequentially for a whole [`OpGraph`], [`apply`](PolyRing::apply) and
/// the `polymul*` conveniences are its one-node case, and schedulers
/// distribute step 2.
pub trait PolyRing: Send + Sync {
    /// The transform size `n` (and required coefficient count).
    fn size(&self) -> usize;

    /// Width of the (product) modulus `Q` in bits.
    fn modulus_bits(&self) -> u64;

    /// Whether negacyclic products are available (every channel field
    /// has a `2n`-th root of unity).
    fn supports_negacyclic(&self) -> bool;

    /// Number of independent residue channels a product decomposes
    /// into: 1 for a single-modulus ring, `k` for an RNS ring — the
    /// ring's *native width*.
    fn channels(&self) -> usize;

    /// Decomposes one operand into `channels()` word-sized residue
    /// vectors (channel-major), validating length and coefficient range.
    ///
    /// A borrowed operand is only read. An owned one is the caller's to
    /// give up — [`RingExecutor`](crate::RingExecutor) hands over the
    /// operands it would otherwise drop — so a ring whose channel form
    /// *is* its coefficients keeps the vector instead of copying it:
    /// [`Ring`](crate::Ring) does, so submitting a word request copies
    /// no coefficients.
    ///
    /// # Errors
    ///
    /// [`Error::CoefficientKind`] when `coeffs` is not the
    /// representation this ring consumes; [`Error::LengthMismatch`] /
    /// [`Error::CoefficientOutOfRange`] from the underlying validation.
    fn split_cow(&self, coeffs: Cow<'_, Coefficients>) -> Result<Vec<Vec<u128>>, Error>;

    /// [`split_cow`](PolyRing::split_cow) of a borrowed operand.
    ///
    /// # Errors
    ///
    /// Those of [`split_cow`](PolyRing::split_cow).
    fn split(&self, coeffs: &Coefficients) -> Result<Vec<Vec<u128>>, Error> {
        self.split_cow(Cow::Borrowed(coeffs))
    }

    /// The evaluation primitive: runs one *output* channel of `op` over
    /// operands `width` channels wide, writing into a caller-owned
    /// vector. `a` (and `b`, for binary ops; unary ops pass `None`) hold
    /// `width` channel-major residue vectors over the basis an op chain
    /// has reached — the ring's native basis (as produced by
    /// [`split`](PolyRing::split)), truncated by rescales and/or
    /// extended by the ring's deterministic fresh primes. Intermediate
    /// results of a graph stay channel-major and feed the next node's
    /// call directly, with no CRT join in between.
    ///
    /// Work items receive the *whole* split — not just their own channel
    /// — because basis-changing ops need cross-channel inputs: a
    /// [`RingOp::Rescale`] output channel reads the dropped last channel,
    /// and a fresh [`RingOp::BasisExtend`] channel folds Garner digits of
    /// every input channel. The call is pure with respect to the ring:
    /// safe to make for different channels concurrently and in any
    /// order. `out` is cleared and overwritten — its allocation is
    /// reused, so a scheduler keeps one output buffer per worker — and
    /// on error its contents are unspecified.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedOp`] for ops the ring cannot execute at
    /// `width` channels, [`Error::OperandCountMismatch`] when `b` does
    /// not match the op's arity, [`Error::ChannelCountMismatch`] for an
    /// operand that is not `width` channels wide,
    /// [`Error::ChannelOutOfRange`] for a bad channel index, plus the
    /// per-channel kernel errors.
    fn channel_apply_at_into(
        &self,
        op: &RingOp,
        width: usize,
        channel: usize,
        a: &[Vec<u128>],
        b: Option<&[Vec<u128>]>,
        out: &mut Vec<u128>,
    ) -> Result<(), Error>;

    /// Recombines `width` channel-major vectors into coefficients in the
    /// ring's native representation: CRT recombination over the first
    /// `width` moduli of the ring's prefix chain (native primes,
    /// truncated or extended as an op chain rescaled/extended). This is
    /// the *single* join a request performs, at its output node only.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelCountMismatch`] when `channels.len() != width`,
    /// [`Error::UnsupportedOp`] for a width the ring cannot recombine.
    fn join_at(&self, width: usize, channels: Vec<Vec<u128>>) -> Result<Coefficients, Error>;

    /// Number of *output* channels `op` decomposes into when its
    /// operands are `width` channels wide — the fan-out a scheduler
    /// uses. Equal to `width` for basis-preserving ops; one less for
    /// [`RingOp::Rescale`]; larger for [`RingOp::BasisExtend`].
    ///
    /// The default supports the basis-preserving ops at the native
    /// width and rejects everything else; rings with a channel
    /// structure to drop or extend ([`RnsRing`](crate::RnsRing))
    /// override it.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedOp`] when the ring cannot execute `op` at
    /// `width` channels.
    fn op_output_channels_at(&self, op: &RingOp, width: usize) -> Result<usize, Error> {
        match op {
            RingOp::Polymul(_) | RingOp::Add | RingOp::Sub if width == self.channels() => Ok(width),
            _ => Err(Error::UnsupportedOp {
                op: op.name(),
                reason: "this ring only provides the basis-preserving ops at its native width",
            }),
        }
    }

    /// [`channel_apply_at_into`](PolyRing::channel_apply_at_into)
    /// returning a fresh vector.
    fn channel_apply_at(
        &self,
        op: &RingOp,
        width: usize,
        channel: usize,
        a: &[Vec<u128>],
        b: Option<&[Vec<u128>]>,
    ) -> Result<Vec<u128>, Error> {
        let mut out = Vec::new();
        self.channel_apply_at_into(op, width, channel, a, b, &mut out)?;
        Ok(out)
    }

    /// [`channel_apply_at_into`](PolyRing::channel_apply_at_into) at the
    /// ring's native width.
    fn channel_apply_into(
        &self,
        op: &RingOp,
        channel: usize,
        a: &[Vec<u128>],
        b: Option<&[Vec<u128>]>,
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.channel_apply_at_into(op, self.channels(), channel, a, b, out)
    }

    /// Evaluates a whole [`OpGraph`] sequentially on the calling thread
    /// with *resident residues*: operands are split once, every node
    /// chains over channel-major residue state via
    /// [`channel_apply_at_into`](PolyRing::channel_apply_at_into), and
    /// exactly one CRT join runs — at the output node. This is the
    /// sequential oracle the executor's dependency-aware fan-out is
    /// checked against, and the cheap path for callers without an
    /// executor.
    ///
    /// # Errors
    ///
    /// [`Error::OperandCountMismatch`] when `operands` does not match
    /// [`OpGraph::inputs`], [`Error::OperandLengthMismatch`] for
    /// unequal operand lengths, plus the split/apply/join errors (a
    /// ring that cannot execute some node at its chain width reports
    /// [`Error::UnsupportedOp`]).
    fn apply_graph(
        &self,
        graph: &OpGraph,
        operands: &[Coefficients],
    ) -> Result<Coefficients, Error> {
        evaluate(self, graph, operands)
    }

    /// Whole-request convenience for one [`RingOp`]: the one-node case
    /// of [`apply_graph`](PolyRing::apply_graph). Binary ops take the
    /// second operand in `b`; unary ops pass `None`.
    ///
    /// # Errors
    ///
    /// Those of [`apply_graph`](PolyRing::apply_graph), with
    /// [`Error::OperandCountMismatch`] naming the op.
    fn apply(
        &self,
        op: &RingOp,
        a: &Coefficients,
        b: Option<&Coefficients>,
    ) -> Result<Coefficients, Error> {
        let operands: Vec<&Coefficients> = std::iter::once(a).chain(b).collect();
        evaluate(self, &OpGraph::single(*op), &operands)
    }

    /// Whole-request convenience for one polynomial product.
    fn polymul(
        &self,
        op: PolyOp,
        a: &Coefficients,
        b: &Coefficients,
    ) -> Result<Coefficients, Error> {
        self.apply(&RingOp::Polymul(op), a, Some(b))
    }

    /// Cyclic product in `ℤ_Q[x]/(xⁿ − 1)` over the coefficient enum.
    ///
    /// Note: on a concrete [`Ring`](crate::Ring)/[`RnsRing`](crate::RnsRing)
    /// value the inherent slice-based method of the same name shadows
    /// this one; call through `dyn PolyRing`, a generic bound, or
    /// `PolyRing::polymul_cyclic(&ring, ..)`.
    fn polymul_cyclic(&self, a: &Coefficients, b: &Coefficients) -> Result<Coefficients, Error> {
        self.polymul(PolyOp::Cyclic, a, b)
    }

    /// Negacyclic product in `ℤ_Q[x]/(xⁿ + 1)` over the coefficient
    /// enum (shadowing note on [`PolyRing::polymul_cyclic`] applies).
    fn polymul_negacyclic(
        &self,
        a: &Coefficients,
        b: &Coefficients,
    ) -> Result<Coefficients, Error> {
        self.polymul(PolyOp::Negacyclic, a, b)
    }
}

/// One operand's residues, channel-major: `width` vectors of `n`.
type Split = Vec<Vec<u128>>;

/// The submit-time half of every evaluation, shared by the sequential
/// walk below (borrowed operands) and the executor (owned ones): check
/// the operand count against the graph, reject negacyclic products the
/// ring cannot run and unequal operand lengths, split every operand
/// once, and resolve each node's channel widths against this ring —
/// which also rejects ops the ring cannot execute at the width the
/// chain reaches them, before any work item runs.
pub(crate) fn split_and_plan<R: PolyRing + ?Sized>(
    ring: &R,
    graph: &OpGraph,
    operands: Vec<Cow<'_, Coefficients>>,
) -> Result<(Vec<Split>, Vec<NodeWidths>), Error> {
    let negacyclic = RingOp::Polymul(PolyOp::Negacyclic);
    if !ring.supports_negacyclic() && graph.nodes().iter().any(|n| n.op() == &negacyclic) {
        return Err(Error::NoNegacyclicSupport { n: ring.size() });
    }
    if operands.len() != graph.inputs() {
        return Err(Error::OperandCountMismatch {
            op: graph.name(),
            expected: graph.inputs(),
            got: operands.len(),
        });
    }
    // Mismatched operand lengths get a dedicated variant before any
    // split runs — never a panic inside a kernel.
    for pair in operands.windows(2) {
        let (a, b) = (pair[0].len(), pair[1].len());
        if a != b {
            return Err(Error::OperandLengthMismatch { a, b });
        }
    }
    let inputs = operands
        .into_iter()
        .map(|c| ring.split_cow(c))
        .collect::<Result<Vec<_>, _>>()?;
    // Defend against degenerate PolyRing impls: a zero-channel or
    // uneven split would index out of range here, and wrap the
    // executor's remaining-items counter, leaving a handle waiting
    // forever.
    let channels = inputs.first().map_or(0, Vec::len);
    if channels == 0 || inputs.iter().any(|i| i.len() != channels) {
        return Err(Error::ChannelCountMismatch {
            expected: ring.channels().max(1),
            got: inputs.iter().map(Vec::len).min().unwrap_or(0),
        });
    }
    let plan = graph.plan_widths(ring.channels(), |op, w| ring.op_output_channels_at(op, w))?;
    if plan.iter().any(|w| w.output == 0) {
        return Err(Error::ChannelCountMismatch {
            expected: ring.channels().max(1),
            got: 0,
        });
    }
    Ok((inputs, plan))
}

/// The resident walk behind [`PolyRing::apply`] and
/// [`PolyRing::apply_graph`]: nodes in topological order, every output
/// channel on the calling thread, one join at the output node.
fn evaluate<R: PolyRing + ?Sized, C: Borrow<Coefficients>>(
    ring: &R,
    graph: &OpGraph,
    operands: &[C],
) -> Result<Coefficients, Error> {
    let borrowed = operands.iter().map(|c| Cow::Borrowed(c.borrow()));
    let (inputs, plan) = split_and_plan(ring, graph, borrowed.collect())?;
    let dangling = |node| Error::InvalidGraph {
        node,
        reason: "operand references a value the graph evaluation has not produced",
    };
    let mut results: Vec<Split> = Vec::with_capacity(graph.len());
    for (id, (node, widths)) in graph.nodes().iter().zip(&plan).enumerate() {
        let resolve = |operand: &Operand| -> Result<&[Vec<u128>], Error> {
            match *operand {
                Operand::Input(i) => inputs.get(i),
                Operand::Node(j) => results.get(j),
            }
            .map(Vec::as_slice)
            .ok_or_else(|| dangling(id))
        };
        let a = resolve(node.operands().first().ok_or_else(|| dangling(id))?)?;
        let b = node.operands().get(1).map(resolve).transpose()?;
        let parts = (0..widths.output)
            .map(|ch| ring.channel_apply_at(node.op(), widths.input, ch, a, b))
            .collect::<Result<Vec<_>, _>>()?;
        results.push(parts);
    }
    let out = graph.output();
    let width = plan.get(out).ok_or_else(|| dangling(out))?.output;
    ring.join_at(width, results.swap_remove(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ring, RnsRing};
    use mqx_core::primes;
    use std::sync::Arc;

    const N: usize = 64;

    fn poly(n: usize, q: u128, seed: u64) -> Vec<u128> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                u128::from(state) % q
            })
            .collect()
    }

    #[test]
    fn trait_objects_cover_both_ring_kinds() {
        let rings: Vec<Arc<dyn PolyRing>> = vec![
            Arc::new(Ring::auto(primes::Q124, N).unwrap()),
            Arc::new(RnsRing::auto(2, N).unwrap()),
        ];
        assert_eq!(rings[0].channels(), 1);
        assert_eq!(rings[1].channels(), 2);
        for ring in &rings {
            assert_eq!(ring.size(), N);
            assert!(ring.supports_negacyclic());
            assert!(ring.modulus_bits() > 60);
        }
    }

    #[test]
    fn generic_polymul_matches_inherent_api() {
        let ring = Ring::auto(primes::Q124, N).unwrap();
        let a = poly(N, primes::Q124, 1);
        let b = poly(N, primes::Q124, 2);
        let via_trait = ring
            .polymul(PolyOp::Negacyclic, &a.clone().into(), &b.clone().into())
            .unwrap();
        assert_eq!(
            via_trait,
            Coefficients::Word(ring.polymul_negacyclic(&a, &b).unwrap())
        );
        let cyclic = PolyRing::polymul_cyclic(&ring, &a.clone().into(), &b.clone().into()).unwrap();
        assert_eq!(
            cyclic.into_words().unwrap(),
            ring.polymul_cyclic(&a, &b).unwrap()
        );
    }

    #[test]
    fn split_then_channels_then_join_equals_polymul() {
        let ring = RnsRing::auto(3, N).unwrap();
        let q = ring.product_modulus().clone();
        let a: Vec<BigUint> = (0..N as u64).map(BigUint::from).collect();
        let b: Vec<BigUint> = (0..N as u64).map(|i| BigUint::from(i * i + 1)).collect();
        let (ca, cb) = (Coefficients::Big(a), Coefficients::Big(b));
        let sa = ring.split(&ca).unwrap();
        let sb = ring.split(&cb).unwrap();
        assert_eq!(sa.len(), 3);
        // Channels in arbitrary order: results feed join positionally.
        let mut parts = vec![Vec::new(); 3];
        for ch in [2, 0, 1] {
            parts[ch] = ring
                .channel_apply_at(&RingOp::Polymul(PolyOp::Negacyclic), 3, ch, &sa, Some(&sb))
                .unwrap();
        }
        let joined = ring.join_at(3, parts).unwrap();
        assert_eq!(joined, ring.polymul(PolyOp::Negacyclic, &ca, &cb).unwrap());
        assert!(joined.as_bigs().unwrap().iter().all(|c| c < &q));
    }

    #[test]
    fn wrong_coefficient_kind_is_reported() {
        let word = Ring::auto(primes::Q124, N).unwrap();
        let wide = RnsRing::auto(2, N).unwrap();
        let bigs = Coefficients::Big(vec![BigUint::zero(); N]);
        let words = Coefficients::Word(vec![0; N]);
        assert!(matches!(
            word.split(&bigs).unwrap_err(),
            Error::CoefficientKind {
                expected: "word",
                got: "big"
            }
        ));
        assert!(matches!(
            wide.split(&words).unwrap_err(),
            Error::CoefficientKind {
                expected: "big",
                got: "word"
            }
        ));
    }

    #[test]
    fn out_of_range_channel_is_rejected() {
        let ring = Ring::auto(primes::Q124, N).unwrap();
        let a = poly(N, primes::Q124, 3);
        let op = RingOp::Polymul(PolyOp::Cyclic);
        let one = [a.clone()];
        assert!(matches!(
            ring.channel_apply_at(&op, 1, 1, &one, Some(&one))
                .unwrap_err(),
            Error::ChannelOutOfRange {
                channel: 1,
                channels: 1
            }
        ));
        let rns = RnsRing::auto(2, N).unwrap();
        let two = [a.clone(), a];
        assert!(matches!(
            rns.channel_apply_at(&op, 2, 5, &two, Some(&two))
                .unwrap_err(),
            Error::ChannelOutOfRange {
                channel: 5,
                channels: 2
            }
        ));
    }

    #[test]
    fn coefficient_accessors_are_consistent() {
        let w = Coefficients::Word(vec![1, 2, 3]);
        let b = Coefficients::Big(vec![BigUint::from(9_u64)]);
        assert_eq!((w.len(), w.kind()), (3, "word"));
        assert_eq!((b.len(), b.kind()), (1, "big"));
        assert!(!w.is_empty());
        assert!(w.as_words().is_some() && w.as_bigs().is_none());
        assert!(b.as_bigs().is_some() && b.as_words().is_none());
        assert_eq!(w.clone().into_words().unwrap(), vec![1, 2, 3]);
        assert!(b.clone().into_words().is_none());
        assert_eq!(b.into_bigs().unwrap(), vec![BigUint::from(9_u64)]);
    }
}
