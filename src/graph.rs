//! [`OpGraph`]: dependency graphs of [`RingOp`] nodes — the request
//! shape that lets the executor keep a chain's residues *resident*
//! instead of CRT-recombining between ops.
//!
//! PR 6 taught the executor the single-op vocabulary; this module turns
//! "one op per request" into "one dependency graph per request". A graph
//! names external **inputs** (operands the caller supplies as
//! [`Coefficients`](crate::Coefficients)), **nodes** (one [`RingOp`]
//! each, wired to inputs or to earlier nodes), and one **output** node
//! whose result is the request's product. Between nodes nothing is ever
//! recombined: every intermediate stays channel-major residues, and the
//! single CRT join runs once, at the output — the data-movement saving
//! the source paper attributes to fused composite kernels.
//!
//! Validation happens at build, not inside a worker. Each
//! [`OpGraphBuilder::node`] checks its arity and operand references: a
//! node may name only declared inputs and nodes appended before it, so
//! builder order is a topological order and cycles cannot be written.
//! [`OpGraphBuilder::build`] then checks the output reference,
//! channel-count flow through the basis-changing ops (both operands of a
//! binary node must sit in the same basis), and reachability (every
//! non-output node must feed the output — a dead node would burn worker
//! time for an unobservable result).
//!
//! # Composite kernels
//!
//! The canned builders construct the two composites real schemes lean
//! on:
//!
//! * [`OpGraph::relinearize`] — polymul → basis-extend → rescale, the
//!   keyswitching/relinearization shape (raise the product into an
//!   extended basis, scale the extension back out);
//! * [`OpGraph::multiply_accumulate`] — `Σᵢ aᵢ·bᵢ` as a polymul fan-in
//!   chained through adds, the inner-product shape.
//!
//! ```
//! use mqx::{OpGraph, Operand, PolyOp, PolyRing, RingOp, RnsRing};
//! use mqx::bignum::BigUint;
//!
//! // (a·b + c) by hand: two inputs into a polymul, one into an add.
//! let mut g = OpGraph::builder(3);
//! let ab = g.polymul(PolyOp::Negacyclic, Operand::Input(0), Operand::Input(1))?;
//! let sum = g.add(ab, Operand::Input(2))?;
//! let graph = g.build(sum)?;
//! assert_eq!((graph.inputs(), graph.len()), (3, 2));
//!
//! // Evaluate it sequentially (the executor runs the same graph
//! // fanned out across workers).
//! let ring = RnsRing::auto(2, 64)?;
//! let x: Vec<BigUint> = (0..64_u64).map(BigUint::from).collect();
//! let ops: Vec<_> = (0..3).map(|_| x.clone().into()).collect();
//! let out = ring.apply_graph(&graph, &ops)?;
//! assert_eq!(out.len(), 64);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::error::Error;
use crate::ops::RingOp;
use crate::poly::PolyOp;
use std::fmt;

/// Where one node operand comes from: an external graph input or the
/// output of an earlier node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The `i`-th external operand submitted with the request.
    Input(usize),
    /// The output of graph node `j`.
    Node(usize),
}

/// One node of an [`OpGraph`]: a [`RingOp`] and the operand edges
/// feeding it (exactly [`RingOp::arity`] of them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphNode {
    op: RingOp,
    operands: Vec<Operand>,
}

impl GraphNode {
    /// The node's operation.
    pub fn op(&self) -> &RingOp {
        &self.op
    }

    /// The node's operand edges, in argument order.
    pub fn operands(&self) -> &[Operand] {
        &self.operands
    }
}

/// A validated dependency graph of ring operations: the unit of work a
/// [`RingExecutor`](crate::RingExecutor) schedules with resident
/// residues.
///
/// Nodes are stored in a topological order (every operand references an
/// input or a *lower-indexed* node), so sequential evaluation is a plain
/// forward walk and the executor's indegree countdown never deadlocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpGraph {
    inputs: usize,
    nodes: Vec<GraphNode>,
    output: usize,
}

impl fmt::Display for OpGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op-graph({} inputs, {} nodes -> {})",
            self.inputs,
            self.nodes.len(),
            self.nodes[self.output].op
        )
    }
}

impl OpGraph {
    /// Starts building a graph over `inputs` external operands.
    pub fn builder(inputs: usize) -> OpGraphBuilder {
        OpGraphBuilder {
            inputs,
            nodes: Vec::new(),
        }
    }

    /// The single-node graph of `op` over its own arity of fresh inputs
    /// — what the per-op [`RingRequest`](crate::RingRequest)
    /// constructors build.
    pub fn single(op: RingOp) -> OpGraph {
        let arity = op.arity();
        OpGraph {
            inputs: arity,
            nodes: vec![GraphNode {
                op,
                operands: (0..arity).map(Operand::Input).collect(),
            }],
            output: 0,
        }
    }

    /// The relinearization/keyswitching composite: `polymul(in₀, in₁)` →
    /// `basis-extend` by `extra_channels` → `rescale` (dropping the last
    /// extension prime back out). Two inputs, one output, exactly one
    /// CRT join when executed.
    ///
    /// # Panics
    ///
    /// Never for `extra_channels ≥ 1`; a zero extension is rejected at
    /// submit by the ring, like the standalone op.
    pub fn relinearize(op: PolyOp, extra_channels: usize) -> OpGraph {
        let mut g = OpGraph::builder(2);
        let steps = (|| {
            let product = g.polymul(op, Operand::Input(0), Operand::Input(1))?;
            let raised = g.basis_extend(product, extra_channels)?;
            let scaled = g.rescale(raised)?;
            g.build(scaled)
        })();
        steps.expect("the relinearize chain is statically valid")
    }

    /// The inner-product composite `Σᵢ aᵢ·bᵢ` over `terms` operand
    /// pairs: inputs are interleaved `[a₀, b₀, a₁, b₁, …]`, the partial
    /// products fold through a chain of adds, and the whole sum is one
    /// request with one CRT join.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidGraph`] for `terms == 0`.
    pub fn multiply_accumulate(op: PolyOp, terms: usize) -> Result<OpGraph, Error> {
        if terms == 0 {
            return Err(Error::InvalidGraph {
                node: 0,
                reason: "a multiply-accumulate needs at least one operand pair",
            });
        }
        let mut g = OpGraph::builder(2 * terms);
        let mut acc = g.polymul(op, Operand::Input(0), Operand::Input(1))?;
        for term in 1..terms {
            let product = g.polymul(op, Operand::Input(2 * term), Operand::Input(2 * term + 1))?;
            acc = g.add(acc, product)?;
        }
        g.build(acc)
    }

    /// Number of external operands the graph consumes.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for a validated
    /// graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes, in topological order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Index of the output node.
    pub fn output(&self) -> usize {
        self.output
    }

    /// The output node's op — what the request "is" at its root (a
    /// single-node graph's only op).
    pub fn output_op(&self) -> &RingOp {
        &self.nodes[self.output].op
    }

    /// What operand-count errors call this graph: a single-node graph
    /// reads as its op (a one-op request is reported as that op),
    /// anything larger as `"op-graph"`.
    pub(crate) fn name(&self) -> &'static str {
        match self.nodes.as_slice() {
            [only] => only.op.name(),
            _ => "op-graph",
        }
    }

    /// Symbolic channel-count flow: each node's basis, tracked as a
    /// signed delta against the ring's native width (`Rescale` −1,
    /// `BasisExtend` +extra). Binary nodes must combine operands with
    /// equal deltas — with bases forming a prefix chain (extend appends,
    /// rescale drops from the end), equal width means equal basis.
    fn validate_flow(&self) -> Result<(), Error> {
        let mut delta = vec![0_i64; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            let operand_delta = |operand: &Operand| match *operand {
                Operand::Input(_) => 0,
                Operand::Node(j) => delta[j],
            };
            let first = node.operands.first().map_or(0, operand_delta);
            if node.operands.iter().any(|o| operand_delta(o) != first) {
                return Err(Error::InvalidGraph {
                    node: id,
                    reason: "binary operands sit in different bases (unequal channel counts)",
                });
            }
            delta[id] = match node.op {
                RingOp::Rescale => first - 1,
                RingOp::BasisExtend { extra_channels } => first + extra_channels as i64,
                _ => first,
            };
        }
        Ok(())
    }

    /// Every non-output node must be an ancestor of the output: an
    /// unreachable node would run kernels whose result nobody observes.
    /// (A corollary: the output node itself can have no successors, so
    /// its completion is the whole graph's completion.)
    fn validate_reachability(&self) -> Result<(), Error> {
        let mut used = vec![false; self.nodes.len()];
        used[self.output] = true;
        // Nodes are topologically sorted, so one reverse sweep settles
        // reachability.
        for id in (0..self.nodes.len()).rev() {
            if !used[id] {
                return Err(Error::InvalidGraph {
                    node: id,
                    reason: "node does not feed the output (dead intermediate)",
                });
            }
            for operand in &self.nodes[id].operands {
                if let Operand::Node(j) = *operand {
                    used[j] = true;
                }
            }
        }
        Ok(())
    }

    /// Resolves each node's input/output channel widths on a ring with
    /// `channels` native channels, consulting `out_width(op, in_width)`
    /// (i.e. [`PolyRing::op_output_channels_at`]) per node — the
    /// ring-specific half of validation, run at submit.
    ///
    /// [`PolyRing::op_output_channels_at`]: crate::PolyRing::op_output_channels_at
    pub(crate) fn plan_widths(
        &self,
        channels: usize,
        mut out_width: impl FnMut(&RingOp, usize) -> Result<usize, Error>,
    ) -> Result<Vec<NodeWidths>, Error> {
        let mut plan: Vec<NodeWidths> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let width_of = |operand: &Operand| match *operand {
                Operand::Input(_) => channels,
                Operand::Node(j) => plan[j].output,
            };
            let input = node.operands.first().map_or(channels, width_of);
            if node.operands.iter().any(|o| width_of(o) != input) {
                return Err(Error::InvalidGraph {
                    node: id,
                    reason: "binary operands sit in different bases (unequal channel counts)",
                });
            }
            let output = out_width(&node.op, input)?;
            plan.push(NodeWidths { input, output });
        }
        Ok(plan)
    }
}

/// Per-node channel widths resolved against a concrete ring (see
/// [`OpGraph::plan_widths`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeWidths {
    /// Channel count of the node's operands.
    pub(crate) input: usize,
    /// Channel count of the node's result — the executor's fan-out
    /// width for the node.
    pub(crate) output: usize,
}

/// Incremental [`OpGraph`] construction: append nodes (each may only
/// reference inputs and already-appended nodes, so cycles are impossible
/// by construction), then [`build`](OpGraphBuilder::build) with the
/// output node.
#[derive(Clone, Debug)]
pub struct OpGraphBuilder {
    inputs: usize,
    nodes: Vec<GraphNode>,
}

impl OpGraphBuilder {
    /// Appends one node and returns the [`Operand`] naming its output.
    ///
    /// # Errors
    ///
    /// [`Error::OperandCountMismatch`] when `operands` does not match
    /// the op's arity; [`Error::InvalidGraph`] for a dangling operand
    /// (an undeclared input, or a node not yet appended).
    pub fn node(&mut self, op: RingOp, operands: Vec<Operand>) -> Result<Operand, Error> {
        let id = self.nodes.len();
        if operands.len() != op.arity() {
            return Err(Error::OperandCountMismatch {
                op: op.name(),
                expected: op.arity(),
                got: operands.len(),
            });
        }
        for operand in &operands {
            let dangling = match *operand {
                Operand::Input(i) => i >= self.inputs,
                Operand::Node(j) => j >= id,
            };
            if dangling {
                return Err(Error::InvalidGraph {
                    node: id,
                    reason: "operand references an input or node the builder has not seen",
                });
            }
        }
        self.nodes.push(GraphNode { op, operands });
        Ok(Operand::Node(id))
    }

    /// Appends a polynomial product node.
    ///
    /// # Errors
    ///
    /// See [`node`](OpGraphBuilder::node).
    pub fn polymul(&mut self, op: PolyOp, a: Operand, b: Operand) -> Result<Operand, Error> {
        self.node(RingOp::Polymul(op), vec![a, b])
    }

    /// Appends a coefficient-wise addition node.
    ///
    /// # Errors
    ///
    /// See [`node`](OpGraphBuilder::node).
    pub fn add(&mut self, a: Operand, b: Operand) -> Result<Operand, Error> {
        self.node(RingOp::Add, vec![a, b])
    }

    /// Appends a coefficient-wise subtraction node (`a − b`).
    ///
    /// # Errors
    ///
    /// See [`node`](OpGraphBuilder::node).
    pub fn sub(&mut self, a: Operand, b: Operand) -> Result<Operand, Error> {
        self.node(RingOp::Sub, vec![a, b])
    }

    /// Appends a modulus-rescale node (drop the basis's last channel,
    /// divide-and-round).
    ///
    /// # Errors
    ///
    /// See [`node`](OpGraphBuilder::node).
    pub fn rescale(&mut self, a: Operand) -> Result<Operand, Error> {
        self.node(RingOp::Rescale, vec![a])
    }

    /// Appends a basis-extension node (append `extra_channels` fresh
    /// coprime primes).
    ///
    /// # Errors
    ///
    /// See [`node`](OpGraphBuilder::node).
    pub fn basis_extend(&mut self, a: Operand, extra_channels: usize) -> Result<Operand, Error> {
        self.node(RingOp::BasisExtend { extra_channels }, vec![a])
    }

    /// Finishes the graph with `output` as its result node, running the
    /// full structural validation.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidGraph`] when `output` names an input or a node
    /// the builder does not hold, when a node does not feed the output,
    /// or when binary operands cannot sit in the same basis.
    pub fn build(self, output: Operand) -> Result<OpGraph, Error> {
        let Operand::Node(output) = output else {
            return Err(Error::InvalidGraph {
                node: 0,
                reason: "the output must be a node, not a passthrough of an input",
            });
        };
        if output >= self.nodes.len() {
            return Err(Error::InvalidGraph {
                node: output,
                reason: "output references a node the graph does not contain",
            });
        }
        // `node` admitted only backward edges, so the nodes are already
        // in topological order.
        let graph = OpGraph {
            inputs: self.inputs,
            nodes: self.nodes,
            output,
        };
        graph.validate_flow()?;
        graph.validate_reachability()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn polymul() -> RingOp {
        RingOp::Polymul(PolyOp::Cyclic)
    }

    #[test]
    fn builder_constructs_topological_graphs() {
        let mut g = OpGraph::builder(4);
        let p1 = g.polymul(PolyOp::Cyclic, Operand::Input(0), Operand::Input(1));
        let p1 = p1.unwrap();
        let p2 = g
            .polymul(PolyOp::Cyclic, Operand::Input(2), Operand::Input(3))
            .unwrap();
        let sum = g.add(p1, p2).unwrap();
        let graph = g.build(sum).unwrap();
        assert_eq!(graph.inputs(), 4);
        assert_eq!(graph.len(), 3);
        assert!(!graph.is_empty());
        assert_eq!(graph.output(), 2);
        assert_eq!(graph.output_op(), &RingOp::Add);
        assert_eq!(graph.nodes()[0].op(), &polymul());
        assert_eq!(
            graph.nodes()[2].operands(),
            &[Operand::Node(0), Operand::Node(1)]
        );
        assert!(graph.to_string().contains("3 nodes"));
    }

    #[test]
    fn single_matches_op_arity() {
        let g = OpGraph::single(RingOp::Rescale);
        assert_eq!((g.inputs(), g.len(), g.output()), (1, 1, 0));
        let g = OpGraph::single(RingOp::Add);
        assert_eq!(g.inputs(), 2);
        assert_eq!(
            g.nodes()[0].operands(),
            &[Operand::Input(0), Operand::Input(1)]
        );
    }

    #[test]
    fn arity_and_dangling_references_are_rejected() {
        let mut g = OpGraph::builder(1);
        assert!(matches!(
            g.node(RingOp::Add, vec![Operand::Input(0)]).unwrap_err(),
            Error::OperandCountMismatch {
                op: "add",
                expected: 2,
                got: 1
            }
        ));
        assert!(matches!(
            g.node(RingOp::Rescale, vec![Operand::Input(3)])
                .unwrap_err(),
            Error::InvalidGraph { node: 0, .. }
        ));
        assert!(matches!(
            g.node(RingOp::Rescale, vec![Operand::Node(0)]).unwrap_err(),
            Error::InvalidGraph { node: 0, .. }
        ));
        // Output must be a node.
        let mut g = OpGraph::builder(1);
        g.rescale(Operand::Input(0)).unwrap();
        assert!(matches!(
            g.clone().build(Operand::Input(0)).unwrap_err(),
            Error::InvalidGraph { .. }
        ));
        // ... and one the builder holds.
        assert!(matches!(
            g.build(Operand::Node(9)).unwrap_err(),
            Error::InvalidGraph { node: 9, .. }
        ));
        // An empty graph has no output node.
        assert!(matches!(
            OpGraph::builder(1).build(Operand::Node(0)).unwrap_err(),
            Error::InvalidGraph { .. }
        ));
    }

    #[test]
    fn channel_flow_mismatches_are_rejected_at_build() {
        // add(rescale(x), y): the rescaled arm dropped a channel, so the
        // operands can never sit in the same basis.
        let mut g = OpGraph::builder(2);
        let dropped = g.rescale(Operand::Input(0)).unwrap();
        assert!(matches!(
            g.add(dropped, Operand::Input(1))
                .map(|o| g.clone().build(o)),
            Ok(Err(Error::InvalidGraph { node: 1, .. }))
        ));

        // extend-then-rescale returns to the native width, so mixing
        // with a fresh input is fine.
        let mut g = OpGraph::builder(2);
        let raised = g.basis_extend(Operand::Input(0), 1).unwrap();
        let lowered = g.rescale(raised).unwrap();
        let sum = g.add(lowered, Operand::Input(1)).unwrap();
        assert!(g.build(sum).is_ok());
    }

    #[test]
    fn dead_nodes_are_rejected() {
        let mut g = OpGraph::builder(2);
        let used = g
            .polymul(PolyOp::Cyclic, Operand::Input(0), Operand::Input(1))
            .unwrap();
        let _dead = g.add(Operand::Input(0), Operand::Input(1)).unwrap();
        assert!(matches!(
            g.build(used).unwrap_err(),
            Error::InvalidGraph { node: 1, .. }
        ));
    }

    #[test]
    fn canned_builders_have_the_documented_shapes() {
        let relin = OpGraph::relinearize(PolyOp::Negacyclic, 2);
        assert_eq!((relin.inputs(), relin.len()), (2, 3));
        assert_eq!(relin.output_op(), &RingOp::Rescale);
        assert_eq!(
            relin.nodes()[1].op(),
            &RingOp::BasisExtend { extra_channels: 2 }
        );

        let mac = OpGraph::multiply_accumulate(PolyOp::Cyclic, 3).unwrap();
        // 3 polymuls + 2 adds, 6 inputs.
        assert_eq!((mac.inputs(), mac.len()), (6, 5));
        assert_eq!(mac.output_op(), &RingOp::Add);

        let single = OpGraph::multiply_accumulate(PolyOp::Cyclic, 1).unwrap();
        assert_eq!((single.inputs(), single.len()), (2, 1));
        assert!(matches!(
            OpGraph::multiply_accumulate(PolyOp::Cyclic, 0).unwrap_err(),
            Error::InvalidGraph { .. }
        ));
    }

    #[test]
    fn plan_widths_flows_through_basis_changes() {
        let relin = OpGraph::relinearize(PolyOp::Cyclic, 1);
        let plan = relin
            .plan_widths(3, |op, w| {
                Ok(match op {
                    RingOp::Rescale => w - 1,
                    RingOp::BasisExtend { extra_channels } => w + extra_channels,
                    _ => w,
                })
            })
            .unwrap();
        let widths: Vec<(usize, usize)> = plan.iter().map(|p| (p.input, p.output)).collect();
        assert_eq!(widths, vec![(3, 3), (3, 4), (4, 3)]);
    }
}
