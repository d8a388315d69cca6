//! Integration: op-graph requests end to end. The relinearize composite
//! (polymul → basis-extend → rescale) is pinned bit-for-bit against the
//! sequential `apply` chain over per-width rings and against the
//! OpenFHE-style `FheRnsNtt::relinearize` big-integer oracle, with a
//! counting ring proving exactly **one** CRT join runs per graph. A
//! seeded generative sweep then drives random valid graphs (2–8 nodes,
//! mixed `Rescale`/`BasisExtend`) through the executor and demands
//! bit-identity with `apply_graph` and node-by-node `apply` on `Ring`
//! and `RnsRing` for k ∈ {1, 2, 3}. Queue accounting and QoS (deadline
//! sheds, front-door admission) are re-checked at graph granularity.

mod common;

use common::{occupy_worker, GatedRing, N};
use mqx::baseline::fhe::FheRnsNtt;
use mqx::bignum::BigUint;
use mqx::core::{nt, primes, Modulus};
use mqx::frontdoor::{block_on, FrontDoor};
use mqx::{
    Coefficients, Error, OpGraph, Operand, PolyOp, PolyRing, Ring, RingExecutor, RingOp,
    RingRequest, RnsRing,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The k = 1, 2, 3 bases the seeded sweep shards (all NTT-friendly at
/// `N` for cyclic products).
const BASES: [&[u128]; 3] = [
    &[primes::Q62],
    &[primes::Q62, primes::Q30],
    &[primes::Q62, primes::Q30, primes::Q14],
];

fn big_coeffs(n: usize, product: &BigUint, seed: u64) -> Vec<BigUint> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let hi = BigUint::from(u128::from(state));
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            hi.mul_mod(&BigUint::from(u128::from(state)), product)
        })
        .collect()
}

fn word_coeffs(n: usize, q: u128, seed: u64) -> Vec<u128> {
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

/// Wraps any ring and counts CRT joins — the resident-residue promise
/// is that a whole graph performs exactly one.
struct JoinCountingRing {
    inner: Arc<dyn PolyRing>,
    joins: AtomicUsize,
}

impl JoinCountingRing {
    fn new(inner: Arc<dyn PolyRing>) -> JoinCountingRing {
        JoinCountingRing {
            inner,
            joins: AtomicUsize::new(0),
        }
    }

    fn joins(&self) -> usize {
        self.joins.load(Ordering::Acquire)
    }
}

impl PolyRing for JoinCountingRing {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn modulus_bits(&self) -> u64 {
        self.inner.modulus_bits()
    }
    fn supports_negacyclic(&self) -> bool {
        self.inner.supports_negacyclic()
    }
    fn channels(&self) -> usize {
        self.inner.channels()
    }
    fn split_cow(&self, coeffs: Cow<'_, Coefficients>) -> Result<Vec<Vec<u128>>, Error> {
        self.inner.split_cow(coeffs)
    }
    fn channel_apply_at_into(
        &self,
        op: &RingOp,
        width: usize,
        channel: usize,
        a: &[Vec<u128>],
        b: Option<&[Vec<u128>]>,
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.inner
            .channel_apply_at_into(op, width, channel, a, b, out)
    }
    fn join_at(&self, width: usize, channels: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
        self.joins.fetch_add(1, Ordering::AcqRel);
        self.inner.join_at(width, channels)
    }
    fn op_output_channels_at(&self, op: &RingOp, width: usize) -> Result<usize, Error> {
        self.inner.op_output_channels_at(op, width)
    }
}

/// The acceptance pin: the relinearize graph on a 3-channel `RnsRing`
/// is bit-identical to the sequential `apply` chain over per-width
/// rings AND to the `FheRnsNtt` big-integer oracle, with exactly one
/// CRT join however it is executed.
#[test]
fn relinearize_graph_matches_apply_chain_and_baseline_with_one_join() {
    let rns = Arc::new(RnsRing::builder(N).moduli(BASES[2]).build().unwrap());
    let product = rns.product_modulus().clone();
    let graph = OpGraph::relinearize(PolyOp::Cyclic, 1);

    let a = big_coeffs(N, &product, 0x1E11);
    let b = big_coeffs(N, &product, 0x2E22);
    let operands = vec![Coefficients::Big(a.clone()), Coefficients::Big(b.clone())];

    // Sequential chain: polymul and extend on the native ring, rescale
    // on the ring whose basis the chain has reached (native + 1 fresh
    // prime) — the per-width rings the resident path must reproduce.
    let extended = rns.extended_moduli(1).unwrap();
    let ext_ring = RnsRing::builder(N).moduli(&extended).build().unwrap();
    let x = rns
        .apply(
            &RingOp::Polymul(PolyOp::Cyclic),
            &operands[0],
            Some(&operands[1]),
        )
        .unwrap();
    let x = rns
        .apply(&RingOp::BasisExtend { extra_channels: 1 }, &x, None)
        .unwrap();
    let chained = ext_ring.apply(&RingOp::Rescale, &x, None).unwrap();

    // The independent big-integer oracle (division-based baseline).
    let omegas: Vec<u128> = BASES[2]
        .iter()
        .map(|&q| {
            nt::root_of_unity(&Modulus::new_prime(q).unwrap(), N as u64).expect("root exists")
        })
        .collect();
    let fhe = FheRnsNtt::new(BASES[2], N, &omegas);
    let oracle = Coefficients::Big(fhe.relinearize(&a, &b, &extended[3..]));
    assert_eq!(chained, oracle, "apply chain vs baseline oracle");

    // Resident sequential evaluation: one join.
    let counting = Arc::new(JoinCountingRing::new(rns.clone() as Arc<dyn PolyRing>));
    let resident = counting.apply_graph(&graph, &operands).unwrap();
    assert_eq!(resident, chained, "apply_graph vs apply chain");
    assert_eq!(counting.joins(), 1, "apply_graph: exactly one CRT join");

    // Executor fan-out: same bits, still one join per graph.
    let counting = Arc::new(JoinCountingRing::new(rns as Arc<dyn PolyRing>));
    let dyn_ring: Arc<dyn PolyRing> = counting.clone();
    let pool = RingExecutor::new(2).unwrap();
    let served = pool
        .submit(&dyn_ring, RingRequest::graph(graph, operands))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(served, chained, "executor graph vs apply chain");
    assert_eq!(counting.joins(), 1, "executor: exactly one CRT join");
}

#[test]
fn multiply_accumulate_graph_matches_sequential_ops() {
    let rns = Arc::new(RnsRing::builder(N).moduli(BASES[1]).build().unwrap());
    let product = rns.product_modulus().clone();
    let graph = OpGraph::multiply_accumulate(PolyOp::Cyclic, 3).unwrap();

    let operands: Vec<Coefficients> = (0..6_u64)
        .map(|i| Coefficients::Big(big_coeffs(N, &product, 0xACC0 + i)))
        .collect();
    let mul = |i: usize| {
        rns.apply(
            &RingOp::Polymul(PolyOp::Cyclic),
            &operands[2 * i],
            Some(&operands[2 * i + 1]),
        )
        .unwrap()
    };
    let mut expected = mul(0);
    for term in 1..3 {
        expected = rns
            .apply(&RingOp::Add, &expected, Some(&mul(term)))
            .unwrap();
    }

    let dyn_ring: Arc<dyn PolyRing> = rns;
    assert_eq!(dyn_ring.apply_graph(&graph, &operands).unwrap(), expected);
    let pool = RingExecutor::new(3).unwrap();
    let served = pool
        .submit(&dyn_ring, RingRequest::graph(graph, operands))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(served, expected, "executor MAC graph vs sequential ops");
}

/// A deterministic generator of valid op graphs: a connected chain (so
/// no dead nodes) whose binary second operands branch to same-width
/// earlier values, widths walked by `Rescale`/`BasisExtend` within the
/// bounds the ring supports.
fn random_graph(state: &mut u64, k: usize, rns: bool) -> OpGraph {
    let mut next = move || {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *state >> 33
    };
    let nodes = 2 + (next() as usize) % 7; // 2..=8
    let mut g = OpGraph::builder(2);
    // Width of every producible value; inputs sit at the native width.
    let mut widths: Vec<(Operand, usize)> = vec![(Operand::Input(0), k), (Operand::Input(1), k)];
    let mut last = {
        let op = Operand::Node(0);
        g.polymul(PolyOp::Cyclic, Operand::Input(0), Operand::Input(1))
            .unwrap();
        widths.push((op, k));
        (op, k)
    };
    for _ in 1..nodes {
        let (prev, w) = last;
        // Ops valid at the chain's current width: polymul only at or
        // below the native width (extension channels have no NTT
        // plans), rescale only with a channel to keep, extend only from
        // the native width up (and bounded so plans stay small).
        let mut choices: Vec<u8> = vec![1, 2]; // add, sub
        if w <= k {
            choices.push(0); // polymul
        }
        if w >= 2 {
            choices.push(3); // rescale
        }
        if rns && w >= k && w < k + 2 {
            choices.push(4); // basis-extend
        }
        let pick = choices[(next() as usize) % choices.len()];
        // Binary partner: any earlier value of the same width.
        let mut partner = || {
            let same: Vec<Operand> = widths
                .iter()
                .filter(|(_, pw)| *pw == w)
                .map(|(o, _)| *o)
                .collect();
            same[(next() as usize) % same.len()]
        };
        let (out, out_w) = match pick {
            0 => (g.polymul(PolyOp::Cyclic, prev, partner()).unwrap(), w),
            1 => (g.add(prev, partner()).unwrap(), w),
            2 => (g.sub(prev, partner()).unwrap(), w),
            3 => (g.rescale(prev).unwrap(), w - 1),
            _ => (g.basis_extend(prev, 1).unwrap(), w + 1),
        };
        widths.push((out, out_w));
        last = (out, out_w);
    }
    g.build(last.0).unwrap()
}

/// Node-by-node reference: each node evaluated with `apply` on a ring
/// of its operand width (native prefix below k, extended chain above),
/// materializing coefficients between every step — the one-op-at-a-time
/// world the graph path replaces.
fn sequential_reference(
    graph: &OpGraph,
    operands: &[Coefficients],
    native: &RnsRing,
) -> Coefficients {
    let k = native.channels();
    let ring_for = |w: usize| -> RnsRing {
        if w <= k {
            RnsRing::builder(N)
                .moduli(&native.moduli()[..w])
                .build()
                .unwrap()
        } else {
            RnsRing::builder(N)
                .moduli(&native.extended_moduli(w - k).unwrap())
                .build()
                .unwrap()
        }
    };
    let mut values: Vec<(Coefficients, usize)> = Vec::new();
    for node in graph.nodes() {
        let resolve = |o: &Operand| -> (Coefficients, usize) {
            match *o {
                Operand::Input(i) => (operands[i].clone(), k),
                Operand::Node(j) => values[j].clone(),
            }
        };
        let (a, w) = resolve(&node.operands()[0]);
        let b = node.operands().get(1).map(|o| resolve(o).0);
        let ring = ring_for(w);
        let out = ring.apply(node.op(), &a, b.as_ref()).unwrap();
        let out_w = match node.op() {
            RingOp::Rescale => w - 1,
            RingOp::BasisExtend { extra_channels } => w + extra_channels,
            _ => w,
        };
        values.push((out, out_w));
    }
    values[graph.output()].0.clone()
}

#[test]
fn seeded_random_graphs_match_sequential_apply_on_rns_rings() {
    let pool = RingExecutor::new(3).unwrap();
    for (ki, basis) in BASES.iter().enumerate() {
        let k = ki + 1;
        let rns = Arc::new(RnsRing::builder(N).moduli(basis).build().unwrap());
        let product = rns.product_modulus().clone();
        let dyn_ring: Arc<dyn PolyRing> = rns.clone();
        let mut state = 0xD1CE_0000 + k as u64;
        for round in 0..6_u64 {
            let graph = random_graph(&mut state, k, true);
            let operands = vec![
                Coefficients::Big(big_coeffs(N, &product, 0xAA ^ (round << 8) ^ k as u64)),
                Coefficients::Big(big_coeffs(N, &product, 0xBB ^ (round << 8) ^ k as u64)),
            ];
            let expected = sequential_reference(&graph, &operands, &rns);
            let resident = dyn_ring.apply_graph(&graph, &operands).unwrap();
            assert_eq!(
                resident, expected,
                "k={k} round={round} apply_graph vs node-by-node apply\n{graph}"
            );
            let served = pool
                .submit(&dyn_ring, RingRequest::graph(graph.clone(), operands))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                served, expected,
                "k={k} round={round} executor vs node-by-node apply\n{graph}"
            );
        }
    }
}

#[test]
fn seeded_random_graphs_match_sequential_apply_on_the_word_ring() {
    let ring = Arc::new(Ring::auto(primes::Q62, N).unwrap());
    let dyn_ring: Arc<dyn PolyRing> = ring.clone();
    let pool = RingExecutor::new(2).unwrap();
    let mut state = 0x0DD5_EED5;
    for round in 0..6_u64 {
        // k = 1 with no basis-changing ops: the word ring executes the
        // same graph shapes at width 1 throughout.
        let graph = random_graph(&mut state, 1, false);
        let operands = vec![
            Coefficients::Word(word_coeffs(N, primes::Q62, 0xC1 ^ round)),
            Coefficients::Word(word_coeffs(N, primes::Q62, 0xC2 ^ (round << 4))),
        ];
        // Node-by-node on the same ring (widths never change at k = 1).
        let mut values: Vec<Coefficients> = Vec::new();
        for node in graph.nodes() {
            let resolve = |o: &Operand| match *o {
                Operand::Input(i) => operands[i].clone(),
                Operand::Node(j) => values[j].clone(),
            };
            let a = resolve(&node.operands()[0]);
            let b = node.operands().get(1).map(resolve);
            values.push(ring.apply(node.op(), &a, b.as_ref()).unwrap());
        }
        let expected = values[graph.output()].clone();
        assert_eq!(
            dyn_ring.apply_graph(&graph, &operands).unwrap(),
            expected,
            "round={round} apply_graph\n{graph}"
        );
        let served = pool
            .submit(&dyn_ring, RingRequest::graph(graph.clone(), operands))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(served, expected, "round={round} executor\n{graph}");
    }
}

#[test]
fn single_node_graphs_compile_to_exactly_the_one_op_behavior() {
    let rns = Arc::new(RnsRing::builder(N).moduli(BASES[1]).build().unwrap());
    let product = rns.product_modulus().clone();
    let dyn_ring: Arc<dyn PolyRing> = rns.clone();
    let pool = RingExecutor::new(2).unwrap();

    let a = Coefficients::Big(big_coeffs(N, &product, 0x51));
    let b = Coefficients::Big(big_coeffs(N, &product, 0x52));
    for (op, operands) in [
        (RingOp::Polymul(PolyOp::Cyclic), vec![a.clone(), b.clone()]),
        (RingOp::Add, vec![a.clone(), b.clone()]),
        (RingOp::Rescale, vec![a.clone()]),
        (RingOp::BasisExtend { extra_channels: 1 }, vec![a.clone()]),
    ] {
        let via_op = pool
            .submit(
                &dyn_ring,
                RingRequest::new(op, operands[0].clone(), operands.get(1).cloned()),
            )
            .unwrap()
            .wait()
            .unwrap();
        let via_graph = pool
            .submit(&dyn_ring, RingRequest::graph(OpGraph::single(op), operands))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(via_graph, via_op, "{op:?}");
    }
}

#[test]
fn graph_requests_are_validated_at_submit() {
    let rns = Arc::new(RnsRing::builder(N).moduli(BASES[1]).build().unwrap());
    let product = rns.product_modulus().clone();
    let dyn_ring: Arc<dyn PolyRing> = rns;
    let pool = RingExecutor::new(1).unwrap();

    // Operand count must match the graph's declared inputs.
    let relin = OpGraph::relinearize(PolyOp::Cyclic, 1);
    let a = Coefficients::Big(big_coeffs(N, &product, 0x61));
    assert!(matches!(
        pool.submit(
            &dyn_ring,
            RingRequest::graph(relin.clone(), vec![a.clone()])
        )
        .unwrap_err(),
        Error::OperandCountMismatch {
            op: "op-graph",
            expected: 2,
            got: 1
        }
    ));

    // A chain that rescales past the bottom of the basis is rejected
    // before anything queues: k = 2 supports one rescale, not two.
    let mut g = OpGraph::builder(1);
    let once = g.rescale(Operand::Input(0)).unwrap();
    let twice = g.rescale(once).unwrap();
    let too_deep = g.build(twice).unwrap();
    assert!(matches!(
        pool.submit(&dyn_ring, RingRequest::graph(too_deep, vec![a.clone()]))
            .unwrap_err(),
        Error::UnsupportedOp { .. }
    ));

    // Mismatched operand lengths surface the dedicated variant.
    let short = Coefficients::Big(big_coeffs(N / 2, &product, 0x62));
    assert!(matches!(
        pool.submit(&dyn_ring, RingRequest::graph(relin, vec![a, short]))
            .unwrap_err(),
        Error::OperandLengthMismatch { .. }
    ));
}

/// A three-node graph over the gated word ring (no blocker tag in the
/// operands).
fn three_node_graph_request(seed: u64) -> RingRequest {
    let mut g = OpGraph::builder(2);
    let p = g
        .polymul(PolyOp::Cyclic, Operand::Input(0), Operand::Input(1))
        .unwrap();
    let s = g.add(p, Operand::Input(0)).unwrap();
    let out = g.sub(s, p).unwrap();
    let graph = g.build(out).unwrap();
    RingRequest::graph(
        graph,
        vec![
            Coefficients::Word(word_coeffs(N, primes::Q124, seed)),
            Coefficients::Word(word_coeffs(N, primes::Q124, seed ^ 0xF0F0)),
        ],
    )
}

/// Regression: `queue_depths` counts a multi-node graph request once —
/// admission bounds requests, not the node × channel work items they
/// fan out to.
#[test]
fn queue_depths_count_multi_node_requests_once() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();

    let blocker = occupy_worker(&pool, &ring, &gated);

    let handles: Vec<_> = (0..4_u64)
        .map(|i| {
            pool.submit(&ring, three_node_graph_request(0x77 + i))
                .unwrap()
        })
        .collect();
    // Four queued graphs of three nodes each: the depth is 4, not 12.
    assert_eq!(pool.queue_depths(), [0, 4, 0]);

    gated.gate.open();
    blocker.wait().unwrap();
    for handle in handles {
        handle.wait().unwrap();
    }
    assert_eq!(pool.queue_depths(), [0, 0, 0]);
}

/// A shed graph runs zero nodes: the expired deadline resolves the whole
/// request before any node × channel item executes.
#[test]
fn shed_graph_requests_run_no_nodes() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();

    let blocker = occupy_worker(&pool, &ring, &gated);

    let doomed = pool
        .submit(
            &ring,
            three_node_graph_request(0x99).with_deadline(Instant::now() - Duration::from_millis(1)),
        )
        .unwrap();
    assert!(matches!(doomed.wait(), Err(Error::DeadlineExceeded)));

    gated.gate.open();
    blocker.wait().unwrap();
    // Only the blocker's single channel ever executed.
    assert_eq!(gated.executed(), 1);
}

/// The front door admits, completes, and reconciles graphs exactly like
/// single-op requests — one admission per graph.
#[test]
fn graphs_flow_through_the_front_door_unchanged() {
    let rns = Arc::new(RnsRing::builder(N).moduli(BASES[2]).build().unwrap());
    let product = rns.product_modulus().clone();
    let dyn_ring: Arc<dyn PolyRing> = rns.clone();
    let door = FrontDoor::new(2).unwrap();

    let graph = OpGraph::relinearize(PolyOp::Cyclic, 1);
    let operands = vec![
        Coefficients::Big(big_coeffs(N, &product, 0x71)),
        Coefficients::Big(big_coeffs(N, &product, 0x72)),
    ];
    let expected = dyn_ring.apply_graph(&graph, &operands).unwrap();

    let future = door
        .submit(&dyn_ring, RingRequest::graph(graph, operands))
        .unwrap();
    assert_eq!(block_on(future).unwrap(), expected);

    let stats = door.stats();
    assert_eq!(stats.admitted, 1, "one admission for the whole graph");
    assert_eq!(stats.submitted, 1);
    assert!(stats.reconciles());
}

/// The trait's required surface is enough to serve: [`GatedRing`]
/// implements exactly the seven required methods around a `Ring`, and
/// every provided method and both serving layers build on them
/// bit-identically to the wrapped ring.
#[test]
fn minimal_ring_serves_through_executor_and_front_door() {
    let gated = Arc::new(GatedRing::new());
    let minimal: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(2).unwrap();
    let door = FrontDoor::new(2).unwrap();

    let operands: Vec<Coefficients> = (0..4_u64)
        .map(|i| Coefficients::Word(word_coeffs(N, primes::Q124, 0x3141 + i)))
        .collect();
    let (a, b) = (&operands[0], &operands[1]);
    let mut requests: Vec<RingRequest> = [
        RingOp::Polymul(PolyOp::Cyclic),
        RingOp::Polymul(PolyOp::Negacyclic),
        RingOp::Add,
        RingOp::Sub,
    ]
    .into_iter()
    .map(|op| RingRequest::new(op, a.clone(), Some(b.clone())))
    .collect();
    requests.push(RingRequest::graph(
        OpGraph::multiply_accumulate(PolyOp::Negacyclic, 2).unwrap(),
        operands.clone(),
    ));

    for request in requests {
        let graph = request.op_graph().unwrap();
        let inputs = &operands[..graph.inputs()];
        let expected = gated.inner.apply_graph(graph, inputs).unwrap();
        assert_eq!(minimal.apply_graph(graph, inputs).unwrap(), expected);
        let served = pool.submit(&minimal, request.clone()).unwrap().wait();
        assert_eq!(served.unwrap(), expected, "executor: {graph}");
        let awaited = block_on(door.submit(&minimal, request.clone()).unwrap());
        assert_eq!(awaited.unwrap(), expected, "front door: {graph}");
    }

    // The provided width query only knows the basis-preserving ops, so
    // a basis-changing request never reaches a worker.
    let before = gated.executed();
    let rescale = RingRequest::rescale(a.clone());
    assert!(matches!(
        pool.submit(&minimal, rescale.clone()).unwrap_err(),
        Error::UnsupportedOp { op: "rescale", .. }
    ));
    assert!(matches!(
        door.submit(&minimal, rescale).unwrap_err(),
        Error::UnsupportedOp { op: "rescale", .. }
    ));
    assert_eq!(gated.executed(), before);
}
