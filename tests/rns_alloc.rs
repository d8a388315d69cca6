//! Regression gate: the RNS request path allocates per *call*, not per
//! coefficient. With `BigUint` arithmetic under the CRT ends and the
//! basis extension, one relinearize request at n = 2048 made ~132 000
//! allocator calls; the word-level path makes the `n` result values of
//! the join plus a handful of buffers. The bounds below do not depend
//! on `n` apart from those `n` values. A relinearize graph, which keeps
//! residues resident between nodes, must also allocate strictly less
//! than the same chain as three `apply` calls, each of which splits and
//! joins.
//!
//! One `#[test]` only: the allocator is process-wide. It counts per
//! thread, so the harness's own threads do not disturb the numbers.

use mqx::bignum::BigUint;
use mqx::{Coefficients, OpGraph, PolyOp, PolyRing, RingOp, RnsRing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread. Const-initialised and
    /// without a destructor, so touching it inside the allocator
    /// allocates nothing.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread past its TLS teardown is not one the test measures.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`, to which this forwards
    // with `layout` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::alloc_zeroed`, to which this
    // forwards with `layout` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    // SAFETY: same contract as `System::realloc`; all three arguments
    // pass through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System::dealloc`; `ptr`/`layout` pass
    // through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let value = f();
    (CALLS.with(Cell::get) - before, value)
}

#[test]
fn rns_request_path_allocates_per_call_not_per_coefficient() {
    const N: usize = 256;
    const K: usize = 3;
    let ring = RnsRing::auto(K, N).unwrap();
    let extend = RingOp::BasisExtend { extra_channels: 1 };
    let coeffs = Coefficients::Big(
        (0..N as u64)
            .map(|i| &(ring.product_modulus() - &BigUint::from(i * i + 1)) / &BigUint::from(i + 1))
            .collect(),
    );

    // Warm: the extended width's constants are built on first use.
    let mut fresh = Vec::with_capacity(N);
    let warm = ring.split(&coeffs).unwrap();
    ring.channel_apply_at_into(&extend, K, K, &warm, None, &mut fresh)
        .unwrap();
    assert_eq!(ring.join_at(K, warm).unwrap(), coeffs);

    let (calls, channels) = allocations(|| ring.split(&coeffs).unwrap());
    assert!(calls <= K as u64 + 2, "split: {calls} allocations");

    let (calls, result) =
        allocations(|| ring.channel_apply_at_into(&extend, K, K, &channels, None, &mut fresh));
    result.unwrap();
    assert_eq!(fresh.len(), N);
    assert!(calls <= 2, "fresh BasisExtend channel: {calls} allocations");

    let (calls, joined) = allocations(|| ring.join_at(K, channels).unwrap());
    assert!(calls <= N as u64 + 4, "join_at: {calls} allocations");
    assert_eq!(joined, coeffs);

    // A warm channel call allocates nothing: it takes one pooled scratch
    // set and writes into a warm `out`. The extension channel (index K
    // of the K + 1 basis) runs on the first channel's ring.
    let own = ring.split(&coeffs).unwrap();
    let mut extended = own.clone();
    extended.push(fresh);
    let mut out = Vec::with_capacity(N);
    for (op, operands, channel) in [
        (RingOp::Polymul(PolyOp::Negacyclic), &own, 0),
        (RingOp::Add, &own, 1),
        (RingOp::Add, &extended, K),
    ] {
        let width = operands.len();
        let mut call =
            || ring.channel_apply_at_into(&op, width, channel, operands, Some(operands), &mut out);
        call().unwrap();
        let (calls, result) = allocations(&mut call);
        result.unwrap();
        assert_eq!(
            calls,
            0,
            "warm {} on channel {channel} of {width}",
            op.name()
        );
    }

    // Both paths run on this thread: `apply` and `apply_graph` walk the
    // graph in `poly::evaluate`, which spawns nothing, so the per-thread
    // count is the whole request's.
    let other = Coefficients::Big(
        (0..N as u64)
            .map(|i| &(ring.product_modulus() - &BigUint::from(3 * i + 7)) / &BigUint::from(i + 2))
            .collect(),
    );
    let operands = [coeffs, other];
    let relinearize = OpGraph::relinearize(PolyOp::Negacyclic, 1);
    // Rescale runs on the ring whose basis the chain has reached.
    let ext_ring = RnsRing::builder(N)
        .moduli(&ring.extended_moduli(1).unwrap())
        .build()
        .unwrap();
    let op_at_a_time = || {
        let mul = RingOp::Polymul(PolyOp::Negacyclic);
        let x = ring.apply(&mul, &operands[0], Some(&operands[1])).unwrap();
        let x = ring.apply(&extend, &x, None).unwrap();
        ext_ring.apply(&RingOp::Rescale, &x, None).unwrap()
    };
    // Warm: scratch buffers and both rings' width constants.
    assert_eq!(
        ring.apply_graph(&relinearize, &operands).unwrap(),
        op_at_a_time()
    );

    let (graph_calls, via_graph) =
        allocations(|| ring.apply_graph(&relinearize, &operands).unwrap());
    let (chain_calls, via_chain) = allocations(op_at_a_time);
    assert_eq!(via_graph, via_chain);
    println!("relinearize at k = {K}, n = {N}: graph {graph_calls}, three applies {chain_calls}");
    assert!(
        graph_calls < chain_calls,
        "graph {graph_calls} vs op-at-a-time {chain_calls} allocations"
    );
}
