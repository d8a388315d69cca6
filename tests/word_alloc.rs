//! Regression gate: submitting a word request copies no coefficients.
//! The executor owns a request's operands and drops them right after
//! the split, so `Ring` keeps each operand's vector as its one channel
//! instead of copying it. A copy is a coefficient-sized allocation
//! (n·16 bytes) on the submitting thread, and every such buffer freed
//! again is one more large free for the allocator to trim around.
//!
//! One `#[test]` only: the allocator is process-wide. It counts per
//! thread, so the pool's worker (which allocates the result) and the
//! harness's own threads do not disturb the count.

use mqx::core::primes;
use mqx::{Coefficients, PolyOp, PolyRing, Ring, RingExecutor, RingOp, RingRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

const N: usize = 4096;

/// An allocation at least this large holds a whole coefficient vector.
const COEFFICIENT_BYTES: usize = N * std::mem::size_of::<u128>();

thread_local! {
    /// Coefficient-sized allocations made by this thread.
    /// Const-initialised and without a destructor, so touching it inside
    /// the allocator allocates nothing.
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(size: usize) {
    if size >= COEFFICIENT_BYTES {
        // A thread past its TLS teardown is not one the test measures.
        let _ = LARGE.try_with(|large| large.set(large.get() + 1));
    }
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a side effect only.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`, to which this forwards
    // with `layout` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::alloc_zeroed`, to which this
    // forwards with `layout` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: same contract as `System::realloc`; all three arguments
    // pass through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Coefficient-sized allocations this thread makes while `f` runs.
fn large_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = LARGE.with(Cell::get);
    let value = f();
    (LARGE.with(Cell::get) - before, value)
}

fn operand(seed: u64) -> Coefficients {
    let mut state = seed;
    Coefficients::Word(
        (0..N)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                u128::from(state) % primes::Q124
            })
            .collect(),
    )
}

#[test]
fn word_submit_hands_operands_over_without_copying() {
    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let pool = RingExecutor::new(1).unwrap();
    for op in [RingOp::Add, RingOp::Polymul(PolyOp::Negacyclic)] {
        let (a, b) = (operand(0xA11CE), operand(0xB0B));
        let expected = ring.apply(&op, &a, Some(&b)).unwrap();
        let request = RingRequest::new(op, a, Some(b));
        let (large, handle) = large_allocations(|| pool.submit(&ring, request).unwrap());
        assert_eq!(large, 0, "{}: coefficient copies at submit", op.name());
        assert_eq!(handle.wait().unwrap(), expected, "{}", op.name());
    }
}
