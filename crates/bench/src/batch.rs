//! Batched multi-core NTTs (extension beyond the paper's single-core
//! scope).
//!
//! §6 argues that "real FHE workloads often batch NTTs and BLAS
//! operations without data dependencies, enabling substantial
//! parallelism" — that is the assumption behind the speed-of-light
//! scaling. This module makes the assumption testable: a batch of
//! independent transforms is drained from a shared work queue by std
//! scoped threads, so the empirical per-transform throughput at `k`
//! cores can be compared against the Eq. 13 prediction (`k×`).
//!
//! Buffers are handed out one at a time from the queue rather than
//! pre-chunked, so stragglers self-balance: a worker that hits a slow
//! buffer (page fault, frequency dip) simply takes fewer, the way the
//! facade's work-stealing `RingExecutor` (the full serving loop: plan
//! reuse, pooled scratch, result handles) balances whole polymul
//! requests. Use this module when you already hold raw buffers and a
//! plan; use the executor when you are serving requests against a ring.

use mqx_ntt::NttPlan;
use mqx_simd::{ResidueSoa, SimdEngine};
use std::sync::Mutex;

/// Runs every queued closure-free work item to completion: `threads`
/// scoped workers repeatedly take the next buffer off the shared queue
/// and run `transform` on it.
fn drain_queue<T: Send>(batch: &mut [T], threads: usize, transform: impl Fn(&mut T) + Sync) {
    // Both public entry points assert threads > 0; the extra clamp
    // keeps this helper safe standalone (0 workers would silently
    // return the batch untransformed).
    let threads = threads.clamp(1, batch.len().max(1));
    let queue = Mutex::new(batch.iter_mut());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Hold the queue lock only for the handout, never
                // across a transform.
                let Some(item) = queue.lock().expect("batch queue poisoned").next() else {
                    return;
                };
                transform(item);
            });
        }
    });
}

/// Runs a forward NTT over every buffer in `batch`, drained from a
/// shared queue by `threads` OS threads with scoped spawns. Each buffer
/// is transformed in place; `batch.len()` need not divide `threads`,
/// and per-buffer cost need not be uniform (the queue self-balances).
///
/// # Panics
///
/// Panics if `threads == 0` or any buffer's length differs from the
/// plan size.
pub fn forward_batch_simd<E: SimdEngine>(plan: &NttPlan, batch: &mut [ResidueSoa], threads: usize) {
    assert!(threads > 0, "at least one thread required");
    for soa in batch.iter() {
        assert_eq!(soa.len(), plan.size(), "batch buffer length mismatch");
    }
    // One lazily-built scratch per worker would need per-thread state;
    // a thread-local rebuilt per item would thrash. Compromise: scratch
    // lives in a pool keyed by nothing (all same geometry).
    let scratch_pool: Mutex<Vec<ResidueSoa>> = Mutex::new(Vec::new());
    drain_queue(batch, threads, |soa| {
        let mut scratch = scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| ResidueSoa::zeros(plan.size()));
        plan.forward_simd::<E>(soa, &mut scratch);
        scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    });
}

/// Scalar-tier equivalent of [`forward_batch_simd`].
///
/// # Panics
///
/// Panics if `threads == 0` or any buffer's length differs from the
/// plan size.
pub fn forward_batch_scalar(plan: &NttPlan, batch: &mut [Vec<u128>], threads: usize) {
    assert!(threads > 0, "at least one thread required");
    for buf in batch.iter() {
        assert_eq!(buf.len(), plan.size(), "batch buffer length mismatch");
    }
    drain_queue(batch, threads, |buf| plan.forward_scalar(buf));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::{primes, Modulus};
    use mqx_simd::Portable;

    fn plan(n: usize) -> NttPlan {
        NttPlan::new(&Modulus::new_prime(primes::Q124).unwrap(), n).unwrap()
    }

    fn inputs(n: usize, count: usize) -> Vec<Vec<u128>> {
        (0..count)
            .map(|c| {
                (0..n as u64)
                    .map(|i| u128::from(i * 7 + c as u64 + 1) % primes::Q124)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_simd_matches_sequential() {
        let n = 64;
        let p = plan(n);
        let ins = inputs(n, 9); // 9 buffers over 2 threads: uneven shards
        let mut batch: Vec<ResidueSoa> = ins.iter().map(|v| ResidueSoa::from_u128s(v)).collect();
        forward_batch_simd::<Portable>(&p, &mut batch, 2);
        for (i, input) in ins.iter().enumerate() {
            let mut expected = input.clone();
            p.forward_scalar(&mut expected);
            assert_eq!(batch[i].to_u128s(), expected, "buffer {i}");
        }
    }

    #[test]
    fn batched_scalar_matches_sequential() {
        let n = 32;
        let p = plan(n);
        let mut batch = inputs(n, 5);
        let expected: Vec<Vec<u128>> = batch
            .iter()
            .map(|v| {
                let mut e = v.clone();
                p.forward_scalar(&mut e);
                e
            })
            .collect();
        forward_batch_scalar(&p, &mut batch, 3);
        assert_eq!(batch, expected);
    }

    #[test]
    fn more_threads_than_buffers_is_fine() {
        let n = 16;
        let p = plan(n);
        let mut batch = inputs(n, 2);
        forward_batch_scalar(&p, &mut batch, 8);
        // Just completing without panic is the contract here.
        assert_eq!(batch.len(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_buffer_length_rejected() {
        let p = plan(16);
        let mut batch = vec![vec![0_u128; 8]];
        forward_batch_scalar(&p, &mut batch, 1);
    }
}
