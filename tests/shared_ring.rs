//! Integration: rings are immutable, shareable handles.
//!
//! The shared-`&self` redesign's contract, hammered end to end: an
//! `Arc<Ring>` and an `Arc<RnsRing>` must produce bit-identical polymul
//! results when driven from 8 threads concurrently, matching the
//! single-threaded reference exactly; and the work-stealing
//! `RingExecutor` must serve a large mixed queue with results
//! bit-identical to sequential execution.

mod common;

use common::submit_and_join;
use mqx::bignum::BigUint;
use mqx::core::primes;
use mqx::{Coefficients, PolyOp, PolyRing, Ring, RingExecutor, RingOp, RingRequest, RnsRing};
use std::sync::Arc;

const N: usize = 64;
const THREADS: usize = 8;
const ITERS: usize = 24;
const NEGACYCLIC: RingOp = RingOp::Polymul(PolyOp::Negacyclic);

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
fn ring_and_rns_ring_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Ring>();
    assert_send_sync::<RnsRing>();
    assert_send_sync::<Arc<dyn PolyRing>>();
    assert_send_sync::<RingExecutor>();
}

#[test]
fn arc_ring_hammered_from_threads_matches_single_threaded_reference() {
    let ring = Arc::new(Ring::auto(primes::Q124, N).unwrap());

    // Per-thread workloads and their single-threaded reference results,
    // computed before any concurrency enters the picture.
    type Workload = (Vec<u128>, Vec<u128>, Vec<u128>, Vec<u128>);
    let workloads: Vec<Workload> = (0..THREADS as u64)
        .map(|t| {
            let a = poly(N, primes::Q124, t * 2 + 1);
            let b = poly(N, primes::Q124, t * 2 + 2);
            let cyclic = ring.polymul_cyclic(&a, &b).unwrap();
            let nega = ring.polymul_negacyclic(&a, &b).unwrap();
            (a, b, cyclic, nega)
        })
        .collect();

    std::thread::scope(|scope| {
        for (a, b, cyclic, nega) in &workloads {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                for _ in 0..ITERS {
                    assert_eq!(&ring.polymul_cyclic(a, b).unwrap(), cyclic);
                    assert_eq!(&ring.polymul_negacyclic(a, b).unwrap(), nega);
                }
            });
        }
    });
}

#[test]
fn arc_rns_ring_hammered_from_threads_matches_single_threaded_reference() {
    let ring = Arc::new(RnsRing::auto(2, N).unwrap());
    let q = ring.product_modulus().clone();

    let workloads: Vec<(Coefficients, Coefficients, Coefficients)> = (0..THREADS as u64)
        .map(|t| {
            let a: Vec<BigUint> = (0..N as u64)
                .map(|i| &BigUint::from((i + 1) * (t + 3) * 0x9E37_79B9) % &q)
                .collect();
            let b: Vec<BigUint> = (0..N as u64)
                .map(|i| &BigUint::from((i + 7) * (t + 1) * 0x85EB_CA6B) % &q)
                .collect();
            let (a, b) = (Coefficients::Big(a), Coefficients::Big(b));
            let nega = ring.apply(&NEGACYCLIC, &a, Some(&b)).unwrap();
            (a, b, nega)
        })
        .collect();

    std::thread::scope(|scope| {
        for (a, b, nega) in &workloads {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                for _ in 0..ITERS / 2 {
                    assert_eq!(&ring.apply(&NEGACYCLIC, a, Some(b)).unwrap(), nega);
                }
            });
        }
    });
}

#[test]
fn shared_ring_forward_inverse_roundtrips_concurrently() {
    use mqx::simd::ResidueSoa;
    let ring = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                let xs = poly(N, primes::Q124, t + 0xF00);
                let mut soa = ResidueSoa::from_u128s(&xs);
                for _ in 0..ITERS {
                    ring.forward(&mut soa).unwrap();
                    ring.inverse(&mut soa).unwrap();
                    assert_eq!(soa.to_u128s(), xs);
                }
            });
        }
    });
}

/// The executor acceptance criterion: ≥ 256 mixed cyclic/negacyclic
/// requests served across ≥ 4 workers, results bit-identical to
/// sequential execution.
#[test]
fn executor_serves_256_mixed_requests_bit_identical_to_sequential() {
    const BATCH: usize = 256;
    const WORKERS: usize = 4;

    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let requests: Vec<RingRequest> = (0..BATCH as u64)
        .map(|i| {
            let op = if i % 2 == 0 {
                PolyOp::Negacyclic
            } else {
                PolyOp::Cyclic
            };
            let a = poly(N, primes::Q124, i * 2 + 101);
            let b = poly(N, primes::Q124, i * 2 + 102);
            RingRequest::polymul(op, a.into(), b.into())
        })
        .collect();

    // Sequential reference on the calling thread.
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| ring.apply(r.op(), r.a(), r.b()).unwrap())
        .collect();

    let pool = RingExecutor::new(WORKERS).unwrap();
    assert_eq!(pool.workers(), WORKERS);
    let served = submit_and_join(&pool, &ring, requests).unwrap();
    assert_eq!(served.len(), BATCH);
    assert_eq!(served, sequential, "bit-identical to sequential");
}

/// The same criterion through the multi-modulus path: every request
/// fans into `channels` work items and the CRT join must land exactly
/// where the sequential reference does.
#[test]
fn executor_serves_rns_batches_bit_identical_to_sequential() {
    const BATCH: usize = 64;

    let ring: Arc<dyn PolyRing> = Arc::new(RnsRing::auto(3, N).unwrap());
    assert_eq!(ring.channels(), 3);
    let modulus = BigUint::one() << 120_u64;
    let requests: Vec<RingRequest> = (0..BATCH as u64)
        .map(|i| {
            let a: Vec<BigUint> = (0..N as u64)
                .map(|j| &BigUint::from((j + 2) * (i + 5) * 0xDEAD_BEEF) % &modulus)
                .collect();
            let b: Vec<BigUint> = (0..N as u64)
                .map(|j| &BigUint::from((j + 3) * (i + 11) * 0xFACE_FEED) % &modulus)
                .collect();
            let op = if i % 2 == 0 {
                PolyOp::Cyclic
            } else {
                PolyOp::Negacyclic
            };
            RingRequest::polymul(op, a.into(), b.into())
        })
        .collect();

    let sequential: Vec<_> = requests
        .iter()
        .map(|r| ring.apply(r.op(), r.a(), r.b()).unwrap())
        .collect();

    let pool = RingExecutor::new(4).unwrap();
    let served = submit_and_join(&pool, &ring, requests).unwrap();
    assert_eq!(served, sequential);
}

/// Single-item wakeups on a wide pool: each submit wakes one worker
/// (`notify_one`, not a thundering herd), so a drip-fed stream of
/// single requests across a 16-worker pool must never lose a wakeup —
/// every handle resolves, interleaved with full-batch bursts.
#[test]
fn wide_pool_drip_fed_single_submits_never_lose_wakeups() {
    const WIDE: usize = 16;
    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let pool = RingExecutor::new(WIDE).unwrap();

    let a = poly(N, primes::Q124, 77);
    let expected = ring
        .apply(
            &RingOp::Polymul(PolyOp::Cyclic),
            &a.clone().into(),
            Some(&a.clone().into()),
        )
        .unwrap();
    // Drip feed: one request at a time, waited immediately, so almost
    // every submit finds all 16 workers asleep and must wake exactly
    // the one that will run it.
    for _ in 0..48 {
        let handle = pool
            .submit(
                &ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.clone().into()),
            )
            .unwrap();
        assert_eq!(handle.wait().unwrap(), expected);
    }
    // Burst right after the drip: queued items outnumber wakeups per
    // submit, so idle workers must still drain the backlog.
    let requests: Vec<RingRequest> = (0..64)
        .map(|_| RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.clone().into()))
        .collect();
    let served = submit_and_join(&pool, &ring, requests).unwrap();
    assert!(served.iter().all(|p| *p == expected));
}

/// Submitting from several threads at once (the server front-end shape):
/// every handle resolves to its own request's reference result.
#[test]
fn concurrent_submitters_get_their_own_results() {
    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let pool = RingExecutor::new(4).unwrap();
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let ring = Arc::clone(&ring);
            let pool = &pool;
            scope.spawn(move || {
                for i in 0..8_u64 {
                    let a = poly(N, primes::Q124, t * 1000 + i * 2 + 1);
                    let b = poly(N, primes::Q124, t * 1000 + i * 2 + 2);
                    let expected = ring
                        .apply(
                            &RingOp::Polymul(PolyOp::Cyclic),
                            &a.clone().into(),
                            Some(&b.clone().into()),
                        )
                        .unwrap();
                    let handle = pool
                        .submit(
                            &ring,
                            RingRequest::polymul(PolyOp::Cyclic, a.into(), b.into()),
                        )
                        .unwrap();
                    assert_eq!(handle.wait().unwrap(), expected);
                }
            });
        }
    });
}
