//! Acceptance suite for the executor's serving QoS: strict priority
//! ordering under saturation, deadline shedding with zero channels
//! executed, cooperative cancellation (including the races around
//! completion), the timed handle waits, and the `serve` mid-batch
//! error path draining its queued work.
//!
//! The scheduling tests run on a **one-worker** pool behind a gated
//! "blocker" request: while the blocker holds the only worker, the
//! whole batch is queued, so the order the instrumented ring logs
//! executions in is exactly the order the injector released them.

mod common;

use common::{occupy_worker, spin_until, tagged, Gate, GatedRing, BLOCKER_TAG, N};
use mqx::core::primes;
use mqx::{
    Coefficients, Error, PolyOp, PolyRing, Priority, Ring, RingExecutor, RingOp, RingRequest,
    SubmitOptions,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn saturated_mixed_priority_batch_completes_high_normal_low() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();
    let blocker = occupy_worker(&pool, &ring, &gated);

    // Submission order deliberately scrambles the classes.
    let pattern = [
        Priority::Low,
        Priority::Normal,
        Priority::High,
        Priority::Low,
        Priority::Normal,
        Priority::High,
        Priority::Low,
        Priority::Normal,
        Priority::High,
    ];
    let handles: Vec<_> = pattern
        .iter()
        .enumerate()
        .map(|(i, &priority)| {
            pool.submit(&ring, tagged(i as u128).with_priority(priority))
                .unwrap()
        })
        .collect();

    gated.gate.open();
    blocker.wait().unwrap();
    for handle in handles {
        handle.wait().unwrap();
    }

    // Strict class order, submission (FIFO) order within each class.
    let log = gated.log();
    assert_eq!(log[0], BLOCKER_TAG);
    assert_eq!(log[1..], [2, 5, 8, 1, 4, 7, 0, 3, 6], "High→Normal→Low");
}

#[test]
fn already_expired_deadline_sheds_without_running_any_channel() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();
    let blocker = occupy_worker(&pool, &ring, &gated);

    // Dead on arrival: resolved at submit, even though the pool is
    // saturated and could not have run it anyway.
    let doomed = pool
        .submit(&ring, tagged(7).with_deadline(Instant::now()))
        .unwrap();
    assert!(doomed.is_finished(), "resolved synchronously at submit");
    assert!(matches!(
        doomed.wait().unwrap_err(),
        Error::DeadlineExceeded
    ));

    gated.gate.open();
    blocker.wait().unwrap();
    assert_eq!(gated.executed(), 1, "only the blocker ever executed");
    assert_eq!(gated.log(), [BLOCKER_TAG]);
}

#[test]
fn deadline_expiring_while_queued_is_shed_at_dequeue() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();
    let blocker = occupy_worker(&pool, &ring, &gated);

    // Valid (future) deadline at submit, so the request is genuinely
    // queued; it expires while the blocker holds the worker.
    let victim = pool
        .submit(
            &ring,
            tagged(7).with_options(
                SubmitOptions::new()
                    .priority(Priority::High)
                    .timeout(Duration::from_millis(20)),
            ),
        )
        .unwrap();
    assert!(!victim.is_finished(), "queued, not resolved");
    std::thread::sleep(Duration::from_millis(60));
    gated.gate.open();

    assert!(matches!(
        victim.wait().unwrap_err(),
        Error::DeadlineExceeded
    ));
    blocker.wait().unwrap();
    assert_eq!(gated.executed(), 1, "the victim never reached a kernel");
    assert_eq!(gated.log(), [BLOCKER_TAG]);
}

#[test]
fn cancelling_a_queued_request_skips_its_execution() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();
    let blocker = occupy_worker(&pool, &ring, &gated);

    let victim = pool.submit(&ring, tagged(7)).unwrap();
    victim.cancel();
    assert!(!victim.is_finished(), "cancellation is cooperative");

    gated.gate.open();
    assert!(matches!(victim.wait().unwrap_err(), Error::Cancelled));
    blocker.wait().unwrap();
    assert_eq!(gated.executed(), 1, "the cancelled request never ran");
}

#[test]
fn cancel_after_completion_is_a_noop_returning_the_product() {
    let concrete = Ring::auto(primes::Q124, N).unwrap();
    let a: Vec<u128> = (0..N as u64).map(|i| u128::from(i * 3 + 1)).collect();
    let b: Vec<u128> = (0..N as u64).map(|i| u128::from(i + 11)).collect();
    let expected = concrete.polymul_cyclic(&a, &b).unwrap();

    let ring: Arc<dyn PolyRing> = Arc::new(concrete);
    let pool = RingExecutor::new(2).unwrap();
    let handle = pool
        .submit(
            &ring,
            RingRequest::polymul(PolyOp::Cyclic, a.into(), b.into()),
        )
        .unwrap();
    spin_until("request to finish", || handle.is_finished());
    handle.cancel();
    assert_eq!(
        handle.wait().unwrap().into_words().unwrap(),
        expected,
        "cancel after completion keeps the product"
    );
}

#[test]
fn try_wait_and_timed_waits_hand_the_handle_back_until_resolution() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();
    let blocker = occupy_worker(&pool, &ring, &gated);

    let handle = pool.submit(&ring, tagged(7)).unwrap();
    // Unfinished: every bounded wait hands the handle back.
    let handle = handle.try_wait().expect_err("still queued");
    let t0 = Instant::now();
    let handle = handle
        .wait_timeout(Duration::from_millis(30))
        .expect_err("still queued after the timeout");
    assert!(t0.elapsed() >= Duration::from_millis(30), "really waited");
    let handle = handle
        .wait_deadline(Instant::now() + Duration::from_millis(10))
        .expect_err("still queued at the deadline");

    gated.gate.open();
    blocker.wait().unwrap();
    assert!(handle.wait().is_ok());

    // Finished: try_wait yields the product immediately.
    let done = pool.submit(&ring, tagged(8)).unwrap();
    spin_until("second request to finish", || done.is_finished());
    let product = done.try_wait().expect("finished").unwrap();
    assert_eq!(product.len(), N);
}

/// A ring whose every channel takes a fixed nap before computing —
/// enough backlog for `serve`'s error path to find queued work.
struct SleepyRing {
    inner: Ring,
    delay: Duration,
    executed: AtomicUsize,
}

impl PolyRing for SleepyRing {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn modulus_bits(&self) -> u64 {
        PolyRing::modulus_bits(&self.inner)
    }
    fn supports_negacyclic(&self) -> bool {
        self.inner.supports_negacyclic()
    }
    fn channels(&self) -> usize {
        1
    }
    fn split(&self, coeffs: &Coefficients) -> Result<Vec<Vec<u128>>, Error> {
        PolyRing::split(&self.inner, coeffs)
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
        std::thread::sleep(self.delay);
        self.executed.fetch_add(1, Ordering::AcqRel);
        self.inner
            .channel_apply_at_into(op, width, channel, a, b, out)
    }
    fn join_at(&self, width: usize, channels: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
        self.inner.join_at(width, channels)
    }
}

#[test]
fn serve_mid_batch_error_cancels_queued_work_and_leaves_the_pool_idle() {
    let sleepy = Arc::new(SleepyRing {
        inner: Ring::auto(primes::Q124, N).unwrap(),
        delay: Duration::from_millis(40),
        executed: AtomicUsize::new(0),
    });
    let ring: Arc<dyn PolyRing> = Arc::clone(&sleepy) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();

    // Six valid requests, then one that fails validation at submit.
    let mut batch: Vec<RingRequest> = (0..6).map(|i| tagged(u128::from(i as u32))).collect();
    batch.push(RingRequest::polymul(
        PolyOp::Cyclic,
        vec![0_u128; N - 1].into(),
        vec![0_u128; N].into(),
    ));

    let err = pool.serve(&ring, batch).unwrap_err();
    assert!(matches!(
        err,
        Error::OperandLengthMismatch { a, b } if a == N - 1 && b == N
    ));

    // serve drained its cancelled handles before returning: at most
    // the one request the worker had already started ever executed,
    // and nothing is left running behind our back.
    let executed = sleepy.executed.load(Ordering::Acquire);
    assert!(executed <= 1, "queued requests were shed, saw {executed}");
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(
        sleepy.executed.load(Ordering::Acquire),
        executed,
        "pool is idle after the failed batch"
    );

    // And the pool still serves: a fresh request completes.
    let handle = pool.submit(&ring, tagged(42)).unwrap();
    assert!(handle.wait().is_ok());
}

#[test]
fn serve_mid_batch_shed_cancels_the_rest_of_the_batch() {
    // The wait-phase twin of the submit-error drain: every submit
    // succeeds, but one request is dead on arrival (expired deadline),
    // so serve errors mid-wait — and must shed the not-yet-run tail of
    // the batch instead of leaving it running with nobody collecting.
    let sleepy = Arc::new(SleepyRing {
        inner: Ring::auto(primes::Q124, N).unwrap(),
        delay: Duration::from_millis(40),
        executed: AtomicUsize::new(0),
    });
    let ring: Arc<dyn PolyRing> = Arc::clone(&sleepy) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();

    let mut batch: Vec<RingRequest> = vec![
        tagged(0),
        tagged(1).with_deadline(Instant::now()), // resolves DeadlineExceeded at submit
    ];
    batch.extend((2..8).map(|i| tagged(u128::from(i as u32))));

    let err = pool.serve(&ring, batch).unwrap_err();
    assert!(matches!(err, Error::DeadlineExceeded));

    // At most the requests the single worker reached before the
    // cancellation (the first, and perhaps one more it grabbed while
    // serve was waiting out the first) ever executed; the rest shed.
    let executed = sleepy.executed.load(Ordering::Acquire);
    assert!(executed <= 2, "batch tail was shed, saw {executed}");
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(
        sleepy.executed.load(Ordering::Acquire),
        executed,
        "pool is idle after the failed batch"
    );
    let handle = pool.submit(&ring, tagged(42)).unwrap();
    assert!(handle.wait().is_ok());
}

/// A ring whose CRT join parks on a gate: opens the window between the
/// last channel landing (`remaining == 0`) and the outcome being
/// published, which the old counter-based `is_finished` misreported.
struct SlowJoinRing {
    inner: Ring,
    join_entered: AtomicBool,
    gate: Gate,
}

impl PolyRing for SlowJoinRing {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn modulus_bits(&self) -> u64 {
        PolyRing::modulus_bits(&self.inner)
    }
    fn supports_negacyclic(&self) -> bool {
        self.inner.supports_negacyclic()
    }
    fn channels(&self) -> usize {
        1
    }
    fn split(&self, coeffs: &Coefficients) -> Result<Vec<Vec<u128>>, Error> {
        PolyRing::split(&self.inner, coeffs)
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
        self.join_entered.store(true, Ordering::Release);
        self.gate.wait();
        self.inner.join_at(width, channels)
    }
}

#[test]
fn is_finished_stays_false_through_a_slow_join() {
    let slow = Arc::new(SlowJoinRing {
        inner: Ring::auto(primes::Q124, N).unwrap(),
        join_entered: AtomicBool::new(false),
        gate: Gate::new(),
    });
    let ring: Arc<dyn PolyRing> = Arc::clone(&slow) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();

    let a: Vec<u128> = (0..N as u64).map(|i| u128::from(i + 5)).collect();
    let expected = slow.inner.polymul_cyclic(&a, &a).unwrap();
    let handle = pool
        .submit(
            &ring,
            RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into()),
        )
        .unwrap();

    // The worker is inside join_at(): every channel has executed (the old
    // remaining-counter definition would say "finished"), but the
    // outcome is not published, so a wait *would* block.
    spin_until("the join to start", || {
        slow.join_entered.load(Ordering::Acquire)
    });
    assert!(
        !handle.is_finished(),
        "mid-join the request is not finished"
    );
    let handle = handle
        .try_wait()
        .expect_err("mid-join try_wait must not resolve");

    slow.gate.open();
    assert_eq!(handle.wait().unwrap().into_words().unwrap(), expected);
}
