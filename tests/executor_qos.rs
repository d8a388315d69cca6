//! Acceptance suite for the executor's serving QoS: strict priority
//! ordering under saturation, deadline shedding with zero channels
//! executed, cooperative cancellation (including the races around
//! completion), the non-blocking `try_wait`, and the slot a submit
//! gives back when it is shed by an already-expired deadline.
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
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn saturated_mixed_priority_batch_completes_high_normal_low() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();
    let _open = gated.gate.open_on_drop();
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
    // Depth 1: a slot the doomed submit kept would shed the next one.
    let pool = RingExecutor::builder(1).queue_depth(1).build().unwrap();
    let _open = gated.gate.open_on_drop();
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
    // The doomed submit gave its slot back: the next valid one is
    // queued behind the blocker, not shed. (Checked once the gate is
    // open, so a failure cannot leave the worker parked.)
    let plain: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let admitted = pool.submit(&plain, tagged(8)).unwrap();
    let queued = (!admitted.is_finished(), pool.queue_depths());

    gated.gate.open();
    blocker.wait().unwrap();
    assert_eq!(queued, (true, [0, 1, 0]), "admitted, not Overloaded");
    assert_eq!(admitted.wait().unwrap().len(), N);
    assert_eq!(gated.executed(), 1, "only the blocker ever executed");
    assert_eq!(gated.log(), [BLOCKER_TAG]);
    let stats = pool.stats();
    assert!(stats.reconciles());
    assert_eq!((stats.admitted, stats.shed_at_deadline), (3, 1));
    assert_eq!(stats.shed_at_submit_total(), 0);
}

#[test]
fn deadline_expiring_while_queued_is_shed_at_dequeue() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let pool = RingExecutor::new(1).unwrap();
    let _open = gated.gate.open_on_drop();
    let blocker = occupy_worker(&pool, &ring, &gated);

    // Valid (future) deadline at submit, so the request is genuinely
    // queued; it expires while the blocker holds the worker.
    let victim = pool
        .submit(
            &ring,
            tagged(7)
                .with_priority(Priority::High)
                .with_deadline(Instant::now() + Duration::from_millis(20)),
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
    let _open = gated.gate.open_on_drop();
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
    let _open = gated.gate.open_on_drop();
    let blocker = occupy_worker(&pool, &ring, &gated);

    let handle = pool.submit(&ring, tagged(7)).unwrap();
    // Unfinished: try_wait hands the handle back.
    let handle = handle.try_wait().expect_err("still queued");

    gated.gate.open();
    blocker.wait().unwrap();
    assert!(handle.wait().is_ok());

    // Finished: try_wait yields the product immediately.
    let done = pool.submit(&ring, tagged(8)).unwrap();
    spin_until("second request to finish", || done.is_finished());
    let product = done.try_wait().expect("finished").unwrap();
    assert_eq!(product.len(), N);
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
    let _open = slow.gate.open_on_drop();

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
