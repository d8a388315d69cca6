//! Acceptance suite for the pool's admission control and async
//! completion (under the front-door names): awaited handles are
//! bit-identical to blocking waits for every `RingOp` on both ring
//! kinds, saturation sheds with `Error::Overloaded` and zero channels
//! executed, wakers fire exactly once (no busy-poll), the
//! drop-the-handle-then-cancel order works, concurrent submitters split
//! in parallel, and `AdmissionStats` reconcile under a concurrent submit
//! hammer that never lets a class past its limit.
//!
//! Scheduling-sensitive tests reuse the `executor_qos` idiom: a
//! one-worker pool occupied by a gated "blocker" request, so everything
//! submitted behind it piles up in the injector at depths the test
//! controls exactly. The blocker goes through the same `submit`, so the
//! stats count it too.

mod common;

use common::{occupy_worker, spin_until, tagged, GatedRing, N};
use mqx::bignum::BigUint;
use mqx::core::primes;
use mqx::frontdoor::{block_on, join_all, AsyncRequestHandle, FrontDoor};
use mqx::{Coefficients, Error, PolyOp, PolyRing, Priority, Ring, RingOp, RingRequest, RnsRing};
use std::borrow::Cow;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

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

fn word_coeffs(seed: u64) -> Coefficients {
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

/// The acceptance gate: for every supported `RingOp`, the coefficients
/// an `AsyncRequestHandle` resolves to under `block_on` are
/// bit-identical to what the blocking `RequestHandle::wait` returns for
/// the same request against the same shared ring.
fn assert_async_matches_blocking(ring: &Arc<dyn PolyRing>, cases: Vec<RingRequest>) {
    let door = FrontDoor::new(2).unwrap();
    let mut futures = Vec::new();
    let mut blocking = Vec::new();
    for request in cases {
        blocking.push(door.executor().submit(ring, request.clone()).unwrap());
        futures.push(door.submit(ring, request).unwrap());
    }
    let submitted = futures.len() as u64;
    let awaited = block_on(join_all(futures));
    for (i, (awaited, handle)) in awaited.into_iter().zip(blocking).enumerate() {
        let expected = handle.wait().unwrap();
        assert_eq!(awaited.unwrap(), expected, "op case {i} diverged");
    }
    let stats = door.stats();
    assert!(stats.reconciles());
    assert_eq!(
        stats.admitted,
        2 * submitted,
        "every submit counts, the blocking twins too; nothing shed at these depths"
    );
    assert_eq!(stats.shed_at_submit_total(), 0);
}

#[test]
fn awaited_futures_match_blocking_waits_for_every_op_on_word_ring() {
    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let mut cases = Vec::new();
    for i in 0..12_u64 {
        let a = word_coeffs(0x11 + i);
        let b = word_coeffs(0x22 + i);
        cases.push(match i % 4 {
            0 => RingRequest::polymul(PolyOp::Negacyclic, a, b),
            1 => RingRequest::polymul(PolyOp::Cyclic, a, b),
            2 => RingRequest::add(a, b),
            _ => RingRequest::sub(a, b),
        });
    }
    assert_async_matches_blocking(&ring, cases);
}

#[test]
fn awaited_futures_match_blocking_waits_for_every_op_on_rns_ring() {
    let concrete = RnsRing::auto(3, N).unwrap();
    let product = concrete.product_modulus().clone();
    let ring: Arc<dyn PolyRing> = Arc::new(concrete);
    let mut cases = Vec::new();
    for i in 0..18_u64 {
        let a = Coefficients::Big(big_coeffs(N, &product, 0xA1 ^ i));
        let b = Coefficients::Big(big_coeffs(N, &product, 0xB2 ^ (i << 1)));
        cases.push(match i % 6 {
            0 => RingRequest::polymul(PolyOp::Negacyclic, a, b),
            1 => RingRequest::polymul(PolyOp::Cyclic, a, b),
            2 => RingRequest::add(a, b),
            3 => RingRequest::sub(a, b),
            4 => RingRequest::rescale(a),
            _ => RingRequest::basis_extend(a, 1),
        });
    }
    assert_async_matches_blocking(&ring, cases);
}

#[test]
fn saturated_low_queue_sheds_overloaded_with_zero_channels_executed() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let door = FrontDoor::builder(1).queue_depth(2).build().unwrap();
    let _open = gated.gate.open_on_drop();
    let blocker = occupy_worker(door.executor(), &ring, &gated);

    // Two Low requests fill the depth-2 class while the worker is held.
    let queued: Vec<_> = (0..2)
        .map(|i| {
            door.submit(&ring, tagged(i).with_priority(Priority::Low))
                .unwrap()
        })
        .collect();
    assert_eq!(door.executor().queue_depths()[Priority::Low as usize], 2);

    // The third is shed at submit: resolved immediately, never blocks,
    // never enters the executor.
    let shed = door
        .submit(&ring, tagged(7).with_priority(Priority::Low))
        .unwrap();
    assert!(shed.is_finished(), "shed requests resolve at submit");
    assert!(matches!(
        block_on(shed),
        Err(Error::Overloaded {
            class: Priority::Low,
            depth: 2
        })
    ));
    // The limit is per class: a full Low queue sheds nothing of High.
    let high = door
        .submit(&ring, tagged(8).with_priority(Priority::High))
        .unwrap();
    assert!(!high.is_finished(), "queued, not shed");
    // Nothing has completed a kernel: the blocker is parked on the
    // gate ahead of its log line, and everything else is queued.
    assert_eq!(gated.executed(), 0, "no channel executed yet");

    gated.gate.open();
    blocker.wait().unwrap();
    for future in queued {
        block_on(future).unwrap();
    }
    block_on(high).unwrap();
    // The shed request executed zero channels: its tag never reached
    // the ring.
    assert!(!gated.log().contains(&7), "shed request never executed");
    assert_eq!(gated.executed(), 4, "blocker + the three admitted");

    let stats = door.stats();
    assert!(stats.reconciles(), "admitted + shed == submitted");
    assert_eq!(stats.submitted, 5, "the blocker + three Low + one High");
    assert_eq!(stats.admitted, 4, "the blocker + the three queued");
    assert_eq!(stats.shed_at_submit_for(Priority::Low), 1);
    assert_eq!(stats.high_water_for(Priority::Low), 2);
}

/// A waker that only counts its wakes.
struct CountingWaker {
    wakes: AtomicUsize,
}

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::AcqRel);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::AcqRel);
    }
}

#[test]
fn parked_future_is_woken_exactly_once_with_no_busy_poll() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let door = FrontDoor::new(1).unwrap();
    let _open = gated.gate.open_on_drop();
    let blocker = occupy_worker(door.executor(), &ring, &gated);

    let mut future = door.submit(&ring, tagged(7)).unwrap();
    let counter = Arc::new(CountingWaker {
        wakes: AtomicUsize::new(0),
    });
    let waker = Waker::from(Arc::clone(&counter));
    let mut cx = Context::from_waker(&waker);

    // Parked: the poll registers the waker in the outcome slot.
    assert!(matches!(Pin::new(&mut future).poll(&mut cx), Poll::Pending));
    assert_eq!(counter.wakes.load(Ordering::Acquire), 0, "nothing to wake");

    gated.gate.open();
    blocker.wait().unwrap();
    spin_until("the publication wake", || {
        counter.wakes.load(Ordering::Acquire) == 1
    });
    // Exactly once: no spurious re-wakes after publication.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(counter.wakes.load(Ordering::Acquire), 1, "woken once");

    match Pin::new(&mut future).poll(&mut cx) {
        Poll::Ready(result) => assert_eq!(result.unwrap().len(), N),
        Poll::Pending => panic!("woken future must be ready"),
    }
}

#[test]
fn dropping_the_future_then_cancelling_sheds_the_queued_work() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let door = FrontDoor::new(1).unwrap();
    let _open = gated.gate.open_on_drop();
    let blocker = occupy_worker(door.executor(), &ring, &gated);

    let victim = door.submit(&ring, tagged(7)).unwrap();
    let canceller = victim.canceller();
    // The front end loses interest: result claim dropped first, the
    // cancel fired after — the race the detached canceller exists for.
    drop(victim);
    canceller.cancel();

    gated.gate.open();
    blocker.wait().unwrap();
    // Nobody awaits the victim, but the publication hook still counts
    // its cancellation.
    spin_until("the cancellation to be counted", || {
        door.stats().cancelled == 1
    });
    assert!(!gated.log().contains(&7), "cancelled request never ran");
    assert_eq!(gated.executed(), 1, "only the blocker executed");
    let stats = door.stats();
    assert!(stats.reconciles());
    assert_eq!(
        stats.admitted, 2,
        "the blocker, and the victim before its cancel"
    );
}

#[test]
fn deadline_sheds_are_counted_at_publication() {
    let gated = Arc::new(GatedRing::new());
    let ring: Arc<dyn PolyRing> = Arc::clone(&gated) as Arc<dyn PolyRing>;
    let door = FrontDoor::new(1).unwrap();
    let _open = gated.gate.open_on_drop();
    let blocker = occupy_worker(door.executor(), &ring, &gated);

    // Dead on arrival: admitted (it passed admission), then shed by its
    // deadline before reaching a kernel — and dropped unawaited.
    let doomed = door
        .submit(&ring, tagged(7).with_deadline(Instant::now()))
        .unwrap();
    assert!(doomed.is_finished());
    drop(doomed);
    assert_eq!(door.stats().shed_at_deadline, 1);

    gated.gate.open();
    blocker.wait().unwrap();
    assert_eq!(gated.executed(), 1, "the doomed request never ran");
    assert!(door.stats().reconciles());
}

#[test]
fn concurrent_submit_hammer_reconciles_and_every_future_resolves() {
    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let door = FrontDoor::builder(2).queue_depth(4).build().unwrap();

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25;
    let completed = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (door, ring) = (&door, &ring);
            let (completed, shed) = (&completed, &shed);
            s.spawn(move || {
                let futures: Vec<AsyncRequestHandle> = (0..PER_THREAD)
                    .map(|i| {
                        door.submit(ring, tagged(u128::from(t * PER_THREAD + i)))
                            .unwrap()
                    })
                    .collect();
                for outcome in block_on(join_all(futures)) {
                    match outcome {
                        Ok(product) => {
                            assert_eq!(product.len(), N);
                            completed.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(Error::Overloaded {
                            class: Priority::Normal,
                            depth: 4,
                        }) => {
                            shed.fetch_add(1, Ordering::AcqRel);
                        }
                        Err(other) => panic!("unexpected outcome: {other}"),
                    }
                }
            });
        }
    });

    let stats = door.stats();
    assert!(stats.reconciles(), "books balance under concurrency");
    assert_eq!(stats.submitted, THREADS * PER_THREAD);
    assert_eq!(stats.admitted, completed.load(Ordering::Acquire) as u64);
    assert_eq!(
        stats.shed_at_submit_total(),
        shed.load(Ordering::Acquire) as u64
    );
    assert!(
        stats.high_water_for(Priority::Normal) <= 4,
        "admission never let the class past its limit, saw {}",
        stats.high_water_for(Priority::Normal)
    );
}

/// How long a rendezvous waits for its second caller before giving up:
/// a failure, never a hang.
const RENDEZVOUS: Duration = Duration::from_secs(5);

/// Callers inside `split_cow` now, the most ever seen at once, and
/// whether a caller gave up waiting for company.
#[derive(Default)]
struct Inside {
    now: usize,
    peak: usize,
    gave_up: bool,
}

/// A ring whose `split_cow` waits until two callers are inside it at
/// once (at most [`RENDEZVOUS`]), recording the peak it saw.
struct RendezvousRing {
    inner: Ring,
    inside: Mutex<Inside>,
    arrived: Condvar,
}

impl PolyRing for RendezvousRing {
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
        let mut inside = self.inside.lock().unwrap();
        inside.now += 1;
        inside.peak = inside.peak.max(inside.now);
        self.arrived.notify_all();
        let (mut inside, waited) = self
            .arrived
            .wait_timeout_while(inside, RENDEZVOUS, |inside| {
                inside.peak < 2 && !inside.gave_up
            })
            .unwrap();
        if waited.timed_out() {
            // Nobody else will come: let every later caller through.
            inside.gave_up = true;
            self.arrived.notify_all();
        }
        inside.now -= 1;
        drop(inside);
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
        self.inner.join_at(width, channels)
    }
}

/// Admission holds no lock across the split: two threads submitting on
/// one door are inside `split_cow` at the same time.
#[test]
fn submitters_split_concurrently() {
    let rendezvous = Arc::new(RendezvousRing {
        inner: Ring::auto(primes::Q124, N).unwrap(),
        inside: Mutex::new(Inside::default()),
        arrived: Condvar::new(),
    });
    let ring: Arc<dyn PolyRing> = Arc::clone(&rendezvous) as Arc<dyn PolyRing>;
    let door = FrontDoor::new(1).unwrap();
    std::thread::scope(|s| {
        for tag in 0..2 {
            let (door, ring) = (&door, &ring);
            s.spawn(move || {
                let handle = door.submit(ring, tagged(tag)).unwrap();
                assert_eq!(block_on(handle).unwrap().len(), N);
            });
        }
    });
    let inside = rendezvous.inside.lock().unwrap();
    assert!(
        !inside.gave_up,
        "a submitter split alone for {RENDEZVOUS:?}"
    );
    assert_eq!(
        inside.peak, 2,
        "both submitters were inside split_cow at once"
    );
}
