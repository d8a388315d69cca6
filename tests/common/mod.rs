//! Shared fixture for the scheduling-sensitive suites: a gate-blocked
//! mock ring. A one-worker pool occupied by a gated "blocker" request
//! makes everything submitted behind it pile up in the injector, so the
//! order the mock logs executions in is exactly the order the injector
//! released them.

// Each suite uses its own subset of the fixture.
#![allow(dead_code)]

use mqx::core::primes;
use mqx::{
    Coefficients, Error, PolyOp, PolyRing, RequestHandle, Ring, RingExecutor, RingOp, RingRequest,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub const N: usize = 64;
/// `a[0]` value marking the request that parks on the gate.
pub const BLOCKER_TAG: u128 = 999_999;

/// A one-way gate: closed until `open()`, then open forever.
pub struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    pub fn new() -> Gate {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    pub fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

/// Spins until `cond` holds, panicking after a generous timeout so a
/// regression fails instead of hanging the suite.
pub fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Wraps a real [`Ring`] behind exactly the seven required [`PolyRing`]
/// methods, logging every executed work item's `a[0]` tag and parking
/// items tagged [`BLOCKER_TAG`] on a gate until the test releases them.
pub struct GatedRing {
    pub inner: Ring,
    pub gate: Gate,
    /// Set once the blocker request has reached the worker (so the
    /// test knows the only worker is occupied before it queues more).
    pub blocker_started: AtomicBool,
    executed: AtomicUsize,
    log: Mutex<Vec<u128>>,
}

impl GatedRing {
    pub fn new() -> GatedRing {
        GatedRing {
            inner: Ring::auto(primes::Q124, N).unwrap(),
            gate: Gate::new(),
            blocker_started: AtomicBool::new(false),
            executed: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Work items that reached the kernel.
    pub fn executed(&self) -> usize {
        self.executed.load(Ordering::Acquire)
    }

    /// The `a[0]` tag of every executed work item, in execution order.
    pub fn log(&self) -> Vec<u128> {
        self.log.lock().unwrap().clone()
    }
}

impl PolyRing for GatedRing {
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
        let tag = a[channel][0];
        if tag == BLOCKER_TAG {
            self.blocker_started.store(true, Ordering::Release);
            self.gate.wait();
        }
        self.log.lock().unwrap().push(tag);
        self.executed.fetch_add(1, Ordering::AcqRel);
        self.inner
            .channel_apply_at_into(op, width, channel, a, b, out)
    }
    fn join_at(&self, width: usize, channels: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
        self.inner.join_at(width, channels)
    }
}

/// A cyclic product whose `a[0]` carries `tag` (the rest zeros): enough
/// to be a valid request, and enough to identify it in the execution
/// log.
pub fn tagged(tag: u128) -> RingRequest {
    let mut a = vec![0_u128; N];
    a[0] = tag;
    RingRequest::polymul(PolyOp::Cyclic, a.into(), vec![1_u128; N].into())
}

/// Occupies the pool's single worker with the gated blocker and waits
/// until it is actually executing, so everything submitted afterwards
/// piles up in the injector.
pub fn occupy_worker(
    pool: &RingExecutor,
    ring: &Arc<dyn PolyRing>,
    gated: &GatedRing,
) -> RequestHandle {
    let handle = pool.submit(ring, tagged(BLOCKER_TAG)).unwrap();
    spin_until("blocker to reach the worker", || {
        gated.blocker_started.load(Ordering::Acquire)
    });
    handle
}
