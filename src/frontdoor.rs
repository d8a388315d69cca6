//! The async front door: [`Future`]-based request handles plus bounded
//! admission control over a [`RingExecutor`] — the layer that lets a
//! network service sit on the executor without unbounded memory and
//! without a thread parked per in-flight request.
//!
//! PR 5 gave the executor serving QoS (priorities, deadlines,
//! cancellation) and PR 6–7 a multi-op vocabulary on fused kernels;
//! what a million-user service still needs from the front door are the
//! two properties every production queue has:
//!
//! 1. **Asynchronous completion.** [`FrontDoor::submit`] returns an
//!    [`AsyncRequestHandle`] implementing
//!    [`std::future::Future`]`<Output = Result<Coefficients, Error>>`.
//!    The future parks its [`Waker`] in the request's
//!    shared outcome slot; the worker that publishes the outcome (last
//!    channel joined — or the request shed at its deadline, or
//!    cancelled) fires it exactly once. No polling thread, no condvar
//!    parked per request. Std wakers only — the build is offline, so a
//!    minimal [`block_on`] executor (and a [`join_all`] combinator) is
//!    shipped here for tests, examples, and thread-per-core servers;
//!    any waker-driven runtime can drive the same futures.
//! 2. **Bounded admission.** Each [`Priority`] class has a configurable
//!    queue-depth limit ([`FrontDoorBuilder::queue_depth`] /
//!    [`FrontDoorBuilder::queue_depth_for`]). A submit that would push
//!    a class past its limit is **shed at submit**: it resolves
//!    immediately with [`Error::Overloaded`], executes zero channels,
//!    and never blocks the caller — overload sheds load instead of
//!    growing queues until memory does the shedding. Well-behaved
//!    clients that prefer waiting to shedding take the other door:
//!    [`FrontDoor::reserve`] blocks until the class has capacity and
//!    returns a [`Permit`] whose [`FrontDoor::submit_reserved`] cannot
//!    be shed.
//!
//! Every admission decision is counted in an [`AdmissionStats`]
//! snapshot (atomics only): `admitted + shed_at_submit == submitted`
//! always reconciles, deadline sheds and cancellations are counted at
//! outcome publication (so they stay exact even when the caller drops a
//! future without awaiting it), and per-class queue high-water marks
//! show how close each class ran to its limit.
//!
//! The unit of admission is the *request*, whatever its shape: a
//! multi-node [`OpGraph`](crate::OpGraph) request submitted via
//! [`RingRequest::graph`](crate::RingRequest::graph) occupies one
//! queue slot, resolves through one future, and counts once in every
//! stat, exactly like a single-op request — however many node ×
//! channel work items it fans out to behind the door.
//!
//! ```
//! use std::sync::Arc;
//! use mqx::core::primes;
//! use mqx::frontdoor::{block_on, join_all, FrontDoor};
//! use mqx::{PolyOp, PolyRing, Ring, RingRequest};
//!
//! let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, 64)?);
//! let door = FrontDoor::builder(2).queue_depth(64).build()?;
//!
//! // Submit a burst, then await the whole batch through one join.
//! let futures: Vec<_> = (0..8_u64)
//!     .map(|i| {
//!         let a: Vec<u128> = (0..64).map(|j| u128::from(i + j)).collect();
//!         door.submit(
//!             &ring,
//!             RingRequest::polymul(PolyOp::Negacyclic, a.clone().into(), a.into()),
//!         )
//!     })
//!     .collect::<Result<_, _>>()?;
//! let products = block_on(join_all(futures));
//! assert_eq!(products.len(), 8);
//! for product in products {
//!     assert_eq!(product?.len(), 64);
//! }
//!
//! let stats = door.stats();
//! assert!(stats.reconciles());
//! assert_eq!(stats.admitted, 8);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::error::Error;
use crate::executor::{
    Canceller, Priority, PublishHook, RequestHandle, RingExecutor, RingRequest, CLASSES,
};
use crate::poly::{Coefficients, PolyRing};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Default per-class queue-depth limit when the builder does not set
/// one: deep enough that a well-provisioned service never notices it,
/// bounded enough that a stalled pool sheds instead of swallowing the
/// caller's memory.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// How often a blocked [`FrontDoor::reserve`] re-checks the executor's
/// queue depth. Capacity freed by a permit drop is notified instantly;
/// capacity freed by a worker dequeuing a request is observed on this
/// tick (the executor's hot path stays free of admission bookkeeping).
const RESERVE_TICK: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------------
// Async handles
// ---------------------------------------------------------------------------

/// A [`Future`]-based claim on one submitted request's eventual result
/// — the async twin of [`RequestHandle`].
///
/// Await it on any waker-driven runtime (or this module's [`block_on`]):
/// the waker is parked in the request's shared outcome slot and fired
/// exactly once when the outcome is published — the last channel
/// joining, a deadline shed, or a cancellation. Re-polling before
/// completion replaces the parked waker, so the future is safe to move
/// between tasks.
///
/// Dropping the future without awaiting it is fine: the request still
/// runs to completion (its result is discarded), and admission
/// statistics stay exact because sheds are counted at publication, not
/// at await. To actively discard queued work after dropping the future,
/// take a [`canceller`](AsyncRequestHandle::canceller) first.
#[must_use = "futures do nothing unless polled; block_on or join them"]
pub struct AsyncRequestHandle {
    inner: Inner,
}

enum Inner {
    /// In flight: polls delegate to the request's outcome slot.
    Pending(RequestHandle),
    /// Resolved before (or without) entering the executor — an
    /// [`Error::Overloaded`] shed at admission. `None` once taken.
    Ready(Option<Result<Coefficients, Error>>),
}

impl AsyncRequestHandle {
    fn pending(handle: RequestHandle) -> AsyncRequestHandle {
        AsyncRequestHandle {
            inner: Inner::Pending(handle),
        }
    }

    fn ready(result: Result<Coefficients, Error>) -> AsyncRequestHandle {
        AsyncRequestHandle {
            inner: Inner::Ready(Some(result)),
        }
    }

    /// Requests cooperative cancellation (see [`RequestHandle::cancel`]);
    /// a no-op for a request that already resolved (including one shed
    /// at admission).
    pub fn cancel(&self) {
        if let Inner::Pending(handle) = &self.inner {
            handle.cancel();
        }
    }

    /// A detached cancellation handle that outlives this future —
    /// `None` when the request already resolved at admission (there is
    /// nothing left to cancel). Lets a front end drop the result claim
    /// yet still discard the queued work later:
    /// drop-the-future-then-cancel is a supported order.
    pub fn canceller(&self) -> Option<Canceller> {
        match &self.inner {
            Inner::Pending(handle) => Some(handle.canceller()),
            Inner::Ready(_) => None,
        }
    }

    /// Whether the request has fully resolved (polling or
    /// [`wait`](AsyncRequestHandle::wait) would return immediately).
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            Inner::Pending(handle) => handle.is_finished(),
            Inner::Ready(result) => result.is_some(),
        }
    }

    /// The synchronous escape hatch: blocks the calling thread until
    /// the request resolves. Bit-identical to awaiting the future —
    /// both consume the same published outcome.
    pub fn wait(self) -> Result<Coefficients, Error> {
        match self.inner {
            Inner::Pending(handle) => handle.wait(),
            Inner::Ready(result) => result.expect("async handle consumed twice"),
        }
    }
}

impl Future for AsyncRequestHandle {
    type Output = Result<Coefficients, Error>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().inner {
            Inner::Pending(handle) => match handle.poll_take(cx.waker()) {
                Some(result) => Poll::Ready(result),
                None => Poll::Pending,
            },
            Inner::Ready(result) => {
                Poll::Ready(result.take().expect("async handle polled after completion"))
            }
        }
    }
}

impl std::fmt::Debug for AsyncRequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncRequestHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Minimal std-only executor: block_on + join_all
// ---------------------------------------------------------------------------

/// The [`Waker`] behind [`block_on`]: wakes by unparking the polling
/// thread. `unpark` delivers a sticky token, so a wake landing between
/// a `poll` and the subsequent `park` is never lost.
struct ThreadUnparker {
    thread: std::thread::Thread,
}

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.thread.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.thread.unpark();
    }
}

/// Drives a future to completion on the calling thread — the minimal
/// std-only async executor this offline build ships instead of pulling
/// in a runtime. Parks the thread between polls (no busy-spinning);
/// each wake unparks it for exactly one re-poll.
///
/// ```
/// use mqx::frontdoor::block_on;
/// assert_eq!(block_on(async { 2 + 2 }), 4);
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadUnparker {
        thread: std::thread::current(),
    }));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            // Spurious unparks only cost a redundant poll; a missed
            // wake is impossible (the token is buffered).
            Poll::Pending => std::thread::park(),
        }
    }
}

/// One sub-future of a [`JoinAll`].
enum Slot<F: Future> {
    Pending(F),
    Done(F::Output),
    Taken,
}

/// Future returned by [`join_all`]: resolves once every sub-future has,
/// yielding their outputs in submission order.
#[must_use = "futures do nothing unless polled; block_on or join them"]
pub struct JoinAll<F: Future> {
    slots: Vec<Slot<F>>,
}

/// Joins a collection of futures into one future yielding every output
/// in input order — the batch-await a serving loop uses to collect a
/// burst of [`AsyncRequestHandle`]s in a single [`block_on`].
///
/// Completed sub-futures are never re-polled; the join resolves when
/// the last one does.
pub fn join_all<F, I>(futures: I) -> JoinAll<F>
where
    F: Future + Unpin,
    I: IntoIterator<Item = F>,
{
    JoinAll {
        slots: futures.into_iter().map(Slot::Pending).collect(),
    }
}

// Sound: `JoinAll` holds no self-references and never hands out a
// pinned view of an output value; with the futures themselves `Unpin`,
// moving the struct is always fine.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut done = true;
        for slot in &mut this.slots {
            if let Slot::Pending(future) = slot {
                match Pin::new(future).poll(cx) {
                    Poll::Ready(value) => *slot = Slot::Done(value),
                    Poll::Pending => done = false,
                }
            }
        }
        if !done {
            return Poll::Pending;
        }
        Poll::Ready(
            this.slots
                .iter_mut()
                .map(|slot| match std::mem::replace(slot, Slot::Taken) {
                    Slot::Done(value) => value,
                    _ => panic!("JoinAll polled after completion"),
                })
                .collect(),
        )
    }
}

impl<F: Future> std::fmt::Debug for JoinAll<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pending = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Pending(_)))
            .count();
        f.debug_struct("JoinAll")
            .field("total", &self.slots.len())
            .field("pending", &pending)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Admission statistics
// ---------------------------------------------------------------------------

/// Lock-free admission counters (the internal form of
/// [`AdmissionStats`]).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed_at_submit: [AtomicU64; CLASSES],
    shed_at_deadline: AtomicU64,
    cancelled: AtomicU64,
    queue_high_water: [AtomicUsize; CLASSES],
}

/// A point-in-time snapshot of a [`FrontDoor`]'s admission accounting
/// ([`FrontDoor::stats`]). All counters are monotonic (atomics only, no
/// locks on the submit path); per-class arrays are indexed in
/// [`Priority::ALL`] drain order (`[High, Normal, Low]`) — or use the
/// `*_for` accessors.
///
/// The books always balance:
/// `admitted + shed_at_submit (summed) == submitted` — see
/// [`reconciles`](AdmissionStats::reconciles). `shed_at_deadline` and
/// `cancelled` count *admitted* requests by their eventual outcome,
/// recorded at publication (not at await), so they stay exact even for
/// futures the caller dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests offered to the front door (admitted or shed at submit;
    /// requests rejected by *validation* — malformed operands — are not
    /// counted).
    pub submitted: u64,
    /// Requests that entered the executor's queues.
    pub admitted: u64,
    /// Requests shed with [`Error::Overloaded`] because their class was
    /// at its depth limit, per class.
    pub shed_at_submit: [u64; CLASSES],
    /// Admitted requests whose outcome was
    /// [`Error::DeadlineExceeded`] (shed at submit-time expiry or at
    /// dequeue).
    pub shed_at_deadline: u64,
    /// Admitted requests whose outcome was [`Error::Cancelled`].
    pub cancelled: u64,
    /// The deepest each class's pending queue got at admission time,
    /// per class.
    pub queue_high_water: [usize; CLASSES],
}

impl AdmissionStats {
    /// Requests shed at submit across every class.
    pub fn shed_at_submit_total(&self) -> u64 {
        self.shed_at_submit.iter().sum()
    }

    /// Requests shed at submit in one class.
    pub fn shed_at_submit_for(&self, class: Priority) -> u64 {
        self.shed_at_submit[class.class()]
    }

    /// One class's queue high-water mark.
    pub fn high_water_for(&self, class: Priority) -> usize {
        self.queue_high_water[class.class()]
    }

    /// Whether the books balance: every request offered to the front
    /// door was either admitted or shed at submit.
    pub fn reconciles(&self) -> bool {
        self.admitted + self.shed_at_submit_total() == self.submitted
    }
}

// ---------------------------------------------------------------------------
// The front door
// ---------------------------------------------------------------------------

/// Configures and builds a [`FrontDoor`]: worker count plus per-class
/// admission depth limits.
///
/// ```
/// use mqx::frontdoor::FrontDoor;
/// use mqx::Priority;
///
/// let door = FrontDoor::builder(2)
///     .queue_depth(256)                      // all classes
///     .queue_depth_for(Priority::Low, 32)    // bulk work gets less slack
///     .build()?;
/// assert_eq!(door.queue_depth_limit(Priority::Low), 32);
/// assert_eq!(door.queue_depth_limit(Priority::High), 256);
/// # Ok::<(), mqx::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct FrontDoorBuilder {
    workers: usize,
    depths: [usize; CLASSES],
}

impl FrontDoorBuilder {
    /// Starts a builder for a front door over a fresh pool of `workers`
    /// threads, every class at [`DEFAULT_QUEUE_DEPTH`].
    pub fn new(workers: usize) -> FrontDoorBuilder {
        FrontDoorBuilder {
            workers,
            depths: [DEFAULT_QUEUE_DEPTH; CLASSES],
        }
    }

    /// Sets every class's queue-depth limit. A class whose pending
    /// queue is at its limit sheds further submits with
    /// [`Error::Overloaded`]; depth `0` sheds every unreserved submit
    /// of that class.
    pub fn queue_depth(mut self, depth: usize) -> FrontDoorBuilder {
        self.depths = [depth; CLASSES];
        self
    }

    /// Sets one class's queue-depth limit (see
    /// [`queue_depth`](FrontDoorBuilder::queue_depth)).
    pub fn queue_depth_for(mut self, class: Priority, depth: usize) -> FrontDoorBuilder {
        self.depths[class.class()] = depth;
        self
    }

    /// Builds the front door (starting its executor's worker threads).
    ///
    /// # Errors
    ///
    /// [`Error::NoWorkers`] when the builder was given zero workers.
    pub fn build(self) -> Result<FrontDoor, Error> {
        Ok(FrontDoor {
            pool: RingExecutor::new(self.workers)?,
            limits: self.depths,
            admission: Mutex::new([0; CLASSES]),
            freed: Condvar::new(),
            counters: Arc::new(Counters::default()),
        })
    }
}

/// The admission-controlled async façade over a [`RingExecutor`]: what
/// a network service actually fronts the executor with.
///
/// * [`submit`](FrontDoor::submit) — admit-or-shed, returning an
///   [`AsyncRequestHandle`] future; a class at its depth limit resolves
///   the future immediately with [`Error::Overloaded`] (zero channels
///   executed, zero blocking).
/// * [`reserve`](FrontDoor::reserve) /
///   [`submit_reserved`](FrontDoor::submit_reserved) — the backpressure
///   path: block until the class has capacity, then submit unsheddable.
/// * [`stats`](FrontDoor::stats) — the reconciling [`AdmissionStats`]
///   snapshot.
///
/// The door owns its executor; [`executor`](FrontDoor::executor)
/// exposes it for blocking-style submits against the same pool (the
/// admission limits only govern requests that come through the door).
pub struct FrontDoor {
    pool: RingExecutor,
    limits: [usize; CLASSES],
    /// Per-class count of outstanding [`Permit`]s. A reservation holds
    /// a queue slot that is not yet in the injector, so admission
    /// compares `queued + reserved` against the limit. Doubles as the
    /// serialization point for check-then-enqueue: depth checks and the
    /// enqueue they authorize happen under this lock, so concurrent
    /// submits cannot conspire past a limit.
    admission: Mutex<[usize; CLASSES]>,
    /// Notified when a permit releases capacity (dropped or spent).
    freed: Condvar,
    counters: Arc<Counters>,
}

impl FrontDoor {
    /// Starts configuring a front door (see [`FrontDoorBuilder`]).
    pub fn builder(workers: usize) -> FrontDoorBuilder {
        FrontDoorBuilder::new(workers)
    }

    /// A front door over `workers` threads with every class at
    /// [`DEFAULT_QUEUE_DEPTH`].
    ///
    /// # Errors
    ///
    /// [`Error::NoWorkers`] when `workers == 0`.
    pub fn new(workers: usize) -> Result<FrontDoor, Error> {
        FrontDoorBuilder::new(workers).build()
    }

    /// The executor behind the door — for blocking-handle submits
    /// against the same worker pool. Requests submitted directly bypass
    /// admission control (and its statistics).
    pub fn executor(&self) -> &RingExecutor {
        &self.pool
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// One class's configured admission depth limit.
    pub fn queue_depth_limit(&self, class: Priority) -> usize {
        self.limits[class.class()]
    }

    /// The outcome observer installed on every admitted request: counts
    /// deadline sheds and cancellations at publication, so the stats
    /// stay exact even when the caller never awaits the future.
    fn publish_hook(&self) -> PublishHook {
        let counters = Arc::clone(&self.counters);
        // ORDERING: all AdmissionStats counters are Relaxed — they are
        // monotonic statistics; nothing is published through them and
        // `stats()` reads are intentionally non-atomic snapshots.
        Box::new(move |outcome| match outcome {
            Err(Error::DeadlineExceeded) => {
                counters.shed_at_deadline.fetch_add(1, Ordering::Relaxed);
            }
            Err(Error::Cancelled) => {
                counters.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        })
    }

    /// Submits one request through admission control, returning its
    /// completion future.
    ///
    /// A request whose [`Priority`] class is at its depth limit is
    /// **shed**: the returned future resolves immediately with
    /// [`Error::Overloaded`] — it never enters the executor, executes
    /// zero channels, and never blocks the caller. (Shedding is the
    /// overload response a service wants on its *unreserved* path;
    /// see [`reserve`](FrontDoor::reserve) for backpressure instead.)
    ///
    /// # Errors
    ///
    /// Validation failures only (the same submit-time checks as
    /// [`RingExecutor::submit`]: arity, operand lengths, coefficient
    /// representation, unsupported ops). Overload is *not* an `Err`
    /// from this method — it resolves through the future, exactly like
    /// every other per-request serving outcome.
    pub fn submit(
        &self,
        ring: &Arc<dyn PolyRing>,
        request: RingRequest,
    ) -> Result<AsyncRequestHandle, Error> {
        let class = request.options().priority;
        let idx = class.class();
        let guard = self.admission.lock().expect("admission lock poisoned");
        let queued = self.pool.queue_depth(class);
        if queued + guard[idx] >= self.limits[idx] {
            drop(guard);
            // ORDERING: Relaxed statistics counters (see publish_hook).
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.shed_at_submit[idx].fetch_add(1, Ordering::Relaxed);
            return Ok(AsyncRequestHandle::ready(Err(Error::Overloaded {
                class,
                depth: self.limits[idx],
            })));
        }
        let handle = self
            .pool
            .submit_with_hook(ring, request, Some(self.publish_hook()))?;
        drop(guard);
        // ORDERING: Relaxed statistics counters (see publish_hook).
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.counters.queue_high_water[idx].fetch_max(queued + 1, Ordering::Relaxed);
        Ok(AsyncRequestHandle::pending(handle))
    }

    /// Tries to reserve one queue slot in `class` without blocking:
    /// `None` when the class is at its limit. The returned [`Permit`]
    /// holds the slot until it is spent
    /// ([`submit_reserved`](FrontDoor::submit_reserved)) or dropped.
    pub fn try_reserve(&self, class: Priority) -> Option<Permit<'_>> {
        let idx = class.class();
        let mut reserved = self.admission.lock().expect("admission lock poisoned");
        if self.pool.queue_depth(class) + reserved[idx] >= self.limits[idx] {
            return None;
        }
        reserved[idx] += 1;
        Some(Permit {
            door: self,
            class,
            armed: true,
        })
    }

    /// Reserves one queue slot in `class`, blocking until the class has
    /// capacity — backpressure for well-behaved clients, instead of the
    /// shedding an unreserved [`submit`](FrontDoor::submit) risks.
    /// Capacity freed by other permits is picked up immediately;
    /// capacity freed by workers draining the queue is observed on a
    /// millisecond tick.
    ///
    /// A class with depth limit `0` can never gain capacity; prefer
    /// [`reserve_timeout`](FrontDoor::reserve_timeout) when the limit
    /// is not known to be positive.
    pub fn reserve(&self, class: Priority) -> Permit<'_> {
        loop {
            match self.reserve_deadline(class, Instant::now() + Duration::from_secs(3600)) {
                Some(permit) => return permit,
                None => continue,
            }
        }
    }

    /// [`reserve`](FrontDoor::reserve) with a bound: gives up and
    /// returns `None` once `timeout` has elapsed without capacity.
    pub fn reserve_timeout(&self, class: Priority, timeout: Duration) -> Option<Permit<'_>> {
        self.reserve_deadline(class, Instant::now() + timeout)
    }

    fn reserve_deadline(&self, class: Priority, deadline: Instant) -> Option<Permit<'_>> {
        let idx = class.class();
        let mut reserved = self.admission.lock().expect("admission lock poisoned");
        loop {
            if self.pool.queue_depth(class) + reserved[idx] < self.limits[idx] {
                reserved[idx] += 1;
                return Some(Permit {
                    door: self,
                    class,
                    armed: true,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Bounded wait: permit releases notify instantly, worker
            // dequeues are polled on the tick.
            let wait = RESERVE_TICK.min(deadline - now);
            reserved = self
                .freed
                .wait_timeout(reserved, wait)
                .expect("admission lock poisoned")
                .0;
        }
    }

    /// Spends `permit` to submit one request that **cannot** be shed at
    /// admission: the reservation already holds its queue slot, so the
    /// request enters the executor even if the class has meanwhile
    /// filled. The request rides in the permit's class (its priority
    /// option is overridden to match the reservation).
    ///
    /// The permit is consumed either way; on a validation error the
    /// reserved slot is released back to the class.
    ///
    /// # Errors
    ///
    /// The same validation failures as [`submit`](FrontDoor::submit) —
    /// never [`Error::Overloaded`].
    pub fn submit_reserved(
        &self,
        permit: Permit<'_>,
        ring: &Arc<dyn PolyRing>,
        request: RingRequest,
    ) -> Result<AsyncRequestHandle, Error> {
        let class = permit.class;
        let idx = class.class();
        let request = request.with_priority(class);
        let mut reserved = self.admission.lock().expect("admission lock poisoned");
        let queued = self.pool.queue_depth(class);
        let result = self
            .pool
            .submit_with_hook(ring, request, Some(self.publish_hook()));
        // The reservation converts into a queue entry (or, on a
        // validation error, evaporates): release it under the lock we
        // already hold, then disarm the permit so its Drop (which would
        // re-take the lock) does nothing.
        reserved[idx] -= 1;
        drop(reserved);
        self.freed.notify_all();
        permit.disarm();
        let handle = result?;
        // ORDERING: Relaxed statistics counters (see publish_hook).
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.counters.queue_high_water[idx].fetch_max(queued + 1, Ordering::Relaxed);
        Ok(AsyncRequestHandle::pending(handle))
    }

    /// A point-in-time [`AdmissionStats`] snapshot.
    pub fn stats(&self) -> AdmissionStats {
        // ORDERING: Relaxed reads of the statistics counters; the
        // snapshot is advisory and deliberately not atomic across
        // fields (see publish_hook).
        AdmissionStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            shed_at_submit: std::array::from_fn(|i| {
                self.counters.shed_at_submit[i].load(Ordering::Relaxed)
            }),
            shed_at_deadline: self.counters.shed_at_deadline.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            // ORDERING: Relaxed, as for every counter above.
            queue_high_water: std::array::from_fn(|i| {
                self.counters.queue_high_water[i].load(Ordering::Relaxed)
            }),
        }
    }
}

impl std::fmt::Debug for FrontDoor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontDoor")
            .field("workers", &self.workers())
            .field("limits", &self.limits)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A reserved queue slot in one [`Priority`] class —
/// [`FrontDoor::reserve`]'s backpressure token. Spend it with
/// [`FrontDoor::submit_reserved`] for an unsheddable submit; dropping
/// it unspent releases the slot (and wakes blocked reservers).
#[must_use = "a permit holds a queue slot; spend it with submit_reserved or drop it"]
pub struct Permit<'a> {
    door: &'a FrontDoor,
    class: Priority,
    armed: bool,
}

impl Permit<'_> {
    /// The class this permit reserves a slot in.
    pub fn class(&self) -> Priority {
        self.class
    }

    /// Marks the reservation as already released so Drop does nothing.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut reserved = self.door.admission.lock().expect("admission lock poisoned");
        reserved[self.class.class()] -= 1;
        drop(reserved);
        self.door.freed.notify_all();
    }
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("class", &self.class)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyOp;
    use crate::Ring;
    use mqx_core::primes;

    const N: usize = 64;

    fn ring() -> Arc<dyn PolyRing> {
        Arc::new(Ring::auto(primes::Q124, N).unwrap())
    }

    fn request(seed: u64) -> RingRequest {
        let a: Vec<u128> = (0..N as u64).map(|i| u128::from(i * 3 + seed)).collect();
        let b: Vec<u128> = (0..N as u64)
            .map(|i| u128::from(i + 2 * seed + 1))
            .collect();
        RingRequest::polymul(PolyOp::Cyclic, a.into(), b.into())
    }

    #[test]
    fn block_on_drives_plain_futures() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
        assert_eq!(block_on(std::future::ready("done")), "done");
    }

    #[test]
    fn join_all_preserves_input_order() {
        let futures: Vec<_> = (0..5).map(std::future::ready).collect();
        assert_eq!(block_on(join_all(futures)), vec![0, 1, 2, 3, 4]);
        let empty: Vec<std::future::Ready<u8>> = Vec::new();
        assert_eq!(block_on(join_all(empty)), Vec::<u8>::new());
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let door = FrontDoor::new(1).unwrap();
        for class in Priority::ALL {
            assert_eq!(door.queue_depth_limit(class), DEFAULT_QUEUE_DEPTH);
        }
        let door = FrontDoor::builder(1)
            .queue_depth(8)
            .queue_depth_for(Priority::High, 32)
            .build()
            .unwrap();
        assert_eq!(door.queue_depth_limit(Priority::High), 32);
        assert_eq!(door.queue_depth_limit(Priority::Normal), 8);
        assert_eq!(door.queue_depth_limit(Priority::Low), 8);
        assert_eq!(door.workers(), 1);
        assert!(matches!(
            FrontDoor::builder(0).build().unwrap_err(),
            Error::NoWorkers
        ));
    }

    #[test]
    fn awaited_product_matches_blocking_wait() {
        let ring = ring();
        let door = FrontDoor::new(2).unwrap();
        let expected = door
            .executor()
            .submit(&ring, request(5))
            .unwrap()
            .wait()
            .unwrap();
        let future = door.submit(&ring, request(5)).unwrap();
        assert_eq!(block_on(future), Ok(expected.clone()));
        // The synchronous escape hatch consumes the same outcome.
        let handle = door.submit(&ring, request(5)).unwrap();
        assert_eq!(handle.wait(), Ok(expected));
        let stats = door.stats();
        assert!(stats.reconciles());
        assert_eq!(stats.submitted, 2, "direct executor submits not counted");
    }

    #[test]
    fn validation_errors_surface_and_are_uncounted() {
        let ring = ring();
        let door = FrontDoor::new(1).unwrap();
        let uneven = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; N - 1].into(),
            vec![0_u128; N].into(),
        );
        assert!(matches!(
            door.submit(&ring, uneven).unwrap_err(),
            Error::OperandLengthMismatch { .. }
        ));
        let stats = door.stats();
        assert_eq!(stats.submitted, 0);
        assert!(stats.reconciles());
    }

    #[test]
    fn depth_zero_class_sheds_everything_but_permits_never_materialize() {
        let ring = ring();
        let door = FrontDoor::builder(1)
            .queue_depth_for(Priority::Low, 0)
            .build()
            .unwrap();
        let shed = door
            .submit(&ring, request(1).with_priority(Priority::Low))
            .unwrap();
        assert!(shed.is_finished(), "resolved at admission");
        assert!(shed.canceller().is_none(), "nothing to cancel");
        assert!(matches!(
            block_on(shed),
            Err(Error::Overloaded {
                class: Priority::Low,
                depth: 0
            })
        ));
        assert!(door.try_reserve(Priority::Low).is_none());
        assert!(door
            .reserve_timeout(Priority::Low, Duration::from_millis(5))
            .is_none());
        // Other classes are unaffected.
        let ok = door.submit(&ring, request(2)).unwrap();
        assert!(block_on(ok).is_ok());
        let stats = door.stats();
        assert!(stats.reconciles());
        assert_eq!(stats.shed_at_submit_for(Priority::Low), 1);
        assert_eq!(stats.shed_at_submit_total(), 1);
    }

    #[test]
    fn dropped_permit_releases_its_slot() {
        let door = FrontDoor::builder(1)
            .queue_depth_for(Priority::Normal, 1)
            .build()
            .unwrap();
        let permit = door.try_reserve(Priority::Normal).unwrap();
        assert_eq!(permit.class(), Priority::Normal);
        assert!(door.try_reserve(Priority::Normal).is_none(), "slot held");
        drop(permit);
        let again = door.try_reserve(Priority::Normal);
        assert!(again.is_some(), "drop released the slot");
    }

    #[test]
    fn reserved_submit_rides_the_permit_class() {
        let ring = ring();
        let door = FrontDoor::builder(2)
            .queue_depth_for(Priority::High, 4)
            .build()
            .unwrap();
        let permit = door.reserve(Priority::High);
        // Submitted as Normal, but the permit pins it to High.
        let future = door.submit_reserved(permit, &ring, request(9)).unwrap();
        assert!(block_on(future).is_ok());
        let stats = door.stats();
        assert_eq!(stats.admitted, 1);
        assert!(stats.high_water_for(Priority::High) >= 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn reserved_submit_validation_error_releases_the_slot() {
        let ring = ring();
        let door = FrontDoor::builder(1)
            .queue_depth_for(Priority::Normal, 1)
            .build()
            .unwrap();
        let permit = door.try_reserve(Priority::Normal).unwrap();
        let uneven = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; N - 1].into(),
            vec![0_u128; N].into(),
        );
        assert!(door.submit_reserved(permit, &ring, uneven).is_err());
        assert!(
            door.try_reserve(Priority::Normal).is_some(),
            "failed reserved submit still released the reservation"
        );
        assert!(door.stats().reconciles());
    }
}
