//! [`RingExecutor`]: a work-stealing thread-pool that serves queues of
//! ring operations — the whole [`RingOp`] vocabulary: polymul, add,
//! sub, modulus rescale, RNS basis extension — against any shared
//! [`PolyRing`], with serving-grade QoS — request priorities,
//! deadlines, and cooperative cancellation.
//!
//! The source paper's throughput argument is that CPUs close the gap to
//! specialized hardware by keeping vector units saturated across *many
//! independent* NTTs — the regime a server hits when it batches polymul
//! requests. This executor is that serving loop: a fixed pool of worker
//! threads (started once, not per call), one immutable ring handle
//! shared by all of them (one plan, pooled per-worker scratch via the
//! ring's internal `ScratchPool`), and a
//! crossbeam-style two-level queue built on `std` — a shared injector
//! plus one deque per worker, with idle workers stealing from busy
//! ones.
//!
//! Each submitted [`RingRequest`] is a *dependency graph* of
//! [`RingOp`] nodes with its external operands (a single op is the
//! one-node graph), fanned out through the ring's channel
//! decomposition ([`PolyRing::split`] /
//! [`PolyRing::op_output_channels_at`]): a single-modulus [`Ring`] is
//! one work item per node, a `k`-channel [`RnsRing`] becomes one
//! independent word-sized item per *output* channel (`k` for
//! polymul/add/sub, `k − 1` for rescale, `k + extra` for basis
//! extension) that different workers pick up — `channels × batch`
//! items in flight for a batch, replacing the scoped threads `RnsRing`
//! spawns per one-shot call.
//!
//! Fan-out is per `(node × output channel)` with an atomic indegree
//! countdown per node: a node's channels enter the stealing deques the
//! moment its last graph predecessor completes, so stage `s + 1` of
//! request A overlaps stage `s` of request B on the same pool. Between
//! nodes nothing is recombined — intermediates stay channel-major
//! residues ([`PolyRing::channel_apply_at_into`]) — and the worker that
//! finishes the output node's last channel performs the request's
//! single CRT join ([`PolyRing::join_at`]) and wakes the caller's
//! [`RequestHandle`]. QoS is per-request: one priority class, one
//! deadline, one handle; a shed (deadline or cancel) skips every
//! unstarted node.
//!
//! # Quality of service
//!
//! A real multi-tenant queue is never uniform: interactive requests
//! share the pool with bulk batches, and stale work must be shed. Each
//! request therefore carries [`SubmitOptions`]:
//!
//! * a [`Priority`] class — the shared injector keeps one FIFO per
//!   class and workers drain it strictly `High → Normal → Low`
//!   (submission order within a class);
//! * an optional deadline ([`std::time::Instant`]) — a request whose
//!   deadline has passed by the time a worker dequeues it (or that is
//!   already expired at submit) resolves
//!   [`Error::DeadlineExceeded`] without running any remaining channel;
//! * cooperative cancellation — [`RequestHandle::cancel`] marks the
//!   request, queued channels are skipped at dequeue, and the handle
//!   resolves [`Error::Cancelled`] (a request that already finished
//!   keeps its product: cancel is then a no-op).
//!
//! Handles also offer non-blocking and bounded waits
//! ([`RequestHandle::try_wait`], [`RequestHandle::wait_timeout`],
//! [`RequestHandle::wait_deadline`]) so a front end can poll or give up
//! without abandoning the result.
//!
//! [`Ring`]: crate::Ring
//! [`RnsRing`]: crate::RnsRing
//!
//! ```
//! use std::sync::Arc;
//! use mqx::{core::primes, Coefficients, PolyOp, PolyRing, Priority, Ring, RingExecutor,
//!           RingRequest};
//!
//! let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, 64)?);
//! let pool = RingExecutor::new(4)?;
//!
//! // Queue a small batch and collect results in submission order.
//! let requests: Vec<RingRequest> = (0..8_u64)
//!     .map(|i| {
//!         let a: Vec<u128> = (0..64).map(|j| u128::from(i + j)).collect();
//!         RingRequest::polymul(PolyOp::Negacyclic, a.clone().into(), a.into())
//!     })
//!     .collect();
//! let products = pool.serve(&ring, requests)?;
//! assert_eq!(products.len(), 8);
//!
//! // An interactive request overtakes queued bulk work.
//! let a: Vec<u128> = (0..64_u64).map(u128::from).collect();
//! let urgent = RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into())
//!     .with_priority(Priority::High);
//! let product = pool.submit(&ring, urgent)?.wait()?;
//! assert_eq!(product.len(), 64);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::error::Error;
use crate::graph::{OpGraph, Operand};
use crate::ops::RingOp;
use crate::poly::{split_and_plan, Coefficients, PolyOp, PolyRing};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An observer fired exactly once, just before a request's outcome is
/// published — the hook the [`frontdoor`](crate::frontdoor) admission
/// layer uses to count deadline sheds and cancellations even when the
/// caller drops its handle without waiting.
pub(crate) type PublishHook = Box<dyn Fn(&Result<Coefficients, Error>) + Send + Sync>;

/// Scheduling class of a request: the injector drains strictly
/// `High → Normal → Low`, submission order within a class.
///
/// The derived order matches the drain order (`High < Normal < Low`),
/// so sorting requests by priority yields execution order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Interactive traffic: dequeued before everything else.
    High = 0,
    /// The default class.
    #[default]
    Normal = 1,
    /// Bulk/background work: runs only when no higher class is queued.
    Low = 2,
}

/// Number of [`Priority`] classes (one injector FIFO each).
pub(crate) const CLASSES: usize = 3;

impl Priority {
    /// Every class, drain order first.
    pub const ALL: [Priority; CLASSES] = [Priority::High, Priority::Normal, Priority::Low];

    /// The injector FIFO this class maps to.
    pub(crate) fn class(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        })
    }
}

/// Per-request scheduling options: a [`Priority`] class and an optional
/// deadline. Builder-style, so call sites name only what they change:
///
/// ```
/// use mqx::{Priority, SubmitOptions};
/// use std::time::Duration;
///
/// let opts = SubmitOptions::new()
///     .priority(Priority::High)
///     .timeout(Duration::from_millis(50));
/// assert_eq!(opts.priority, Priority::High);
/// assert!(opts.deadline.is_some());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Scheduling class ([`Priority::Normal`] by default).
    pub priority: Priority,
    /// Latest useful completion time: a request still queued past this
    /// instant is shed with [`Error::DeadlineExceeded`] instead of
    /// burning worker time. `None` (the default) never sheds.
    pub deadline: Option<Instant>,
}

impl SubmitOptions {
    /// Default options: [`Priority::Normal`], no deadline.
    pub fn new() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Sets the scheduling class.
    pub fn priority(mut self, priority: Priority) -> SubmitOptions {
        self.priority = priority;
        self
    }

    /// Sets the absolute deadline.
    pub fn deadline(mut self, deadline: Instant) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline relative to now.
    pub fn timeout(self, budget: Duration) -> SubmitOptions {
        self.deadline(Instant::now() + budget)
    }
}

/// One queued unit of ring work: an [`OpGraph`] with the graph's
/// external operands, plus the scheduling [`SubmitOptions`]. A single
/// [`RingOp`] is exactly the one-node graph ([`OpGraph::single`]) — the
/// per-op constructors are sugar for it — so every request takes the
/// same path through the pool.
///
/// ```
/// use mqx::{OpGraph, PolyOp, Priority, RingOp, RingRequest};
/// use mqx::bignum::BigUint;
///
/// let x: Vec<BigUint> = (0..64_u64).map(BigUint::from).collect();
/// let req = RingRequest::rescale(x.clone().into()).with_priority(Priority::High);
/// assert_eq!(req.op(), &RingOp::Rescale);
/// assert!(req.b().is_none());
/// let ext = RingRequest::basis_extend(x.clone().into(), 1);
/// assert_eq!(ext.op(), &RingOp::BasisExtend { extra_channels: 1 });
///
/// // A composite kernel: one request, one handle, one CRT join.
/// let relin = RingRequest::graph(
///     OpGraph::relinearize(PolyOp::Negacyclic, 1),
///     vec![x.clone().into(), x.into()],
/// );
/// assert_eq!(relin.op(), &RingOp::Rescale); // the graph's output op
/// ```
#[derive(Clone, Debug)]
pub struct RingRequest {
    graph: OpGraph,
    /// One per [`OpGraph::inputs`] (checked at submit).
    operands: Vec<Coefficients>,
    options: SubmitOptions,
}

impl RingRequest {
    /// Bundles a whole dependency graph with its external operands
    /// (`operands[i]` feeds `Operand::Input(i)`; the count is checked
    /// against [`OpGraph::inputs`] at submit). The graph executes as
    /// *one* request: one priority class, one deadline, one handle, one
    /// CRT join at the output node — intermediates stay resident
    /// channel-major residues.
    pub fn graph(graph: OpGraph, operands: Vec<Coefficients>) -> Self {
        RingRequest {
            graph,
            operands,
            options: SubmitOptions::default(),
        }
    }

    /// One operation with its operand(s) and default scheduling: the
    /// one-node graph of `op`. Binary ops take `Some(b)`, unary ops
    /// `None` — checked against the op's arity at submit.
    pub fn new(op: RingOp, a: Coefficients, b: Option<Coefficients>) -> Self {
        RingRequest::graph(OpGraph::single(op), std::iter::once(a).chain(b).collect())
    }

    /// A polynomial product (cyclic or negacyclic).
    pub fn polymul(op: PolyOp, a: Coefficients, b: Coefficients) -> Self {
        RingRequest::new(RingOp::Polymul(op), a, Some(b))
    }

    /// A coefficient-wise modular addition.
    pub fn add(a: Coefficients, b: Coefficients) -> Self {
        RingRequest::new(RingOp::Add, a, Some(b))
    }

    /// A coefficient-wise modular subtraction (`a − b`).
    pub fn sub(a: Coefficients, b: Coefficients) -> Self {
        RingRequest::new(RingOp::Sub, a, Some(b))
    }

    /// A modulus rescale (drop the last RNS channel, divide-and-round).
    pub fn rescale(a: Coefficients) -> Self {
        RingRequest::new(RingOp::Rescale, a, None)
    }

    /// An RNS basis extension by `extra_channels` fresh coprime primes.
    pub fn basis_extend(a: Coefficients, extra_channels: usize) -> Self {
        RingRequest::new(RingOp::BasisExtend { extra_channels }, a, None)
    }

    /// The *output* node's op — what the request resolves to at its
    /// root (a single-op request's only op).
    pub fn op(&self) -> &RingOp {
        self.graph.output_op()
    }

    /// The first operand.
    ///
    /// # Panics
    ///
    /// For a malformed graph request carrying zero operands (a state
    /// submit would reject, since every valid graph names at least one
    /// input).
    pub fn a(&self) -> &Coefficients {
        self.operands
            .first()
            .expect("a request names at least one operand")
    }

    /// The second operand, when the request carries at least two.
    pub fn b(&self) -> Option<&Coefficients> {
        self.operands.get(1)
    }

    /// The dependency graph — always `Some`: a single-op request
    /// carries its one-node graph.
    pub fn op_graph(&self) -> Option<&OpGraph> {
        Some(&self.graph)
    }

    /// The scheduling options.
    pub fn options(&self) -> SubmitOptions {
        self.options
    }

    /// Replaces the scheduling options wholesale.
    pub fn with_options(mut self, options: SubmitOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.options.priority = priority;
        self
    }

    /// Sets the absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// Sets the deadline relative to now.
    pub fn with_timeout(self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }
}

/// Execution state of one [`OpGraph`] node inside a request: its
/// fan-out bookkeeping (channel slots, work-item countdown), its
/// scheduling gate (indegree countdown), and its materialized output
/// for downstream nodes.
struct NodeExec {
    /// Channel width of the node's operands — the basis the op chain
    /// has reached at this node's inputs.
    in_width: usize,
    /// Output-channel fan-out width (the number of work items) — for
    /// basis-changing ops this differs from `in_width`.
    tasks: usize,
    /// One slot per output channel, filled as channel results land.
    slots: Mutex<Vec<Option<Vec<u128>>>>,
    /// Work items of this node still running; the worker that
    /// decrements this to zero completes the node.
    remaining: AtomicUsize,
    /// Distinct graph predecessors not yet complete — the scheduling
    /// gate. The node's channels enter the deques when this hits zero
    /// (root nodes start at zero and are fanned out at dequeue).
    pending: AtomicUsize,
    /// Distinct successor node ids whose `pending` this node's
    /// completion decrements.
    successors: Vec<usize>,
    /// The node's channel-major result, materialized at completion for
    /// successors to read. Never set for the output node (its slots
    /// feed the join directly) or on the failure path.
    output: OnceLock<Vec<Vec<u128>>>,
}

/// The shared state of one in-flight request: split external operands
/// in, per-node channel results chained through resident residues, one
/// CRT join at the graph's output node by whichever worker finishes its
/// last work item.
struct RequestState {
    ring: Arc<dyn PolyRing>,
    /// The dependency graph (a single op is its one-node graph).
    graph: OpGraph,
    /// Split external operands, channel-major, one per graph input.
    inputs: Vec<Vec<Vec<u128>>>,
    /// Per-node execution state, indexed like `graph.nodes()`.
    nodes: Vec<NodeExec>,
    /// Nodes with no graph predecessors — fanned out at dequeue.
    roots: Vec<usize>,
    /// Latest useful completion time; checked when a worker dequeues
    /// the request or one of its work items.
    deadline: Option<Instant>,
    /// Set by [`RequestHandle::cancel`]; checked at the same dequeue
    /// points as the deadline.
    cancelled: AtomicBool,
    /// Set on the first work-item error (errors win over the join);
    /// remaining items of the whole graph retire without running their
    /// kernels once this is up.
    failed: AtomicBool,
    /// The first error, published into `outcome` when the output node
    /// completes. Kept separate so `outcome` holds a value *only* once
    /// the request is fully resolved — the "finished" signal. Always
    /// recorded *before* `failed` is raised.
    first_error: Mutex<Option<Error>>,
    /// The request's final result. Written exactly once, by the worker
    /// that completes the output node (after the CRT join, when there is
    /// one), so `Some` here means "`wait` will not block".
    outcome: Mutex<Option<Result<Coefficients, Error>>>,
    done: Condvar,
    /// The async completion path: a [`Waker`] parked by a pending
    /// future's `poll`, fired exactly once when the outcome is
    /// published (output node joined, shed, or cancelled). Re-polls
    /// replace the stored waker. Locked strictly after `outcome`.
    waker: Mutex<Option<Waker>>,
    /// Fired once, just before the outcome becomes observable (stats
    /// accounting for the admission layer). `None` for plain submits.
    on_publish: Option<PublishHook>,
}

impl RequestState {
    /// Why a dequeued task of this request should be skipped instead of
    /// executed, if any reason applies. Cancellation wins over an
    /// expired deadline.
    fn shed_reason(&self) -> Option<Error> {
        // ORDERING: Acquire pairs with the Release store in `cancel`,
        // so a worker that observes the flag also observes everything
        // the cancelling thread did before setting it.
        if self.cancelled.load(Ordering::Acquire) {
            return Some(Error::Cancelled);
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(Error::DeadlineExceeded),
            _ => None,
        }
    }

    /// Publishes the request's final result — the single "finished"
    /// signal, reached exactly once per request. Fires the publish hook
    /// first (so admission stats are current before any waiter can
    /// observe the outcome), then writes the outcome under its lock
    /// (strictly after the join, so a handle observing `Some` never
    /// races the join window), wakes condvar waiters, and finally fires
    /// the parked async waker — outside the locks, since a waker may do
    /// arbitrary (cheap) work like unparking a `block_on` thread.
    ///
    /// The hook and the waker are caller code and run under
    /// `catch_unwind`: a panic in either is dropped, the outcome is
    /// written regardless, and the publishing worker lives on. Left to
    /// unwind, a panicking hook would kill the worker before the
    /// outcome is written and leave the handle unresolved forever.
    fn publish(&self, resolved: Result<Coefficients, Error>) {
        if let Some(hook) = &self.on_publish {
            let _ = catch_unwind(AssertUnwindSafe(|| hook(&resolved)));
        }
        let waker = {
            let mut outcome = self.outcome.lock().expect("request outcome poisoned");
            debug_assert!(outcome.is_none(), "a request resolves exactly once");
            *outcome = Some(resolved);
            self.done.notify_all();
            // Same lock order as registration (outcome → waker): any
            // waker parked before this point is drained here; any poll
            // after it observes the published outcome. No lost wakeups.
            self.waker.lock().expect("request waker poisoned").take()
        };
        if let Some(waker) = waker {
            let _ = catch_unwind(AssertUnwindSafe(|| waker.wake()));
        }
    }
}

/// A claim on one submitted request's eventual result.
///
/// Dropping the handle without waiting is fine: the request still runs
/// to completion and its result is discarded. To actively discard
/// queued work, call [`cancel`](RequestHandle::cancel) first.
pub struct RequestHandle {
    state: Arc<RequestState>,
}

impl std::fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestHandle")
            .field("nodes", &self.state.nodes.len())
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl RequestHandle {
    /// Blocks until the request is fully resolved and returns the
    /// joined product — or the first channel error,
    /// [`Error::Cancelled`], or [`Error::DeadlineExceeded`] when the
    /// request was shed.
    pub fn wait(self) -> Result<Coefficients, Error> {
        let mut outcome = self.state.outcome.lock().expect("request outcome poisoned");
        loop {
            // The outcome is published before the notify, and spurious
            // wakeups re-check, so this cannot hang.
            if let Some(result) = outcome.take() {
                return result;
            }
            outcome = self
                .state
                .done
                .wait(outcome)
                .expect("request outcome poisoned");
        }
    }

    /// Non-blocking wait: the result when the request has resolved,
    /// the handle itself (to try again later) when it has not.
    pub fn try_wait(self) -> Result<Result<Coefficients, Error>, RequestHandle> {
        let taken = self
            .state
            .outcome
            .lock()
            .expect("request outcome poisoned")
            .take();
        match taken {
            Some(result) => Ok(result),
            None => Err(self),
        }
    }

    /// Bounded wait: blocks at most `timeout`, returning the result or
    /// handing the handle back when time runs out.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Coefficients, Error>, Self> {
        self.wait_deadline(Instant::now() + timeout)
    }

    /// Bounded wait against an absolute deadline (see
    /// [`wait_timeout`](RequestHandle::wait_timeout)).
    pub fn wait_deadline(self, deadline: Instant) -> Result<Result<Coefficients, Error>, Self> {
        {
            let mut outcome = self.state.outcome.lock().expect("request outcome poisoned");
            loop {
                if let Some(result) = outcome.take() {
                    return Ok(result);
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                outcome = self
                    .state
                    .done
                    .wait_timeout(outcome, deadline - now)
                    .expect("request outcome poisoned")
                    .0;
            }
        }
        Err(self)
    }

    /// Requests cooperative cancellation: channels not yet started are
    /// skipped at dequeue and the request resolves
    /// [`Error::Cancelled`]. Channels already executing run to
    /// completion (kernels are never interrupted mid-flight), and a
    /// request that has already finished keeps its product — cancelling
    /// it is a no-op.
    pub fn cancel(&self) {
        // ORDERING: Release pairs with the Acquire load in
        // `shed_reason` — a worker that sees the flag sees everything
        // sequenced before this call.
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// Whether the request has fully resolved (its `wait` would not
    /// block). Decided from the published outcome — not the channel
    /// counter — so this stays `false` through the CRT-join window
    /// between the last channel landing and the join completing.
    pub fn is_finished(&self) -> bool {
        self.state
            .outcome
            .lock()
            .expect("request outcome poisoned")
            .is_some()
    }

    /// A detached cancellation handle for this request: a cheap clone
    /// of the shared state that outlives the handle (or the future
    /// wrapping it), so a front end can drop the result claim yet still
    /// discard the queued work later.
    pub fn canceller(&self) -> Canceller {
        Canceller {
            state: Arc::clone(&self.state),
        }
    }

    /// The async completion primitive behind
    /// [`frontdoor::AsyncRequestHandle`](crate::frontdoor::AsyncRequestHandle):
    /// takes the outcome if the request has resolved, otherwise parks
    /// `waker` in the request's shared outcome slot (replacing any
    /// previously parked waker) to be fired exactly once at
    /// publication. The waker is registered under the outcome lock —
    /// the same lock, in the same order, publication drains it under —
    /// so a wakeup can never be lost between the check and the park.
    pub(crate) fn poll_take(&self, waker: &Waker) -> Option<Result<Coefficients, Error>> {
        let mut outcome = self.state.outcome.lock().expect("request outcome poisoned");
        if let Some(result) = outcome.take() {
            return Some(result);
        }
        *self.state.waker.lock().expect("request waker poisoned") = Some(waker.clone());
        None
    }
}

/// A detached, clonable cancellation claim on one submitted request —
/// [`RequestHandle::canceller`]. Cancelling through it behaves exactly
/// like [`RequestHandle::cancel`]: cooperative, idempotent, and a no-op
/// once the request has resolved.
#[derive(Clone)]
pub struct Canceller {
    state: Arc<RequestState>,
}

impl Canceller {
    /// Requests cooperative cancellation (see [`RequestHandle::cancel`]).
    pub fn cancel(&self) {
        // ORDERING: Release, exactly as in `RequestHandle::cancel`
        // (pairs with the Acquire load in `shed_reason`).
        self.state.cancelled.store(true, Ordering::Release);
    }
}

impl std::fmt::Debug for Canceller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ORDERING: Acquire matches the readers of this flag; for a
        // Debug snapshot Relaxed would do, but consistency is cheaper
        // than a second convention.
        f.debug_struct("Canceller")
            .field("cancelled", &self.state.cancelled.load(Ordering::Acquire))
            .finish()
    }
}

/// One schedulable unit of work.
enum Task {
    /// A freshly injected request: the picking worker fans its root
    /// nodes' channels out (keeping the first item for itself, queueing
    /// the rest locally where idle workers steal them).
    Request(Arc<RequestState>),
    /// One output channel of one graph node of a request.
    Channel(Arc<RequestState>, usize, usize),
}

/// Queue state shared between the executor handle and its workers.
struct Shared {
    /// New requests land here: one FIFO per [`Priority`] class, drained
    /// strictly by class (submission order within a class).
    injector: Mutex<[VecDeque<Task>; CLASSES]>,
    /// Per-worker deques: the owner pushes/pops the back (LIFO keeps a
    /// request's channels hot in one worker's cache), thieves take the
    /// front (FIFO steals the oldest, largest-granularity work).
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Wakeup channel for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pops work: own deque first (back), then the injector (highest
    /// non-empty class), then a steal sweep over the other workers'
    /// deques (front). In-flight channels in the local deques outrank
    /// even high-priority injected requests: finishing started work
    /// releases its handle soonest and keeps its operands cache-hot.
    fn find_task(&self, worker: usize) -> Option<Task> {
        if let Some(task) = self.locals[worker]
            .lock()
            .expect("worker deque poisoned")
            .pop_back()
        {
            return Some(task);
        }
        {
            let mut classes = self.injector.lock().expect("injector poisoned");
            for class in classes.iter_mut() {
                if let Some(task) = class.pop_front() {
                    return Some(task);
                }
            }
        }
        let n = self.locals.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(task) = self.locals[victim]
                .lock()
                .expect("worker deque poisoned")
                .pop_front()
            {
                return Some(task);
            }
        }
        None
    }

    /// Wakes one idle worker after queueing a single task. Taking the
    /// idle lock orders the notify after any concurrent pre-sleep queue
    /// re-check, so wakeups cannot be lost; waking just one worker
    /// avoids a thundering herd stampeding a wide pool for one item.
    fn notify_one(&self) {
        let _guard = self.idle.lock().expect("idle lock poisoned");
        self.wake.notify_one();
    }

    /// Wakes every idle worker — for fan-out bursts (a multi-channel
    /// request exposing `k − 1` stealable items at once) and shutdown,
    /// where every worker must observe the flag.
    fn notify_all(&self) {
        let _guard = self.idle.lock().expect("idle lock poisoned");
        self.wake.notify_all();
    }

    /// Runs one output channel of one graph node — unless the request
    /// has been cancelled, its deadline has passed, or another work
    /// item already failed, in which case the item retires without
    /// burning kernel time. Kernel panics become a request error rather
    /// than a hung handle.
    fn run_node_channel(
        &self,
        state: &Arc<RequestState>,
        node_id: usize,
        channel: usize,
        worker: usize,
    ) {
        if let Some(reason) = state.shed_reason() {
            self.finish_node_channel(state, node_id, channel, Err(reason), worker);
            return;
        }
        // ORDERING: Acquire pairs with the Release store in
        // `finish_node_channel`'s error branch: observing the flag
        // guarantees `first_error` is already recorded, so this item can
        // retire bare — the graph drains without running another kernel
        // and the output node publishes that first error.
        if state.failed.load(Ordering::Acquire) {
            self.retire_node_channel(state, node_id, worker);
            return;
        }
        let gnode = &state.graph.nodes()[node_id];
        let node = &state.nodes[node_id];
        // `_into` form: the ring writes into this vector (reusing pooled
        // scratch internally), so the only steady-state allocation per
        // work item is the output buffer itself. Operand resolution runs
        // under the same panic guard as the kernel: a violated
        // scheduling invariant (a successor running before its
        // predecessor materialized) surfaces as a request error, never a
        // dead worker.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let resolve = |operand: &Operand| -> &[Vec<u128>] {
                match *operand {
                    Operand::Input(i) => &state.inputs[i],
                    Operand::Node(j) => state.nodes[j]
                        .output
                        .get()
                        .expect("predecessors complete before a node is scheduled"),
                }
            };
            let a = resolve(&gnode.operands()[0]);
            let b = gnode.operands().get(1).map(resolve);
            let mut out = Vec::new();
            state
                .ring
                .channel_apply_at_into(gnode.op(), node.in_width, channel, a, b, &mut out)
                .map(|()| out)
        }))
        .unwrap_or(Err(Error::ChannelPanicked { channel }));
        self.finish_node_channel(state, node_id, channel, result, worker);
    }

    /// Records one work item's result; the item that retires a node's
    /// last channel completes the node (join-and-publish for the output
    /// node, successor countdown otherwise).
    fn finish_node_channel(
        &self,
        state: &Arc<RequestState>,
        node_id: usize,
        channel: usize,
        result: Result<Vec<u128>, Error>,
        worker: usize,
    ) {
        match result {
            Ok(product) => {
                state.nodes[node_id]
                    .slots
                    .lock()
                    .expect("node slots poisoned")[channel] = Some(product);
            }
            Err(e) => {
                // The error is recorded strictly before the flag goes
                // up, so `failed == true` implies `first_error` is set.
                {
                    let mut first = state.first_error.lock().expect("request error poisoned");
                    if first.is_none() {
                        *first = Some(e);
                    }
                }
                // ORDERING: Release pairs with the Acquire loads in
                // `run_node_channel` and `complete_node` — any observer
                // of the flag also observes the error recorded above.
                state.failed.store(true, Ordering::Release);
            }
        }
        self.retire_node_channel(state, node_id, worker);
    }

    /// Counts one work item of `node_id` as done (the bare countdown —
    /// the failure-drain path uses it directly, skipping slots and
    /// kernels); the worker that retires the node's last item completes
    /// the node.
    fn retire_node_channel(&self, state: &Arc<RequestState>, node_id: usize, worker: usize) {
        // ORDERING: AcqRel on the countdown — the Release half makes
        // this item's slot/error writes visible to whichever worker
        // hits zero; the Acquire half makes that worker see every other
        // item's writes.
        if state.nodes[node_id]
            .remaining
            .fetch_sub(1, Ordering::AcqRel)
            == 1
        {
            self.complete_node(state, node_id, worker);
        }
    }

    /// Completes a node whose last work item just retired. For the
    /// output node — which, by the graph's no-dead-nodes invariant,
    /// always completes last — this joins and publishes the request.
    /// For interior nodes it materializes the channel-major result and
    /// counts down each successor's indegree, fanning out any node that
    /// becomes ready.
    fn complete_node(&self, state: &Arc<RequestState>, node_id: usize, worker: usize) {
        let node = &state.nodes[node_id];
        // ORDERING: Acquire pairs with the Release store in
        // `finish_node_channel`'s error branch: seeing the flag
        // guarantees the first error is recorded and takeable below.
        let failed = state.failed.load(Ordering::Acquire);
        if node_id == state.graph.output() {
            let resolved = if failed {
                Err(state
                    .first_error
                    .lock()
                    .expect("request error poisoned")
                    .take()
                    .expect("failed request recorded its error"))
            } else {
                // The join runs under the same panic guard as the
                // channel kernels: a panicking `PolyRing` join must
                // surface as a request error, not a dead worker and a
                // poisoned handle. It recombines over the width the
                // chain reached at the output node.
                catch_unwind(AssertUnwindSafe(|| {
                    let parts: Vec<Vec<u128>> = node
                        .slots
                        .lock()
                        .expect("node slots poisoned")
                        .iter_mut()
                        .map(|slot| slot.take().expect("every channel landed"))
                        .collect();
                    state.ring.join_at(node.tasks, parts)
                }))
                .unwrap_or(Err(Error::JoinPanicked))
            };
            state.publish(resolved);
            return;
        }
        if !failed {
            let parts: Vec<Vec<u128>> = node
                .slots
                .lock()
                .expect("node slots poisoned")
                .iter_mut()
                .map(|slot| slot.take().expect("every channel landed"))
                .collect();
            // OnceLock orders this set before any successor's get; the
            // first (only) completion wins.
            let _ = node.output.set(parts);
        }
        let mut ready = Vec::new();
        for &successor in &node.successors {
            // ORDERING: AcqRel on the indegree countdown — the Release
            // half publishes this node's materialized output to the
            // worker that schedules the successor; the Acquire half
            // makes that worker observe every *other* predecessor's
            // output as well.
            if state.nodes[successor]
                .pending
                .fetch_sub(1, Ordering::AcqRel)
                == 1
            {
                ready.push(successor);
            }
        }
        if ready.is_empty() {
            return;
        }
        let mut pushed = 0;
        {
            let mut local = self.locals[worker].lock().expect("worker deque poisoned");
            for successor in ready {
                for channel in 0..state.nodes[successor].tasks {
                    local.push_back(Task::Channel(Arc::clone(state), successor, channel));
                    pushed += 1;
                }
            }
        }
        if pushed > 1 {
            // This worker pops one next iteration; invite thieves for
            // the rest.
            self.notify_all();
        }
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            match self.find_task(worker) {
                Some(Task::Request(state)) => {
                    // Dequeue-time QoS check: an expired or cancelled
                    // request resolves here, before any fan-out, so no
                    // work item of any node ever reaches a kernel.
                    if let Some(reason) = state.shed_reason() {
                        state.publish(Err(reason));
                        continue;
                    }
                    // Fan out every root node's channels: keep the
                    // first item, expose the rest for stealing.
                    let mut items = state.roots.iter().flat_map(|&node| {
                        (0..state.nodes[node].tasks).map(move |channel| (node, channel))
                    });
                    let first = items.next();
                    let rest: Vec<(usize, usize)> = items.collect();
                    if !rest.is_empty() {
                        {
                            let mut local =
                                self.locals[worker].lock().expect("worker deque poisoned");
                            for (node, channel) in rest {
                                local.push_back(Task::Channel(Arc::clone(&state), node, channel));
                            }
                        }
                        self.notify_all();
                    }
                    if let Some((node, channel)) = first {
                        self.run_node_channel(&state, node, channel, worker);
                    }
                }
                Some(Task::Channel(state, node, channel)) => {
                    self.run_node_channel(&state, node, channel, worker)
                }
                None => {
                    let guard = self.idle.lock().expect("idle lock poisoned");
                    // Re-check under the idle lock: a submitter that
                    // queued work before we got here will notify while
                    // we hold (or wait on) this lock. The work check
                    // comes before the shutdown check so a task
                    // injected just before shutdown is drained rather
                    // than abandoned with its handle left waiting.
                    if self.has_queued_work() {
                        continue;
                    }
                    // ORDERING: Acquire pairs with the Release store in
                    // `Drop`, so an exiting worker observes every write
                    // the shutting-down thread made first.
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    drop(self.wake.wait(guard).expect("idle lock poisoned"));
                }
            }
        }
    }

    fn has_queued_work(&self) -> bool {
        if self
            .injector
            .lock()
            .expect("injector poisoned")
            .iter()
            .any(|class| !class.is_empty())
        {
            return true;
        }
        self.locals
            .iter()
            .any(|q| !q.lock().expect("worker deque poisoned").is_empty())
    }
}

/// A work-stealing pool of worker threads serving polymul requests
/// against shared rings.
///
/// The pool is ring-agnostic: each request names its ring, so one
/// executor can serve several rings (different moduli, different
/// geometries) at once. Workers live until the executor is dropped;
/// dropping waits for in-flight requests to finish executing.
pub struct RingExecutor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl RingExecutor {
    /// Starts a pool of `workers` OS threads.
    ///
    /// # Errors
    ///
    /// [`Error::NoWorkers`] when `workers == 0`.
    pub fn new(workers: usize) -> Result<RingExecutor, Error> {
        if workers == 0 {
            return Err(Error::NoWorkers);
        }
        let shared = Arc::new(Shared {
            injector: Mutex::new(std::array::from_fn(|_| VecDeque::new())),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mqx-ring-worker-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn executor worker")
            })
            .collect();
        Ok(RingExecutor {
            shared,
            workers: handles,
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// A cheap snapshot of the pending queue length of every
    /// [`Priority`] class (drain order: `[High, Normal, Low]`) — the
    /// requests injected but not yet picked up by a worker. Channels of
    /// requests already being fanned out or executed are not counted,
    /// and a multi-node [`OpGraph`] request occupies exactly **one**
    /// entry however many node × channel work items it will fan out to:
    /// this is the *admission* depth, the number a bounded front door
    /// compares against its per-class limits, and the number to watch
    /// when debugging saturation (a class pinned at its limit is
    /// shedding or starving).
    ///
    /// Accounting is implicit — the injector FIFOs themselves are
    /// measured under their lock, so the snapshot is exact at the
    /// instant it is taken and cannot drift from reality the way a
    /// shadow counter could.
    pub fn queue_depths(&self) -> [usize; CLASSES] {
        let classes = self.shared.injector.lock().expect("injector poisoned");
        std::array::from_fn(|class| classes[class].len())
    }

    /// The pending queue length of one [`Priority`] class (see
    /// [`queue_depths`](RingExecutor::queue_depths)).
    pub fn queue_depth(&self, priority: Priority) -> usize {
        self.shared.injector.lock().expect("injector poisoned")[priority.class()].len()
    }

    /// Queues one request against `ring` and returns a handle to its
    /// eventual result. Operands are validated (count, length,
    /// coefficient range, representation) up front, so errors
    /// surface here rather than inside the pool. The request's
    /// [`SubmitOptions`] govern its injector class and deadline; a
    /// deadline already expired at submit resolves the handle to
    /// [`Error::DeadlineExceeded`] immediately, without queueing (and
    /// without running) anything.
    ///
    /// # Errors
    ///
    /// [`Error::NoNegacyclicSupport`] for a negacyclic request on a ring
    /// without one, [`Error::UnsupportedOp`] for an op the ring cannot
    /// execute, [`Error::OperandCountMismatch`] when the operand count
    /// does not match the op's arity, [`Error::OperandLengthMismatch`]
    /// for unequal binary operands, [`Error::ChannelCountMismatch`] for
    /// a `split` whose decomposition is empty or uneven (a misbehaving
    /// [`PolyRing`] impl), plus the [`PolyRing::split`] validation
    /// errors.
    pub fn submit(
        &self,
        ring: &Arc<dyn PolyRing>,
        request: RingRequest,
    ) -> Result<RequestHandle, Error> {
        self.submit_with_hook(ring, request, None)
    }

    /// [`submit`](RingExecutor::submit) with an optional publish
    /// observer: `hook` fires exactly once, just before the request's
    /// outcome becomes observable — even when the request is shed or
    /// its handle/future is dropped without waiting. This is how the
    /// [`frontdoor`](crate::frontdoor) keeps deadline-shed and
    /// cancellation counts exact without requiring callers to consume
    /// every handle.
    pub(crate) fn submit_with_hook(
        &self,
        ring: &Arc<dyn PolyRing>,
        request: RingRequest,
        on_publish: Option<PublishHook>,
    ) -> Result<RequestHandle, Error> {
        let RingRequest {
            graph,
            operands,
            options,
        } = request;
        // The fan-out plan: split operands plus every node's channel
        // widths on this ring, validated before anything is queued.
        let (inputs, plan) = split_and_plan(&**ring, &graph, &operands)?;
        // Scheduling topology: indegrees count *distinct* predecessor
        // nodes (a node consuming the same predecessor twice still waits
        // for one completion), successors mirror them.
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); graph.len()];
        let mut roots = Vec::new();
        let mut indegree = vec![0_usize; graph.len()];
        for (id, node) in graph.nodes().iter().enumerate() {
            let preds: BTreeSet<usize> = node
                .operands()
                .iter()
                .filter_map(|operand| match *operand {
                    Operand::Node(j) => Some(j),
                    Operand::Input(_) => None,
                })
                .collect();
            indegree[id] = preds.len();
            if preds.is_empty() {
                roots.push(id);
            }
            for j in preds {
                successors[j].push(id);
            }
        }
        let nodes = plan
            .iter()
            .zip(successors)
            .zip(&indegree)
            .map(|((widths, successors), &pending)| NodeExec {
                in_width: widths.input,
                tasks: widths.output,
                slots: Mutex::new(vec![None; widths.output]),
                remaining: AtomicUsize::new(widths.output),
                // ORDERING: plain constructor stores — the Arc
                // publication below (injector mutex) orders them before
                // any worker's first load.
                pending: AtomicUsize::new(pending),
                successors,
                output: OnceLock::new(),
            })
            .collect();
        let state = Arc::new(RequestState {
            ring: Arc::clone(ring),
            graph,
            inputs,
            nodes,
            roots,
            deadline: options.deadline,
            cancelled: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            first_error: Mutex::new(None),
            outcome: Mutex::new(None),
            done: Condvar::new(),
            waker: Mutex::new(None),
            on_publish,
        });
        if let Some(deadline) = options.deadline {
            if Instant::now() >= deadline {
                // Dead on arrival: resolve without touching the queues,
                // so zero work items execute even on a saturated pool.
                // `publish` (not a bare outcome write) so the publish
                // hook still observes the shed.
                state.publish(Err(Error::DeadlineExceeded));
                return Ok(RequestHandle { state });
            }
        }
        self.shared.injector.lock().expect("injector poisoned")[options.priority.class()]
            .push_back(Task::Request(Arc::clone(&state)));
        // One queued item, one woken worker.
        self.shared.notify_one();
        Ok(RequestHandle { state })
    }

    /// Queues a whole batch and blocks for all results, returned in
    /// submission order. All requests are injected before the first
    /// wait, so the pool sees the full `channels × batch` work list at
    /// once.
    ///
    /// # Errors
    ///
    /// The first error — at submit (validation) or at wait (a channel
    /// failure, or a request shed by its deadline or cancelled from
    /// another thread). Since the whole batch fails as one, the other
    /// requests of the batch are cancelled (via the cooperative
    /// cancellation path) and drained before this returns, so a failed
    /// batch leaves the pool idle instead of leaking orphaned work
    /// whose results nobody collects.
    pub fn serve(
        &self,
        ring: &Arc<dyn PolyRing>,
        requests: Vec<RingRequest>,
    ) -> Result<Vec<Coefficients>, Error> {
        let mut handles = Vec::with_capacity(requests.len());
        for request in requests {
            match self.submit(ring, request) {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    cancel_and_drain(handles);
                    return Err(e);
                }
            }
        }
        let mut products = Vec::with_capacity(handles.len());
        let mut pending = handles.into_iter();
        for handle in pending.by_ref() {
            match handle.wait() {
                Ok(product) => products.push(product),
                Err(e) => {
                    // The rest of the batch is now pointless: nobody
                    // will see its results, so shed it rather than let
                    // it keep burning worker time behind our back.
                    cancel_and_drain(pending.collect());
                    return Err(e);
                }
            }
        }
        Ok(products)
    }
}

/// Cancels every handle, then waits each out: when this returns, every
/// task those requests had queued has been resolved (shed or finished)
/// and none of the batch is left running in the pool.
fn cancel_and_drain(handles: Vec<RequestHandle>) {
    for handle in &handles {
        handle.cancel();
    }
    for handle in handles {
        let _ = handle.wait();
    }
}

impl Drop for RingExecutor {
    fn drop(&mut self) {
        // ORDERING: Release pairs with the workers' Acquire load in the
        // idle loop — an exiting worker sees all pre-shutdown writes.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for RingExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingExecutor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ring, RnsRing};
    use mqx_bignum::BigUint;
    use mqx_core::primes;

    const N: usize = 64;

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
    fn zero_workers_is_an_error() {
        assert!(matches!(
            RingExecutor::new(0).unwrap_err(),
            Error::NoWorkers
        ));
    }

    #[test]
    fn priority_classes_order_and_default() {
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        assert_eq!(Priority::ALL.map(|p| p.class()), [0, 1, 2]);
        assert_eq!(Priority::High.to_string(), "high");
    }

    #[test]
    fn submit_options_builders_compose() {
        let opts = SubmitOptions::new();
        assert_eq!(opts.priority, Priority::Normal);
        assert!(opts.deadline.is_none());

        let at = Instant::now() + Duration::from_secs(3600);
        let opts = SubmitOptions::new().priority(Priority::Low).deadline(at);
        assert_eq!(opts.priority, Priority::Low);
        assert_eq!(opts.deadline, Some(at));

        let req = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; 4].into(),
            vec![0_u128; 4].into(),
        );
        assert_eq!(req.options, SubmitOptions::default());
        let req = req.with_priority(Priority::High).with_deadline(at);
        assert_eq!(req.options.priority, Priority::High);
        assert_eq!(req.options.deadline, Some(at));
        let req = req.with_options(SubmitOptions::new());
        assert_eq!(req.options, SubmitOptions::default());

        // The relative forms land in the future.
        let before = Instant::now();
        let timed = SubmitOptions::new().timeout(Duration::from_secs(60));
        assert!(timed.deadline.unwrap() > before);
    }

    #[test]
    fn single_request_matches_direct_call() {
        let ring = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let a = poly(N, primes::Q124, 1);
        let b = poly(N, primes::Q124, 2);
        let expected = ring.polymul_negacyclic(&a, &b).unwrap();

        let dyn_ring: Arc<dyn PolyRing> = ring;
        let pool = RingExecutor::new(2).unwrap();
        let handle = pool
            .submit(
                &dyn_ring,
                RingRequest::polymul(PolyOp::Negacyclic, a.into(), b.into()),
            )
            .unwrap();
        let resolved = handle
            .wait_timeout(RESOLVES_WITHIN)
            .expect("the handle resolves");
        assert_eq!(resolved.unwrap().into_words().unwrap(), expected);
    }

    #[test]
    fn rns_request_fans_channels_and_joins() {
        let ring = Arc::new(RnsRing::auto(3, N).unwrap());
        let q = ring.product_modulus().clone();
        let a: Vec<BigUint> = (0..N as u64).map(BigUint::from).collect();
        let b: Vec<BigUint> = (0..N as u64)
            .map(|i| &BigUint::from(i * i + 7) % &q)
            .collect();
        let expected = ring.polymul_negacyclic(&a, &b).unwrap();

        let dyn_ring: Arc<dyn PolyRing> = ring;
        let pool = RingExecutor::new(3).unwrap();
        let out = pool
            .serve(
                &dyn_ring,
                vec![RingRequest::polymul(PolyOp::Negacyclic, a.into(), b.into())],
            )
            .unwrap();
        assert_eq!(out[0].as_bigs().unwrap(), expected.as_slice());
    }

    #[test]
    fn submit_validates_before_queueing() {
        let dyn_ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let pool = RingExecutor::new(1).unwrap();
        // Wrong length (both operands agree, but not with the ring).
        let short = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; N - 1].into(),
            vec![0_u128; N - 1].into(),
        );
        assert!(matches!(
            pool.submit(&dyn_ring, short).unwrap_err(),
            Error::LengthMismatch { .. }
        ));
        // Mismatched binary operands get the dedicated variant, before
        // any split runs.
        let uneven = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; N - 1].into(),
            vec![0_u128; N].into(),
        );
        assert!(matches!(
            pool.submit(&dyn_ring, uneven).unwrap_err(),
            Error::OperandLengthMismatch { a, b } if a == N - 1 && b == N
        ));
        // Arity mismatches: a unary op with two operands, a binary op
        // with one.
        let two_for_unary = RingRequest::new(
            RingOp::Rescale,
            vec![0_u128; N].into(),
            Some(vec![0_u128; N].into()),
        );
        assert!(matches!(
            pool.submit(&dyn_ring, two_for_unary).unwrap_err(),
            Error::OperandCountMismatch {
                op: "rescale",
                expected: 1,
                got: 2
            }
        ));
        let one_for_binary = RingRequest::new(RingOp::Add, vec![0_u128; N].into(), None);
        assert!(matches!(
            pool.submit(&dyn_ring, one_for_binary).unwrap_err(),
            Error::OperandCountMismatch {
                op: "add",
                expected: 2,
                got: 1
            }
        ));
        // An op the ring cannot execute is rejected before queueing.
        let rescale_on_word = RingRequest::rescale(vec![0_u128; N].into());
        assert!(matches!(
            pool.submit(&dyn_ring, rescale_on_word).unwrap_err(),
            Error::UnsupportedOp { op: "rescale", .. }
        ));
        // Wrong representation.
        let big = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![BigUint::zero(); N].into(),
            vec![BigUint::zero(); N].into(),
        );
        assert!(matches!(
            pool.submit(&dyn_ring, big).unwrap_err(),
            Error::CoefficientKind { .. }
        ));
        // Negacyclic on a ring without a 2n-th root.
        let no_nega: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q14, 1024).unwrap());
        let req = RingRequest::polymul(
            PolyOp::Negacyclic,
            vec![0_u128; 1024].into(),
            vec![0_u128; 1024].into(),
        );
        assert!(matches!(
            pool.submit(&no_nega, req).unwrap_err(),
            Error::NoNegacyclicSupport { n: 1024 }
        ));
    }

    #[test]
    fn handles_resolve_out_of_submission_order() {
        let dyn_ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let pool = RingExecutor::new(2).unwrap();
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        for i in 0..16_u64 {
            let a = poly(N, primes::Q124, i * 2 + 1);
            let b = poly(N, primes::Q124, i * 2 + 2);
            expected.push(
                dyn_ring
                    .polymul(PolyOp::Cyclic, &a.clone().into(), &b.clone().into())
                    .unwrap(),
            );
            handles.push(
                pool.submit(
                    &dyn_ring,
                    RingRequest::polymul(PolyOp::Cyclic, a.into(), b.into()),
                )
                .unwrap(),
            );
        }
        // Wait in reverse order: completion order must not matter.
        for (handle, want) in handles.into_iter().rev().zip(expected.into_iter().rev()) {
            assert_eq!(handle.wait().unwrap(), want);
        }
    }

    #[test]
    fn mixed_priorities_all_complete_with_correct_results() {
        // Correctness (not ordering — that needs a saturated 1-worker
        // pool, covered by tests/executor_qos.rs): every class's product
        // is bit-identical to the direct call.
        let dyn_ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let pool = RingExecutor::new(2).unwrap();
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        for (i, priority) in (0..12_u64).zip(Priority::ALL.into_iter().cycle()) {
            let a = poly(N, primes::Q124, i * 2 + 31);
            let b = poly(N, primes::Q124, i * 2 + 32);
            expected.push(
                dyn_ring
                    .polymul(PolyOp::Cyclic, &a.clone().into(), &b.clone().into())
                    .unwrap(),
            );
            handles.push(
                pool.submit(
                    &dyn_ring,
                    RingRequest::polymul(PolyOp::Cyclic, a.into(), b.into())
                        .with_priority(priority),
                )
                .unwrap(),
            );
        }
        for (handle, want) in handles.into_iter().zip(expected) {
            assert_eq!(handle.wait().unwrap(), want);
        }
    }

    #[test]
    fn expired_deadline_resolves_without_queueing() {
        let dyn_ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let pool = RingExecutor::new(1).unwrap();
        let a = poly(N, primes::Q124, 3);
        let handle = pool
            .submit(
                &dyn_ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into())
                    .with_deadline(Instant::now()),
            )
            .unwrap();
        // Resolved synchronously at submit: no worker involved.
        assert!(handle.is_finished());
        assert!(matches!(
            handle.wait().unwrap_err(),
            Error::DeadlineExceeded
        ));
    }

    #[test]
    fn one_executor_serves_multiple_rings() {
        let word: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let wide: Arc<dyn PolyRing> = Arc::new(RnsRing::auto(2, N).unwrap());
        let pool = RingExecutor::new(2).unwrap();

        let wa = poly(N, primes::Q124, 5);
        let word_handle = pool
            .submit(
                &word,
                RingRequest::polymul(PolyOp::Cyclic, wa.clone().into(), wa.clone().into()),
            )
            .unwrap();
        let ba: Vec<BigUint> = (0..N as u64).map(BigUint::from).collect();
        let wide_handle = pool
            .submit(
                &wide,
                RingRequest::polymul(PolyOp::Cyclic, ba.clone().into(), ba.clone().into()),
            )
            .unwrap();
        assert_eq!(
            word_handle.wait().unwrap(),
            word.polymul(PolyOp::Cyclic, &wa.clone().into(), &wa.into())
                .unwrap()
        );
        assert_eq!(
            wide_handle.wait().unwrap(),
            wide.polymul(PolyOp::Cyclic, &ba.clone().into(), &ba.into())
                .unwrap()
        );
    }

    #[test]
    fn panicking_join_surfaces_as_join_error_not_a_dead_worker() {
        /// A ring whose CRT join always panics — stands in for a
        /// misbehaving third-party [`PolyRing`] impl.
        struct BadJoin(Ring);
        impl PolyRing for BadJoin {
            fn size(&self) -> usize {
                self.0.size()
            }
            fn modulus_bits(&self) -> u64 {
                PolyRing::modulus_bits(&self.0)
            }
            fn supports_negacyclic(&self) -> bool {
                self.0.supports_negacyclic()
            }
            fn channels(&self) -> usize {
                1
            }
            fn split(&self, coeffs: &Coefficients) -> Result<Vec<Vec<u128>>, Error> {
                PolyRing::split(&self.0, coeffs)
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
                self.0.channel_apply_at_into(op, width, channel, a, b, out)
            }
            fn join_at(&self, _: usize, _: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
                panic!("join bomb")
            }
        }

        let bad: Arc<dyn PolyRing> = Arc::new(BadJoin(Ring::auto(primes::Q124, N).unwrap()));
        let pool = RingExecutor::new(1).unwrap();
        let a = poly(N, primes::Q124, 13);
        let handle = pool
            .submit(
                &bad,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.clone().into()),
            )
            .unwrap();
        assert!(matches!(handle.wait().unwrap_err(), Error::JoinPanicked));

        // The single worker survived the panic: a well-behaved ring is
        // still served by the same pool.
        let good: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let handle = pool
            .submit(
                &good,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into()),
            )
            .unwrap();
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn degenerate_empty_split_is_rejected_at_submit() {
        /// A ring whose split yields no channels at all — without the
        /// submit guard this would wrap the remaining counter and hang
        /// the handle.
        struct NoChannels;
        impl PolyRing for NoChannels {
            fn size(&self) -> usize {
                4
            }
            fn modulus_bits(&self) -> u64 {
                1
            }
            fn supports_negacyclic(&self) -> bool {
                false
            }
            fn channels(&self) -> usize {
                0
            }
            fn split(&self, _: &Coefficients) -> Result<Vec<Vec<u128>>, Error> {
                Ok(Vec::new())
            }
            fn channel_apply_at_into(
                &self,
                _: &RingOp,
                _: usize,
                channel: usize,
                _: &[Vec<u128>],
                _: Option<&[Vec<u128>]>,
                _: &mut Vec<u128>,
            ) -> Result<(), Error> {
                Err(Error::ChannelOutOfRange {
                    channel,
                    channels: 0,
                })
            }
            fn join_at(&self, _: usize, _: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
                Ok(Coefficients::Word(Vec::new()))
            }
        }

        let ring: Arc<dyn PolyRing> = Arc::new(NoChannels);
        let pool = RingExecutor::new(1).unwrap();
        let req = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; 4].into(),
            vec![0_u128; 4].into(),
        );
        assert!(matches!(
            pool.submit(&ring, req).unwrap_err(),
            Error::ChannelCountMismatch { got: 0, .. }
        ));
    }

    /// Long enough for any request of these tests; a handle still
    /// pending after it means a dead worker, and the test fails instead
    /// of hanging.
    const RESOLVES_WITHIN: Duration = Duration::from_secs(30);

    /// A follow-up request on `pool` completes: its worker survived
    /// whatever the previous request did.
    fn assert_pool_still_serves(pool: &RingExecutor) {
        let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let a = poly(N, primes::Q124, 21);
        let handle = pool
            .submit(
                &ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into()),
            )
            .unwrap();
        let served = handle.wait_timeout(RESOLVES_WITHIN);
        assert!(matches!(served, Ok(Ok(_))), "the worker died");
    }

    #[test]
    fn panicking_publish_hook_still_resolves_the_handle() {
        let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let pool = RingExecutor::new(1).unwrap();
        let a = poly(N, primes::Q124, 17);
        let expected = ring
            .polymul(PolyOp::Cyclic, &a.clone().into(), &a.clone().into())
            .unwrap();
        let fired = Arc::new(AtomicBool::new(false));
        let hook_fired = Arc::clone(&fired);
        let hook: PublishHook = Box::new(move |_| {
            // ORDERING: SeqCst; a test flag read after the handle resolves.
            hook_fired.store(true, Ordering::SeqCst);
            panic!("publish hook bomb");
        });
        let handle = pool
            .submit_with_hook(
                &ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into()),
                Some(hook),
            )
            .unwrap();
        let resolved = handle
            .wait_timeout(RESOLVES_WITHIN)
            .expect("the handle resolves");
        assert_eq!(resolved.unwrap(), expected);
        // ORDERING: SeqCst, as at the store.
        assert!(fired.load(Ordering::SeqCst));
        assert_pool_still_serves(&pool);
    }

    #[test]
    fn panicking_waker_still_resolves_the_handle() {
        use std::sync::mpsc;
        use std::task::Wake;

        /// A ring whose work items wait for the test to open a gate, so
        /// the waker is parked before the request can publish.
        struct Gated {
            inner: Ring,
            gate: Mutex<mpsc::Receiver<()>>,
        }
        impl PolyRing for Gated {
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
                self.gate.lock().unwrap().recv().unwrap();
                self.inner
                    .channel_apply_at_into(op, width, channel, a, b, out)
            }
            fn join_at(&self, width: usize, parts: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
                self.inner.join_at(width, parts)
            }
        }

        /// A waker that records the wake, then panics.
        struct Bomb(AtomicBool);
        impl Wake for Bomb {
            fn wake(self: Arc<Self>) {
                // ORDERING: SeqCst; a test flag read after the pool
                // served a later request.
                self.0.store(true, Ordering::SeqCst);
                panic!("waker bomb");
            }
        }

        let (open, gate) = mpsc::channel();
        let inner = Ring::auto(primes::Q124, N).unwrap();
        let a = poly(N, primes::Q124, 19);
        let expected = inner.polymul_cyclic(&a, &a).unwrap();
        let ring: Arc<dyn PolyRing> = Arc::new(Gated {
            inner,
            gate: Mutex::new(gate),
        });
        let pool = RingExecutor::new(1).unwrap();
        let handle = pool
            .submit(
                &ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into()),
            )
            .unwrap();
        let bomb = Arc::new(Bomb(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&bomb));
        assert!(handle.poll_take(&waker).is_none(), "the gate is shut");
        open.send(()).unwrap();
        let resolved = handle
            .wait_timeout(RESOLVES_WITHIN)
            .expect("the handle resolves");
        assert_eq!(resolved.unwrap().into_words().unwrap(), expected);
        // One worker: the follow-up runs only after the publish that
        // fired the waker has returned.
        assert_pool_still_serves(&pool);
        // ORDERING: SeqCst, as at the store.
        assert!(bomb.0.load(Ordering::SeqCst), "the parked waker fired");
    }

    #[test]
    fn dropping_unwaited_handles_does_not_wedge_the_pool() {
        let dyn_ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
        let pool = RingExecutor::new(2).unwrap();
        let a = poly(N, primes::Q124, 9);
        for _ in 0..8 {
            let _ = pool
                .submit(
                    &dyn_ring,
                    RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.clone().into()),
                )
                .unwrap();
        }
        // A subsequent waited request still completes.
        let handle = pool
            .submit(
                &dyn_ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.clone().into()),
            )
            .unwrap();
        assert!(handle.wait().is_ok());
        // Drop tears the pool down without hanging.
        drop(pool);
    }
}
