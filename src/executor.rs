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
//! shared by all of them (one plan, and per-call scratch from the
//! ring's internal free list), and a
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
//! items in flight for a batch.
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
//! request therefore carries, set through
//! [`RingRequest::with_priority`] / [`RingRequest::with_deadline`]:
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
//! [`RequestHandle::try_wait`] polls without blocking and hands the
//! handle back while the request is unresolved.
//!
//! # Admission and async completion
//!
//! The pool is also the front door a network service puts before its
//! kernels, so it bounds its own queues and completes requests without
//! a thread parked per request:
//!
//! * **Bounded admission.** Each [`Priority`] class has its own queue,
//!   and each is bounded by the pool's one queue-depth limit
//!   ([`RingExecutorBuilder::queue_depth`], [`DEFAULT_QUEUE_DEPTH`]
//!   otherwise). A [`submit`](RingExecutor::submit) that finds its class
//!   at the limit is **shed**: its handle comes back already resolved
//!   with [`Error::Overloaded`], no split or kernel runs, and the caller
//!   never blocks. The check is `queued + reserved < limit` under the
//!   injector lock: an admitted submit holds its slot as a reservation
//!   while the split runs outside any lock, and the reservation becomes
//!   the queue entry under the lock that pushes it (or is given back
//!   when validation fails or the deadline has already passed). So the
//!   limit is strict and concurrent submitters split in parallel.
//! * **Asynchronous completion.** [`RequestHandle`] is a
//!   [`Future`]`<Output = Result<Coefficients, Error>>`: a pending poll
//!   parks its [`Waker`] in the request's outcome slot, and the worker
//!   that publishes the outcome fires it exactly once.
//!   [`RequestHandle::wait`] is [`block_on`] of the handle;
//!   [`join_all`](crate::frontdoor::join_all) collects a batch in one
//!   `block_on`, without a runtime.
//! * **Stats.** [`RingExecutor::stats`] is a reconciling
//!   [`AdmissionStats`] snapshot. Every submit is counted; sheds and
//!   cancellations are counted where the outcome is published, so they
//!   stay exact even for handles nobody waits on.
//!
//! A multi-node [`OpGraph`] request is one unit throughout: one queue
//! slot, one handle, one count in every stat.
//!
//! [`Ring`]: crate::Ring
//! [`RnsRing`]: crate::RnsRing
//!
//! ```
//! use std::sync::Arc;
//! use mqx::frontdoor::{block_on, join_all};
//! use mqx::{core::primes, PolyOp, PolyRing, Priority, Ring, RingExecutor, RingRequest};
//!
//! let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, 64)?);
//! let pool = RingExecutor::new(4)?;
//!
//! // Queue a small batch and collect results in submission order.
//! let handles = (0..8_u64)
//!     .map(|i| {
//!         let a: Vec<u128> = (0..64).map(|j| u128::from(i + j)).collect();
//!         pool.submit(
//!             &ring,
//!             RingRequest::polymul(PolyOp::Negacyclic, a.clone().into(), a.into()),
//!         )
//!     })
//!     .collect::<Result<Vec<_>, _>>()?;
//! let products = block_on(join_all(handles))
//!     .into_iter()
//!     .collect::<Result<Vec<_>, _>>()?;
//! assert_eq!(products.len(), 8);
//!
//! // An interactive request overtakes queued bulk work.
//! let a: Vec<u128> = (0..64_u64).map(u128::from).collect();
//! let urgent = RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into())
//!     .with_priority(Priority::High);
//! let product = pool.submit(&ring, urgent)?.wait()?;
//! assert_eq!(product.len(), 64);
//! assert!(pool.stats().reconciles());
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::error::Error;
use crate::graph::{OpGraph, Operand};
use crate::ops::RingOp;
use crate::poly::{split_and_plan, Coefficients, PolyOp, PolyRing};
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default queue-depth limit of every class's queue: deep enough that
/// a well-provisioned service never notices it, bounded enough that a
/// stalled pool sheds instead of swallowing the caller's memory.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

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

/// One queued unit of ring work: an [`OpGraph`] with the graph's
/// external operands, plus its [`Priority`] class and optional deadline
/// ([`with_priority`](RingRequest::with_priority) /
/// [`with_deadline`](RingRequest::with_deadline)). A single
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
    /// Scheduling class ([`Priority::Normal`] by default).
    priority: Priority,
    /// Latest useful completion time: a request still queued past this
    /// instant is shed with [`Error::DeadlineExceeded`] instead of
    /// burning worker time. `None` (the default) never sheds.
    deadline: Option<Instant>,
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
            priority: Priority::default(),
            deadline: None,
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

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
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

impl NodeExec {
    fn slots(&self) -> MutexGuard<'_, Vec<Option<Vec<u128>>>> {
        self.slots.lock().expect("node slots poisoned")
    }
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
    /// Latest useful completion time; checked when a worker dequeues
    /// the request or one of its work items.
    deadline: Option<Instant>,
    /// Set by [`RequestState::cancel`]; checked at the same dequeue
    /// points as the deadline.
    cancelled: AtomicBool,
    /// The first work-item error (errors win over the join); the first
    /// `set` wins. Once it is set, remaining items of the whole graph
    /// retire without running their kernels, and the output node
    /// publishes it. Kept apart from `completion` so the outcome holds
    /// a value *only* once the request is fully resolved.
    first_error: OnceLock<Error>,
    /// The outcome and the parked waker, under one lock.
    completion: Mutex<Completion>,
}

/// How a request completes: the outcome slot and the waker of whoever
/// waits for it.
#[derive(Default)]
struct Completion {
    /// The request's final result. Written exactly once, by the worker
    /// that completes the output node (after the CRT join, when there is
    /// one), so `Some` here means "`wait` will not block".
    outcome: Option<Result<Coefficients, Error>>,
    /// A [`Waker`] parked by a pending `poll` or a blocking wait, fired
    /// exactly once when the outcome is published (output node joined,
    /// shed, or cancelled). Re-polls replace it.
    waker: Option<Waker>,
}

impl RequestState {
    /// A request with nothing to fan out: the state a shed request
    /// resolves in, and the base [`planned`](RequestState::planned)
    /// fills in.
    fn bare(ring: &Arc<dyn PolyRing>, graph: OpGraph, deadline: Option<Instant>) -> RequestState {
        RequestState {
            ring: Arc::clone(ring),
            graph,
            inputs: Vec::new(),
            nodes: Vec::new(),
            deadline,
            cancelled: AtomicBool::new(false),
            first_error: OnceLock::new(),
            completion: Mutex::new(Completion::default()),
        }
    }

    /// Validates `request` against `ring` and builds its fan-out plan:
    /// the split operands plus every node's channel widths and
    /// scheduling topology. Runs on the submitter's thread, outside
    /// every executor lock.
    fn planned(ring: &Arc<dyn PolyRing>, request: RingRequest) -> Result<RequestState, Error> {
        let RingRequest {
            graph,
            operands,
            deadline,
            ..
        } = request;
        // The operands are handed over, so a word ring keeps them
        // instead of copying.
        let operands = operands.into_iter().map(Cow::Owned).collect();
        let (inputs, plan) = split_and_plan(&**ring, &graph, operands)?;
        // Scheduling topology: indegrees count *distinct* predecessor
        // nodes (a node consuming the same predecessor twice still waits
        // for one completion), successors mirror them.
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); graph.len()];
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
                // publication through the injector mutex orders them
                // before any worker's first load.
                pending: AtomicUsize::new(pending),
                successors,
                output: OnceLock::new(),
            })
            .collect();
        Ok(RequestState {
            inputs,
            nodes,
            ..RequestState::bare(ring, graph, deadline)
        })
    }

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
    /// signal, reached exactly once per request. Counts the outcome in
    /// `counters` first (so the stats are current before any waiter can
    /// observe it), then writes the outcome under the completion lock
    /// (strictly after the join, so a handle observing `Some` never
    /// races the join window) and takes the parked waker under the same
    /// lock: a waker parked before this point is drained here, and any
    /// poll after it observes the outcome. The waker fires outside the
    /// lock, since it may do arbitrary (cheap) work like unparking a
    /// blocked thread.
    ///
    /// The waker is caller code and runs under `catch_unwind`: a panic
    /// in it is dropped and the publishing worker lives on.
    fn publish(&self, resolved: Result<Coefficients, Error>, counters: &Counters) {
        counters.count_outcome(&resolved);
        let waker = {
            let mut completion = self.completion();
            debug_assert!(
                completion.outcome.is_none(),
                "a request resolves exactly once"
            );
            completion.outcome = Some(resolved);
            completion.waker.take()
        };
        if let Some(waker) = waker {
            let _ = catch_unwind(AssertUnwindSafe(|| waker.wake()));
        }
    }

    fn completion(&self) -> MutexGuard<'_, Completion> {
        self.completion.lock().expect("request completion poisoned")
    }

    /// Requests cooperative cancellation (see [`RequestHandle::cancel`]).
    fn cancel(&self) {
        // ORDERING: Release pairs with the Acquire load in
        // `shed_reason` — a worker that sees the flag sees everything
        // sequenced before this call.
        self.cancelled.store(true, Ordering::Release);
    }
}

/// A claim on one submitted request's eventual result — blocking
/// ([`wait`](RequestHandle::wait), or [`try_wait`](RequestHandle::try_wait)
/// without blocking) and asynchronous alike: the handle is a
/// [`Future`]`<Output = Result<Coefficients, Error>>`.
///
/// Await it on any waker-driven runtime (or
/// [`frontdoor::block_on`](crate::frontdoor::block_on)): a pending poll
/// parks the waker in the request's shared outcome slot, and it is
/// fired exactly once when the outcome is published — the output node
/// joining, a deadline shed, or a cancellation. Re-polling before
/// completion replaces the parked waker, so the future is safe to move
/// between tasks. A request shed at admission comes back already
/// resolved with [`Error::Overloaded`].
///
/// Dropping the handle without waiting is fine: the request still runs
/// to completion, its result is discarded, and the pool's stats stay
/// exact. To actively discard queued work, call
/// [`cancel`](RequestHandle::cancel) first, or keep a
/// [`canceller`](RequestHandle::canceller) that outlives the handle.
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
    /// request was shed. The same as [`block_on`]`(handle)`: like any
    /// re-poll, it replaces a waker an earlier poll of the handle parked.
    pub fn wait(self) -> Result<Coefficients, Error> {
        block_on(self)
    }

    /// Non-blocking wait: the result when the request has resolved,
    /// the handle itself (to try again later) when it has not.
    pub fn try_wait(self) -> Result<Result<Coefficients, Error>, RequestHandle> {
        let taken = self.state.completion().outcome.take();
        match taken {
            Some(result) => Ok(result),
            None => Err(self),
        }
    }

    /// Requests cooperative cancellation: channels not yet started are
    /// skipped at dequeue and the request resolves
    /// [`Error::Cancelled`]. Channels already executing run to
    /// completion (kernels are never interrupted mid-flight), and a
    /// request that has already finished keeps its product — cancelling
    /// it is a no-op.
    pub fn cancel(&self) {
        self.state.cancel();
    }

    /// Whether the request has fully resolved (its `wait` would not
    /// block). Decided from the published outcome — not the channel
    /// counter — so this stays `false` through the CRT-join window
    /// between the last channel landing and the join completing.
    pub fn is_finished(&self) -> bool {
        self.state.completion().outcome.is_some()
    }

    /// A detached cancellation handle for this request: a cheap clone
    /// of the shared state that outlives the handle, so a front end can
    /// drop the result claim yet still discard the queued work later.
    /// Cancelling a request that already resolved (including one shed
    /// at admission) is a no-op.
    pub fn canceller(&self) -> Canceller {
        Canceller {
            state: Arc::clone(&self.state),
        }
    }
}

impl Future for RequestHandle {
    type Output = Result<Coefficients, Error>;

    /// Takes the outcome if the request has resolved, otherwise parks
    /// the waker in the request's completion slot (replacing any
    /// previously parked waker) to be fired exactly once at
    /// publication. The check and the park happen under the one lock
    /// publication takes, so a wakeup can never be lost between them.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut completion = self.state.completion();
        if let Some(result) = completion.outcome.take() {
            return Poll::Ready(result);
        }
        completion.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// The [`Waker`] behind [`block_on`]: wakes by unparking the waiting
/// thread. `unpark` delivers a sticky token, so a wake landing between
/// a `poll` and the subsequent `park` is never lost.
struct ThreadUnparker(std::thread::Thread);

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a future to completion on the calling thread — the minimal
/// std-only async executor this offline build ships instead of pulling
/// in a runtime. Parks the thread between polls (no busy-spinning);
/// each wake unparks it for exactly one re-poll.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadUnparker(std::thread::current())));
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
        self.state.cancel();
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
    /// nodes' channels out onto its own deque, where it pops the next
    /// item and idle workers steal the rest.
    Request(Arc<RequestState>),
    /// One output channel of one graph node of a request.
    Channel(Arc<RequestState>, usize, usize),
}

/// The admission queue: one FIFO of freshly submitted requests per
/// [`Priority`] class, plus the reservations that count against each
/// class's depth limit.
struct Injector {
    /// Drained strictly by class, submission order within a class.
    queues: [VecDeque<Task>; CLASSES],
    /// Per-class count of outstanding [`Reservation`]s: slots held for
    /// requests still being split on their submitter's thread.
    reserved: [usize; CLASSES],
}

/// An admitted request's queue slot, held while its operands are split
/// outside the injector lock. It becomes the queue entry in
/// [`enqueue`](Reservation::enqueue); dropped unspent (a validation
/// error, an expired deadline, a panicking split) it gives the slot back.
struct Reservation<'a> {
    shared: &'a Shared,
    class: usize,
}

impl Reservation<'_> {
    /// Turns the slot into its queue entry under the one lock, so the
    /// slot is never free in between. Returns the class's queue depth
    /// after the push.
    fn enqueue(self, task: Task) -> usize {
        let (shared, class) = (self.shared, self.class);
        // The slot becomes the queue entry: nothing is left to give back.
        std::mem::forget(self);
        let mut injector = shared.injector();
        injector.reserved[class] -= 1;
        injector.queues[class].push_back(task);
        injector.queues[class].len()
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.shared.injector().reserved[self.class] -= 1;
    }
}

/// Lock-free admission counters (the internal form of
/// [`AdmissionStats`]). Every access is Relaxed: they are monotonic
/// statistics, nothing is published through them, and a snapshot is
/// deliberately not atomic across fields.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed_at_submit: [AtomicU64; CLASSES],
    shed_at_deadline: AtomicU64,
    cancelled: AtomicU64,
    queue_high_water: [AtomicUsize; CLASSES],
}

impl Counters {
    /// Counts a published outcome that is a deadline shed or a
    /// cancellation.
    fn count_outcome(&self, outcome: &Result<Coefficients, Error>) {
        let counter = match outcome {
            Err(Error::DeadlineExceeded) => &self.shed_at_deadline,
            Err(Error::Cancelled) => &self.cancelled,
            _ => return,
        };
        // ORDERING: Relaxed statistics counter (see `Counters`).
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Queue state shared between the executor handle and its workers.
struct Shared {
    /// New requests land here, and admission is decided under this lock.
    injector: Mutex<Injector>,
    /// Per-worker deques: the owner pushes/pops the back (LIFO keeps a
    /// request's channels hot in one worker's cache), thieves take the
    /// front (FIFO steals the oldest, largest-granularity work).
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Wakeup channel for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Shared {
    fn injector(&self) -> MutexGuard<'_, Injector> {
        self.injector.lock().expect("injector poisoned")
    }

    fn local(&self, worker: usize) -> MutexGuard<'_, VecDeque<Task>> {
        self.locals[worker].lock().expect("worker deque poisoned")
    }

    /// Takes one slot of `class` when `queued + reserved < limit`.
    fn reserve(&self, class: usize, limit: usize) -> Option<Reservation<'_>> {
        let mut injector = self.injector();
        if injector.queues[class].len() + injector.reserved[class] >= limit {
            return None;
        }
        injector.reserved[class] += 1;
        Some(Reservation {
            shared: self,
            class,
        })
    }

    /// Pops work: own deque first (back), then the injector (highest
    /// non-empty class), then a steal sweep over the other workers'
    /// deques (front). In-flight channels in the local deques outrank
    /// even high-priority injected requests: finishing started work
    /// releases its handle soonest and keeps its operands cache-hot.
    fn find_task(&self, worker: usize) -> Option<Task> {
        if let Some(task) = self.local(worker).pop_back() {
            return Some(task);
        }
        if let Some(task) = self
            .injector()
            .queues
            .iter_mut()
            .find_map(VecDeque::pop_front)
        {
            return Some(task);
        }
        let n = self.locals.len();
        (1..n).find_map(|offset| self.local((worker + offset) % n).pop_front())
    }

    fn idle(&self) -> MutexGuard<'_, ()> {
        self.idle.lock().expect("idle lock poisoned")
    }

    /// Wakes one idle worker after queueing a single task, or every
    /// idle worker for a fan-out burst (several stealable items at once)
    /// and shutdown, where every worker must observe the flag. Taking
    /// the idle lock orders the notify after any concurrent pre-sleep
    /// queue re-check, so wakeups cannot be lost; waking just one worker
    /// for one item avoids a thundering herd stampeding a wide pool.
    fn notify(&self, all: bool) {
        let _guard = self.idle();
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }

    /// Queues every output channel of each of `nodes` on `worker`'s
    /// deque — the one fan-out of a request's root nodes (at dequeue)
    /// and of successors made ready by a completion — and invites
    /// thieves when there is more than the one item this worker pops
    /// next. `nodes` is consumed under the deque lock, so none of the
    /// items pushed so far can run before it is exhausted.
    fn fan_out(
        &self,
        state: &Arc<RequestState>,
        nodes: impl Iterator<Item = usize>,
        worker: usize,
    ) {
        let pushed = {
            let mut local = self.local(worker);
            let before = local.len();
            for node in nodes {
                for channel in 0..state.nodes[node].tasks {
                    local.push_back(Task::Channel(Arc::clone(state), node, channel));
                }
            }
            local.len() - before
        };
        if pushed > 1 {
            self.notify(true);
        }
    }

    /// Runs one work item — one output channel of one graph node — and
    /// counts it done. A shed request (cancelled, or past its deadline)
    /// records the reason instead of running the kernel, and an item of
    /// a request that already recorded an error is drained without
    /// running, so the graph retires with no kernel time burnt. Kernel
    /// panics become a request error rather than a hung handle. The
    /// worker that counts a node's last item completes the node.
    fn run_item(&self, state: &Arc<RequestState>, node_id: usize, channel: usize, worker: usize) {
        let node = &state.nodes[node_id];
        if let Some(reason) = state.shed_reason() {
            // The first error wins; later ones are dropped.
            let _ = state.first_error.set(reason);
        } else if state.first_error.get().is_none() {
            let gnode = &state.graph.nodes()[node_id];
            // `_into` form: the ring writes into this vector (reusing
            // pooled scratch internally), so the only steady-state
            // allocation per work item is the output buffer itself.
            // Operand resolution runs under the same panic guard as the
            // kernel: a violated scheduling invariant (a successor
            // running before its predecessor materialized) surfaces as a
            // request error, never a dead worker.
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
            match result {
                Ok(product) => node.slots()[channel] = Some(product),
                Err(e) => {
                    let _ = state.first_error.set(e);
                }
            }
        }
        // ORDERING: AcqRel on the countdown — the Release half makes
        // this item's slot/error writes visible to whichever worker
        // hits zero; the Acquire half makes that worker see every other
        // item's writes.
        if node.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.complete_node(state, node_id, worker);
        }
    }

    /// Completes a node whose last work item just retired. For the
    /// output node — which, by the graph's no-dead-nodes invariant,
    /// always completes last — this joins and publishes the request.
    /// For interior nodes it materializes the channel-major result and
    /// counts down each successor's indegree, fanning out every node
    /// that becomes ready.
    fn complete_node(&self, state: &Arc<RequestState>, node_id: usize, worker: usize) {
        let node = &state.nodes[node_id];
        // Every channel landed unless an error was recorded.
        let parts = match state.first_error.get() {
            Some(e) => Err(e.clone()),
            None => Ok(std::mem::take(&mut *node.slots())
                .into_iter()
                .map(|slot| slot.expect("every channel landed"))
                .collect::<Vec<_>>()),
        };
        if node_id == state.graph.output() {
            // The join runs under the same panic guard as the channel
            // kernels: a panicking `PolyRing` join must surface as a
            // request error, not a dead worker and a poisoned handle. It
            // recombines over the width the chain reached at the output
            // node.
            let resolved = parts.and_then(|parts| {
                catch_unwind(AssertUnwindSafe(|| state.ring.join_at(node.tasks, parts)))
                    .unwrap_or(Err(Error::JoinPanicked))
            });
            state.publish(resolved, &self.counters);
            return;
        }
        if let Ok(parts) = parts {
            // OnceLock orders this set before any successor's get; the
            // first (only) completion wins.
            let _ = node.output.set(parts);
        }
        // ORDERING: AcqRel on the indegree countdown — the Release half
        // publishes this node's materialized output to the worker that
        // schedules the successor; the Acquire half makes that worker
        // observe every *other* predecessor's output as well.
        let ready = node.successors.iter().copied().filter(|&successor| {
            state.nodes[successor]
                .pending
                .fetch_sub(1, Ordering::AcqRel)
                == 1
        });
        self.fan_out(state, ready, worker);
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            match self.find_task(worker) {
                Some(Task::Request(state)) => {
                    // Dequeue-time QoS check: an expired or cancelled
                    // request resolves here, before any fan-out, so no
                    // work item of any node ever reaches a kernel.
                    if let Some(reason) = state.shed_reason() {
                        state.publish(Err(reason), &self.counters);
                        continue;
                    }
                    // Nothing of the request has run yet, so the nodes
                    // still waiting on no predecessor are its roots.
                    // ORDERING: Relaxed — the counts are the constructor
                    // stores, published by the injector mutex.
                    let roots = (0..state.nodes.len())
                        .filter(|&id| state.nodes[id].pending.load(Ordering::Relaxed) == 0);
                    self.fan_out(&state, roots, worker);
                }
                Some(Task::Channel(state, node, channel)) => {
                    self.run_item(&state, node, channel, worker)
                }
                None => {
                    let guard = self.idle();
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
        self.injector().queues.iter().any(|class| !class.is_empty())
            || (0..self.locals.len()).any(|worker| !self.local(worker).is_empty())
    }
}

/// A point-in-time snapshot of a pool's admission accounting
/// ([`RingExecutor::stats`]). All counters are monotonic; per-class
/// arrays are indexed in [`Priority::ALL`] drain order
/// (`[High, Normal, Low]`) — or use the `*_for` accessors.
///
/// The books always balance:
/// `admitted + shed_at_submit (summed) == submitted` — see
/// [`reconciles`](AdmissionStats::reconciles). `shed_at_deadline` and
/// `cancelled` count *admitted* requests by their eventual outcome,
/// recorded at publication (not at wait), so they stay exact even for
/// handles the caller dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests offered to the pool (admitted or shed at submit;
    /// requests rejected by *validation* — malformed operands — are not
    /// counted).
    pub submitted: u64,
    /// Requests that passed admission and validation.
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
    /// The deepest each class's pending queue got, per class.
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

    /// Whether the books balance: every request offered to the pool was
    /// either admitted or shed at submit.
    pub fn reconciles(&self) -> bool {
        self.admitted + self.shed_at_submit_total() == self.submitted
    }
}

/// Configures and builds a [`RingExecutor`]
/// ([`RingExecutor::builder`]): the worker count and the admission depth
/// limit of every class's queue.
///
/// ```
/// use mqx::RingExecutor;
///
/// let pool = RingExecutor::builder(2).queue_depth(256).build()?;
/// assert_eq!(pool.queue_depth_limit(), 256);
/// # Ok::<(), mqx::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct RingExecutorBuilder {
    workers: usize,
    depth: usize,
}

impl RingExecutorBuilder {
    /// Sets the queue-depth limit, which each [`Priority`] class's
    /// queue is checked against on its own. A class whose pending queue
    /// is at the limit sheds further submits with
    /// [`Error::Overloaded`]; depth `0` sheds every submit.
    pub fn queue_depth(mut self, depth: usize) -> RingExecutorBuilder {
        self.depth = depth;
        self
    }

    /// Builds the pool, starting its worker threads.
    ///
    /// # Errors
    ///
    /// [`Error::NoWorkers`] when the builder was given zero workers.
    pub fn build(self) -> Result<RingExecutor, Error> {
        if self.workers == 0 {
            return Err(Error::NoWorkers);
        }
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector {
                queues: std::array::from_fn(|_| VecDeque::new()),
                reserved: [0; CLASSES],
            }),
            locals: (0..self.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let handles = (0..self.workers)
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
            depth: self.depth,
        })
    }
}

/// A work-stealing pool of worker threads serving ring requests against
/// shared rings, behind bounded admission on every class's queue.
///
/// * [`submit`](RingExecutor::submit) — admit-or-shed, returning a
///   [`RequestHandle`] (blocking handle and [`Future`] in one); a class
///   at its depth limit resolves the handle at once with
///   [`Error::Overloaded`].
/// * [`stats`](RingExecutor::stats) — the reconciling
///   [`AdmissionStats`] snapshot.
///
/// The pool is ring-agnostic: each request names its ring, so one
/// executor can serve several rings (different moduli, different
/// geometries) at once. Workers live until the executor is dropped;
/// dropping waits for in-flight requests to finish executing.
pub struct RingExecutor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The depth limit each class's queue is checked against.
    depth: usize,
}

impl RingExecutor {
    /// Starts configuring a pool (see [`RingExecutorBuilder`]).
    pub fn builder(workers: usize) -> RingExecutorBuilder {
        RingExecutorBuilder {
            workers,
            depth: DEFAULT_QUEUE_DEPTH,
        }
    }

    /// Starts a pool of `workers` OS threads with the
    /// [`DEFAULT_QUEUE_DEPTH`] limit.
    ///
    /// # Errors
    ///
    /// [`Error::NoWorkers`] when `workers == 0`.
    pub fn new(workers: usize) -> Result<RingExecutor, Error> {
        RingExecutor::builder(workers).build()
    }

    /// The pool itself. A shim kept so code written against the former
    /// two-layer front door (`door.executor().submit(…)`) still
    /// compiles; its only callers are the serving benchmark and tests.
    pub fn executor(&self) -> &Self {
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The admission depth limit each class's queue is checked
    /// against.
    pub fn queue_depth_limit(&self) -> usize {
        self.depth
    }

    /// A cheap snapshot of the pending queue length of every
    /// [`Priority`] class (drain order: `[High, Normal, Low]`) — the
    /// requests injected but not yet picked up by a worker. Channels of
    /// requests already being fanned out or executed are not counted,
    /// and a multi-node [`OpGraph`] request occupies exactly **one**
    /// entry however many node × channel work items it will fan out to.
    /// Together with the slots of submits still splitting this is what
    /// admission compares against the depth limit, and the number
    /// to watch when debugging saturation (a class pinned at its limit
    /// is shedding or starving).
    ///
    /// The injector FIFOs themselves are measured under their lock, so
    /// the snapshot is exact at the instant it is taken.
    pub fn queue_depths(&self) -> [usize; CLASSES] {
        let injector = self.shared.injector();
        std::array::from_fn(|class| injector.queues[class].len())
    }

    /// Queues one request against `ring` through admission control and
    /// returns a handle to its eventual result.
    ///
    /// A request whose [`Priority`] class is at its depth limit is
    /// **shed**: the handle comes back already resolved with
    /// [`Error::Overloaded`] — no split, no kernel, no blocking.
    /// Otherwise the operands are validated (count, length, coefficient
    /// range, representation) and split on the calling thread, outside
    /// every pool lock, while a reservation holds the request's slot.
    /// A deadline already expired at that point resolves the handle to
    /// [`Error::DeadlineExceeded`] without queueing anything.
    ///
    /// # Errors
    ///
    /// Validation failures only: [`Error::NoNegacyclicSupport`] for a
    /// negacyclic request on a ring without one,
    /// [`Error::UnsupportedOp`] for an op the ring cannot execute,
    /// [`Error::OperandCountMismatch`] when the operand count does not
    /// match the op's arity, [`Error::OperandLengthMismatch`] for
    /// unequal binary operands, [`Error::ChannelCountMismatch`] for a
    /// `split` whose decomposition is empty or uneven (a misbehaving
    /// [`PolyRing`] impl), plus the [`PolyRing::split`] validation
    /// errors. Overload is *not* an `Err` from this method — it
    /// resolves through the handle, like every other serving outcome.
    pub fn submit(
        &self,
        ring: &Arc<dyn PolyRing>,
        request: RingRequest,
    ) -> Result<RequestHandle, Error> {
        let class = request.priority;
        let idx = class.class();
        let counters = &self.shared.counters;
        let Some(slot) = self.shared.reserve(idx, self.depth) else {
            // ORDERING: Relaxed statistics counters (see `Counters`).
            counters.submitted.fetch_add(1, Ordering::Relaxed);
            counters.shed_at_submit[idx].fetch_add(1, Ordering::Relaxed);
            // Resolved before anyone can wait on it: nobody to notify.
            let state = Arc::new(RequestState::bare(ring, request.graph, None));
            let depth = self.depth;
            state.publish(Err(Error::Overloaded { class, depth }), counters);
            return Ok(RequestHandle { state });
        };
        // A validation error returns here and drops the slot, which
        // gives it back.
        let state = Arc::new(RequestState::planned(ring, request)?);
        // ORDERING: Relaxed statistics counters (see `Counters`).
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        counters.admitted.fetch_add(1, Ordering::Relaxed);
        if state
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            // Dead on arrival: resolve without touching the queues, so
            // zero work items execute even on a saturated pool.
            drop(slot);
            state.publish(Err(Error::DeadlineExceeded), counters);
            return Ok(RequestHandle { state });
        }
        let depth = slot.enqueue(Task::Request(Arc::clone(&state)));
        // ORDERING: Relaxed statistics counter (see `Counters`).
        counters.queue_high_water[idx].fetch_max(depth, Ordering::Relaxed);
        // One queued item, one woken worker.
        self.shared.notify(false);
        Ok(RequestHandle { state })
    }

    /// A point-in-time [`AdmissionStats`] snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let counters = &self.shared.counters;
        // ORDERING: Relaxed reads of statistics counters (see
        // `Counters`).
        AdmissionStats {
            submitted: counters.submitted.load(Ordering::Relaxed),
            admitted: counters.admitted.load(Ordering::Relaxed),
            shed_at_submit: std::array::from_fn(|i| {
                counters.shed_at_submit[i].load(Ordering::Relaxed)
            }),
            shed_at_deadline: counters.shed_at_deadline.load(Ordering::Relaxed),
            cancelled: counters.cancelled.load(Ordering::Relaxed),
            // ORDERING: Relaxed, as for every counter above.
            queue_high_water: std::array::from_fn(|i| {
                counters.queue_high_water[i].load(Ordering::Relaxed)
            }),
        }
    }
}

impl Drop for RingExecutor {
    fn drop(&mut self) {
        // ORDERING: Release pairs with the workers' Acquire load in the
        // idle loop — an exiting worker sees all pre-shutdown writes.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify(true);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for RingExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingExecutor")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.depth)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Ring, RnsRing};
    use mqx_bignum::BigUint;
    use mqx_core::primes;
    use std::sync::mpsc;
    use std::task::Wake;
    use std::time::Duration;

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
        let req = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; 4].into(),
            vec![0_u128; 4].into(),
        );
        assert_eq!(req.priority, Priority::Normal);
        assert!(req.deadline.is_none());

        let at = Instant::now() + Duration::from_secs(3600);
        let req = req.with_priority(Priority::High).with_deadline(at);
        assert_eq!(req.priority, Priority::High);
        assert_eq!(req.deadline, Some(at));
        let req = req.with_priority(Priority::Low);
        assert_eq!((req.priority, req.deadline), (Priority::Low, Some(at)));
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
        let resolved = wait_within(handle, "the handle resolves");
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
        let (a, b) = (Coefficients::Big(a), Coefficients::Big(b));
        let expected = ring.apply(&RingOp::Polymul(PolyOp::Negacyclic), &a, Some(&b));
        let expected = expected.unwrap().into_bigs().unwrap();

        let dyn_ring: Arc<dyn PolyRing> = ring;
        let pool = RingExecutor::new(3).unwrap();
        let request = RingRequest::polymul(PolyOp::Negacyclic, a, b);
        let handles = vec![pool.submit(&dyn_ring, request).unwrap()];
        let out = block_on(crate::frontdoor::join_all(handles));
        let product = out[0].as_ref().unwrap();
        assert_eq!(product.as_bigs().unwrap(), expected.as_slice());
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
                    .apply(
                        &RingOp::Polymul(PolyOp::Cyclic),
                        &a.clone().into(),
                        Some(&b.clone().into()),
                    )
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
                    .apply(
                        &RingOp::Polymul(PolyOp::Cyclic),
                        &a.clone().into(),
                        Some(&b.clone().into()),
                    )
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
            word.apply(
                &RingOp::Polymul(PolyOp::Cyclic),
                &wa.clone().into(),
                Some(&wa.into())
            )
            .unwrap()
        );
        assert_eq!(
            wide_handle.wait().unwrap(),
            wide.apply(
                &RingOp::Polymul(PolyOp::Cyclic),
                &ba.clone().into(),
                Some(&ba.into())
            )
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
            fn split_cow(&self, coeffs: Cow<'_, Coefficients>) -> Result<Vec<Vec<u128>>, Error> {
                self.0.split_cow(coeffs)
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
            fn split_cow(&self, _: Cow<'_, Coefficients>) -> Result<Vec<Vec<u128>>, Error> {
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

    /// Polls `handle` with `try_wait` (leaving any parked waker in place)
    /// for at most [`RESOLVES_WITHIN`], then panics with `what`.
    fn wait_within(mut handle: RequestHandle, what: &str) -> Result<Coefficients, Error> {
        let deadline = Instant::now() + RESOLVES_WITHIN;
        loop {
            handle = match handle.try_wait() {
                Ok(outcome) => return outcome,
                Err(pending) => pending,
            };
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

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
        let served = wait_within(handle, "the worker died");
        assert!(served.is_ok(), "the worker died");
    }

    /// A ring whose work items each wait for the test to open a gate
    /// (one `send` per item), so a waker can be parked before the
    /// request publishes.
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
            self.gate.lock().unwrap().recv().unwrap();
            self.inner
                .channel_apply_at_into(op, width, channel, a, b, out)
        }
        fn join_at(&self, width: usize, parts: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
            self.inner.join_at(width, parts)
        }
    }

    /// A gated `Q124` ring of size `N`, plus the sender that opens its
    /// gate for one work item per `send`. Declare the pool *before*
    /// calling this: a failed assertion then drops the sender first,
    /// which fails the parked item instead of leaving the pool's `Drop`
    /// joining a worker that never returns.
    pub(crate) fn gated_ring() -> (Arc<dyn PolyRing>, mpsc::Sender<()>) {
        let (open, gate) = mpsc::channel();
        let ring = Gated {
            inner: Ring::auto(primes::Q124, N).unwrap(),
            gate: Mutex::new(gate),
        };
        (Arc::new(ring), open)
    }

    /// A waker that records the wake, then panics.
    struct Bomb(AtomicBool);

    impl Wake for Bomb {
        fn wake(self: Arc<Self>) {
            // ORDERING: SeqCst; a test flag read after the pool served
            // a later request.
            self.0.store(true, Ordering::SeqCst);
            panic!("waker bomb");
        }
    }

    /// Polls `handle` once, parking a [`Bomb`] waker when it is pending.
    fn poll_with_bomb(handle: &mut RequestHandle) -> (Arc<Bomb>, bool) {
        let bomb = Arc::new(Bomb(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&bomb));
        let pending = Pin::new(handle)
            .poll(&mut Context::from_waker(&waker))
            .is_pending();
        (bomb, pending)
    }

    /// The pool counts an outcome where it is published, before the
    /// parked waker fires: a cancelled request whose waker panics is
    /// still counted, still resolves, and the pool keeps serving.
    #[test]
    fn panicking_publish_hook_still_resolves_the_handle() {
        let pool = RingExecutor::new(1).unwrap();
        let (ring, open) = gated_ring();
        let a = poly(N, primes::Q124, 17);
        let request = || RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.clone().into());
        // The first request holds the only worker at the gate, so the
        // second stays queued until it is cancelled.
        let running = pool.submit(&ring, request()).unwrap();
        let mut victim = pool.submit(&ring, request()).unwrap();
        let (bomb, pending) = poll_with_bomb(&mut victim);
        assert!(pending, "the gate is shut");
        victim.cancel();
        open.send(()).unwrap();
        assert!(wait_within(running, "the handle resolves").is_ok());
        let resolved = wait_within(victim, "the handle resolves");
        assert!(matches!(resolved, Err(Error::Cancelled)));
        let stats = pool.stats();
        assert_eq!((stats.admitted, stats.cancelled), (2, 1));
        assert!(stats.reconciles());
        // One worker: the follow-up runs only after the publish that
        // fired the waker has returned.
        assert_pool_still_serves(&pool);
        // ORDERING: SeqCst, as at the store.
        assert!(bomb.0.load(Ordering::SeqCst), "the parked waker fired");
    }

    #[test]
    fn panicking_waker_still_resolves_the_handle() {
        let pool = RingExecutor::new(1).unwrap();
        let (ring, open) = gated_ring();
        let a = poly(N, primes::Q124, 19);
        let expected = Ring::auto(primes::Q124, N)
            .unwrap()
            .polymul_cyclic(&a, &a)
            .unwrap();
        let mut handle = pool
            .submit(
                &ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.into()),
            )
            .unwrap();
        let (bomb, pending) = poll_with_bomb(&mut handle);
        assert!(pending, "the gate is shut");
        open.send(()).unwrap();
        let resolved = wait_within(handle, "the handle resolves");
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
            let handle = pool
                .submit(
                    &dyn_ring,
                    RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), a.clone().into()),
                )
                .unwrap();
            drop(handle);
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
