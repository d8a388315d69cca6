//! The load generator: one thread that clones requests out of the pool,
//! submits them through `FrontDoor::submit`, and checks every response
//! against its expected value. Closed loops keep a fixed number of
//! requests in flight; the open loop sends on a Poisson schedule
//! whatever the system does, and times each request from the moment it
//! was *due*.

use crate::host;
use crate::workload::{OpenLoop, Served};
use mqx::frontdoor::AsyncRequestHandle;
use mqx::{Coefficients, Error, Priority, RingRequest};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Number of priority classes, in `Priority::ALL` order.
pub const CLASSES: usize = Priority::ALL.len();

/// Indices into `Priority::ALL`; every closed loop sends `NORMAL`.
const HIGH: usize = 0;
const NORMAL: usize = 1;
const LOW: usize = 2;

/// A request not resolved this long after its phase stopped sending
/// (closed loop: after the generator started waiting for it) counts as
/// failed.
const RESOLVE_LIMIT: Duration = Duration::from_secs(10);

/// One traced interval. The spans of one request share `id`; `parent`
/// names the span that caused this one (empty for the root `request`).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What only the traced pass records, in memory until the run ends.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Duration of every request clone.
    pub clone_ns: Vec<u64>,
    /// Largest `RingExecutor::queue_depths()` total seen at a submit.
    pub queue_depth_max: usize,
}

/// Counts and samples of one phase.
#[derive(Default)]
pub struct PhaseStats {
    pub wall_s: f64,
    /// Process CPU time (all threads) over the phase.
    pub cpu_s: f64,
    pub attempted: u64,
    /// Outcomes the protocol does not allow: a wrong product, an error
    /// that is not a shed, a shed in a closed loop or in the light
    /// step, no resolution within [`RESOLVE_LIMIT`].
    pub failed: u64,
    /// The part of `failed` that is a wrong answer, not a refusal: a
    /// mismatching product or an error other than a shed.
    pub wrong: u64,
    /// Sheds the protocol allows (overload step only).
    pub shed_allowed: u64,
    pub class_attempted: [u64; CLASSES],
    /// Verified-correct responses per class.
    pub class_served: [u64; CLASSES],
    /// Latency of every verified-correct response, per class.
    pub class_latency_ns: [Vec<u64>; CLASSES],
    /// Open loop: how long after its due time each request was sent.
    /// Closed loop: how long a freed window slot waited for its next
    /// submit (the generator's verify + clone turnaround).
    pub late_ns: Vec<u64>,
}

impl PhaseStats {
    /// Verified-correct responses.
    pub fn served(&self) -> u64 {
        self.class_served.iter().sum()
    }

    /// Latencies of every class together.
    pub fn latency_ns(&self) -> Vec<u64> {
        self.class_latency_ns.concat()
    }

    /// Adds another slice of the same phase.
    pub fn absorb(&mut self, slice: PhaseStats) {
        self.wall_s += slice.wall_s;
        self.cpu_s += slice.cpu_s;
        self.attempted += slice.attempted;
        self.failed += slice.failed;
        self.wrong += slice.wrong;
        self.shed_allowed += slice.shed_allowed;
        for class in 0..CLASSES {
            self.class_attempted[class] += slice.class_attempted[class];
            self.class_served[class] += slice.class_served[class];
            self.class_latency_ns[class].extend(&slice.class_latency_ns[class]);
        }
        self.late_ns.extend(slice.late_ns);
    }
}

/// The waker parked in a request: stamps the completion time on the
/// publishing worker's thread and unparks the generator. No collector
/// thread stands between a response and its timestamp.
struct Completion {
    epoch: Instant,
    done_ns: AtomicU64,
    generator: Thread,
}

impl Completion {
    fn stamp(&self) -> u64 {
        // Acquire pairs with the Release store in `wake_by_ref`; the
        // stamp carries no other data (the outcome travels under the
        // library's own lock), the pairing only keeps the generator
        // from reading a stamp before the wake that wrote it.
        self.done_ns.load(Ordering::Acquire)
    }
}

impl Wake for Completion {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.done_ns.store(now.max(1), Ordering::Release);
        self.generator.unpark();
    }
}

/// A request on its way, with the timestamps its spans need.
struct Sent {
    idx: usize,
    id: u64,
    class: usize,
    /// Where latency is counted from: just before `submit` in a closed
    /// loop, the scheduled send time in the open loop.
    from_ns: u64,
    begin_ns: u64,
    submit_ns: u64,
    submitted_ns: u64,
    handle: AsyncRequestHandle,
    done: Arc<Completion>,
}

/// The generator: the served system, the request pool with its expected
/// responses, and a cursor that keeps cycling the pool across phases.
pub struct Generator<'a> {
    served: &'a Served,
    pool: &'a [RingRequest],
    expected: &'a [Coefficients],
    /// Time zero of every timestamp in this process.
    epoch: Instant,
    cursor: usize,
    next_id: u64,
}

fn poll(sent: &mut Sent) -> Option<Result<Coefficients, Error>> {
    let waker = Waker::from(Arc::clone(&sent.done));
    let mut cx = Context::from_waker(&waker);
    match Pin::new(&mut sent.handle).poll(&mut cx) {
        Poll::Ready(outcome) => Some(outcome),
        Poll::Pending => None,
    }
}

impl<'a> Generator<'a> {
    pub fn new(
        served: &'a Served,
        pool: &'a [RingRequest],
        expected: &'a [Coefficients],
        epoch: Instant,
    ) -> Self {
        Generator {
            served,
            pool,
            expected,
            epoch,
            cursor: 0,
            next_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Clones the next pool request and submits it in `class`, with the
    /// deadline of `due` (its due time in ns and its deadline) when the
    /// loop is open. A submit that fails validation counts as a failed
    /// (wrong) outcome and yields `None`.
    fn send(
        &mut self,
        class: usize,
        due: Option<(u64, Instant)>,
        stats: &mut PhaseStats,
        trace: &mut Option<&mut Trace>,
    ) -> Option<Sent> {
        let idx = self.cursor % self.pool.len();
        self.cursor += 1;
        let id = self.next_id;
        self.next_id += 1;
        stats.attempted += 1;
        stats.class_attempted[class] += 1;

        let begin_ns = if trace.is_some() { self.now_ns() } else { 0 };
        let mut request = self.pool[idx].clone().with_priority(Priority::ALL[class]);
        if let Some((_, deadline)) = due {
            request = request.with_deadline(deadline);
        }
        let done = Arc::new(Completion {
            epoch: self.epoch,
            done_ns: AtomicU64::new(0),
            generator: std::thread::current(),
        });
        let submit_ns = self.now_ns();
        let submitted = self.served.door.submit(&self.served.ring, request);
        let mut submitted_ns = 0;
        if let Some(trace) = trace {
            submitted_ns = self.now_ns();
            trace.clone_ns.push(submit_ns - begin_ns);
            let depth = self.served.door.executor().queue_depths().iter().sum();
            trace.queue_depth_max = trace.queue_depth_max.max(depth);
        }
        match submitted {
            Ok(handle) => Some(Sent {
                idx,
                id,
                class,
                from_ns: due.map_or(submit_ns, |(due_ns, _)| due_ns),
                begin_ns,
                submit_ns,
                submitted_ns,
                handle,
                done,
            }),
            Err(_) => {
                stats.failed += 1;
                stats.wrong += 1;
                None
            }
        }
    }

    /// Books one resolved (or abandoned) request: verifies the product,
    /// sorts the outcome into served / allowed shed / failed, and in
    /// the traced pass records the request's spans. `done_ns` is when
    /// the response existed: in hand for a closed loop, the waker's
    /// stamp for the open loop.
    fn settle(
        &self,
        sent: &Sent,
        outcome: Option<Result<Coefficients, Error>>,
        done_ns: u64,
        sheds_allowed: bool,
        stats: &mut PhaseStats,
        trace: &mut Option<&mut Trace>,
    ) {
        let verify_ns = if trace.is_some() { self.now_ns() } else { 0 };
        match outcome {
            Some(Ok(product)) if product == self.expected[sent.idx] => {
                stats.class_served[sent.class] += 1;
                stats.class_latency_ns[sent.class].push(done_ns.saturating_sub(sent.from_ns));
            }
            Some(Err(Error::Overloaded { .. } | Error::DeadlineExceeded)) if sheds_allowed => {
                stats.shed_allowed += 1;
            }
            Some(Err(Error::Overloaded { .. } | Error::DeadlineExceeded)) | None => {
                stats.failed += 1;
            }
            Some(_) => {
                stats.failed += 1;
                stats.wrong += 1;
            }
        }
        if let Some(trace) = trace {
            let end_ns = self.now_ns();
            let in_flight_end = done_ns.clamp(sent.submitted_ns, verify_ns);
            let mut span = |parent, name, start_ns, end_ns| {
                trace.spans.push(Span {
                    id: sent.id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                });
            };
            span("", "request", sent.begin_ns, end_ns);
            span("request", "loadgen.clone", sent.begin_ns, sent.submit_ns);
            span(
                "request",
                "frontdoor.submit",
                sent.submit_ns,
                sent.submitted_ns,
            );
            span(
                "request",
                "request.in_flight",
                sent.submitted_ns,
                in_flight_end,
            );
            span("request", "loadgen.verify", verify_ns, end_ns);
        }
    }

    /// A closed loop: keeps `window` requests in flight for `duration`,
    /// always waiting for the oldest (FIFO within a class means it
    /// finishes first), then drains the window.
    pub fn closed(
        &mut self,
        window: usize,
        duration: Duration,
        mut trace: Option<&mut Trace>,
    ) -> PhaseStats {
        let mut stats = PhaseStats::default();
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let stop_sending = start + duration;
        let mut in_flight: VecDeque<Sent> = VecDeque::with_capacity(window);
        let mut slot_freed_ns = None;
        loop {
            if Instant::now() < stop_sending {
                while in_flight.len() < window {
                    if let Some(sent) = self.send(NORMAL, None, &mut stats, &mut trace) {
                        if let Some(freed) = slot_freed_ns.take() {
                            stats.late_ns.push(sent.submit_ns.saturating_sub(freed));
                        }
                        in_flight.push_back(sent);
                    }
                }
            }
            let Some(mut oldest) = in_flight.pop_front() else {
                break;
            };
            let give_up = Instant::now() + RESOLVE_LIMIT;
            let outcome = loop {
                if let Some(outcome) = poll(&mut oldest) {
                    break Some(outcome);
                }
                let now = Instant::now();
                if now >= give_up {
                    break None;
                }
                std::thread::park_timeout(give_up - now);
            };
            let in_hand_ns = self.now_ns();
            slot_freed_ns = Some(in_hand_ns);
            self.settle(&oldest, outcome, in_hand_ns, false, &mut stats, &mut trace);
        }
        stats.wall_s = start.elapsed().as_secs_f64();
        stats.cpu_s = host::cpu_seconds() - cpu0;
        stats
    }

    /// One step of the open loop: Poisson arrivals at `rate` requests a
    /// second for `duration`, each with a class drawn 5 % High / 45 %
    /// Normal / 50 % Low and a deadline counted from its due time.
    /// `overload` says whether sheds are an allowed outcome.
    pub fn open(
        &mut self,
        schedule: OpenLoop,
        overload: bool,
        duration: Duration,
        rng: &mut StdRng,
        mut trace: Option<&mut Trace>,
    ) -> PhaseStats {
        let rate = if overload {
            schedule.overload_rps
        } else {
            schedule.light_rps
        };
        let mut unit = || (rng.gen::<u64>() >> 11) as f64 / (1_u64 << 53) as f64;
        let mut stats = PhaseStats::default();
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let stop_sending = start + duration;
        let mut outstanding: Vec<Sent> = Vec::new();
        let mut due = start;
        loop {
            due += Duration::from_secs_f64(-(1.0 - unit()).ln() / rate);
            if due >= stop_sending {
                break;
            }
            let draw = unit();
            let class = match draw {
                d if d < 0.05 => HIGH,
                d if d < 0.50 => NORMAL,
                _ => LOW,
            };
            // Until the send is due, collect what has completed. While
            // requests are in flight, park: the generator must take no
            // CPU from a worker it may share one with (`host::confine`),
            // and a completion unparks it. While nothing is in flight,
            // spin: the worker has nothing to lose, and the CPU never
            // goes idle. An idle vCPU is handed back to the hypervisor
            // and comes back cold, which made the light step's latency
            // a reading of the host's mood: 0.7 ms in a calm minute,
            // 0.9–1.7 ms in a busy one, where this wait reads 0.6 ms in
            // both.
            loop {
                self.reap(&mut outstanding, overload, &mut stats, &mut trace);
                let now = Instant::now();
                if now >= due {
                    stats.late_ns.push((now - due).as_nanos() as u64);
                    break;
                }
                if outstanding.is_empty() {
                    std::hint::spin_loop();
                } else {
                    std::thread::park_timeout(due - now);
                }
            }
            let due_ns = (due - self.epoch).as_nanos() as u64;
            let deadline = due + Duration::from_millis(schedule.deadline_ms);
            let Some(mut sent) = self.send(class, Some((due_ns, deadline)), &mut stats, &mut trace)
            else {
                continue;
            };
            // The first poll parks the waker — or finds the request
            // already resolved, which is what a shed at submit is.
            match poll(&mut sent) {
                Some(outcome) => {
                    let now_ns = self.now_ns();
                    self.settle(
                        &sent,
                        Some(outcome),
                        now_ns,
                        overload,
                        &mut stats,
                        &mut trace,
                    );
                }
                None => outstanding.push(sent),
            }
        }
        let give_up = Instant::now() + RESOLVE_LIMIT;
        while !outstanding.is_empty() && Instant::now() < give_up {
            std::thread::park_timeout(Duration::from_millis(1));
            self.reap(&mut outstanding, overload, &mut stats, &mut trace);
        }
        for sent in &outstanding {
            let now_ns = self.now_ns();
            self.settle(sent, None, now_ns, overload, &mut stats, &mut trace);
        }
        stats.wall_s = start.elapsed().as_secs_f64();
        stats.cpu_s = host::cpu_seconds() - cpu0;
        stats
    }

    /// Settles every outstanding request whose waker has fired.
    fn reap(
        &self,
        outstanding: &mut Vec<Sent>,
        sheds_allowed: bool,
        stats: &mut PhaseStats,
        trace: &mut Option<&mut Trace>,
    ) {
        let mut i = 0;
        while i < outstanding.len() {
            let done_ns = outstanding[i].done.stamp();
            if done_ns == 0 {
                i += 1;
                continue;
            }
            // The wake follows the publication of the outcome, so this
            // poll is ready; were it not, the request simply stays.
            match poll(&mut outstanding[i]) {
                Some(outcome) => {
                    let sent = outstanding.swap_remove(i);
                    self.settle(&sent, Some(outcome), done_ns, sheds_allowed, stats, trace);
                }
                None => i += 1,
            }
        }
    }
}
