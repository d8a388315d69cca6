//! Batched polymul serving throughput (extension beyond the paper's
//! single-kernel scope): requests/sec through the facade's
//! work-stealing `RingExecutor` as worker count and batch size vary,
//! plus the serving-QoS scenario — per-priority-class completion
//! latency under saturation and deadline shedding.
//!
//! The paper's §6 scaling argument — batched independent NTTs keep
//! every core's vector units saturated — is exactly the serving regime:
//! one immutable ring (one plan, pooled scratch) shared by all workers,
//! a queue of mixed cyclic/negacyclic requests fanned out as work
//! items. This sweep measures how far that holds on the running host:
//! ideal scaling is flat ns/request as workers grow; the deltas are the
//! scheduler plus memory-bandwidth tax. The QoS leg then mixes the
//! three priority classes in one saturated batch (interleaved
//! submission, so the injector must reorder) and reports each class's
//! p50/p99 completion latency — High should finish far ahead of Low —
//! and runs a deadline batch whose budget only covers part of the
//! work, counting how many requests the executor sheds instead of
//! serving stale.

use crate::report::{fmt_ns, write_json, Table};
use mqx::core::primes;
use mqx::frontdoor::{block_on, join_all, FrontDoor};
use mqx::{Error, PolyOp, PolyRing, Priority, RequestHandle, Ring, RingExecutor, RingRequest};
use mqx_json::impl_to_json;
use std::sync::Arc;
use std::time::Instant;

/// One (workers, batch) point of the serving sweep.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Executor worker-thread count.
    pub workers: usize,
    /// Requests per served batch (half cyclic, half negacyclic).
    pub batch: usize,
    /// Transform size `n`.
    pub n: usize,
    /// Wall-clock ns to serve the whole batch.
    pub ns: f64,
    /// `ns / batch` — flat across worker counts means the pool scales.
    pub ns_per_request: f64,
    /// Served requests per second.
    pub requests_per_sec: f64,
    /// The backend the shared ring dispatches to (registry name).
    pub backend: String,
}

impl_to_json!(ServeRow {
    workers,
    batch,
    n,
    ns,
    ns_per_request,
    requests_per_sec,
    backend,
});

/// Per-class completion latency of the QoS scenario.
#[derive(Clone, Debug)]
pub struct QosRow {
    /// The scenario leg: a priority class (`high`/`normal`/`low`) of
    /// the saturated mixed batch, or `deadline` for the shedding leg.
    pub scenario: String,
    /// Requests submitted in this leg.
    pub requests: usize,
    /// Requests that completed with a product.
    pub completed: usize,
    /// Requests shed with `DeadlineExceeded`.
    pub shed: usize,
    /// Median completion latency (ns from batch start), completed
    /// requests only; `0` when nothing completed.
    pub p50_ns: f64,
    /// 99th-percentile completion latency, completed requests only.
    pub p99_ns: f64,
}

impl_to_json!(QosRow {
    scenario,
    requests,
    completed,
    shed,
    p50_ns,
    p99_ns,
});

/// The machine the artifact was measured on — so a flat scaling curve
/// reads as "one-core container", not as a scheduler regression.
#[derive(Clone, Debug)]
pub struct HostContext {
    /// `std::thread::available_parallelism()` on the running host (`0`
    /// when the host cannot report it).
    pub available_parallelism: usize,
    /// The executor worker counts the throughput sweep actually ran.
    pub sweep_worker_counts: Vec<usize>,
    /// Worker threads used by the QoS scenario pool.
    pub qos_workers: usize,
    /// Worker threads behind the admission-control front door.
    pub admission_workers: usize,
}

impl_to_json!(HostContext {
    available_parallelism,
    sweep_worker_counts,
    qos_workers,
    admission_workers,
});

/// One priority class of the admission-control leg: a front-door burst
/// against per-class bounded queues.
#[derive(Clone, Debug)]
pub struct AdmissionRow {
    /// Priority class (`high`/`normal`/`low`).
    pub class: String,
    /// The class's configured queue-depth limit.
    pub depth_limit: usize,
    /// Requests submitted to this class.
    pub submitted: usize,
    /// Requests that completed with a product (bit-identity-gated
    /// against sequential execution).
    pub completed: usize,
    /// Requests shed at submit with `Error::Overloaded`.
    pub shed_at_submit: u64,
    /// Deepest the class's pending queue got at admission time.
    pub queue_high_water: usize,
}

impl_to_json!(AdmissionRow {
    class,
    depth_limit,
    submitted,
    completed,
    shed_at_submit,
    queue_high_water,
});

/// The `AdmissionStats` totals of the admission leg, with the
/// reconciliation verdict the acceptance gate checks.
#[derive(Clone, Debug)]
pub struct AdmissionSummary {
    /// Worker threads behind the front door.
    pub workers: usize,
    /// Requests offered to the front door.
    pub submitted: u64,
    /// Requests admitted into the executor.
    pub admitted: u64,
    /// Requests shed at submit across all classes.
    pub shed_at_submit: u64,
    /// Whether `admitted + shed_at_submit == submitted` held.
    pub reconciled: bool,
}

impl_to_json!(AdmissionSummary {
    workers,
    submitted,
    admitted,
    shed_at_submit,
    reconciled,
});

/// The full serving artifact: host context, the worker × batch
/// throughput sweep, the QoS scenario's per-class latency percentiles,
/// and the admission-control leg.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The machine and pool shapes behind every number below.
    pub host: HostContext,
    /// The worker × batch throughput sweep.
    pub sweep: Vec<ServeRow>,
    /// The QoS scenario rows (one per priority class, one deadline
    /// leg).
    pub qos: Vec<QosRow>,
    /// The admission-control leg, one row per priority class.
    pub admission: Vec<AdmissionRow>,
    /// The admission leg's reconciling totals.
    pub admission_summary: AdmissionSummary,
}

impl_to_json!(ServeReport {
    host,
    sweep,
    qos,
    admission,
    admission_summary,
});

fn requests(n: usize, batch: usize, seed: u64) -> Vec<RingRequest> {
    let mut state = seed ^ 0x5EED;
    let mut poly = move || -> Vec<u128> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                u128::from(state) % primes::Q124
            })
            .collect()
    };
    (0..batch)
        .map(|i| {
            let op = if i % 2 == 0 {
                PolyOp::Negacyclic
            } else {
                PolyOp::Cyclic
            };
            RingRequest::polymul(op, poly().into(), poly().into())
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample; `0` for an
/// empty one.
pub(crate) fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

/// Polls a set of bucket-tagged handles with `try_wait` until every
/// one resolves, recording each request's completion latency from
/// `t0`. Returns `(latencies per bucket, shed count per bucket)`.
pub(crate) fn drain<const K: usize>(
    mut pending: Vec<Option<(usize, usize, RequestHandle)>>,
    t0: Instant,
    mut on_product: impl FnMut(usize, mqx::Coefficients),
) -> ([Vec<f64>; K], [usize; K]) {
    let mut latencies: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    let mut shed = [0_usize; K];
    let mut open = pending.len();
    while open > 0 {
        for slot in pending.iter_mut() {
            let Some((class, index, handle)) = slot.take() else {
                continue;
            };
            match handle.try_wait() {
                Ok(result) => {
                    open -= 1;
                    match result {
                        Ok(product) => {
                            latencies[class].push(t0.elapsed().as_nanos() as f64);
                            on_product(index, product);
                        }
                        Err(Error::DeadlineExceeded) => shed[class] += 1,
                        Err(e) => panic!("unexpected serving error: {e}"),
                    }
                }
                Err(handle) => *slot = Some((class, index, handle)),
            }
        }
        std::thread::yield_now();
    }
    for class in &mut latencies {
        class.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    }
    (latencies, shed)
}

/// Runs the QoS scenario on `ring`: a saturated mixed-priority batch
/// (per-class latency percentiles, correctness-gated against the
/// sequential reference) and a deadline batch whose budget covers only
/// part of the work.
fn qos_scenario(ring: &Arc<dyn PolyRing>, n: usize, quick: bool) -> Vec<QosRow> {
    let workers = if quick { 2 } else { 4 };
    let per_class = if quick { 8 } else { 48 };
    let pool = RingExecutor::new(workers).expect("non-zero workers");

    // --- Mixed-priority leg -------------------------------------------------
    let reqs = requests(n, per_class * 3, 0x0905);
    let sequential: Vec<_> = reqs
        .iter()
        .map(|r| ring.apply(r.op(), r.a(), r.b()).expect("valid request"))
        .collect();
    // Interleave Low → Normal → High on submission: the injector (not
    // submission order) must produce the class separation.
    let classes = [Priority::Low, Priority::Normal, Priority::High];
    let t0 = Instant::now();
    let pending: Vec<Option<(usize, usize, RequestHandle)>> = reqs
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let priority = classes[i % classes.len()];
            let handle = pool
                .submit(ring, r.with_priority(priority))
                .expect("valid request");
            Some((priority as usize, i, handle))
        })
        .collect();
    let (latencies, _) = drain::<3>(pending, t0, |index, product| {
        assert_eq!(product, sequential[index], "pool must match sequential");
    });

    let mut rows: Vec<QosRow> = Priority::ALL
        .into_iter()
        .map(|priority| {
            let class = &latencies[priority as usize];
            QosRow {
                scenario: priority.to_string(),
                requests: per_class,
                completed: class.len(),
                shed: 0,
                p50_ns: percentile(class, 0.50),
                p99_ns: percentile(class, 0.99),
            }
        })
        .collect();

    // --- Deadline leg -------------------------------------------------------
    // Budget ≈ the time to serve half the batch at ideal scaling, so a
    // saturated pool must shed the stale tail instead of serving it.
    let reqs = requests(n, per_class * 3, 0xDEAD);
    let probe = Instant::now();
    ring.apply(reqs[0].op(), reqs[0].a(), reqs[0].b())
        .expect("valid request");
    let budget = probe.elapsed() * (reqs.len() as u32) / (2 * workers as u32);
    let total = reqs.len();
    let t0 = Instant::now();
    let deadline = t0 + budget;
    let pending: Vec<Option<(usize, usize, RequestHandle)>> = reqs
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let handle = pool
                .submit(ring, r.with_deadline(deadline))
                .expect("valid request");
            Some((0, i, handle))
        })
        .collect();
    let (latencies, shed) = drain::<1>(pending, t0, |_, _| {});
    rows.push(QosRow {
        scenario: "deadline".to_string(),
        requests: total,
        completed: latencies[0].len(),
        shed: shed[0],
        p50_ns: percentile(&latencies[0], 0.50),
        p99_ns: percentile(&latencies[0], 0.99),
    });
    rows
}

/// Runs the admission-control leg: an async burst through a
/// [`FrontDoor`] whose per-class queues are deliberately shallower than
/// the burst, awaited as one `join_all` under `block_on`. Admitted
/// products are bit-identity-gated against sequential execution; shed
/// requests must resolve `Error::Overloaded`; the stats must reconcile.
fn admission_scenario(
    ring: &Arc<dyn PolyRing>,
    n: usize,
    quick: bool,
) -> (Vec<AdmissionRow>, AdmissionSummary) {
    let workers = if quick { 2 } else { 4 };
    let per_class = if quick { 12 } else { 48 };
    // Shallow enough that a saturated burst sheds, deep enough that the
    // pool still serves a meaningful fraction.
    let depth = if quick { 4 } else { 16 };
    let door = FrontDoor::builder(workers)
        .queue_depth(depth)
        .build()
        .expect("non-zero workers");

    let reqs = requests(n, per_class * 3, 0xAD);
    let sequential: Vec<_> = reqs
        .iter()
        .map(|r| ring.apply(r.op(), r.a(), r.b()).expect("valid request"))
        .collect();
    let classes = [Priority::Low, Priority::Normal, Priority::High];
    let tagged: Vec<(usize, Priority)> = (0..reqs.len())
        .map(|i| (i, classes[i % classes.len()]))
        .collect();
    let futures: Vec<_> = reqs
        .into_iter()
        .zip(&tagged)
        .map(|(r, &(_, priority))| {
            door.submit(ring, r.with_priority(priority))
                .expect("valid request")
        })
        .collect();

    let mut completed = [0_usize; 3];
    for (outcome, &(index, priority)) in block_on(join_all(futures)).into_iter().zip(&tagged) {
        match outcome {
            Ok(product) => {
                assert_eq!(product, sequential[index], "admitted must match sequential");
                completed[priority as usize] += 1;
            }
            Err(Error::Overloaded { class, .. }) => {
                assert_eq!(class, priority, "shed in its own class");
            }
            Err(e) => panic!("unexpected admission outcome: {e}"),
        }
    }

    let stats = door.stats();
    assert!(
        stats.reconciles(),
        "admitted + shed must equal submitted: {stats:?}"
    );
    let rows = Priority::ALL
        .into_iter()
        .map(|priority| AdmissionRow {
            class: priority.to_string(),
            depth_limit: door.queue_depth_limit(priority),
            submitted: per_class,
            completed: completed[priority as usize],
            shed_at_submit: stats.shed_at_submit_for(priority),
            queue_high_water: stats.high_water_for(priority),
        })
        .collect();
    let summary = AdmissionSummary {
        workers,
        submitted: stats.submitted,
        admitted: stats.admitted,
        shed_at_submit: stats.shed_at_submit_total(),
        reconciled: stats.reconciles(),
    };
    (rows, summary)
}

/// Sweeps worker count × batch size at `2^12` points (`2^10`, smaller
/// batches in quick mode), runs the QoS scenario and the
/// admission-control leg, and prints the tables.
pub fn run(quick: bool) -> ServeReport {
    let log_n = if quick { 9 } else { 12 };
    let n = 1_usize << log_n;
    let worker_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let batches: &[usize] = if quick { &[16] } else { &[64, 256] };

    let concrete = Ring::auto(primes::Q124, n).expect("Q124 ring");
    let backend = concrete.backend().name().to_string();
    let ring: Arc<dyn PolyRing> = Arc::new(concrete);

    let mut rows = Vec::new();
    for &batch in batches {
        let reqs = requests(n, batch, 0x5E47);
        // Correctness gate before any timing: the pool must reproduce
        // the sequential products bit for bit.
        let sequential: Vec<_> = reqs
            .iter()
            .map(|r| ring.apply(r.op(), r.a(), r.b()).expect("valid request"))
            .collect();
        for &workers in worker_counts {
            let pool = RingExecutor::new(workers).expect("non-zero workers");
            let served = pool.serve(&ring, reqs.clone()).expect("valid batch");
            assert_eq!(served, sequential, "pool must match sequential");
            // Manual §5.1-style loop (warm-up + median of the kept
            // tail) instead of `time_ntt`: the per-call request clone —
            // a fixed serial memcpy — must stay *outside* the timed
            // region or it flattens the very scaling this sweep
            // measures. Inside the timed region the whole batch is
            // submitted before any handle is collected: a wait
            // interleaved into the submit loop parks the caller on
            // request `i` while requests `i+1..` sit unsubmitted, so
            // the pool would drain one request deep no matter how many
            // workers it has.
            let iters = if quick { 6 } else { 16 };
            let mut samples: Vec<f64> = (0..iters)
                .map(|_| {
                    let batch_reqs = reqs.clone();
                    let t0 = Instant::now();
                    let handles: Vec<RequestHandle> = batch_reqs
                        .into_iter()
                        .map(|r| pool.submit(&ring, r).expect("valid request"))
                        .collect();
                    let served: Vec<_> = handles
                        .into_iter()
                        .map(|h| h.wait().expect("served request"))
                        .collect();
                    let dt = t0.elapsed().as_nanos() as f64;
                    std::hint::black_box(served);
                    dt
                })
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let ns = samples[samples.len() / 2];
            rows.push(ServeRow {
                workers,
                batch,
                n,
                ns,
                ns_per_request: ns / batch as f64,
                requests_per_sec: batch as f64 / (ns * 1e-9),
                backend: backend.clone(),
            });
        }
    }

    let mut table = Table::new(
        &format!("serving throughput — {n}-point mixed polymul batches, shared ring"),
        &[
            "workers",
            "batch",
            "total",
            "per request",
            "req/s",
            "backend",
        ],
    );
    for r in &rows {
        table.row(&[
            r.workers.to_string(),
            r.batch.to_string(),
            fmt_ns(r.ns),
            fmt_ns(r.ns_per_request),
            format!("{:.0}", r.requests_per_sec),
            r.backend.clone(),
        ]);
    }
    table.print();

    let qos = qos_scenario(&ring, n, quick);
    let mut table = Table::new(
        "serving QoS — per-class completion latency, saturated mixed batch",
        &["scenario", "requests", "completed", "shed", "p50", "p99"],
    );
    for r in &qos {
        table.row(&[
            r.scenario.clone(),
            r.requests.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
        ]);
    }
    table.print();

    let (admission, admission_summary) = admission_scenario(&ring, n, quick);
    let mut table = Table::new(
        "admission control — async front-door burst, bounded per-class queues",
        &[
            "class",
            "depth limit",
            "submitted",
            "completed",
            "shed@submit",
            "high water",
        ],
    );
    for r in &admission {
        table.row(&[
            r.class.clone(),
            r.depth_limit.to_string(),
            r.submitted.to_string(),
            r.completed.to_string(),
            r.shed_at_submit.to_string(),
            r.queue_high_water.to_string(),
        ]);
    }
    table.print();
    println!(
        "  admission totals: {} submitted = {} admitted + {} shed (reconciled: {})\n",
        admission_summary.submitted,
        admission_summary.admitted,
        admission_summary.shed_at_submit,
        admission_summary.reconciled,
    );

    let host = HostContext {
        available_parallelism: std::thread::available_parallelism().map_or(0, |p| p.get()),
        sweep_worker_counts: worker_counts.to_vec(),
        qos_workers: if quick { 2 } else { 4 },
        admission_workers: admission_summary.workers,
    };
    let report = ServeReport {
        host,
        sweep: rows,
        qos,
        admission,
        admission_summary,
    };
    write_json("serve_throughput", &report);
    report
}
