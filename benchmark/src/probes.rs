//! The layer probes of the traced pass: every layer timed from outside,
//! by calling its public functions on the generator thread with the
//! workload's own operands, after the phases have run. Each timing is
//! the median of the calls made until the probe's time or call budget
//! is met. README.md lists what each metric should and should not move.

use crate::alloc_count::CountingAlloc;
use crate::loadgen::{PhaseStats, Trace, CLASSES};
use crate::round::{Phases, Prepared};
use crate::workload::{random_bigs, random_words, Rings};
use crate::{stats, verify};
use mqx::core::primes;
use mqx::frontdoor::{block_on, FrontDoor};
use mqx::plan_cache::CacheStats;
use mqx::simd::ResidueSoa;
use mqx::{
    Coefficients, OpGraph, Operand, PlanCache, PolyOp, PolyRing, Ring, RingOp, RingRequest, RnsRing,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Named values in the unit `BENCHMARK.json` gives the name.
pub type Metrics = Vec<(&'static str, f64)>;

/// One probe: untimed preparation inside, the duration of the layer
/// call alone returned.
type Call<'a> = Box<dyn FnMut() -> Duration + 'a>;

/// The budget of a group of probes: it stops after `min_calls` passes
/// or `min_time` a probe, whichever comes first (200 or 0.25 s at the
/// contract's run length), and never before five passes.
struct Timer {
    min_time: Duration,
    min_calls: usize,
}

impl Timer {
    fn new(probe_s: f64) -> Timer {
        Timer {
            min_time: Duration::from_secs_f64(probe_s),
            min_calls: (probe_s * 800.0) as usize,
        }
    }

    /// Medians, in seconds, of probes run round-robin — one sample of
    /// each per pass — so that all of them sample the same stretch of
    /// wall time. The host's slow spells last seconds; probes run one
    /// after the other land in different spells, and the differences
    /// and ratios the layer table is made of come out as noise. A
    /// sample is the second of two back-to-back calls: the first pulls
    /// the probe's operands back into the cache its neighbours emptied,
    /// as the transposes just before a kernel do on the serving path.
    fn medians_s(&self, calls: &mut [Call<'_>]) -> Vec<f64> {
        self.percentiles_s(50.0, calls)
    }

    /// [`medians_s`](Timer::medians_s) at another percentile.
    fn percentiles_s(&self, p: f64, calls: &mut [Call<'_>]) -> Vec<f64> {
        let start = Instant::now();
        let budget = self.min_time * calls.len() as u32;
        let mut samples = vec![Vec::new(); calls.len()];
        let mut passes = 0;
        while passes < 5 || (passes < self.min_calls && start.elapsed() < budget) {
            for (call, samples) in calls.iter_mut().zip(&mut samples) {
                call();
                samples.push(call().as_secs_f64());
            }
            passes += 1;
        }
        samples
            .iter_mut()
            .map(|samples| {
                stats::sort(samples);
                stats::percentile(samples, p)
            })
            .collect()
    }
}

/// A call too short to time one by one: the mean over a batch.
fn batched<T>(batch: u32, mut call: impl FnMut() -> T) -> impl FnMut() -> Duration {
    move || {
        timed(|| {
            for _ in 0..batch {
                black_box(call());
            }
        }) / batch
    }
}

fn timed<T>(call: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(call());
    start.elapsed()
}

fn butterflies_per_transform(n: usize) -> f64 {
    (n / 2) as f64 * f64::from(n.trailing_zeros())
}

/// One fused negacyclic polymul on `ring`'s plan and backend, operands
/// re-loaded (untimed) before every call since the kernel clobbers both.
fn fused_polymul<'a>(ring: &'a Ring, a: &'a [u128], b: &'a [u128]) -> Call<'a> {
    let n = ring.size();
    let (mut sa, mut sb, mut scratch) = (
        ResidueSoa::zeros(n),
        ResidueSoa::zeros(n),
        ResidueSoa::zeros(n),
    );
    Box::new(move || {
        sa.copy_from_u128s(a);
        sb.copy_from_u128s(b);
        timed(|| {
            ring.backend()
                .polymul_negacyclic_fused(ring.plan(), &mut sa, &mut sb, &mut scratch)
                .expect("the benchmark's rings support negacyclic products")
        })
    })
}

const POLYMUL: RingOp = RingOp::Polymul(PolyOp::Negacyclic);
const EXTEND: RingOp = RingOp::BasisExtend { extra_channels: 1 };

/// The operands of every stage of one relinearize chain, channel-major:
/// the inputs at the native width, their product, and the product in
/// the basis extended by one prime.
struct RelinChain {
    a: Vec<Vec<u128>>,
    b: Vec<Vec<u128>>,
    product: Vec<Vec<u128>>,
    extended: Vec<Vec<u128>>,
}

impl RelinChain {
    fn new(ring: &RnsRing, seed: u64) -> RelinChain {
        let k = ring.channels();
        // Submit-time width planning, which also builds the per-width
        // constants the resident ops read.
        for (op, width) in [(&EXTEND, k), (&RingOp::Rescale, k + 1)] {
            ring.op_output_channels_at(op, width)
                .expect("the relinearize chain is valid on this ring");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut operand = || {
            let coefficients = random_bigs(&mut rng, ring.size(), ring.product_modulus());
            ring.split(&Coefficients::Big(coefficients))
                .expect("coefficients below the product modulus")
        };
        let (a, b) = (operand(), operand());
        let item = |op: &RingOp, channel, a: &[Vec<u128>], b| {
            ring.channel_apply_at(op, a.len(), channel, a, b)
                .expect("a valid work item")
        };
        let product: Vec<_> = (0..k).map(|ch| item(&POLYMUL, ch, &a, Some(&b))).collect();
        let extended = (0..=k)
            .map(|ch| item(&EXTEND, ch, &product, None))
            .collect();
        RelinChain {
            a,
            b,
            product,
            extended,
        }
    }
}

/// One work item of the chain, as the executor runs it.
fn chain_item<'a>(
    ring: &'a RnsRing,
    op: RingOp,
    channel: usize,
    a: &'a [Vec<u128>],
    b: Option<&'a [Vec<u128>]>,
) -> Call<'a> {
    let mut buffer = Vec::new();
    Box::new(move || {
        timed(|| {
            ring.channel_apply_at_into(&op, a.len(), channel, a, b, &mut buffer)
                .expect("a valid work item")
        })
    })
}

/// The request's graph as the executor sees it.
fn graph_of(request: &RingRequest) -> OpGraph {
    request
        .op_graph()
        .cloned()
        .unwrap_or_else(|| OpGraph::single(*request.op()))
}

/// Every layer a request passes, timed round-robin in one group, and
/// the differences and ratios between them.
fn request_path(p: &Prepared, timer: &Timer, out: &mut Metrics) {
    let workload = p.args.workload;
    let ring = &p.served.ring;
    let kernel = p.served.rings.kernel();
    let (plan, backend, modulus, n) = (
        kernel.plan(),
        kernel.backend(),
        kernel.modulus(),
        kernel.size(),
    );
    let pool = &p.pool;
    let first = &pool[0];
    let second = first.b().expect("every workload's requests are binary");
    let (split_a, split_b) = (
        ring.split(first.a()).expect("pool operands are valid"),
        ring.split(second).expect("pool operands are valid"),
    );
    let (split_a, split_b) = (&split_a[..], &split_b[..]);
    let (a, b) = (&split_a[0][..], &split_b[0][..]);
    let response = ring
        .split(&p.expected[0])
        .expect("an expected response is a valid operand");
    // The `rns.*` probes run on the rns_relin ring in every workload's
    // run: the served ring, or one built here as a fixture.
    let built;
    let rns_ring: &RnsRing = match &p.served.rings {
        Rings::Rns(ring) => ring,
        Rings::Word(_) => {
            built = RnsRing::auto(3, 2048).expect("the rns_relin ring builds");
            &built
        }
    };
    let chain = RelinChain::new(rns_ring, p.args.seed);
    let k = rns_ring.channels();
    let executor = p.served.door.executor();
    // Depth 0 sheds every submit, on the path a full class takes.
    let shedding = FrontDoor::builder(1)
        .queue_depth(0)
        .build()
        .expect("one worker is a valid pool");
    let cache = PlanCache::new();
    cache.plan_for(modulus, n).expect("the served plan builds");
    let next_request = || {
        let mut next = 0;
        move || {
            next += 1;
            &pool[next % pool.len()]
        }
    };
    let mut group: Vec<(&str, Call<'_>)> = vec![("fused", fused_polymul(kernel, a, b))];
    {
        let (mut x, mut scratch) = (ResidueSoa::from_u128s(a), ResidueSoa::zeros(n));
        group.push((
            "forward",
            Box::new(move || timed(|| backend.forward_ntt(plan, &mut x, &mut scratch))),
        ));
        let (mut x, mut scratch) = (ResidueSoa::from_u128s(a), ResidueSoa::zeros(n));
        group.push((
            "inverse",
            Box::new(move || timed(|| backend.inverse_ntt(plan, &mut x, &mut scratch))),
        ));
        let soa = || {
            (
                ResidueSoa::from_u128s(a),
                ResidueSoa::from_u128s(b),
                ResidueSoa::zeros(n),
            )
        };
        let (x, y, mut sum) = soa();
        group.push((
            "vadd",
            Box::new(move || timed(|| backend.vadd(&x, &y, &mut sum, modulus))),
        ));
        let (x, y, mut product) = soa();
        group.push((
            "vmul",
            Box::new(move || timed(|| backend.vmul(&x, &y, &mut product, modulus))),
        ));
        let (x, mut y, _) = soa();
        group.push((
            "axpy",
            Box::new(move || timed(|| backend.axpy(a[0], &x, &mut y, modulus))),
        ));
    }
    let mut buffer = Vec::new();
    group.push((
        "polymul_into",
        Box::new(move || timed(|| kernel.polymul_negacyclic_into(a, b, &mut buffer))),
    ));
    let mut buffer = Vec::new();
    group.push((
        "add_apply",
        Box::new(move || {
            timed(|| ring.channel_apply_into(&RingOp::Add, 0, split_a, Some(split_b), &mut buffer))
        }),
    ));
    let mut request = next_request();
    group.push((
        "apply",
        Box::new(move || {
            // Cloned as the generator clones before a submit, so the
            // operands are as warm here as on the serving path.
            let request = request().clone();
            timed(|| verify::apply(&**ring, &request))
        }),
    ));
    group.push(("split", Box::new(|| timed(|| ring.split(first.a())))));
    group.push((
        "join",
        Box::new(|| {
            let parts = response.clone();
            timed(|| ring.join_at(parts.len(), parts))
        }),
    ));
    group.push((
        "rns_polymul",
        chain_item(rns_ring, POLYMUL, 0, &chain.a, Some(&chain.b)),
    ));
    group.push((
        "rns_fresh",
        chain_item(rns_ring, EXTEND, k, &chain.product, None),
    ));
    group.push((
        "rns_pass",
        chain_item(rns_ring, EXTEND, 0, &chain.product, None),
    ));
    group.push((
        "rns_rescale",
        chain_item(rns_ring, RingOp::Rescale, 0, &chain.extended, None),
    ));
    group.push((
        "graph_build",
        if first.op_graph().is_some() {
            Box::new(batched(100, || OpGraph::relinearize(PolyOp::Negacyclic, 1)))
        } else {
            Box::new(batched(100, || OpGraph::single(*first.op())))
        },
    ));
    let mut request = next_request();
    group.push((
        "executor_round_trip",
        Box::new(move || {
            let request = request().clone();
            timed(|| executor.submit(ring, request).and_then(|h| h.wait()))
        }),
    ));
    let mut request = next_request();
    group.push((
        "door_round_trip",
        Box::new(move || {
            let request = request().clone();
            timed(|| p.served.door.submit(ring, request).and_then(block_on))
        }),
    ));
    group.push((
        "shed_submit",
        Box::new(|| {
            let request = first.clone();
            timed(|| shedding.submit(ring, request))
        }),
    ));
    group.push((
        "plan_hit",
        Box::new(batched(1000, || cache.plan_for(modulus, n))),
    ));

    let (names, mut calls): (Vec<&str>, Vec<Call<'_>>) = group.into_iter().unzip();
    let medians = timer.medians_s(&mut calls);
    let s = |name: &str| {
        let index = names
            .iter()
            .position(|n| *n == name)
            .expect("a probe of the group");
        medians[index]
    };

    let per_transform = butterflies_per_transform(n);
    out.push(("backend.polymul_fused_us", s("fused") * 1e6));
    out.push((
        "backend.polymul_ns_per_butterfly",
        s("fused") * 1e9 / (3.0 * per_transform),
    ));
    out.push((
        "backend.forward_ntt_ns_per_butterfly",
        s("forward") * 1e9 / per_transform,
    ));
    out.push((
        "backend.inverse_ntt_ns_per_butterfly",
        s("inverse") * 1e9 / per_transform,
    ));
    out.push(("backend.vadd_ns_per_elem", s("vadd") * 1e9 / n as f64));
    out.push(("backend.vmul_ns_per_elem", s("vmul") * 1e9 / n as f64));
    out.push(("backend.axpy_ns_per_elem", s("axpy") * 1e9 / n as f64));
    out.push(("backend.selected_lanes", backend.lanes() as f64));

    // Where a request's time goes: its `Backend` calls, the ring-level
    // call that wraps one (the u128 ↔ SoA transposes and the scratch
    // checkout are the difference), and the whole sequential request.
    let kernel_calls = workload.kernel_calls() as f64;
    let (kernel_s, op_s) = if workload.adds() {
        (s("vadd"), s("add_apply"))
    } else {
        (s("fused"), s("polymul_into"))
    };
    out.push(("backend.kernel_share", kernel_calls * kernel_s / s("apply")));
    out.push(("ring.polymul_into_us", s("polymul_into") * 1e6));
    out.push(("ring.add_apply_us", s("add_apply") * 1e6));
    out.push(("ring.layout_us", (op_s - kernel_s) * 1e6));
    out.push(("poly.apply_us", s("apply") * 1e6));
    out.push(("poly.split_us", s("split") * 1e6));
    out.push(("poly.join_us", s("join") * 1e6));
    out.push(("rns.channel_polymul_us", s("rns_polymul") * 1e6));
    out.push(("rns.channel_extend_us", s("rns_fresh") * 1e6));
    out.push(("rns.channel_rescale_us", s("rns_rescale") * 1e6));

    // The sequential request against the sum of its independently timed
    // parts: two splits, the work items, one join.
    let items_s = if first.op_graph().is_some() {
        k as f64 * (s("rns_polymul") + s("rns_pass") + s("rns_rescale")) + s("rns_fresh")
    } else {
        op_s
    };
    let parts_s = 2.0 * s("split") + items_s + s("join");
    out.push((
        "trace.unattributed_share",
        (s("apply") - parts_s).abs() / s("apply"),
    ));

    out.push(("graph.build_us", s("graph_build") * 1e6));
    out.push(("executor.roundtrip_us", s("executor_round_trip") * 1e6));
    out.push((
        "executor.dispatch_us",
        (s("executor_round_trip") - s("apply")) * 1e6,
    ));
    out.push((
        "frontdoor.self_us",
        (s("door_round_trip") - s("executor_round_trip")) * 1e6,
    ));
    out.push(("frontdoor.shed_submit_us", s("shed_submit") * 1e6));
    out.push(("plan_cache.hit_ns", s("plan_hit") * 1e9));

    // The submitter's side of a hand-off. On a shared CPU the scheduler
    // may let the worker a submit wakes run before the call returns, and
    // the call then reads up to a whole service time: always, after this
    // thread has been computing as in the group above, so these two have
    // a group of their own in which it sleeps through every service like
    // a closed loop's generator; and now and then even so, which only
    // ever adds, so the lower quartile stands for the call itself.
    let mut door_request = next_request();
    let mut executor_request = next_request();
    let submit_s = timer.percentiles_s(
        25.0,
        &mut [
            Box::new(move || {
                let request = door_request().clone();
                let start = Instant::now();
                let handle = p.served.door.submit(ring, request);
                let elapsed = start.elapsed();
                black_box(handle.and_then(block_on)).expect("a valid request");
                elapsed
            }),
            Box::new(move || {
                let request = executor_request().clone();
                let start = Instant::now();
                let handle = executor.submit(ring, request);
                let elapsed = start.elapsed();
                black_box(handle.and_then(|h| h.wait())).expect("a valid request");
                elapsed
            }),
        ],
    );
    out.push(("frontdoor.submit_us", submit_s[0] * 1e6));
    out.push(("executor.submit_us", submit_s[1] * 1e6));
}

/// Fixtures, off the request path and timed round-robin in a group of
/// their own: the registry tiers side by side at n = 4096, a transform
/// whose working set leaves the L2, and a plan built in a fresh cache.
fn fixtures(p: &Prepared, timer: &Timer, out: &mut Metrics) {
    const TIERS: [(&str, &str); 3] = [
        ("portable", "backend.tier_portable_ns_per_butterfly"),
        ("avx2", "backend.tier_avx2_ns_per_butterfly"),
        ("avx512", "backend.tier_avx512_ns_per_butterfly"),
    ];
    const BIG: usize = 1 << 16;
    let mut rng = StdRng::seed_from_u64(p.args.seed);
    let (a, b) = (
        random_words(&mut rng, 4096, primes::Q124),
        random_words(&mut rng, 4096, primes::Q124),
    );
    // A tier this CPU does not have builds no ring and reports 0.
    let tiers: Vec<(&str, Ring)> = TIERS
        .iter()
        .filter_map(|(tier, name)| {
            let ring = Ring::builder(primes::Q124, 4096).backend_name(tier).build();
            Some((*name, ring.ok()?))
        })
        .collect();
    let big = Ring::auto(primes::Q124, BIG).expect("Q124 has a 2^16-th root of unity");
    let mut x = ResidueSoa::from_u128s(&random_words(&mut rng, BIG, primes::Q124));
    let kernel = p.served.rings.kernel();

    let mut calls: Vec<Call<'_>> = tiers
        .iter()
        .map(|(_, ring)| fused_polymul(ring, &a, &b))
        .collect();
    calls.push(Box::new(|| timed(|| big.forward(&mut x))));
    calls.push(Box::new(|| {
        timed(|| PlanCache::new().plan_for(kernel.modulus(), kernel.size()))
    }));
    let medians = timer.medians_s(&mut calls);

    for (_, name) in TIERS {
        let measured = tiers.iter().position(|(tier_name, _)| *tier_name == name);
        let value = measured.map_or(0.0, |i| {
            medians[i] * 1e9 / (3.0 * butterflies_per_transform(4096))
        });
        out.push((name, value));
    }
    out.push((
        "ntt.forward_n65536_ns_per_butterfly",
        medians[tiers.len()] * 1e9 / butterflies_per_transform(BIG),
    ));
    out.push(("plan_cache.build_us", medians[tiers.len() + 1] * 1e6));
}

/// Counted or computed, not timed: the request's graph on the served
/// ring, and the butterflies and bytes its kernels work through.
fn request_counts(p: &Prepared, out: &mut Metrics) {
    let workload = p.args.workload;
    let graph = graph_of(&p.pool[0]);
    let mut widths: Vec<usize> = Vec::new();
    for node in graph.nodes() {
        let input = match node.operands()[0] {
            Operand::Input(_) => p.served.ring.channels(),
            Operand::Node(j) => widths[j],
        };
        widths.push(
            p.served
                .ring
                .op_output_channels_at(node.op(), input)
                .expect("the served ring executes its workload's graph"),
        );
    }
    out.push(("graph.nodes_per_request", graph.len() as f64));
    out.push((
        "graph.work_items_per_request",
        widths.iter().sum::<usize>() as f64,
    ));

    // Every NTT stage streams the n-residue buffer (16 B a residue) in
    // and out; the pointwise product and the vector add touch three
    // buffers. Cache misses are not in this figure.
    let n = workload.n();
    let buffer_bytes = 16.0 * n as f64;
    let (butterflies, bytes) = if workload.adds() {
        (0.0, 3.0 * buffer_bytes)
    } else {
        let polymuls = workload.kernel_calls() as f64;
        let stages = 3.0 * f64::from(n.trailing_zeros());
        (
            polymuls * 3.0 * butterflies_per_transform(n),
            polymuls * (stages * 2.0 * buffer_bytes + 3.0 * buffer_bytes),
        )
    };
    out.push(("backend.butterflies_per_request", butterflies));
    out.push(("backend.bytes_per_request_computed", bytes));
}

/// Allocations of one request through the front door with nothing else
/// in flight, so the counts repeat exactly: every thread's from submit
/// to response in hand, and the submitting thread's inside `submit`.
fn alloc_layer(p: &Prepared, alloc: &CountingAlloc, out: &mut Metrics) {
    const REQUESTS: usize = 32;
    let (mut calls, mut bytes, mut submit_calls) = (0, 0, 0);
    for i in 0..REQUESTS {
        let request = p.pool[i % p.pool.len()].clone();
        alloc.set_enabled(true);
        let (all, mine) = (alloc.all_threads(), alloc.this_thread());
        let handle = p.served.door.submit(&p.served.ring, request);
        submit_calls += alloc.this_thread().since(mine).calls;
        let response = handle.and_then(block_on);
        let spent = alloc.all_threads().since(all);
        alloc.set_enabled(false);
        response.expect("a valid request");
        calls += spent.calls;
        bytes += spent.bytes;
    }
    let per_request = |total: u64| total as f64 / REQUESTS as f64;
    out.push(("alloc.calls_per_request", per_request(calls)));
    out.push(("alloc.bytes_per_request", per_request(bytes)));
    out.push(("alloc.submit_calls_per_request", per_request(submit_calls)));
}

/// What the traced phases themselves counted: queueing, classes under
/// overload, the front door's books, the generator's own footprint.
fn phase_metrics(phases: &Phases, traces: &[Trace; 2], p: &Prepared, out: &mut Metrics) {
    let (t, l): (&PhaseStats, &PhaseStats) = (&phases.saturating, &phases.light);
    out.push(("executor.queue_depth_max", traces[0].queue_depth_max as f64));
    for (class, name) in [
        "executor.class_high_served_share",
        "executor.class_normal_served_share",
        "executor.class_low_served_share",
    ]
    .into_iter()
    .enumerate()
    {
        // A class that sent nothing had nothing refused.
        let share = match t.class_attempted[class] {
            0 => 1.0,
            attempted => t.class_served[class] as f64 / attempted as f64,
        };
        out.push((name, share));
    }
    let top = (0..CLASSES)
        .find(|&class| t.class_attempted[class] > 0)
        .unwrap_or(0);
    let top_latency = &t.class_latency_ns[top];
    out.push((
        "executor.top_class_p50_ms",
        stats::median_ns(top_latency, 1e6),
    ));
    out.push((
        "executor.top_class_p99_ms",
        stats::percentile_ns(top_latency, 99.0, 1e6),
    ));

    let books = p.served.door.stats();
    out.push(("frontdoor.admitted", books.admitted as f64));
    out.push((
        "frontdoor.shed_at_submit",
        books.shed_at_submit_total() as f64,
    ));
    out.push(("frontdoor.shed_at_deadline", books.shed_at_deadline as f64));
    out.push((
        "frontdoor.queue_high_water",
        books.queue_high_water.iter().copied().max().unwrap_or(0) as f64,
    ));
    out.push((
        "frontdoor.reconciles",
        f64::from(u8::from(books.reconciles())),
    ));
    out.push((
        "frontdoor.latency_p99_ms",
        stats::percentile_ns(&l.latency_ns(), 99.0, 1e6),
    ));
    out.push((
        "frontdoor.latency_sat_p50_ms",
        stats::median_ns(&t.latency_ns(), 1e6),
    ));

    out.push((
        "loadgen.late_p99_ms",
        stats::percentile_ns(&l.late_ns, 99.0, 1e6),
    ));
    out.push(("loadgen.samples_t", t.served() as f64));
    out.push(("loadgen.samples_l", l.served() as f64));
    let clones = [&traces[0].clone_ns[..], &traces[1].clone_ns[..]].concat();
    out.push(("loadgen.clone_us", stats::median_ns(&clones, 1e3)));
    out.push((
        "trace.overhead_share",
        phases.tracing_overhead.unwrap_or(0.0),
    ));
}

/// Runs every probe. `in_run` is the process-wide plan cache's counters
/// before the warm-up and after the light phase.
pub fn run(
    p: &Prepared,
    phases: &Phases,
    traces: &[Trace; 2],
    in_run: (CacheStats, CacheStats),
    alloc: &CountingAlloc,
) -> Metrics {
    let mut out = Metrics::new();
    // The front door's books first: the probes below submit more.
    phase_metrics(phases, traces, p, &mut out);
    let (before, after) = in_run;
    out.push((
        "plan_cache.misses_in_run",
        (after.misses - before.misses) as f64,
    ));
    out.push(("plan_cache.hits_in_run", (after.hits - before.hits) as f64));
    out.push(("backend.calibration_ms", p.calibration_ms));
    request_counts(p, &mut out);

    let timer = Timer::new(p.args.lengths.probe);
    request_path(p, &timer, &mut out);
    fixtures(p, &timer, &mut out);
    alloc_layer(p, alloc, &mut out);
    out
}
