//! Async serving: `Future`-based completion, bounded admission with
//! load shedding, and the reconciling `AdmissionStats` — the request
//! path a polymul-as-a-service front end actually runs.
//!
//! Where `batch_serve` mostly waits on handles, this example awaits the
//! same [`RequestHandle`](mqx::RequestHandle)s as futures (no thread
//! parked per request). The [`RingExecutor`] bounds each priority class:
//! a class at its queue-depth limit sheds with `Error::Overloaded`
//! instead of queueing without bound, and the caller decides when to
//! retry. Std wakers only —
//! `frontdoor::block_on` is the minimal in-tree runtime; any
//! waker-driven runtime drives the same futures.
//!
//! ```sh
//! cargo run --release --example async_serve            # defaults
//! cargo run --release --example async_serve 4 128      # workers, burst
//! ```

use mqx::core::primes;
use mqx::frontdoor::{block_on, join_all};
use mqx::{Error, PolyOp, PolyRing, Priority, Ring, RingExecutor, RingRequest};
use std::sync::Arc;
use std::time::Instant;

fn random_words(n: usize, q: u128, seed: &mut u64) -> Vec<u128> {
    (0..n)
        .map(|_| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            u128::from(*seed) % q
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let workers: usize = args.get(1).map_or(2, |s| s.parse().expect("workers"));
    let burst: usize = args.get(2).map_or(64, |s| s.parse().expect("burst size"));
    let n = 1024;
    let mut seed = 0xA515_5EED_u64;

    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, n)?);
    let mut request = |op: PolyOp| {
        let a = random_words(n, primes::Q124, &mut seed);
        let b = random_words(n, primes::Q124, &mut seed);
        RingRequest::polymul(op, a.into(), b.into())
    };

    // --- Leg 1: async batch, generous limits ---------------------------------
    // Every submit returns a handle that is a future; one block_on of a
    // join_all awaits the whole burst. Wakers fire once at outcome
    // publication — the caller never polls busily and never parks a
    // thread per request.
    let pool = RingExecutor::builder(workers)
        .queue_depth(burst.max(1))
        .build()?;
    println!("async burst: {burst} requests (n = {n}) on {workers} workers");
    let futures: Vec<_> = (0..burst)
        .map(|i| {
            let op = if i % 2 == 0 {
                PolyOp::Negacyclic
            } else {
                PolyOp::Cyclic
            };
            pool.submit(&ring, request(op))
        })
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let products = block_on(join_all(futures));
    let elapsed = t0.elapsed();
    let ok = products.iter().filter(|p| p.is_ok()).count();
    println!(
        "  awaited {ok}/{burst} products in {elapsed:?} ({:.0} req/s)",
        burst as f64 / elapsed.as_secs_f64()
    );

    // --- Leg 2: overload sheds instead of queueing ---------------------------
    // A deliberately tight depth limit: once the Low queue is at depth,
    // further submits resolve immediately with Error::Overloaded —
    // zero channels executed, the caller never blocked.
    let tight = RingExecutor::builder(workers).queue_depth(2).build()?;
    let futures: Vec<_> = (0..12)
        .map(|_| tight.submit(&ring, request(PolyOp::Cyclic).with_priority(Priority::Low)))
        .collect::<Result<_, _>>()?;
    let mut served = 0_usize;
    let mut shed = 0_usize;
    for outcome in block_on(join_all(futures)) {
        match outcome {
            Ok(_) => served += 1,
            Err(Error::Overloaded { class, depth }) => {
                assert_eq!(class, Priority::Low);
                assert_eq!(depth, 2);
                shed += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    println!(
        "overload: Low class limited to depth 2 → {served} served, {shed} shed \
         with Error::Overloaded (resolved at submit, zero channels run)"
    );

    // --- Stats: the books always balance -------------------------------------
    let stats = tight.stats();
    assert!(stats.reconciles(), "admitted + shed == submitted");
    println!(
        "stats: submitted {} = admitted {} + shed-at-submit {}; \
         shed-at-deadline {}, cancelled {}, Low high-water {}/{}",
        stats.submitted,
        stats.admitted,
        stats.shed_at_submit_total(),
        stats.shed_at_deadline,
        stats.cancelled,
        stats.high_water_for(Priority::Low),
        tight.queue_depth_limit(),
    );

    Ok(())
}
