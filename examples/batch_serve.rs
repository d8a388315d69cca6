//! Batch serving: build one ring, share it, and drive a queue of
//! polymul requests through the work-stealing [`RingExecutor`] — the
//! serving loop a polymul-as-a-service front end runs.
//!
//! The paper's throughput thesis is that CPUs close the gap to
//! specialized hardware by keeping vector units busy across many
//! independent NTTs; a server gets those independent NTTs for free by
//! batching requests. Rings are immutable `&self` handles here, so one
//! plan and one twiddle set serve every worker.
//!
//! ```sh
//! cargo run --release --example batch_serve            # defaults
//! cargo run --release --example batch_serve 8 512      # workers, batch
//! ```

use mqx::bignum::BigUint;
use mqx::core::primes;
use mqx::frontdoor::{block_on, join_all};
use mqx::{
    Coefficients, Error, PolyOp, PolyRing, Priority, Ring, RingExecutor, RingRequest, RnsRing,
    DEFAULT_QUEUE_DEPTH,
};
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

/// Submits a whole batch, then awaits every handle in one `block_on`:
/// the products in submission order, or the first error.
fn serve_batch(
    pool: &RingExecutor,
    ring: &Arc<dyn PolyRing>,
    requests: Vec<RingRequest>,
) -> Result<Vec<Coefficients>, Error> {
    let handles = requests
        .into_iter()
        .map(|request| pool.submit(ring, request))
        .collect::<Result<Vec<_>, _>>()?;
    block_on(join_all(handles)).into_iter().collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let workers: usize = args.get(1).map_or(4, |s| s.parse().expect("workers"));
    let batch: usize = args.get(2).map_or(256, |s| s.parse().expect("batch size"));
    let n = 1024;

    // One shared ring: a single plan + twiddle set behind an Arc, with
    // per-call scratch pooled internally. No per-worker clones.
    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, n)?);
    // Deep enough that the whole batch is admitted, not shed.
    let pool = RingExecutor::builder(workers)
        .queue_depth(batch.max(DEFAULT_QUEUE_DEPTH))
        .build()?;
    println!(
        "serving {batch} mixed cyclic/negacyclic requests (n = {n}, q = {} bits) \
         on {workers} workers",
        ring.modulus_bits()
    );

    let mut seed = 0xB47C_5EED_u64;
    let requests: Vec<RingRequest> = (0..batch)
        .map(|i| {
            let op = if i % 2 == 0 {
                PolyOp::Negacyclic
            } else {
                PolyOp::Cyclic
            };
            let a = random_words(n, primes::Q124, &mut seed);
            let b = random_words(n, primes::Q124, &mut seed);
            RingRequest::polymul(op, a.into(), b.into())
        })
        .collect();

    // Sequential reference for both the speedup figure and correctness.
    let t0 = Instant::now();
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| ring.apply(r.op(), r.a(), r.b()).expect("valid request"))
        .collect();
    let seq_elapsed = t0.elapsed();

    let t0 = Instant::now();
    let served = serve_batch(&pool, &ring, requests)?;
    let pool_elapsed = t0.elapsed();

    assert_eq!(served, sequential, "bit-identical to sequential");
    println!(
        "sequential: {seq_elapsed:?}  |  pool({workers}): {pool_elapsed:?}  \
         ({:.0} req/s, results bit-identical)",
        batch as f64 / pool_elapsed.as_secs_f64()
    );

    // The same executor serves a multi-modulus ring: each request fans
    // into one work item per residue channel, and the CRT join runs on
    // whichever worker finishes last.
    // Three 62-bit NTT primes: a 186-bit product modulus.
    let wide: Arc<dyn PolyRing> = Arc::new(RnsRing::auto(3, n)?);
    let q = BigUint::one() << 185_u64; // keep operands comfortably reduced
    let wide_batch: usize = 16;
    let wide_requests: Vec<RingRequest> = (0..wide_batch as u64)
        .map(|i| {
            let a: Vec<BigUint> = (0..n as u64)
                .map(|j| &BigUint::from(j * 31 + i + 1) % &q)
                .collect();
            let b: Vec<BigUint> = (0..n as u64)
                .map(|j| &BigUint::from(j * 17 + i + 3) % &q)
                .collect();
            RingRequest::polymul(PolyOp::Negacyclic, a.into(), b.into())
        })
        .collect();
    let t0 = Instant::now();
    let wide_out = serve_batch(&pool, &wide, wide_requests)?;
    println!(
        "RNS ring ({} bits over {} channels): {wide_batch} requests → {} work items in {:?}",
        wide.modulus_bits(),
        wide.channels(),
        wide_batch * wide.channels(),
        t0.elapsed()
    );
    assert_eq!(wide_out.len(), wide_batch);

    // QoS: the serving layer a multi-tenant front end needs. Bulk work
    // rides the Low class, interactive requests overtake it via High,
    // stale requests are shed at their deadline instead of burning
    // workers, and cancellation discards queued work cooperatively.
    let a = random_words(n, primes::Q124, &mut seed);
    let b = random_words(n, primes::Q124, &mut seed);
    let bulk: Vec<_> = (0..32)
        .map(|_| {
            pool.submit(
                &ring,
                RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), b.clone().into())
                    .with_priority(Priority::Low),
            )
        })
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let urgent = pool.submit(
        &ring,
        RingRequest::polymul(PolyOp::Negacyclic, a.clone().into(), b.clone().into())
            .with_priority(Priority::High),
    )?;
    let product = urgent.wait()?;
    println!(
        "QoS: High-priority request overtook 32 queued Low requests in {:?} \
         (n = {}, product len {})",
        t0.elapsed(),
        n,
        product.len()
    );

    // Already past its deadline: resolved at submit, zero channels run.
    let stale = pool.submit(
        &ring,
        RingRequest::polymul(PolyOp::Cyclic, a.clone().into(), b.clone().into())
            .with_deadline(Instant::now()),
    )?;
    assert!(matches!(stale.wait(), Err(Error::DeadlineExceeded)));

    // Cancel one queued bulk request; the rest complete normally.
    let mut bulk = bulk;
    let doomed = bulk.pop().expect("queued bulk work");
    doomed.cancel();
    let cancelled = matches!(doomed.wait(), Err(Error::Cancelled));
    let mut served = 0;
    for handle in bulk {
        handle.wait()?;
        served += 1;
    }
    println!(
        "QoS: stale request shed at its deadline; cancel {} \
         ({served} bulk requests still served)",
        if cancelled {
            "discarded the queued request"
        } else {
            "arrived after completion (no-op)"
        }
    );

    // The other completion style: the same handles awaited as futures.
    // One `block_on` collects the whole batch via `join_all` — no
    // thread parked per request — and the pool's stats reconcile every
    // admission decision made above and here.
    let async_batch = batch.min(64);
    let futures: Vec<_> = (0..async_batch)
        .map(|i| {
            let op = if i % 2 == 0 {
                PolyOp::Negacyclic
            } else {
                PolyOp::Cyclic
            };
            let a = random_words(n, primes::Q124, &mut seed);
            let b = random_words(n, primes::Q124, &mut seed);
            pool.submit(&ring, RingRequest::polymul(op, a.into(), b.into()))
        })
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let mut ok = 0_usize;
    for outcome in block_on(join_all(futures)) {
        match outcome {
            Ok(product) => {
                assert_eq!(product.len(), n);
                ok += 1;
            }
            Err(Error::Overloaded { class, depth }) => {
                println!("async: shed at submit ({class} class at depth {depth})");
            }
            Err(e) => return Err(e.into()),
        }
    }
    let stats = pool.stats();
    assert!(stats.reconciles(), "admitted + shed == submitted");
    println!(
        "async: awaited {ok}/{async_batch} futures in {:?} \
         (pool admitted {} / shed {}, books reconcile)",
        t0.elapsed(),
        stats.admitted,
        stats.shed_at_submit_total(),
    );

    Ok(())
}
