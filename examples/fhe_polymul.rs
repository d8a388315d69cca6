//! An FHE-flavoured workload: the polynomial arithmetic inside one
//! RLWE-style "ciphertext multiplication", end to end, over a sharded
//! multi-modulus [`RnsRing`].
//!
//! FHE schemes represent ciphertexts as pairs of polynomials in
//! ℤ_Q[x]/(xⁿ+1) where the ciphertext modulus Q is far wider than a
//! machine word. Production libraries never compute modulo the wide Q
//! directly: they shard it into word-sized coprime RNS channels (the
//! "double-CRT" representation) and run one NTT per channel — exactly
//! what [`RnsRing`] does, with every channel dispatched through the
//! runtime backend registry; a [`RingExecutor`] runs the channels as
//! separate work items.
//!
//! ```sh
//! cargo run --release --example fhe_polymul
//! ```

use mqx::bignum::BigUint;
use mqx::{
    plan_cache, Coefficients, OpGraph, Operand, PolyOp, PolyRing, RingExecutor, RingOp,
    RingRequest, RnsRing,
};
use std::sync::Arc;
use std::time::Instant;

/// A toy RLWE "ciphertext": two polynomials (c0, c1) with big-integer
/// coefficients reduced below the product modulus Q.
struct Ciphertext {
    c0: Coefficients,
    c1: Coefficients,
}

/// The big-integer coefficients an [`RnsRing`] consumes and returns.
fn bigs(c: &Coefficients) -> &[BigUint] {
    c.as_bigs()
        .expect("an RnsRing's coefficients are big integers")
}

fn random_poly(n: usize, q: &BigUint, seed: &mut u64) -> Vec<BigUint> {
    (0..n)
        .map(|_| {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            // Two xorshift words give ~128 random bits; reduce mod Q.
            let hi = *seed;
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            let wide = (u128::from(hi) << 64) | u128::from(*seed);
            // mul_mod spreads the ~128 random bits across q's full
            // width and returns a value already reduced below q.
            BigUint::from(wide).mul_mod(&BigUint::from(wide), q)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4096;

    // Three generated 62-bit NTT primes: a 186-bit product modulus, far
    // beyond both the machine word and the 124-bit single-prime ceiling.
    let t_build = Instant::now();
    let ring = RnsRing::auto(3, n)?;
    let built_in = t_build.elapsed();
    assert!(ring.supports_negacyclic());
    println!(
        "RnsRing: n = {n}, Q = {} bits over {} channels, backends = {:?} (built in {built_in:?})",
        ring.product_modulus().bits(),
        ring.channels(),
        ring.backend_names(),
    );
    for (i, &q) in ring.moduli().iter().enumerate() {
        println!("  channel {i}: q = {q} ({} bits)", 128 - q.leading_zeros());
    }

    let q = ring.product_modulus().clone();
    let mut seed = 0x5EED_CAFE_u64;
    let ct_a = Ciphertext {
        c0: random_poly(n, &q, &mut seed).into(),
        c1: random_poly(n, &q, &mut seed).into(),
    };
    let ct_b = Ciphertext {
        c0: random_poly(n, &q, &mut seed).into(),
        c1: random_poly(n, &q, &mut seed).into(),
    };

    // Tensor product of two degree-1 ciphertexts: (d0, d1, d2) =
    // (a0·b0, a0·b1 + a1·b0, a1·b1) — four negacyclic products, each
    // sharded across the residue channels, plus one coefficient-wise
    // addition modulo Q.
    let nega = RingOp::Polymul(PolyOp::Negacyclic);
    let t0 = Instant::now();
    let d0 = ring.apply(&nega, &ct_a.c0, Some(&ct_b.c0))?;
    let a0b1 = ring.apply(&nega, &ct_a.c0, Some(&ct_b.c1))?;
    let a1b0 = ring.apply(&nega, &ct_a.c1, Some(&ct_b.c0))?;
    let d1 = ring.apply(&RingOp::Add, &a0b1, Some(&a1b0))?;
    let d2 = ring.apply(&nega, &ct_a.c1, Some(&ct_b.c1))?;
    let elapsed = t0.elapsed();

    println!(
        "\nciphertext tensor at n = {n} over the {}-bit modulus: {elapsed:?}",
        q.bits()
    );
    println!("  d0[0] = {}", bigs(&d0)[0]);
    println!("  d1[0] = {}", bigs(&d1)[0]);
    println!("  d2[0] = {}", bigs(&d2)[0]);

    // --- Ciphertext pipeline: polymul → rescale → add ------------------
    // After a multiplication the ciphertext's scale has grown by one
    // level; schemes drop the last RNS channel with a divide-and-round
    // correction (`Rescale`) and keep computing over the reduced basis.
    //
    // Op-at-a-time, every `apply` splits its operands into residues and
    // CRT-joins the result back to big integers — three joins for this
    // chain — and after the rescale the caller must open a ring over
    // the reduced basis by hand to keep the add width-correct.
    let t0 = Instant::now();
    let product = ring.apply(&nega, &ct_a.c0, Some(&ct_b.c0))?;
    let rescaled = ring.apply(&RingOp::Rescale, &product, None)?;
    let reduced = RnsRing::builder(n)
        .moduli(&ring.moduli()[..ring.channels() - 1])
        .build()?;
    let combined = reduced.apply(&RingOp::Add, &rescaled, Some(&rescaled))?;
    let chain_elapsed = t0.elapsed();
    assert_eq!(product, d0);
    let q_last = *ring.moduli().last().expect("non-empty basis");
    println!(
        "\npipeline polymul → rescale → add at n = {n}: {chain_elapsed:?} \
         (rescale dropped q = {q_last}, {} → {} channels; 3 CRT joins)",
        ring.channels(),
        ring.channels() - 1
    );
    // Rescale is divide-and-round in residue arithmetic: pin the first
    // coefficient against the big-integer definition.
    let (expected, _) =
        (&bigs(&d0)[0] + &BigUint::from(q_last / 2)).div_rem(&BigUint::from(q_last));
    if let Coefficients::Big(rescaled) = &rescaled {
        assert_eq!(rescaled[0], expected);
        println!(
            "  round(d0[0]/q_last) = {} (residue-domain ≡ big-integer)",
            rescaled[0]
        );
    }

    // The same chain as ONE submitted request. An `OpGraph` carries the
    // dependency structure — polymul feeding a rescale feeding an add of
    // the rescaled value with itself — so the executor keeps residues
    // resident between nodes, tracks the basis width across the rescale
    // automatically, and recombines exactly once at the graph output:
    // one CRT join instead of three, and no hand-built reduced ring.
    let graph = {
        let mut b = OpGraph::builder(2);
        let prod = b.polymul(PolyOp::Negacyclic, Operand::Input(0), Operand::Input(1))?;
        let scaled = b.rescale(prod)?;
        let out = b.add(scaled, scaled)?;
        b.build(out)?
    };
    let pool = RingExecutor::new(ring.channels())?;
    let dyn_ring: Arc<dyn PolyRing> = Arc::new(RnsRing::builder(n).moduli(ring.moduli()).build()?);
    let t0 = Instant::now();
    let graphed = pool
        .submit(
            &dyn_ring,
            RingRequest::graph(graph, vec![ct_a.c0.clone(), ct_b.c0.clone()]),
        )?
        .wait()?;
    let graph_elapsed = t0.elapsed();
    assert_eq!(graphed, combined, "graph request ≡ op-at-a-time chain");
    println!(
        "op graph (1 join) vs op-at-a-time (3 joins): {graph_elapsed:?} vs \
         {chain_elapsed:?} ({:.2}x) — same bits",
        chain_elapsed.as_secs_f64() / graph_elapsed.as_secs_f64()
    );
    if let Coefficients::Big(graphed) = &graphed {
        println!("  (rescaled + rescaled)[0] = {}", graphed[0]);
    }

    // Cross-check one product against the O(n²) schoolbook over the
    // product modulus on a smaller instance (no NTT code shared).
    let small = 256;
    let small_ring = RnsRing::builder(small).moduli(ring.moduli()).build()?;
    let f = &bigs(&ct_a.c0)[..small];
    let g = &bigs(&ct_b.c0)[..small];
    let fast = small_ring.apply(&nega, &f.to_vec().into(), Some(&g.to_vec().into()))?;
    let slow = mqx::ntt::polymul::schoolbook_negacyclic_big(f, g, &q);
    assert_eq!(bigs(&fast), slow);
    println!("\nsharded product ≡ big-integer schoolbook at n = {small}: ok");

    // The residue-domain view: an FHE runtime keeps operands
    // decomposed and only recombines at the boundary.
    let residues = ring.split(&ct_a.c0)?;
    println!(
        "residue decomposition: {} channels × {} word-sized residues",
        residues.len(),
        residues[0].len()
    );
    assert_eq!(ring.join_at(ring.channels(), residues)?, ct_a.c0);

    // The plan cache paid the O(n log n) table build once per distinct
    // (channel modulus, n); opening another ring over the same geometry
    // — a server doing it per request — rebuilds nothing.
    let _per_request = RnsRing::builder(n).moduli(ring.moduli()).build()?;
    let stats = plan_cache::global().stats();
    println!(
        "plan cache: {} plans built, {} served from cache (per-request reopen was free)",
        stats.misses, stats.hits
    );

    Ok(())
}
