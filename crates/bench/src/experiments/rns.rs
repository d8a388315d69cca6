//! RNS channel-count scaling (extension beyond the paper's single-prime
//! scope): the sharded `RnsRing` emulates a modulus of `k × 62` bits as
//! `k` word-sized residue channels, so this sweep measures how the
//! negacyclic polynomial product scales as the emulated modulus widens
//! from 1 to 8 channels (62 → 496 bits).
//!
//! A direct `RnsRing` call runs its channels one after another on the
//! calling thread (a `RingExecutor` is what spreads them over workers),
//! so the total grows with `k` and the headline question is how far the
//! per-channel cost `ns / k` stays flat — the CRT boundary work
//! (decompose / recombine the big-integer coefficients, Garner's
//! recombination quadratic in `k`) is what bends it.
//!
//! The wide-vs-RNS row asks the paper's own question (§3.2, §5) of the
//! served kernels: one 124-bit modulus on the two-limb fused polymul
//! against the two word-sized channels that span about the same width,
//! each on the one-limb fused polymul, at the same `n` — channel
//! kernels only, no CRT. Its boundary column times the CRT around the
//! channels on `RnsRing::auto(3, 2048)` (split, the fresh channel of a
//! basis extension, a rescale channel, join) in ns per coefficient, and
//! gates the boundary kernel (`mqx::blas::lincomb`): one 64-bit limb per
//! lane must beat two limbs on the same 62-bit prime by
//! [`BOUNDARY_ONE_LIMB_MIN_SPEEDUP`].

use crate::report::{fmt_ns, write_json, Table};
use crate::timing::time_ntt;
use mqx::bignum::BigUint;
use mqx::blas::{lincomb, LinComb};
use mqx::core::{primes, Modulus, ShoupMul};
use mqx::simd::{OneLimb, Portable, SimdEngine, TwoLimbs};
use mqx::{plan_cache, Coefficients, PolyOp, PolyRing, Ring, RingOp, RnsRing};
use mqx_json::impl_to_json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One channel-count point of the sweep.
#[derive(Clone, Debug)]
pub struct RnsRow {
    /// Residue channel count `k`.
    pub channels: usize,
    /// Width of the emulated product modulus `Q = ∏ q_i`, in bits.
    pub modulus_bits: u64,
    /// Negacyclic polymul time over the full basis, ns.
    pub ns: f64,
    /// `ns / k` — flat means the channels scale.
    pub ns_per_channel: f64,
    /// The backend each channel dispatched to (registry name).
    pub backend: String,
}

impl_to_json!(RnsRow {
    channels,
    modulus_bits,
    ns,
    ns_per_channel,
    backend,
});

/// One `Q124` negacyclic polymul against a two-channel 62-bit RNS
/// ring's channel polymuls at the same `n`, both on the served fused
/// kernels of the auto-selected backend.
#[derive(Clone, Debug)]
pub struct WideVsRnsRow {
    /// Transform size.
    pub n: usize,
    /// Bits of the one wide modulus (`Q124`).
    pub wide_modulus_bits: u32,
    /// One negacyclic polymul on the `Q124` ring, ns.
    pub wide_ns: f64,
    /// Residue channels of the RNS ring.
    pub channels: usize,
    /// Bits of the RNS ring's product modulus.
    pub rns_modulus_bits: u64,
    /// Every channel's negacyclic polymul, one after another, ns (the
    /// CRT split and join excluded).
    pub rns_channels_ns: f64,
    /// `wide_ns / rns_channels_ns` — above 1.0 means the word-sized
    /// channels cover the width for less.
    pub wide_over_rns: f64,
    /// The backend both rings dispatched to (registry name).
    pub backend: String,
    /// The CRT boundary around the channels, per coefficient.
    pub boundary: BoundaryRow,
}

impl_to_json!(WideVsRnsRow {
    n,
    wide_modulus_bits,
    wide_ns,
    channels,
    rns_modulus_bits,
    rns_channels_ns,
    wide_over_rns,
    backend,
    boundary,
});

/// The boundary kernel at one limb per lane must be at least this many
/// times faster than at two limbs on the same 62-bit prime: a ratio near
/// 1 means the boundary fell back to two-limb arithmetic.
pub const BOUNDARY_ONE_LIMB_MIN_SPEEDUP: f64 = 1.5;

/// The CRT boundary of `RnsRing::auto(channels, n)` on the served
/// backend, in ns per coefficient, and the boundary kernel at both lane
/// widths on the widest detected engine.
#[derive(Clone, Debug)]
pub struct BoundaryRow {
    /// Transform size.
    pub n: usize,
    /// Residue channels.
    pub channels: usize,
    /// The backend the ring dispatched to (registry name).
    pub backend: String,
    /// CRT decomposition of one operand.
    pub split_ns_per_coeff: f64,
    /// The fresh channel of a one-channel basis extension.
    pub extend_ns_per_coeff: f64,
    /// One surviving channel of a rescale.
    pub rescale_ns_per_coeff: f64,
    /// Garner recombination into `BigUint` coefficients.
    pub join_ns_per_coeff: f64,
    /// Engine the kernel rows ran on.
    pub kernel_engine: String,
    /// A three-row `lincomb` on the first channel prime, one limb per
    /// lane, ns per coefficient.
    pub one_limb_kernel_ns_per_coeff: f64,
    /// The same call at two limbs per lane.
    pub two_limb_kernel_ns_per_coeff: f64,
    /// `two_limb / one_limb`.
    pub kernel_speedup: f64,
    /// Whether the speedup is below [`BOUNDARY_ONE_LIMB_MIN_SPEEDUP`]
    /// (a result the `rns` bin turns into a non-zero exit).
    pub regression: bool,
}

impl_to_json!(BoundaryRow {
    n,
    channels,
    backend,
    split_ns_per_coeff,
    extend_ns_per_coeff,
    rescale_ns_per_coeff,
    join_ns_per_coeff,
    kernel_engine,
    one_limb_kernel_ns_per_coeff,
    two_limb_kernel_ns_per_coeff,
    kernel_speedup,
    regression,
});

/// The RNS experiment's results.
#[derive(Clone, Debug)]
pub struct RnsReport {
    /// The channel-count sweep.
    pub scaling: Vec<RnsRow>,
    /// One wide modulus against word-sized channels.
    pub wide_vs_rns: WideVsRnsRow,
}

/// Sweeps 1–8 channels (1, 2, 4 in quick mode) at `2^12` points
/// (`2^10` in quick mode), then times the wide-vs-RNS row at the same
/// size.
pub fn run(quick: bool) -> RnsReport {
    let log_n = if quick { 10 } else { 12 };
    let n = 1_usize << log_n;
    let ks: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        (1..=8).collect()
    };

    let cache_before = plan_cache::global().stats();
    let mut rows = Vec::new();
    for &k in &ks {
        let ring = RnsRing::auto(k, n).expect("62-bit prime chain exists");
        let mut rng = StdRng::seed_from_u64(0x8A515 + k as u64);
        let coeffs = |rng: &mut StdRng| -> Coefficients {
            (0..n)
                .map(|_| BigUint::random_below(rng, ring.product_modulus()))
                .collect::<Vec<_>>()
                .into()
        };
        let a = coeffs(&mut rng);
        let b = coeffs(&mut rng);
        let backend = ring.backend_names()[0].to_string();
        let modulus_bits = ring.product_modulus().bits();
        let ns = time_ntt(quick, || {
            let product = ring.apply(&RingOp::Polymul(PolyOp::Negacyclic), &a, Some(&b));
            std::hint::black_box(product.expect("reduced inputs"));
        });
        rows.push(RnsRow {
            channels: k,
            modulus_bits,
            ns,
            ns_per_channel: ns / k as f64,
            backend,
        });
    }
    let cache_after = plan_cache::global().stats();

    let mut table = Table::new(
        &format!("RNS scaling — {n}-point negacyclic polymul, k word-sized channels"),
        &["channels", "modulus", "total", "per channel", "backend"],
    );
    for r in &rows {
        table.row(&[
            r.channels.to_string(),
            format!("{} bits", r.modulus_bits),
            fmt_ns(r.ns),
            fmt_ns(r.ns_per_channel),
            r.backend.clone(),
        ]);
    }
    table.print();
    println!(
        "plan cache over the sweep: +{} built, +{} served from cache",
        cache_after.misses - cache_before.misses,
        cache_after.hits - cache_before.hits,
    );

    write_json("rns_scaling", &rows);

    let wide_vs_rns = wide_vs_rns(quick, n);
    println!(
        "wide vs RNS at n = {n} on '{}': one {}-bit polymul {} vs {} × 62-bit channel \
         polymuls {} ({:.2}×)",
        wide_vs_rns.backend,
        wide_vs_rns.wide_modulus_bits,
        fmt_ns(wide_vs_rns.wide_ns),
        wide_vs_rns.channels,
        fmt_ns(wide_vs_rns.rns_channels_ns),
        wide_vs_rns.wide_over_rns,
    );
    let b = &wide_vs_rns.boundary;
    println!(
        "boundary of RnsRing::auto({}, {}) on '{}', ns/coefficient: split {:.1}, extend {:.1}, \
         rescale {:.1}, join {:.1}; lincomb on {} one limb {:.2} vs two limbs {:.2} ({:.2}×, \
         gate {BOUNDARY_ONE_LIMB_MIN_SPEEDUP}×)",
        b.channels,
        b.n,
        b.backend,
        b.split_ns_per_coeff,
        b.extend_ns_per_coeff,
        b.rescale_ns_per_coeff,
        b.join_ns_per_coeff,
        b.kernel_engine,
        b.one_limb_kernel_ns_per_coeff,
        b.two_limb_kernel_ns_per_coeff,
        b.kernel_speedup,
    );
    write_json("rns_wide_vs_channels", &wide_vs_rns);
    RnsReport {
        scaling: rows,
        wide_vs_rns,
    }
}

/// `n` residues below `q`.
fn residues(rng: &mut StdRng, n: usize, q: u128) -> Vec<u128> {
    (0..n).map(|_| rng.gen::<u128>() % q).collect()
}

/// Times one `Q124` negacyclic polymul and the channel polymuls of
/// `RnsRing::auto(2, n)`, each ring's served path on its own residues.
fn wide_vs_rns(quick: bool, n: usize) -> WideVsRnsRow {
    let wide = Ring::auto(primes::Q124, n).expect("Q124 supports negacyclic n ≤ 2^19");
    let rns = RnsRing::auto(2, n).expect("62-bit prime chain exists");
    let mut rng = StdRng::seed_from_u64(0x3_1DE);
    let (wa, wb) = (
        residues(&mut rng, n, primes::Q124),
        residues(&mut rng, n, primes::Q124),
    );
    let wide_ns = time_ntt(quick, || {
        std::hint::black_box(wide.polymul_negacyclic(&wa, &wb).expect("reduced inputs"));
    });
    let operands: Vec<(Vec<u128>, Vec<u128>)> = rns
        .moduli()
        .iter()
        .map(|&q| (residues(&mut rng, n, q), residues(&mut rng, n, q)))
        .collect();
    let rns_channels_ns = time_ntt(quick, || {
        for (ring, (a, b)) in rns.rings().iter().zip(&operands) {
            std::hint::black_box(ring.polymul_negacyclic(a, b).expect("reduced inputs"));
        }
    });
    WideVsRnsRow {
        n,
        wide_modulus_bits: 128 - primes::Q124.leading_zeros(),
        wide_ns,
        channels: rns.channels(),
        rns_modulus_bits: rns.product_modulus().bits(),
        rns_channels_ns,
        wide_over_rns: wide_ns / rns_channels_ns,
        backend: wide.backend().name().to_string(),
        boundary: boundary(quick),
    }
}

/// Times the boundary steps of `RnsRing::auto(3, 2048)` and the
/// boundary kernel at both lane widths.
fn boundary(quick: bool) -> BoundaryRow {
    const N: usize = 2048;
    const K: usize = 3;
    let ring = RnsRing::auto(K, N).expect("62-bit prime chain exists");
    let mut rng = StdRng::seed_from_u64(0xB0DA);
    let coeffs = Coefficients::Big(
        (0..N)
            .map(|_| BigUint::random_below(&mut rng, ring.product_modulus()))
            .collect(),
    );
    let channels = ring.split(&coeffs).expect("reduced coefficients");
    let per_coeff = |f: &mut dyn FnMut()| time_ntt(quick, f) / N as f64;
    let split = per_coeff(&mut || {
        std::hint::black_box(ring.split(&coeffs).expect("reduced coefficients"));
    });
    let mut out = Vec::with_capacity(N);
    let extend = RingOp::BasisExtend { extra_channels: 1 };
    let mut run = |op: &RingOp, channel: usize| {
        ring.channel_apply_at_into(op, K, channel, &channels, None, &mut out)
            .expect("a valid channel of the op");
    };
    let extend_ns = per_coeff(&mut || run(&extend, K));
    let rescale_ns = per_coeff(&mut || run(&RingOp::Rescale, 0));
    let join = per_coeff(&mut || {
        std::hint::black_box(ring.join_at(K, channels.clone()).expect("k channels of n"));
    });

    let q = ring.moduli()[0];
    let (kernel_engine, one, two) = widest_kernel_rows(quick, q, &channels);
    let speedup = two / one;
    BoundaryRow {
        n: N,
        channels: K,
        backend: ring.backend_names()[0].to_string(),
        split_ns_per_coeff: split,
        extend_ns_per_coeff: extend_ns,
        rescale_ns_per_coeff: rescale_ns,
        join_ns_per_coeff: join,
        kernel_engine,
        one_limb_kernel_ns_per_coeff: one,
        two_limb_kernel_ns_per_coeff: two,
        kernel_speedup: speedup,
        regression: speedup < BOUNDARY_ONE_LIMB_MIN_SPEEDUP,
    }
}

/// [`kernel_rows`] on the widest engine this host runs.
fn widest_kernel_rows(quick: bool, q: u128, rows: &[Vec<u128>]) -> (String, f64, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if mqx::simd::avx512_detected() {
            return kernel_rows::<mqx::simd::Avx512>(quick, q, rows);
        }
        if mqx::simd::avx2_detected() {
            return kernel_rows::<mqx::simd::Avx2>(quick, q, rows);
        }
    }
    kernel_rows::<Portable>(quick, q, rows)
}

/// A three-row combination over `rows` mod `q` (a Garner digit's shape)
/// on `E`, at one and at two limbs per lane, ns per coefficient.
fn kernel_rows<E: SimdEngine>(quick: bool, q: u128, rows: &[Vec<u128>]) -> (String, f64, f64) {
    let m = Modulus::new(q).expect("a channel prime is a valid modulus");
    let coeffs = [q / 3, q / 5, q - 7].map(|w| ShoupMul::new(w, &m));
    let block: Vec<u128> = rows[1..].concat();
    let comb = LinComb {
        coeffs: &coeffs,
        lead: &rows[0],
        rows: &block,
        offset: 1,
    };
    let n = rows[0].len();
    let mut out = vec![0; n];
    let one = time_ntt(quick, || lincomb::<E, OneLimb>(&m, &comb, &mut out)) / n as f64;
    let two = time_ntt(quick, || lincomb::<E, TwoLimbs>(&m, &comb, &mut out)) / n as f64;
    (E::NAME.to_string(), one, two)
}
