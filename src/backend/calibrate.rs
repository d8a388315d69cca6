//! Startup micro-calibration: rank the registry backends by *measured*
//! ns/butterfly on the running machine instead of trusting the
//! widest-detected-tier prediction.
//!
//! The paper's argument rests on measured cost per kernel on the host
//! at hand, and the fastest engine for a kernel shifts with problem
//! size and machine — a wide tier can be throttled or emulated on the
//! host at hand, and two hardware tiers can land within noise of each
//! other. [`default_backend`](super::default_backend) predicts from
//! detection alone; this module replaces the prediction with a one-shot
//! measurement:
//!
//! 1. [`run`] times a short burst — one forward NTT plus one `vmul`,
//!    the polymul inner shape — on **every backend** in the registry
//!    (the detected hardware tiers), using the same §5.1 measurement
//!    loop ([`median_ns`]) the benchmark harness uses for its tier
//!    sweeps. The burst runs on a plan over the 62-bit prime
//!    [`Q62`](mqx_core::primes::Q62): the canonical `forward_ntt` and
//!    `vmul` are two-limb kernels whatever the modulus, so the ranking
//!    is the one a 124-bit plan gives, and a cold process finds a root
//!    of unity for `Q62` in well under a millisecond (factoring
//!    `Q124 − 1` takes several);
//! 2. the backends are ranked by measured
//!    [`Measurement::ns_per_butterfly`], cheapest first;
//! 3. the result is memoized process-wide behind
//!    [`calibration`](super::calibration), so the cost is paid once,
//!    at first use.
//!
//! [`Ring::auto`](crate::Ring::auto) and the
//! [`RnsRingBuilder`](crate::RnsRingBuilder) auto path select from the
//! memoized ranking. One environment variable overrides it:
//! `MQX_BACKEND=<name>` pins the named registry backend for every auto
//! selection (whitespace-trimmed; unknown names surface as
//! [`Error::UnknownBackend`] at ring build).
//!
//! ```
//! use mqx::backend;
//!
//! let cal = backend::calibration();
//! // The winner heads the ranking, which covers the whole registry.
//! assert_eq!(cal.winner().name(), cal.ranking()[0].name());
//! assert_eq!(cal.ranking().len(), backend::available().len());
//! ```

use super::{by_name, names, Backend, Tier};
use crate::error::Error;
use mqx_core::{primes, Modulus};
use mqx_ntt::NttPlan;
use mqx_simd::ResidueSoa;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Transform size of the calibration burst: large enough that the
/// per-butterfly cost reflects the steady-state kernel, small enough
/// that calibrating every registry tier (portable, the slowest, too)
/// stays in the low-millisecond range.
const CALIBRATION_N: usize = 256;

/// Iterations of the calibration burst; the kept tail's median is the
/// measurement (same §5.1 protocol as the benchmark harness, scaled
/// down to startup budgets).
const CALIBRATION_TOTAL: usize = 10;

/// Kept tail length of the calibration loop.
const CALIBRATION_KEEP: usize = 5;

/// One backend's calibration burst, measured on this machine.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The backend's registry name.
    pub name: &'static str,
    /// The backend's vector tier.
    pub tier: Tier,
    /// Median ns of one forward NTT at the calibration size.
    pub ntt_ns: f64,
    /// Median ns of one element-wise `vmul` at the calibration size.
    pub vmul_ns: f64,
    /// `(ntt_ns + vmul_ns)` normalized by the transform's butterfly
    /// count `(n/2)·log₂ n` — the ranking score, comparable across
    /// machines and sizes.
    pub ns_per_butterfly: f64,
}

/// The outcome of one calibration pass: per-backend measurements and
/// the ranking auto selection draws from.
#[derive(Debug)]
pub struct Calibration {
    measurements: Vec<Measurement>,
    /// Every measured backend, cheapest measured score first.
    ranking: Vec<Arc<dyn Backend>>,
}

impl Calibration {
    /// Every backend measurement, in registry order.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Every registry backend, best measured score first. Never empty:
    /// the portable backend is always present.
    pub fn ranking(&self) -> &[Arc<dyn Backend>] {
        &self.ranking
    }

    /// The backend auto selection picks: the head of the ranking.
    pub fn winner(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.ranking[0])
    }

    /// The measured ranking score for a backend, when one exists.
    pub fn score_of(&self, name: &str) -> Option<f64> {
        self.measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_butterfly)
    }
}

/// The §5.1 measurement loop shared by this module and the benchmark
/// harness's tier runners: run `f` `total` times, keep the final `keep`
/// iterations (letting caches warm up and stabilize), and return the
/// **median** of the kept tail in nanoseconds — the median because on
/// shared infrastructure intermittent throttling injects multi-×
/// spikes that a mean cannot shrug off.
///
/// # Panics
///
/// Panics if `keep == 0` or `keep > total`.
pub fn median_ns(total: usize, keep: usize, mut f: impl FnMut()) -> f64 {
    assert!(keep > 0 && keep <= total, "keep must be in 1..=total");
    let mut kept = Vec::with_capacity(keep);
    for i in 0..total {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_nanos() as f64;
        if i >= total - keep {
            kept.push(dt);
        }
    }
    kept.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = kept.len() / 2;
    if kept.len() % 2 == 1 {
        kept[mid]
    } else {
        (kept[mid - 1] + kept[mid]) / 2.0
    }
}

/// Runs one calibration pass: times the burst on every registry
/// backend and ranks them by score. Callers normally want
/// the memoized [`calibration`](super::calibration) instead; this entry
/// point is for tests that need a fresh pass.
pub fn run() -> Calibration {
    let m = Modulus::new_prime(primes::Q62).expect("Q62 is prime");
    let plan = NttPlan::new(&m, CALIBRATION_N).expect("Q62 supports the calibration size");
    let xs = burst_residues(m.value(), 0xCA11_B8A7E);
    let ys = burst_residues(m.value(), 0x5E1EC7);
    let butterflies = (CALIBRATION_N / 2) as f64 * f64::from(CALIBRATION_N.trailing_zeros());

    let mut measurements = Vec::new();
    for backend in super::registry() {
        // NTT leg: repeated forwards over the same buffer keep every
        // input reduced (transform outputs are reduced residues).
        let mut x = ResidueSoa::from_u128s(&xs);
        let mut scratch = ResidueSoa::zeros(CALIBRATION_N);
        let ntt_ns = median_ns(CALIBRATION_TOTAL, CALIBRATION_KEEP, || {
            backend.forward_ntt(&plan, &mut x, &mut scratch)
        });
        // vmul leg: the point-wise half of the convolution theorem.
        let sx = ResidueSoa::from_u128s(&xs);
        let sy = ResidueSoa::from_u128s(&ys);
        let mut out = ResidueSoa::zeros(CALIBRATION_N);
        let vmul_ns = median_ns(CALIBRATION_TOTAL, CALIBRATION_KEEP, || {
            backend.vmul(&sx, &sy, &mut out, &m)
        });
        measurements.push(Measurement {
            name: backend.name(),
            tier: backend.tier(),
            ntt_ns,
            vmul_ns,
            ns_per_butterfly: (ntt_ns + vmul_ns) / butterflies,
        });
    }

    // Stable sort: ties keep registry order (widest detected tier first).
    let mut ranked: Vec<(f64, Arc<dyn Backend>)> = measurements
        .iter()
        .map(|meas| {
            let backend = by_name(meas.name).expect("measured backends come from the registry");
            (meas.ns_per_butterfly, backend)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));

    Calibration {
        measurements,
        ranking: ranked.into_iter().map(|(_, backend)| backend).collect(),
    }
}

/// The process-wide memoized calibration behind
/// [`calibration`](super::calibration).
pub(super) fn process_calibration() -> &'static Calibration {
    static CALIBRATION: OnceLock<Calibration> = OnceLock::new();
    CALIBRATION.get_or_init(run)
}

/// Resolves one auto selection: an explicit `pin` (the `MQX_BACKEND`
/// value) looks the name up in the registry — unknown names, the
/// paper's measurement engines among them, are rejected with
/// [`Error::UnknownBackend`]. No pin yields the memoized calibration's
/// winner.
pub fn select(pin: Option<&str>) -> Result<Arc<dyn Backend>, Error> {
    match pin {
        Some(name) => by_name(name).ok_or_else(|| Error::UnknownBackend {
            name: name.to_string(),
            available: names(),
        }),
        None => Ok(process_calibration().winner()),
    }
}

/// Reads the `MQX_BACKEND` pin from the environment. Surrounding
/// whitespace is trimmed (an exported `MQX_BACKEND=" portable"` must
/// not fail as an unknown backend) and an empty or all-whitespace value
/// counts as unset.
pub(crate) fn env_pin() -> Option<String> {
    match std::env::var("MQX_BACKEND") {
        Ok(name) => {
            let trimmed = name.trim();
            if trimmed.is_empty() {
                None
            } else {
                Some(trimmed.to_string())
            }
        }
        _ => None,
    }
}

fn burst_residues(q: u128, seed: u64) -> Vec<u128> {
    let mut state = seed | 1;
    (0..CALIBRATION_N)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            u128::from(state) % q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_run_covers_every_backend() {
        let cal = run();
        let measured: Vec<_> = cal.measurements().iter().map(|m| m.name).collect();
        assert_eq!(measured, super::super::names());
        for m in cal.measurements() {
            assert!(m.ntt_ns > 0.0 && m.vmul_ns > 0.0, "{}", m.name);
            assert!(m.ns_per_butterfly > 0.0, "{}", m.name);
        }
    }

    #[test]
    fn measured_ranking_is_sorted_and_mqx_free() {
        let cal = run();
        let scores: Vec<f64> = cal
            .ranking()
            .iter()
            .map(|b| cal.score_of(b.name()).expect("ranked ⇒ measured"))
            .collect();
        assert!(scores.windows(2).all(|w| w[0] <= w[1]), "{scores:?}");
        // The ranking is the registry reordered: hardware tiers only.
        let mut ranked: Vec<_> = cal.ranking().iter().map(|b| b.name()).collect();
        let mut registry = super::super::names();
        ranked.sort_unstable();
        registry.sort_unstable();
        assert_eq!(ranked, registry);
        assert_eq!(cal.winner().name(), cal.ranking()[0].name());
    }

    #[test]
    fn median_ns_keeps_only_the_tail() {
        let mut calls = 0;
        let ns = median_ns(10, 5, || calls += 1);
        assert_eq!(calls, 10);
        assert!(ns >= 0.0);
    }

    #[test]
    #[should_panic(expected = "keep must be")]
    fn median_ns_rejects_zero_keep() {
        let _ = median_ns(10, 0, || {});
    }
}
