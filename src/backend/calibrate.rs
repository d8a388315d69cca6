//! Startup micro-calibration: rank the consumable backends by
//! *measured* ns/butterfly on the running machine instead of trusting
//! the widest-detected-tier prediction.
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
//!    the polymul inner shape — on **every consumable backend** in the
//!    registry, using the same §5.1 measurement loop ([`median_ns`])
//!    the benchmark harness uses for its tier sweeps;
//! 2. consumable non-MQX backends are ranked by measured
//!    [`Measurement::ns_per_butterfly`], cheapest first (MQX backends
//!    are measured for diagnostics but never ranked: functional mode is
//!    a slow bit-exact emulation, PISA mode is non-consumable);
//! 3. the result is memoized process-wide behind
//!    [`calibration`](super::calibration), so the cost is paid once —
//!    a few tens of milliseconds at first use (a fair share of it the
//!    deliberately slow functional-MQX emulation, measured for
//!    diagnostics), nothing afterwards.
//!
//! [`Ring::auto`](crate::Ring::auto) and the
//! [`RnsRingBuilder`](crate::RnsRingBuilder) auto path select from the
//! memoized ranking. One environment variable overrides it:
//! `MQX_BACKEND=<name>` pins the named registry backend for every auto
//! selection (whitespace-trimmed; unknown names surface as
//! [`Error::UnknownBackend`] at ring build; non-consumable names —
//! wrong numbers by design — as [`Error::NonConsumableBackend`]).
//!
//! ```
//! use mqx::backend;
//!
//! let cal = backend::calibration();
//! // The winner heads the ranking and is always a real engine.
//! assert!(cal.winner().consumable());
//! assert_eq!(cal.winner().name(), cal.ranking()[0].name());
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
/// that calibrating every backend (including the slow functional MQX
/// emulation) stays in the low-millisecond range.
const CALIBRATION_N: usize = 256;

/// Iterations of the calibration burst; the kept tail's median is the
/// measurement (same §5.1 protocol as the benchmark harness, scaled
/// down to startup budgets).
const CALIBRATION_TOTAL: usize = 10;

/// Kept tail length of the calibration loop.
const CALIBRATION_KEEP: usize = 5;

/// Backends whose measured ns/butterfly is within this factor of the
/// winner's are "competitive": [`Calibration::channel_backends`]
/// round-robins residue channels across them, so tiers tied within
/// measurement noise share the channel work instead of one tier taking
/// every channel on the strength of a noisy coin flip. The margin is
/// deliberately tight — all tiers execute on the same cores, so with
/// parallel channel fan-out the slowest assigned tier is the critical
/// path of every product; a genuinely slower tier must never be mixed
/// in, only true ties.
const COMPETITIVE_MARGIN: f64 = 1.05;

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
    /// Whether this backend may be ranked (consumable and not an MQX
    /// tier). Ineligible backends are measured for diagnostics only.
    pub eligible: bool,
}

/// The outcome of one calibration pass: per-backend measurements and
/// the ranking auto selection draws from.
#[derive(Debug)]
pub struct Calibration {
    measurements: Vec<Measurement>,
    /// Consumable non-MQX backends, cheapest measured score first.
    ranking: Vec<Arc<dyn Backend>>,
}

impl Calibration {
    /// Every backend measurement, in registry order.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// The ranked consumable non-MQX backends, best first. Never empty:
    /// the portable backend is always present and always eligible.
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

    /// Assigns a backend to each of `k` residue channels: channels
    /// round-robin over the *competitive set* — ranked backends whose
    /// measured score ties the winner's within measurement noise (a
    /// tight 1.05× margin) — so channels may land on different
    /// (tied) tiers, but a measurably slower tier is never put on the
    /// critical path.
    pub fn channel_backends(&self, k: usize) -> Vec<Arc<dyn Backend>> {
        let competitive = self.competitive_set();
        (0..k)
            .map(|i| Arc::clone(competitive[i % competitive.len()]))
            .collect()
    }

    fn competitive_set(&self) -> Vec<&Arc<dyn Backend>> {
        let winner = &self.ranking[0];
        let threshold = match self.score_of(winner.name()) {
            Some(score) => score * COMPETITIVE_MARGIN,
            None => return vec![winner],
        };
        self.ranking
            .iter()
            .filter(|b| {
                self.score_of(b.name())
                    .is_some_and(|score| score <= threshold)
            })
            .collect()
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

/// Runs one calibration pass: times the burst on every consumable
/// backend and ranks the eligible ones by score. Callers normally want
/// the memoized [`calibration`](super::calibration) instead; this entry
/// point is for tests that need a fresh pass.
pub fn run() -> Calibration {
    let m = Modulus::new_prime(primes::Q124).expect("Q124 is prime");
    let plan = NttPlan::new(&m, CALIBRATION_N).expect("Q124 supports the calibration size");
    let xs = burst_residues(m.value(), 0xCA11_B8A7E);
    let ys = burst_residues(m.value(), 0x5E1EC7);
    let butterflies = (CALIBRATION_N / 2) as f64 * f64::from(CALIBRATION_N.trailing_zeros());

    let mut measurements = Vec::new();
    for backend in super::registry() {
        if !backend.consumable() {
            continue; // PISA: representative cost, wrong numbers (§4.2).
        }
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
            eligible: backend.tier() != Tier::Mqx,
        });
    }

    // Stable sort: ties keep registry order (widest detected tier first).
    let mut ranked: Vec<(f64, Arc<dyn Backend>)> = measurements
        .iter()
        .filter(|meas| meas.eligible)
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
/// value) looks the name up in the registry — unknown names are
/// rejected with [`Error::UnknownBackend`], and non-consumable
/// backends (the PISA projection, whose numbers are deliberately
/// wrong) with [`Error::NonConsumableBackend`], since an ambient env
/// var must never silently poison every auto-built ring's outputs.
/// No pin yields the memoized calibration's winner.
pub fn select(pin: Option<&str>) -> Result<Arc<dyn Backend>, Error> {
    match pin {
        Some(name) => {
            let backend = by_name(name).ok_or_else(|| Error::UnknownBackend {
                name: name.to_string(),
                available: names(),
            })?;
            if !backend.consumable() {
                return Err(Error::NonConsumableBackend {
                    name: name.to_string(),
                });
            }
            Ok(backend)
        }
        None => Ok(process_calibration().winner()),
    }
}

/// Per-channel variant of [`select`] for `k` residue channels: a pin
/// applies to every channel; otherwise channels come from
/// [`Calibration::channel_backends`].
pub(crate) fn select_channels(pin: Option<&str>, k: usize) -> Result<Vec<Arc<dyn Backend>>, Error> {
    match pin {
        Some(name) => {
            let backend = select(Some(name))?;
            Ok(vec![backend; k])
        }
        None => Ok(process_calibration().channel_backends(k)),
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
    fn measured_run_covers_every_consumable_backend() {
        let cal = run();
        let measured: Vec<_> = cal.measurements().iter().map(|m| m.name).collect();
        for backend in super::super::available() {
            assert_eq!(
                measured.contains(&backend.name()),
                backend.consumable(),
                "{} measured iff consumable",
                backend.name()
            );
        }
        for m in cal.measurements() {
            assert!(m.ntt_ns > 0.0 && m.vmul_ns > 0.0, "{}", m.name);
            assert!(m.ns_per_butterfly > 0.0, "{}", m.name);
            assert_eq!(m.eligible, m.tier != Tier::Mqx, "{}", m.name);
        }
    }

    #[test]
    fn measured_ranking_is_sorted_and_mqx_free() {
        let cal = run();
        assert!(!cal.ranking().is_empty());
        let scores: Vec<f64> = cal
            .ranking()
            .iter()
            .map(|b| cal.score_of(b.name()).expect("ranked ⇒ measured"))
            .collect();
        assert!(scores.windows(2).all(|w| w[0] <= w[1]), "{scores:?}");
        for b in cal.ranking() {
            assert!(b.consumable());
            assert_ne!(b.tier(), Tier::Mqx);
        }
        assert_eq!(cal.winner().name(), cal.ranking()[0].name());
    }

    #[test]
    fn channel_backends_stay_within_the_ranking() {
        let cal = run();
        let channels = cal.channel_backends(5);
        assert_eq!(channels.len(), 5);
        let winner_score = cal.score_of(cal.winner().name()).unwrap();
        for b in &channels {
            assert!(b.consumable());
            let score = cal.score_of(b.name()).expect("assigned ⇒ measured");
            assert!(
                score <= winner_score * COMPETITIVE_MARGIN,
                "{} at {score} vs winner {winner_score}",
                b.name()
            );
        }
        assert!(Arc::ptr_eq(&channels[0], &cal.winner()));
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
