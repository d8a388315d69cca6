//! One round of one workload, in a process of its own: reference
//! products and oracle (untimed), timed set-up, then warm-up →
//! saturating phase T → settle → light phase L. The untraced binary
//! reports the end-to-end metrics of the round; the traced binary runs
//! the same round with spans on and adds the layer probes.

use crate::loadgen::{Generator, PhaseStats, Trace};
use crate::workload::{Served, Workload, CLOSED_WINDOW};
use crate::{host, obj, stats, verify};
use mqx::frontdoor::block_on;
use mqx::{Coefficients, RingRequest};
use mqx_json::{Json, ToJson};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Phase lengths of a round, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Lengths {
    pub warmup: f64,
    pub saturating: f64,
    pub settle: f64,
    pub light: f64,
    /// Least time a layer probe measures for (traced pass only).
    pub probe: f64,
}

impl Lengths {
    /// `seconds` of measuring split evenly over `rounds` rounds, each
    /// in the proportions the protocol was validated with
    /// (1 s : 4 s : 0.3 s : 2.5 s).
    pub fn of(seconds: f64, rounds: usize) -> Lengths {
        let unit = seconds / rounds as f64 / 7.8;
        Lengths {
            warmup: unit,
            saturating: 4.0 * unit,
            settle: 0.3 * unit,
            light: 2.5 * unit,
            probe: seconds / 80.0,
        }
    }

    /// `--quick`: 0.3 s phases, for the package test.
    pub fn quick() -> Lengths {
        Lengths {
            warmup: 0.3,
            saturating: 0.3,
            settle: 0.05,
            light: 0.3,
            probe: 0.02,
        }
    }

    pub fn total(&self) -> f64 {
        self.warmup + self.saturating + self.settle + self.light
    }

    pub fn to_arg(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.warmup, self.saturating, self.settle, self.light, self.probe
        )
    }

    pub fn from_arg(arg: &str) -> Option<Lengths> {
        let parts: Vec<f64> = arg.split(',').filter_map(|p| p.parse().ok()).collect();
        match parts[..] {
            [warmup, saturating, settle, light, probe] => Some(Lengths {
                warmup,
                saturating,
                settle,
                light,
                probe,
            }),
            _ => None,
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("warmup_s", self.warmup.to_json()),
            ("saturating_s", self.saturating.to_json()),
            ("settle_s", self.settle.to_json()),
            ("light_s", self.light.to_json()),
            ("probe_s", self.probe.to_json()),
        ])
    }
}

/// What a round process is asked to do.
#[derive(Clone, Debug)]
pub struct RoundArgs {
    pub workload: Workload,
    pub seed: u64,
    pub lengths: Lengths,
    /// Run the O(n²) oracle too (the driver asks the first round only:
    /// inputs and references are functions of the seed alone).
    pub oracle: bool,
}

impl RoundArgs {
    /// Parses `--workload W --seed N --lengths a,b,c,d,e [--oracle]`.
    pub fn parse(args: &[String]) -> Result<RoundArgs, String> {
        let value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .ok_or_else(|| format!("round: missing {flag}"))
        };
        let name = value("--workload")?;
        Ok(RoundArgs {
            workload: Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
            seed: value("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            lengths: Lengths::from_arg(value("--lengths")?).ok_or("--lengths: five numbers")?,
            oracle: args.iter().any(|a| a == "--oracle"),
        })
    }
}

/// Everything a round has before its first phase.
pub struct Prepared {
    pub args: RoundArgs,
    pub epoch: Instant,
    pub pool: Vec<RingRequest>,
    pub expected: Vec<Coefficients>,
    pub served: Served,
    pub setup_s: f64,
    /// Duration of the first `backend::calibration()`, part of set-up.
    pub calibration_ms: f64,
    /// `None` when the oracle was not asked for.
    pub oracle_ok: Option<bool>,
    /// The requests served during set-up, one of each shape, booked
    /// like a phase so their outcomes are pooled with the rest.
    pub setup: PhaseStats,
}

/// The three measured phases of a round.
pub struct Phases {
    pub warmup: PhaseStats,
    pub saturating: PhaseStats,
    pub light: PhaseStats,
    /// Traced pass only: 1 − the saturating rate with spans on ÷ the
    /// rate with spans off.
    pub tracing_overhead: Option<f64>,
}

/// Send lateness (p99, ms) beyond which an open-loop light step is
/// invalid. On one shared CPU a send that falls due while the worker is
/// mid-request goes out when the worker next blocks — a service time
/// later, or a few when requests are queued: 0.7–1.5 ms at seed — and
/// costs its request nothing, since it would have queued behind that
/// work anyway. A process the host stalled long enough to shed requests
/// (50 ms deadlines) is late by tens of milliseconds.
const LATE_LIMIT_MS: f64 = 5.0;

/// Pairs of slices the traced pass cuts its saturating phase into,
/// spans off then on: the two rates of a pair see the same stretch of
/// wall time, where two whole phases would each see a different mood of
/// the host.
const OVERHEAD_PAIRS: usize = 8;

/// Reference products and oracle first, untimed; then the timed set-up:
/// `backend::calibration()`, ring build, `FrontDoor` build, and one
/// request of each shape served to completion.
pub fn prepare(args: RoundArgs) -> Result<Prepared, mqx::Error> {
    let epoch = Instant::now();
    let workload = args.workload;
    let reference = workload.reference()?;
    let pool = workload.requests(&reference, args.seed);
    let expected = verify::expected(&reference, &pool)?;
    let oracle_ok = args
        .oracle
        .then(|| verify::oracle_agrees(&workload, &reference, &pool, &expected));

    let t0 = Instant::now();
    let _ = mqx::backend::calibration();
    let calibration_ms = t0.elapsed().as_secs_f64() * 1e3;
    let served = workload.serve(host::workers())?;
    let shapes = workload.shapes();
    let responses: Vec<_> = pool[..shapes]
        .iter()
        .map(|request| {
            served
                .door
                .submit(&served.ring, request.clone())
                .and_then(block_on)
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    // The reference ring asked for `RnsRing::auto`'s basis by hand.
    assert_eq!(
        served.rings.moduli(),
        reference.moduli(),
        "reference and served rings must share a basis"
    );
    let wrong = responses
        .iter()
        .zip(&expected)
        .filter(|(got, want)| got.as_ref().ok() != Some(*want))
        .count() as u64;
    Ok(Prepared {
        args,
        epoch,
        pool,
        expected,
        served,
        setup_s,
        calibration_ms,
        oracle_ok,
        setup: PhaseStats {
            attempted: shapes as u64,
            failed: wrong,
            wrong,
            ..PhaseStats::default()
        },
    })
}

/// Warm-up (in the saturating mode) → T → settle → L. The traced pass
/// hands in one [`Trace`] for T and one for L.
pub fn run_phases(prepared: &Prepared, trace: Option<&mut [Trace; 2]>) -> Phases {
    let lengths = prepared.args.lengths;
    let secs = Duration::from_secs_f64;
    let mut generator = Generator::new(
        &prepared.served,
        &prepared.pool,
        &prepared.expected,
        prepared.epoch,
    );
    // Class draws and arrival gaps come from the seed too, on a stream
    // of their own so they do not depend on the pool size.
    let mut rng = StdRng::seed_from_u64(prepared.args.seed ^ 0x0A11_1BA1);
    let mut phase = |saturating: bool, seconds: f64, trace: Option<&mut Trace>| match prepared
        .args
        .workload
        .open_loop()
    {
        Some(schedule) => generator.open(schedule, saturating, secs(seconds), &mut rng, trace),
        None => {
            let window = if saturating { CLOSED_WINDOW } else { 1 };
            generator.closed(window, secs(seconds), trace)
        }
    };
    let warmup = phase(true, lengths.warmup, None);
    let Some([trace_t, trace_l]) = trace else {
        let saturating = phase(true, lengths.saturating, None);
        std::thread::sleep(secs(lengths.settle));
        let light = phase(false, lengths.light, None);
        return Phases {
            warmup,
            saturating,
            light,
            tracing_overhead: None,
        };
    };
    // Slice by slice, spans off then on; each pair of neighbours gives
    // one reading of the overhead, and the median of the readings
    // shrugs off the pairs the host disturbed.
    let mut saturating = PhaseStats::default();
    let mut readings = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        let seconds = lengths.saturating / (2 * OVERHEAD_PAIRS) as f64;
        let mut rate = |trace| {
            let stats = phase(true, seconds, trace);
            let rate = stats.served() as f64 / stats.wall_s;
            saturating.absorb(stats);
            rate
        };
        let (off, on) = (rate(None), rate(Some(&mut *trace_t)));
        readings.push(1.0 - on / off.max(f64::MIN_POSITIVE));
    }
    stats::sort(&mut readings);
    let tracing_overhead = Some(stats::percentile(&readings, 50.0));
    std::thread::sleep(secs(lengths.settle));
    let light = phase(false, lengths.light, Some(trace_l));
    Phases {
        warmup,
        saturating,
        light,
        tracing_overhead,
    }
}

/// The end-to-end metrics of one round, by their `BENCHMARK.json`
/// names, plus the counts the driver pools.
pub fn report(prepared: &Prepared, phases: &Phases) -> Json {
    let t = &phases.saturating;
    let l = &phases.light;
    let served_t = t.served().max(1) as f64;
    let metrics = [
        ("throughput_rps", t.served() as f64 / t.wall_s),
        ("latency_p50_ms", stats::median_ns(&l.latency_ns(), 1e6)),
        ("cpu_ms_per_request", t.cpu_s * 1e3 / served_t),
        ("setup_s", prepared.setup_s),
        ("peak_rss_mib", host::peak_rss_mib()),
    ];
    // The open loop's light step is valid when the generator kept its
    // schedule. When it did not, the process itself was stalled
    // (generator and worker share the CPUs), and requests refused
    // meanwhile are judged against a schedule that was not kept: they
    // are reported, not counted as failures.
    let light_late_p99_ms = stats::percentile_ns(&l.late_ns, 99.0, 1e6);
    let light_valid =
        prepared.args.workload.open_loop().is_none() || light_late_p99_ms <= LATE_LIMIT_MS;
    let excused = if light_valid { 0 } else { l.failed - l.wrong };
    let all = [&prepared.setup, &phases.warmup, t, l];
    let sum = |count: fn(&PhaseStats) -> u64| all.iter().map(|p| count(p)).sum::<u64>();
    obj([
        (
            "metrics",
            obj(metrics.map(|(name, value)| (name, value.to_json()))),
        ),
        ("attempted", sum(|p| p.attempted).to_json()),
        ("failed", (sum(|p| p.failed) - excused).to_json()),
        ("wrong", sum(|p| p.wrong).to_json()),
        ("oracle_ok", prepared.oracle_ok.to_json()),
        ("backends", prepared.served.rings.backend_names().to_json()),
        ("calibration", calibration_json()),
        // Validity of the light step and sizes of the samples behind
        // the medians; not metrics of the system.
        ("light_step_valid", light_valid.to_json()),
        ("light_refused_while_invalid", excused.to_json()),
        ("light_late_p99_ms", light_late_p99_ms.to_json()),
        ("samples_t", t.served().to_json()),
        ("samples_l", l.served().to_json()),
    ])
}

/// The process's calibration ranking with its measured scores.
fn calibration_json() -> Json {
    let calibration = mqx::backend::calibration();
    Json::Arr(
        calibration
            .ranking()
            .iter()
            .map(|backend| {
                obj([
                    ("backend", backend.name().to_json()),
                    (
                        "ns_per_butterfly",
                        calibration.score_of(backend.name()).to_json(),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_split_the_seconds_and_survive_the_command_line() {
        let lengths = Lengths::of(20.0, 5);
        assert!((lengths.total() - 4.0).abs() < 1e-9);
        assert!((lengths.saturating / lengths.warmup - 4.0).abs() < 1e-9);
        let parsed = Lengths::from_arg(&lengths.to_arg()).expect("five numbers");
        assert_eq!(parsed.to_arg(), lengths.to_arg());
        assert!(Lengths::from_arg("1,2,3").is_none());
    }
}
