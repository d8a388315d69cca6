//! The driver: runs every round in a fresh child process, interleaved
//! across the workloads, reports the second-best of the rounds for each
//! end-to-end metric, runs the traced pass, and prints every metric by
//! name with its unit plus one JSON document.

use crate::round::Lengths;
use crate::spec::{MetricSpec, Spec};
use crate::workload::{self, Workload};
use crate::{host, obj, out_dir, spec, stats};
use mqx_json::{Json, ToJson};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Rounds per workload. Fixed: the second-best-of-five rule was
/// validated for five, and a shorter `--seconds` shortens the phases,
/// not the count.
const ROUNDS: usize = 5;

/// A child is killed this long after its phases should have ended; it
/// covers reference products, the oracle and the layer probes.
const CHILD_GRACE: Duration = Duration::from_secs(90);

const TRACED_BINARY: &str = "mqx-benchmark-traced";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `--trace 0`: end-to-end suite only; `--trace 1`: traced pass
    /// only; absent: both.
    trace: Option<bool>,
    quick: bool,
    check_repeat: bool,
    /// The prefix every round's process is started under.
    confine: Option<Vec<String>>,
}

impl Options {
    fn parse(args: &[String], spec: &Spec) -> Result<Options, String> {
        let mut options = Options {
            workloads: Vec::new(),
            seed: 1,
            seconds: spec.run_seconds,
            trace: None,
            quick: false,
            check_repeat: false,
            confine: host::confine(),
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    options.workloads.push(
                        Workload::by_name(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if options.seconds.is_nan() || options.seconds <= 0.0 {
                        return Err("--seconds must be positive".to_string());
                    }
                }
                "--trace" => {
                    options.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                "--quick" => options.quick = true,
                "--check-repeat" => options.check_repeat = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if options.workloads.is_empty() {
            options.workloads = workload::ALL.to_vec();
        }
        Ok(options)
    }

    fn rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            ROUNDS
        }
    }

    fn lengths(&self) -> Lengths {
        if self.quick {
            Lengths::quick()
        } else {
            Lengths::of(self.seconds, ROUNDS)
        }
    }
}

/// Runs one child to completion and parses the JSON object on the last
/// line of its standard output. The child is killed once `limit` has
/// passed: a hung round is a failed round, not a hung benchmark.
fn run_child(
    confine: &Option<Vec<String>>,
    exe: &Path,
    args: &[String],
    limit: Duration,
) -> Result<Json, String> {
    let mut command = match confine {
        Some(prefix) => {
            let mut command = Command::new(&prefix[0]);
            command.args(&prefix[1..]).arg(exe);
            command
        }
        None => Command::new(exe),
    };
    let mut child = command
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let give_up = Instant::now() + limit;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} {args:?} timed out", exe.display()));
            }
            Err(e) => return Err(format!("waiting for {}: {e}", exe.display())),
        }
    };
    // A report is a few KiB, well inside the pipe's buffer, so reading
    // after the exit cannot have blocked the child.
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("reading child output: {e}"))?;
    if !status.success() {
        return Err(format!("{} {args:?} exited with {status}", exe.display()));
    }
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("child report does not parse: {e}"))
}

fn child_args(workload: &Workload, seed: u64, lengths: &Lengths, oracle: bool) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--lengths".to_string(),
        lengths.to_arg(),
    ];
    if oracle {
        args.push("--oracle".to_string());
    }
    args
}

fn child_limit(lengths: &Lengths) -> Duration {
    Duration::from_secs_f64(lengths.total()) + CHILD_GRACE
}

fn count(report: &Json, key: &str) -> u64 {
    report.get(key).and_then(Json::as_i128).unwrap_or(0) as u64
}

fn metric(report: &Json, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.as_f64()
}

/// What the runs of one workload add up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Wrong answers, failed oracle checks and rounds that did not
    /// report: the outcomes that make the command exit non-zero.
    wrong: u64,
}

impl Tally {
    fn add_report(&mut self, report: &Json) {
        self.attempted += count(report, "attempted");
        self.failed += count(report, "failed");
        self.wrong += count(report, "wrong");
        if report.get("oracle_ok") == Some(&Json::Bool(false)) {
            eprintln!("oracle disagrees with the reference ring");
            self.wrong += 1;
        }
    }

    fn add_lost_child(&mut self, error: &str) {
        eprintln!("{error}");
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
    }
}

/// The untraced suite's result for one workload.
struct EndToEnd {
    workload: Workload,
    rounds: Vec<Json>,
    tally: Tally,
}

impl EndToEnd {
    fn round_values(&self, name: &str) -> Vec<f64> {
        self.rounds.iter().filter_map(|r| metric(r, name)).collect()
    }

    /// The reported value: the second-best of the rounds.
    fn value(&self, spec: &MetricSpec) -> Option<f64> {
        let rounds = self.round_values(&spec.name);
        (!rounds.is_empty()).then(|| stats::second_best(&rounds, spec.higher_is_better))
    }

    /// Per round, whether the light step counts (see `round::report`).
    fn light_step_valid(&self) -> Vec<bool> {
        self.rounds
            .iter()
            .map(|round| round.get("light_step_valid") != Some(&Json::Bool(false)))
            .collect()
    }
}

fn untraced_suite(options: &Options) -> Vec<EndToEnd> {
    let exe = std::env::current_exe().expect("own executable path");
    let lengths = options.lengths();
    let mut results: Vec<EndToEnd> = options
        .workloads
        .iter()
        .map(|&workload| EndToEnd {
            workload,
            rounds: Vec::new(),
            tally: Tally::default(),
        })
        .collect();
    // Interleaved: a slow spell of the host lands on one round of every
    // workload, not on every round of one.
    for round in 0..options.rounds() {
        for result in &mut results {
            let mut args = vec!["--round".to_string()];
            args.extend(child_args(
                &result.workload,
                options.seed,
                &lengths,
                round == 0,
            ));
            match run_child(&options.confine, &exe, &args, child_limit(&lengths)) {
                Ok(report) => {
                    result.tally.add_report(&report);
                    result.rounds.push(report);
                }
                Err(error) => result.tally.add_lost_child(&error),
            }
        }
    }
    results
}

/// The traced pass's result for one workload.
struct PerLayer {
    workload: Workload,
    metrics: Vec<(String, f64)>,
    tally: Tally,
}

impl PerLayer {
    fn value(&self, spec: &MetricSpec) -> Option<f64> {
        let (_, value) = self.metrics.iter().find(|(name, _)| *name == spec.name)?;
        Some(*value)
    }
}

/// Per workload: the traced binary over one round's phase lengths,
/// which records spans, then runs the layer probes and reads the
/// counters.
fn traced_pass(options: &Options) -> Vec<PerLayer> {
    let own = std::env::current_exe().expect("own executable path");
    let traced = own.with_file_name(TRACED_BINARY);
    let lengths = options.lengths();
    options
        .workloads
        .iter()
        .map(|&workload| {
            let mut result = PerLayer {
                workload,
                metrics: Vec::new(),
                tally: Tally::default(),
            };
            let args = child_args(&workload, options.seed, &lengths, false);
            match run_child(&options.confine, &traced, &args, child_limit(&lengths)) {
                Ok(report) => {
                    result.tally.add_report(&report);
                    if let Some(Json::Obj(fields)) = report.get("metrics") {
                        result.metrics = fields
                            .iter()
                            .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
                            .collect();
                    }
                }
                Err(error) => result.tally.add_lost_child(&error),
            }
            result
        })
        .collect()
}

fn value_json(value: f64, unit: &str) -> Json {
    obj([("value", value.to_json()), ("unit", unit.to_json())])
}

fn end_to_end_json(result: &EndToEnd, spec: &Spec) -> Json {
    let metrics = spec.end_to_end.iter().filter_map(|m| {
        let entry = obj([
            ("value", result.value(m)?.to_json()),
            ("unit", m.unit.to_json()),
            ("rounds", result.round_values(&m.name).to_json()),
        ]);
        Some((m.name.as_str(), entry))
    });
    let tally = &result.tally;
    // One entry a round, as the round reported it.
    let rounds = |key: &str| -> Json {
        Json::Arr(
            result
                .rounds
                .iter()
                .filter_map(|r| r.get(key).cloned())
                .collect(),
        )
    };
    obj(metrics.chain([
        (
            "failed_share",
            value_json(tally.failed as f64 / tally.attempted.max(1) as f64, "ratio"),
        ),
        ("attempted", tally.attempted.to_json()),
        ("failed", tally.failed.to_json()),
        ("wrong", tally.wrong.to_json()),
        ("light_step_valid", rounds("light_step_valid")),
        (
            "light_refused_while_invalid",
            rounds("light_refused_while_invalid"),
        ),
        ("light_late_p99_ms", rounds("light_late_p99_ms")),
        ("samples_t", rounds("samples_t")),
        ("samples_l", rounds("samples_l")),
        ("backends", rounds("backends")),
        (
            "calibration",
            result
                .rounds
                .first()
                .and_then(|r| r.get("calibration").cloned())
                .unwrap_or(Json::Null),
        ),
    ]))
}

fn per_layer_json(result: &PerLayer, spec: &Spec) -> Json {
    let metrics = spec
        .per_layer
        .iter()
        .filter_map(|m| Some((m.name.as_str(), value_json(result.value(m)?, &m.unit))));
    obj(metrics.chain([
        ("attempted", result.tally.attempted.to_json()),
        ("failed", result.tally.failed.to_json()),
        ("wrong", result.tally.wrong.to_json()),
    ]))
}

fn print_end_to_end(results: &[EndToEnd], spec: &Spec, rounds: usize) {
    println!("== end to end: second-best of {rounds} round(s), raw rounds in brackets ==");
    for result in results {
        for m in &spec.end_to_end {
            match result.value(m) {
                Some(value) => println!(
                    "{:<13} {:<20} {:>14.6} {:<6} {:?}",
                    result.workload.name,
                    m.name,
                    value,
                    m.unit,
                    result.round_values(&m.name)
                ),
                None => println!("{:<13} {:<20} missing", result.workload.name, m.name),
            }
        }
        let tally = &result.tally;
        println!(
            "{:<13} {:<20} {:>14.6} {:<6} ({} failed of {} attempted, {} wrong)",
            result.workload.name,
            "failed_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            tally.failed,
            tally.attempted,
            tally.wrong
        );
        let valid = result.light_step_valid();
        if valid.contains(&false) {
            println!(
                "{:<13} light step INVALID in some round (the generator fell behind its schedule): {valid:?}",
                result.workload.name
            );
        }
    }
}

fn print_per_layer(results: &[PerLayer], spec: &Spec) {
    println!("== per layer: traced pass ==");
    for result in results {
        for m in &spec.per_layer {
            match result.value(m) {
                Some(value) => println!(
                    "{:<13} {:<40} {:>16.6} {}",
                    result.workload.name, m.name, value, m.unit
                ),
                None => println!("{:<13} {:<40} missing", result.workload.name, m.name),
            }
        }
    }
}

/// The line the builder contract asks for when one workload was run,
/// and whether it reports a correct run: every metric present, nothing
/// wrong.
fn contract_line(
    spec: &Spec,
    end_to_end: Option<&EndToEnd>,
    per_layer: Option<&PerLayer>,
) -> (Json, bool) {
    let values = (end_to_end.into_iter())
        .flat_map(|result| spec.end_to_end.iter().map(|m| (m, result.value(m))))
        .chain(
            (per_layer.into_iter())
                .flat_map(|result| spec.per_layer.iter().map(|m| (m, result.value(m)))),
        );
    let mut complete = true;
    let metrics: Vec<(&str, Json)> = values
        .filter_map(|(m, value)| {
            complete &= value.is_some();
            Some((m.name.as_str(), value_json(value?, &m.unit)))
        })
        .collect();
    let tallies = [end_to_end.map(|r| &r.tally), per_layer.map(|r| &r.tally)];
    let sum = |count: fn(&Tally) -> u64| tallies.iter().flatten().map(|t| count(t)).sum::<u64>();
    let correct = complete && sum(|t| t.wrong) == 0;
    let line = obj([
        ("correct", correct.to_json()),
        ("attempted", sum(|t| t.attempted).max(1).to_json()),
        ("failed", sum(|t| t.failed).to_json()),
        ("metrics", obj(metrics)),
    ]);
    (line, correct)
}

/// `--check-repeat`: the untraced suite twice, back to back; every
/// end-to-end metric of every workload must agree within its bound.
fn check_repeat(options: &Options, spec: &Spec) -> bool {
    let first = untraced_suite(options);
    let second = untraced_suite(options);
    println!("== check-repeat: two suites of identical code, spread = |a - b| / min(a, b) ==");
    let mut ok = true;
    for (a, b) in first.iter().zip(&second) {
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let (Some(x), Some(y)) = (a.value(m), b.value(m)) else {
                println!("{:<13} {:<20} missing", a.workload.name, m.name);
                ok = false;
                continue;
            };
            let spread = (x - y).abs() / x.min(y).max(f64::MIN_POSITIVE);
            let verdict = if spread <= bound { "ok" } else { "OUTSIDE" };
            ok &= spread <= bound;
            println!(
                "{:<13} {:<20} {:>14.6} {:>14.6} {:<6} spread {:>7.4} bound {:.2} {verdict}",
                a.workload.name, m.name, x, y, m.unit, spread, bound
            );
        }
        let wrong = a.tally.wrong + b.tally.wrong;
        if wrong > 0 {
            println!("{:<13} {wrong} wrong outcome(s)", a.workload.name);
            ok = false;
        }
    }
    ok
}

/// Entry point of the driver; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let spec = spec::load();
    let options = match Options::parse(args, &spec) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}");
            return 2;
        }
    };
    if options.check_repeat {
        return i32::from(!check_repeat(&options, &spec));
    }

    let end_to_end = (options.trace != Some(true)).then(|| untraced_suite(&options));
    let per_layer = (options.trace != Some(false)).then(|| traced_pass(&options));

    let mut host_block = host::describe();
    host_block.extend([
        (
            "round_processes_confined_to",
            options.confine.as_ref().map(|p| p.join(" ")).to_json(),
        ),
        ("seed", options.seed.to_json()),
        ("rounds", options.rounds().to_json()),
        ("phase_lengths", options.lengths().to_json()),
    ]);
    println!("== host ==");
    for (key, value) in &host_block {
        println!("{key:<18} {}", value.compact());
    }
    let mut document = vec![
        ("benchmark", "mqx serving benchmark (ISSUE 11)".to_json()),
        ("host", obj(host_block)),
    ];
    if let Some(results) = &end_to_end {
        print_end_to_end(results, &spec, options.rounds());
        let by_workload = results
            .iter()
            .map(|r| (r.workload.name, end_to_end_json(r, &spec)));
        document.push(("end_to_end", obj(by_workload)));
    }
    if let Some(results) = &per_layer {
        print_per_layer(results, &spec);
        let by_workload = results
            .iter()
            .map(|r| (r.workload.name, per_layer_json(r, &spec)));
        document.push(("per_layer", obj(by_workload)));
    }
    let document = obj(document);
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("result.json"), document.pretty() + "\n"))
    {
        eprintln!("cannot write {}: {e}", out.join("result.json").display());
    }
    println!("{}", document.compact());

    let wrong: u64 = end_to_end
        .iter()
        .flatten()
        .map(|r| r.tally.wrong)
        .chain(per_layer.iter().flatten().map(|r| r.tally.wrong))
        .sum();
    let mut correct = wrong == 0;
    if let [_] = options.workloads[..] {
        let (line, line_correct) = contract_line(
            &spec,
            end_to_end.as_ref().and_then(|r| r.first()),
            per_layer.as_ref().and_then(|r| r.first()),
        );
        correct &= line_correct;
        println!("{}", line.compact());
    }
    i32::from(!correct)
}
