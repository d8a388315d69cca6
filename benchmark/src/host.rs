//! What the run ran on: `/proc` readers for CPU time and memory, and
//! the host block every output carries.

use mqx_json::{Json, ToJson};
use std::process::Command;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed
/// at 100 by the Linux ABI on every architecture the repo builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat`; `0.0` where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields are counted after the parenthesised command name, which
    // may itself contain spaces: state is field 3, utime 14, stime 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) of this process in MiB; `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Executor workers: one generator thread plus these stay within
/// `max(2, nproc)` threads.
pub fn workers() -> usize {
    nproc().min(4).saturating_sub(1).max(1)
}

/// Parses a kernel CPU list such as `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (first, last) = range.split_once('-').unwrap_or((range, range));
            Some(first.parse::<usize>().ok()?..=last.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The CPUs this process may run on (`Cpus_allowed_list`); empty where
/// `/proc` is unavailable.
fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            Some(parse_cpu_list(list))
        })
        .unwrap_or_default()
}

/// The `taskset` prefix that confines a round's process to every
/// allowed CPU but the first, which is left to the driver, the kernel's
/// housekeeping and the host's interrupts; `None` (run unconfined) on a
/// one-CPU host or where `taskset` does not work.
///
/// On the 2-vCPU sandbox this is one CPU for generator and worker
/// together, and that is the point: left to the scheduler the pair is
/// sometimes stacked on one vCPU and sometimes spread over both, and
/// spread, the hypervisor sometimes gives the two vCPUs one core and
/// sometimes two. Identical code then reads 9.5 k or 12.6 k req/s on
/// `word_add`, with the light-phase latency at 79 µs or 160–230 µs, for
/// minutes at a time. Confined, the same rounds agree within a few
/// percent. What it costs is in README.md.
pub fn confine() -> Option<Vec<String>> {
    let cpus = allowed_cpus();
    let list = cpus
        .get(1..)?
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let prefix = vec!["taskset".to_string(), "-c".to_string(), list];
    let works = Command::new(&prefix[0])
        .args(&prefix[1..])
        .arg("true")
        .status()
        .is_ok_and(|status| status.success());
    (works && cpus.len() > 1).then_some(prefix)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, asked of git only when the repository root
/// is a git work tree itself: the benchmark must not read a repository
/// further up the directory tree.
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    if root.exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// The part of the host block the driver process knows by itself; the
/// per-ring backend selection and the calibration ranking are measured
/// in the round processes and added from their reports.
pub fn describe() -> Vec<(&'static str, Json)> {
    vec![
        ("nproc", nproc().to_json()),
        ("workers", workers().to_json()),
        ("threads_per_child", (workers() + 1).to_json()),
        ("cpu_model", cpu_model().to_json()),
        ("simd_tiers", mqx::simd::tier_summary().to_json()),
        ("rustc", command_line("rustc", &["--version"]).to_json()),
        ("git_commit", git_commit().to_json()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("\t0,2-4,7"), [0, 2, 3, 4, 7]);
        assert!(parse_cpu_list("").is_empty());
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(workers() >= 1 && workers() < nproc().max(2));
    }
}
