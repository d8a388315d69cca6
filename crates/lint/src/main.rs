//! The `mqx_lint` binary — the CI gate.
//!
//! ```text
//! cargo run --release -p mqx_lint -- --deny
//! ```
//!
//! Options:
//!
//! * `--deny`            exit non-zero when any rule fires (CI mode)
//! * `--root <dir>`      workspace root (default: nearest ancestor with lint.toml)
//! * `--config <file>`   lint config (default: `<root>/lint.toml`)
//! * `--report <file>`   JSON artifact (default: `<root>/repro_results/lint_report.json`)
//! * `--quiet`           suppress per-finding diagnostics
//! * `--explain`         print the rule table and exit
//! * `--api`             print the facade's public surface (one sorted
//!   line per `pub` item of `src/`, as committed in `api.txt`) and its
//!   count, and exit

use mqx_lint::{api, find_root, lint_workspace, report, Config, RuleId};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut quiet = false;
    let mut list_api = false;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--quiet" => quiet = true,
            "--api" => list_api = true,
            "--explain" => {
                for rule in RuleId::all() {
                    println!("{rule}: {}", rule.description());
                }
                return ExitCode::SUCCESS;
            }
            "--root" => root = args.next().map(PathBuf::from),
            "--config" => config_path = args.next().map(PathBuf::from),
            "--report" => report_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "mqx_lint: in-tree static analysis (rules L1-L5)\n\
                     usage: mqx_lint [--deny] [--quiet] [--explain] [--api] \
                     [--root DIR] [--config FILE] [--report FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mqx_lint: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root.unwrap_or_else(|| find_root(&cwd));
    if list_api {
        return match api::api_surface(&root) {
            Ok(lines) => {
                for line in &lines {
                    println!("{line}");
                }
                // The count goes to stderr, so stdout is exactly api.txt.
                eprintln!("mqx_lint: {} public item(s) in src/", lines.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mqx_lint: scan failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let report_path = report_path.unwrap_or_else(|| root.join("repro_results/lint_report.json"));

    let config = match Config::load(&config_path) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("mqx_lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match lint_workspace(&root, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("mqx_lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !quiet {
        for finding in &outcome.findings {
            println!("{finding}");
        }
    }
    let json = report::report_json(
        &root.display().to_string(),
        outcome.files_scanned,
        &outcome.findings,
        &config,
        deny,
    );
    if let Some(parent) = report_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&report_path, json.pretty() + "\n") {
        Ok(()) => {
            if !quiet {
                println!("report: {}", report_path.display());
            }
        }
        Err(e) => eprintln!("mqx_lint: could not write {}: {e}", report_path.display()),
    }

    let per_rule: Vec<String> = RuleId::all()
        .iter()
        .map(|rule| {
            let n = outcome.findings.iter().filter(|f| f.rule == *rule).count();
            format!("{rule}={n}")
        })
        .collect();
    println!(
        "mqx_lint: {} files scanned, {} finding(s) [{}]{}",
        outcome.files_scanned,
        outcome.findings.len(),
        per_rule.join(" "),
        if deny { " (--deny)" } else { "" }
    );

    if deny && !outcome.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
