//! `mqx_lint` — in-tree static analysis for the MQX workspace.
//!
//! The performance layers of this repo live dangerously on purpose:
//! hand-rolled AVX2/AVX-512 intrinsics, a work-stealing executor with
//! hand-ordered atomics, and lazy-reduction NTT kernels whose
//! `[0,2q)`/`[0,4q)` coefficient domains are pure convention. This crate makes those conventions *mechanical*: a
//! token-level source scanner (no `syn`, no dylint — fully offline,
//! like the in-tree `mqx_json` parser) walks the workspace and enforces
//! five repo-specific rules; see [`rules::RuleId`] for the list and
//! the README's "Correctness tooling" section for the conventions.
//!
//! Run it as the CI gate does:
//!
//! ```text
//! cargo run --release -p mqx_lint -- --deny
//! ```
//!
//! The binary prints `file:line: [Lx] message` diagnostics, writes a
//! machine-readable `repro_results/lint_report.json`, and (under
//! `--deny`) exits non-zero when any rule fires. File-scoped rules
//! (L4/L5) and suppressions are configured in the workspace-root
//! `lint.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::{Allow, Config, ConfigError};
pub use rules::{Finding, RuleId};

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, the vendored
/// dependency shim (externally-shaped code with its own conventions),
/// and the lint's own known-bad fixture snippets.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// Top-level directories that contain Rust sources worth scanning.
const SCAN_ROOTS: [&str; 4] = ["src", "crates", "tests", "examples"];

/// Collects every `.rs` file under the workspace `root`, as sorted
/// workspace-relative paths with forward slashes.
///
/// # Errors
///
/// Propagates filesystem errors from directory traversal.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect(&dir, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect(dir: &Path, root: &Path, files: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect(&path, root, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(rel);
        }
    }
    Ok(())
}

/// Lints one in-memory source file. `path` is the workspace-relative
/// path (it scopes the file-keyed rules L4/L5 and the allowlist).
pub fn lint_source(path: &str, source: &str, config: &Config) -> Vec<Finding> {
    rules::check_file(path, &lexer::scan(source), config)
}

/// The result of a whole-workspace scan.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Every finding, ordered by file then line; stale `[[allow]]`
    /// entries last.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lints a whole set of `(path, source)` files, as
/// [`lint_workspace`] does. An `[[allow]]` entry that suppressed no
/// finding in any of them is reported too, as a finding of its rule at
/// its line in `lint.toml`: a suppression must not outlive the code it
/// covered.
pub fn lint_sources<'a>(
    sources: impl IntoIterator<Item = (&'a str, &'a str)>,
    config: &Config,
) -> Vec<Finding> {
    let mut used = vec![false; config.allows.len()];
    let mut findings = Vec::new();
    for (path, source) in sources {
        findings.extend(rules::check_file_marking(
            path,
            &lexer::scan(source),
            config,
            &mut used,
        ));
    }
    // `Config::parse` rejects an entry naming no rule.
    for (allow, _) in config.allows.iter().zip(used).filter(|(_, used)| !used) {
        if let Some(rule) = RuleId::parse(&allow.rule) {
            findings.push(Finding {
                rule,
                file: "lint.toml".to_owned(),
                line: allow.line,
                message: format!(
                    "stale [[allow]]: no {rule} finding in {} is on a line containing `{}`; \
                     delete the entry",
                    allow.file, allow.contains
                ),
            });
        }
    }
    findings
}

/// Walks the workspace at `root` and runs every rule over every source
/// file (see [`lint_sources`]).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable file or directory).
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<ScanOutcome> {
    let files = workspace_files(root)?;
    let sources = files
        .iter()
        .map(|rel| std::fs::read_to_string(root.join(rel)))
        .collect::<io::Result<Vec<_>>>()?;
    let findings = lint_sources(
        files
            .iter()
            .map(String::as_str)
            .zip(sources.iter().map(String::as_str)),
        config,
    );
    Ok(ScanOutcome {
        findings,
        files_scanned: files.len(),
    })
}

/// Finds the workspace root: the nearest ancestor of `start` (including
/// `start` itself) containing a `lint.toml`. Falls back to `start`.
pub fn find_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_locates_the_workspace_lint_toml() {
        // CARGO_MANIFEST_DIR is crates/lint; the workspace root is two up.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here);
        assert!(root.join("lint.toml").is_file());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn workspace_walk_skips_fixtures_and_target() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here);
        let files = workspace_files(&root).expect("walk succeeds");
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(files.iter().any(|f| f == "crates/lint/src/lib.rs"));
        assert!(
            !files.iter().any(|f| f.contains("fixtures/")),
            "known-bad fixtures must not be scanned as workspace code"
        );
        assert!(!files.iter().any(|f| f.contains("target/")));
        assert!(!files.iter().any(|f| f.contains("vendor/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "deterministic order for stable reports");
    }
}
