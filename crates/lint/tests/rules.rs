//! Fixture self-tests: every rule must fire on its known-bad snippet at
//! the exact `file:line` spans, stay silent on the known-good twin, and
//! the real workspace tree must scan clean (the `--deny` CI gate).

use mqx_lint::{lint_source, lint_sources, lint_workspace, Config, RuleId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn fixture(kind: &str, name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    (format!("fixtures/{kind}/{name}"), source)
}

/// A config that scopes the file-keyed rules (L4/L5) to the fixture
/// itself, so every rule is live on every fixture.
fn full_scope(path: &str) -> Config {
    Config {
        ordering_files: vec![path.to_owned()],
        hotpath_files: vec![path.to_owned()],
        ..Config::default()
    }
}

fn spans(path: &str, source: &str) -> Vec<(RuleId, u32)> {
    lint_source(path, source, &full_scope(path))
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn l1_fixture_fires_at_exact_spans() {
    let (path, source) = fixture("bad", "l1_missing_safety.rs");
    assert_eq!(spans(&path, &source), [(RuleId::L1, 3), (RuleId::L1, 10)]);
}

#[test]
fn l2_fixture_fires_at_exact_spans() {
    let (path, source) = fixture("bad", "l2_unguarded_intrinsics.rs");
    assert_eq!(spans(&path, &source), [(RuleId::L2, 4), (RuleId::L2, 6)]);
}

#[test]
fn l3_fixture_fires_at_exact_spans() {
    let (path, source) = fixture("bad", "l3_missing_domain_assert.rs");
    assert_eq!(spans(&path, &source), [(RuleId::L3, 2), (RuleId::L3, 8)]);
}

#[test]
fn l4_fixture_fires_at_exact_spans() {
    let (path, source) = fixture("bad", "l4_missing_ordering.rs");
    assert_eq!(spans(&path, &source), [(RuleId::L4, 4), (RuleId::L4, 8)]);
}

#[test]
fn l5_fixture_fires_at_exact_spans() {
    let (path, source) = fixture("bad", "l5_panics_in_hotpath.rs");
    assert_eq!(
        spans(&path, &source),
        [(RuleId::L5, 2), (RuleId::L5, 3), (RuleId::L5, 5)]
    );
}

#[test]
fn good_fixtures_scan_clean_under_every_rule() {
    for name in [
        "l1_safety.rs",
        "l2_guarded_intrinsics.rs",
        "l3_domain_asserts.rs",
        "l4_ordering.rs",
        "l5_no_panics.rs",
    ] {
        let (path, source) = fixture("good", name);
        let findings = spans(&path, &source);
        assert!(findings.is_empty(), "{name}: {findings:?}");
    }
}

#[test]
fn stale_allow_entries_fail_the_gate() {
    let (path, source) = fixture("bad", "l5_panics_in_hotpath.rs");
    let config = Config::parse(&format!(
        r#"[hotpath]
files = ["{path}"]

[[allow]]
rule = "L5"
file = "{path}"
contains = "y must be set"
reason = "suppresses the expect on line 3"

[[allow]]
rule = "L5"
file = "{path}"
contains = "code that was deleted"
reason = "matches no line any more"
"#
    ))
    .expect("config parses");
    let findings = lint_sources([(path.as_str(), source.as_str())], &config);
    let spans: Vec<(RuleId, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    // Lines 2 and 5 still fire; line 3 is suppressed; the second entry
    // suppressed nothing and is reported at its `[[allow]]` line.
    assert_eq!(
        spans,
        [
            (RuleId::L5, path.as_str(), 2),
            (RuleId::L5, path.as_str(), 5),
            (RuleId::L5, "lint.toml", 10),
        ]
    );
    assert!(findings[2].message.contains("stale"), "{}", findings[2]);
}

// ---- seeded generative test -----------------------------------------

/// One composable program fragment with its expected findings, as
/// `(rule, line offset within the snippet, 1-based)`.
struct Snippet {
    source: &'static str,
    expect: &'static [(RuleId, u32)],
}

/// The pool deliberately avoids cross-snippet interference: no snippet
/// contains a `*_detected`/`require_*` guard (which would silence L2
/// file-wide), and compositions separate snippets with more blank lines
/// than the L4 window so a good snippet's `// ORDERING:` comment cannot
/// leak into its neighbor.
const POOL: &[Snippet] = &[
    Snippet {
        source: "fn s0(p: *const u8) -> u8 {\n    unsafe { *p }\n}",
        expect: &[(RuleId::L1, 2)],
    },
    Snippet {
        source: "fn s1(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p }\n}",
        expect: &[],
    },
    Snippet {
        source: "fn s2() {\n    let v = _mm256_setzero_si256();\n    drop(v);\n}",
        expect: &[(RuleId::L2, 2)],
    },
    Snippet {
        source: "fn fold_lazy_inplace(q: u128, x: &mut [u128]) {\n    x[0] %= q;\n}",
        expect: &[(RuleId::L3, 1)],
    },
    Snippet {
        source: "fn fold_lazy_checked(q: u128, x: &mut [u128]) {\n    debug_assert_domain(x, q, \"in\");\n    x[0] %= q;\n}",
        expect: &[],
    },
    Snippet {
        source: "fn s5(c: &AtomicUsize) -> usize {\n    c.fetch_add(1, Ordering::Relaxed)\n}",
        expect: &[(RuleId::L4, 2)],
    },
    Snippet {
        source: "fn s6(c: &AtomicUsize) -> usize {\n    // ORDERING: statistics only\n    c.fetch_add(1, Ordering::Relaxed)\n}",
        expect: &[],
    },
    Snippet {
        source: "fn s7(x: Option<u32>) -> u32 {\n    x.unwrap()\n}",
        expect: &[(RuleId::L5, 2)],
    },
    Snippet {
        source: "fn s8(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}",
        expect: &[],
    },
    Snippet {
        source: "fn s9(x: u32) -> u32 {\n    if x > 7 {\n        panic!(\"nope\");\n    }\n    x\n}",
        expect: &[(RuleId::L5, 3)],
    },
];

/// Blank lines between snippets — strictly more than the default L4
/// window so comments cannot justify a neighbor's atomics.
const GAP: u32 = 12;

#[test]
fn seeded_random_compositions_report_exact_findings() {
    for seed in 0..25_u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        // Sample a distinct subset in random order (L2 fires only once
        // per file, so no snippet may repeat).
        let mut order: Vec<usize> = (0..POOL.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range_u64(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let count = 1 + rng.gen_range_u64(POOL.len() as u64) as usize;
        order.truncate(count);

        let mut source = String::new();
        let mut expected: Vec<(RuleId, u32)> = Vec::new();
        let mut line = 1_u32;
        let mut saw_l2 = false;
        for &idx in &order {
            let snippet = &POOL[idx];
            source.push_str(snippet.source);
            source.push('\n');
            for &(rule, offset) in snippet.expect {
                // L2's intrinsic finding is per-file: only the first
                // unguarded intrinsic is reported.
                if rule == RuleId::L2 {
                    if saw_l2 {
                        continue;
                    }
                    saw_l2 = true;
                }
                expected.push((rule, line + offset - 1));
            }
            line += snippet.source.lines().count() as u32;
            for _ in 0..GAP {
                source.push('\n');
            }
            line += GAP;
        }
        expected.sort();

        let mut got = spans("src/generated.rs", &source);
        got.sort();
        assert_eq!(got, expected, "seed {seed}, order {order:?}\n{source}");
    }
}

// ---- whole-tree gate -------------------------------------------------

#[test]
fn workspace_tree_is_clean_under_deny() {
    // crates/lint -> workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root exists")
        .to_path_buf();
    let config = Config::load(&root.join("lint.toml")).expect("lint.toml parses");
    let outcome = lint_workspace(&root, &config).expect("workspace scan succeeds");
    assert!(
        outcome.findings.is_empty(),
        "the tree must stay clean for the --deny CI gate:\n{}",
        outcome
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(outcome.files_scanned > 100, "sanity: real tree was walked");
}
