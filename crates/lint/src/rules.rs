//! The five repo-specific rules.
//!
//! | ID | Contract |
//! |----|----------|
//! | L1 | every `unsafe` block/fn/impl carries a `// SAFETY:` comment directly above (attributes and further comment lines may intervene) |
//! | L2 | every `#[target_feature]` fn — and any file calling `_mm*` intrinsics — has a runtime-detection guard (`*_detected()` or a `require_*` panic guard) in the same file |
//! | L3 | every in-place `*_lazy_*` / `*_fused_*` kernel (a fn with `lazy`/`fused` in its name taking `&mut` data) carries a `debug_assert` domain check for its `[0,2q)`/`[0,4q)` contract |
//! | L4 | every atomic access in the configured concurrency files carries an `// ORDERING:` justification comment within the configured window |
//! | L5 | no `unwrap()` / `expect()` / `panic!` / `todo!` / `unimplemented!` / `unreachable!` in the configured hot-path files (allowlist via `lint.toml`) |
//!
//! All rules skip `#[cfg(test)]` regions: test code asserts freely.

use crate::config::Config;
use crate::lexer::{ScannedFile, Token};
use std::fmt;

/// A rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `// SAFETY:` comments on unsafe code.
    L1,
    /// Runtime-detection guards for `#[target_feature]` / intrinsics.
    L2,
    /// `debug_assert` domain checks on lazy/fused kernels.
    L3,
    /// `// ORDERING:` comments on atomic accesses.
    L4,
    /// No panicking calls in hot paths.
    L5,
}

impl RuleId {
    /// The stable ID string (`"L1"`..`"L5"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::L1 => "L1",
            RuleId::L2 => "L2",
            RuleId::L3 => "L3",
            RuleId::L4 => "L4",
            RuleId::L5 => "L5",
        }
    }

    /// One-line description, used by `--explain` style output and docs.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::L1 => "unsafe block/fn/impl without a `// SAFETY:` comment directly above",
            RuleId::L2 => {
                "#[target_feature] fn or SIMD intrinsic use without a runtime-detection \
                 guard (`*_detected()` or `require_*`) in the same file"
            }
            RuleId::L3 => {
                "in-place lazy/fused kernel without a `debug_assert` coefficient-domain check"
            }
            RuleId::L4 => "atomic access without an `// ORDERING:` justification comment",
            RuleId::L5 => "panicking call (`unwrap`/`expect`/`panic!`/...) in a hot-path file",
        }
    }

    /// The rule with ID string `id` (`"L1"`..`"L5"`).
    pub fn parse(id: &str) -> Option<RuleId> {
        RuleId::all().into_iter().find(|rule| rule.as_str() == id)
    }

    /// All rules, in ID order.
    pub fn all() -> [RuleId; 5] {
        [RuleId::L1, RuleId::L2, RuleId::L3, RuleId::L4, RuleId::L5]
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: a rule fired at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Find the item's opening brace and match it.
            let mut j = i;
            while j < tokens.len() && tokens[j].text != "{" {
                j += 1;
            }
            if let Some(end) = match_brace(tokens, j) {
                ranges.push((tokens[i].line, tokens[end].line));
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Whether tokens at `i` start `#[cfg(...test...)]`.
pub(crate) fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if tokens[i].text != "#"
        || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[")
        || tokens.get(i + 2).map(|t| t.text.as_str()) != Some("cfg")
        || tokens.get(i + 3).map(|t| t.text.as_str()) != Some("(")
    {
        return false;
    }
    // Scan the cfg predicate for the `test` ident.
    let mut depth = 0;
    for tok in &tokens[i + 3..] {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "test" => return true,
            _ => {}
        }
    }
    false
}

/// Index of the `}` matching the `{` at `open`, if any.
fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    if tokens.get(open)?.text != "{" {
        return None;
    }
    let mut depth = 0_i64;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Runs every applicable rule over one scanned file. `path` is the
/// workspace-relative path with forward slashes; it scopes L4/L5.
/// Suppressions from `config.allows` are already applied here.
pub fn check_file(path: &str, scanned: &ScannedFile, config: &Config) -> Vec<Finding> {
    check_file_marking(path, scanned, config, &mut vec![false; config.allows.len()])
}

/// [`check_file`], also setting `used[i]` when `config.allows[i]`
/// suppressed a finding.
pub(crate) fn check_file_marking(
    path: &str,
    scanned: &ScannedFile,
    config: &Config,
    used: &mut [bool],
) -> Vec<Finding> {
    let tests = test_ranges(&scanned.tokens);
    let mut findings = Vec::new();
    rule_l1_safety_comments(path, scanned, &tests, &mut findings);
    rule_l2_feature_guards(path, scanned, &mut findings);
    rule_l3_relaxed_domain_asserts(path, scanned, &tests, &mut findings);
    if config.ordering_files.iter().any(|f| f == path) {
        rule_l4_ordering_comments(path, scanned, config.ordering_window, &mut findings);
    }
    if config.hotpath_files.iter().any(|f| f == path) {
        rule_l5_no_panics(path, scanned, &tests, &mut findings);
    }
    findings.retain(|finding| {
        let suppressor = config.allows.iter().position(|allow| {
            allow.rule == finding.rule.as_str()
                && allow.file == finding.file
                && scanned.line_text(finding.line).contains(&allow.contains)
        });
        if let Some(i) = suppressor {
            used[i] = true;
        }
        suppressor.is_none()
    });
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// L1: walk upward from the `unsafe` token looking for a `SAFETY:`
/// comment. The walk crosses pure-comment lines and attribute lines;
/// any other code line (or a blank line) breaks it — the justification
/// must sit *directly* on the site it justifies.
fn rule_l1_safety_comments(
    path: &str,
    scanned: &ScannedFile,
    tests: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    for tok in &scanned.tokens {
        if tok.text != "unsafe" || in_ranges(tests, tok.line) {
            continue;
        }
        if !safety_covered(scanned, tok.line) {
            findings.push(Finding {
                rule: RuleId::L1,
                file: path.to_owned(),
                line: tok.line,
                message: "`unsafe` without a `// SAFETY:` comment directly above \
                          (rule L1; see lint.toml / README \"Correctness tooling\")"
                    .to_owned(),
            });
        }
    }
}

fn safety_covered(scanned: &ScannedFile, line: u32) -> bool {
    if scanned.comment_on(line).contains("SAFETY:") {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let comment = scanned.comment_on(l);
        let pure_comment = !scanned.line_has_code(l) && !comment.is_empty();
        if pure_comment {
            if comment.contains("SAFETY:") {
                return true;
            }
            l -= 1;
            continue;
        }
        let trimmed = scanned.line_text(l).trim_start();
        if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
            l -= 1;
            continue;
        }
        return false;
    }
    false
}

/// L2: `#[target_feature]` fns and `_mm*` intrinsic calls demand a
/// runtime-detection guard somewhere in the same file — an identifier
/// ending in `_detected` (the registry's probes, or
/// `is_x86_feature_detected!`) or starting with `require_` (the
/// engines' panic guards).
fn rule_l2_feature_guards(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let has_guard = scanned
        .tokens
        .iter()
        .any(|t| t.is_ident() && (t.text.ends_with("_detected") || t.text.starts_with("require_")));
    if has_guard {
        return;
    }
    let mut first_intrinsic: Option<u32> = None;
    for (i, tok) in scanned.tokens.iter().enumerate() {
        if tok.text == "target_feature"
            && i >= 2
            && scanned.tokens[i - 1].text == "["
            && scanned.tokens[i - 2].text == "#"
        {
            findings.push(Finding {
                rule: RuleId::L2,
                file: path.to_owned(),
                line: tok.line,
                message: "`#[target_feature]` fn with no runtime-detection guard \
                          (`*_detected()` or `require_*`) in this file (rule L2)"
                    .to_owned(),
            });
        }
        if first_intrinsic.is_none() && tok.is_ident() && tok.text.starts_with("_mm") {
            first_intrinsic = Some(tok.line);
        }
    }
    if let Some(line) = first_intrinsic {
        findings.push(Finding {
            rule: RuleId::L2,
            file: path.to_owned(),
            line,
            message: "SIMD intrinsics used with no runtime-detection guard \
                      (`*_detected()` or `require_*`) in this file (rule L2)"
                .to_owned(),
        });
    }
}

/// L3: a fn whose snake_case name contains a `lazy` or `fused` segment
/// *and* takes `&mut` data is an in-place relaxed-domain kernel; its
/// body must contain a `debug_assert*` call (the `[0,2q)`/`[0,4q)`
/// domain checks). Pure value-level helpers (`mul_lazy`,
/// `addmod_lazy`) and accessors are naturally exempt — they take no
/// `&mut` buffer.
fn rule_l3_relaxed_domain_asserts(
    path: &str,
    scanned: &ScannedFile,
    tests: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    let tokens = &scanned.tokens;
    for i in 0..tokens.len() {
        if tokens[i].text != "fn" || in_ranges(tests, tokens[i].line) {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if !name_tok.is_ident() || !has_lazy_segment(&name_tok.text) {
            continue;
        }
        // Signature: first `(` after the name (skips generics) to its
        // matching `)`.
        let mut j = i + 2;
        while j < tokens.len() && tokens[j].text != "(" {
            j += 1;
        }
        let mut depth = 0_i64;
        let mut sig_end = j;
        let mut takes_mut_ref = false;
        while sig_end < tokens.len() {
            match tokens[sig_end].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "&" if tokens.get(sig_end + 1).map(|t| t.text.as_str()) == Some("mut") => {
                    takes_mut_ref = true;
                }
                _ => {}
            }
            sig_end += 1;
        }
        if !takes_mut_ref {
            continue;
        }
        // Body: next `{`, unless a `;` ends a bodyless declaration first.
        let mut k = sig_end + 1;
        let mut body_open = None;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                ";" => break,
                "{" => {
                    body_open = Some(k);
                    break;
                }
                _ => k += 1,
            }
        }
        let Some(open) = body_open else {
            continue; // trait declaration without a default body
        };
        let Some(close) = match_brace(tokens, open) else {
            continue;
        };
        let has_assert = tokens[open..=close]
            .iter()
            .any(|t| t.is_ident() && t.text.starts_with("debug_assert"));
        if !has_assert {
            findings.push(Finding {
                rule: RuleId::L3,
                file: path.to_owned(),
                line: tokens[i].line,
                message: format!(
                    "lazy/fused kernel `{}` mutates coefficients but has no \
                     `debug_assert` domain check for its [0,2q)/[0,4q) contract (rule L3)",
                    name_tok.text
                ),
            });
        }
    }
}

fn has_lazy_segment(name: &str) -> bool {
    name.split('_').any(|seg| seg == "lazy" || seg == "fused")
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// L4: every `Ordering::<X>` in a configured file needs an
/// `// ORDERING:` comment on the same line or within `window` lines
/// above (one comment may justify a short run of related accesses).
fn rule_l4_ordering_comments(
    path: &str,
    scanned: &ScannedFile,
    window: u32,
    findings: &mut Vec<Finding>,
) {
    let tokens = &scanned.tokens;
    for i in 0..tokens.len() {
        if tokens[i].text != "Ordering" {
            continue;
        }
        if tokens.get(i + 1).map(|t| t.text.as_str()) != Some(":")
            || tokens.get(i + 2).map(|t| t.text.as_str()) != Some(":")
        {
            continue;
        }
        let Some(which) = tokens.get(i + 3) else {
            continue;
        };
        if !ATOMIC_ORDERINGS.contains(&which.text.as_str()) {
            continue;
        }
        let line = tokens[i].line;
        let covered = (line.saturating_sub(window)..=line)
            .any(|l| l >= 1 && scanned.comment_on(l).contains("ORDERING:"));
        if !covered {
            findings.push(Finding {
                rule: RuleId::L4,
                file: path.to_owned(),
                line,
                message: format!(
                    "atomic access with `Ordering::{}` has no `// ORDERING:` \
                     justification within {window} lines (rule L4)",
                    which.text
                ),
            });
        }
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// L5: `.unwrap()`, `.expect(`, and panicking macros are banned in the
/// configured hot-path files outside test code.
fn rule_l5_no_panics(
    path: &str,
    scanned: &ScannedFile,
    tests: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    let tokens = &scanned.tokens;
    let mut push = |line: u32, what: &str| {
        findings.push(Finding {
            rule: RuleId::L5,
            file: path.to_owned(),
            line,
            message: format!(
                "`{what}` in a hot-path file (rule L5; justify via a \
                 [[allow]] entry in lint.toml or return an Error)"
            ),
        });
    };
    for i in 0..tokens.len() {
        let line = tokens[i].line;
        if in_ranges(tests, line) {
            continue;
        }
        let text = tokens[i].text.as_str();
        if text == "."
            && matches!(
                tokens.get(i + 1).map(|t| t.text.as_str()),
                Some("unwrap" | "expect")
            )
            && tokens.get(i + 2).map(|t| t.text.as_str()) == Some("(")
        {
            push(tokens[i + 1].line, &format!(".{}()", tokens[i + 1].text));
        }
        if PANIC_MACROS.contains(&text) && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("!") {
            push(line, &format!("{text}!"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn check(path: &str, src: &str, config: &Config) -> Vec<Finding> {
        check_file(path, &scan(src), config)
    }

    #[test]
    fn l1_fires_without_and_passes_with_safety() {
        let config = Config::default();
        let bad = "fn f() { unsafe { g() } }";
        let findings = check("a.rs", bad, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::L1);

        let good = "fn f() {\n    // SAFETY: g is fine\n    unsafe { g() }\n}";
        assert!(check("a.rs", good, &config).is_empty());

        // Attributes may sit between the comment and the unsafe item.
        let attr = "// SAFETY: whole impl\n#[allow(dead_code)]\nunsafe impl Send for X {}";
        assert!(check("a.rs", attr, &config).is_empty());

        // A code line breaks the chain.
        let broken = "// SAFETY: stale\nlet x = 1;\nunsafe { g() }";
        assert_eq!(check("a.rs", broken, &config).len(), 1);
    }

    #[test]
    fn l1_ignores_test_modules_and_strings() {
        let config = Config::default();
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { g() } }\n}";
        assert!(check("a.rs", src, &config).is_empty());
        let s = r#"fn f() { let m = "unsafe"; }"#;
        assert!(check("a.rs", s, &config).is_empty());
    }

    #[test]
    fn l2_fires_on_unguarded_target_feature_and_intrinsics() {
        let config = Config::default();
        let bad = "#[target_feature(enable = \"avx2\")]\nunsafe fn k() { _mm256_add_epi64(a, b); }\n// SAFETY: n/a";
        let findings = check("a.rs", bad, &config);
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&RuleId::L2), "{findings:?}");

        let good = "fn require_avx2() { assert!(avx2_detected()); }\n#[target_feature(enable = \"avx2\")]\n// SAFETY: guarded\nunsafe fn k() { _mm256_add_epi64(a, b); }";
        assert!(
            check("a.rs", good, &config)
                .iter()
                .all(|f| f.rule != RuleId::L2),
            "guard in file silences L2"
        );
    }

    #[test]
    fn l3_fires_on_assertless_inplace_kernels_only() {
        let config = Config::default();
        let bad = "pub fn forward_lazy_scalar(&self, x: &mut [u128]) { body(x); }";
        let findings = check("a.rs", bad, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::L3);
        assert_eq!(findings[0].line, 1);

        let good =
            "pub fn forward_lazy_scalar(&self, x: &mut [u128]) { debug_assert_domain(x, q); }";
        assert!(check("a.rs", good, &config).is_empty());

        // Pure value helpers and accessors are exempt (no `&mut`).
        let pure = "pub fn mul_lazy(x: u128, w: u128) -> u128 { x * w }";
        assert!(check("a.rs", pure, &config).is_empty());
        let decl = "fn polymul_fused(&self, a: &mut X);";
        assert!(check("a.rs", decl, &config).is_empty());
    }

    #[test]
    fn l4_respects_window_and_file_scope() {
        let config = Config {
            ordering_files: vec!["src/x.rs".to_owned()],
            ..Config::default()
        };
        let bad = "fn f() { a.load(Ordering::Relaxed); }";
        let findings = check("src/x.rs", bad, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::L4);
        // Same source in an unscoped file: silent.
        assert!(check("src/y.rs", bad, &config).is_empty());

        let good =
            "// ORDERING: counter, no synchronization\nfn f() { a.load(Ordering::Relaxed); }";
        assert!(check("src/x.rs", good, &config).is_empty());
    }

    #[test]
    fn l5_fires_in_hotpath_files_with_allowlist() {
        let mut config = Config {
            hotpath_files: vec!["src/x.rs".to_owned()],
            ..Config::default()
        };
        let bad = "fn f() {\n    x.unwrap();\n    y.expect(\"m\");\n    panic!(\"no\");\n}";
        let findings = check("src/x.rs", bad, &config);
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.rule == RuleId::L5));

        config.allows.push(crate::config::Allow {
            rule: "L5".to_owned(),
            file: "src/x.rs".to_owned(),
            contains: "expect(\"m\")".to_owned(),
            reason: "test".to_owned(),
            line: 0,
        });
        let after = check("src/x.rs", bad, &config);
        assert_eq!(after.len(), 2, "{after:?}");
    }
}
