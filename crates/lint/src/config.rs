//! `lint.toml` — the repo-level configuration for `mqx_lint`.
//!
//! The parser accepts the small TOML subset the config actually uses
//! (no external dependency, like everything else in this workspace):
//! `[section]` tables, `[[allow]]` array-of-tables, string and integer
//! values, and single- or multi-line string arrays. Anything else is a
//! hard error with a line number — a config typo must never silently
//! relax a rule.
//!
//! ```toml
//! [ordering]
//! files = ["src/scratch.rs", "src/executor.rs"]
//! window = 10
//!
//! [hotpath]
//! files = ["src/scratch.rs"]
//!
//! [[allow]]
//! rule = "L5"
//! file = "src/scratch.rs"
//! contains = "buffer present until drop"
//! reason = "guard invariant: buf is Some until drop"
//! ```

use crate::rules::RuleId;
use std::fmt;
use std::path::Path;

/// One suppression entry: a finding of `rule` in `file` whose source
/// line contains `contains` is dropped (an empty `contains` matches any
/// line). `reason` is mandatory documentation — the report records it.
/// An entry that suppresses nothing in a whole-workspace scan is itself
/// reported (see [`lint_sources`](crate::lint_sources)).
#[derive(Debug, Clone, Default)]
pub struct Allow {
    /// Rule ID, e.g. `"L5"`.
    pub rule: String,
    /// Workspace-relative file the suppression applies to.
    pub file: String,
    /// Substring the offending source line must contain.
    pub contains: String,
    /// Why this site is exempt.
    pub reason: String,
    /// 1-based line of the entry's `[[allow]]` header in `lint.toml`
    /// (0 for an entry built in code).
    pub line: u32,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files whose atomic accesses require `// ORDERING:` comments (L4).
    pub ordering_files: Vec<String>,
    /// How many lines above an atomic access an `// ORDERING:` comment
    /// still covers.
    pub ordering_window: u32,
    /// Hot-path files where `unwrap`/`expect`/`panic!` are banned (L5).
    pub hotpath_files: Vec<String>,
    /// Suppressions.
    pub allows: Vec<Allow>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            ordering_files: Vec::new(),
            ordering_window: 10,
            hotpath_files: Vec::new(),
            allows: Vec::new(),
        }
    }
}

/// A `lint.toml` parse failure, with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending entry (0 for I/O errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

impl Config {
    /// Loads and parses `path`. A missing file is an error — the
    /// workspace ships a `lint.toml`; losing it must not silently turn
    /// the file-scoped rules off.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
        Config::parse(&text)
    }

    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section = String::new();
        let lines: Vec<&str> = text.lines().collect();
        let mut i = 0;
        while i < lines.len() {
            let lineno = i + 1;
            let line = strip_comment(lines[i]).trim().to_owned();
            i += 1;
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                if name.trim() != "allow" {
                    return Err(err(lineno, format!("unknown array table [[{name}]]")));
                }
                section = "allow".to_owned();
                config.allows.push(Allow {
                    line: lineno as u32,
                    ..Allow::default()
                });
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let name = name.trim();
                if name != "ordering" && name != "hotpath" {
                    return Err(err(lineno, format!("unknown section [{name}]")));
                }
                section = name.to_owned();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
            };
            let key = key.trim();
            let mut value = value.trim().to_owned();
            // Multi-line array: keep appending lines until brackets
            // balance outside strings.
            while value.starts_with('[') && !array_closed(&value) {
                if i >= lines.len() {
                    return Err(err(lineno, format!("unterminated array for `{key}`")));
                }
                value.push(' ');
                value.push_str(strip_comment(lines[i]).trim());
                i += 1;
            }
            apply(&mut config, &section, key, &value, lineno)?;
        }
        Ok(config)
    }
}

/// Strips a `#` comment, respecting `"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Whether a `[...]` array value's brackets balance outside strings.
fn array_closed(value: &str) -> bool {
    let mut depth = 0_i32;
    let mut in_str = false;
    let mut prev_backslash = false;
    for c in value.chars() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    depth == 0
}

fn apply(
    config: &mut Config,
    section: &str,
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<(), ConfigError> {
    match (section, key) {
        ("ordering", "files") => config.ordering_files = parse_string_array(value, lineno)?,
        ("ordering", "window") => {
            config.ordering_window = value
                .parse()
                .map_err(|_| err(lineno, format!("window must be an integer, got `{value}`")))?;
        }
        ("hotpath", "files") => config.hotpath_files = parse_string_array(value, lineno)?,
        ("allow", _) => {
            let entry = config
                .allows
                .last_mut()
                .ok_or_else(|| err(lineno, "key outside any [[allow]] table"))?;
            let s = parse_string(value, lineno)?;
            match key {
                "rule" if RuleId::parse(&s).is_none() => {
                    return Err(err(lineno, format!("unknown rule `{s}`")))
                }
                "rule" => entry.rule = s,
                "file" => entry.file = s,
                "contains" => entry.contains = s,
                "reason" => entry.reason = s,
                _ => return Err(err(lineno, format!("unknown [[allow]] key `{key}`"))),
            }
        }
        _ => {
            return Err(err(
                lineno,
                format!("unknown key `{key}` in section [{section}]"),
            ))
        }
    }
    Ok(())
}

fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(lineno, format!("expected a \"string\", got `{value}`")))?;
    // The config never needs escapes beyond \" — reject the rest so a
    // typo cannot silently change what a suppression matches.
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => {
                    return Err(err(
                        lineno,
                        format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                    ))
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(lineno, format!("expected an array, got `{value}`")))?;
    let mut out = Vec::new();
    for item in split_top_level(inner) {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

/// Splits on commas outside strings.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut prev_backslash = false;
    for (idx, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let config = Config::parse(
            r#"
# comment
[ordering]
files = [
    "src/a.rs", # trailing comment
    "src/b.rs",
]
window = 12

[hotpath]
files = ["src/a.rs"]

[[allow]]
rule = "L5"
file = "src/a.rs"
contains = "expect(\"ok\")"
reason = "why"

[[allow]]
rule = "L3"
file = "src/b.rs"
contains = ""
reason = "delegates"
"#,
        )
        .unwrap();
        assert_eq!(config.ordering_files, ["src/a.rs", "src/b.rs"]);
        assert_eq!(config.ordering_window, 12);
        assert_eq!(config.hotpath_files, ["src/a.rs"]);
        assert_eq!(config.allows.len(), 2);
        assert_eq!(config.allows[0].contains, "expect(\"ok\")");
        assert_eq!(config.allows[1].rule, "L3");
        assert_eq!((config.allows[0].line, config.allows[1].line), (13, 19));
    }

    #[test]
    fn unknown_sections_and_keys_error_with_lines() {
        assert_eq!(Config::parse("[bogus]").unwrap_err().line, 1);
        assert!(Config::parse("[ordering]\nnope = 3").unwrap_err().line == 2);
        assert!(Config::parse("[[allow]]\nrule = unquoted").is_err());
        assert_eq!(
            Config::parse("[[allow]]\nrule = \"L9\"").unwrap_err().line,
            2
        );
    }

    #[test]
    fn default_window_is_ten() {
        assert_eq!(Config::parse("").unwrap().ordering_window, 10);
    }
}
