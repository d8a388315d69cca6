//! The public-surface listing behind `mqx_lint --api`: one sorted line
//! per `pub` item declared in the facade's `src/` outside
//! `#[cfg(test)]`, plus one per method (and associated type or const)
//! of a `pub trait`, each qualified by its type or trait. A function is
//! listed with its signature through its return type:
//!
//! ```text
//! crate::poly: fn PolyRing::join_at(&self, width: usize, channels: Vec<Vec<u128>>) -> Result<Coefficients, Error>
//! crate: use executor::{AdmissionStats, Canceller}
//! ```
//!
//! Inherent `impl` blocks qualify their `pub` items by the type; trait
//! impls add nothing (their methods are the trait's); the `pub` fields
//! of a `pub struct` are listed as `field`s. Restricted visibility
//! (`pub(crate)`, `pub(super)`) is not public. Signatures are rendered
//! from tokens, so line breaks, indentation and trailing commas do not
//! show; lifetimes and numeric literals are not tokens (see
//! [`lexer`]) and do not show either. The listing is
//! committed as `api.txt`, and CI diffs the two, so every change to the
//! surface — a changed parameter or return type included — shows up in
//! review.

use crate::lexer::{self, Token};
use crate::rules::is_cfg_test_attr;
use std::io;
use std::path::Path;

/// The public-surface lines of every `.rs` file under `root/src`,
/// sorted.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable file or directory).
pub fn api_surface(root: &Path) -> io::Result<Vec<String>> {
    let mut lines = Vec::new();
    for rel in crate::workspace_files(root)? {
        let Some(module) = module_path(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(root.join(&rel))?;
        lines.extend(file_surface(&module, &source));
    }
    lines.sort();
    Ok(lines)
}

/// The module path of a workspace-relative `src/` file (`crate` for
/// `src/lib.rs`, `crate::backend::calibrate` for
/// `src/backend/calibrate.rs`), or `None` for a file outside `src/`.
fn module_path(rel: &str) -> Option<String> {
    let path = rel.strip_prefix("src/")?.strip_suffix(".rs")?;
    let mut module = String::from("crate");
    for part in path.split('/') {
        if !matches!(part, "lib" | "mod" | "main") {
            module.push_str("::");
            module.push_str(part);
        }
    }
    Some(module)
}

/// The public-surface lines of one source file in module `module`,
/// unsorted.
pub fn file_surface(module: &str, source: &str) -> Vec<String> {
    let scanned = lexer::scan(source);
    let mut surface = Surface {
        tokens: &scanned.tokens,
        module,
        lines: Vec::new(),
    };
    surface.items(0, scanned.tokens.len(), Scope::Module);
    surface.lines
}

/// Where an item is declared.
#[derive(Clone, Copy)]
enum Scope<'a> {
    Module,
    /// An inherent `impl` block of this type.
    Impl(&'a str),
    /// The body of this `pub trait`: every item in it is public.
    Trait(&'a str),
}

struct Surface<'a> {
    tokens: &'a [Token],
    module: &'a str,
    lines: Vec<String>,
}

impl<'a> Surface<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn emit(&mut self, kind: &str, scope: Scope<'_>, name: &str) {
        let qualified = match scope {
            Scope::Module => name.to_owned(),
            Scope::Impl(ty) | Scope::Trait(ty) => format!("{ty}::{name}"),
        };
        self.lines
            .push(format!("{}: {kind} {qualified}", self.module));
    }

    /// Lists the items in tokens `[i, end)`.
    fn items(&mut self, mut i: usize, end: usize, scope: Scope<'a>) {
        while i < end {
            let mut test_only = false;
            while self.text(i) == "#" {
                test_only |= is_cfg_test_attr(self.tokens, i);
                i = self.group_end(i + 1 + usize::from(self.text(i + 1) == "!"));
            }
            if i >= end {
                break;
            }
            let public = self.text(i) == "pub" && self.text(i + 1) != "(";
            if self.text(i) == "pub" {
                i = if public { i + 1 } else { self.group_end(i + 1) };
            }
            while matches!(self.text(i), "unsafe" | "async" | "extern" | "default")
                || (self.text(i) == "const" && matches!(self.text(i + 1), "fn" | "unsafe"))
            {
                i += 1;
            }
            let kind = self.text(i);
            let item_end = self.item_end(i, end, kind);
            if !test_only {
                self.item(kind, i, item_end, public, scope);
            }
            i = item_end.max(i + 1);
        }
    }

    /// Lists one item of `kind` spanning tokens `[i, end)`.
    fn item(&mut self, kind: &'a str, i: usize, end: usize, public: bool, scope: Scope<'a>) {
        let listed = public || matches!(scope, Scope::Trait(_));
        let name = self.text(i + 1);
        match kind {
            "impl" => {
                if let Some(ty) = self.inherent_impl_type(i + 1, end) {
                    let (open, close) = self.body(i, end);
                    self.items(open, close, Scope::Impl(ty));
                }
            }
            "trait" if public => {
                self.emit(kind, scope, name);
                let (open, close) = self.body(i, end);
                self.items(open, close, Scope::Trait(name));
            }
            "use" if public => {
                let path = self.render(i + 1, end.saturating_sub(1));
                self.emit(kind, scope, &path);
            }
            "struct" if public => {
                self.emit(kind, scope, name);
                let (open, close) = self.body(i, end);
                self.fields(open, close, name);
            }
            "fn" if listed => {
                let signature = self.render(i + 1, self.signature_end(i + 1, end));
                self.emit(kind, scope, &signature);
            }
            "struct" | "enum" | "union" | "type" | "const" | "static" | "mod" if listed => {
                self.emit(kind, scope, name);
            }
            _ => {}
        }
    }

    /// The `pub` fields of a braced struct body `[i, end)`.
    fn fields(&mut self, mut i: usize, end: usize, ty: &str) {
        while i < end {
            while self.text(i) == "#" {
                i = self.group_end(i + 1);
            }
            if self.text(i) == "pub" && self.text(i + 1) != "(" {
                let name = self.text(i + 1);
                self.emit("field", Scope::Impl(ty), name);
            }
            // On to the token after this field's comma.
            let mut depth = 0_usize;
            while i < end && !(depth == 0 && self.text(i) == ",") {
                match self.text(i) {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                    _ => {}
                }
                i += 1;
            }
            i += 1;
        }
    }

    /// The type an inherent `impl` header starting at `i` implements
    /// for, or `None` for a trait impl.
    fn inherent_impl_type(&self, mut i: usize, end: usize) -> Option<&'a str> {
        if self.text(i) == "<" {
            i = self.angle_end(i);
        }
        let mut ty = None;
        let mut angle = 0_usize;
        while i < end && !matches!(self.text(i), "{" | "where") {
            match self.text(i) {
                "for" if angle == 0 => return None,
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                word if angle == 0 && word != "dyn" && self.tokens[i].is_ident() => {
                    ty = Some(word);
                }
                _ => {}
            }
            i += 1;
        }
        ty
    }

    /// The token range strictly inside the first `{ … }` of `[i, end)`
    /// (empty when the item has no braced body).
    fn body(&self, i: usize, end: usize) -> (usize, usize) {
        match (i..end).find(|&j| self.text(j) == "{") {
            Some(open) => (open + 1, end - 1),
            None => (end, end),
        }
    }

    /// One past the last token of the item of `kind` starting at `i`:
    /// its `;` at depth 0, or — for items with a braced body — the `}`
    /// closing it.
    fn item_end(&self, mut i: usize, end: usize, kind: &str) -> usize {
        let ends_at_semicolon = matches!(kind, "use" | "const" | "static" | "type");
        let mut depth = 0_usize;
        while i < end {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 && !ends_at_semicolon {
                        return i + 1;
                    }
                }
                ";" if depth == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// The end of a function signature starting at `i`: its body's `{`,
    /// the `;` of a bodyless declaration, or its `where` clause.
    fn signature_end(&self, i: usize, end: usize) -> usize {
        let mut depth = 0_usize;
        for j in i..end {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" | ";" | "where" if depth == 0 => return j,
                _ => {}
            }
        }
        end
    }

    /// One past the bracket group opening at `i` (`(`, `[` or `{`).
    fn group_end(&self, i: usize) -> usize {
        let mut depth = 0_usize;
        for j in i..self.tokens.len() {
            match self.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        self.tokens.len()
    }

    /// One past the `>` closing the generics opening at `i` (an `->`
    /// inside them closes nothing).
    fn angle_end(&self, i: usize) -> usize {
        let mut depth = 0_usize;
        for j in i..self.tokens.len() {
            match self.text(j) {
                "<" => depth += 1,
                ">" if self.text(j.wrapping_sub(1)) != "-" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        self.tokens.len()
    }

    /// Tokens `[i, end)` as source text, whatever the layout: words
    /// spaced (and a word from a following `[`), a space after commas
    /// and type colons, spaces around `->`, `+` and `=`, everything else
    /// joined. Trailing commas are dropped, and so are the comma and the
    /// empty `<>` an elided lifetime leaves.
    fn render(&self, i: usize, end: usize) -> String {
        let mut text = String::new();
        for j in i..end {
            let token = &self.tokens[j];
            let (prev, next) = (self.text(j.wrapping_sub(1)), self.text(j + 1));
            match token.text.as_str() {
                "," if matches!(next, "}" | ")" | "]" | ">") || prev == "<" => {}
                "," => text.push_str(", "),
                ":" if prev != ":" && next != ":" => text.push_str(": "),
                "-" if next == ">" => text.push_str(" -> "),
                "<" if next == ">" => {}
                ">" if matches!(prev, "-" | "<") => {}
                "+" | "=" => {
                    text.push(' ');
                    text.push_str(&token.text);
                    text.push(' ');
                }
                word => {
                    let after_word = j > i && self.tokens[j - 1].is_ident();
                    if after_word && (token.is_ident() || word == "[") {
                        text.push(' ');
                    }
                    text.push_str(word);
                }
            }
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = r#"
        //! A module.
        pub use inner::{A, B,};
        pub(crate) use inner::C;
        pub const DEPTH: usize = 4;
        pub struct Pool<'a> {
            pub workers: usize,
            limit: [usize; 3],
            #[doc(hidden)]
            pub depth: Vec<u8>,
        }
        impl<'a> Pool<'a> {
            /// Builds one.
            pub fn new() -> Self { todo!() }
            pub(crate) fn hidden(&self) {}
            fn private(&self) -> [u8; 2] { [0; 2] }
            pub const ALL: [u8; 2] = [1, 2];
            pub fn spread<T: Copy>(
                &mut self,
                xs: &'a [u128],
            ) -> Result<Vec<T>, Error>
            where
                T: Default,
            {
                todo!()
            }
        }
        impl<F: Fn() -> u8> std::fmt::Debug for Pool<'_> {
            fn fmt(&self) {}
        }
        pub trait Ring: Send {
            type Out;
            fn size(&self) -> usize;
            fn twice(&self) -> usize { self.size() * 2 }
        }
        trait Sealed { fn secret(&self); }
        pub unsafe fn raw() {}
        pub enum Kind { One, Two { x: u8 } }
        #[cfg(test)]
        mod tests {
            pub fn helper() {}
        }
        #[cfg(test)]
        pub fn test_only() {}
        pub type Alias = Pool<'static>;
    "#;

    #[test]
    fn lists_every_public_item_qualified_and_nothing_else() {
        let mut lines = file_surface("crate::pool", SOURCE);
        lines.sort();
        let expected = [
            "crate::pool: const DEPTH",
            "crate::pool: const Pool::ALL",
            "crate::pool: enum Kind",
            "crate::pool: field Pool::depth",
            "crate::pool: field Pool::workers",
            "crate::pool: fn Pool::new() -> Self",
            "crate::pool: fn Pool::spread<T: Copy>(&mut self, xs: &[u128]) -> Result<Vec<T>, Error>",
            "crate::pool: fn Ring::size(&self) -> usize",
            "crate::pool: fn Ring::twice(&self) -> usize",
            "crate::pool: fn raw()",
            "crate::pool: struct Pool",
            "crate::pool: trait Ring",
            "crate::pool: type Alias",
            "crate::pool: type Ring::Out",
            "crate::pool: use inner::{A, B}",
        ];
        assert_eq!(lines, expected);

        // A re-typed parameter is a different line; a re-wrapped
        // signature is the same one.
        let retyped = SOURCE.replace("xs: &'a [u128]", "xs: &'a [u64]");
        let changed: Vec<String> = file_surface("crate::pool", &retyped)
            .into_iter()
            .filter(|line| !lines.contains(line))
            .collect();
        assert_eq!(
            changed,
            ["crate::pool: fn Pool::spread<T: Copy>(&mut self, xs: &[u64]) -> Result<Vec<T>, Error>"]
        );
        let rewrapped = SOURCE.replace("fn size(&self)", "fn size(\n &self,\n )");
        let mut relisted = file_surface("crate::pool", &rewrapped);
        relisted.sort();
        assert_eq!(relisted, expected);
    }

    #[test]
    fn module_paths_follow_the_file_layout() {
        assert_eq!(module_path("src/lib.rs").as_deref(), Some("crate"));
        assert_eq!(
            module_path("src/backend/calibrate.rs").as_deref(),
            Some("crate::backend::calibrate")
        );
        assert_eq!(module_path("crates/lint/src/lib.rs"), None);
    }

    #[test]
    fn the_facade_surface_lists_its_front_door() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let lines = api_surface(&crate::find_root(here)).expect("walk succeeds");
        let listed = |prefix: &str| lines.iter().any(|line| line.starts_with(prefix));
        assert!(listed("crate::executor: fn RingExecutor::submit(&self, "));
        assert!(listed("crate::poly: fn PolyRing::apply(&self, "));
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }
}
