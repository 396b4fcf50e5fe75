//! Per-file source model built on the tokenizer: test-region marking
//! (`#[cfg(test)]` / `#[test]` items), function extraction, and brace
//! matching — the structural facts every rule shares.

use crate::lex::{lex, Comment, Lexed, Token};

/// One scanned file: its text, tokens, comments, and which tokens sit
/// inside test-only regions (rules skip those).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/core/src/service.rs`.
    pub path: String,
    /// Full file text.
    pub text: String,
    /// Tokenizer output.
    pub lexed: Lexed,
    /// `in_test[i]` ⇔ `lexed.tokens[i]` is inside a `#[test]` /
    /// `#[cfg(test)]` attribute or the item it guards.
    pub in_test: Vec<bool>,
}

/// A function body found in a file: the name and the token-index range
/// of its `{ … }` body (inclusive of both braces).
#[derive(Debug, Clone, Copy)]
pub struct Func {
    /// Token index of the function's name identifier.
    pub name: usize,
    /// Token index of the body's `{`.
    pub body_open: usize,
    /// Token index of the body's matching `}`.
    pub body_close: usize,
}

impl SourceFile {
    /// Lex `text` and compute test regions.
    pub fn parse(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let text = text.into();
        let lexed = lex(&text);
        let in_test = mark_test_regions(&text, &lexed);
        SourceFile {
            path: path.into(),
            text,
            lexed,
            in_test,
        }
    }

    /// Tokens, shorthand.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Comments, shorthand.
    pub fn comments(&self) -> &[Comment] {
        &self.lexed.comments
    }

    /// The text of token `i`, `""` out of range.
    pub fn tok_text(&self, i: usize) -> &str {
        self.lexed
            .tokens
            .get(i)
            .map(|t| t.text(&self.text))
            .unwrap_or("")
    }

    /// True if token `i` is the identifier `word`.
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.lexed
            .tokens
            .get(i)
            .is_some_and(|t| t.is_ident(&self.text, word))
    }

    /// True if token `i` is the punctuation byte `b`.
    pub fn is_punct(&self, i: usize, b: u8) -> bool {
        self.lexed.tokens.get(i).is_some_and(|t| t.is_punct(b))
    }

    /// `path:line` for token `i` (line 0 when out of range).
    pub fn at(&self, i: usize) -> String {
        let line = self.lexed.tokens.get(i).map(|t| t.line).unwrap_or(0);
        format!("{}:{line}", self.path)
    }

    /// Index of the `}` matching the `{` at token `open`, if balanced.
    fn matching_brace(&self, open: usize) -> Option<usize> {
        matching_close(self.tokens(), open, b'{', b'}')
    }

    /// Index of the `)` matching the `(` at token `open`, if balanced.
    pub fn matching_paren(&self, open: usize) -> Option<usize> {
        matching_close(self.tokens(), open, b'(', b')')
    }

    /// Every `fn` body in the file (including test functions — callers
    /// filter with `in_test` as needed), in source order.
    pub fn functions(&self) -> Vec<Func> {
        let toks = self.tokens();
        let mut out = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if self.is_ident(i, "fn") {
                let name = i + 1;
                // Find the body `{` — the first `{` or `;` at zero
                // paren/bracket depth after the signature.
                let mut j = name;
                let mut depth = 0i32;
                let mut found = None;
                while j < toks.len() {
                    if self.is_punct(j, b'(') || self.is_punct(j, b'[') {
                        depth += 1;
                    } else if self.is_punct(j, b')') || self.is_punct(j, b']') {
                        depth -= 1;
                    } else if depth == 0 && self.is_punct(j, b';') {
                        break; // trait method without a body
                    } else if depth == 0 && self.is_punct(j, b'{') {
                        found = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = found {
                    if let Some(close) = self.matching_brace(open) {
                        out.push(Func {
                            name,
                            body_open: open,
                            body_close: close,
                        });
                        i = open + 1; // descend: nested fns found too
                        continue;
                    }
                }
            }
            i += 1;
        }
        out
    }
}

fn matching_close(toks: &[Token], open: usize, ob: u8, cb: u8) -> Option<usize> {
    if !toks.get(open)?.is_punct(ob) {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(ob) {
            depth += 1;
        } else if t.is_punct(cb) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Mark every token belonging to a test attribute or the item it guards.
///
/// An attribute `#[…]` whose token stream contains the identifier `test`
/// but not `not` (so `#[cfg(not(test))]` stays production) marks the
/// following item: any further attributes, then up to the item's
/// terminating `;` or its `{ … }` block.
fn mark_test_regions(_text: &str, lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct(b'#') && toks.get(i + 1).is_some_and(|t| t.is_punct(b'[')) {
            let close = match matching_close(toks, i + 1, b'[', b']') {
                Some(c) => c,
                None => {
                    i += 1;
                    continue;
                }
            };
            let src_has = |word: &str| {
                toks[i + 1..close]
                    .iter()
                    .any(|t| t.kind == crate::lex::TokKind::Ident && t.text(_text) == word)
            };
            if src_has("test") && !src_has("not") {
                // Mark the attribute, any chained attributes, and the item.
                let mut j = close + 1;
                while toks.get(j).is_some_and(|t| t.is_punct(b'#'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(b'['))
                {
                    match matching_close(toks, j + 1, b'[', b']') {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                // The item ends at the first `;` or matched `{…}` at
                // zero bracket depth.
                let mut depth = 0i32;
                let mut end = j;
                while end < toks.len() {
                    let t = &toks[end];
                    if t.is_punct(b'(') || t.is_punct(b'[') {
                        depth += 1;
                    } else if t.is_punct(b')') || t.is_punct(b']') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(b';') {
                        break;
                    } else if depth == 0 && t.is_punct(b'{') {
                        end = matching_close(toks, end, b'{', b'}').unwrap_or(toks.len() - 1);
                        break;
                    }
                    end += 1;
                }
                let end = end.min(toks.len().saturating_sub(1));
                for flag in in_test.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = SourceFile::parse("f.rs", src);
        let unwraps: Vec<bool> = f
            .tokens()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident(&f.text, "unwrap"))
            .map(|(i, _)| f.in_test[i])
            .collect();
        assert_eq!(unwraps, [false, true]);
    }

    #[test]
    fn cfg_not_test_stays_production() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::parse("f.rs", src);
        assert!(f.in_test.iter().all(|&b| !b));
    }

    #[test]
    fn test_attr_with_chained_attrs() {
        let src = "#[test]\n#[should_panic]\nfn t() { boom() }\nfn live() {}\n";
        let f = SourceFile::parse("f.rs", src);
        let boom = f
            .tokens()
            .iter()
            .position(|t| t.is_ident(&f.text, "boom"))
            .unwrap();
        let live = f
            .tokens()
            .iter()
            .position(|t| t.is_ident(&f.text, "live"))
            .unwrap();
        assert!(f.in_test[boom]);
        assert!(!f.in_test[live]);
    }

    #[test]
    fn functions_found_with_bodies() {
        let src = "fn a() { if x { y() } }\nimpl T { fn b(&self) -> u8 { 0 } }\ntrait Q { fn c(&self); }\n";
        let f = SourceFile::parse("f.rs", src);
        let funcs = f.functions();
        let names: Vec<_> = funcs.iter().map(|fun| f.tok_text(fun.name)).collect();
        assert_eq!(names, ["a", "b"]);
        for fun in &funcs {
            assert!(f.is_punct(fun.body_open, b'{'));
            assert!(f.is_punct(fun.body_close, b'}'));
        }
    }

    #[test]
    fn at_renders_path_line() {
        let f = SourceFile::parse("crates/x/src/y.rs", "fn a() {}\nfn b() {}\n");
        let b = f
            .tokens()
            .iter()
            .position(|t| t.is_ident(&f.text, "b"))
            .unwrap();
        assert_eq!(f.at(b), "crates/x/src/y.rs:2");
    }
}
