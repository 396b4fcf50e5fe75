//! The C-code rules and the workspace scanner.
//!
//! Each rule is a pure function from parsed source to diagnostics; the
//! scanner walks `crates/*/src/**/*.rs` under a root, parses once, and
//! runs every rule on each file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::code::{Code, Diagnostic, Severity};
use crate::lex::TokKind;
use crate::source::SourceFile;

/// What to scan and which per-file policies apply.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Files with a zero `.unwrap()`/`.expect(` budget outside tests
    /// (workspace-relative paths).
    pub unwrap_budget_files: Vec<String>,
    /// Path prefixes exempt from C001/C005 — the crate that *defines*
    /// the metric and tracer APIs exercises them with ad-hoc names.
    pub api_exempt_prefixes: Vec<String>,
    /// Files that must declare a `// lock-order:` (C007 errors when the
    /// declaration is missing; other files are only checked if they
    /// declare one).
    pub lock_order_required: Vec<String>,
}

impl ScanConfig {
    /// The real workspace policy, rooted at `root`.
    pub fn workspace(root: impl Into<PathBuf>) -> ScanConfig {
        ScanConfig {
            root: root.into(),
            unwrap_budget_files: vec![
                "crates/core/src/session.rs".into(),
                "crates/core/src/service.rs".into(),
                "crates/engine/src/exec.rs".into(),
                "crates/engine/src/pool.rs".into(),
            ],
            api_exempt_prefixes: vec!["crates/obs/".into()],
            lock_order_required: vec![
                "crates/core/src/service.rs".into(),
                "crates/engine/src/pool.rs".into(),
            ],
        }
    }
}

/// Scanner output: how much was read and what was found.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Files parsed.
    pub files: usize,
    /// Findings, in path order.
    pub diagnostics: Vec<Diagnostic>,
}

impl ScanReport {
    /// Number of Error-severity findings — the gate condition.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Findings for one code.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }
}

/// Scan everything under `cfg.root/crates/*/src`, run all rules.
pub fn scan_workspace(cfg: &ScanConfig) -> io::Result<ScanReport> {
    let mut files = Vec::new();
    let crates_dir = cfg.root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let text = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(&cfg.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push(SourceFile::parse(rel, text));
    }
    Ok(scan_sources(cfg, &sources))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Run every rule over already-parsed sources (the fixture tests enter
/// here with synthetic files).
pub fn scan_sources(cfg: &ScanConfig, sources: &[SourceFile]) -> ScanReport {
    let mut diags = Vec::new();
    for f in sources {
        let exempt = cfg
            .api_exempt_prefixes
            .iter()
            .any(|p| f.path.starts_with(p.as_str()));
        if !exempt {
            diags.extend(rule_metric_literals(f));
            diags.extend(rule_span_pairing(f));
        }
        if cfg.unwrap_budget_files.contains(&f.path) {
            diags.extend(rule_unwrap_budget(f));
        }
        if f.path.ends_with("src/lib.rs") {
            diags.extend(rule_deny_unsafe(f));
        }
        diags.extend(rule_safety_pairing(f));
        diags.extend(rule_lock_order(
            f,
            cfg.lock_order_required.contains(&f.path),
        ));
    }
    diags.sort_by_key(|d| (d.path.clone(), d.code));
    ScanReport {
        files: sources.len(),
        diagnostics: diags,
    }
}

const REGISTRY_FNS: [&str; 6] = [
    "counter",
    "gauge",
    "histogram",
    "counter_labeled",
    "gauge_labeled",
    "histogram_labeled",
];

/// C001 — a metric-registry method call whose series-name (or, for
/// `*_labeled`, label-key) argument is a bare string literal.
fn rule_metric_literals(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = f.tokens();
    for i in 0..toks.len() {
        if f.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = f.tok_text(i);
        if !REGISTRY_FNS.contains(&name) {
            continue;
        }
        // Method-call shape only: `.counter(` — skips definitions and
        // unrelated free functions.
        if i == 0 || !f.is_punct(i - 1, b'.') || !f.is_punct(i + 1, b'(') {
            continue;
        }
        let close = match f.matching_paren(i + 1) {
            Some(c) => c,
            None => continue,
        };
        let args = split_args(f, i + 1, close);
        let checked = if name.ends_with("_labeled") { 2 } else { 1 };
        for (argno, arg) in args.iter().take(checked).enumerate() {
            if arg.len() == 1 && toks[arg[0]].kind == TokKind::Str {
                let what = if argno == 0 {
                    "series name"
                } else {
                    "label key"
                };
                out.push(Diagnostic {
                    code: Code::C001MetricNameLiteral,
                    severity: Severity::Error,
                    path: f.at(arg[0]),
                    message: format!(
                        "`{name}(…)` {what} is the string literal {} — dashboards cannot \
                         reference it",
                        f.tok_text(arg[0])
                    ),
                    suggestion: Some("use a constant from aqp_obs::names".into()),
                });
            }
        }
    }
    out
}

/// Token indices of each comma-separated argument between `open` and
/// `close` (exclusive), split at paren/bracket/brace depth 0.
fn split_args(f: &SourceFile, open: usize, close: usize) -> Vec<Vec<usize>> {
    let mut args: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut depth = 0i32;
    for j in open + 1..close {
        if f.is_punct(j, b'(') || f.is_punct(j, b'[') || f.is_punct(j, b'{') {
            depth += 1;
        } else if f.is_punct(j, b')') || f.is_punct(j, b']') || f.is_punct(j, b'}') {
            depth -= 1;
        } else if depth == 0 && f.is_punct(j, b',') {
            args.push(std::mem::take(&mut cur));
            continue;
        }
        cur.push(j);
    }
    if !cur.is_empty() {
        args.push(cur);
    }
    args
}

/// C002 — `.unwrap()` / `.expect(` outside tests in a budgeted file.
fn rule_unwrap_budget(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = f.tokens();
    for (i, tok) in toks.iter().enumerate() {
        if f.in_test[i] || tok.kind != TokKind::Ident {
            continue;
        }
        let name = f.tok_text(i);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        if i == 0 || !f.is_punct(i - 1, b'.') || !f.is_punct(i + 1, b'(') {
            continue;
        }
        out.push(Diagnostic {
            code: Code::C002UnwrapBudget,
            severity: Severity::Error,
            path: f.at(i),
            message: format!("`.{name}(…)` in non-test code of a panic-budgeted file (budget: 0)"),
            suggestion: Some(
                "handle the error (match / unwrap_or_else / propagate) or move it under \
                 #[cfg(test)]"
                    .into(),
            ),
        });
    }
    out
}

/// C003 — crate root missing `#![deny(unsafe_code)]`.
fn rule_deny_unsafe(f: &SourceFile) -> Vec<Diagnostic> {
    for i in 0..f.tokens().len() {
        if f.is_ident(i, "deny") && f.is_punct(i + 1, b'(') && f.is_ident(i + 2, "unsafe_code") {
            return Vec::new();
        }
    }
    vec![Diagnostic {
        code: Code::C003MissingDenyUnsafe,
        severity: Severity::Error,
        path: format!("{}:1", f.path),
        message: "crate root does not carry #![deny(unsafe_code)]".into(),
        suggestion: Some("add `#![deny(unsafe_code)]` below the crate docs".into()),
    }]
}

/// C004 — an `unsafe` token with no `// SAFETY:` comment covering the
/// line directly above it.
fn rule_safety_pairing(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Precompute each comment's covered line range (block comments span
    // several) and whether it is a SAFETY comment.
    let safety_spans: Vec<(u32, u32)> = f
        .comments()
        .iter()
        .filter(|c| c.text(&f.text).contains("SAFETY:"))
        .map(|c| {
            let newlines = c.text(&f.text).bytes().filter(|&b| b == b'\n').count() as u32;
            (c.line, c.line + newlines)
        })
        .collect();
    for (i, t) in f.tokens().iter().enumerate() {
        if f.in_test[i] || !t.is_ident(&f.text, "unsafe") {
            continue;
        }
        let need = t.line.saturating_sub(1);
        let covered = safety_spans
            .iter()
            .any(|&(lo, hi)| (lo <= need && need <= hi) || (lo <= t.line && t.line <= hi));
        if !covered {
            out.push(Diagnostic {
                code: Code::C004UnsafeWithoutSafety,
                severity: Severity::Error,
                path: f.at(i),
                message: "`unsafe` without a `// SAFETY:` comment on the line above".into(),
                suggestion: Some(
                    "state the proof obligation in a `// SAFETY:` comment directly above".into(),
                ),
            });
        }
    }
    out
}

const TRACER_FNS: [&str; 3] = ["span", "root_span", "child_span"];

/// C005 — span opened but never closed: (a) the span value is discarded
/// as an expression statement (records a zero-duration interval); (b) a
/// named `root_span` binding is neither `.finish()`ed nor handed to
/// `attach_trace` in the same function.
fn rule_span_pairing(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = f.tokens();
    // (a) statement-discarded span call.
    for (i, tok) in toks.iter().enumerate() {
        if f.in_test[i] || tok.kind != TokKind::Ident {
            continue;
        }
        let name = f.tok_text(i);
        if !TRACER_FNS.contains(&name) || !f.is_punct(i + 1, b'(') {
            continue;
        }
        let qualified = i >= 2 && f.is_punct(i - 1, b':') && f.is_punct(i - 2, b':');
        // Bare `span(` is too common a word to claim; bare root/child
        // spans are unambiguous.
        if name == "span" && !qualified {
            continue;
        }
        let chain_start = path_chain_start(f, i);
        let starts_stmt = chain_start == 0
            || f.is_punct(chain_start - 1, b';')
            || f.is_punct(chain_start - 1, b'{')
            || f.is_punct(chain_start - 1, b'}');
        if !starts_stmt {
            continue;
        }
        if let Some(close) = f.matching_paren(i + 1) {
            if f.is_punct(close + 1, b';') {
                out.push(Diagnostic {
                    code: Code::C005SpanPairing,
                    severity: Severity::Error,
                    path: f.at(i),
                    message: format!(
                        "`{name}(…)` discarded as a statement — the span closes immediately \
                         and records a zero-duration interval"
                    ),
                    suggestion: Some(
                        "bind it (`let mut sp = …`) and let RAII or `.finish()` close it".into(),
                    ),
                });
            }
        }
    }
    // (b) unfinished root_span bindings.
    for func in f.functions() {
        let (lo, hi) = (func.body_open, func.body_close);
        let mut j = lo;
        while j < hi {
            if f.in_test[j] || !f.is_ident(j, "let") {
                j += 1;
                continue;
            }
            let mut k = j + 1;
            if f.is_ident(k, "mut") {
                k += 1;
            }
            let bind = k;
            if toks.get(bind).map(|t| t.kind) != Some(TokKind::Ident) || !f.is_punct(bind + 1, b'=')
            {
                j += 1;
                continue;
            }
            // RHS must be a plain (possibly qualified) root_span call.
            let mut r = bind + 2;
            while f.tokens().get(r).map(|t| t.kind) == Some(TokKind::Ident)
                && f.is_punct(r + 1, b':')
                && f.is_punct(r + 2, b':')
            {
                r += 3;
            }
            if !f.is_ident(r, "root_span") || !f.is_punct(r + 1, b'(') {
                j += 1;
                continue;
            }
            let name = f.tok_text(bind).to_string();
            if name.starts_with('_') {
                j += 1;
                continue;
            }
            let stmt_end = match f.matching_paren(r + 1) {
                Some(c) if f.is_punct(c + 1, b';') => c + 1,
                _ => {
                    j += 1;
                    continue;
                }
            };
            let mut closed = false;
            let mut s = stmt_end;
            while s < hi {
                if f.is_ident(s, &name) && f.is_punct(s + 1, b'.') && f.is_ident(s + 2, "finish") {
                    closed = true;
                    break;
                }
                if f.is_ident(s, "attach_trace") && f.is_punct(s + 1, b'(') {
                    if let Some(c) = f.matching_paren(s + 1) {
                        if (s + 2..c).any(|a| f.is_ident(a, &name)) {
                            closed = true;
                            break;
                        }
                    }
                }
                s += 1;
            }
            if !closed {
                out.push(Diagnostic {
                    code: Code::C005SpanPairing,
                    severity: Severity::Error,
                    path: f.at(r),
                    message: format!(
                        "root span `{name}` is neither `.finish()`ed nor passed to \
                         `attach_trace` in this function"
                    ),
                    suggestion: Some(
                        "call `.finish()` on every exit path or attach it to the report".into(),
                    ),
                });
            }
            j = stmt_end + 1;
        }
    }
    out
}

/// First token of the `a::b::c` / `a.b.c` chain ending at token `i`.
fn path_chain_start(f: &SourceFile, i: usize) -> usize {
    let mut k = i;
    loop {
        if k >= 2
            && f.is_punct(k - 1, b':')
            && f.is_punct(k - 2, b':')
            && k >= 3
            && f.tokens().get(k - 3).map(|t| t.kind) == Some(TokKind::Ident)
        {
            k -= 3;
        } else if k >= 1
            && f.is_punct(k - 1, b'.')
            && k >= 2
            && f.tokens().get(k - 2).map(|t| t.kind) == Some(TokKind::Ident)
        {
            k -= 2;
        } else {
            return k;
        }
    }
}

/// A parsed `// lock-order: a < b(via helper) < c` declaration.
#[derive(Debug, Clone, Default)]
struct LockOrder {
    /// Lock names in declared order (rank = index).
    names: Vec<String>,
    /// Helper function → lock name it acquires.
    helpers: Vec<(String, String)>,
}

fn parse_lock_order(f: &SourceFile) -> Option<LockOrder> {
    for c in f.comments() {
        let text = c.text(&f.text).trim();
        if let Some(rest) = text.strip_prefix("lock-order:") {
            let mut order = LockOrder::default();
            for entry in rest.split('<') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                if let Some((name, via)) = entry.split_once('(') {
                    let name = name.trim().to_string();
                    let helper = via
                        .trim_end_matches(')')
                        .trim()
                        .strip_prefix("via")
                        .unwrap_or("")
                        .trim()
                        .to_string();
                    if !helper.is_empty() {
                        order.helpers.push((helper, name.clone()));
                    }
                    order.names.push(name);
                } else {
                    order.names.push(entry.to_string());
                }
            }
            if !order.names.is_empty() {
                return Some(order);
            }
        }
    }
    None
}

/// C007 — lock acquisitions must follow the file's declared order.
fn rule_lock_order(f: &SourceFile, required: bool) -> Vec<Diagnostic> {
    let order = match parse_lock_order(f) {
        Some(o) => o,
        None => {
            if required {
                return vec![Diagnostic {
                    code: Code::C007LockOrder,
                    severity: Severity::Error,
                    path: format!("{}:1", f.path),
                    message: "file takes multiple locks but declares no `// lock-order:`".into(),
                    suggestion: Some(
                        "add `// lock-order: a < b < …` naming every Mutex field".into(),
                    ),
                }];
            }
            return Vec::new();
        }
    };
    let rank = |name: &str| order.names.iter().position(|n| n == name);
    let mut out = Vec::new();
    for func in f.functions() {
        // Live guards: (rank, binding name, brace depth at binding).
        let mut live: Vec<(usize, String, i32)> = Vec::new();
        let mut depth = 0i32;
        let mut i = func.body_open;
        while i <= func.body_close {
            if f.in_test[i] {
                i += 1;
                continue;
            }
            if f.is_punct(i, b'{') {
                depth += 1;
            } else if f.is_punct(i, b'}') {
                depth -= 1;
                live.retain(|g| g.2 < depth + 1);
            } else if f.is_ident(i, "drop") && f.is_punct(i + 1, b'(') {
                let victim = f.tok_text(i + 2).to_string();
                live.retain(|g| g.1 != victim);
            }
            // Acquisition via `.lock()`.
            let acquired = if f.is_ident(i, "lock")
                && i >= 2
                && f.is_punct(i - 1, b'.')
                && f.is_punct(i + 1, b'(')
            {
                rank(f.tok_text(i - 2)).map(|r| (r, f.tok_text(i - 2).to_string()))
            } else if f.tokens().get(i).map(|t| t.kind) == Some(TokKind::Ident)
                && f.is_punct(i + 1, b'(')
                && !(i >= 1 && f.is_punct(i - 1, b'.'))
                && !(i >= 1 && f.is_ident(i - 1, "fn"))
            {
                order
                    .helpers
                    .iter()
                    .find(|(h, _)| h == f.tok_text(i))
                    .and_then(|(_, lock)| rank(lock).map(|r| (r, lock.clone())))
            } else {
                None
            };
            if let Some((r, lock_name)) = acquired {
                for (held_rank, held_name, _) in &live {
                    if *held_rank > r {
                        out.push(Diagnostic {
                            code: Code::C007LockOrder,
                            severity: Severity::Error,
                            path: f.at(i),
                            message: format!(
                                "acquires `{lock_name}` (rank {r}) while guard `{held_name}` \
                                 of `{}` (rank {held_rank}) is live — violates the declared \
                                 lock order",
                                order.names.get(*held_rank).cloned().unwrap_or_default()
                            ),
                            suggestion: Some(format!(
                                "take `{lock_name}` first or drop `{held_name}` before this \
                                 call"
                            )),
                        });
                    }
                }
                // Does this statement bind a live guard?
                if let Some((bind, stmt_end)) = guard_binding(f, i) {
                    live.push((r, bind, depth));
                    i = stmt_end;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// If the acquisition at token `i` (the `lock` ident or a helper ident)
/// is the RHS of `let [mut] NAME = …;` whose post-`lock()` chain only
/// keeps the guard alive (`unwrap` / `expect` / `unwrap_or_else`),
/// return `(NAME, statement-end token index)`.
fn guard_binding(f: &SourceFile, i: usize) -> Option<(String, usize)> {
    // Walk the chain forward from the call's `(`.
    let mut close = f.matching_paren(i + 1)?;
    loop {
        if f.is_punct(close + 1, b'.')
            && matches!(
                f.tok_text(close + 2),
                "unwrap" | "expect" | "unwrap_or_else"
            )
            && f.is_punct(close + 3, b'(')
        {
            close = f.matching_paren(close + 3)?;
            continue;
        }
        break;
    }
    if !f.is_punct(close + 1, b';') {
        return None;
    }
    // Walk the receiver chain backward to the statement head.
    let start = path_chain_start(f, i);
    if start < 1 || !f.is_punct(start - 1, b'=') {
        return None;
    }
    let bind = start.checked_sub(2)?;
    if f.tokens().get(bind).map(|t| t.kind) != Some(TokKind::Ident) {
        return None;
    }
    let name = f.tok_text(bind).to_string();
    let head = if bind >= 1 && f.is_ident(bind - 1, "mut") {
        bind.checked_sub(2)?
    } else {
        bind.checked_sub(1)?
    };
    if !f.is_ident(head, "let") {
        return None;
    }
    Some((name, close + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, src: &str) -> Vec<SourceFile> {
        vec![SourceFile::parse(path, src)]
    }

    fn cfg_for(path: &str) -> ScanConfig {
        ScanConfig {
            root: ".".into(),
            unwrap_budget_files: vec![path.to_string()],
            api_exempt_prefixes: vec![],
            lock_order_required: vec![],
        }
    }

    #[test]
    fn c001_flags_literal_names_and_keys() {
        let src = r#"
            fn emit(m: &Reg) {
                m.counter("typo_total").inc(1);
                m.counter(names::GOOD_TOTAL).inc(1);
                m.counter_labeled(names::GOOD, "reason", val).inc(1);
                m.counter_labeled(names::GOOD, names::KEY, "value-literal-ok").inc(1);
            }
        "#;
        let files = one("crates/x/src/a.rs", src);
        let r = scan_sources(&cfg_for("other"), &files);
        let c001 = r.with_code(Code::C001MetricNameLiteral);
        assert_eq!(c001.len(), 2, "{:?}", r.diagnostics);
        assert!(c001[0].message.contains("typo_total"));
        assert!(c001[1].message.contains("label key"));
    }

    #[test]
    fn c001_skips_tests_and_exempt_paths() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn t(m: &Reg) { m.gauge("fine").set(1.0); }
            }
        "#;
        let r = scan_sources(&cfg_for("other"), &one("crates/x/src/a.rs", src));
        assert_eq!(r.with_code(Code::C001MetricNameLiteral).len(), 0);
        let src2 = r#"fn t(m: &Reg) { m.gauge("fine").set(1.0); }"#;
        let mut cfg = cfg_for("other");
        cfg.api_exempt_prefixes = vec!["crates/obs/".into()];
        let r2 = scan_sources(&cfg, &one("crates/obs/src/a.rs", src2));
        assert_eq!(r2.with_code(Code::C001MetricNameLiteral).len(), 0);
    }

    #[test]
    fn c002_budget_only_in_listed_files() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); }\n#[cfg(test)]\nmod t { fn g() { z.unwrap(); } }";
        let path = "crates/x/src/hot.rs";
        let r = scan_sources(&cfg_for(path), &one(path, src));
        assert_eq!(r.with_code(Code::C002UnwrapBudget).len(), 2);
        let r2 = scan_sources(&cfg_for("crates/x/src/other.rs"), &one(path, src));
        assert_eq!(r2.with_code(Code::C002UnwrapBudget).len(), 0);
    }

    #[test]
    fn c003_requires_deny_in_lib_rs() {
        let good = "#![deny(unsafe_code)]\npub fn f() {}";
        let bad = "pub fn f() {}";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/lib.rs", good));
        assert_eq!(r.with_code(Code::C003MissingDenyUnsafe).len(), 0);
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/lib.rs", bad));
        assert_eq!(r.with_code(Code::C003MissingDenyUnsafe).len(), 1);
        // Non-lib files are not required to carry it.
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/util.rs", bad));
        assert_eq!(r.with_code(Code::C003MissingDenyUnsafe).len(), 0);
    }

    #[test]
    fn c004_safety_comment_pairs_unsafe() {
        let good = "// SAFETY: bounds checked above\nunsafe { *p }";
        let bad = "fn f() { unsafe { *p } }";
        let in_string = r#"fn f() { let s = "unsafe { }"; }"#;
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", good));
        assert_eq!(r.with_code(Code::C004UnsafeWithoutSafety).len(), 0);
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", bad));
        assert_eq!(r.with_code(Code::C004UnsafeWithoutSafety).len(), 1);
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", in_string));
        assert_eq!(r.with_code(Code::C004UnsafeWithoutSafety).len(), 0);
    }

    #[test]
    fn c005_statement_discard_and_unfinished_root() {
        let discard = "fn f() { aqp_obs::span(\"op\"); }";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", discard));
        assert_eq!(r.with_code(Code::C005SpanPairing).len(), 1);

        let unfinished = "fn f() { let root = aqp_obs::root_span(\"q\"); work(); }";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", unfinished));
        assert_eq!(r.with_code(Code::C005SpanPairing).len(), 1);

        let finished = "fn f() { let root = aqp_obs::root_span(\"q\"); work(); root.finish(); }";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", finished));
        assert_eq!(r.with_code(Code::C005SpanPairing).len(), 0);

        let attached =
            "fn f() { let root = aqp_obs::root_span(\"q\"); attach_trace(&mut rep, root, t0); }";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", attached));
        assert_eq!(r.with_code(Code::C005SpanPairing).len(), 0);

        let raii = "fn f() { let mut sp = aqp_obs::span(\"op\"); sp.rows(1); }";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", raii));
        assert_eq!(r.with_code(Code::C005SpanPairing).len(), 0);
    }

    #[test]
    fn c007_declared_order_enforced() {
        let decl = "// lock-order: queue < results < total\n";
        let ok = format!("{decl}fn f() {{ let q = queue.lock(); drop(q); let t = total.lock(); }}");
        let nested_ok = format!(
            "{decl}fn f() {{ let mut t = total.lock(); let r2 = 1; }}\n\
             fn g() {{ let q = queue.lock(); let t = total.lock(); }}"
        );
        let bad = format!("{decl}fn f() {{ let t = total.lock(); let q = queue.lock(); }}");
        let temp_bad = format!("{decl}fn f() {{ let t = total.lock(); queue.lock().pop(); }}");
        for (src, expect) in [(ok, 0), (nested_ok, 0), (bad, 1), (temp_bad, 1)] {
            let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", &src));
            assert_eq!(
                r.with_code(Code::C007LockOrder).len(),
                expect,
                "src: {src}\n{:?}",
                r.diagnostics
            );
        }
    }

    #[test]
    fn c007_helper_alias_and_drop() {
        let src = "// lock-order: state(via lock_state) < inner\n\
                   fn lock_state(s: &S) -> G { s.state.lock().unwrap_or_else(|e| e.into_inner()) }\n\
                   fn ok(s: &S) { let st = lock_state(s); drop(st); let i = s.inner.lock(); }\n\
                   fn bad(s: &S) { let i = s.inner.lock(); let st = lock_state(s); }";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", src));
        let c007 = r.with_code(Code::C007LockOrder);
        assert_eq!(c007.len(), 1, "{:?}", r.diagnostics);
        assert!(c007[0].message.contains("state"));
    }

    #[test]
    fn c007_missing_declaration_only_when_required() {
        let src = "fn f() { let a = x.lock(); let b = y.lock(); }";
        let mut cfg = cfg_for("other");
        let r = scan_sources(&cfg, &one("crates/x/src/a.rs", src));
        assert_eq!(r.with_code(Code::C007LockOrder).len(), 0);
        cfg.lock_order_required = vec!["crates/x/src/a.rs".into()];
        let r = scan_sources(&cfg, &one("crates/x/src/a.rs", src));
        assert_eq!(r.with_code(Code::C007LockOrder).len(), 1);
    }

    #[test]
    fn block_scoped_guard_dies_at_block_end() {
        let src = "// lock-order: a < b\n\
                   fn f() { { let g = b.lock(); } let x = a.lock(); }";
        let r = scan_sources(&cfg_for("x"), &one("crates/x/src/a.rs", src));
        assert_eq!(
            r.with_code(Code::C007LockOrder).len(),
            0,
            "{:?}",
            r.diagnostics
        );
    }
}
