//! The stable conformance-code registry.
//!
//! Where aqp-lint's A-codes check *query plans* against NSB's frontier,
//! the C-codes check the *workspace source* against the invariants the
//! rest of the codebase assumes: metric names come from one table, spans
//! are closed, locks are taken in one order, panics are budgeted, public
//! items have callers. Codes
//! are append-only — `C001` will mean "metric name is a string literal"
//! forever, so check.sh, CI, and the golden fixtures can key on them. A
//! retired code keeps its number unused: `C006` (the codec tag registry,
//! retired with the wire format it policed) is never reissued.

use std::fmt;

/// A stable conformance code (`C001`–`C008`; `C006` is retired and never
/// reused). The discriminant order is the registry order; new codes
/// append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// A metric-registry call (`counter`, `gauge`, `histogram`, or a
    /// `*_labeled` variant) passes a string literal as the series name or
    /// label key instead of a constant from `aqp_obs::names`.
    C001MetricNameLiteral,
    /// `.unwrap()` / `.expect(...)` outside `#[cfg(test)]` in a file the
    /// workspace declares panic-budgeted (hot-path and service files).
    C002UnwrapBudget,
    /// A crate's `src/lib.rs` is missing `#![deny(unsafe_code)]`.
    C003MissingDenyUnsafe,
    /// An `unsafe` token without a `// SAFETY:` comment on the line
    /// directly above it.
    C004UnsafeWithoutSafety,
    /// A tracer span is opened but provably never closed: the span value
    /// is discarded as a statement (zero-duration span) or a root span
    /// binding is neither `.finish()`ed nor handed to `attach_trace`.
    C005SpanPairing,
    // C006 is retired: it checked the codec tag registry of a wire format
    // that no longer exists. Its number is never reused.
    /// A lock acquisition violates the file's declared lock order
    /// (`// lock-order: a < b < …`): a lower-ranked lock is taken while a
    /// higher-ranked guard is still live.
    C007LockOrder,
    /// A `pub fn` or `pub const` in a library crate's non-test source
    /// whose name no other file mentions: nothing outside its own file
    /// calls it, so it is dead or should not be public.
    C008UnreferencedPub,
}

impl Code {
    /// The stable wire code, e.g. `"C001"`.
    pub fn code(&self) -> &'static str {
        match self {
            Self::C001MetricNameLiteral => "C001",
            Self::C002UnwrapBudget => "C002",
            Self::C003MissingDenyUnsafe => "C003",
            Self::C004UnsafeWithoutSafety => "C004",
            Self::C005SpanPairing => "C005",
            Self::C007LockOrder => "C007",
            Self::C008UnreferencedPub => "C008",
        }
    }

    /// One-line title for the registry table.
    pub fn title(&self) -> &'static str {
        match self {
            Self::C001MetricNameLiteral => "metric or label-key name is a string literal",
            Self::C002UnwrapBudget => "unwrap/expect outside tests in a panic-budgeted file",
            Self::C003MissingDenyUnsafe => "crate root missing #![deny(unsafe_code)]",
            Self::C004UnsafeWithoutSafety => "unsafe without a SAFETY comment directly above",
            Self::C005SpanPairing => "tracer span opened but never finished",
            Self::C007LockOrder => "lock acquired against the declared lock order",
            Self::C008UnreferencedPub => "pub fn/const with no reference outside its own file",
        }
    }

    /// The workspace invariant this code guards (documented in
    /// `docs/OPERATIONS.md`'s C-code table).
    pub fn invariant(&self) -> &'static str {
        match self {
            Self::C001MetricNameLiteral => {
                "emitters and dashboards reference one name table (aqp_obs::names); \
                 a literal can typo a series into existence that no dashboard reads"
            }
            Self::C002UnwrapBudget => {
                "service and hot-path files answer queries for many callers; a panic \
                 there is a denial of service, so fallible paths must be handled"
            }
            Self::C003MissingDenyUnsafe => {
                "the workspace is forbid-unsafe by policy; every crate root must \
                 opt in to the compiler enforcing it"
            }
            Self::C004UnsafeWithoutSafety => {
                "if unsafe ever appears (e.g. in a vendored shim), the proof \
                 obligation must be written down where the reviewer will see it"
            }
            Self::C005SpanPairing => {
                "a span dropped at the call statement records a zero-duration \
                 interval, silently corrupting every trace that contains it"
            }
            Self::C007LockOrder => {
                "service.rs and pool.rs hold multiple Mutexes; a consistent \
                 acquisition order is the only static deadlock-freedom argument"
            }
            Self::C008UnreferencedPub => {
                "a library crate holds only what a routed query, an experiment or a \
                 gate calls; a public item nothing names is surface to keep up for \
                 no caller"
            }
        }
    }

    /// Every code, in registry order.
    pub fn all() -> [Code; 7] {
        [
            Self::C001MetricNameLiteral,
            Self::C002UnwrapBudget,
            Self::C003MissingDenyUnsafe,
            Self::C004UnsafeWithoutSafety,
            Self::C005SpanPairing,
            Self::C007LockOrder,
            Self::C008UnreferencedPub,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a finding is. Same ladder as aqp-lint: `Error` fails the
/// check.sh gate and CI; `Warn`/`Note` are reported but do not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing is gated, but the reader should know.
    Note,
    /// Suspicious but not provably wrong; does not fail the gate.
    Warn,
    /// A workspace invariant is violated; the gate fails.
    Error,
}

impl Severity {
    /// Lowercase label for rendering (`error`/`warn`/`note`).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Error => "error",
            Self::Warn => "warn",
            Self::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One conformance finding: a stable code, a severity, the offending
/// `file:line`, prose, and — when one exists — a concrete fix. Mirrors
/// aqp-lint's `Diagnostic` so tooling can treat A- and C-streams alike.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable conformance code.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// `path/to/file.rs:line` of the offending token (line 0 = whole
    /// file, e.g. a missing crate attribute).
    pub path: String,
    /// Human-readable finding.
    pub message: String,
    /// Concrete suggested fix, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// One-line rendering: `C001 error crates/x/src/y.rs:12: counter("…")
    /// passes a literal — suggest: use aqp_obs::names`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} {:<5} {}: {}",
            self.code,
            self.severity.label(),
            self.path,
            self.message
        );
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(" — suggest: {s}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = Code::all().iter().map(Code::code).collect();
        assert_eq!(
            codes,
            ["C001", "C002", "C003", "C004", "C005", "C007", "C008"]
        );
        for c in Code::all() {
            assert!(!c.title().is_empty());
            assert!(!c.invariant().is_empty());
        }
    }

    #[test]
    fn severity_orders_note_warn_error() {
        assert!(Severity::Note < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn renders_all_parts() {
        let d = Diagnostic {
            code: Code::C001MetricNameLiteral,
            severity: Severity::Error,
            path: "crates/x/src/y.rs:12".into(),
            message: "metric name is a string literal".into(),
            suggestion: Some("use a constant from aqp_obs::names".into()),
        };
        let r = d.render();
        assert!(r.starts_with("C001 error"));
        assert!(r.contains("crates/x/src/y.rs:12"));
        assert!(r.contains("suggest: use a constant"));
    }
}
