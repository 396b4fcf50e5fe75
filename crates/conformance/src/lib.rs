//! aqp-conformance — the workspace's conformance engine: it makes the
//! codebase's own invariants checkable the same way aqp-lint makes
//! query-plan guarantees checkable.
//!
//! **Source-model linter** ([`rules`]): a small Rust tokenizer
//! ([`lex`]) and per-file source model ([`source`]) drive typed
//! diagnostics `C001`–`C008` ([`code`]; `C006` retired) over `crates/*/src` — metric
//! names must come from `aqp_obs::names`, unwrap/expect stays out of
//! panic-budgeted files, every crate root denies unsafe, `unsafe`
//! pairs with a `SAFETY:` comment, tracer spans are provably closed,
//! lock acquisitions follow each file's declared `// lock-order:`, and
//! every library `pub fn`/`pub const` is named by some other file. The
//! `aqp-conformance` binary wires it into `scripts/check.sh` and CI:
//! `cargo run -p aqp-conformance -- --workspace`.
//!
//! **Mini-loom** ([`mloom`]): exhaustive enumeration of every
//! interleaving of a bounded concurrent [`Model`]. `aqp-core`'s service
//! tests (`service::race`) drive it over the admission scheduler's and
//! the plan cache's real transition functions, with seeded mutants that
//! show it catches lost wakeups, FIFO inversions, accounting drift, cap
//! breaches, orphaned tickets, stale cache serves and misplaced results.
//!
//! Zero dependencies by design — the auditor of every crate sits
//! downstream of none of them.

#![deny(unsafe_code)]

pub mod code;
pub mod lex;
pub mod mloom;
pub mod rules;
pub mod source;

pub use code::{Code, Diagnostic, Severity};
pub use mloom::{explore, Explored, Model};
pub use rules::{scan_workspace, ScanConfig, ScanReport};
pub use source::SourceFile;
