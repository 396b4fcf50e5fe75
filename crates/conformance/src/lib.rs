//! aqp-conformance — the workspace's conformance engine.
//!
//! Two halves, one goal: make the codebase's own invariants checkable
//! the same way aqp-lint makes query-plan guarantees checkable.
//!
//! **Source-model linter** ([`rules`]): a small Rust tokenizer
//! ([`lex`]) and per-file source model ([`source`]) drive typed
//! diagnostics `C001`–`C007` ([`code`]; `C006` retired) over `crates/*/src` — metric
//! names must come from `aqp_obs::names`, unwrap/expect stays out of
//! panic-budgeted files, every crate root denies unsafe, `unsafe`
//! pairs with a `SAFETY:` comment, tracer spans are provably closed,
//! and lock acquisitions follow each file's declared `// lock-order:`.
//!
//! **Mini-loom race checker** ([`mloom`], [`models`]): exhaustive
//! enumeration of every interleaving of bounded models of the service
//! layer's admission ticket scheduler and plan-cache epoch
//! invalidation, with seeded mutants proving the checker catches lost
//! wakeups, FIFO inversions, accounting drift, cap breaches, and stale
//! cache serves.
//!
//! The `aqp-conformance` binary wires both into `scripts/check.sh` and
//! CI: `cargo run -p aqp-conformance -- --workspace --race`.
//!
//! Zero dependencies by design — the auditor of every crate sits
//! downstream of none of them.

#![deny(unsafe_code)]

pub mod code;
pub mod lex;
pub mod mloom;
pub mod models;
pub mod rules;
pub mod source;

pub use code::{Code, Diagnostic, Severity};
pub use mloom::{explore, Explored, Model};
pub use models::{CacheCfg, CacheModel, CacheMutation, SchedCfg, SchedModel, SchedMutation};
pub use rules::{scan_sources, scan_workspace, ScanConfig, ScanReport};
pub use source::SourceFile;
