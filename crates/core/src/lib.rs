//! `aqp-core` — the synthesis of *Approximate Query Processing: No Silver
//! Bullet* (SIGMOD 2017) as a working system.
//!
//! The survey maps AQP along three axes — query **generality**, **error**
//! guarantees, and **performance** — and shows every technique trades one
//! for another. This crate implements every family the paper covers, on a
//! shared substrate (`aqp-engine` for exact execution, `aqp-sampling` for
//! the approximators, `aqp-stats` for the guarantees). The sketch zoo the
//! capability matrix lists beside them answers no routed query and is
//! measured by the experiments alone:
//!
//! * [`spec`] — the user-facing accuracy contract ([`ErrorSpec`]).
//! * [`aggquery`] — the normalized star-aggregation form the planners
//!   reason about, with plan interception ([`AggQuery::from_plan`]).
//! * [`online`] — **query-time sampling**: pilot-planned two-phase block
//!   sampling with a-priori guarantees and exact fallback
//!   ([`OnlineAqp`]).
//! * [`offline`] — **pre-computed synopses**: stratified samples with
//!   staleness tracking and delta maintenance ([`OfflineStore`]).
//! * [`ola`] — **online aggregation**: progressive estimates with live
//!   intervals, plus ripple joins.
//! * [`answer`] — approximate answers with per-group intervals and cost
//!   accounting.
//! * [`audit`] — ground-truth accuracy auditing: a seeded sampler picks
//!   approximate answers to re-execute exactly; verdicts feed the
//!   session's per-technique coverage scoreboard, whose windowed
//!   coverage quarantines techniques that break their promises.
//! * [`rewrite`] — VerdictDB-style middleware: the same queries answered
//!   by rewriting over a weighted sample and running the *unmodified*
//!   exact engine ([`rewrite::answer_via_rewrite`]).
//! * [`shard`] — **shard-then-merge execution** on the `Partial`
//!   contract: per-shard partials serialized, merged in shard order
//!   (exact bit-for-bit, approximate with design-correct variance).
//! * [`technique`] — the uniform [`Technique`] trait all four families
//!   implement: execution that may decline with a machine-readable
//!   reason, guarded by the family's own analyzer verdict.
//! * [`session`] — the routing front door: one [`AqpSession::answer`]
//!   call picks the best eligible family per query, falls through the
//!   chain on runtime declines, and records the whole deliberation in the
//!   answer's [`answer::RoutingDecision`].
//! * [`service`] — the *concurrent* front door: a `Send + Sync`
//!   [`AqpService`] sharing one session (and one morsel-thread budget)
//!   across client threads, with bounded admission, a plan cache keyed on
//!   normalized-plan fingerprints (memoizing lint, route and a wall
//!   estimate — never an answer's work), and per-query accuracy
//!   [`Contract`]s that admission accepts, degrades, or rejects.
//! * [`taxonomy`] — the paper's technique-vs-property matrix; the four
//!   routable family rows are read off the static analyzer's verdicts,
//!   the same ones the router routes on.
//!
//! Static analysis (aqp-lint) lives one layer down in `aqp-analyze`: the
//! session runs it once per query, routes on its per-family verdicts —
//! the one eligibility decision — and attaches the [`Analysis`] (stable
//! `A0xx` lint codes, guarantee verdicts, suggested rewrites) to the
//! answer's report — see
//! [`AqpSession::lint_plan`] and [`ExecutionReport::lints`].
//!
//! # Quick start
//!
//! ```
//! use aqp_core::{AqpSession, ErrorSpec};
//! use aqp_engine::{AggExpr, Query};
//! use aqp_expr::{col, lit};
//! use aqp_storage::Catalog;
//! use aqp_workload::uniform_table;
//!
//! let catalog = Catalog::new();
//! catalog.register(uniform_table("t", 100_000, 1024, 7)).unwrap();
//!
//! let plan = Query::scan("t")
//!     .filter(col("sel").lt(lit(0.5)))
//!     .aggregate(vec![], vec![AggExpr::sum(col("v"), "total")])
//!     .build();
//!
//! let session = AqpSession::new(&catalog);
//! let answer = session
//!     .answer(&plan, &ErrorSpec::new(0.05, 0.95), 42)
//!     .unwrap();
//! let est = answer.scalar_estimate("total").unwrap();
//! assert!(est.value > 0.0);
//! let routing = answer.report.routing.as_ref().unwrap();
//! println!("routed to {}: {}", routing.winner, routing.summary());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod aggquery;
pub mod answer;
pub mod audit;
pub mod error;
pub mod evaluator;
pub mod offline;
pub mod ola;
pub mod online;
pub mod rewrite;
pub mod service;
pub mod session;
pub mod shard;
pub mod spec;
pub mod taxonomy;
pub mod technique;

pub use aggquery::{AggQuery, AggSpec, JoinSpec, LinearAgg};
pub use answer::{
    ApproximateAnswer, CandidateDecision, CandidateOutcome, ExecutionPath, ExecutionReport,
    GroupResult, RoutingDecision,
};
pub use audit::{AuditConfig, AuditOutcome};
pub use error::AqpError;
pub use offline::{OfflineStore, OfflineTechnique};
pub use ola::{OlaTechnique, OnlineAggregator, RippleJoin};
pub use online::{OnlineAqp, OnlineConfig};
pub use rewrite::RewriteTechnique;
pub use service::{
    AdmissionDecision, AdmissionReport, AqpService, CacheEvent, Contract, Rejection, ServiceConfig,
    ServiceReply, ServiceStats,
};
pub use session::{AqpSession, SessionConfig};
pub use shard::{bernoulli_sample_sharded, exact_aggregate_sharded, srs_sample_sharded};
pub use spec::ErrorSpec;
pub use technique::{
    exact_answer, exact_answer_with, Attempt, DeclineReason, Guarantee, Technique, TechniqueKind,
    TechniqueProfile,
};

// The static analyzer's surface, re-exported so session users can consume
// the `ExecutionReport::lints` field without naming a second crate.
pub use aqp_analyze::{Analysis, Diagnostic, GuaranteeClass, LintCode, Severity, TechniqueVerdict};
