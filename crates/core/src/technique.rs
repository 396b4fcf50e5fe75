//! The shared technique abstraction behind the [`crate::session::AqpSession`]
//! front door.
//!
//! NSB's thesis is that no single AQP technique wins on generality,
//! accuracy, and performance at once — which means a faithful *system*
//! needs a layer the survey implies but never names: a uniform interface
//! under which every family either produces an answer or declines with a
//! machine-readable reason ([`Technique::answer`] returning [`Attempt`]).
//! Whether a family can serve a query *before running* is not asked of
//! the family: it is the static analyzer's per-family verdict
//! (`aqp_analyze::TechniqueVerdict`), which the router in
//! [`crate::session`] folds into a policy and the taxonomy in
//! `aqp_bench::taxonomy` reads to derive the paper's capability matrix. A
//! family handed a query directly consults the same verdict
//! before it touches data, so there is one eligibility decision.
//!
//! The four families implementing this trait:
//!
//! * [`crate::online::OnlineAqp`] — pilot-planned two-phase block sampling
//!   (a-priori error contract);
//! * [`crate::offline::OfflineTechnique`] — pre-built stratified synopses
//!   with freshness gating;
//! * [`crate::ola::OlaTechnique`] — progressive online aggregation
//!   (a-posteriori: stop when the live interval is narrow enough);
//! * [`crate::rewrite::RewriteTechnique`] — VerdictDB-style middleware:
//!   a fixed-rate block sample grouped by its blocks (a-posteriori: the
//!   cluster interval online sampling uses, with no pilot).

use std::time::Instant;

use aqp_engine::{execute_with, ExecOptions, LogicalPlan};
use aqp_stats::Estimate;
use aqp_storage::Catalog;

use crate::aggquery::AggQuery;
use crate::answer::{assemble_answer, ApproximateAnswer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::spec::ErrorSpec;

use aqp_analyze::LintContext;

pub use aqp_analyze::{DeclineReason, TechniqueKind};

/// The outcome of asking a technique to answer.
#[derive(Debug, Clone)]
pub enum Attempt {
    /// The technique produced an answer.
    Answered(ApproximateAnswer),
    /// The technique discovered at runtime that it cannot honor the
    /// contract (e.g. the pilot-planned rate exceeded the cap) and
    /// declines; the router falls through to the next candidate.
    Declined {
        /// The machine-readable reason.
        reason: DeclineReason,
        /// Base-table rows the failed attempt consumed (pilot samples,
        /// probe scans) — charged to the final answer's accounting so
        /// routed costs stay honest.
        rows_scanned: u64,
    },
}

/// One AQP family as the router sees it: execution that may decline with
/// a machine-readable reason.
pub trait Technique {
    /// Which family this is.
    fn kind(&self) -> TechniqueKind;

    /// Attempts the query. Returns [`Attempt::Declined`] for contract
    /// failures discovered at runtime — and, before any data is touched,
    /// for a query the family's own analyzer verdict blocks; `Err` only
    /// for genuine faults (missing columns, storage errors).
    fn answer(&self, query: &AggQuery, spec: &ErrorSpec, seed: u64) -> Result<Attempt, AqpError>;
}

/// The guard at the head of every family's `answer`: declines a query
/// the family's analyzer verdict blocks, with the verdict's reason. The
/// router never sends one — it routes on the same verdicts — so this only
/// fires for direct callers, who get a typed decline instead of a panic
/// or an answer to a different question.
pub(crate) fn decline_if_blocked(
    kind: TechniqueKind,
    query: &AggQuery,
    ctx: &LintContext,
) -> Option<Attempt> {
    aqp_analyze::verdict_for(kind, query, ctx)
        .blocked_by
        .map(|reason| Attempt::Declined {
            reason,
            rows_scanned: 0,
        })
}

/// Exact execution of an arbitrary plan, wrapped as an [`ApproximateAnswer`]
/// with zero-width intervals — the shared terminal every technique chain
/// (and every per-family exact fallback) ends in.
///
/// `population_rows` overrides the report's population denominator; pass
/// the fact-table row count when the plan is a normalized star query so
/// speedup ratios against sampled paths compare like-for-like. When
/// `None`, the engine's scan count is used (an exact run touches exactly
/// what it scans).
pub fn exact_answer(
    catalog: &Catalog,
    plan: &LogicalPlan,
    population_rows: Option<u64>,
) -> Result<ApproximateAnswer, AqpError> {
    exact_answer_with(catalog, plan, population_rows, ExecOptions::default())
}

/// [`exact_answer`] with explicit engine options — the session uses this
/// to thread the analyzer's static group-cardinality hint into the
/// engine's aggregation maps ([`ExecOptions::with_agg_hint`]).
pub fn exact_answer_with(
    catalog: &Catalog,
    plan: &LogicalPlan,
    population_rows: Option<u64>,
    opts: ExecOptions,
) -> Result<ApproximateAnswer, AqpError> {
    let start = Instant::now();
    let mut span = aqp_obs::span("exact:execute");
    let result = execute_with(plan, catalog, opts)?;
    if span.is_recording() {
        span.set_rows(result.stats().rows_scanned);
    }
    span.finish();
    let (group_names, agg_names, key_len) = match plan {
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            ..
        } => (
            group_by.iter().map(|(_, n)| n.clone()).collect::<Vec<_>>(),
            aggregates
                .iter()
                .map(|a| a.alias.clone())
                .collect::<Vec<_>>(),
            group_by.len(),
        ),
        _ => (
            vec![],
            result
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            0,
        ),
    };
    let raw: Vec<(Vec<aqp_storage::Value>, Vec<Estimate>)> = result
        .rows()
        .into_iter()
        .map(|row| {
            let key = row[..key_len].to_vec();
            let estimates = row[key_len..]
                .iter()
                .map(|v| Estimate::exact(v.as_f64().unwrap_or(0.0)))
                .collect();
            (key, estimates)
        })
        .collect();
    let rows_scanned = result.stats().rows_scanned;
    Ok(assemble_answer(
        group_names,
        agg_names,
        raw,
        0.95,
        ExecutionReport {
            path: ExecutionPath::Exact,
            population_rows: population_rows.unwrap_or(rows_scanned),
            rows_touched: rows_scanned,
            rows_scanned,
            wall: start.elapsed(),
            routing: None,
            trace: None,
            lints: None,
            audit: None,
            accuracy: None,
            admission: None,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggquery::{AggSpec, JoinSpec, LinearAgg};
    use crate::session::AqpSession;
    use aqp_expr::col;
    use aqp_workload::{skewed_table, uniform_table};

    /// No probe stands in front of `answer` any more, so every family's
    /// `answer`, called directly on a query its own verdict blocks, must
    /// decline with the analyzer's reason before touching data — never
    /// panic, never answer the query that is left when the unsupported
    /// part is ignored.
    #[test]
    fn answer_declines_what_the_verdict_blocks() {
        let catalog = Catalog::new();
        catalog
            .register(skewed_table("t", 20_000, 10, 1.0, 256, 3))
            .unwrap();
        catalog.register(uniform_table("d", 64, 64, 9)).unwrap();
        let session = AqpSession::new(&catalog);
        session
            .offline()
            .build_stratified(&catalog, "t", "g", 2_000, 1)
            .unwrap();

        let sum = |alias: &str| AggSpec {
            kind: LinearAgg::Sum,
            expr: col("v"),
            alias: alias.into(),
        };
        let base = AggQuery {
            fact_table: "t".into(),
            joins: vec![],
            predicate: None,
            group_by: vec![],
            aggregates: vec![sum("s")],
        };
        let joined = AggQuery {
            joins: vec![JoinSpec {
                dim_table: "d".into(),
                fact_key: "g".into(),
                dim_key: "id".into(),
            }],
            ..base.clone()
        };
        let grouped = AggQuery {
            group_by: vec![(col("g"), "g".into())],
            ..base.clone()
        };
        let no_aggregate = AggQuery {
            aggregates: vec![],
            ..base.clone()
        };
        let two_aggregates = AggQuery {
            aggregates: vec![sum("s"), sum("s2")],
            ..base.clone()
        };
        let ghost = AggQuery {
            fact_table: "ghost".into(),
            ..base
        };
        let one_aggregate = || DeclineReason::UnsupportedShape {
            detail: "progressive aggregation serves exactly one aggregate".into(),
        };
        let missing = || DeclineReason::MissingTable {
            table: "ghost".into(),
        };
        use TechniqueKind::*;
        let cases = [
            (
                "join",
                OfflineSynopsis,
                &joined,
                DeclineReason::JoinsUnsupported,
            ),
            (
                "join",
                OnlineAggregation,
                &joined,
                DeclineReason::JoinsUnsupported,
            ),
            (
                "group-by",
                OnlineAggregation,
                &grouped,
                DeclineReason::GroupByUnsupported,
            ),
            (
                "no aggregate",
                OnlineAggregation,
                &no_aggregate,
                one_aggregate(),
            ),
            (
                "two aggregates",
                OnlineAggregation,
                &two_aggregates,
                one_aggregate(),
            ),
            (
                "missing table",
                OfflineSynopsis,
                &ghost,
                DeclineReason::NoSynopsis {
                    table: "ghost".into(),
                },
            ),
            ("missing table", OnlineSampling, &ghost, missing()),
            ("missing table", OnlineAggregation, &ghost, missing()),
            ("missing table", MiddlewareRewrite, &ghost, missing()),
        ];

        let families = session.techniques(None);
        let spec = ErrorSpec::new(0.1, 0.9);
        for (input, kind, query, expected) in cases {
            let analysis =
                aqp_analyze::lint_with(&query.to_plan(), Some(query), &session.lint_context());
            assert_eq!(
                analysis.blocked_by(kind),
                Some(&expected),
                "{kind} on {input}: the session's verdict"
            );
            let family = families.iter().find(|t| t.kind() == kind).unwrap();
            match family.answer(query, &spec, 7) {
                Ok(Attempt::Declined {
                    reason,
                    rows_scanned: 0,
                }) => assert_eq!(reason, expected, "{kind} on {input}"),
                other => panic!("{kind} on {input}: expected a free decline, got {other:?}"),
            }
        }
    }
}
