//! Middleware query rewriting: answer a star query by rewriting it over a
//! weighted sample table and running the *unmodified exact engine* —
//! the VerdictDB-style architecture NSB identifies as the deployable form
//! of AQP (no engine changes, plain SQL-shaped rewrites).
//!
//! The rewrite rules are the classical ones:
//!
//! * `SCAN fact`      → `SCAN weighted_sample`
//! * `SUM(x)`         → `SUM(x · w)`
//! * `COUNT(*)`       → `SUM(w)`
//! * `AVG(x)`         → `SUM(x · w) / SUM(w)` (a projection over two
//!   rewritten aggregates)
//!
//! This module produces **point estimates** through the engine. An
//! interval needs the per-block totals the flat rewrite intentionally does
//! not carry: every block-sampled family that has them — [`crate::online`]
//! and [`crate::ola`] — ends in the one cluster estimator,
//! `aqp_sampling::design::PairStats::clusters`.
//! `tests/middleware_equivalence.rs` proves rewrite's and online's point
//! values agree.

use std::time::Instant;

use aqp_analyze::LintContext;
use aqp_engine::{execute_with, AggExpr, ExecOptions, LogicalPlan, Query, ResultSet};
use aqp_expr::{col, Expr};
use aqp_sampling::{bernoulli_blocks, Sample};
use aqp_stats::Estimate;
use aqp_storage::{Catalog, Value};

use crate::aggquery::{AggQuery, LinearAgg};
use crate::answer::{assemble_answer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::spec::ErrorSpec;
use crate::technique::{
    decline_if_blocked, Attempt, DeclineReason, Guarantee, Technique, TechniqueKind,
    TechniqueProfile,
};

/// The reserved name the rewritten plan scans instead of the fact table.
pub const SAMPLE_TABLE_NAME: &str = "__aqp_weighted_sample";
/// The reserved weight-column name appended to the sample.
pub const WEIGHT_COLUMN: &str = "__aqp_w";
/// Alias of the hidden per-group raw-row count appended when the caller
/// wants support observability (see [`RewriteTechnique`]).
const SUPPORT_ALIAS: &str = "__aqp_support";

/// Rewrites `query` to run over a weighted sample table registered as
/// [`SAMPLE_TABLE_NAME`]. Returns the plan only; see [`answer_via_rewrite`]
/// for the end-to-end path.
pub fn rewrite_plan(query: &AggQuery) -> LogicalPlan {
    build_plan(query, false)
}

/// The rewrite rules, with an optional hidden `COUNT(*)` per group so the
/// caller can observe how many raw sample rows support each output row
/// (the gate [`RewriteTechnique`] declines on).
fn build_plan(query: &AggQuery, with_support: bool) -> LogicalPlan {
    let w = || col(WEIGHT_COLUMN);
    let mut q = Query::scan(SAMPLE_TABLE_NAME);
    for j in &query.joins {
        q = q.join(Query::scan(&j.dim_table), col(&j.fact_key), col(&j.dim_key));
    }
    if let Some(p) = &query.predicate {
        q = q.filter(p.clone());
    }
    // Intermediate aggregates: per AVG we need the weighted numerator and
    // the weighted indicator mass separately.
    let mut inner_aggs: Vec<AggExpr> = Vec::new();
    let mut final_exprs: Vec<(Expr, String)> = query
        .group_by
        .iter()
        .map(|(_, name)| (col(name), name.clone()))
        .collect();
    for (i, a) in query.aggregates.iter().enumerate() {
        match a.kind {
            LinearAgg::Sum => {
                let alias = format!("__num_{i}");
                inner_aggs.push(AggExpr::sum(a.expr.clone().mul(w()), &alias));
                final_exprs.push((col(&alias), a.alias.clone()));
            }
            LinearAgg::CountStar => {
                let alias = format!("__num_{i}");
                inner_aggs.push(AggExpr::sum(w(), &alias));
                final_exprs.push((col(&alias), a.alias.clone()));
            }
            LinearAgg::Avg => {
                let num = format!("__num_{i}");
                let den = format!("__den_{i}");
                inner_aggs.push(AggExpr::sum(a.expr.clone().mul(w()), &num));
                inner_aggs.push(AggExpr::sum(w(), &den));
                final_exprs.push((col(&num).div(col(&den)), a.alias.clone()));
            }
        }
    }
    if with_support {
        inner_aggs.push(AggExpr::count_star(SUPPORT_ALIAS));
        final_exprs.push((col(SUPPORT_ALIAS), SUPPORT_ALIAS.to_string()));
    }
    q.aggregate(query.group_by.clone(), inner_aggs)
        .project(final_exprs)
        .build()
}

/// End-to-end middleware answering: materializes the sample with its
/// weight column, assembles a scratch catalog (sample + the original
/// dimension tables), and executes the rewritten plan on the exact engine.
///
/// The result carries the query's group-by columns followed by the
/// aggregate aliases, exactly like the exact plan's output — but computed
/// from the sample's rows only.
pub fn answer_via_rewrite(
    catalog: &Catalog,
    query: &AggQuery,
    sample: &Sample,
) -> Result<ResultSet, AqpError> {
    execute_rewritten(catalog, query, sample, false, ExecOptions::default())
}

fn execute_rewritten(
    catalog: &Catalog,
    query: &AggQuery,
    sample: &Sample,
    with_support: bool,
    opts: ExecOptions,
) -> Result<ResultSet, AqpError> {
    let weighted = sample.to_weighted_table(SAMPLE_TABLE_NAME, WEIGHT_COLUMN)?;
    let scratch = Catalog::new();
    scratch.register(weighted)?;
    for j in &query.joins {
        // A clone shares the dimension's cached key index, so the scratch
        // catalog's join finds it built.
        let dim = catalog.get(&j.dim_table)?;
        scratch.register((*dim).clone())?;
    }
    let plan = build_plan(query, with_support);
    Ok(execute_with(&plan, &scratch, opts)?)
}

/// The middleware family as the router sees it: a weighted block sample is
/// drawn at query time at a fixed `rate`, the rewritten plan runs on the
/// unmodified exact engine, and the output is served as **point
/// estimates** — no interval is carried (the flat rewrite deliberately
/// drops the per-block statistics the variance path needs). That is the
/// VerdictDB trade: maximal deployability and query generality, no error
/// guarantee — which is why routing policy places it after the
/// guarantee-carrying families.
pub struct RewriteTechnique<'a> {
    catalog: &'a Catalog,
    /// Bernoulli block-sampling rate of the weighted sample.
    rate: f64,
    /// Decline when any output group is supported by fewer raw sample
    /// rows than this (point estimates from a handful of rows are noise).
    min_group_support: u64,
    /// Engine worker count for the rewritten plan; `None` = all cores.
    threads: Option<usize>,
}

impl<'a> RewriteTechnique<'a> {
    /// Creates the middleware technique over `catalog`.
    pub fn new(catalog: &'a Catalog, rate: f64, min_group_support: u64) -> Self {
        Self {
            catalog,
            rate,
            min_group_support,
            threads: None,
        }
    }

    /// Runs the rewritten plan on `threads` engine workers instead of all
    /// cores — the per-query grant a concurrent service hands out.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }
}

impl Technique for RewriteTechnique<'_> {
    fn kind(&self) -> TechniqueKind {
        TechniqueKind::MiddlewareRewrite
    }

    fn profile(&self) -> TechniqueProfile {
        TechniqueProfile {
            answers: "any normalized star linear-aggregate query, rewritten over a weighted sample",
            speedup_source: "fixed-rate sample through the unmodified exact engine",
            implemented_in: "core::rewrite",
            guarantee: Guarantee::PointEstimate,
        }
    }

    fn answer(&self, query: &AggQuery, spec: &ErrorSpec, seed: u64) -> Result<Attempt, AqpError> {
        let ctx = LintContext::new(self.catalog);
        if let Some(declined) = decline_if_blocked(self.kind(), query, &ctx) {
            return Ok(declined);
        }
        let start = Instant::now();
        let fact = self.catalog.get(&query.fact_table)?;
        let population_rows = fact.row_count() as u64;
        let mut sample_span = aqp_obs::span("rewrite:sample");
        let sample = bernoulli_blocks(&fact, self.rate, seed);
        if sample_span.is_recording() {
            sample_span.set_rows(sample.num_rows() as u64);
            sample_span.set_detail(format!("rate={:.3}", self.rate));
        }
        sample_span.finish();
        let dim_rows: u64 = query
            .joins
            .iter()
            .map(|j| {
                self.catalog
                    .get(&j.dim_table)
                    .map(|t| t.row_count() as u64)
                    .unwrap_or(0)
            })
            .sum();
        // Dimension rows are charged on every query, as when the engine
        // re-indexed each dimension per query: the cached key index means
        // they are no longer read, but the count keeps `rows_scanned` and
        // `rewrite.ns_per_row` comparable across that change.
        let rows_scanned = sample.num_rows() as u64 + dim_rows;
        let mut exec_span = aqp_obs::span("rewrite:exec");
        let opts = self
            .threads
            .map_or_else(ExecOptions::default, ExecOptions::with_threads);
        let result = execute_rewritten(self.catalog, query, &sample, true, opts)?;
        if exec_span.is_recording() {
            exec_span.set_rows(result.num_rows() as u64);
        }
        exec_span.finish();
        let key_len = query.group_by.len();
        let num_aggs = query.aggregates.len();
        let mut min_support = u64::MAX;
        let mut raw: Vec<(Vec<Value>, Vec<Estimate>)> = Vec::with_capacity(result.num_rows());
        for row in result.rows() {
            let support = row[key_len + num_aggs].as_f64().unwrap_or(0.0) as u64;
            min_support = min_support.min(support);
            let estimates = row[key_len..key_len + num_aggs]
                .iter()
                // Point estimate: the spread is unobservable through the
                // flat rewrite, so the variance is marked unknown.
                .map(|v| Estimate::new(v.as_f64().unwrap_or(0.0), f64::MAX, support))
                .collect();
            raw.push((row[..key_len].to_vec(), estimates));
        }
        if raw.is_empty() || min_support < self.min_group_support {
            return Ok(Attempt::Declined {
                reason: DeclineReason::InsufficientSupport {
                    rows: if raw.is_empty() { 0 } else { min_support },
                    min_rows: self.min_group_support,
                },
                rows_scanned,
            });
        }
        Ok(Attempt::Answered(assemble_answer(
            query.group_by.iter().map(|(_, n)| n.clone()).collect(),
            query.aggregates.iter().map(|a| a.alias.clone()).collect(),
            raw,
            spec.confidence,
            ExecutionReport {
                path: ExecutionPath::MiddlewareRewrite { rate: self.rate },
                population_rows,
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
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggquery::{AggSpec, JoinSpec};
    use aqp_engine::execute;
    use aqp_expr::lit;
    use aqp_sampling::{bernoulli_blocks, bernoulli_rows};
    use aqp_workload::{build_star_schema, StarScale};

    fn star() -> Catalog {
        let c = Catalog::new();
        build_star_schema(&c, &StarScale::tiny(), 71).unwrap();
        c
    }

    fn query() -> AggQuery {
        AggQuery {
            fact_table: "lineitem".into(),
            joins: vec![JoinSpec {
                dim_table: "orders".into(),
                fact_key: "l_orderkey".into(),
                dim_key: "o_key".into(),
            }],
            predicate: Some(col("l_sel").lt(lit(0.6))),
            group_by: vec![(col("o_priority"), "o_priority".into())],
            aggregates: vec![
                AggSpec {
                    kind: LinearAgg::Sum,
                    expr: col("l_price"),
                    alias: "rev".into(),
                },
                AggSpec {
                    kind: LinearAgg::CountStar,
                    expr: lit(1i64),
                    alias: "n".into(),
                },
                AggSpec {
                    kind: LinearAgg::Avg,
                    expr: col("l_quantity"),
                    alias: "avg_q".into(),
                },
            ],
        }
    }

    #[test]
    fn rewrite_at_full_rate_reproduces_exact_answers() {
        // A rate-1.0 "sample" (weights all 1) must reproduce the exact
        // result bit-for-bit through the rewrite.
        let c = star();
        let q = query();
        let exact = execute(&q.to_plan(), &c).unwrap();
        let full = bernoulli_blocks(&c.get("lineitem").unwrap(), 1.0, 1);
        let approx = answer_via_rewrite(&c, &q, &full).unwrap();
        assert_eq!(approx.num_rows(), exact.num_rows());
        for (er, ar) in exact.rows().iter().zip(approx.rows()) {
            assert_eq!(er[0], ar[0], "group keys align");
            for (ev, av) in er[1..].iter().zip(&ar[1..]) {
                let (e, a) = (ev.as_f64().unwrap(), av.as_f64().unwrap());
                assert!((e - a).abs() < 1e-9 * (1.0 + e.abs()), "{e} vs {a}");
            }
        }
    }

    #[test]
    fn rewrite_estimates_close_to_exact_at_20_percent() {
        let c = star();
        let q = query();
        let exact = execute(&q.to_plan(), &c).unwrap();
        let s = bernoulli_rows(&c.get("lineitem").unwrap(), 0.2, 5);
        let approx = answer_via_rewrite(&c, &q, &s).unwrap();
        // All 3 priorities should appear; revenue within ~15% at 20%.
        assert_eq!(approx.num_rows(), exact.num_rows());
        for er in exact.rows() {
            let ar = approx
                .rows()
                .into_iter()
                .find(|r| r[0] == er[0])
                .expect("group present");
            let (e, a) = (er[1].as_f64().unwrap(), ar[1].as_f64().unwrap());
            assert!(
                (e - a).abs() / e < 0.2,
                "group {:?}: exact {e} approx {a}",
                er[0]
            );
        }
    }

    #[test]
    fn rewrite_plan_shape() {
        let plan = rewrite_plan(&query());
        // Root is the ratio projection; the sample table is scanned.
        assert!(matches!(plan, LogicalPlan::Project { .. }));
        assert_eq!(plan.scanned_tables(), vec![SAMPLE_TABLE_NAME, "orders"]);
    }

    #[test]
    fn missing_dimension_errors() {
        let c = Catalog::new();
        build_star_schema(&c, &StarScale::tiny(), 72).unwrap();
        let mut q = query();
        q.joins[0].dim_table = "nope".into();
        let s = bernoulli_rows(&c.get("lineitem").unwrap(), 0.5, 1);
        assert!(answer_via_rewrite(&c, &q, &s).is_err());
    }
}
