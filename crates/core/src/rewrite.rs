//! Middleware query rewriting: answer a star query by rewriting it over a
//! weighted sample and running the *unmodified exact engine* — the
//! VerdictDB-style architecture NSB identifies as the deployable form of
//! AQP (no engine changes, plain SQL-shaped rewrites).
//!
//! The rewrite rules are the classical ones, with the weight `w` a literal
//! when the sample's rows share one weight (Bernoulli rows or blocks,
//! universe) and a weight column only when they do not:
//!
//! * `SCAN fact`      → `SCAN sample`: the sample's own blocks, no column
//!   copied, under a literal weight `w = lit(1/rate)`; a per-row-weighted
//!   sample (stratified) is copied once with its weights appended as the
//!   column `w = col(__aqp_w)`
//! * `SUM(x)`         → `SUM(x · w)`
//! * `COUNT(*)`       → `SUM(w)`
//! * `AVG(x)`         → `AVG(x)`: on a sample whose rows share one
//!   weight the weighted ratio `Σ x·w / Σ w` over the rows with a
//!   non-NULL `x` is the plain average. A sample with per-row weights
//!   cannot answer an AVG here ([`AqpError::Unsupported`]).
//!
//! The literal keeps the per-row multiply, so a literal-weight answer is
//! bit for bit the weight-column answer (`tests/middleware_equivalence.rs`).
//!
//! This module produces **point estimates** through the engine. An
//! interval needs the per-block totals the flat rewrite intentionally does
//! not carry: every block-sampled family that has them — [`crate::online`]
//! and [`crate::ola`] — ends in the one cluster estimator,
//! `aqp_sampling::design::PairStats::clusters`.
//! `tests/middleware_equivalence.rs` proves rewrite's and online's point
//! values agree.

use std::sync::Arc;
use std::time::Instant;

use aqp_analyze::LintContext;
use aqp_engine::{execute_with, AggExpr, ExecOptions, LogicalPlan, Query, ResultSet};
use aqp_expr::{col, lit, Expr};
use aqp_sampling::{bernoulli_blocks, RowWeights, Sample};
use aqp_stats::Estimate;
use aqp_storage::{Catalog, Table, Value};

use crate::aggquery::{AggQuery, LinearAgg};
use crate::answer::{assemble_answer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::spec::ErrorSpec;
use crate::technique::{decline_if_blocked, Attempt, DeclineReason, Technique, TechniqueKind};

/// The reserved name the rewritten plan scans instead of the fact table.
const SAMPLE_TABLE_NAME: &str = "__aqp_weighted_sample";
/// The reserved weight-column name appended to a per-row-weighted sample.
const WEIGHT_COLUMN: &str = "__aqp_w";
/// Alias of the hidden per-group raw-row count appended when the caller
/// wants support observability (see [`RewriteTechnique`]).
const SUPPORT_ALIAS: &str = "__aqp_support";

/// The rewrite rules over a sample table registered as
/// [`SAMPLE_TABLE_NAME`] with row weight `w` (a literal or the weight
/// column), with an optional hidden `COUNT(*)` per group so the caller can
/// observe how many raw sample rows support each output row (the gate
/// [`RewriteTechnique`] declines on).
fn build_plan(query: &AggQuery, w: &Expr, with_support: bool) -> LogicalPlan {
    let mut q = Query::scan(SAMPLE_TABLE_NAME);
    for j in &query.joins {
        q = q.join(Query::scan(&j.dim_table), col(&j.fact_key), col(&j.dim_key));
    }
    if let Some(p) = &query.predicate {
        q = q.filter(p.clone());
    }
    let mut inner_aggs: Vec<AggExpr> = Vec::new();
    let mut final_exprs: Vec<(Expr, String)> = query
        .group_by
        .iter()
        .map(|(_, name)| (col(name), name.clone()))
        .collect();
    for (i, a) in query.aggregates.iter().enumerate() {
        let alias = format!("__agg_{i}");
        inner_aggs.push(match a.kind {
            LinearAgg::Sum => AggExpr::sum(a.expr.clone().mul(w.clone()), &alias),
            LinearAgg::CountStar => AggExpr::sum(w.clone(), &alias),
            LinearAgg::Avg => AggExpr::avg(a.expr.clone(), &alias),
        });
        final_exprs.push((col(&alias), a.alias.clone()));
    }
    if with_support {
        inner_aggs.push(AggExpr::count_star(SUPPORT_ALIAS));
        final_exprs.push((col(SUPPORT_ALIAS), SUPPORT_ALIAS.to_string()));
    }
    q.aggregate(query.group_by.clone(), inner_aggs)
        .project(final_exprs)
        .build()
}

/// The table the rewritten plan scans, named [`SAMPLE_TABLE_NAME`], and
/// the row weight its plan multiplies by. A sample whose rows share one
/// weight is scanned in place — its own blocks, zone maps and all — under
/// a literal weight; only per-row weights are copied out as a column.
fn sample_source(query: &AggQuery, sample: &Sample) -> Result<(Table, Expr), AqpError> {
    match &sample.weights {
        RowWeights::Uniform(w) => {
            let t = &sample.table;
            let table = Table::from_blocks(
                SAMPLE_TABLE_NAME,
                Arc::clone(t.schema()),
                t.blocks().to_vec(),
                t.block_capacity(),
            );
            Ok((table, lit(*w)))
        }
        RowWeights::PerRow(_) if query.aggregates.iter().any(|a| a.kind == LinearAgg::Avg) => {
            Err(AqpError::Unsupported {
                detail: "the rewrite's AVG needs a sample whose rows share one weight".into(),
            })
        }
        RowWeights::PerRow(_) => {
            let weighted = sample.to_weighted_table(SAMPLE_TABLE_NAME, WEIGHT_COLUMN)?;
            Ok((weighted, col(WEIGHT_COLUMN)))
        }
    }
}

/// End-to-end middleware answering on all cores:
/// [`answer_via_rewrite_with`] at the default [`ExecOptions`].
pub fn answer_via_rewrite(
    catalog: &Catalog,
    query: &AggQuery,
    sample: &Sample,
) -> Result<ResultSet, AqpError> {
    answer_via_rewrite_with(catalog, query, sample, ExecOptions::default())
}

/// End-to-end middleware answering: assembles a scratch catalog (the
/// sample — its own blocks under a literal weight when its rows share
/// one, else a copy with a weight column — and the original dimension
/// tables) and executes the rewritten plan on the exact engine under
/// `opts`.
///
/// The result carries the query's group-by columns followed by the
/// aggregate aliases, exactly like the exact plan's output — but computed
/// from the sample's rows only.
pub fn answer_via_rewrite_with(
    catalog: &Catalog,
    query: &AggQuery,
    sample: &Sample,
    opts: ExecOptions,
) -> Result<ResultSet, AqpError> {
    execute_rewritten(catalog, query, sample, false, opts)
}

fn execute_rewritten(
    catalog: &Catalog,
    query: &AggQuery,
    sample: &Sample,
    with_support: bool,
    opts: ExecOptions,
) -> Result<ResultSet, AqpError> {
    let (source, w) = sample_source(query, sample)?;
    let scratch = Catalog::new();
    scratch.register(source)?;
    for j in &query.joins {
        // A clone shares the dimension's cached key index, so the scratch
        // catalog's join finds it built.
        let dim = catalog.get(&j.dim_table)?;
        scratch.register((*dim).clone())?;
    }
    let plan = build_plan(query, &w, with_support);
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
        // A rate-1.0 "sample" (weight 1) is the fact's own blocks under
        // `x · 1.0 = x`: same blocks, same morsels, so the rewrite
        // reproduces the exact result bit for bit.
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
                assert_eq!(e.to_bits(), a.to_bits(), "{e} vs {a}");
            }
        }
    }

    /// A sample whose rows share one weight is scanned in place: the
    /// rewritten plan's table holds the sample's own blocks, and its
    /// weight is a literal. A per-row-weighted one is copied with the
    /// weight column.
    #[test]
    fn a_uniform_weight_sample_is_scanned_in_place() {
        use aqp_sampling::{stratified_sample, Allocation};
        let c = star();
        let fact = c.get("lineitem").unwrap();
        let s = bernoulli_blocks(&fact, 0.3, 4);
        let (scanned, w) = sample_source(&query(), &s).unwrap();
        assert_eq!(scanned.name(), SAMPLE_TABLE_NAME);
        assert_eq!(w, lit(1.0 / 0.3));
        assert_eq!(scanned.block_count(), s.table.block_count());
        assert!((scanned.blocks().iter().zip(s.table.blocks())).all(|(a, b)| Arc::ptr_eq(a, b)));

        let alloc = Allocation::Congressional { budget: 500 };
        let strat = stratified_sample(&fact, "l_shipmode", &alloc, 3).unwrap();
        let mut sums = query();
        sums.aggregates.retain(|a| a.kind != LinearAgg::Avg);
        let (copied, w) = sample_source(&sums, &strat).unwrap();
        assert_eq!(w, col(WEIGHT_COLUMN));
        assert_eq!(copied.schema().len(), strat.table.schema().len() + 1);
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
        let plan = build_plan(&query(), &lit(5.0), false);
        // Root is the projection naming the rewritten aggregates; the
        // sample table is scanned.
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

    /// With no NULL measure, the engine's AVG over a self-weighting sample
    /// is the `SUM(x·w) / SUM(w)` ratio up to rounding in the last bits.
    #[test]
    fn avg_on_null_free_data_is_the_weighted_ratio() {
        let c = star();
        let q = query();
        let s = bernoulli_blocks(&c.get("lineitem").unwrap(), 0.2, 9);
        let got = answer_via_rewrite(&c, &q, &s).unwrap();
        let scratch = Catalog::new();
        scratch
            .register(s.to_weighted_table("w", WEIGHT_COLUMN).unwrap())
            .unwrap();
        scratch
            .register((*c.get("orders").unwrap()).clone())
            .unwrap();
        let w = || col(WEIGHT_COLUMN);
        let ratio = Query::scan("w")
            .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
            .filter(col("l_sel").lt(lit(0.6)))
            .aggregate(
                vec![(col("o_priority"), "o_priority".into())],
                vec![
                    AggExpr::sum(col("l_quantity").mul(w()), "num"),
                    AggExpr::sum(w(), "den"),
                ],
            )
            .project(vec![
                (col("o_priority"), "o_priority".into()),
                (col("num").div(col("den")), "avg_q".into()),
            ])
            .build();
        let want = execute(&ratio, &scratch).unwrap();
        assert_eq!(want.num_rows(), got.num_rows());
        for (wr, gr) in want.rows().iter().zip(got.rows()) {
            assert_eq!(wr[0], gr[0], "group keys align");
            let (e, a) = (wr[1].as_f64().unwrap(), gr[3].as_f64().unwrap());
            assert!((e - a).abs() <= 1e-12 * e.abs(), "{e} vs {a}");
        }
    }

    /// A per-row-weighted sample's plain AVG is not its weighted ratio.
    #[test]
    fn avg_over_a_per_row_weighted_sample_is_unsupported() {
        use aqp_sampling::{stratified_sample, Allocation};
        let c = star();
        let fact = c.get("lineitem").unwrap();
        let alloc = Allocation::Congressional { budget: 500 };
        let s = stratified_sample(&fact, "l_shipmode", &alloc, 3).unwrap();
        assert!(matches!(s.weights, RowWeights::PerRow(_)));
        let err = answer_via_rewrite(&c, &query(), &s).unwrap_err();
        assert!(matches!(err, AqpError::Unsupported { .. }), "{err}");
        let mut sums = query();
        sums.aggregates.retain(|a| a.kind != LinearAgg::Avg);
        assert!(answer_via_rewrite(&c, &sums, &s).is_ok());
    }
}
