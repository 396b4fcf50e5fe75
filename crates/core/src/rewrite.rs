//! Middleware query rewriting, VerdictDB-style: answer a star query over a
//! block sample drawn at query time, grouped by the sample's design unit,
//! and reduce the per-unit totals to estimates *and* intervals.
//!
//! VerdictDB gives a middleware error bars by rewriting the user's query
//! to group by the sample's block id as well, then reducing the
//! per-(block, group) totals. That grouped plan is exactly the engine's
//! block fold [`crate::evaluator::SampledTotals::draw`] runs for online
//! sampling and online aggregation: the query's own aggregate step
//! ([`aqp_engine::AggStep::fold_units`]), whose per-(block, group) totals
//! `PairStats::clusters` turns into the cluster estimate and its variance.
//! So the rewrite is that fold at a fixed rate, with no pilot: every
//! sampled family answers through one estimator, and the rewrite's answer
//! is [`aqp_analyze::GuaranteeClass::APosteriori`] — its interval, not a
//! planned rate, says whether the contract was met.
//!
//! The cluster expansion scales by the share of blocks actually drawn
//! (`M/m`), not by the nominal `1/rate`: with ~20 blocks drawn the realized
//! share alone swings by ±23 %, noise a rate-scaled answer would carry.

use std::time::Instant;

use aqp_analyze::LintContext;
use aqp_expr::lit;
use aqp_storage::Catalog;

use crate::aggquery::{AggQuery, AggSpec, LinearAgg};
use crate::answer::{assemble_answer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::evaluator::{SampledTotals, StarEvaluator};
use crate::spec::ErrorSpec;
use crate::technique::{decline_if_blocked, Attempt, DeclineReason, Technique, TechniqueKind};

/// Alias of the hidden `COUNT(*)` the fold carries after the query's own
/// aggregates: each group's raw sample rows, the support gate's count.
const SUPPORT_ALIAS: &str = "__aqp_support";

/// The middleware family as the router sees it: a Bernoulli block sample
/// is drawn at query time at a fixed `rate` and folded through the
/// query's aggregate step, and the answer carries cluster intervals at
/// the contract's Boole-split confidence. It declines when any output
/// group is supported by fewer raw sample rows than `min_group_support`.
pub struct RewriteTechnique<'a> {
    catalog: &'a Catalog,
    /// Bernoulli block-sampling rate of the query-time sample.
    rate: f64,
    /// Decline when any output group is supported by fewer raw sample
    /// rows than this.
    min_group_support: u64,
    /// Threads folding the sample's morsels; `None` = all cores.
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

    /// Folds the sample on `threads` threads instead of all cores — the
    /// per-query grant a concurrent service hands out.
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
        let num_aggs = query.aggregates.len();
        let mut counted = query.clone();
        counted.aggregates.push(AggSpec {
            kind: LinearAgg::CountStar,
            expr: lit(1i64),
            alias: SUPPORT_ALIAS.into(),
        });
        let evaluator = StarEvaluator::new(self.catalog, &counted)?;
        let threads = (self.threads).unwrap_or_else(aqp_engine::pool::default_threads);
        let (totals, rows) =
            SampledTotals::draw(&evaluator, self.rate, seed, threads, "rewrite:fold")?;
        // Dimension rows are charged on every query, as when the engine
        // re-indexed each dimension per query: the cached key index means
        // they are no longer read, but the count keeps `rows_scanned` and
        // `rewrite.ns_per_row` comparable across that change.
        let rows_scanned = rows + evaluator.dim_rows();
        // The hidden COUNT(*)'s Σf over a group's blocks is its raw row
        // count, exactly: an integer sum, not a scaled estimate.
        let support = (totals.groups())
            .map(|g| g.totals[num_aggs].sum_f() as u64)
            .min();
        if support.is_none_or(|s| s < self.min_group_support) {
            return Ok(Attempt::Declined {
                reason: DeclineReason::InsufficientSupport {
                    rows: support.unwrap_or(0),
                    min_rows: self.min_group_support,
                },
                rows_scanned,
            });
        }
        let mut raw = totals.estimates(&evaluator);
        for (_, estimates) in &mut raw {
            estimates.truncate(num_aggs);
        }
        let ci_conf = spec.split_across((raw.len() * num_aggs).max(1)).confidence;
        Ok(Attempt::Answered(assemble_answer(
            query.group_by.iter().map(|(_, n)| n.clone()).collect(),
            query.aggregates.iter().map(|a| a.alias.clone()).collect(),
            raw,
            ci_conf,
            ExecutionReport {
                path: ExecutionPath::MiddlewareRewrite { rate: self.rate },
                population_rows: evaluator.fact().row_count() as u64,
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
    use crate::aggquery::JoinSpec;
    use crate::answer::ApproximateAnswer;
    use aqp_engine::execute;
    use aqp_expr::col;
    use aqp_sampling::bernoulli_blocks;
    use aqp_storage::Table;
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

    fn answer(c: &Catalog, rate: f64, min_support: u64, seed: u64) -> Attempt {
        let spec = ErrorSpec::new(0.1, 0.95);
        (RewriteTechnique::new(c, rate, min_support).with_threads(Some(2)))
            .answer(&query(), &spec, seed)
            .unwrap()
    }

    fn answered(attempt: Attempt) -> ApproximateAnswer {
        match attempt {
            Attempt::Answered(ans) => ans,
            Attempt::Declined { reason, .. } => panic!("declined: {reason:?}"),
        }
    }

    /// A catalog whose `lineitem` is the very Bernoulli block sample the
    /// rewrite draws at `(rate, seed)`, beside the full `orders`.
    fn sampled_catalog(c: &Catalog, rate: f64, seed: u64) -> Catalog {
        let sample = bernoulli_blocks(&c.get("lineitem").unwrap(), rate, seed);
        let sampled = Catalog::new();
        let t = &sample.table;
        let (schema, cap) = (t.schema().clone(), t.block_capacity());
        sampled
            .register(Table::from_blocks(
                "lineitem",
                schema,
                t.blocks().to_vec(),
                cap,
            ))
            .unwrap();
        sampled
            .register((*c.get("orders").unwrap()).clone())
            .unwrap();
        sampled
    }

    /// A rate-1.0 sample is a census: every value is the exact one up to
    /// the cluster expansion's rounding, and every interval has width 0.
    #[test]
    fn rewrite_at_full_rate_reproduces_exact_answers() {
        let c = star();
        let exact = execute(&query().to_plan(), &c).unwrap();
        let ans = answered(answer(&c, 1.0, 1, 1));
        assert_eq!(ans.groups.len(), exact.num_rows());
        for (er, g) in exact.rows().iter().zip(&ans.groups) {
            assert_eq!(er[0], g.key[0], "group keys align");
            for ((ev, est), ci) in er[1..].iter().zip(&g.estimates).zip(&g.intervals) {
                let e = ev.as_f64().unwrap();
                assert!((e - est.value).abs() <= 1e-12 * e.abs(), "{e} vs {est:?}");
                assert_eq!(ci.hi - ci.lo, 0.0, "a census has no spread");
            }
        }
    }

    /// At a partial rate every group carries a finite interval at the
    /// Boole-split confidence, and the rows charged are the sample's plus
    /// the dimension's.
    #[test]
    fn a_block_sample_answers_with_finite_intervals() {
        let c = star();
        let ans = answered(answer(&c, 0.5, 1, 3));
        let sample = bernoulli_blocks(&c.get("lineitem").unwrap(), 0.5, 3);
        assert!(sample.table.block_count() >= 2);
        let orders = c.get("orders").unwrap().row_count();
        assert_eq!(ans.report.rows_scanned, (sample.num_rows() + orders) as u64);
        let want = ErrorSpec::new(0.1, 0.95).split_across(ans.groups.len() * 3);
        for g in &ans.groups {
            for ci in &g.intervals {
                assert!(ci.lo.is_finite() && ci.hi.is_finite() && ci.lo < ci.hi);
                assert_eq!(ci.confidence, want.confidence);
            }
        }
    }

    /// The support gate reads each group's raw sampled rows — the exact
    /// plan's COUNT(*) over the sampled blocks — not a scaled estimate.
    #[test]
    fn the_support_gate_counts_raw_sample_rows() {
        let c = star();
        let (rate, seed) = (0.4, 5);
        let Attempt::Declined { reason, .. } = answer(&c, rate, u64::MAX, seed) else {
            panic!("no group has u64::MAX rows");
        };
        let mut counts = query();
        counts.aggregates.truncate(2);
        let exact = execute(&counts.to_plan(), &sampled_catalog(&c, rate, seed)).unwrap();
        let min = (exact.rows().iter())
            .map(|r| r[2].as_i64().unwrap() as u64)
            .min()
            .unwrap();
        assert_eq!(
            reason,
            DeclineReason::InsufficientSupport {
                rows: min,
                min_rows: u64::MAX
            }
        );
        // At that very count the gate lets the answer through.
        answered(answer(&c, rate, min, seed));
    }

    /// At a 20 % block rate every group is present and each revenue
    /// estimate lands near the exact one. Blocks of 16 rows give ~30
    /// sampled blocks, a design as large as a 20 % row sample's ~500 rows
    /// in effect; four blocks of 128 would leave the expansion `M/m` one
    /// block's swing.
    #[test]
    fn rewrite_estimates_close_to_exact_at_20_percent() {
        let c = Catalog::new();
        let scale = StarScale {
            block_capacity: 16,
            ..StarScale::tiny()
        };
        build_star_schema(&c, &scale, 71).unwrap();
        let exact = execute(&query().to_plan(), &c).unwrap();
        let ans = answered(answer(&c, 0.2, 1, 5));
        assert_eq!(ans.groups.len(), exact.num_rows());
        for er in exact.rows() {
            let g = (ans.groups.iter())
                .find(|g| g.key[0] == er[0])
                .expect("group present");
            let (e, a) = (er[1].as_f64().unwrap(), g.estimates[0].value);
            assert!(
                (e - a).abs() / e < 0.2,
                "group {:?}: exact {e} approx {a}",
                er[0]
            );
        }
    }

    /// With no NULL measure, AVG's cluster ratio `Σ sum / Σ count` over the
    /// drawn blocks is the exact AVG over those blocks' rows: the expansion
    /// `M/m` cancels, up to rounding in the last bits.
    #[test]
    fn avg_on_null_free_data_is_the_weighted_ratio() {
        let c = star();
        let (rate, seed) = (0.2, 9);
        let got = answered(answer(&c, rate, 1, seed));
        let mut avg = query();
        avg.aggregates.retain(|a| a.kind == LinearAgg::Avg);
        let want = execute(&avg.to_plan(), &sampled_catalog(&c, rate, seed)).unwrap();
        assert_eq!(want.num_rows(), got.groups.len());
        for (wr, g) in want.rows().iter().zip(&got.groups) {
            assert_eq!(wr[0], g.key[0], "group keys align");
            let (e, a) = (wr[1].as_f64().unwrap(), g.estimates[2].value);
            assert!((e - a).abs() <= 1e-12 * e.abs(), "{e} vs {a}");
        }
    }

    #[test]
    fn missing_dimension_errors() {
        let c = star();
        let mut q = query();
        q.joins[0].dim_table = "nope".into();
        let rewrite = RewriteTechnique::new(&c, 0.5, 1);
        assert!(rewrite.answer(&q, &ErrorSpec::new(0.1, 0.95), 1).is_err());
    }
}
