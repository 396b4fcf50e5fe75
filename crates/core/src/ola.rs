//! Online aggregation (Hellerstein et al.).
//!
//! The third family NSB surveys: process data in random order, show a
//! running estimate with a shrinking confidence interval, stop when the
//! user is satisfied. The CI shrinks as `1/√n` — and reaching zero error
//! requires touching everything, which is NSB's bound on this family's
//! speedup. It is the online sampler's block fold ([`crate::online`]) with
//! another stop rule: the same [`SampledTotals::fold`] adds each block —
//! a one-block morsel, since the stop rule looks after every block — and
//! the same cluster estimator finishes the totals, over whole *blocks* in
//! a seeded random permutation (the processed prefix is an exact SRS of
//! blocks, and its totals are the ones folding that prefix as one sample
//! gives). The pilot-planned sampler stops at the rate its pilot planned;
//! [`OlaTechnique`] stops when the live interval is narrow enough.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use std::time::Instant;

use aqp_analyze::LintContext;
use aqp_stats::Estimate;
use aqp_storage::{Catalog, Value};

use crate::aggquery::AggQuery;
use crate::answer::{assemble_answer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::evaluator::{SampledTotals, StarEvaluator};
use crate::spec::ErrorSpec;
use crate::technique::{decline_if_blocked, Attempt, Technique, TechniqueKind};

/// Progressive aggregation of a star query over a random block
/// permutation of its fact table.
pub struct OnlineAggregator {
    evaluator: StarEvaluator,
    order: Vec<usize>,
    /// Over the processed prefix of `order`.
    totals: SampledTotals,
    rows_seen: u64,
}

impl OnlineAggregator {
    /// Starts a progressive aggregation of `query`, its fact blocks in the
    /// order `seed` shuffles them into. Errors as [`StarEvaluator::new`]
    /// does — an unknown column here rather than at the first step.
    pub fn new(catalog: &Catalog, query: &AggQuery, seed: u64) -> Result<Self, AqpError> {
        let evaluator = StarEvaluator::new(catalog, query)?;
        let mut order: Vec<usize> = (0..evaluator.fact().block_count()).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed));
        Ok(Self {
            totals: SampledTotals::new(&evaluator),
            evaluator,
            order,
            rows_seen: 0,
        })
    }

    /// Processes the next block. Returns `false` when everything has been
    /// consumed.
    pub fn step(&mut self) -> Result<bool, AqpError> {
        let Some(&bi) = self.order.get(self.blocks_processed()) else {
            return Ok(false);
        };
        let block = self.evaluator.fact().block(bi);
        self.totals
            .fold(&self.evaluator, std::slice::from_ref(block), 1)?;
        self.rows_seen += block.len() as u64;
        Ok(true)
    }

    /// Blocks processed so far.
    pub fn blocks_processed(&self) -> usize {
        self.totals.blocks() as usize
    }

    /// Fraction of the table consumed.
    pub fn fraction_processed(&self) -> f64 {
        if self.order.is_empty() {
            1.0
        } else {
            self.blocks_processed() as f64 / self.order.len() as f64
        }
    }

    /// Fact rows touched so far.
    fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// The running per-group estimates, in the shape
    /// [`assemble_answer`] takes. The processed prefix is an SRS of
    /// blocks, so the cluster estimator (with fpc) applies — at 100%
    /// processed every interval collapses to the exact answer.
    pub fn estimates(&self) -> Vec<(Vec<Value>, Vec<Estimate>)> {
        self.totals.estimates(&self.evaluator)
    }
}

/// The progressive family as the router sees it: the online aggregator
/// run block by block until every live interval's relative half-width
/// meets the spec, or the table is exhausted (exact). The aggregator
/// folds grouped and joined queries too, but the analyzer admits only an
/// ungrouped single-table `SUM`/`AVG` of one column here, so grouped and
/// joined queries stay with the planned families.
///
/// ⚠ *Peeking caveat (NSB §2.2, citing the A/B-testing literature):* a
/// confidence interval inspected repeatedly until it is narrow enough does
/// not carry its nominal simultaneous coverage, so the guarantee is
/// a-posteriori — an engineering stop rule, not an a-priori contract. The
/// pilot-planned path in [`crate::online`] exists for the contractual
/// case.
pub struct OlaTechnique<'a> {
    catalog: &'a Catalog,
}

impl<'a> OlaTechnique<'a> {
    /// Creates the progressive technique over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }
}

impl Technique for OlaTechnique<'_> {
    fn kind(&self) -> TechniqueKind {
        TechniqueKind::OnlineAggregation
    }

    fn answer(&self, query: &AggQuery, spec: &ErrorSpec, seed: u64) -> Result<Attempt, AqpError> {
        // Joins, group-bys and anything but one SUM/AVG of a bare column
        // are out of shape: decline them before touching data.
        let ctx = LintContext::new(self.catalog);
        if let Some(declined) = decline_if_blocked(self.kind(), query, &ctx) {
            return Ok(declined);
        }
        let start = Instant::now();
        let mut ola = OnlineAggregator::new(self.catalog, query, seed)?;
        // The per-update CI trajectory is the progressive family's defining
        // observable: each block processed should shrink the live interval.
        let mut obs_span = aqp_obs::span("ola:progress");
        let ci_hist = obs_span
            .is_recording()
            .then(aqp_obs::metrics::current)
            .flatten()
            .map(|m| {
                m.histogram(
                    aqp_obs::names::OLA_CI_REL_HALF_WIDTH,
                    aqp_obs::metrics::REL_ERROR_BOUNDS,
                )
            });
        let raw = loop {
            let stepped = ola.step()?;
            let raw = ola.estimates();
            if ola.blocks_processed() >= 2 {
                let rels: Vec<f64> = (raw.iter().flat_map(|(_, estimates)| estimates))
                    .map(|e| e.ci(spec.confidence).relative_half_width())
                    .collect();
                if let Some(h) = &ci_hist {
                    rels.iter()
                        .filter(|r| r.is_finite())
                        .for_each(|&r| h.observe(r));
                }
                if rels.iter().all(|&r| r <= spec.relative_error) {
                    break raw;
                }
            }
            if !stepped {
                break raw;
            }
        };
        let rows_scanned = ola.rows_seen();
        if obs_span.is_recording() {
            obs_span.set_rows(rows_scanned);
            obs_span.set_detail(format!("fraction={:.3}", ola.fraction_processed()));
        }
        obs_span.finish();
        Ok(Attempt::Answered(assemble_answer(
            query.group_by.iter().map(|(_, n)| n.clone()).collect(),
            query.aggregates.iter().map(|a| a.alias.clone()).collect(),
            raw,
            spec.confidence,
            ExecutionReport {
                path: ExecutionPath::OlaProgressive {
                    fraction: ola.fraction_processed(),
                },
                population_rows: ola.evaluator.fact().row_count() as u64,
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
    use std::ops::{Deref, DerefMut};
    use std::sync::Arc;

    use aqp_engine::AggExpr;
    use aqp_expr::{col, lit, Expr};
    use aqp_storage::Table;
    use aqp_workload::uniform_table;

    use crate::aggquery::{AggSpec, LinearAgg};

    /// The single-column view most tests below read: `SUM(column)` and
    /// `AVG(column)` of one table under an optional predicate, run as one
    /// [`super::OnlineAggregator`], which it derefs to.
    struct OnlineAggregator(super::OnlineAggregator);

    impl OnlineAggregator {
        fn new(
            table: Arc<Table>,
            column: &str,
            predicate: Option<Expr>,
            seed: u64,
        ) -> Result<Self, AqpError> {
            let catalog = Catalog::new();
            catalog.register(Table::clone(&table))?;
            let agg = |kind, alias: &str| AggSpec {
                kind,
                expr: col(column),
                alias: alias.into(),
            };
            let query = AggQuery {
                fact_table: table.name().into(),
                joins: vec![],
                predicate,
                group_by: vec![],
                aggregates: vec![agg(LinearAgg::Sum, "s"), agg(LinearAgg::Avg, "a")],
            };
            super::OnlineAggregator::new(&catalog, &query, seed).map(Self)
        }

        fn estimate_sum(&self) -> Estimate {
            self.estimates()[0].1[0]
        }

        fn estimate_avg(&self) -> Estimate {
            self.estimates()[0].1[1]
        }
    }

    impl Deref for OnlineAggregator {
        type Target = super::OnlineAggregator;
        fn deref(&self) -> &Self::Target {
            &self.0
        }
    }

    impl DerefMut for OnlineAggregator {
        fn deref_mut(&mut self) -> &mut Self::Target {
            &mut self.0
        }
    }

    fn table() -> Arc<Table> {
        Arc::new(uniform_table("t", 20_000, 128, 5))
    }

    #[test]
    fn converges_to_exact_sum() {
        let t = table();
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let mut ola = OnlineAggregator::new(Arc::clone(&t), "v", None, 1).unwrap();
        while ola.step().unwrap() {}
        let e = ola.estimate_sum();
        assert!((e.value - truth).abs() < 1e-6);
        assert_eq!(e.variance, 0.0); // fpc: census
        assert_eq!(ola.fraction_processed(), 1.0);
    }

    #[test]
    fn interval_shrinks_monotonically_in_expectation() {
        let t = table();
        let mut ola = OnlineAggregator::new(Arc::clone(&t), "v", None, 2).unwrap();
        let mut widths = Vec::new();
        for _ in 0..10 {
            ola.step().unwrap();
        }
        widths.push(ola.estimate_sum().ci(0.95).width());
        for _ in 0..60 {
            ola.step().unwrap();
        }
        widths.push(ola.estimate_sum().ci(0.95).width());
        for _ in 0..80 {
            ola.step().unwrap();
        }
        widths.push(ola.estimate_sum().ci(0.95).width());
        assert!(widths[1] < widths[0]);
        assert!(widths[2] < widths[1]);
    }

    #[test]
    fn running_ci_covers_truth_most_of_the_time() {
        let t = table();
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let mut hits = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut ola = OnlineAggregator::new(Arc::clone(&t), "v", None, seed).unwrap();
            for _ in 0..30 {
                ola.step().unwrap();
            }
            if ola.estimate_sum().ci(0.95).contains(truth) {
                hits += 1;
            }
        }
        assert!(hits >= 33, "coverage {hits}/{trials}");
    }

    #[test]
    fn predicate_filters() {
        let t = table();
        let truth: f64 = {
            let sel = t.column_f64("sel").unwrap();
            let v = t.column_f64("v").unwrap();
            sel.iter()
                .zip(&v)
                .filter(|(s, _)| **s < 0.5)
                .map(|(_, x)| x)
                .sum()
        };
        let mut ola =
            OnlineAggregator::new(Arc::clone(&t), "v", Some(col("sel").lt(lit(0.5))), 3).unwrap();
        while ola.step().unwrap() {}
        assert!((ola.estimate_sum().value - truth).abs() < 1e-6);
    }

    #[test]
    fn avg_estimate_converges() {
        let t = table();
        let v = t.column_f64("v").unwrap();
        let truth = v.iter().sum::<f64>() / v.len() as f64;
        let mut ola = OnlineAggregator::new(Arc::clone(&t), "v", None, 4).unwrap();
        for _ in 0..40 {
            ola.step().unwrap();
        }
        let e = ola.estimate_avg();
        assert!(
            e.relative_error(truth) < 0.05,
            "rel err {}",
            e.relative_error(truth)
        );
        while ola.step().unwrap() {}
        assert!((ola.estimate_avg().value - truth).abs() < 1e-9);
    }

    /// After k steps the running estimates are the SRS-of-blocks design
    /// estimates of the processed prefix: the two-pass reference over a
    /// `FixedSizeBlocks` sample of exactly those blocks.
    #[test]
    fn running_estimates_match_the_design_reference() {
        use aqp_sampling::{RowWeights, Sample, SampleDesign};
        let t = table();
        let predicate = col("sel").lt(lit(0.5));
        let (sel, v) = (
            t.schema().index_of("sel").unwrap(),
            t.schema().index_of("v").unwrap(),
        );
        let mut ola = OnlineAggregator::new(Arc::clone(&t), "v", Some(predicate), 8).unwrap();
        for k in 1..=40 {
            ola.step().unwrap();
            if ![1, 2, 3, 10, 40].contains(&k) {
                continue;
            }
            let prefix = ola.order[..k].iter().map(|&bi| Arc::clone(&t.blocks()[bi]));
            let sample = Sample {
                table: Table::from_blocks(
                    "prefix",
                    Arc::clone(t.schema()),
                    prefix.collect(),
                    t.block_capacity(),
                ),
                design: SampleDesign::FixedSizeBlocks {
                    population_blocks: t.block_count() as u64,
                    population_rows: t.row_count() as u64,
                },
                weights: RowWeights::Uniform(1.0),
            };
            let ind = |b: &aqp_storage::Block, i: usize| {
                f64::from(u8::from(b.column(sel).f64_at(i).unwrap() < 0.5))
            };
            let x = |b: &aqp_storage::Block, i: usize| b.column(v).f64_at(i).unwrap();
            let pairs = [
                (
                    ola.estimate_sum(),
                    sample.estimate_sum_with(&mut |b, i| ind(b, i) * x(b, i)),
                ),
                (
                    ola.estimate_avg(),
                    sample.estimate_avg_with(&mut |b, i| x(b, i), &mut |b, i| ind(b, i)),
                ),
            ];
            for (got, want) in pairs {
                assert_eq!(got.n, want.n, "k={k}");
                assert!(
                    (got.value - want.value).abs() <= 1e-12 * want.value.abs(),
                    "k={k}: value {} vs {}",
                    got.value,
                    want.value
                );
                assert!(
                    got.variance == want.variance
                        || (got.variance - want.variance).abs() <= 1e-9 * want.variance,
                    "k={k}: variance {} vs {}",
                    got.variance,
                    want.variance
                );
            }
        }
    }

    /// `OlaTechnique::answer` for `agg` over table `t` of `c`: the stopping
    /// estimate and the fraction of the table it consumed.
    fn ola_answer(c: &Catalog, agg: AggExpr, spec: ErrorSpec, seed: u64) -> (Estimate, f64) {
        let plan = aqp_engine::Query::scan("t")
            .aggregate(vec![], vec![agg])
            .build();
        let q = AggQuery::from_plan(&plan).unwrap();
        let Attempt::Answered(ans) = OlaTechnique::new(c).answer(&q, &spec, seed).unwrap() else {
            panic!("OLA declined an ungrouped single-column aggregate")
        };
        let ExecutionPath::OlaProgressive { fraction } = ans.report.path else {
            panic!("unexpected path {:?}", ans.report.path)
        };
        (ans.groups[0].estimates[0], fraction)
    }

    /// `t` with `rows` rows in blocks of `cap`, registered in a catalog.
    fn catalog_of(rows: usize, cap: usize, seed: u64) -> (Catalog, Vec<f64>) {
        let c = Catalog::new();
        let t = c.register(uniform_table("t", rows, cap, seed)).unwrap();
        let vs = t.column_f64("v").unwrap();
        (c, vs)
    }

    #[test]
    fn answer_stops_early_and_meets_target_for_sum() {
        let (c, vs) = catalog_of(20_000, 128, 5);
        let truth: f64 = vs.iter().sum();
        let spec = ErrorSpec::new(0.02, 0.95);
        let (est, fraction) = ola_answer(&c, AggExpr::sum(col("v"), "s"), spec, 6);
        assert!(fraction < 1.0, "should stop before a full scan");
        assert!(est.ci(0.95).relative_half_width() <= 0.02);
        // The stopping interval should bracket the truth (up to the
        // peeking caveat; with one boundary crossing this is near-nominal).
        assert!(
            est.relative_error(truth) < 0.04,
            "stopping error {} far outside the interval",
            est.relative_error(truth)
        );
    }

    #[test]
    fn answer_stops_early_and_meets_target_for_avg() {
        let (c, vs) = catalog_of(20_000, 128, 5);
        let truth = vs.iter().sum::<f64>() / vs.len() as f64;
        let spec = ErrorSpec::new(0.02, 0.95);
        let (est, fraction) = ola_answer(&c, AggExpr::avg(col("v"), "a"), spec, 6);
        assert!(fraction < 1.0, "should stop before a full scan");
        assert!(est.ci(0.95).relative_half_width() <= 0.02);
        assert!(
            est.relative_error(truth) < 0.04,
            "stopping error {} far outside the interval",
            est.relative_error(truth)
        );
    }

    #[test]
    fn answer_exhausts_on_impossible_targets_for_sum() {
        // 10 blocks can't deliver 0.01% until the census collapses the CI.
        let (c, _) = catalog_of(500, 50, 1);
        let spec = ErrorSpec::new(0.0001, 0.99);
        let (est, fraction) = ola_answer(&c, AggExpr::sum(col("v"), "s"), spec, 2);
        assert_eq!(fraction, 1.0);
        assert_eq!(est.variance, 0.0); // census
    }

    #[test]
    fn answer_exhausts_on_impossible_targets_for_avg() {
        let (c, _) = catalog_of(500, 50, 1);
        let spec = ErrorSpec::new(0.0001, 0.99);
        let (est, fraction) = ola_answer(&c, AggExpr::avg(col("v"), "a"), spec, 2);
        assert_eq!(fraction, 1.0);
        assert_eq!(est.variance, 0.0); // census
    }

    /// The shared evaluator folds what the router never sends here: a
    /// grouped aggregate over a dimension join under predicates on both
    /// sides. Stepped to the end it is the exact answer, group for group.
    #[test]
    fn grouped_join_converges_to_exact() {
        let c = Catalog::new();
        aqp_workload::build_star_schema(&c, &aqp_workload::StarScale::small(), 3).unwrap();
        let plan = aqp_engine::Query::scan("lineitem")
            .join(
                aqp_engine::Query::scan("orders"),
                col("l_orderkey"),
                col("o_key"),
            )
            .filter(col("l_sel").lt(lit(0.5)).and(col("o_month").lt(lit(7i64))))
            .aggregate(
                vec![(col("o_priority"), "o_priority".to_string())],
                vec![
                    AggExpr::sum(col("l_price"), "rev"),
                    AggExpr::count_star("n"),
                    AggExpr::avg(col("l_quantity"), "q"),
                ],
            )
            .build();
        let q = AggQuery::from_plan(&plan).unwrap();
        let mut ola = super::OnlineAggregator::new(&c, &q, 9).unwrap();
        while ola.step().unwrap() {}
        assert_eq!(ola.fraction_processed(), 1.0);
        let got = ola.estimates();
        let exact = aqp_engine::execute(&q.to_plan(), &c).unwrap().rows();
        assert_eq!(got.len(), exact.len());
        for row in &exact {
            let (_, estimates) = (got.iter())
                .find(|(key, _)| key[..] == row[..1])
                .unwrap_or_else(|| panic!("group {:?} missing", row[0]));
            for (e, want) in estimates.iter().zip(&row[1..]) {
                let want = want.as_f64().unwrap();
                assert!(
                    (e.value - want).abs() <= 1e-9 * want.abs(),
                    "group {:?}: {} vs exact {want}",
                    row[0],
                    e.value
                );
                assert_eq!(e.variance, 0.0, "group {:?}: census", row[0]);
            }
        }
    }

    /// Stepped `k` times, the aggregator holds the totals folding its
    /// first `k` blocks as one sample gives, in morsels at any thread
    /// count: the same estimates, bit for bit.
    #[test]
    fn k_steps_equal_the_prefix_folded_as_a_sample() {
        let c = Catalog::new();
        aqp_workload::build_star_schema(&c, &aqp_workload::StarScale::small(), 5).unwrap();
        let plan = aqp_engine::Query::scan("lineitem")
            .join(
                aqp_engine::Query::scan("orders"),
                col("l_orderkey"),
                col("o_key"),
            )
            .filter(col("l_sel").lt(lit(0.3)))
            .aggregate(
                vec![(col("o_priority"), "o_priority".to_string())],
                vec![
                    AggExpr::sum(col("l_price"), "rev"),
                    AggExpr::avg(col("l_quantity"), "q"),
                ],
            )
            .build();
        let q = AggQuery::from_plan(&plan).unwrap();
        let bits = |mut raw: Vec<(Vec<Value>, Vec<Estimate>)>| {
            raw.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
            (raw.into_iter())
                .map(|(key, es)| {
                    let es = es.iter().map(|e| (e.value.to_bits(), e.variance.to_bits()));
                    (format!("{key:?}"), es.collect::<Vec<_>>())
                })
                .collect::<Vec<_>>()
        };
        let mut ola = super::OnlineAggregator::new(&c, &q, 4).unwrap();
        for k in 1..=40 {
            ola.step().unwrap();
            if ![1, 15, 16, 17, 33, 40].contains(&k) {
                continue;
            }
            let fact = ola.evaluator.fact();
            let prefix: Vec<_> = ola.order[..k]
                .iter()
                .map(|&bi| Arc::clone(fact.block(bi)))
                .collect();
            for threads in [1, 2, 4] {
                let mut totals = SampledTotals::new(&ola.evaluator);
                totals.fold(&ola.evaluator, &prefix, threads).unwrap();
                assert_eq!(totals.blocks(), k as u64);
                assert_eq!(
                    bits(totals.estimates(&ola.evaluator)),
                    bits(ola.estimates()),
                    "{k} steps, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let t = Arc::new(uniform_table("e", 0, 16, 0));
        let mut ola = OnlineAggregator::new(t, "v", None, 0).unwrap();
        assert!(!ola.step().unwrap());
        assert_eq!(ola.fraction_processed(), 1.0);
    }
}
