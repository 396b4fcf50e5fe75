//! Online aggregation (Hellerstein et al.) and ripple joins.
//!
//! The third family NSB surveys: process data in random order, show a
//! running estimate with a shrinking confidence interval, stop when the
//! user is satisfied. The CI shrinks as `1/√n` — and reaching zero error
//! requires touching everything, which is NSB's bound on this family's
//! speedup. The single-table aggregator processes whole *blocks* in a
//! random permutation (the processed prefix is an exact SRS of blocks, so
//! the cluster estimators apply); the ripple join grows both sides of a
//! join in step.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use aqp_analyze::LintContext;
use aqp_engine::agg::{AggState, KeyAtom};
use aqp_engine::fold::record_dispatch;
use aqp_engine::{AggExpr, BlockFold};
use aqp_expr::{col, Expr};
use aqp_sampling::design::{PairStats, UnitSums};
use aqp_stats::Estimate;
use aqp_storage::{Catalog, StorageError, Table};

use crate::aggquery::{AggQuery, AggSpec, LinearAgg};
use crate::answer::{assemble_answer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::spec::ErrorSpec;
use crate::technique::{decline_if_blocked, Attempt, Technique, TechniqueKind, TechniqueProfile};

/// Progressive single-table aggregation over a random block permutation.
pub struct OnlineAggregator {
    table: Arc<Table>,
    /// The predicate and `AVG(column)` — whose state is exactly the
    /// block's `(Σ value, non-NULL count)` over passing rows.
    fold: BlockFold,
    order: Vec<usize>,
    processed: usize,
    /// Over processed blocks: (Σ value over passing rows, passing row count).
    sums: UnitSums,
    rows_seen: u64,
}

impl OnlineAggregator {
    /// Starts a progressive aggregation of `column` (optionally filtered).
    pub fn new(
        table: Arc<Table>,
        column: &str,
        predicate: Option<Expr>,
        seed: u64,
    ) -> Result<Self, AqpError> {
        // An unknown column errors here rather than at the first step.
        table.schema().index_of(column)?;
        let predicates: Vec<&Expr> = predicate.iter().collect();
        let avg = [AggExpr::avg(col(column), "avg")];
        let fold = BlockFold::new(&predicates, &[], &avg, table.schema(), true);
        record_dispatch(fold.is_kernel());
        let mut order: Vec<usize> = (0..table.block_count()).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed));
        Ok(Self {
            table,
            fold,
            order,
            processed: 0,
            sums: UnitSums::default(),
            rows_seen: 0,
        })
    }

    /// Processes the next block. Returns `false` when everything has been
    /// consumed.
    pub fn step(&mut self) -> Result<bool, AqpError> {
        let Some(&bi) = self.order.get(self.processed) else {
            return Ok(false);
        };
        let block = self.table.block(bi);
        let mut acc = self.fold.new_acc(None);
        self.fold.fold(block, &mut acc, true)?;
        let (total, count) = match acc.into_groups().pop() {
            Some((_, states)) => match states[..] {
                [AggState::Avg { sum, count }] => (sum, count as f64),
                _ => unreachable!("the fold computes one AVG"),
            },
            None => (0.0, 0.0),
        };
        self.sums.push(total, count);
        self.rows_seen += block.len() as u64;
        self.processed += 1;
        Ok(true)
    }

    /// Blocks processed so far.
    pub fn blocks_processed(&self) -> usize {
        self.processed
    }

    /// Fraction of the table consumed.
    pub fn fraction_processed(&self) -> f64 {
        if self.order.is_empty() {
            1.0
        } else {
            self.processed as f64 / self.order.len() as f64
        }
    }

    /// Rows touched so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// The processed prefix is an SRS of blocks, so the cluster estimator
    /// (with fpc) applies — at 100% processed the interval collapses to
    /// the exact answer.
    fn stats(&self) -> PairStats {
        PairStats::clusters(&self.sums, self.processed as u64, self.order.len() as u64)
    }

    /// Running estimate of the population SUM.
    pub fn estimate_sum(&self) -> Estimate {
        self.stats().total()
    }

    /// Running estimate of the population AVG (ratio of block sums to
    /// block counts under the SRS-of-blocks design).
    pub fn estimate_avg(&self) -> Estimate {
        self.stats().ratio()
    }
}

/// The progressive family as the router sees it: a single-table,
/// ungrouped `SUM`/`AVG` of one column, processed block-by-block until the
/// live interval's relative half-width meets the spec, or the table is
/// exhausted (exact). Grouped and joined progressive execution exist in
/// this module ([`RippleJoin`]) but are interactive tools, not
/// contract-driven routing targets.
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

    fn profile(&self) -> TechniqueProfile {
        TechniqueProfile {
            answers: "ungrouped single-table SUM/AVG of one column, with predicates",
            speedup_source: "stop as soon as the live interval meets the spec",
            implemented_in: "core::ola",
        }
    }

    fn answer(&self, query: &AggQuery, spec: &ErrorSpec, seed: u64) -> Result<Attempt, AqpError> {
        // Joins, group-bys and anything but one SUM/AVG of a bare column
        // are out of shape: decline them rather than answer the ungrouped
        // single-table query that is left when they are ignored.
        let ctx = LintContext::new(self.catalog);
        if let Some(declined) = decline_if_blocked(self.kind(), query, &ctx) {
            return Ok(declined);
        }
        let start = Instant::now();
        let [agg @ AggSpec {
            expr: Expr::Column(column),
            ..
        }] = query.aggregates.as_slice()
        else {
            return Err(AqpError::Unsupported {
                detail: "progressive aggregation serves one SUM/AVG of a bare column".to_string(),
            });
        };
        let fact = self.catalog.get(&query.fact_table)?;
        let population_rows = fact.row_count() as u64;
        let mut ola =
            OnlineAggregator::new(Arc::clone(&fact), column, query.predicate.clone(), seed)?;
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
        let estimate = loop {
            let stepped = ola.step()?;
            if ola.blocks_processed() >= 2 {
                let e = match agg.kind {
                    LinearAgg::Avg => ola.estimate_avg(),
                    _ => ola.estimate_sum(),
                };
                let rel = e.ci(spec.confidence).relative_half_width();
                if let Some(h) = &ci_hist {
                    if rel.is_finite() {
                        h.observe(rel);
                    }
                }
                if rel <= spec.relative_error {
                    break e;
                }
            }
            if !stepped {
                break match agg.kind {
                    LinearAgg::Avg => ola.estimate_avg(),
                    _ => ola.estimate_sum(),
                };
            }
        };
        let rows_scanned = ola.rows_seen();
        if obs_span.is_recording() {
            obs_span.set_rows(rows_scanned);
            obs_span.set_detail(format!("fraction={:.3}", ola.fraction_processed()));
        }
        obs_span.finish();
        Ok(Attempt::Answered(assemble_answer(
            vec![],
            vec![agg.alias.clone()],
            vec![(vec![], vec![estimate])],
            spec.confidence,
            ExecutionReport {
                path: ExecutionPath::OlaProgressive {
                    fraction: ola.fraction_processed(),
                },
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

/// A ripple join: both inputs are consumed in random row order, and the
/// join's SUM is estimated from the seen-so-far corner of the cross
/// product. Converges to the exact join sum when both sides are fully
/// consumed; convergence is slow when key-match density is low — the
/// behaviour E7 measures.
pub struct RippleJoin {
    left: Vec<(KeyAtom, f64)>,
    right: Vec<KeyAtom>,
    l_seen: usize,
    r_seen: usize,
    /// key → Σ measure over seen left rows.
    left_sums: HashMap<KeyAtom, f64>,
    /// key → count of seen right rows.
    right_counts: HashMap<KeyAtom, f64>,
    matched_sum: f64,
}

impl RippleJoin {
    /// Prepares a ripple join of `left.key = right.key`, summing
    /// `left.measure` over the join result.
    pub fn new(
        left: &Table,
        left_key: &str,
        measure: &str,
        right: &Table,
        right_key: &str,
        seed: u64,
    ) -> Result<Self, StorageError> {
        let lk = left.schema().index_of(left_key)?;
        let lm = left.schema().index_of(measure)?;
        let rk = right.schema().index_of(right_key)?;
        let mut lrows = Vec::with_capacity(left.row_count());
        for (_, block) in left.iter_blocks() {
            for i in 0..block.len() {
                lrows.push((
                    KeyAtom::from_value(&block.column(lk).get(i)),
                    block.column(lm).f64_at(i).unwrap_or(0.0),
                ));
            }
        }
        let mut rrows = Vec::with_capacity(right.row_count());
        for (_, block) in right.iter_blocks() {
            for i in 0..block.len() {
                rrows.push(KeyAtom::from_value(&block.column(rk).get(i)));
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        lrows.shuffle(&mut rng);
        rrows.shuffle(&mut rng);
        Ok(Self {
            left: lrows,
            right: rrows,
            l_seen: 0,
            r_seen: 0,
            left_sums: HashMap::new(),
            right_counts: HashMap::new(),
            matched_sum: 0.0,
        })
    }

    /// Consumes up to `batch` rows from each side. Returns `false` when
    /// both sides are exhausted.
    pub fn step(&mut self, batch: usize) -> bool {
        let mut advanced = false;
        for _ in 0..batch {
            if let Some((k, m)) = self.left.get(self.l_seen).cloned() {
                self.matched_sum += m * self.right_counts.get(&k).copied().unwrap_or(0.0);
                *self.left_sums.entry(k).or_insert(0.0) += m;
                self.l_seen += 1;
                advanced = true;
            }
            if let Some(k) = self.right.get(self.r_seen).cloned() {
                self.matched_sum += self.left_sums.get(&k).copied().unwrap_or(0.0);
                *self.right_counts.entry(k).or_insert(0.0) += 1.0;
                self.r_seen += 1;
                advanced = true;
            }
        }
        advanced
    }

    /// Fractions of each side consumed.
    pub fn progress(&self) -> (f64, f64) {
        (
            self.l_seen as f64 / self.left.len().max(1) as f64,
            self.r_seen as f64 / self.right.len().max(1) as f64,
        )
    }

    /// Running estimate of `SUM(measure)` over the full join: the seen
    /// corner scaled by `(N_l/k_l)·(N_r/k_r)`.
    pub fn estimate_sum(&self) -> f64 {
        if self.l_seen == 0 || self.r_seen == 0 {
            return 0.0;
        }
        let scale = (self.left.len() as f64 / self.l_seen as f64)
            * (self.right.len() as f64 / self.r_seen as f64);
        self.matched_sum * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_expr::{col, lit};
    use aqp_workload::uniform_table;

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

    #[test]
    fn ripple_join_converges_to_exact() {
        use aqp_storage::{DataType, Field, Schema, TableBuilder, Value};
        // left: 2000 rows keyed 0..100 with measure; right: 500 rows keyed 0..100.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("m", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("l", schema);
        for i in 0..2000i64 {
            b.push_row(&[Value::Int64(i % 100), Value::Float64((i % 7) as f64)])
                .unwrap();
        }
        let left = b.finish();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let mut b = TableBuilder::new("r", schema);
        for i in 0..500i64 {
            b.push_row(&[Value::Int64(i % 100)]).unwrap();
        }
        let right = b.finish();
        // Exact: every left row matches 5 right rows.
        let truth: f64 = (0..2000).map(|i| ((i % 7) as f64) * 5.0).sum();
        let mut rj = RippleJoin::new(&left, "k", "m", &right, "k", 7).unwrap();
        while rj.step(100) {}
        assert!((rj.estimate_sum() - truth).abs() < 1e-6);
        assert_eq!(rj.progress(), (1.0, 1.0));
    }

    #[test]
    fn ripple_join_partial_estimate_reasonable() {
        use aqp_storage::{DataType, Field, Schema, TableBuilder, Value};
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("m", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("l", schema);
        for i in 0..10_000i64 {
            b.push_row(&[Value::Int64(i % 50), Value::Float64(1.0)])
                .unwrap();
        }
        let left = b.finish();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let mut b = TableBuilder::new("r", schema);
        for i in 0..10_000i64 {
            b.push_row(&[Value::Int64(i % 50)]).unwrap();
        }
        let right = b.finish();
        let truth = 10_000.0 * 200.0; // each left row matches 200 right rows
        let mut rj = RippleJoin::new(&left, "k", "m", &right, "k", 3).unwrap();
        for _ in 0..10 {
            rj.step(100);
        }
        let est = rj.estimate_sum();
        assert!(
            (est - truth).abs() / truth < 0.3,
            "partial ripple estimate {est} vs {truth}"
        );
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

    #[test]
    fn empty_inputs() {
        let t = Arc::new(uniform_table("e", 0, 16, 0));
        let mut ola = OnlineAggregator::new(t, "v", None, 0).unwrap();
        assert!(!ola.step().unwrap());
        assert_eq!(ola.fraction_processed(), 1.0);
    }
}
