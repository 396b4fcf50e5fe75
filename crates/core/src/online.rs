//! Query-time (online) AQP: pilot-planned two-phase block sampling.
//!
//! This module is the executable form of NSB's *query-time sampling* camp
//! (Quickr's injected samplers, refined with the pilot-based a-priori
//! planning that later systems adopted). The flow for a supported star
//! aggregation query:
//!
//! 1. **Intercept** — [`AggQuery::from_plan`] recognizes the plan shape;
//!    anything else runs exactly (generality has a boundary — NSB's point).
//! 2. **Pilot** — a cheap block sample (default 1% of blocks) estimates,
//!    per group and aggregate, the block-level totals and their spread.
//! 3. **Plan** — from the pilot, the minimum Bernoulli block rate `q` that
//!    meets the user's [`ErrorSpec`] is solved in
//!    closed form, with a conservative inflation for pilot noise. If the
//!    required rate exceeds `max_final_rate`, sampling would not pay off
//!    and the query runs exactly — the planner *declines* rather than
//!    miss the contract.
//! 4. **Final** — an independent block sample at rate `q` produces the
//!    per-group estimates and Boole-adjusted confidence intervals.
//!
//! Both sampled phases cost what the exact engine's scan costs per row,
//! because they run its inner loop: the one statistic the estimators and
//! the planner need per sampled block is the per-group `(f, g)` block
//! totals, and that is a block folded into a fresh aggregate partial —
//! the engine's [`aqp_engine::AggStep`], the step `aqp-engine` runs over
//! its morsels. [`StarEvaluator`] compiles it once per query (fact-only
//! predicates below the FK gathers, then the typed kernel or scalar fold)
//! and `accumulate` pushes the totals, in block order, into one
//! [`UnitSums`] per group and aggregate. The planner reads the spread of
//! block totals from those sums, and [`PairStats::clusters`] — the one
//! block-sample estimator, which online aggregation ends in too — turns
//! them into estimates. The
//! `online:pilot`/`online:final` spans say which fold ran
//! (`[kernel]`/`[scalar]`), and each phase ticks
//! `aqp_kernel_dispatch_total` once.
//!
//! Groups absent from the pilot are not covered by the contract (uniform
//! samples miss small groups — experiment E3); the stratified/distinct
//! samplers in `aqp-sampling` and the offline synopses exist precisely to
//! fix that.

use std::collections::HashMap;
use std::time::Instant;

use aqp_analyze::LintContext;
use aqp_engine::agg::GroupKey;
use aqp_engine::fold::record_dispatch;
use aqp_engine::LogicalPlan;
use aqp_sampling::bernoulli_blocks;
use aqp_sampling::design::{PairStats, UnitSums};
use aqp_stats::Estimate;
use aqp_storage::{Catalog, Value};

use crate::aggquery::{AggQuery, LinearAgg};
use crate::answer::{assemble_answer, ApproximateAnswer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::evaluator::StarEvaluator;
use crate::spec::ErrorSpec;
use crate::technique::{
    decline_if_blocked, exact_answer, Attempt, DeclineReason, Technique, TechniqueKind,
    TechniqueProfile,
};

/// Block-sampling rate of the pilot phase.
const PILOT_RATE: f64 = 0.01;

/// When the query has a GROUP BY, the pilot rate rises so that any group
/// with at least this many rows appears in the pilot with probability
/// ≥ 99% (Chernoff/union-bound planning via
/// [`aqp_stats::bounds::group_coverage_rate`]). Groups smaller than the
/// pilot happens to see stay outside the contract either way.
const MIN_COVERED_GROUP_ROWS: u64 = 1_000;

/// Tuning knobs for the online planner.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Beyond this final rate, sampling is judged not to pay off and the
    /// query runs exactly.
    pub max_final_rate: f64,
    /// Apply the conservative pilot-noise inflation when planning the
    /// final rate (default). Disabling it is an ablation: the planner
    /// trusts the pilot's spread estimate at face value, which experiment
    /// A1 shows costs guarantee violations.
    pub pilot_inflation: bool,
    /// Worker threads for sampler accumulation (per-block partial group
    /// totals merged in block order — results are identical at every
    /// thread count). Defaults to the machine's available parallelism.
    pub threads: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            max_final_rate: 0.2,
            pilot_inflation: true,
            threads: aqp_engine::pool::default_threads(),
        }
    }
}

#[derive(Debug, Clone)]
struct GroupAcc {
    /// Per aggregate: the group's `(f, g)` block totals.
    totals: Vec<UnitSums>,
    blocks_seen: u64,
}

/// Accumulates per-group, per-aggregate block totals over a block sample.
///
/// Each sampled block is an independent morsel: workers fold one block
/// into a fresh aggregate partial ([`StarEvaluator::block_totals`] — the
/// engine's block fold, the same row-order inner loop the exact executor
/// runs) and hand back that block's `(f, g)` totals per group. The
/// totals are pushed into [`UnitSums`] here in block order, so the
/// summation tree — and hence the result — is identical at every thread
/// count. A group is counted once per block it has a qualifying row in.
fn accumulate(
    evaluator: &StarEvaluator,
    sample: &aqp_sampling::Sample,
    threads: usize,
) -> Result<(HashMap<GroupKey, GroupAcc>, u64), AqpError> {
    record_dispatch(evaluator.fold().is_kernel());
    let blocks = sample.table.blocks().to_vec();
    let sampled_blocks = blocks.len() as u64;
    let per_block =
        aqp_engine::pool::parallel_map(blocks, threads, |_, block| evaluator.block_totals(&block));
    let mut groups: HashMap<GroupKey, GroupAcc> = HashMap::new();
    for block_groups in per_block {
        for (key, pairs) in block_groups? {
            let acc = groups.entry(key).or_insert_with(|| GroupAcc {
                totals: vec![UnitSums::default(); pairs.len()],
                blocks_seen: 0,
            });
            for (t, (f, g)) in acc.totals.iter_mut().zip(pairs) {
                t.push(f, g);
            }
            acc.blocks_seen += 1;
        }
    }
    Ok((groups, sampled_blocks))
}

/// The minimum block-sampling rate meeting `(rel_err, z)` for one
/// aggregate, from the spread of the pilot's block totals (blocks where the
/// group is absent count as zero totals). `m0` = pilot blocks, `big_m` =
/// population blocks. Returns `1.0` when sampling cannot meet the target.
#[allow(clippy::too_many_arguments)] // planner inputs are irreducibly many
fn required_rate(
    kind: LinearAgg,
    t: &UnitSums,
    m0: u64,
    big_m: u64,
    rel_err: f64,
    z: f64,
    blocks_seen: u64,
    inflate: bool,
) -> f64 {
    if m0 < 2 {
        return 1.0; // one pilot block: spread unobservable
    }
    let (mean_f, mean_g) = t.means(m0);
    let (sff, sgg, sfg) = t.centered(m0);
    let d = m0 as f64 - 1.0;
    let (var_f, var_g, cov) = ((sff / d).max(0.0), (sgg / d).max(0.0), sfg / d);
    // Conservative inflation for pilot estimation noise; shrinks as the
    // group appears in more pilot blocks.
    let infl = if inflate {
        1.0 + 2.0 / (blocks_seen.max(1) as f64).sqrt()
    } else {
        1.0
    };
    let mm = big_m as f64;
    // Relative variance of the Hájek estimate at rate q is
    // (1−q)/q · B / M, with B the squared coefficient-of-variation term.
    let b = match kind {
        LinearAgg::CountStar | LinearAgg::Sum => {
            if mean_f == 0.0 {
                return 1.0;
            }
            var_f / (mean_f * mean_f)
        }
        LinearAgg::Avg => {
            if mean_f == 0.0 || mean_g == 0.0 {
                return 1.0;
            }
            (var_f / (mean_f * mean_f) + var_g / (mean_g * mean_g) - 2.0 * cov / (mean_f * mean_g))
                .max(0.0)
        }
    } * infl;
    if b == 0.0 {
        return 0.0;
    }
    let a = mm * (rel_err / z).powi(2);
    b / (b + a)
}

/// The online AQP engine.
pub struct OnlineAqp<'a> {
    catalog: &'a Catalog,
    config: OnlineConfig,
}

impl<'a> OnlineAqp<'a> {
    /// Creates an engine over a catalog.
    pub fn new(catalog: &'a Catalog, config: OnlineConfig) -> Self {
        Self { catalog, config }
    }

    /// Answers an arbitrary plan: approximately when the shape is
    /// supported and the planner finds a paying sampling rate, exactly
    /// otherwise.
    pub fn answer_plan(
        &self,
        plan: &LogicalPlan,
        spec: &ErrorSpec,
        seed: u64,
    ) -> Result<ApproximateAnswer, AqpError> {
        match AggQuery::from_plan(plan) {
            Some(q) => self.answer(&q, spec, seed),
            None => self.exact_plan(plan),
        }
    }

    /// Answers a normalized star query with the two-phase sampler,
    /// falling back to exact execution when the sampler declines.
    pub fn answer(
        &self,
        query: &AggQuery,
        spec: &ErrorSpec,
        seed: u64,
    ) -> Result<ApproximateAnswer, AqpError> {
        let start = Instant::now();
        match self.try_sample(query, spec, seed)? {
            Attempt::Answered(ans) => Ok(ans),
            Attempt::Declined { rows_scanned, .. } => {
                let mut ans = self.exact(query, start.elapsed())?;
                // Charge the failed attempt's pilot to the final bill.
                ans.report.rows_scanned += rows_scanned;
                Ok(ans)
            }
        }
    }

    /// Attempts the two-phase sampler with no exact fallback: returns
    /// [`Attempt::Declined`] with a machine-readable reason (and the rows
    /// the failed attempt consumed) instead. This is the router-facing
    /// entry point; [`OnlineAqp::answer`] wraps it with the traditional
    /// decline-to-exact behavior.
    pub fn try_sample(
        &self,
        query: &AggQuery,
        spec: &ErrorSpec,
        seed: u64,
    ) -> Result<Attempt, AqpError> {
        if let Some(declined) = self.decline_if_blocked(query) {
            return Ok(declined);
        }
        let start = Instant::now();
        let evaluator = StarEvaluator::new(self.catalog, query)?;
        let fact = evaluator.fact().clone();
        let dim_rows = evaluator.dim_rows();

        // ---- Pilot phase ----
        // The pilot needs enough blocks for spread estimation (the
        // literature's "at least 30 units" rule); adapt the rate upward on
        // small tables.
        let big_m = fact.block_count() as u64;
        let mut pilot_rate = PILOT_RATE.max(30.0 / big_m as f64);
        if !query.group_by.is_empty() {
            // A group of `MIN_COVERED_GROUP_ROWS` rows spans at least
            // ceil(rows/cap) blocks; block sampling misses it only if it
            // misses them all.
            let blocks_per_group = MIN_COVERED_GROUP_ROWS
                .div_ceil(fact.block_capacity() as u64)
                .max(1);
            // Union-bound over a pessimistic group count (≤ population
            // blocks) at 1% total miss probability.
            let coverage =
                aqp_stats::bounds::group_coverage_rate(blocks_per_group, big_m.min(1_000), 0.01);
            pilot_rate = pilot_rate.max(coverage.min(self.config.max_final_rate));
        }
        let pilot_rate = pilot_rate.min(0.5);
        let mut pilot_span = aqp_obs::span("online:pilot");
        let pilot_t0 = Instant::now();
        let pilot = bernoulli_blocks(&fact, pilot_rate, seed);
        let pilot_rows = pilot.num_rows() as u64;
        let (pilot_groups, pilot_blocks) = accumulate(&evaluator, &pilot, self.config.threads)?;
        if pilot_span.is_recording() {
            pilot_span.set_rows(pilot_rows);
            pilot_span.set_detail(format!("rate={pilot_rate:.4} {}", evaluator.fold().tag()));
            aqp_obs::metrics::record(|m| {
                m.histogram(
                    aqp_obs::names::ONLINE_PILOT_US,
                    aqp_obs::metrics::LATENCY_US_BOUNDS,
                )
                .observe(pilot_t0.elapsed().as_secs_f64() * 1e6);
            });
        }
        pilot_span.finish();
        if pilot_groups.is_empty() || pilot_blocks < 2 {
            // Nothing matched in the pilot: no basis for planning.
            return Ok(Attempt::Declined {
                reason: DeclineReason::EmptyPilot,
                rows_scanned: pilot_rows + dim_rows,
            });
        }

        // ---- Planning ----
        let mut plan_span = aqp_obs::span("online:plan");
        let num_estimates = pilot_groups.len() * query.aggregates.len();
        let per_agg_spec = spec.split_across(num_estimates.max(1));
        let z = per_agg_spec.z();
        let mut q_final: f64 = 0.0;
        for acc in pilot_groups.values() {
            for (agg, t) in query.aggregates.iter().zip(&acc.totals) {
                let r = required_rate(
                    agg.kind,
                    t,
                    pilot_blocks,
                    big_m,
                    spec.relative_error,
                    z,
                    acc.blocks_seen,
                    self.config.pilot_inflation,
                );
                q_final = q_final.max(r);
            }
        }
        if q_final > self.config.max_final_rate {
            // Sampling would not pay off; honor the contract exactly.
            return Ok(Attempt::Declined {
                reason: DeclineReason::RateAboveCap {
                    required: q_final,
                    cap: self.config.max_final_rate,
                },
                rows_scanned: pilot_rows + dim_rows,
            });
        }
        // Floor the final rate so spread stays estimable (≥ ~20 blocks).
        let q_final = q_final.max(20.0 / big_m as f64).min(1.0);
        if plan_span.is_recording() {
            plan_span.set_detail(format!("final_rate={q_final:.4}"));
        }
        plan_span.finish();

        let (raw, final_rows) = self.final_phase(&evaluator, query, seed, q_final)?;
        let ci_conf = spec
            .split_across((raw.len() * query.aggregates.len()).max(1))
            .confidence;
        let rows_scanned = pilot_rows + final_rows + dim_rows;
        Ok(Attempt::Answered(assemble_answer(
            query.group_by.iter().map(|(_, n)| n.clone()).collect(),
            query.aggregates.iter().map(|a| a.alias.clone()).collect(),
            raw,
            ci_conf,
            ExecutionReport {
                path: ExecutionPath::OnlineBlockSample {
                    pilot_rate,
                    final_rate: q_final,
                },
                population_rows: fact.row_count() as u64,
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

    /// The sampler's guard: a fact table that is missing, or has fewer
    /// than [`aqp_analyze::MIN_SAMPLING_BLOCKS`] blocks for the pilot to
    /// estimate spread from, is declined before any data is touched.
    fn decline_if_blocked(&self, query: &AggQuery) -> Option<Attempt> {
        decline_if_blocked(
            TechniqueKind::OnlineSampling,
            query,
            &LintContext::new(self.catalog),
        )
    }

    /// The final sampling pass: an independent Bernoulli block sample at
    /// `final_rate`, folded into Hájek per-group estimates. Returns them
    /// with the rows the sample drew. The final-phase seed is derived from
    /// the query seed (splitmix-style multiply), so pilot and final samples
    /// are decorrelated yet fully determined by `(seed, rate)`.
    #[allow(clippy::type_complexity)] // the shape `assemble_answer` takes
    fn final_phase(
        &self,
        evaluator: &StarEvaluator,
        query: &AggQuery,
        seed: u64,
        final_rate: f64,
    ) -> Result<(Vec<(Vec<Value>, Vec<Estimate>)>, u64), AqpError> {
        let mut final_span = aqp_obs::span("online:final");
        let fact = evaluator.fact();
        let big_m = fact.block_count() as u64;
        let final_sample = bernoulli_blocks(
            fact,
            final_rate,
            seed.wrapping_mul(0x9E37_79B9).wrapping_add(1),
        );
        let final_rows = final_sample.num_rows() as u64;
        let (final_groups, final_blocks) =
            accumulate(evaluator, &final_sample, self.config.threads)?;
        if final_span.is_recording() {
            final_span.set_rows(final_rows);
            final_span.set_detail(evaluator.fold().tag().to_string());
        }
        final_span.finish();
        let raw = final_groups
            .into_iter()
            .map(|(key, acc)| {
                let estimates: Vec<Estimate> = query
                    .aggregates
                    .iter()
                    .zip(&acc.totals)
                    .map(|(a, t)| {
                        let stats = PairStats::clusters(t, final_blocks, big_m);
                        match a.kind {
                            LinearAgg::CountStar | LinearAgg::Sum => stats.total(),
                            LinearAgg::Avg => stats.ratio(),
                        }
                    })
                    .collect();
                (evaluator.key_values(&key), estimates)
            })
            .collect();
        Ok((raw, final_rows))
    }

    /// Exact execution of a normalized query, wrapped as an answer.
    pub fn exact(
        &self,
        query: &AggQuery,
        already_spent: std::time::Duration,
    ) -> Result<ApproximateAnswer, AqpError> {
        let mut ans = self.exact_plan(&query.to_plan())?;
        ans.report.wall += already_spent;
        Ok(ans)
    }

    /// Exact execution of an arbitrary plan, wrapped as an answer with
    /// zero-width intervals.
    pub fn exact_plan(&self, plan: &LogicalPlan) -> Result<ApproximateAnswer, AqpError> {
        exact_answer(self.catalog, plan, None)
    }
}

impl Technique for OnlineAqp<'_> {
    fn kind(&self) -> TechniqueKind {
        TechniqueKind::OnlineSampling
    }

    fn profile(&self) -> TechniqueProfile {
        TechniqueProfile {
            answers: "linear aggregates over star joins with ad-hoc predicates",
            speedup_source: "pilot-planned Bernoulli block sampling",
            implemented_in: "core::online",
        }
    }

    fn answer(&self, query: &AggQuery, spec: &ErrorSpec, seed: u64) -> Result<Attempt, AqpError> {
        self.try_sample(query, spec, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_engine::{execute, AggExpr, Query};
    use aqp_expr::{col, lit};
    use aqp_workload::{build_star_schema, uniform_table, StarScale};

    fn star_catalog() -> Catalog {
        let c = Catalog::new();
        build_star_schema(&c, &StarScale::small(), 11).unwrap();
        c
    }

    fn truth_sum(c: &Catalog, plan: &LogicalPlan) -> Vec<Vec<Value>> {
        execute(plan, c).unwrap().rows()
    }

    #[test]
    fn global_sum_meets_spec() {
        let c = star_catalog();
        let plan = Query::scan("lineitem")
            .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "s")])
            .build();
        let truth = truth_sum(&c, &plan)[0][0].as_f64().unwrap();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let spec = ErrorSpec::new(0.05, 0.95);
        let ans = aqp.answer_plan(&plan, &spec, 3).unwrap();
        let est = ans.scalar_estimate("s").unwrap();
        assert!(
            est.relative_error(truth) < 0.05,
            "rel err {} exceeds spec",
            est.relative_error(truth)
        );
        assert!(matches!(
            ans.report.path,
            ExecutionPath::OnlineBlockSample { .. }
        ));
        // It must also be cheap: far less than the full table touched.
        assert!(ans.report.touched_fraction() < 0.9);
    }

    #[test]
    fn avg_with_predicate() {
        let c = star_catalog();
        let plan = Query::scan("lineitem")
            .filter(col("l_sel").lt(lit(0.5)))
            .aggregate(vec![], vec![AggExpr::avg(col("l_quantity"), "a")])
            .build();
        let truth = truth_sum(&c, &plan)[0][0].as_f64().unwrap();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let ans = aqp
            .answer_plan(&plan, &ErrorSpec::new(0.05, 0.95), 5)
            .unwrap();
        let est = ans.scalar_estimate("a").unwrap();
        assert!(
            est.relative_error(truth) < 0.05,
            "rel err {}",
            est.relative_error(truth)
        );
    }

    #[test]
    fn group_by_with_join() {
        let c = star_catalog();
        let plan = Query::scan("lineitem")
            .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
            .aggregate(
                vec![(col("o_priority"), "o_priority".to_string())],
                vec![AggExpr::sum(col("l_price"), "rev")],
            )
            .build();
        let exact_rows = truth_sum(&c, &plan);
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let ans = aqp
            .answer_plan(&plan, &ErrorSpec::new(0.08, 0.9), 7)
            .unwrap();
        assert_eq!(ans.groups.len(), exact_rows.len(), "all 3 priorities found");
        for row in &exact_rows {
            let g = ans.group(&row[..1]).expect("group present");
            let truth = row[1].as_f64().unwrap();
            assert!(
                g.estimates[0].relative_error(truth) < 0.08,
                "group {:?}: rel err {}",
                row[0],
                g.estimates[0].relative_error(truth)
            );
        }
    }

    #[test]
    fn unsupported_plan_falls_back_to_exact() {
        let c = star_catalog();
        let plan = Query::scan("lineitem")
            .aggregate(vec![], vec![AggExpr::min(col("l_price"), "m")])
            .build();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let ans = aqp.answer_plan(&plan, &ErrorSpec::default(), 1).unwrap();
        assert_eq!(ans.report.path, ExecutionPath::Exact);
        let exact = truth_sum(&c, &plan)[0][0].as_f64().unwrap();
        assert_eq!(ans.scalar_estimate("m").unwrap().value, exact);
    }

    #[test]
    fn hyper_selective_query_declines_sampling() {
        let c = star_catalog();
        // Selectivity ~1e-4: a 1% pilot sees a handful of rows and the
        // required rate exceeds the cap → exact execution.
        let plan = Query::scan("lineitem")
            .filter(col("l_sel").lt(lit(0.0001)))
            .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "s")])
            .build();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let ans = aqp
            .answer_plan(&plan, &ErrorSpec::new(0.01, 0.95), 2)
            .unwrap();
        assert_eq!(ans.report.path, ExecutionPath::Exact);
    }

    #[test]
    fn tighter_spec_higher_rate() {
        // Skewed values in small blocks: block-total spread is large
        // enough that the error target, not the block floor, drives the
        // planned rate.
        let c = Catalog::new();
        c.register(aqp_workload::skewed_table("t", 200_000, 20, 1.0, 64, 13))
            .unwrap();
        let plan = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let rate = |eps: f64| match aqp
            .answer_plan(&plan, &ErrorSpec::new(eps, 0.95), 9)
            .unwrap()
            .report
            .path
        {
            ExecutionPath::OnlineBlockSample { final_rate, .. } => final_rate,
            _ => 1.0,
        };
        let (tight, loose) = (rate(0.02), rate(0.10));
        assert!(
            tight > loose,
            "tight spec rate {tight} should exceed loose spec rate {loose}"
        );
    }

    /// Regression: a group whose first rows in a block contribute exactly
    /// zero (`SUM` over `0.0`s, NULLs, whole blocks of either) used to be
    /// sealed once per such row, so `blocks_seen` could exceed the number
    /// of sampled blocks, shrink the pilot-noise inflation and under-plan
    /// the final rate. Adding `COUNT(*)` masked it (the count is non-zero
    /// after a group's first row); both forms must now plan the same rate.
    #[test]
    fn blocks_seen_counts_each_block_once() {
        use aqp_storage::{DataType, Field, Schema, TableBuilder};
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::nullable("x", DataType::Float64),
        ]);
        let mut t = TableBuilder::with_block_capacity("z", schema, 32);
        for i in 0..32 * 400usize {
            let (block, off) = (i / 32, i % 32);
            // Group 1: zero or NULL for whole blocks two times in three
            // and for the leading rows of the rest; group 0: plain values.
            let x = match (i % 2, block % 3, off) {
                (0, ..) => Value::Float64(1.0 + (i % 7) as f64),
                (_, 0, _) => Value::Float64(0.0),
                (_, 1, _) => Value::Null,
                (_, _, 0..=15) => Value::Float64(0.0),
                _ => Value::Float64(((i * 37) % 101) as f64),
            };
            t.push_row(&[Value::Int64((i % 2) as i64), x]).unwrap();
        }
        let c = Catalog::new();
        c.register(t.finish()).unwrap();
        let fact = c.get("z").unwrap();
        let big_m = fact.block_count() as u64;
        let planned = |aggs: Vec<AggExpr>| {
            let plan = Query::scan("z")
                .aggregate(vec![(col("g"), "g".to_string())], aggs)
                .build();
            let q = AggQuery::from_plan(&plan).unwrap();
            let evaluator = StarEvaluator::new(&c, &q).unwrap();
            let (groups, blocks) =
                accumulate(&evaluator, &bernoulli_blocks(&fact, 0.3, 5), 1).unwrap();
            assert_eq!(groups.len(), 2);
            groups
                .values()
                .map(|acc| {
                    assert!(
                        acc.blocks_seen <= blocks,
                        "group seen in {} of {blocks} sampled blocks",
                        acc.blocks_seen
                    );
                    let (t, seen) = (&acc.totals[0], acc.blocks_seen);
                    required_rate(LinearAgg::Sum, t, blocks, big_m, 0.05, 1.96, seen, true)
                })
                .fold(0.0, f64::max)
        };
        let alone = planned(vec![AggExpr::sum(col("x"), "s")]);
        let masked = planned(vec![AggExpr::sum(col("x"), "s"), AggExpr::count_star("n")]);
        assert!(alone > 0.0 && alone < 1.0, "rate {alone} is spread-driven");
        assert_eq!(alone.to_bits(), masked.to_bits());
    }

    /// Regression: a final phase that drew a single block answered AVG
    /// with the population-total expansion `M·Σx`. One block now gives
    /// every aggregate its cluster estimate — AVG the block's own mean —
    /// with an unobservable variance.
    #[test]
    fn one_sampled_block_answers_avg_with_the_block_mean() {
        let c = Catalog::new();
        c.register(uniform_table("t", 64 * 100, 64, 3)).unwrap();
        let big_m = c.get("t").unwrap().block_count() as f64;
        let plan = Query::scan("t")
            .aggregate(
                vec![],
                vec![AggExpr::avg(col("v"), "a"), AggExpr::sum(col("v"), "s")],
            )
            .build();
        let q = AggQuery::from_plan(&plan).unwrap();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let evaluator = StarEvaluator::new(&c, &q).unwrap();
        // The final phase takes its rate as given (the planner floors it):
        // find a seed whose final sample is exactly one 64-row block.
        let raw = (0..1_000)
            .find_map(
                |seed| match aqp.final_phase(&evaluator, &q, seed, 1.0 / big_m) {
                    Ok((raw, 64)) => Some(raw),
                    _ => None,
                },
            )
            .expect("some seed draws exactly one block");
        let [(_, estimates)] = &raw[..] else {
            panic!("one global group, got {}", raw.len())
        };
        let (avg, sum) = (estimates[0], estimates[1]);
        // SUM is the block total scaled to the population: Σx = s / M.
        let mean = sum.value / big_m / 64.0;
        assert!(
            (avg.value - mean).abs() <= 1e-12 * mean,
            "AVG {} vs the block mean {mean}",
            avg.value
        );
        assert_eq!((avg.variance, sum.variance), (f64::MAX, f64::MAX));
    }

    #[test]
    fn empty_pilot_falls_back() {
        // A predicate nothing satisfies: pilot finds nothing, exact runs.
        let c = Catalog::new();
        c.register(uniform_table("t", 5000, 64, 1)).unwrap();
        let plan = Query::scan("t")
            .filter(col("v").gt(lit(1e12)))
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let ans = aqp.answer_plan(&plan, &ErrorSpec::default(), 4).unwrap();
        assert_eq!(ans.report.path, ExecutionPath::Exact);
        assert_eq!(ans.scalar_estimate("n").unwrap().value, 0.0);
    }

    #[test]
    fn error_spec_adherence_across_seeds() {
        // The heart of the a-priori contract: across repeated runs, the
        // achieved error should violate the spec no more often than
        // (1 − confidence) allows. With conservative planning we expect
        // almost no violations.
        let c = star_catalog();
        let plan = Query::scan("lineitem")
            .filter(col("l_sel").lt(lit(0.3)))
            .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "s")])
            .build();
        let truth = truth_sum(&c, &plan)[0][0].as_f64().unwrap();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let spec = ErrorSpec::new(0.05, 0.9);
        let mut violations = 0;
        let trials = 30;
        for seed in 0..trials {
            let ans = aqp.answer_plan(&plan, &spec, seed).unwrap();
            if let Some(est) = ans.scalar_estimate("s") {
                if est.relative_error(truth) > spec.relative_error {
                    violations += 1;
                }
            }
        }
        assert!(violations <= 3, "{violations}/{trials} spec violations");
    }
}

#[cfg(test)]
mod two_dim_tests {
    use super::*;
    use aqp_engine::{execute, AggExpr, Query};
    use aqp_expr::{col, lit};
    use aqp_workload::{build_star_schema, StarScale};

    #[test]
    fn two_dimension_star_query_meets_spec() {
        // lineitem ⋈ orders ⋈ part with a dimension predicate: the
        // deepest supported shape.
        let c = Catalog::new();
        build_star_schema(&c, &StarScale::small(), 55).unwrap();
        let plan = Query::scan("lineitem")
            .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
            .join(Query::scan("part"), col("l_partkey"), col("p_key"))
            .filter(col("p_price").gt(lit(500.0)))
            .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "rev")])
            .build();
        let truth = execute(&plan, &c).unwrap().rows()[0][0].as_f64().unwrap();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let ans = aqp
            .answer_plan(&plan, &ErrorSpec::new(0.06, 0.9), 17)
            .unwrap();
        let est = ans.scalar_estimate("rev").unwrap();
        assert!(
            est.relative_error(truth) < 0.06,
            "two-dim star rel err {}",
            est.relative_error(truth)
        );
        // Either path is legal, but the sample path must touch less data.
        if matches!(ans.report.path, ExecutionPath::OnlineBlockSample { .. }) {
            assert!(ans.report.touched_fraction() < 1.0);
        }
    }

    #[test]
    fn group_coverage_pilot_floor_applies() {
        // A grouped query's pilot rate is at least the coverage floor that
        // keeps every group of MIN_COVERED_GROUP_ROWS rows in the pilot.
        let c = Catalog::new();
        build_star_schema(&c, &StarScale::small(), 56).unwrap();
        let plan = Query::scan("lineitem")
            .aggregate(
                vec![(col("l_shipmode"), "m".to_string())],
                vec![AggExpr::count_star("n")],
            )
            .build();
        let config = OnlineConfig::default();
        let ans = OnlineAqp::new(&c, config)
            .answer_plan(&plan, &ErrorSpec::new(0.1, 0.9), 3)
            .unwrap();
        if let ExecutionPath::OnlineBlockSample { pilot_rate, .. } = ans.report.path {
            let fact = c.get("lineitem").unwrap();
            let blocks_per_group = MIN_COVERED_GROUP_ROWS
                .div_ceil(fact.block_capacity() as u64)
                .max(1);
            let blocks = (fact.block_count() as u64).min(1_000);
            let floor = aqp_stats::bounds::group_coverage_rate(blocks_per_group, blocks, 0.01)
                .min(config.max_final_rate)
                .min(0.5);
            assert!(
                pilot_rate >= floor,
                "pilot {pilot_rate} under the floor {floor}"
            );
        }
        // All 7 ship modes are large: every one must be in the answer.
        assert_eq!(ans.groups.len(), 7);
    }
}
