//! Query-time (online) AQP: pilot-planned two-phase block sampling.
//!
//! This module is the executable form of NSB's *query-time sampling* camp
//! (Quickr's injected samplers, refined with the pilot-based a-priori
//! planning that later systems adopted). The flow for a supported star
//! aggregation query:
//!
//! 1. **Intercept** — [`AggQuery::from_plan`] recognizes the plan shape;
//!    anything else runs exactly (generality has a boundary — NSB's point).
//! 2. **Pilot** — a cheap block sample of `max(1 %, 30)` blocks estimates,
//!    per group and aggregate, the block-level totals and their spread.
//!    The pilot is sized for spread estimation, not for the table: a
//!    grouped query starts with the same pilot as an ungrouped one.
//! 3. **Plan** — from the pilot, the minimum Bernoulli block rate `q` that
//!    meets the user's [`ErrorSpec`] is solved in
//!    closed form, with a conservative inflation for pilot noise. If the
//!    required rate exceeds `max_final_rate`, sampling would not pay off
//!    and the query runs exactly — the planner *declines* rather than
//!    miss the contract. A decline is in doubt when only the inflation
//!    pushes the rate over the cap (its face value fits): then the pilot
//!    grows 4×, up to the cap, folding in just the blocks its smaller rate
//!    did not draw, and plans again. A decline reports both ends of the
//!    band: the inflated rate and the *optimistic* one, the spread
//!    deflated by the same factor; when even that is over the cap, the
//!    decline is decisive. The service's plan cache remembers a shape's
//!    decline once two samples find it decisive and none finds otherwise,
//!    so later queries of the shape skip the pilot. A grouped query's `q`
//!    is floored so that the final sample keeps every group the pilot saw
//!    with probability ≥ 99 %, counting each group's size in blocks, the
//!    unit block sampling draws, from a lower bound on its pilot
//!    incidence.
//! 4. **Final** — an independent block sample at rate `q` produces the
//!    per-group estimates and Boole-adjusted confidence intervals.
//!
//! Both sampled phases cost what the exact engine's scan costs per row,
//! because they run its morsel loop: the one statistic the estimators and
//! the planner need per sampled block is the per-group `(f, g)` block
//! totals, and the engine's [`aqp_engine::AggStep`] folds a morsel of
//! sampled blocks through one aggregate partial, moving each block's
//! groups out as that unit's totals after the block
//! ([`aqp_engine::AggStep::fold_units`]). [`StarEvaluator`] compiles the
//! step once per query (fact-only predicates below the FK gathers, then
//! the typed kernel or scalar fold) and [`SampledTotals::fold`] pushes the
//! totals, in block order, into one [`UnitSums`] per group and aggregate. The
//! planner reads the spread of block totals from those sums, and
//! [`SampledTotals::estimates`] turns them into estimates through
//! `PairStats::clusters`, the one block-sample estimator: online
//! aggregation ([`crate::ola`]) is the same fold and finish over a block
//! permutation, with a different stop rule. The
//! `online:pilot`/`online:final` spans say which fold ran
//! (`[kernel]`/`[scalar]`), and each phase ticks
//! `aqp_kernel_dispatch_total` once.
//!
//! Groups absent from the pilot are not covered by the contract (uniform
//! samples miss small groups — experiment E3), nor is a group the pilot
//! saw in so few blocks that its coverage floor is clamped at the cap; the
//! stratified/distinct samplers in `aqp-sampling` and the offline synopses
//! exist precisely to fix that.

use std::time::Instant;

use aqp_analyze::LintContext;
use aqp_engine::LogicalPlan;
use aqp_sampling::bernoulli_block_range;
use aqp_sampling::design::UnitSums;
use aqp_stats::bounds::group_coverage_rate;
use aqp_stats::ConfidenceInterval;
use aqp_storage::Catalog;

use crate::aggquery::{AggQuery, LinearAgg};
use crate::answer::{assemble_answer, ApproximateAnswer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::evaluator::{SampledTotals, StarEvaluator};
use crate::spec::ErrorSpec;
use crate::technique::{
    decline_if_blocked, exact_answer, Attempt, DeclineReason, Technique, TechniqueKind,
};

/// Block-sampling rate of the pilot phase.
const PILOT_RATE: f64 = 0.01;

/// Factor by which a pilot whose decline is in doubt grows its rate.
const PILOT_GROWTH: f64 = 4.0;

/// Total probability that the final sample misses a group the pilot saw,
/// split over those groups by [`aqp_stats::bounds::group_coverage_rate`].
const GROUP_MISS_PROB: f64 = 0.01;

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
    /// Threads folding the sampled blocks' morsels, the calling thread
    /// included (results are identical at every thread count). Defaults
    /// to the machine's available parallelism. In a
    /// [`SessionConfig`](crate::SessionConfig) it is the session's thread
    /// count for every family, the exact fallback, the audit and the
    /// synopsis builds; a service query runs on its grant instead.
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

/// The minimum block-sampling rate meeting `(rel_err, z)` for one
/// aggregate, from the spread of the pilot's block totals (blocks where the
/// group is absent count as zero totals), scaled by `noise` (see
/// [`pilot_noise`]). `m0` = pilot blocks, `big_m` = population blocks.
/// Returns `1.0` when sampling cannot meet the target.
fn required_rate(
    kind: LinearAgg,
    t: &UnitSums,
    (m0, big_m): (u64, u64),
    rel_err: f64,
    z: f64,
    noise: f64,
) -> f64 {
    if m0 < 2 {
        return 1.0; // one pilot block: spread unobservable
    }
    let (mean_f, mean_g) = t.means(m0);
    let (sff, sgg, sfg) = t.centered(m0);
    let d = m0 as f64 - 1.0;
    let (var_f, var_g, cov) = ((sff / d).max(0.0), (sgg / d).max(0.0), sfg / d);
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
    } * noise;
    if b == 0.0 {
        return 0.0;
    }
    let a = mm * (rel_err / z).powi(2);
    b / (b + a)
}

/// The conservative factor on a group's pilot spread for pilot estimation
/// noise, `1 + 2/√k` for a group seen in `k` pilot blocks; it shrinks as
/// the group appears in more of them. Planning multiplies the spread by
/// it; dividing by it gives the optimistic end of the same band.
fn pilot_noise(blocks_seen: u64) -> f64 {
    1.0 + 2.0 / (blocks_seen.max(1) as f64).sqrt()
}

/// The final rate at which a Bernoulli block sample keeps every group the
/// pilot saw with probability ≥ 1 − [`GROUP_MISS_PROB`]. A group seen in
/// `k` of the pilot's `m0` blocks holds at least `⌊p_lo·M⌋` of the `M`
/// fact blocks, `p_lo` the one-sided 99 % Wilson lower bound on `k/m0`
/// (and surely at least the `k` it was seen in); the final sample misses
/// it only by missing all of them.
fn group_coverage_floor(totals: &SampledTotals, big_m: u64) -> f64 {
    let (m0, groups) = (totals.blocks(), totals.groups().len() as u64);
    totals
        .groups()
        .map(|acc| {
            let p_lo = ConfidenceInterval::wilson(acc.blocks_seen, m0, 0.98).lo;
            let blocks = ((p_lo * big_m as f64).floor() as u64).max(acc.blocks_seen);
            group_coverage_rate(blocks, groups, GROUP_MISS_PROB)
        })
        .fold(0.0, f64::max)
}

/// The final sample's seed, derived from the query seed (splitmix-style
/// multiply), so pilot and final samples are decorrelated yet fully
/// determined by `(seed, rate)`.
fn final_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)
}

/// The rate a pilot plans, read three ways (see
/// [`OnlineAqp::required_rates`]): `optimistic ≤ face_value ≤ required`.
struct RequiredRates {
    required: f64,
    face_value: f64,
    optimistic: f64,
}

/// What the pilot phase learned.
struct Pilot {
    /// The rate the pilot ended at: its blocks are `bernoulli_blocks` at
    /// this rate and the query seed.
    rate: f64,
    /// Rows the pilot drew, each charged once.
    rows: u64,
    /// The planned final rate, or why sampling declines.
    plan: Result<f64, DeclineReason>,
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
    fn try_sample(
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
        let dim_rows = evaluator.dim_rows();
        let pilot = self.pilot(&evaluator, query, spec, seed)?;
        let q_final = match pilot.plan {
            Ok(rate) => rate,
            Err(reason) => {
                return Ok(Attempt::Declined {
                    reason,
                    rows_scanned: pilot.rows + dim_rows,
                })
            }
        };

        let (totals, final_rows) = SampledTotals::draw(
            &evaluator,
            q_final,
            final_seed(seed),
            self.config.threads,
            "online:final",
        )?;
        let raw = totals.estimates(&evaluator);
        let ci_conf = spec
            .split_across((raw.len() * query.aggregates.len()).max(1))
            .confidence;
        let rows_scanned = pilot.rows + final_rows + dim_rows;
        Ok(Attempt::Answered(assemble_answer(
            query.group_by.iter().map(|(_, n)| n.clone()).collect(),
            query.aggregates.iter().map(|a| a.alias.clone()).collect(),
            raw,
            ci_conf,
            ExecutionReport {
                path: ExecutionPath::OnlineBlockSample {
                    pilot_rate: pilot.rate,
                    final_rate: q_final,
                },
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

    /// The pilot phase and the final rate it plans.
    ///
    /// The pilot starts at `max(PILOT_RATE, 30 / M)` of the `M` fact blocks
    /// (the literature's "at least 30 units" for spread estimation) and
    /// plans. A plan above `max_final_rate` declines outright when its
    /// face-value rate (no pilot-noise inflation) is above the cap too, or
    /// when the pilot is already at the cap. Otherwise the decline is in
    /// doubt — the inflation a small pilot pays may be all that stands in
    /// the way — and the pilot grows by [`PILOT_GROWTH`], up to the cap, and
    /// plans again. One seed's block ranges nest, so each growth round
    /// folds only the blocks the smaller rate did not draw into the same
    /// totals, and a pilot grown to the cap holds exactly the blocks a
    /// fresh pilot at the cap would.
    fn pilot(
        &self,
        evaluator: &StarEvaluator,
        query: &AggQuery,
        spec: &ErrorSpec,
        seed: u64,
    ) -> Result<Pilot, AqpError> {
        let fact = evaluator.fact();
        let big_m = fact.block_count() as u64;
        let cap = self.config.max_final_rate;
        let mut rate = PILOT_RATE.max(30.0 / big_m as f64).min(0.5);
        let max_rate = rate.max(cap).min(0.5);
        let mut totals = SampledTotals::new(evaluator);
        let (mut drawn, mut rows) = (0.0, 0);
        let pilot_t0 = Instant::now();
        let mut traced;
        let plan = loop {
            let mut pilot_span = aqp_obs::span("online:pilot");
            let sample = bernoulli_block_range(fact, drawn, rate, seed);
            let round_rows = sample.num_rows() as u64;
            totals.fold(evaluator, sample.table.blocks(), self.config.threads)?;
            traced = pilot_span.is_recording();
            if traced {
                pilot_span.set_rows(round_rows);
                pilot_span.set_detail(format!("rate={rate:.4} {}", evaluator.fold().tag()));
            }
            pilot_span.finish();
            (drawn, rows) = (rate, rows + round_rows);
            if totals.groups().len() == 0 || totals.blocks() < 2 {
                // Nothing matched in the pilot: no basis for planning.
                break Err(DeclineReason::EmptyPilot);
            }

            let mut plan_span = aqp_obs::span("online:plan");
            let RequiredRates {
                required,
                face_value,
                optimistic,
            } = self.required_rates(query, &totals, spec, big_m);
            if required <= cap {
                // Floor the final rate so spread stays estimable (≥ ~20
                // blocks) and every group the pilot saw stays in the answer.
                let mut q_final = required.max(20.0 / big_m as f64);
                if !query.group_by.is_empty() {
                    q_final = q_final.max(group_coverage_floor(&totals, big_m).min(cap));
                }
                let q_final = q_final.min(1.0);
                if plan_span.is_recording() {
                    plan_span.set_detail(format!("final_rate={q_final:.4}"));
                }
                break Ok(q_final);
            }
            if plan_span.is_recording() {
                plan_span.set_detail(format!("required={required:.4} face={face_value:.4}"));
            }
            if face_value > cap || rate >= max_rate {
                // Sampling would not pay off; honor the contract exactly.
                break Err(DeclineReason::RateAboveCap {
                    required,
                    optimistic,
                    cap,
                });
            }
            rate = (rate * PILOT_GROWTH).min(max_rate);
        };
        if traced {
            aqp_obs::metrics::record(|m| {
                m.histogram(
                    aqp_obs::names::ONLINE_PILOT_US,
                    aqp_obs::metrics::LATENCY_US_BOUNDS,
                )
                .observe(pilot_t0.elapsed().as_secs_f64() * 1e6);
            });
        }
        Ok(Pilot { rate, rows, plan })
    }

    /// The largest rate any pilot group's aggregate requires, at three
    /// readings of its spread: inflated for pilot noise (when the config
    /// asks for it), at face value, and deflated by the same factor. The
    /// contract's confidence is Boole-split over every estimate.
    fn required_rates(
        &self,
        query: &AggQuery,
        totals: &SampledTotals,
        spec: &ErrorSpec,
        big_m: u64,
    ) -> RequiredRates {
        let num_estimates = totals.groups().len() * query.aggregates.len();
        let z = spec.split_across(num_estimates.max(1)).z();
        let m0 = totals.blocks();
        let mut rates = RequiredRates {
            required: 0.0,
            face_value: 0.0,
            optimistic: 0.0,
        };
        for acc in totals.groups() {
            let noise = if self.config.pilot_inflation {
                pilot_noise(acc.blocks_seen)
            } else {
                1.0
            };
            for (agg, t) in query.aggregates.iter().zip(&acc.totals) {
                let rate =
                    |noise| required_rate(agg.kind, t, (m0, big_m), spec.relative_error, z, noise);
                rates.required = rates.required.max(rate(noise));
                rates.face_value = rates.face_value.max(rate(1.0));
                rates.optimistic = rates.optimistic.max(rate(noise.recip()));
            }
        }
        rates
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
    fn exact_plan(&self, plan: &LogicalPlan) -> Result<ApproximateAnswer, AqpError> {
        exact_answer(self.catalog, plan, None)
    }
}

impl Technique for OnlineAqp<'_> {
    fn kind(&self) -> TechniqueKind {
        TechniqueKind::OnlineSampling
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
    use aqp_sampling::bernoulli_blocks;
    use aqp_stats::Estimate;
    use aqp_storage::Value;
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
            let mut totals = SampledTotals::new(&evaluator);
            let sample = bernoulli_blocks(&fact, 0.3, 5);
            totals.fold(&evaluator, sample.table.blocks(), 1).unwrap();
            let blocks = totals.blocks();
            assert_eq!(totals.groups().len(), 2);
            totals
                .groups()
                .map(|acc| {
                    assert!(
                        acc.blocks_seen <= blocks,
                        "group seen in {} of {blocks} sampled blocks",
                        acc.blocks_seen
                    );
                    let (t, seen) = (&acc.totals[0], acc.blocks_seen);
                    required_rate(
                        LinearAgg::Sum,
                        t,
                        (blocks, big_m),
                        0.05,
                        1.96,
                        pilot_noise(seen),
                    )
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
        let evaluator = StarEvaluator::new(&c, &q).unwrap();
        // The final phase takes its rate as given (the planner floors it):
        // find a seed whose final sample is exactly one 64-row block.
        let raw = (0..1_000)
            .find_map(
                |seed| match SampledTotals::draw(&evaluator, 1.0 / big_m, seed, 1, "final") {
                    Ok((totals, 64)) => Some(totals.estimates(&evaluator)),
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

    /// `SUM(v), COUNT(*) WHERE sel < 0.8 GROUP BY g` over 12 Zipf groups
    /// in 782 blocks of 256 rows: every group is in nearly every block.
    fn grouped_skew() -> (Catalog, LogicalPlan) {
        let c = Catalog::new();
        c.register(aqp_workload::skewed_table("t", 200_000, 12, 1.0, 256, 13))
            .unwrap();
        let plan = Query::scan("t")
            .filter(col("sel").lt(lit(0.8)))
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::sum(col("v"), "s"), AggExpr::count_star("n")],
            )
            .build();
        (c, plan)
    }

    /// The pilot a query starts with: 30 of the table's blocks.
    fn base_pilot_rate(c: &Catalog) -> f64 {
        PILOT_RATE.max(30.0 / c.get("t").unwrap().block_count() as f64)
    }

    fn path_rates(ans: &ApproximateAnswer) -> (f64, f64) {
        match ans.report.path {
            ExecutionPath::OnlineBlockSample {
                pilot_rate,
                final_rate,
            } => (pilot_rate, final_rate),
            ref other => panic!("expected a sampled answer, got {other:?}"),
        }
    }

    /// Regression: a grouped query piloted at the 20 % rate cap, whatever
    /// the contract, because the group-coverage floor counted one block as
    /// one row. A loose contract now plans from the base pilot.
    #[test]
    fn loose_grouped_query_pilots_at_the_base_rate() {
        let (c, plan) = grouped_skew();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        for seed in [2, 5, 8] {
            let ans = aqp
                .answer_plan(&plan, &ErrorSpec::new(0.25, 0.9), seed)
                .unwrap();
            let (pilot_rate, final_rate) = path_rates(&ans);
            assert_eq!(pilot_rate, base_pilot_rate(&c), "seed {seed}");
            assert!(final_rate < 0.2, "seed {seed}: final {final_rate}");
            assert_eq!(ans.groups.len(), 12, "seed {seed}");
        }
    }

    /// A contract the base pilot would decline only for its noise
    /// inflation — the face-value rate fits under the cap — grows the
    /// pilot (a growth round per `online:pilot` span) and is answered.
    #[test]
    fn tight_contract_grows_the_pilot_and_is_answered() {
        let (c, plan) = grouped_skew();
        let q = AggQuery::from_plan(&plan).unwrap();
        let config = OnlineConfig::default();
        let aqp = OnlineAqp::new(&c, config);
        let spec = ErrorSpec::new(0.15, 0.9);
        let evaluator = StarEvaluator::new(&c, &q).unwrap();
        let base = base_pilot_rate(&c);
        let seed = 3;
        // At the base pilot, the plan is above the cap only inflated.
        let mut totals = SampledTotals::new(&evaluator);
        let pilot = bernoulli_blocks(evaluator.fact(), base, seed);
        totals.fold(&evaluator, pilot.table.blocks(), 1).unwrap();
        let big_m = evaluator.fact().block_count() as u64;
        let rates = aqp.required_rates(&q, &totals, &spec, big_m);
        assert!(
            rates.face_value <= config.max_final_rate && config.max_final_rate < rates.required
        );
        assert!(0.0 < rates.optimistic && rates.optimistic < rates.face_value);

        let (ans, spans, _) = aqp_obs::capture(|| aqp.answer_plan(&plan, &spec, seed).unwrap());
        let (pilot_rate, _) = path_rates(&ans);
        assert!(pilot_rate > base && pilot_rate <= config.max_final_rate);
        let rounds: Vec<_> = spans.iter().filter(|s| s.name == "online:pilot").collect();
        assert_eq!(rounds.len(), 2, "{rounds:?}");
        let detail = rounds[1].detail.as_deref().unwrap_or_default();
        assert!(
            detail.starts_with(&format!("rate={pilot_rate:.4}")),
            "{detail}"
        );
        // Pilot rows are charged once: the rounds drew exactly the fresh
        // sample at the rate the pilot ended at.
        let pilot_rows: u64 = rounds.iter().map(|s| s.rows).sum();
        let fresh = bernoulli_blocks(evaluator.fact(), pilot_rate, seed);
        assert_eq!(pilot_rows, fresh.num_rows() as u64);
        assert!(ans.report.rows_scanned > pilot_rows);
        assert_eq!(ans.groups.len(), 12);
    }

    /// With the inflation ablated, the face-value and inflated rates are
    /// one rate, so the pilot's decline is never in doubt: it never grows.
    #[test]
    fn without_inflation_the_pilot_never_grows() {
        let (c, plan) = grouped_skew();
        let q = AggQuery::from_plan(&plan).unwrap();
        let aqp = OnlineAqp::new(
            &c,
            OnlineConfig {
                pilot_inflation: false,
                ..OnlineConfig::default()
            },
        );
        let evaluator = StarEvaluator::new(&c, &q).unwrap();
        let mut outcomes = (0, 0);
        for eps in [0.25, 0.15, 0.1, 0.05] {
            for seed in 0..8 {
                let pilot = aqp
                    .pilot(&evaluator, &q, &ErrorSpec::new(eps, 0.9), seed)
                    .unwrap();
                assert_eq!(pilot.rate, base_pilot_rate(&c), "eps {eps} seed {seed}");
                match pilot.plan {
                    Ok(_) => outcomes.0 += 1,
                    Err(DeclineReason::RateAboveCap {
                        required,
                        optimistic,
                        ..
                    }) => {
                        // No inflation to invert: the band is one point.
                        assert_eq!(optimistic.to_bits(), required.to_bits());
                        outcomes.1 += 1;
                    }
                    Err(other) => panic!("{other:?}"),
                }
            }
        }
        assert!(outcomes.0 > 0 && outcomes.1 > 0, "{outcomes:?}");
    }

    /// A group in nearly every block asks the final sample for a handful of
    /// blocks, not the cap: coverage is counted in blocks.
    #[test]
    fn group_coverage_floor_counts_blocks() {
        let (c, plan) = grouped_skew();
        let q = AggQuery::from_plan(&plan).unwrap();
        let evaluator = StarEvaluator::new(&c, &q).unwrap();
        let mut totals = SampledTotals::new(&evaluator);
        let base = base_pilot_rate(&c);
        let pilot = bernoulli_blocks(evaluator.fact(), base, 1);
        totals.fold(&evaluator, pilot.table.blocks(), 1).unwrap();
        let big_m = evaluator.fact().block_count() as u64;
        let floor = group_coverage_floor(&totals, big_m);
        assert!(
            floor > 0.0 && floor * (big_m as f64) < 30.0,
            "floor {floor}"
        );
    }

    /// The honest condition on a block-clustered layout — rows sorted by
    /// group, four large groups and ten that sit in 1–3 blocks each — the
    /// worst case for block sampling: every group the pilot saw is in the
    /// answer with probability ≥ 1 − `GROUP_MISS_PROB`. A declined query
    /// runs exactly and holds every group; an answered one must hold all
    /// of the pilot's. Groups the pilot missed are outside the contract.
    /// What misses remain come from floors clamped at the cap: a tiny group
    /// the pilot happened to see in several of its blocks.
    #[test]
    fn every_group_the_pilot_saw_is_in_the_answer() {
        use aqp_storage::{DataType, Field, Schema, TableBuilder};
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut t = TableBuilder::with_block_capacity("c", schema, 64);
        let blocks_per_group = [240, 240, 240, 240, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1];
        for (g, blocks) in blocks_per_group.into_iter().enumerate() {
            for i in 0..blocks * 64 {
                t.push_row(&[Value::Int64(g as i64), Value::Float64(1.0 + (i % 7) as f64)])
                    .unwrap();
            }
        }
        let c = Catalog::new();
        c.register(t.finish()).unwrap();
        let plan = Query::scan("c")
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::sum(col("v"), "s")],
            )
            .build();
        let q = AggQuery::from_plan(&plan).unwrap();
        let aqp = OnlineAqp::new(&c, OnlineConfig::default());
        let evaluator = StarEvaluator::new(&c, &q).unwrap();
        let keys = |raw: Vec<(Vec<Value>, Vec<Estimate>)>| -> Vec<Vec<Value>> {
            raw.into_iter().map(|(key, _)| key).collect()
        };
        let mut kept = aqp_stats::interval::CoverageCounter::new();
        let mut answered = 0;
        for eps in [0.5, 0.8] {
            for seed in 0..150 {
                let pilot = aqp
                    .pilot(&evaluator, &q, &ErrorSpec::new(eps, 0.9), seed)
                    .unwrap();
                let Ok(final_rate) = pilot.plan else {
                    kept.record_hit(true);
                    continue;
                };
                answered += 1;
                let mut seen = SampledTotals::new(&evaluator);
                let sample = bernoulli_blocks(evaluator.fact(), pilot.rate, seed);
                seen.fold(&evaluator, sample.table.blocks(), 1).unwrap();
                let (totals, _) =
                    SampledTotals::draw(&evaluator, final_rate, final_seed(seed), 1, "final")
                        .unwrap();
                let got = keys(totals.estimates(&evaluator));
                kept.record_hit(
                    keys(seen.estimates(&evaluator))
                        .iter()
                        .all(|k| got.contains(k)),
                );
            }
        }
        assert!(
            answered >= 100,
            "only {answered} of 300 answered by sampling"
        );
        // 300 trials resolve 0.99 to within ~0.015 at 95 %.
        let slack = 0.015;
        let lo = kept.coverage_interval(0.95).lo;
        assert!(
            lo >= 1.0 - GROUP_MISS_PROB - slack,
            "{} of {} kept the pilot's groups (Wilson lo {lo:.4})",
            kept.hits(),
            kept.trials()
        );
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
}
