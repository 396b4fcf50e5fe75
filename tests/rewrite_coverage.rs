//! The middleware rewrite's intervals cover, as a tested claim.
//!
//! The benchmark's `adhoc_join` shape — `lineitem ⋈ orders` under
//! `l_sel < θ`, SUM and AVG grouped by `o_priority`, COUNT(*) ungrouped —
//! at the router's 5 % block rate over ~390 blocks, so ~20 blocks back each
//! answer, as in the benchmark. Over 200 seeds under each of two contracts
//! (0.2 %, the benchmark's join contract, and 5 %) — 400 distinct seeds,
//! so 400 independent samples — per cell (query, group):
//!
//! * the Wilson lower bound of the share of seeds whose interval holds the
//!   truth is at least the Boole-split nominal minus [`SLACK`];
//! * every answer that drew two blocks or more has a finite interval;
//! * a silent miss — the point misses the contract while the interval's
//!   half-width claims to be within it — happens only where the interval
//!   missed the truth too, so the interval never vouches for a miss it
//!   contains.

use std::collections::BTreeMap;

use aqp_core::{AggQuery, Attempt, ErrorSpec, RewriteTechnique, Technique};
use aqp_engine::{execute, AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_sampling::bernoulli_blocks;
use aqp_stats::interval::CoverageCounter;
use aqp_storage::{Catalog, Value};
use aqp_workload::{build_star_schema, StarScale};

/// Seeds per (query, contract); each contract draws its own.
const SEEDS: u64 = 200;
/// The router's rewrite rate (`SessionConfig::default().rewrite_rate`).
const RATE: f64 = 0.05;
/// The router's support gate (`rewrite_min_group_support`).
const MIN_SUPPORT: u64 = 30;
/// The contracts' confidence; their relative errors are 0.2 % and 5 %.
const CONFIDENCE: f64 = 0.95;
const REL_ERRS: [f64; 2] = [0.002, 0.05];
/// How far a cell's Wilson lower bound (at 95 %) may fall below its
/// nominal. With 400 trials per cell, a calibrated interval's covered
/// share lies within 2σ ≈ 0.022 of a 0.95 nominal, and the Wilson bound
/// sits another ~0.022 below the share; 0.05 allows both and little more.
const SLACK: f64 = 0.05;

/// `lineitem ⋈ orders` at ~390 blocks of 128 rows (the benchmark's block
/// count at an eighth of its rows).
fn star() -> Catalog {
    let c = Catalog::new();
    let scale = StarScale {
        customers: 2_500,
        parts: 500,
        orders: 12_500,
        block_capacity: 128,
        ..StarScale::small()
    };
    build_star_schema(&c, &scale, 43).unwrap();
    c
}

fn plan(by_priority: bool, agg: AggExpr) -> LogicalPlan {
    let group_by = if by_priority {
        vec![(col("o_priority"), "priority".to_string())]
    } else {
        vec![]
    };
    Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .filter(col("l_sel").lt(lit(0.6)))
        .aggregate(group_by, vec![agg])
        .build()
}

fn key(values: &[Value]) -> String {
    format!("{values:?}")
}

/// One cell's tally across seeds and contracts.
#[derive(Default)]
struct Cell {
    covered: CoverageCounter,
    nominal: f64,
}

#[test]
fn rewrite_intervals_cover_the_adhoc_join_shape() {
    let c = star();
    let fact = c.get("lineitem").unwrap();
    let blocks = fact.block_count();
    assert!((370..=410).contains(&blocks), "{blocks} fact blocks");
    let plans = [
        plan(true, AggExpr::sum(col("l_price"), "s")),
        plan(true, AggExpr::avg(col("l_quantity"), "a")),
        plan(false, AggExpr::count_star("n")),
    ];
    let rewrite = RewriteTechnique::new(&c, RATE, MIN_SUPPORT).with_threads(1);
    let mut cells: BTreeMap<(usize, String), Cell> = BTreeMap::new();
    let (mut answers, mut silent) = (0, 0);
    for (p, plan) in plans.iter().enumerate() {
        let query = AggQuery::from_plan(plan).expect("star shape");
        let truth: BTreeMap<String, f64> = (execute(plan, &c).unwrap().rows().iter())
            .map(|r| (key(&r[..r.len() - 1]), r[r.len() - 1].as_f64().unwrap()))
            .collect();
        for (k, rel_err) in REL_ERRS.into_iter().enumerate() {
            let spec = ErrorSpec::new(rel_err, CONFIDENCE);
            for seed in (k as u64 * SEEDS)..(k as u64 + 1) * SEEDS {
                let drawn = bernoulli_blocks(&fact, RATE, seed).table.block_count();
                let ans = match rewrite.answer(&query, &spec, seed).unwrap() {
                    Attempt::Answered(ans) => ans,
                    Attempt::Declined { reason, .. } => {
                        panic!("plan {p} seed {seed} ({drawn} blocks) declined: {reason:?}")
                    }
                };
                answers += 1;
                assert_eq!(ans.groups.len(), truth.len(), "plan {p} seed {seed}");
                let nominal = spec.split_across(truth.len()).confidence;
                for g in &ans.groups {
                    let (est, ci) = (g.estimates[0].value, g.intervals[0]);
                    let want = truth[&key(&g.key)];
                    if drawn >= 2 {
                        assert!(
                            ci.lo.is_finite() && ci.hi.is_finite(),
                            "plan {p} seed {seed}: {ci:?} from {drawn} blocks"
                        );
                    }
                    assert_eq!(ci.confidence, nominal);
                    let covered = ci.contains(want);
                    let missed = (est - want).abs() > rel_err * want.abs();
                    let vouches = (ci.hi - ci.lo) / 2.0 <= rel_err * est.abs();
                    if missed && vouches {
                        silent += 1;
                        assert!(
                            !covered,
                            "plan {p} seed {seed} {:?}: {est} misses {want} by more than \
                             {rel_err}, yet {ci:?} holds the truth and vouches for it",
                            g.key
                        );
                    }
                    let cell = cells.entry((p, key(&g.key))).or_default();
                    cell.covered.record_hit(covered);
                    cell.nominal = nominal;
                }
            }
        }
    }
    assert_eq!(answers, plans.len() * REL_ERRS.len() * SEEDS as usize);
    let mut report = String::new();
    for ((p, key), cell) in &cells {
        let lo = cell.covered.coverage_interval(0.95).lo;
        report.push_str(&format!(
            "plan {p} {key}: {}/{} covered (Wilson lo {lo:.4}, nominal {:.4})\n",
            cell.covered.hits(),
            cell.covered.trials(),
            cell.nominal
        ));
    }
    eprintln!("{report}{silent} silent misses, every one outside its interval");
    for ((p, key), cell) in &cells {
        let lo = cell.covered.coverage_interval(0.95).lo;
        assert!(
            lo >= cell.nominal - SLACK,
            "plan {p} {key}: Wilson lo {lo:.4} < nominal {:.4} - {SLACK}\n{report}",
            cell.nominal
        );
    }
}
