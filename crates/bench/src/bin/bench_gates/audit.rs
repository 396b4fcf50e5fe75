//! The audit-overhead gate: a routed workload with 1% of its answers
//! audited against ground truth may cost at most 5% more wall than the
//! same workload unaudited — the bar for always-on auditing in
//! production. An audit re-executes the query exactly, so the overhead is
//! the sampled fraction times the approximation's speedup: the error
//! budget the operator spends to *know* the error budget holds. The 5%
//! rate and the cost of one `AqpSession::accuracy()` scoreboard snapshot
//! (the per-scrape price of the coverage table) ride along as detail.

use std::time::Duration;

use aqp_bench::report::{Bound, Gate, Json};
use aqp_bench::timed_median;
use aqp_core::{AqpSession, AuditConfig, ErrorSpec, SessionConfig};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::col;
use aqp_storage::Catalog;
use aqp_workload::uniform_table;

const ROWS: usize = 100_000;
const QUERIES: u64 = 600;
const REPS: usize = 3;
const RATES: [f64; 3] = [0.0, 0.01, 0.05];
const MAX_OVERHEAD_PCT_AT_1PCT: f64 = 5.0;

pub fn gate() -> Gate {
    let catalog = Catalog::new();
    catalog
        .register(uniform_table("t", ROWS, 256, 7))
        .expect("fresh catalog");
    let plan = sum_plan();
    let spec = ErrorSpec::new(0.1, 0.95);

    let runs = RATES.map(|rate| run_workload(&catalog, &plan, &spec, rate));
    let base = runs[0].0.as_secs_f64();
    let overhead_pct = |wall: Duration| (wall.as_secs_f64() / base - 1.0).max(0.0) * 100.0;
    let rates = RATES.iter().zip(&runs).map(|(&rate, &(wall, audits))| {
        Json::obj([
            ("rate", rate.into()),
            ("wall_ms", Json::rounded(wall.as_secs_f64() * 1e3, 3)),
            ("audits", audits.into()),
            ("overhead_pct", Json::rounded(overhead_pct(wall), 2)),
        ])
    });
    Gate {
        name: "audit_overhead_pct_at_1pct",
        claim: "auditing 1% of routed answers against ground truth adds at most 5% wall",
        measured: overhead_pct(runs[1].0),
        bound: Bound::AtMost(MAX_OVERHEAD_PCT_AT_1PCT),
        detail: Json::obj([
            ("rows", ROWS.into()),
            ("queries", (QUERIES as usize).into()),
            ("rates", Json::Arr(rates.collect())),
            (
                "scoreboard_read_ns",
                Json::rounded(scoreboard_read_cost(&catalog, &plan, &spec), 0),
            ),
        ]),
    }
}

fn sum_plan() -> LogicalPlan {
    Query::scan("t")
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build()
}

/// Median wall over `REPS` runs of the routed workload at one audit rate
/// (each on a fresh session, whose construction is noise beside 600
/// queries), plus the (deterministic) number of queries the sampler picked.
fn run_workload(
    catalog: &Catalog,
    plan: &LogicalPlan,
    spec: &ErrorSpec,
    rate: f64,
) -> (Duration, usize) {
    let (audits, wall) = timed_median(REPS, || {
        let config = SessionConfig {
            audit: AuditConfig {
                rate,
                seed: 0xBE9C,
                ..AuditConfig::default()
            },
            ..SessionConfig::default()
        };
        let session = AqpSession::with_config(catalog, config);
        let audited = |seed| {
            let ans = session.answer(plan, spec, seed).expect("routed answer");
            ans.report.audit.is_some()
        };
        (0..QUERIES).filter(|&seed| audited(seed)).count()
    });
    (wall, audits)
}

/// Cost of one scoreboard snapshot on a session warmed with a full
/// window of audits.
fn scoreboard_read_cost(catalog: &Catalog, plan: &LogicalPlan, spec: &ErrorSpec) -> f64 {
    let config = SessionConfig {
        audit: AuditConfig {
            rate: 1.0,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = AqpSession::with_config(catalog, config);
    for seed in 0..64u64 {
        session.answer(plan, spec, seed).expect("warmup answer");
    }
    const READS: u32 = 1_024;
    let (_, d) = timed_median(9, || {
        for _ in 0..READS {
            std::hint::black_box(session.accuracy());
        }
    });
    d.as_nanos() as f64 / f64::from(READS)
}
