//! The audit-overhead gate: a routed workload with 1% of its answers
//! audited against ground truth may cost at most 5% more wall than the
//! same workload unaudited — the bar for always-on auditing in
//! production. An audit re-executes the query exactly, so the overhead is
//! the sampled fraction times the approximation's speedup: the error
//! budget the operator spends to *know* the error budget holds. The 5%
//! rate and the cost of one `AqpSession::accuracy()` scoreboard snapshot
//! (the per-scrape price of the coverage table) ride along as detail.
//!
//! The rates are interleaved inside each repetition (in alternating order)
//! and every overhead is the median of per-repetition ratios to that
//! repetition's unaudited run, so host drift between repetitions cancels
//! instead of reading as audit cost.

use aqp_bench::report::{Bound, Gate, Json};
use aqp_bench::timed_median;
use aqp_core::{AqpSession, AuditConfig, ErrorSpec, SessionConfig};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::col;
use aqp_obs::timing::{median, time_us};
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

    // walls[rep][rate], µs; audits per rate are deterministic.
    let mut walls = [[0.0; RATES.len()]; REPS];
    let mut audits = [0; RATES.len()];
    for (rep, wall) in walls.iter_mut().enumerate() {
        for i in 0..RATES.len() {
            let r = if rep % 2 == 0 { i } else { RATES.len() - 1 - i };
            let (n, us) = time_us(|| run_workload(&catalog, &plan, &spec, RATES[r]));
            (wall[r], audits[r]) = (us, n);
        }
    }
    let overhead_pct =
        |r: usize| (median_over_reps(&walls, |w| w[r] / w[0]) - 1.0).max(0.0) * 100.0;
    let rates = RATES.iter().enumerate().map(|(r, &rate)| {
        Json::obj([
            ("rate", rate.into()),
            (
                "wall_ms",
                Json::rounded(median_over_reps(&walls, |w| w[r]) / 1e3, 3),
            ),
            ("audits", audits[r].into()),
            ("overhead_pct", Json::rounded(overhead_pct(r), 2)),
        ])
    });
    Gate {
        name: "audit_overhead_pct_at_1pct",
        claim: "auditing 1% of routed answers against ground truth adds at most 5% wall",
        measured: overhead_pct(1),
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

/// The median over repetitions of `f` of one repetition's walls.
fn median_over_reps(walls: &[[f64; RATES.len()]], f: impl Fn(&[f64; RATES.len()]) -> f64) -> f64 {
    median(&mut walls.iter().map(f).collect::<Vec<_>>())
}

/// One run of the routed workload at one audit rate, on a fresh session
/// (whose construction is noise beside 600 queries): the number of
/// queries the sampler picked for audit.
fn run_workload(catalog: &Catalog, plan: &LogicalPlan, spec: &ErrorSpec, rate: f64) -> usize {
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
