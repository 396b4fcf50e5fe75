//! The audit-overhead gate: a routed workload with 1% of its answers
//! audited against ground truth may cost at most 5% more wall than the
//! same workload unaudited — the bar for always-on auditing in
//! production. An audit re-executes the query exactly, so the overhead is
//! the sampled fraction times the approximation's speedup: the error
//! budget the operator spends to *know* the error budget holds. The 5%
//! rate and the cost of one `AqpSession::accuracy()` scoreboard snapshot
//! (the per-scrape price of the coverage table) ride along as detail.
//!
//! The gated overhead times the audits themselves: the summed
//! `report.audit.wall` of a pass (each the exact re-execution, the
//! grading and the scoreboard update) over the summed answer wall of the
//! unaudited pass. A neighbour's burst can inflate only the few
//! milliseconds inside audits, not a whole ~100 ms pass. The older
//! reading, the wall difference of the audited and unaudited passes, stays
//! in the detail as `wall_overhead_pct`. The rates are interleaved inside
//! each repetition (in alternating order) and every ratio is the median of
//! per-repetition ratios to that repetition's unaudited run, so host drift
//! between repetitions cancels instead of reading as audit cost.

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

    // passes[rep][rate]; audits per rate are deterministic.
    let mut passes = [[Pass::default(); RATES.len()]; REPS];
    for (rep, pass) in passes.iter_mut().enumerate() {
        for i in 0..RATES.len() {
            let r = if rep % 2 == 0 { i } else { RATES.len() - 1 - i };
            let (mut p, us) = time_us(|| run_workload(&catalog, &plan, &spec, RATES[r]));
            p.wall_us = us;
            pass[r] = p;
        }
    }
    let wall_overhead_pct = |r: usize| {
        (median_over_reps(&passes, |p| p[r].wall_us / p[0].wall_us) - 1.0).max(0.0) * 100.0
    };
    let audit_pct =
        |r: usize| median_over_reps(&passes, |p| p[r].audit_us / p[0].answer_us) * 100.0;
    let rates = RATES.iter().enumerate().map(|(r, &rate)| {
        Json::obj([
            ("rate", rate.into()),
            (
                "wall_ms",
                Json::rounded(median_over_reps(&passes, |p| p[r].wall_us) / 1e3, 3),
            ),
            ("audits", passes[0][r].audits.into()),
            ("overhead_pct", Json::rounded(audit_pct(r), 2)),
            ("wall_overhead_pct", Json::rounded(wall_overhead_pct(r), 2)),
        ])
    });
    Gate {
        name: "audit_overhead_pct_at_1pct",
        claim: "auditing 1% of routed answers against ground truth adds at most 5% wall",
        measured: audit_pct(1),
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

/// One pass of the routed workload at one audit rate.
#[derive(Debug, Clone, Copy, Default)]
struct Pass {
    /// Queries the sampler picked for audit.
    audits: usize,
    /// Σ `report.wall` over the pass's answers, µs.
    answer_us: f64,
    /// Σ `report.audit.wall` over the pass's audited answers, µs.
    audit_us: f64,
    /// Wall of the whole pass, µs.
    wall_us: f64,
}

/// The median over repetitions of `f` of one repetition's passes.
fn median_over_reps(
    passes: &[[Pass; RATES.len()]],
    f: impl Fn(&[Pass; RATES.len()]) -> f64,
) -> f64 {
    median(&mut passes.iter().map(f).collect::<Vec<_>>())
}

/// One run of the routed workload at one audit rate, on a fresh session
/// (whose construction is noise beside 600 queries); the caller times
/// the whole pass.
fn run_workload(catalog: &Catalog, plan: &LogicalPlan, spec: &ErrorSpec, rate: f64) -> Pass {
    let config = SessionConfig {
        audit: AuditConfig {
            rate,
            seed: 0xBE9C,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = AqpSession::with_config(catalog, config);
    let mut pass = Pass::default();
    for seed in 0..QUERIES {
        let ans = session.answer(plan, spec, seed).expect("routed answer");
        pass.answer_us += ans.report.wall.as_secs_f64() * 1e6;
        if let Some(audit) = &ans.report.audit {
            pass.audits += 1;
            pass.audit_us += audit.wall.as_secs_f64() * 1e6;
        }
    }
    pass
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
