//! E-router — *No single family wins everywhere, so route* (NSB §2–4).
//!
//! Three workloads where the paper shows a different family winning —
//! small groups (E3), offline drift (E8), the selectivity cliff (E9) —
//! each answered by the routing `AqpSession` and by every family forced
//! directly. The router should match the best forced technique on each
//! workload without being told which one that is. Every time is the
//! median of five warm repetitions, after one untimed run. `ci ±%` is the
//! widest interval's half-width relative to its estimate: an answer whose
//! error exceeds the contract should say so there.

use aqp_bench::{timed_median, TablePrinter};
use aqp_core::{
    exact_answer, AggQuery, Analysis, ApproximateAnswer, AqpSession, Attempt, ErrorSpec,
    OfflineTechnique, OlaTechnique, OnlineAqp, OnlineConfig, RewriteTechnique, SessionConfig,
    Technique,
};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_obs::metrics::scoped;
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

/// The outcome of `run` and the median wall of five warm repetitions, in
/// ms (seeded runs: every repetition has the same outcome).
fn warm_median<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    run();
    let (out, wall) = timed_median(5, run);
    (out, wall.as_secs_f64() * 1e3)
}

/// Mean relative error of `ans` against `truth`, matched by group key,
/// plus how many true groups the answer missed entirely.
fn error_vs(ans: &ApproximateAnswer, truth: &ApproximateAnswer) -> (f64, usize) {
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut missing = 0usize;
    for t in &truth.groups {
        match ans.groups.iter().find(|g| g.key == t.key) {
            Some(g) => {
                for (e, te) in g.estimates.iter().zip(&t.estimates) {
                    if te.value.abs() > f64::EPSILON {
                        sum += (e.value - te.value).abs() / te.value.abs();
                        n += 1;
                    }
                }
            }
            None => missing += 1,
        }
    }
    (if n > 0 { sum / n as f64 } else { f64::NAN }, missing)
}

/// The widest interval's half-width relative to its estimate, in % —
/// what the answer itself says about the error it may carry.
fn widest_ci_pct(ans: &ApproximateAnswer) -> f64 {
    (ans.groups.iter())
        .flat_map(|g| g.estimates.iter().zip(&g.intervals))
        .map(|(e, ci)| 100.0 * (ci.hi - ci.lo) / 2.0 / e.value.abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// Run one candidate (router or forced family) and print a result row.
fn report_row(
    p: &TablePrinter,
    label: &str,
    truth: &ApproximateAnswer,
    run: impl FnMut() -> Result<Attempt, String>,
) {
    let (outcome, ms) = warm_median(run);
    match outcome {
        Ok(Attempt::Answered(ans)) => {
            let (err, missing) = error_vs(&ans, truth);
            p.row(&[
                label.to_string(),
                format!("{ms:.2}"),
                format!("{}", ans.report.rows_scanned),
                format!("{:.2}", 100.0 * err),
                format!("{:.2}", widest_ci_pct(&ans)),
                if missing > 0 {
                    format!("{missing} groups missing")
                } else {
                    "all groups".to_string()
                },
            ]);
        }
        Ok(Attempt::Declined { reason, .. }) => {
            p.row(&[
                label.to_string(),
                format!("{ms:.2}"),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("declined: {reason}"),
            ]);
        }
        Err(e) => {
            p.row(&[
                label.to_string(),
                format!("{ms:.2}"),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("error: {e}"),
            ]);
        }
    }
}

/// One family forced past the routing order — but not past its verdict:
/// a family the session's analysis blocks declines with that reason,
/// exactly as it does inside the router.
fn forced(
    analysis: &Analysis,
    tech: &dyn Technique,
    query: &AggQuery,
    spec: &ErrorSpec,
    seed: u64,
) -> Result<Attempt, String> {
    match analysis.blocked_by(tech.kind()) {
        Some(reason) => Ok(Attempt::Declined {
            reason: reason.clone(),
            rows_scanned: 0,
        }),
        None => tech.answer(query, spec, seed).map_err(|e| e.to_string()),
    }
}

#[allow(clippy::too_many_arguments)]
fn scenario(
    title: &str,
    catalog: &Catalog,
    session: &AqpSession,
    plan: &LogicalPlan,
    spec: &ErrorSpec,
) {
    const SEED: u64 = 7;
    println!("{title}");
    let p = TablePrinter::new(
        &[
            "technique",
            "time ms",
            "rows scanned",
            "rel err %",
            "ci ±%",
            "notes",
        ],
        &[24, 9, 13, 10, 8, 34],
    );
    // The denominator every other row is read against, timed like them.
    let (truth, exact_ms) =
        warm_median(|| exact_answer(catalog, plan, None).expect("exact baseline"));
    p.row(&[
        "exact engine".to_string(),
        format!("{exact_ms:.2}"),
        truth.report.rows_scanned.to_string(),
        "0.00".to_string(),
        "0.00".to_string(),
        "the denominator".to_string(),
    ]);
    let mut decision = String::new();
    report_row(&p, "router (AqpSession)", &truth, || {
        (session.answer(plan, spec, SEED))
            .map(|ans| {
                decision = ans.report.routing.as_ref().expect("routed").summary();
                Attempt::Answered(ans)
            })
            .map_err(|e| e.to_string())
    });
    println!("  router decision: {decision}");
    let query = match AggQuery::from_plan(plan) {
        Some(q) => q,
        None => {
            println!("  (plan outside normalized shape: every family declines)\n");
            return;
        }
    };
    let config = SessionConfig::default();
    let analysis = session.lint_plan(plan);
    report_row(&p, "forced offline synopsis", &truth, || {
        forced(
            &analysis,
            &OfflineTechnique::new(session.offline(), catalog, config.max_staleness),
            &query,
            spec,
            SEED,
        )
    });
    report_row(&p, "forced online sampling", &truth, || {
        forced(
            &analysis,
            &OnlineAqp::new(catalog, OnlineConfig::default()),
            &query,
            spec,
            SEED,
        )
    });
    report_row(&p, "forced online aggregation", &truth, || {
        forced(&analysis, &OlaTechnique::new(catalog), &query, spec, SEED)
    });
    report_row(&p, "forced rewrite middleware", &truth, || {
        forced(
            &analysis,
            &RewriteTechnique::new(
                catalog,
                config.rewrite_rate,
                config.rewrite_min_group_support,
            ),
            &query,
            spec,
            SEED,
        )
    });
    println!();
}

fn main() {
    println!("E-router: the routing session vs each family forced, on three NSB workloads\n");

    // ---- E3-style: skewed group-by where small groups punish uniform rates.
    let c = Catalog::new();
    c.register(skewed_table("fact", 500_000, 50, 1.2, 1024, 17))
        .unwrap();
    let session = AqpSession::new(&c);
    session
        .offline()
        .build_stratified(&c, "fact", "g", 25_000, 1)
        .unwrap();
    let grouped = Query::scan("fact")
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    // Each scenario's forced families and exact baselines record into the
    // session's registry too, beside what the router records there.
    scoped(session.metrics(), || {
        scenario(
            "[E3-style] zipf(1.2) SUM..GROUP BY over 500k rows, fresh stratified synopsis",
            &c,
            &session,
            &grouped,
            &ErrorSpec::new(0.05, 0.95),
        )
    });

    // ---- E8-style: the same synopsis after the base table drifted +60%.
    c.replace(skewed_table("fact", 800_000, 50, 1.2, 1024, 29));
    scoped(session.metrics(), || {
        scenario(
            "[E8-style] same query after the base table grew 500k -> 800k rows (stale synopsis)",
            &c,
            &session,
            &grouped,
            &ErrorSpec::new(0.2, 0.9),
        )
    });

    // ---- E9-style: a hyper-selective predicate that defeats fixed-rate sampling.
    let c2 = Catalog::new();
    c2.register(uniform_table("t", 1_000_000, 1024, 23))
        .unwrap();
    let session2 = AqpSession::new(&c2);
    let cliff = Query::scan("t")
        .filter(col("sel").lt(lit(1e-4)))
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build();
    scoped(session2.metrics(), || {
        scenario(
            "[E9-style] SUM WHERE sel < 1e-4 over 1M rows, no synopsis",
            &c2,
            &session2,
            &cliff,
            &ErrorSpec::new(0.05, 0.95),
        )
    });

    println!(
        "Claim check: the router picks the offline synopsis while it is fresh (E3), walks\n\
         away from it the moment staleness breaks the contract (E8), and on the\n\
         selectivity cliff (E9) — where fixed-rate sampling declines outright — hands the\n\
         query to progressive aggregation, which honestly scans nearly everything before\n\
         its a-posteriori interval closes. One front door, three different winners: no\n\
         silver bullet."
    );

    // Every routed query above ticked its session's decline/winner
    // counters; dump each registry so the run's telemetry is inspectable.
    for (scenarios, session) in [("E3, E8", &session), ("E9", &session2)] {
        println!("\n--- session telemetry, {scenarios} (Prometheus exposition) ---");
        print!("{}", session.metrics().to_prometheus_text());
    }
}
