//! Observability tour: run one query through each AQP family via the
//! routing session, each inside its own trace scope, print `EXPLAIN
//! ANALYZE` for every answer, run an audited workload whose ground-truth
//! checks populate the per-technique accuracy scoreboard, and finish with
//! each session's metrics in Prometheus exposition format.
//!
//! ```sh
//! cargo run --release -p aqp-bench --example observability
//! ```

use aqp_core::{AqpSession, AuditConfig, ErrorSpec, OnlineConfig, SessionConfig};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

fn explain(title: &str, session: &AqpSession, plan: &LogicalPlan, spec: &ErrorSpec) {
    // A trace is asked for by scoping one around the call: spans and the
    // trace tree are recorded for this answer only. Everything outside a
    // scope — the synopsis build, the audited loop below — records
    // nothing and costs nothing.
    let (ans, _, _) = aqp_obs::capture(|| session.answer(plan, spec, 7).unwrap());
    let routing = ans.report.routing.as_ref().unwrap();
    println!("== {title} ==");
    println!("   winner: {}\n", routing.winner);
    // Indent the explain block under the headline.
    for line in ans.report.explain_analyze().lines() {
        println!("   {line}");
    }
    println!();
}

fn main() {
    // --- 1. Offline synopsis: a fresh stratified sample matching the
    //        query's GROUP BY — answered without touching base data.
    let c = Catalog::new();
    c.register(skewed_table("sales", 400_000, 40, 1.1, 1024, 11))
        .unwrap();
    let session = AqpSession::new(&c);
    session
        .offline()
        .build_stratified(&c, "sales", "g", 20_000, 1)
        .unwrap();
    let grouped_sum = Query::scan("sales")
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    explain(
        "offline synopsis (fresh stratified sample)",
        &session,
        &grouped_sum,
        &ErrorSpec::new(0.05, 0.95),
    );

    // --- 2. Online sampling: an ad-hoc predicate no synopsis anticipated;
    //        the pilot plans a final block rate that honors the contract.
    let c2 = Catalog::new();
    c2.register(uniform_table("readings", 1_000_000, 1024, 42))
        .unwrap();
    let session2 = AqpSession::new(&c2);
    let adhoc = Query::scan("readings")
        .filter(col("sel").lt(lit(0.5)))
        .aggregate(
            vec![(col("id").modulo(lit(8i64)), "g".to_string())],
            vec![AggExpr::avg(col("v"), "a")],
        )
        .build();
    explain(
        "online sampling (pilot-planned two-phase)",
        &session2,
        &adhoc,
        &ErrorSpec::new(0.05, 0.95),
    );

    // --- 3. Progressive aggregation: the fact table is too small for the
    //        two-phase planner's spread estimation, so online sampling
    //        declines and the progressive family takes the ungrouped SUM.
    let c3 = Catalog::new();
    c3.register(uniform_table("tiny", 2_000, 1024, 5)).unwrap();
    let session3 = AqpSession::new(&c3);
    let ungrouped = Query::scan("tiny")
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build();
    explain(
        "online aggregation (progressive, a-posteriori stop)",
        &session3,
        &ungrouped,
        &ErrorSpec::new(0.1, 0.9),
    );

    // --- 4. Middleware rewrite: a pay-off cap so tight that the planned
    //        final rate exceeds it — online sampling declines at runtime
    //        and the grouped shape keeps progressive aggregation out, so
    //        the point-estimate middleware answers.
    let c4 = Catalog::new();
    c4.register(skewed_table("events", 300_000, 8, 0.5, 1024, 23))
        .unwrap();
    let session4 = AqpSession::with_config(
        &c4,
        SessionConfig {
            online: OnlineConfig {
                max_final_rate: 0.001,
                ..OnlineConfig::default()
            },
            rewrite_min_group_support: 10,
            ..SessionConfig::default()
        },
    );
    explain(
        "middleware rewrite (runtime decline falls through)",
        &session4,
        &Query::scan("events")
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::sum(col("v"), "s")],
            )
            .build(),
        &ErrorSpec::new(0.02, 0.99),
    );

    // --- 5. Accuracy auditing: re-run the ad-hoc workload with a 20%
    //        ground-truth audit rate. The seeded sampler picks answers to
    //        re-execute exactly; every verdict lands on the per-technique
    //        coverage scoreboard that `explain_analyze` renders and
    //        `AqpSession::accuracy()` exposes.
    let session5 = AqpSession::with_config(
        &c2,
        SessionConfig {
            audit: AuditConfig {
                rate: 0.2,
                seed: 0xA0D1,
                ..AuditConfig::default()
            },
            ..SessionConfig::default()
        },
    );
    let spec = ErrorSpec::new(0.05, 0.95);
    let mut audited = 0usize;
    for seed in 0..40u64 {
        let ans = session5.answer(&adhoc, &spec, seed).unwrap();
        if let Some(audit) = &ans.report.audit {
            audited += 1;
            println!(
                "audit #{audited}: {} max_rel_err={:.4} ({}µs of exact re-execution)",
                if audit.ok { "ok" } else { "FAILED" },
                audit.max_rel_err,
                audit.wall.as_micros()
            );
        }
    }
    println!("\n== accuracy scoreboard (windowed, per technique) ==\n");
    println!("{}", session5.accuracy().render_table());

    // --- 6. Everything the five sessions recorded, scrape-ready: each
    //        session keeps its own registry.
    for (i, session) in [&session, &session2, &session3, &session4, &session5]
        .into_iter()
        .enumerate()
    {
        println!("== session {} metrics (Prometheus exposition) ==\n", i + 1);
        print!("{}", session.metrics().to_prometheus_text());
    }
}
