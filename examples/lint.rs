//! aqp-lint tour: one fixture query per lint code `A001`–`A014` (`A013` is
//! retired: every family now carries an interval), each analyzed statically — no base data is read — and printed with its
//! verdict table, diagnostics, and suggested rewrites. Finishes with the
//! session wiring: `EXPLAIN ANALYZE` carrying the lint table and the
//! families the router never attempted on the analyzer's verdict.
//!
//! ```sh
//! cargo run --release -p aqp-bench --example lint
//! ```

use aqp_analyze::{lint_plan, LintCode, LintContext, QuarantineMeta, SynopsisMeta, TechniqueKind};
use aqp_core::{AqpSession, CandidateOutcome, ErrorSpec};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit, Expr};
use aqp_storage::Catalog;
use aqp_workload::uniform_table;

fn show(code: LintCode, plan: &LogicalPlan, ctx: &LintContext) {
    let analysis = lint_plan(plan, ctx);
    assert!(analysis.has(code), "fixture must fire {code}");
    println!("== {code} — {} ==", code.title());
    println!("   NSB claim: {}\n", code.nsb_claim());
    for line in analysis.render_table().lines() {
        println!("   {line}");
    }
    println!();
}

fn grouped_sum(table: &str) -> LogicalPlan {
    Query::scan(table)
        .aggregate(
            vec![(col("id"), "id".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build()
}

fn join_plan(pred: Expr) -> LogicalPlan {
    Query::scan("t")
        .join(Query::scan("d"), col("id"), col("id"))
        .filter(pred)
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build()
}

fn main() {
    let c = Catalog::new();
    c.register(uniform_table("t", 100_000, 256, 7)).unwrap();
    c.register(uniform_table("tiny", 400, 256, 7)).unwrap();
    c.register(uniform_table("d", 1_024, 256, 9)).unwrap();
    let bare = LintContext::new(&c);

    // A001 — MAX is not closed under sampling; no estimator bounds it.
    show(
        LintCode::A001NonClosedAggregate,
        &Query::scan("t")
            .aggregate(vec![], vec![AggExpr::min(col("v"), "m")])
            .build(),
        &bare,
    );

    // A002 — no aggregate root: outside the normalized star shape.
    show(
        LintCode::A002UnsupportedShape,
        &Query::scan("t").filter(col("v").gt(lit(1i64))).build(),
        &bare,
    );

    // A003 — joins exclude the single-relation families (offline, OLA).
    // A012 also fires here: the sampled join has no universe-sampling key.
    show(
        LintCode::A003JoinsExcludeFamily,
        &join_plan(col("sel").lt(lit(0.5))),
        &bare,
    );
    show(
        LintCode::A012SampledJoinPrecondition,
        &join_plan(col("sel").lt(lit(0.5))),
        &bare,
    );

    // A004 — progressive aggregation maintains exactly one live interval.
    show(
        LintCode::A004ProgressiveShape,
        &Query::scan("t")
            .aggregate(
                vec![],
                vec![AggExpr::sum(col("v"), "s"), AggExpr::avg(col("v"), "a")],
            )
            .build(),
        &bare,
    );

    // A005 — the offline family cannot answer without a synopsis.
    // A010 rides along: the only grouped sampled path is unstratified.
    show(LintCode::A005NoSynopsis, &grouped_sum("t"), &bare);
    show(LintCode::A010GroupSupportRisk, &grouped_sum("t"), &bare);

    // A006 — a synopsis exists but covers the wrong column.
    let mismatched = LintContext::new(&c).with_synopsis(SynopsisMeta {
        table: "t".to_string(),
        stratified_on: "v".to_string(),
        staleness: Some(0.0),
    });
    show(
        LintCode::A006SynopsisMismatch,
        &grouped_sum("t"),
        &mismatched,
    );

    // A007 — the base table drifted past the freshness threshold.
    let stale = LintContext::new(&c).with_synopsis(SynopsisMeta {
        table: "t".to_string(),
        stratified_on: "id".to_string(),
        staleness: Some(0.5),
    });
    show(LintCode::A007StaleSynopsis, &grouped_sum("t"), &stale);

    // A008 — two blocks cannot seed a pilot; exact is cheaper anyway.
    show(
        LintCode::A008TableTooSmall,
        &Query::scan("tiny")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build(),
        &bare,
    );

    // A009 — a missing table blocks every family, exact included.
    show(
        LintCode::A009MissingTable,
        &Query::scan("ghost")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build(),
        &bare,
    );

    // A011 — a selective predicate filters the pilot too.
    show(
        LintCode::A011SelectivePredicateRisk,
        &Query::scan("t")
            .filter(col("sel").lt(lit(0.001)))
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build(),
        &bare,
    );

    // A014 — the session's accuracy auditor observed coverage below the
    // floor; the family is quarantined out of routing until it recovers.
    let quarantined = LintContext::new(&c).with_quarantine(QuarantineMeta {
        technique: TechniqueKind::OnlineSampling,
        coverage_bp: 5_500,
        floor_bp: 8_000,
    });
    show(
        LintCode::A014TechniqueQuarantined,
        &Query::scan("t")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build(),
        &quarantined,
    );

    // --- Session wiring: the router runs this same analysis once per
    // query, never attempts a family it rules out, and attaches the lint
    // table to the answer's report.
    let session = AqpSession::new(&c);
    let ans = session
        .answer(&grouped_sum("t"), &ErrorSpec::new(0.2, 0.9), 7)
        .unwrap();
    println!("== session: EXPLAIN ANALYZE with the lint table ==\n");
    for line in ans.report.explain_analyze().lines() {
        println!("   {line}");
    }
    let routing = ans.report.routing.as_ref().unwrap();
    let blocked = routing
        .candidates
        .iter()
        .filter(|cand| matches!(cand.outcome, CandidateOutcome::StaticallyIneligible(_)))
        .count();
    println!("\n   families blocked on static verdicts: {blocked}");
}
