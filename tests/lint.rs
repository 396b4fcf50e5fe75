//! Golden tests for the static analyzer (aqp-lint): one fixture query per
//! lint code `A001`–`A013`, the session wiring (lint table on the report,
//! verdicts recorded as the candidates' outcomes), and the static/dynamic
//! split as a property: a statically eligible family never declines at
//! runtime for a static reason — at sampler thread counts 1, 2, and 4.

use proptest::prelude::*;

use aqp_analyze::{
    lint_plan, DeclineReason, GuaranteeClass, LintCode, LintContext, Severity, Suggestion,
    SynopsisMeta, TechniqueKind,
};
use aqp_core::{AqpSession, CandidateOutcome, ErrorSpec, SessionConfig};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

/// `t` is big enough for every sampled path; `tiny` is below the pilot
/// minimum; `d` is a join dimension.
fn catalog() -> Catalog {
    let c = Catalog::new();
    c.register(uniform_table("t", 100_000, 256, 7)).unwrap();
    c.register(uniform_table("tiny", 400, 256, 7)).unwrap();
    c.register(uniform_table("d", 1_024, 256, 9)).unwrap();
    c
}

fn ungrouped_sum(table: &str) -> LogicalPlan {
    Query::scan(table)
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build()
}

fn grouped_sum(table: &str) -> LogicalPlan {
    Query::scan(table)
        .aggregate(
            vec![(col("id"), "id".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build()
}

#[test]
fn a001_non_closed_aggregate() {
    let c = catalog();
    let plan = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::min(col("v"), "m")])
        .build();
    let a = lint_plan(&plan, &LintContext::new(&c));
    let d = a.diag(LintCode::A001NonClosedAggregate).expect("A001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.path, "aggregate.aggregates[0]");
    assert_eq!(d.suggestion, Some(Suggestion::RouteExact));
    assert!(matches!(
        d.predicts,
        Some(DeclineReason::UnsupportedAggregate { .. })
    ));
    assert_eq!(a.best_approximate(), GuaranteeClass::Unattainable);
    assert_eq!(a.best_attainable(), GuaranteeClass::Exact);
}

/// No family answers an aggregate sampling cannot bound — not from a
/// synopsis either — so A001's only suggestion is the route the system
/// has: exact, for extremes, distinct counts and second moments alike.
#[test]
fn a001_suggests_route_exact_for_every_non_closed_aggregate() {
    let c = catalog();
    let plan = Query::scan("t")
        .aggregate(
            vec![],
            vec![
                AggExpr::max(col("v"), "hi"),
                AggExpr::count_distinct(col("id"), "d"),
                AggExpr::new(aqp_engine::AggFunc::VarSamp, col("v"), "var"),
            ],
        )
        .build();
    let a = lint_plan(&plan, &LintContext::new(&c));
    let a001: Vec<_> = a
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::A001NonClosedAggregate)
        .collect();
    assert_eq!(a001.len(), 3);
    for d in a001 {
        assert_eq!(d.suggestion, Some(Suggestion::RouteExact), "{}", d.path);
    }
}

#[test]
fn a002_unsupported_shape() {
    let c = catalog();
    // No aggregate root at all: structurally outside the normalized form.
    let plan = Query::scan("t").filter(col("v").gt(lit(1i64))).build();
    let a = lint_plan(&plan, &LintContext::new(&c));
    let d = a.diag(LintCode::A002UnsupportedShape).expect("A002");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.path, "plan");
    assert_eq!(d.suggestion, Some(Suggestion::RouteExact));
    assert!(!a.has(LintCode::A001NonClosedAggregate));
    assert!(!a.normalized);
}

fn join_plan(pred: aqp_expr::Expr) -> LogicalPlan {
    Query::scan("t")
        .join(Query::scan("d"), col("id"), col("id"))
        .filter(pred)
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build()
}

#[test]
fn a003_joins_exclude_single_relation_families() {
    let c = catalog();
    let a = lint_plan(&join_plan(col("sel").lt(lit(0.5))), &LintContext::new(&c));
    let d = a.diag(LintCode::A003JoinsExcludeFamily).expect("A003");
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(d.path, "joins");
    // One diagnostic covers both single-relation families; both verdicts
    // still carry the exact predicted decline.
    assert_eq!(
        a.blocked_by(TechniqueKind::OfflineSynopsis),
        Some(&DeclineReason::JoinsUnsupported)
    );
    assert_eq!(
        a.blocked_by(TechniqueKind::OnlineAggregation),
        Some(&DeclineReason::JoinsUnsupported)
    );
    assert!(a.statically_eligible(TechniqueKind::OnlineSampling));
}

#[test]
fn a004_progressive_shape() {
    let c = catalog();
    // Grouped: progressive aggregation maintains one live interval.
    let grouped = lint_plan(&grouped_sum("t"), &LintContext::new(&c));
    let d = grouped.diag(LintCode::A004ProgressiveShape).expect("A004");
    assert_eq!(d.path, "group_by");
    assert_eq!(d.predicts, Some(DeclineReason::GroupByUnsupported));
    // Two aggregates: one estimator per query.
    let multi = Query::scan("t")
        .aggregate(
            vec![],
            vec![AggExpr::sum(col("v"), "s"), AggExpr::avg(col("v"), "a")],
        )
        .build();
    let multi = lint_plan(&multi, &LintContext::new(&c));
    let d = multi.diag(LintCode::A004ProgressiveShape).expect("A004");
    assert_eq!(d.path, "aggregate.aggregates");
    // COUNT(*): not SUM/AVG of a bare column.
    let count = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::count_star("n")])
        .build();
    let count = lint_plan(&count, &LintContext::new(&c));
    let d = count.diag(LintCode::A004ProgressiveShape).expect("A004");
    assert_eq!(d.path, "aggregate.aggregates[0]");
    assert!(!count.statically_eligible(TechniqueKind::OnlineAggregation));
}

#[test]
fn a005_no_synopsis() {
    let c = catalog();
    let a = lint_plan(&ungrouped_sum("t"), &LintContext::new(&c));
    let d = a.diag(LintCode::A005NoSynopsis).expect("A005");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.technique, Some(TechniqueKind::OfflineSynopsis));
    assert!(matches!(
        &d.suggestion,
        Some(Suggestion::BuildStratifiedSynopsis { table, .. }) if table == "t"
    ));
    assert_eq!(
        a.blocked_by(TechniqueKind::OfflineSynopsis),
        Some(&DeclineReason::NoSynopsis {
            table: "t".to_string()
        })
    );
}

#[test]
fn a006_synopsis_mismatch() {
    let c = catalog();
    let ctx = LintContext::new(&c).with_synopsis(SynopsisMeta {
        table: "t".to_string(),
        stratified_on: "v".to_string(),
        staleness: Some(0.0),
    });
    let a = lint_plan(&grouped_sum("t"), &ctx);
    let d = a.diag(LintCode::A006SynopsisMismatch).expect("A006");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.path, "group_by[0]");
    assert_eq!(
        d.predicts,
        Some(DeclineReason::SynopsisMismatch {
            stratified_on: "v".to_string(),
            requested: "id".to_string(),
        })
    );
}

#[test]
fn a007_stale_synopsis() {
    let c = catalog();
    let ctx = LintContext::new(&c).with_synopsis(SynopsisMeta {
        table: "t".to_string(),
        stratified_on: "id".to_string(),
        staleness: Some(0.5),
    });
    let a = lint_plan(&grouped_sum("t"), &ctx);
    let d = a.diag(LintCode::A007StaleSynopsis).expect("A007");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(
        d.suggestion,
        Some(Suggestion::RefreshSynopsis {
            table: "t".to_string()
        })
    );
    assert!(matches!(
        d.predicts,
        Some(DeclineReason::StaleSynopsis { staleness, .. }) if (staleness - 0.5).abs() < 1e-12
    ));
}

#[test]
fn a008_table_too_small() {
    let c = catalog();
    let a = lint_plan(&ungrouped_sum("tiny"), &LintContext::new(&c));
    let d = a.diag(LintCode::A008TableTooSmall).expect("A008");
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(
        d.predicts,
        Some(DeclineReason::TableTooSmall {
            blocks: 2,
            min_blocks: 4,
        })
    );
    // Progressive aggregation still picks the shape up.
    assert!(a.statically_eligible(TechniqueKind::OnlineAggregation));
}

#[test]
fn a009_missing_table_blocks_everything() {
    let c = catalog();
    let a = lint_plan(&ungrouped_sum("ghost"), &LintContext::new(&c));
    let d = a.diag(LintCode::A009MissingTable).expect("A009");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.path, "scan(ghost)");
    for k in TechniqueKind::all() {
        assert!(!a.statically_eligible(k), "{k} must be blocked");
    }
    assert_eq!(a.best_attainable(), GuaranteeClass::Unattainable);
    assert_eq!(a.max_severity(), Some(Severity::Error));
}

#[test]
fn a010_group_support_risk() {
    let c = catalog();
    // Grouped, rewrite-eligible, offline blocked (no synopsis): the only
    // sampled grouped path is unstratified.
    let a = lint_plan(&grouped_sum("t"), &LintContext::new(&c));
    let d = a.diag(LintCode::A010GroupSupportRisk).expect("A010");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.technique, Some(TechniqueKind::MiddlewareRewrite));
    assert_eq!(
        d.predicts,
        Some(DeclineReason::InsufficientSupport {
            rows: 0,
            min_rows: 30,
        })
    );
    // With a fresh matching synopsis the stratified path exists: no risk.
    let ctx = LintContext::new(&c).with_synopsis(SynopsisMeta {
        table: "t".to_string(),
        stratified_on: "id".to_string(),
        staleness: Some(0.0),
    });
    let covered = lint_plan(&grouped_sum("t"), &ctx);
    assert!(!covered.has(LintCode::A010GroupSupportRisk));
}

#[test]
fn a011_selective_predicate_risk() {
    let c = catalog();
    let plan = Query::scan("t")
        .filter(col("sel").lt(lit(0.001)))
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build();
    let a = lint_plan(&plan, &LintContext::new(&c));
    let d = a.diag(LintCode::A011SelectivePredicateRisk).expect("A011");
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(d.path, "filter.predicate");
    assert_eq!(d.predicts, Some(DeclineReason::EmptyPilot));
    // A risk lint never changes the verdict.
    assert!(a.statically_eligible(TechniqueKind::OnlineSampling));
    // No predicate, no risk.
    let clean = lint_plan(&ungrouped_sum("t"), &LintContext::new(&c));
    assert!(!clean.has(LintCode::A011SelectivePredicateRisk));
}

#[test]
fn a012_sampled_join_precondition() {
    let c = catalog();
    let plain = lint_plan(&join_plan(col("sel").lt(lit(0.5))), &LintContext::new(&c));
    let d = plain
        .diag(LintCode::A012SampledJoinPrecondition)
        .expect("A012");
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(
        d.suggestion,
        Some(Suggestion::UseUniverseSampling {
            key: "id".to_string()
        })
    );
    // A universe-sampling predicate on the key satisfies the precondition.
    let universe = lint_plan(
        &join_plan(col("id").hash64().modulo(lit(10i64)).lt(lit(3i64))),
        &LintContext::new(&c),
    );
    assert!(!universe.has(LintCode::A012SampledJoinPrecondition));
}

#[test]
fn a013_point_estimate_only() {
    let c = catalog();
    // Tiny + grouped + no synopsis: sampling, OLA, and offline are all
    // blocked; only the rewrite's point estimate remains.
    let a = lint_plan(&grouped_sum("tiny"), &LintContext::new(&c));
    let d = a.diag(LintCode::A013PointEstimateOnly).expect("A013");
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(a.best_approximate(), GuaranteeClass::PointEstimate);
    // Any stronger attainable guarantee silences it.
    let strong = lint_plan(&ungrouped_sum("t"), &LintContext::new(&c));
    assert!(!strong.has(LintCode::A013PointEstimateOnly));
}

/// The registry itself: codes are dense, titles and NSB claims non-empty.
#[test]
fn lint_registry_is_complete() {
    for (i, code) in LintCode::all().iter().enumerate() {
        assert_eq!(code.code(), format!("A{:03}", i + 1));
        assert!(!code.title().is_empty());
        assert!(!code.nsb_claim().is_empty());
    }
}

/// Session wiring: the answer carries the analysis, `explain_analyze`
/// renders the lint table, and a statically blocked family's recorded
/// outcome is its verdict.
#[test]
fn session_attaches_lints_and_records_verdicts() {
    let c = catalog();
    let session = AqpSession::new(&c);
    let ans = session
        .answer(&grouped_sum("t"), &ErrorSpec::new(0.2, 0.9), 7)
        .unwrap();
    let lints = ans.report.lints.as_ref().expect("lint table attached");
    assert!(lints.has(LintCode::A005NoSynopsis));
    let routing = ans.report.routing.as_ref().unwrap();
    for cand in &routing.candidates {
        if let CandidateOutcome::StaticallyIneligible(reason) = &cand.outcome {
            assert_eq!(lints.blocked_by(cand.kind), Some(reason));
        }
    }
    let explain = ans.report.explain_analyze();
    assert!(explain.contains("lints:"), "explain:\n{explain}");
    assert!(explain.contains("A005"), "explain:\n{explain}");
    assert!(explain.contains("best attainable:"), "explain:\n{explain}");
}

/// `AqpSession::lint_plan` folds live synopsis metadata into the context:
/// building a synopsis flips A005 off, drifting the base table past the
/// threshold flips A007 on.
#[test]
fn session_lint_sees_synopsis_lifecycle() {
    let c = Catalog::new();
    c.register(skewed_table("t", 50_000, 20, 1.0, 256, 3))
        .unwrap();
    let session = AqpSession::new(&c);
    let plan = Query::scan("t")
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    assert!(session.lint_plan(&plan).has(LintCode::A005NoSynopsis));
    session
        .offline()
        .build_stratified(&c, "t", "g", 5_000, 1)
        .unwrap();
    let fresh = session.lint_plan(&plan);
    assert!(!fresh.has(LintCode::A005NoSynopsis));
    assert!(fresh.statically_eligible(TechniqueKind::OfflineSynopsis));
    c.replace(skewed_table("t", 75_000, 20, 1.0, 256, 9));
    let stale = session.lint_plan(&plan);
    assert!(stale.has(LintCode::A007StaleSynopsis));
    assert!(!stale.statically_eligible(TechniqueKind::OfflineSynopsis));
}

/// One generated plan shape: optional filter, grouping, and a linear or
/// non-closed aggregate.
fn scenario_plan(grouped: bool, filter: Option<f64>, nonlinear: bool) -> LogicalPlan {
    let mut q = Query::scan("t");
    if let Some(threshold) = filter {
        q = q.filter(col("sel").lt(lit(threshold)));
    }
    let agg = if nonlinear {
        AggExpr::min(col("v"), "m")
    } else {
        AggExpr::sum(col("v"), "s")
    };
    let keys = if grouped {
        vec![(col("g"), "g".to_string())]
    } else {
        vec![]
    };
    q.aggregate(keys, vec![agg]).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The half of the analyzer/router contract that can still fail, now
    /// that the verdict *is* the router's a-priori decision: the
    /// static/dynamic split. For any generated plan and session state, a
    /// family the analyzer marks statically eligible never declines at
    /// runtime for a static reason — which is also what would show a
    /// family's own guard (built from the family's fields) disagreeing
    /// with the session's lint context — at sampler thread counts 1, 2,
    /// and 4.
    #[test]
    fn eligible_families_decline_only_for_dynamic_reasons(
        seed in any::<u64>(),
        rows in (0usize..3).prop_map(|i| [300usize, 2_000, 30_000][i]),
        grouped in any::<bool>(),
        has_filter in any::<bool>(),
        threshold in 0.0005f64..0.9,
        nonlinear in any::<bool>(),
        with_synopsis in any::<bool>(),
        stale in any::<bool>(),
    ) {
        let filter = has_filter.then_some(threshold);
        for threads in [1usize, 2, 4] {
            let c = Catalog::new();
            c.register(skewed_table("t", rows, 10, 1.0, 128, 11)).unwrap();
            let mut config = SessionConfig::default();
            config.online.threads = threads;
            let session = AqpSession::with_config(&c, config);
            if with_synopsis {
                session
                    .offline()
                    .build_stratified(&c, "t", "g", (rows / 10).max(64), 5)
                    .unwrap();
                if stale {
                    c.replace(skewed_table("t", rows + rows / 2, 10, 1.0, 128, 9));
                }
            }
            let plan = scenario_plan(grouped, filter, nonlinear);
            let analysis = session.lint_plan(&plan);
            let ans = session
                .answer(&plan, &ErrorSpec::new(0.3, 0.9), seed)
                .unwrap();
            let routing = ans.report.routing.as_ref().unwrap();
            for cand in &routing.candidates {
                match &cand.outcome {
                    CandidateOutcome::StaticallyIneligible(reason) => {
                        prop_assert!(reason.is_static());
                    }
                    CandidateOutcome::DeclinedAtRuntime(reason) => {
                        prop_assert!(analysis.statically_eligible(cand.kind));
                        prop_assert!(
                            !reason.is_static(),
                            "threads={}: {} declined at runtime for static reason {}",
                            threads, cand.kind, reason
                        );
                    }
                    CandidateOutcome::Chosen | CandidateOutcome::NotReached => {}
                }
            }
            // The attached lint table is the same analysis the router used.
            prop_assert_eq!(
                ans.report.lints.as_deref(),
                Some(&analysis)
            );
        }
    }
}
