//! Golden tests for the `AqpSession` routing policy: each representative
//! query shape must be served by the expected family, with the full
//! deliberation recorded in the answer's `RoutingDecision` — plus a
//! property test asserting the routed answer is identical to calling the
//! winning technique directly with the same seed.

use proptest::prelude::*;

use aqp_core::{
    AggQuery, AqpService, AqpSession, Attempt, CandidateOutcome, DeclineReason, ErrorSpec,
    ExecutionPath, OfflineTechnique, OlaTechnique, OnlineAqp, RewriteTechnique, RoutingDecision,
    ServiceConfig, SessionConfig, Technique, TechniqueKind,
};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

fn grouped_sum_plan(table: &str) -> LogicalPlan {
    Query::scan(table)
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build()
}

/// A fresh, matching stratified synopsis outranks everything: the answer
/// must come from the offline store without touching base data.
#[test]
fn fresh_synopsis_wins() {
    let c = Catalog::new();
    c.register(skewed_table("t", 50_000, 20, 1.0, 256, 3))
        .unwrap();
    let session = AqpSession::new(&c);
    session
        .offline()
        .build_stratified(&c, "t", "g", 5_000, 1)
        .unwrap();
    let ans = session
        .answer(&grouped_sum_plan("t"), &ErrorSpec::new(0.1, 0.9), 7)
        .unwrap();
    let routing = ans
        .report
        .routing
        .as_ref()
        .expect("routed answers carry a decision");
    assert_eq!(routing.winner, TechniqueKind::OfflineSynopsis);
    assert!(matches!(
        ans.report.path,
        ExecutionPath::OfflineSynopsis { .. }
    ));
    assert_eq!(
        routing.outcome(TechniqueKind::OfflineSynopsis),
        Some(&CandidateOutcome::Chosen)
    );
    // Later candidates were eligible but never attempted.
    assert_eq!(
        routing.outcome(TechniqueKind::OnlineSampling),
        Some(&CandidateOutcome::NotReached)
    );
    assert_eq!(
        routing.outcome(TechniqueKind::Exact),
        Some(&CandidateOutcome::NotReached)
    );
    // Synopsis-only answering touches far less than the table.
    assert!(ans.report.rows_scanned < 10_000);
}

/// When the base table grows past the freshness threshold the synopsis is
/// disqualified a-priori and routing falls to online sampling.
#[test]
fn stale_synopsis_falls_to_online_sampling() {
    let c = Catalog::new();
    c.register(skewed_table("t", 50_000, 20, 1.0, 256, 3))
        .unwrap();
    let session = AqpSession::new(&c);
    session
        .offline()
        .build_stratified(&c, "t", "g", 5_000, 1)
        .unwrap();
    // Replace with 50% more rows: staleness 0.5 > max_staleness 0.1.
    c.replace(skewed_table("t", 75_000, 20, 1.0, 256, 9));
    // Loose enough that pilot-planned sampling accepts despite group skew.
    let ans = session
        .answer(&grouped_sum_plan("t"), &ErrorSpec::new(0.5, 0.9), 7)
        .unwrap();
    let routing = ans.report.routing.as_ref().unwrap();
    assert_eq!(routing.winner, TechniqueKind::OnlineSampling);
    assert!(matches!(
        routing.outcome(TechniqueKind::OfflineSynopsis),
        Some(CandidateOutcome::StaticallyIneligible(
            DeclineReason::StaleSynopsis { .. }
        ))
    ));
    assert!(matches!(
        ans.report.path,
        ExecutionPath::OnlineBlockSample { .. }
    ));
}

/// A hyper-selective grouped query defeats every approximate family — the
/// online sampler declines at runtime, OLA cannot group, the rewrite's
/// per-group support collapses — and the router lands on exact, with the
/// failed attempts' costs charged to the answer.
#[test]
fn small_group_query_falls_through_to_exact() {
    let c = Catalog::new();
    c.register(skewed_table("t", 100_000, 10, 1.0, 256, 5))
        .unwrap();
    let session = AqpSession::new(&c);
    let plan = Query::scan("t")
        .filter(col("sel").lt(lit(0.0005)))
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    let ans = session
        .answer(&plan, &ErrorSpec::new(0.01, 0.95), 2)
        .unwrap();
    let routing = ans.report.routing.as_ref().unwrap();
    assert_eq!(routing.winner, TechniqueKind::Exact);
    assert_eq!(ans.report.path, ExecutionPath::Exact);
    assert!(matches!(
        routing.outcome(TechniqueKind::OfflineSynopsis),
        Some(CandidateOutcome::StaticallyIneligible(
            DeclineReason::NoSynopsis { .. }
        ))
    ));
    assert!(matches!(
        routing.outcome(TechniqueKind::OnlineSampling),
        Some(CandidateOutcome::DeclinedAtRuntime(_))
    ));
    assert!(matches!(
        routing.outcome(TechniqueKind::OnlineAggregation),
        Some(CandidateOutcome::StaticallyIneligible(
            DeclineReason::GroupByUnsupported
        ))
    ));
    assert!(matches!(
        routing.outcome(TechniqueKind::MiddlewareRewrite),
        Some(CandidateOutcome::DeclinedAtRuntime(
            DeclineReason::InsufficientSupport { .. }
        ))
    ));
    // The failed pilot + rewrite sample are charged on top of the exact
    // scan's own rows (`rows_touched`; with zone-map pruning the winning
    // scan can touch far less than the population).
    assert!(ans.report.rows_scanned > ans.report.rows_touched);
}

/// A plan outside the normalized star shape is ineligible everywhere and
/// runs exactly — but the decision still names every candidate.
#[test]
fn unsupported_shape_routes_to_exact() {
    let c = Catalog::new();
    c.register(uniform_table("t", 20_000, 256, 1)).unwrap();
    let session = AqpSession::new(&c);
    let plan = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::min(col("v"), "m")])
        .build();
    let ans = session
        .answer(&plan, &ErrorSpec::new(0.05, 0.95), 1)
        .unwrap();
    let routing = ans.report.routing.as_ref().unwrap();
    assert_eq!(routing.winner, TechniqueKind::Exact);
    assert_eq!(routing.candidates.len(), 5);
    for cand in &routing.candidates {
        if cand.kind == TechniqueKind::Exact {
            assert_eq!(cand.outcome, CandidateOutcome::Chosen);
        } else {
            assert!(matches!(
                cand.outcome,
                CandidateOutcome::StaticallyIneligible(DeclineReason::UnsupportedShape { .. })
            ));
        }
    }
    // Satellite: the exact path now carries a real rows_scanned.
    assert_eq!(ans.report.rows_scanned, 20_000);
}

/// On a table too small for the two-phase design, progressive aggregation
/// picks up the ungrouped single-column shapes.
#[test]
fn tiny_table_routes_to_online_aggregation() {
    let c = Catalog::new();
    // 2 blocks < the online sampler's 4-block minimum.
    c.register(uniform_table("t", 400, 256, 1)).unwrap();
    let session = AqpSession::new(&c);
    let plan = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build();
    let ans = session.answer(&plan, &ErrorSpec::new(0.1, 0.9), 3).unwrap();
    let routing = ans.report.routing.as_ref().unwrap();
    assert!(matches!(
        routing.outcome(TechniqueKind::OnlineSampling),
        Some(CandidateOutcome::StaticallyIneligible(
            DeclineReason::TableTooSmall { .. }
        ))
    ));
    assert_eq!(routing.winner, TechniqueKind::OnlineAggregation);
    assert!(matches!(
        ans.report.path,
        ExecutionPath::OlaProgressive { .. }
    ));
}

/// The three entry points are one walk: the probe must predict what
/// answering records when no runtime decline intervenes, and the service's
/// `route` must return that same decision cold (lint + decide) and warm
/// (the memoized decision).
#[test]
fn probe_agrees_with_answer_on_clean_paths() {
    let c = Catalog::new();
    c.register(skewed_table("t", 50_000, 20, 1.0, 256, 3))
        .unwrap();
    let session = AqpSession::new(&c);
    session
        .offline()
        .build_stratified(&c, "t", "g", 5_000, 1)
        .unwrap();
    let plan = grouped_sum_plan("t");
    let spec = ErrorSpec::new(0.1, 0.9);
    let probed = session.probe(&plan, &spec);
    let answered = session.answer(&plan, &spec, 7).unwrap();
    let realized = answered.report.routing.unwrap();
    assert_eq!(probed.winner, realized.winner);
    let fates = |d: &RoutingDecision| -> Vec<_> {
        d.candidates
            .iter()
            .map(|c| (c.kind, c.outcome.clone()))
            .collect()
    };
    assert_eq!(fates(&probed), fates(&realized));
    let service = AqpService::over(session, ServiceConfig::default());
    let cold = service.route(&plan, &spec);
    let warm = service.route(&plan, &spec);
    assert_eq!(service.stats().cache_entries, 1, "the cold route cached");
    assert_eq!(*cold, probed);
    assert_eq!(*warm, probed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Routing adds deliberation, not perturbation: the routed answer's
    /// groups and estimates are bit-for-bit those of the winning technique
    /// called directly with the same seed.
    #[test]
    fn routed_answer_equals_direct_winner(
        seed in any::<u64>(),
        rel_err in 0.02f64..0.2,
        threshold in 0.3f64..0.9,
        with_synopsis in any::<bool>(),
    ) {
        let c = Catalog::new();
        c.register(skewed_table("t", 30_000, 10, 1.0, 128, 11)).unwrap();
        let config = SessionConfig::default();
        let session = AqpSession::with_config(&c, config);
        if with_synopsis {
            session.offline().build_stratified(&c, "t", "g", 3_000, 5).unwrap();
        }
        let plan = Query::scan("t")
            .filter(col("sel").lt(lit(threshold)))
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::sum(col("v"), "s")],
            )
            .build();
        let spec = ErrorSpec::new(rel_err, 0.9);
        let routed = session.answer(&plan, &spec, seed).unwrap();
        let winner = routed.report.routing.as_ref().unwrap().winner;
        let query = AggQuery::from_plan(&plan).expect("normalized shape");

        // Re-run the winning family directly, same seed, same knobs.
        let direct = match winner {
            TechniqueKind::OfflineSynopsis => {
                OfflineTechnique::new(session.offline(), &c, config.max_staleness)
                    .answer(&query, &spec, seed).unwrap()
            }
            TechniqueKind::OnlineSampling => {
                // Qualified: the inherent `OnlineAqp::answer` (which falls
                // back to exact) shadows the trait method.
                Technique::answer(&OnlineAqp::new(&c, config.online), &query, &spec, seed).unwrap()
            }
            TechniqueKind::OnlineAggregation => {
                OlaTechnique::new(&c).answer(&query, &spec, seed).unwrap()
            }
            TechniqueKind::MiddlewareRewrite => {
                RewriteTechnique::new(&c, config.rewrite_rate, config.rewrite_min_group_support)
                    .answer(&query, &spec, seed).unwrap()
            }
            TechniqueKind::Exact => {
                // The chain fell all the way through: nothing to compare
                // against beyond exactness itself.
                prop_assert_eq!(routed.report.path, ExecutionPath::Exact);
                return Ok(());
            }
        };
        let Attempt::Answered(direct) = direct else {
            panic!("winner declined on replay with the same seed");
        };
        prop_assert_eq!(&routed.report.path, &direct.report.path);
        prop_assert_eq!(routed.groups.len(), direct.groups.len());
        for (r, d) in routed.groups.iter().zip(&direct.groups) {
            prop_assert_eq!(&r.key, &d.key);
            for (re, de) in r.estimates.iter().zip(&d.estimates) {
                prop_assert_eq!(re.value, de.value);
                prop_assert_eq!(re.variance, de.variance);
            }
        }
    }
}
