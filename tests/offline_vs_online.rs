//! Offline synopses vs online sampling on the same queries: both answer,
//! with the cost/coverage/maintenance profile NSB attributes to each camp.

use aqp_analyze::Suggestion;
use aqp_core::{
    AggQuery, AggSpec, AqpSession, ErrorSpec, ExecutionPath, LinearAgg, LintCode, OfflineStore,
    OnlineAqp, OnlineConfig, TechniqueKind,
};
use aqp_engine::{execute, AggExpr, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::skewed_table;

fn setup() -> (Catalog, OfflineStore) {
    let catalog = Catalog::new();
    catalog
        .register(skewed_table("t", 200_000, 60, 1.1, 512, 19))
        .unwrap();
    let store = OfflineStore::new();
    store
        .build_stratified(&catalog, "t", "g", 15_000, 3)
        .unwrap();
    (catalog, store)
}

fn sum_by_g_query() -> AggQuery {
    AggQuery {
        fact_table: "t".into(),
        joins: vec![],
        predicate: None,
        group_by: vec![(col("g"), "g".into())],
        aggregates: vec![AggSpec {
            kind: LinearAgg::Sum,
            expr: col("v"),
            alias: "s".into(),
        }],
    }
}

#[test]
fn offline_covers_groups_online_misses() {
    let (catalog, store) = setup();
    let q = sum_by_g_query();
    let spec = ErrorSpec::new(0.1, 0.9);
    let exact = execute(&q.to_plan(), &catalog).unwrap();
    let n_groups = exact.num_rows();

    // Offline: congressional stratification guarantees every group.
    let offline_ans = store.answer(&q, &spec).unwrap();
    assert_eq!(offline_ans.groups.len(), n_groups);

    // Online: uniform block sampling can miss the rarest Zipf groups.
    let aqp = OnlineAqp::new(&catalog, OnlineConfig::default());
    let online_ans = aqp.answer(&q, &spec, 29).unwrap();
    match online_ans.report.path {
        ExecutionPath::OnlineBlockSample { .. } => {
            assert!(
                online_ans.groups.len() <= n_groups,
                "online can't invent groups"
            );
        }
        // If the planner declined (rare groups force a high rate), that
        // *is* the generality limit showing up — also acceptable.
        ExecutionPath::Exact => {}
        ref other => panic!("unexpected path {other:?}"),
    }
}

#[test]
fn offline_is_cheaper_online_is_fresher() {
    let (catalog, store) = setup();
    let q = sum_by_g_query();
    let spec = ErrorSpec::new(0.1, 0.9);

    let offline_ans = store.answer(&q, &spec).unwrap();
    let aqp = OnlineAqp::new(&catalog, OnlineConfig::default());
    let online_ans = aqp.answer(&q, &spec, 7).unwrap();

    // Offline touches only the synopsis rows.
    assert!(offline_ans.report.rows_touched <= 16_000);
    // Online touches more (pilot + final) but is never stale.
    assert!(online_ans.report.rows_touched >= offline_ans.report.rows_touched);

    // Now the data changes: online adapts, offline goes stale.
    catalog.replace(skewed_table("t", 300_000, 60, 1.1, 512, 77));
    assert!(store.staleness(&catalog, "t").unwrap() > 0.4);

    let truth_after: f64 = catalog
        .get("t")
        .unwrap()
        .column_f64("v")
        .unwrap()
        .iter()
        .sum();
    let mut global = sum_by_g_query();
    global.group_by = vec![];
    let online_after = aqp.answer(&global, &spec, 13).unwrap();
    let online_err = online_after
        .scalar_estimate("s")
        .unwrap()
        .relative_error(truth_after);
    let offline_after = store.answer(&global, &spec).unwrap();
    let offline_err = offline_after
        .scalar_estimate("s")
        .unwrap()
        .relative_error(truth_after);
    assert!(online_err < 0.15, "online err {online_err}");
    assert!(
        offline_err > 2.0 * online_err,
        "stale offline ({offline_err}) should be far worse than online ({online_err})"
    );
}

#[test]
fn both_paths_agree_with_exact_on_big_groups() {
    let (catalog, store) = setup();
    let q = sum_by_g_query();
    let spec = ErrorSpec::new(0.1, 0.9);
    let exact = execute(&q.to_plan(), &catalog).unwrap();
    let offline_ans = store.answer(&q, &spec).unwrap();
    let aqp = OnlineAqp::new(&catalog, OnlineConfig::default());
    let online_ans = aqp.answer(&q, &spec, 41).unwrap();

    // Check the three biggest groups (0, 1, 2 under Zipf).
    for row in exact.rows().iter().take(3) {
        let truth = row[1].as_f64().unwrap();
        let off = offline_ans.group(&row[..1]).expect("offline covers all");
        assert!(
            off.estimates[0].relative_error(truth) < 0.2,
            "offline group {:?} err {}",
            row[0],
            off.estimates[0].relative_error(truth)
        );
        if let Some(on) = online_ans.group(&row[..1]) {
            assert!(
                on.estimates[0].relative_error(truth) < 0.2,
                "online group {:?} err {}",
                row[0],
                on.estimates[0].relative_error(truth)
            );
        }
    }
}

#[test]
fn offline_serves_predicates_it_never_anticipated() {
    // Stratified samples retain real rows, so arbitrary predicates still
    // work (unlike sketches) — generality *within* the single-table scope.
    let (catalog, store) = setup();
    let mut q = sum_by_g_query();
    q.group_by = vec![];
    q.predicate = Some(col("sel").lt(lit(0.25)).and(col("v").gt(lit(5.0))));
    let spec = ErrorSpec::new(0.1, 0.9);
    let ans = store.answer(&q, &spec).unwrap();
    let exact = execute(&q.to_plan(), &catalog).unwrap();
    let truth = exact.rows()[0][0].as_f64().unwrap();
    let err = ans.scalar_estimate("s").unwrap().relative_error(truth);
    assert!(err < 0.2, "drifted-predicate error {err}");
}

/// A distinct count is not closed under sampling and no family answers
/// it from a synopsis: the router runs it exactly, with A001 saying so,
/// even beside a fresh stratified synopsis on the very column counted.
#[test]
fn count_distinct_routes_exact_with_a001() {
    let (catalog, _) = setup();
    let session = AqpSession::new(&catalog);
    session
        .offline()
        .build_stratified(&catalog, "t", "g", 15_000, 3)
        .unwrap();
    let plan = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::count_distinct(col("g"), "d")])
        .build();
    let ans = session.answer(&plan, &ErrorSpec::new(0.1, 0.9), 1).unwrap();
    assert_eq!(ans.report.path, ExecutionPath::Exact);
    let routing = ans.report.routing.as_ref().unwrap();
    assert_eq!(routing.winner, TechniqueKind::Exact);
    let lints = ans.report.lints.as_ref().unwrap();
    let a001 = lints.diag(LintCode::A001NonClosedAggregate).expect("A001");
    assert_eq!(a001.suggestion, Some(Suggestion::RouteExact));
    assert_eq!(ans.scalar_estimate("d").unwrap().value, 60.0);
}
