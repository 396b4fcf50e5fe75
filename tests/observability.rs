//! Span-tree invariants for the query-lifecycle tracer, across serial and
//! morsel-parallel execution, plus the session-level explain path.
//!
//! The invariants (checked property-style over random tables, block
//! capacities, and thread counts):
//!
//! * every span that opens also closes — each trace's own open count is
//!   zero after the traced execution;
//! * a trace belongs to the caller that asked for it: executions on other
//!   threads neither record into it nor record at all;
//! * every child span nests strictly inside its parent's time window
//!   (same process-wide monotonic epoch on every thread);
//! * within any one thread, a parent's children run sequentially, so the
//!   per-(parent, thread) sum of child durations never exceeds the
//!   parent's duration (cross-thread sums legitimately can, under
//!   parallelism — that is what worker utilization measures);
//! * instrumentation never perturbs results: traced output equals
//!   untraced output bit-for-bit.

use std::collections::HashMap;

use proptest::prelude::*;

use aqp_core::{AqpSession, ErrorSpec, TechniqueKind};
use aqp_engine::{execute_with, AggExpr, ExecOptions, Query};
use aqp_expr::{col, lit};
use aqp_obs::{SpanNode, SpanRecord};
use aqp_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use aqp_workload::{build_star_schema, StarScale};

const THREADS: [usize; 3] = [1, 2, 4];

/// Fact table `fact(k, v)` mirroring the parallel_equivalence harness.
fn catalog_from(xs: &[i64], block_cap: usize, keys: i64) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    let mut fact = TableBuilder::with_block_capacity("fact", schema, block_cap);
    for &x in xs {
        fact.push_row(&[Value::Int64(x.rem_euclid(keys)), Value::Float64(x as f64)])
            .unwrap();
    }
    let c = Catalog::new();
    c.register(fact.finish()).unwrap();
    c
}

/// Flattens an assembled span tree back into records — the session path
/// keeps its own trace and attaches it as `report.trace`, so the caller's
/// capture comes back empty and the tree is the record of truth.
fn flatten(node: &aqp_obs::SpanNode, out: &mut Vec<SpanRecord>) {
    out.push(node.record.clone());
    for c in &node.children {
        flatten(c, out);
    }
}

/// Checks the structural invariants over one captured trace.
fn check_span_invariants(records: &[SpanRecord]) -> Result<(), TestCaseError> {
    prop_assert!(!records.is_empty(), "traced execution must emit spans");
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    // Child windows nest inside parent windows.
    for r in records {
        if r.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&r.parent)
            .unwrap_or_else(|| panic!("span {} has unclosed parent {}", r.id, r.parent));
        prop_assert!(
            r.start_ns >= p.start_ns && r.end_ns() <= p.end_ns(),
            "child {} [{}, {}] escapes parent {} [{}, {}]",
            r.name,
            r.start_ns,
            r.end_ns(),
            p.name,
            p.start_ns,
            p.end_ns()
        );
    }
    // Per-(parent, thread) child durations sum to at most the parent's.
    let mut sums: HashMap<(u64, u64), u64> = HashMap::new();
    for r in records {
        if r.parent != 0 {
            *sums.entry((r.parent, r.thread)).or_default() += r.duration_ns;
        }
    }
    for ((parent, thread), child_total) in sums {
        let p = by_id[&parent];
        prop_assert!(
            child_total <= p.duration_ns,
            "children of {} on thread {thread} sum to {child_total}ns > parent {}ns",
            p.name,
            p.duration_ns
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine-level: a filter → group-by plan at thread counts 1/2/4.
    /// Every span closes, children nest, per-thread child time fits in
    /// the parent, and traced rows equal untraced rows.
    #[test]
    fn engine_spans_close_and_nest(
        xs in prop::collection::vec(-100_000i64..100_000, 2100..3000),
        cap in 16usize..96,
    ) {
        let c = catalog_from(&xs, cap, 13);
        let plan = Query::scan("fact")
            .filter(col("v").gt_eq(lit(-90_000.0)))
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![AggExpr::count_star("n"), AggExpr::sum(col("v"), "s")],
            )
            .build();
        let untraced = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
        for threads in THREADS {
            let opts = ExecOptions::with_threads(threads);
            let (result, records, open_after) =
                aqp_obs::capture(|| execute_with(&plan, &c, opts).unwrap());
            prop_assert_eq!(open_after, 0, "threads={}: spans left open", threads);
            check_span_invariants(&records)?;
            prop_assert_eq!(untraced.rows(), result.rows(), "threads={}", threads);
            // The operator tree is present: an aggregate over a fused scan.
            prop_assert!(records.iter().any(|r| r.name == "op:aggregate"));
            prop_assert!(records.iter().any(|r| r.name == "op:fused-scan"));
        }
    }

    /// Session-level: a routed grouped aggregate records the lint pass
    /// (the eligibility decision) and the winning attempt under one
    /// `query` root, and the same invariants hold for the full routing
    /// trace.
    #[test]
    fn session_trace_nests_lint_and_attempts(
        xs in prop::collection::vec(-100_000i64..100_000, 2100..2600),
        seed in any::<u64>(),
    ) {
        let c = catalog_from(&xs, 32, 7);
        let session = AqpSession::new(&c);
        let plan = Query::scan("fact")
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![AggExpr::sum(col("v"), "s")],
            )
            .build();
        let spec = ErrorSpec::new(0.2, 0.9);
        let (ans, leftovers, open_after) =
            aqp_obs::capture(|| session.answer(&plan, &spec, seed).unwrap());
        prop_assert_eq!(open_after, 0);
        // The session took its own trace into the report (asserting, in
        // this debug build, that the trace had no span left open); nothing
        // may land in the caller's.
        prop_assert!(leftovers.is_empty(), "off-trace spans: {:?}", leftovers);
        let tree = ans.report.trace.as_ref().expect("trace attached");
        prop_assert_eq!(tree.record.name, "query");
        prop_assert_eq!(tree.record.parent, 0);
        let mut records = Vec::new();
        flatten(tree, &mut records);
        check_span_invariants(&records)?;
        // Every record belongs to the query's trace.
        for r in &records {
            prop_assert_eq!(r.trace, tree.record.trace, "span {} off-trace", r.name);
        }
        prop_assert!(records.iter().any(|r| r.name == "lint:analyze"));
        prop_assert!(records.iter().any(|r| r.name.starts_with("attempt:")));
        let text = ans.report.explain_analyze();
        prop_assert!(text.contains("EXPLAIN ANALYZE"));
        prop_assert!(text.contains("routing:"));
        prop_assert!(text.contains("query"));
    }
}

/// The routed span tree accounts for the report's wall clock: the `query`
/// root covers the lint pass and every attempt below it, its duration
/// never exceeds the routed wall, and the winning attempt (plus declined
/// attempts) is visible in the rendered explain output with its timing.
#[test]
fn explain_analyze_accounts_for_routed_wall() {
    let xs: Vec<i64> = (0..30_000).map(|i| (i * 7919) % 5003 - 2500).collect();
    let c = catalog_from(&xs, 64, 17);
    let session = AqpSession::new(&c);
    let plan = Query::scan("fact")
        .aggregate(
            vec![(col("k"), "k".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    let spec = ErrorSpec::new(0.1, 0.95);
    let (ans, _, _) = aqp_obs::capture(|| session.answer(&plan, &spec, 42).unwrap());
    let report = &ans.report;
    let tree = report.trace.as_ref().expect("trace attached");
    // The root's wall is bounded by the report's routed wall, and its
    // direct children (lint + attempts) fit within it.
    let root_ns = tree.record.duration_ns;
    assert!(
        root_ns <= report.wall.as_nanos() as u64,
        "query span {root_ns}ns exceeds routed wall {}ns",
        report.wall.as_nanos()
    );
    assert!(
        tree.child_ns() <= root_ns,
        "lint+attempt time {}ns exceeds query span {root_ns}ns",
        tree.child_ns()
    );
    // Attempt timing is attributed on the routing decision.
    let routing = report.routing.as_ref().expect("routed");
    let attempted: Vec<_> = routing
        .candidates
        .iter()
        .filter(|c| c.attempt_wall > std::time::Duration::ZERO)
        .collect();
    assert!(!attempted.is_empty(), "someone must have attempted");
    let rendered = report.explain_analyze();
    assert!(
        rendered.contains("attempt="),
        "attempt timing missing:\n{rendered}"
    );
    assert!(
        rendered.contains("trace:"),
        "span tree missing:\n{rendered}"
    );
    // The sampled phases name the fold their blocks took, as the exact
    // engine's fused scan does: INT64 key, numeric measure → typed kernel.
    let pilot = rendered.lines().find(|l| l.contains("online:pilot"));
    assert!(
        pilot.is_some_and(|l| l.contains("[kernel]")),
        "pilot span must carry its fold:\n{rendered}"
    );
}

/// The first span named `name` in `node`'s subtree, depth first.
fn find<'a>(node: &'a SpanNode, name: &str) -> Option<&'a SpanNode> {
    if node.record.name == name {
        return Some(node);
    }
    node.children.iter().find_map(|c| find(c, name))
}

/// The benchmark's `adhoc_join` shape — `lineitem ⋈ orders GROUP BY
/// o_priority` under a contract online cannot meet — folds its STR key on
/// the typed kernel in both sampled phases the router runs: the declined
/// online pilot and the winning rewrite's block fold.
#[test]
fn string_keyed_star_join_folds_on_the_kernel_in_pilot_and_rewrite() {
    let c = Catalog::new();
    let scale = StarScale {
        orders: 5_000,
        block_capacity: 64,
        ..StarScale::tiny()
    };
    build_star_schema(&c, &scale, 5).unwrap();
    let plan = Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .filter(col("l_sel").lt(lit(0.8)))
        .aggregate(
            vec![(col("o_priority"), "priority".to_string())],
            vec![AggExpr::sum(col("l_price"), "s")],
        )
        .build();
    let session = AqpSession::new(&c);
    let spec = ErrorSpec::new(0.002, 0.95);
    let (ans, _, _) = aqp_obs::capture(|| session.answer(&plan, &spec, 1).unwrap());
    let routing = ans.report.routing.as_ref().expect("routed");
    assert_eq!(
        routing.winner,
        TechniqueKind::MiddlewareRewrite,
        "{}",
        ans.report.explain_analyze()
    );
    let tree = ans.report.trace.as_ref().expect("trace attached");
    let detail = |node: &SpanNode| node.record.detail.clone().unwrap_or_default();
    let pilot = find(tree, "online:pilot").expect("online ran its pilot");
    assert!(detail(pilot).contains("[kernel]"), "{}", detail(pilot));
    let fold = find(tree, "rewrite:fold").expect("rewrite folded its sample");
    assert!(detail(fold).contains("[kernel]"), "{}", detail(fold));
    assert!(detail(fold).contains("rate=0.0500"), "{}", detail(fold));
}

/// A trace belongs to the thread that asked for it — the race the
/// process-wide gate lost, forced by handshake rather than left to the
/// scheduler. While this thread is inside `capture`, a sibling opens a
/// span, runs an *untraced* execution, and keeps its span open until the
/// capture has returned; it then runs a second untraced execution that
/// overlaps the traced one. At threads 1/2/4 every capture closes all of
/// its spans and holds one operator tree under its own trace id, the
/// sibling never sees a recording context, and all results agree.
#[test]
fn concurrent_untraced_executions_never_touch_a_capture() {
    use std::sync::mpsc::channel;

    let xs: Vec<i64> = (0..5_000).map(|i| (i * 31) % 997).collect();
    let c = catalog_from(&xs, 64, 11);
    let plan = Query::scan("fact")
        .aggregate(
            vec![(col("k"), "k".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    let expected = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
    let (go, go_rx) = channel::<ExecOptions>();
    let (holding, holding_rx) = channel::<()>();
    let (release, release_rx) = channel::<()>();
    std::thread::scope(|scope| {
        let (plan, c, expected) = (&plan, &c, &expected);
        scope.spawn(move || {
            for opts in go_rx {
                let held = aqp_obs::span("sibling");
                assert!(!held.is_recording(), "sibling is traced");
                let before = execute_with(plan, c, opts).unwrap();
                holding.send(()).unwrap();
                let during = execute_with(plan, c, opts).unwrap();
                assert_eq!(aqp_obs::current_ctx(), aqp_obs::SpanCtx::default());
                assert_eq!(before.rows(), expected.rows());
                assert_eq!(during.rows(), expected.rows());
                release_rx.recv().unwrap();
                drop(held);
            }
        });
        let mut seen = std::collections::HashSet::new();
        for round in 0..5 {
            for threads in THREADS {
                let opts = ExecOptions::with_threads(threads);
                let (r, records, open) = aqp_obs::capture(|| {
                    go.send(opts).unwrap();
                    holding_rx.recv().unwrap();
                    execute_with(plan, c, opts).unwrap()
                });
                release.send(()).unwrap();
                assert_eq!(open, 0, "round {round} threads={threads}: spans left open");
                assert_eq!(r.rows(), expected.rows());
                check_span_invariants(&records).unwrap();
                let trace = records[0].trace;
                assert!(records.iter().all(|r| r.trace == trace), "foreign records");
                assert!(seen.insert(trace), "trace id {trace} reused");
                assert_eq!(aqp_obs::build_tree(records).len(), 1, "foreign tree");
            }
        }
        drop(go);
    });
}
