//! Lifetime of the key index a dimension `Table` caches for joins.
//!
//! The index is built by the first join that needs it, shared by every
//! later query of every family (exact engine, middleware rewrite, online
//! sampler) and never invalidated — `Catalog::replace` installs a *new*
//! table, whose index is its own. These tests pin that from the outside:
//! answers follow a replaced dimension, a replacement that breaks key
//! uniqueness is refused by the sampler and joined many-to-many by the
//! engine, racing first uses build once, and a steady workload builds
//! nothing after its first query. Each counting test reads a registry of
//! its own, so the tests run in parallel.

use std::sync::{Arc, Barrier};

use aqp_core::{
    AggQuery, AqpError, AqpService, Attempt, Contract, ErrorSpec, ExecutionPath, OnlineAqp,
    OnlineConfig, RewriteTechnique, Technique,
};
use aqp_engine::{execute_with, AggExpr, ExecOptions, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_obs::metrics::{scoped, MetricsRegistry};
use aqp_storage::{Catalog, Table, TableBuilder, Value};
use aqp_workload::{build_star_schema, StarScale};

fn builds(registry: &MetricsRegistry) -> u64 {
    registry
        .counter(aqp_obs::names::KEY_INDEX_BUILDS_TOTAL)
        .get()
}

fn star(orders: usize, seed: u64) -> Catalog {
    let c = Catalog::new();
    let scale = StarScale {
        orders,
        ..StarScale::tiny()
    };
    build_star_schema(&c, &scale, seed).unwrap();
    c
}

fn join_count() -> LogicalPlan {
    Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .aggregate(vec![], vec![AggExpr::count_star("n")])
        .build()
}

/// `orders` with only the rows `keep` accepts, plus a second copy of the
/// row keyed `dup` when given.
fn orders_variant(c: &Catalog, keep: impl Fn(i64) -> bool, dup: Option<i64>) -> Table {
    let orders = c.get("orders").unwrap();
    let mut b = TableBuilder::with_block_capacity(
        "orders",
        (**orders.schema()).clone(),
        orders.block_capacity(),
    );
    for i in 0..orders.row_count() {
        let row = orders.row(i);
        let key = row[0].as_i64().unwrap();
        if keep(key) {
            b.push_row(&row).unwrap();
        }
        if dup == Some(key) {
            b.push_row(&row).unwrap();
        }
    }
    b.finish()
}

fn scalar(plan: &LogicalPlan, c: &Catalog) -> f64 {
    let r = execute_with(plan, c, ExecOptions::default()).unwrap();
    r.scalar().as_f64().unwrap()
}

/// The rewrite's scalar over a rate-1.0 block sample: a census, so the
/// cluster expansion returns the exact count up to its rounding.
fn rewritten(c: &Catalog, query: &AggQuery) -> f64 {
    let spec = ErrorSpec::new(0.05, 0.95);
    match RewriteTechnique::new(c, 1.0, 1)
        .answer(query, &spec, 1)
        .unwrap()
    {
        Attempt::Answered(ans) => ans.groups[0].estimates[0].value,
        Attempt::Declined { reason, .. } => panic!("the census declined: {reason:?}"),
    }
}

fn assert_near(got: f64, want: f64) {
    assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");
}

/// After `Catalog::replace` of the dimension with a changed key set, the
/// next exact, rewrite and online answers all join against the new rows.
#[test]
fn answers_follow_a_replaced_dimension() {
    let c = star(8_000, 3);
    let plan = join_count();
    let query = AggQuery::from_plan(&plan).expect("star shape");
    let fact = c.get("lineitem").unwrap();
    let all_rows = fact.row_count() as f64;
    let online = OnlineAqp::new(&c, OnlineConfig::default());
    let spec = ErrorSpec::new(0.05, 0.95);

    // Every family indexes (or finds indexed) the original dimension.
    assert_eq!(scalar(&plan, &c), all_rows);
    assert!(c.get("orders").unwrap().has_key_index(0));
    assert_near(rewritten(&c, &query), all_rows);
    let before = online.answer(&query, &spec, 11).unwrap();
    assert!((before.groups[0].estimates[0].value - all_rows).abs() < 0.1 * all_rows);

    // Keep the even orders only: every odd order's line items dangle.
    c.replace(orders_variant(&c, |k| k % 2 == 0, None));
    assert!(!c.get("orders").unwrap().has_key_index(0));
    let even_rows = (0..fact.row_count())
        .filter(|&i| fact.row(i)[0].as_i64().unwrap() % 2 == 0)
        .count() as f64;
    assert!(even_rows < 0.7 * all_rows);
    assert_eq!(scalar(&plan, &c), even_rows);
    assert_near(rewritten(&c, &query), even_rows);
    let after = online.answer(&query, &spec, 11).unwrap();
    assert!(
        matches!(after.report.path, ExecutionPath::OnlineBlockSample { .. }),
        "sampled, not an exact fallback: {:?}",
        after.report.path
    );
    let estimate = after.groups[0].estimates[0].value;
    assert!(
        (estimate - even_rows).abs() < 0.1 * even_rows,
        "online estimate {estimate} vs new truth {even_rows} (old {all_rows})"
    );
}

/// A replacement that introduces a duplicate key: the sampler refuses
/// (sampling one side of a many-to-many join is unsound) with the text it
/// always had, while the exact engine returns the many-to-many result.
#[test]
fn duplicate_key_is_refused_by_online_and_joined_by_exact() {
    let c = star(1_000, 4);
    let plan = join_count();
    let query = AggQuery::from_plan(&plan).expect("star shape");
    let fact = c.get("lineitem").unwrap();
    let online = OnlineAqp::new(&c, OnlineConfig::default());
    let spec = ErrorSpec::new(0.05, 0.95);
    assert!(online.answer(&query, &spec, 1).is_ok());

    c.replace(orders_variant(&c, |_| true, Some(17)));
    match online.answer(&query, &spec, 1) {
        Err(AqpError::Unsupported { detail }) => assert_eq!(
            detail,
            "dimension orders has duplicate key 17 in o_key; \
             sampling one side of a many-to-many join is unsound"
        ),
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let lines_of_17 = (0..fact.row_count())
        .filter(|&i| fact.row(i)[0] == Value::Int64(17))
        .count();
    assert!(lines_of_17 > 0);
    assert_eq!(
        scalar(&plan, &c),
        (fact.row_count() + lines_of_17) as f64,
        "each line item of order 17 joins both copies"
    );
}

/// Eight queries racing the first use of a dimension build its index
/// once, and the build is counted once.
#[test]
fn racing_first_uses_build_once() {
    let c = star(2_000, 5);
    let plan = join_count();
    let expect = c.get("lineitem").unwrap().row_count() as f64;
    let registry = Arc::new(MetricsRegistry::new());
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                barrier.wait();
                assert_eq!(scoped(&registry, || scalar(&plan, &c)), expect);
            });
        }
    });
    assert_eq!(builds(&registry), 1);
}

/// A steady join workload through the front door — online pilots, the
/// rewrite that wins, the exact fallback — pays for the dimension's index
/// on its first query and never again, and no later trace shows a
/// `join:build`.
#[test]
fn a_hundred_queries_build_one_index() {
    let c = star(4_000, 6);
    let service = AqpService::new(&c);
    let grouped = |theta: f64| {
        Query::scan("lineitem")
            .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
            .filter(col("l_sel").lt(lit(theta)))
            .aggregate(
                vec![(col("o_priority"), "priority".to_string())],
                vec![AggExpr::sum(col("l_price"), "s")],
            )
            .build()
    };
    for i in 0..100u64 {
        let plan = grouped(0.4 + 0.1 * (i % 5) as f64);
        // Tight contracts send the query past online's rate cap to the
        // rewrite; loose ones let the sampler answer.
        let contract = match i % 2 {
            0 => Contract::new(0.0005, 0.99),
            _ => Contract::new(0.2, 0.9),
        };
        let (reply, spans, _) = aqp_obs::capture(|| service.submit(&plan, &contract, i).unwrap());
        let answer = reply.answered().expect("admitted");
        // The exact baseline joins through the same cached index.
        let exact = scoped(service.metrics(), || {
            execute_with(&plan, &c, ExecOptions::default())
        });
        assert!(exact.is_ok());
        let tree: &aqp_obs::SpanNode = answer.report.trace.as_ref().expect("traced");
        let mut names = Vec::new();
        let mut stack = vec![tree];
        while let Some(node) = stack.pop() {
            names.push(node.record.name);
            stack.extend(&node.children);
        }
        names.extend(spans.iter().map(|s| s.name));
        assert_eq!(
            names.contains(&"join:build"),
            i == 0,
            "query {i}: {names:?}"
        );
    }
    assert_eq!(builds(service.metrics()), 1, "one index for orders.o_key");
}
