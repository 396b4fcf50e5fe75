//! Lifetime of the zone map a `Block` caches for scans.
//!
//! A block's zone map is built on first use and kept on the block, so
//! every table over the same `Arc<Block>` — a block sample, the table the
//! rewrite scans it as, a merged or `Catalog::replace`d version — reads
//! the one map. These tests pin that from the outside through
//! `aqp_zone_map_builds_total`: a steady rewrite workload builds nothing
//! once its fact blocks are summarized, the rewrite summarizes each fact
//! block at most once whatever blocks it samples, a replaced version that
//! shares its base blocks builds only its new ones, and a cold scan's
//! parallel build counts each map once. Each counting test reads a
//! registry of its own, so the tests run in parallel.

use std::collections::HashSet;
use std::sync::Arc;

use aqp_core::rewrite::answer_via_rewrite;
use aqp_core::{AggQuery, AqpService, Contract, ExecutionPath};
use aqp_engine::{execute_with, AggExpr, ExecOptions, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_mergeable::Partial;
use aqp_obs::metrics::{scoped, MetricsRegistry};
use aqp_sampling::bernoulli_blocks;
use aqp_storage::{Catalog, TableBuilder};
use aqp_workload::{build_star_schema, StarScale};

fn builds(registry: &MetricsRegistry) -> u64 {
    registry
        .counter(aqp_obs::names::ZONE_MAP_BUILDS_TOTAL)
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

/// The benchmark's `adhoc_join` shape: a fact predicate the scan
/// classifies by zone map, a join, a STR group key.
fn grouped_join(theta: f64) -> LogicalPlan {
    Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .filter(col("l_sel").lt(lit(theta)))
        .aggregate(
            vec![(col("o_priority"), "priority".to_string())],
            vec![AggExpr::sum(col("l_price"), "s")],
        )
        .build()
}

/// Runs `plan` exactly, counting into `registry`; the output row count.
fn exact(plan: &LogicalPlan, c: &Catalog, registry: &Arc<MetricsRegistry>) -> usize {
    let r = scoped(registry, || execute_with(plan, c, ExecOptions::default())).unwrap();
    r.num_rows()
}

/// One exact answer summarizes every fact block; twenty rewrite answers
/// through the front door after it, each on a block sample of its own,
/// build no zone map at all.
#[test]
fn rewrite_answers_after_a_warm_up_build_no_zone_map() {
    let c = star(8_000, 7);
    let fact = c.get("lineitem").unwrap();
    let service = AqpService::new(&c);
    assert!(exact(&grouped_join(0.6), &c, service.metrics()) > 0);
    assert_eq!(
        builds(service.metrics()),
        fact.block_count() as u64,
        "the warm-up summarizes each fact block once, and no dimension block"
    );
    for i in 0..20u64 {
        let plan = grouped_join(0.4 + 0.1 * (i % 5) as f64);
        // A contract online's rate cap cannot meet: the rewrite answers.
        let reply = service
            .submit(&plan, &Contract::new(0.0005, 0.99), i)
            .unwrap();
        let answer = reply.answered().expect("admitted");
        assert!(
            matches!(answer.report.path, ExecutionPath::MiddlewareRewrite { .. }),
            "query {i}: {:?}",
            answer.report.path
        );
    }
    assert_eq!(builds(service.metrics()), fact.block_count() as u64);
}

/// On a cold catalog the rewrite builds one zone map per distinct fact
/// block it has sampled, however often a block is drawn again: the map
/// stays on the fact block, not on the per-query table the rewrite scans.
#[test]
fn the_rewrite_summarizes_each_sampled_fact_block_once() {
    let c = star(8_000, 8);
    let fact = c.get("lineitem").unwrap();
    let query = AggQuery::from_plan(&grouped_join(0.5)).expect("star shape");
    let registry = Arc::new(MetricsRegistry::new());
    let mut sampled = HashSet::new();
    let mut drawn = 0;
    for seed in 0..20 {
        let sample = bernoulli_blocks(&fact, 0.2, seed);
        drawn += sample.table.block_count();
        sampled.extend(sample.table.blocks().iter().map(|b| b.as_ref() as *const _));
        let r = scoped(&registry, || answer_via_rewrite(&c, &query, &sample)).unwrap();
        assert!(r.num_rows() > 0);
        assert_eq!(builds(&registry), sampled.len() as u64, "seed {seed}");
    }
    assert!(drawn > sampled.len(), "some block was drawn twice");
    assert!(sampled.len() < fact.block_count());
}

/// A `Catalog::replace`d version that merges new blocks onto the base
/// table's shares the base blocks' maps: an exact query on it builds
/// exactly one per new block.
#[test]
fn a_replaced_version_builds_only_its_new_blocks() {
    let c = star(4_000, 9);
    let base = c.get("lineitem").unwrap();
    let plan = Query::scan("lineitem")
        .filter(col("l_sel").lt(lit(0.3)))
        .aggregate(vec![], vec![AggExpr::count_star("n")])
        .build();
    let registry = Arc::new(MetricsRegistry::new());
    exact(&plan, &c, &registry);
    assert_eq!(builds(&registry), base.block_count() as u64);

    // An append of 2½ blocks' worth of rows: three new blocks.
    let cap = base.block_capacity();
    let mut delta = TableBuilder::with_block_capacity("lineitem", (**base.schema()).clone(), cap);
    for i in 0..cap * 5 / 2 {
        delta.push_row(&base.row(i)).unwrap();
    }
    let delta = delta.finish();
    assert_eq!(delta.block_count(), 3);
    let mut next = (*base).clone();
    Partial::merge(&mut next, &delta).unwrap();
    c.replace(next);
    exact(&plan, &c, &registry);
    assert_eq!(builds(&registry), (base.block_count() + 3) as u64);
    // And a second query on the version builds nothing.
    exact(&plan, &c, &registry);
    assert_eq!(builds(&registry), (base.block_count() + 3) as u64);
}

/// A cold scan builds its missing maps on the query's workers: at two
/// threads it counts each map once, like the serial build, gives the
/// serial answer and scan accounting, and a warm re-run builds nothing.
#[test]
fn a_cold_parallel_scan_counts_each_map_once() {
    let plan = grouped_join(0.5);
    let mut answers = Vec::new();
    for threads in [1, 2] {
        let c = star(8_000, 10);
        let blocks = c.get("lineitem").unwrap().block_count() as u64;
        let registry = Arc::new(MetricsRegistry::new());
        let run = || {
            scoped(&registry, || {
                execute_with(&plan, &c, ExecOptions::with_threads(threads))
            })
            .unwrap()
        };
        let cold = run();
        assert_eq!(builds(&registry), blocks, "threads={threads}");
        let warm = run();
        assert_eq!(builds(&registry), blocks, "threads={threads}");
        assert_eq!(cold.rows(), warm.rows());
        answers.push((cold.rows(), cold.stats()));
    }
    assert_eq!(answers[0], answers[1]);
}
