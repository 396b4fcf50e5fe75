//! Acceptance tests for two-step (shard-then-merge) aggregation and
//! incremental synopsis maintenance — the two payoffs of the `Partial`
//! contract.
//!
//! * Exact aggregates executed over N ∈ {1, 2, 4, 8} shards must be
//!   **bit-for-bit identical** to unsharded execution (order-independent
//!   aggregates: counts, extrema, integer-valued sums).
//! * Approximate answers merged from per-shard samples must carry
//!   variance/CI matching the unsharded estimator within tolerance.
//! * The E8 drift scenario (append-only growth) must be answerable by
//!   folding a delta partial into the stored synopsis — no rebuild.

use aqp_core::{
    bernoulli_sample_sharded, exact_aggregate_sharded, srs_sample_sharded, AggQuery, AggSpec,
    ErrorSpec, LinearAgg, OfflineStore,
};
use aqp_engine::{execute, AggExpr, Query};
use aqp_expr::col;
use aqp_mergeable::Partial;
use aqp_storage::{Catalog, Value};
use aqp_workload::{skewed_table, uniform_table};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bits(v: &Value) -> String {
    match v {
        Value::Float64(x) => format!("f{}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded exact execution is indistinguishable — to the bit — from
    /// the serial fold, at every shard count and thread count.
    #[test]
    fn sharded_exact_aggregation_is_bit_for_bit(
        rows in 500usize..6_000,
        cap_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let cap = [64usize, 256, 1024][cap_idx];
        let t = uniform_table("t", rows, cap, seed);
        let aggs = vec![
            AggExpr::count_star("c"),
            AggExpr::sum(col("id"), "s"),
            AggExpr::avg(col("id"), "a"),
            AggExpr::min(col("v"), "lo"),
            AggExpr::max(col("v"), "hi"),
        ];
        let serial = exact_aggregate_sharded(&t, &aggs, 1, 1).unwrap();
        for shards in SHARD_COUNTS {
            for threads in [1usize, 4] {
                let sharded = exact_aggregate_sharded(&t, &aggs, shards, threads).unwrap();
                prop_assert_eq!(serial.len(), sharded.len());
                for (a, b) in serial.iter().zip(&sharded) {
                    prop_assert_eq!(
                        bits(a), bits(b),
                        "shards={} threads={}", shards, threads
                    );
                }
            }
        }
    }

    /// A merged Bernoulli sample answers like the unsharded one: same
    /// design, same estimator, CI covering the truth, variance within a
    /// sampling-noise factor of the unsharded draw.
    #[test]
    fn sharded_bernoulli_matches_unsharded_estimator(seed in any::<u64>()) {
        let t = uniform_table("t", 30_000, 512, seed);
        let truth = t.column_f64("v").unwrap().iter().sum::<f64>();
        let base = bernoulli_sample_sharded(&t, 0.1, seed ^ 0xA5A5, 1, 1)
            .unwrap()
            .estimate_sum("v")
            .unwrap();
        for shards in SHARD_COUNTS {
            let merged = bernoulli_sample_sharded(&t, 0.1, seed ^ 0xA5A5, shards, 4).unwrap();
            let est = merged.estimate_sum("v").unwrap();
            let ci = est.ci(0.99);
            prop_assert!(
                ci.lo <= truth && truth <= ci.hi,
                "shards={}: truth {} outside [{}, {}]", shards, truth, ci.lo, ci.hi
            );
            let width_ratio = (est.variance / base.variance).sqrt();
            prop_assert!(
                (0.5..2.0).contains(&width_ratio),
                "shards={}: CI width ratio {}", shards, width_ratio
            );
        }
    }

    /// Per-shard SRS merged with per-stratum weight reconciliation keeps
    /// the same total budget and a CI in the same regime as one big SRS.
    #[test]
    fn sharded_srs_ci_width_tracks_unsharded(seed in any::<u64>()) {
        let t = uniform_table("t", 24_000, 512, seed);
        let budget = 2_400usize;
        let base = srs_sample_sharded(&t, budget, seed ^ 0x5A5A, 1, 1)
            .unwrap()
            .estimate_sum("v")
            .unwrap();
        for shards in SHARD_COUNTS {
            let merged = srs_sample_sharded(&t, budget / shards, seed ^ 0x5A5A, shards, 4).unwrap();
            prop_assert_eq!(merged.num_rows(), budget / shards * shards);
            let est = merged.estimate_sum("v").unwrap();
            let width_ratio = (est.variance / base.variance).sqrt();
            prop_assert!(
                (0.5..2.0).contains(&width_ratio),
                "shards={}: CI width ratio {}", shards, width_ratio
            );
        }
    }
}

/// Appends `extra` freshly generated rows to table `t` in `c` via the
/// Table `Partial` merge — an append-only delta, prefix untouched.
fn append_rows(c: &Catalog, extra: usize, seed: u64) {
    let base = c.get("t").unwrap();
    let delta = skewed_table("t", extra, 50, 1.1, 256, seed);
    let mut extended = (*base).clone();
    Partial::merge(&mut extended, &delta).unwrap();
    c.replace(extended);
}

fn sum_v_query() -> AggQuery {
    AggQuery {
        fact_table: "t".into(),
        joins: vec![],
        predicate: None,
        group_by: vec![],
        aggregates: vec![AggSpec {
            kind: LinearAgg::Sum,
            expr: col("v"),
            alias: "s".into(),
        }],
    }
}

/// The E8 drift scenario: data grows append-only, the stored synopsis
/// goes stale, and a delta-fold maintenance pass — touching only the new
/// rows — restores freshness and accuracy without a rebuild.
#[test]
fn e8_drift_answered_by_delta_maintenance_not_rebuild() {
    let catalog = Catalog::new();
    catalog
        .register(skewed_table("t", 80_000, 50, 1.1, 256, 17))
        .unwrap();
    let store = OfflineStore::new();
    store
        .build_stratified(&catalog, "t", "g", 8_000, 5)
        .unwrap();

    // Drift: a 25% append makes the synopsis stale.
    append_rows(&catalog, 20_000, 99);
    assert!(store.staleness(&catalog, "t").unwrap() > 0.15);

    // Maintenance folds delta partials in — it reports exactly the delta
    // rows it scanned, which is how we know it didn't rescan the base.
    let delta_rows = store.maintain_stratified(&catalog, "t", 7).unwrap();
    assert_eq!(delta_rows, 20_000);
    // maintain_all covers the table's synopsis (already fresh: a no-op
    // inside it).
    assert_eq!(store.maintain_all(&catalog, "t", 7).unwrap(), 1);
    assert_eq!(store.staleness(&catalog, "t").unwrap(), 0.0);

    // The maintained synopsis answers the post-drift query accurately.
    let q = sum_v_query();
    let exact = execute(&q.to_plan(), &catalog).unwrap();
    let truth = exact.rows()[0][0].as_f64().unwrap();
    let ans = store.answer(&q, &ErrorSpec::new(0.1, 0.9)).unwrap();
    let err = ans.scalar_estimate("s").unwrap().relative_error(truth);
    assert!(err < 0.15, "post-maintenance error {err}");

    // A second pass finds nothing to do.
    assert_eq!(store.maintain_stratified(&catalog, "t", 7).unwrap(), 0);
}

/// Shard-then-merge and maintenance compose: answers over the grown
/// table are identical whether computed serially or sharded.
#[test]
fn sharded_execution_agrees_on_the_grown_table() {
    let catalog = Catalog::new();
    catalog
        .register(skewed_table("t", 40_000, 50, 1.1, 256, 23))
        .unwrap();
    append_rows(&catalog, 4_000, 31);
    let t = catalog.get("t").unwrap();
    let aggs = vec![
        AggExpr::count_star("c"),
        AggExpr::min(col("v"), "lo"),
        AggExpr::max(col("v"), "hi"),
    ];
    let serial = exact_aggregate_sharded(&t, &aggs, 1, 1).unwrap();
    let sharded = exact_aggregate_sharded(&t, &aggs, 8, 4).unwrap();
    for (a, b) in serial.iter().zip(&sharded) {
        assert_eq!(bits(a), bits(b));
    }
    // Cross-check COUNT against the exact engine.
    let plan = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::count_star("c")])
        .build();
    let engine_count = execute(&plan, &catalog).unwrap().scalar();
    assert_eq!(bits(&serial[0]), bits(&engine_count));
}
