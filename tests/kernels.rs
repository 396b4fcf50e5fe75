//! Equivalence tests for the typed kernel layer (`aqp_engine::kernel`):
//! the fused zone-map → selection-mask → typed-accumulator path must be a
//! pure optimization. For every plan it covers, its rows are **bit-for-bit**
//! those of the scalar `eval` path — over non-integral floats, whose sums
//! depend on association order, with NULLs in both measures and group
//! keys, with zone-map pruning on or off, at every thread count: every
//! aggregate merges its morsel partials along the same fixed tree.
//!
//! The same holds for a STR group key, which the kernel folds on its
//! dictionary code: NULL and `""` keys, non-ASCII values, and a table whose
//! blocks come from two builders (two dictionaries, disagreeing codes).
//!
//! Two structural invariants ride along:
//!
//! * `blocks_scanned + blocks_pruned` is constant across pruning on/off
//!   (pruning relabels blocks, it never invents or loses them), and
//!   `rows_scanned` never grows when pruning turns on;
//! * per-config stats are identical across thread counts (morsel
//!   boundaries are data-dependent, never scheduling-dependent).
//!
//! The last test pins `aqp_kernel_dispatch_total`: one tick per aggregate.

use std::sync::Arc;

use proptest::prelude::*;

use aqp_engine::{execute_with, AggExpr, BlockFold, ExecOptions, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_mergeable::Partial;
use aqp_obs::metrics::{scoped, MetricsRegistry};
use aqp_obs::names;
use aqp_storage::{Catalog, DataType, Field, Schema, Table, TableBuilder, Value};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Table `t(k, v, s)`: nullable INT64 group key (NULL every 11th row),
/// nullable non-integral FLOAT64 measure (NULL every 7th row), and a
/// clustered FLOAT64 selector so zone maps actually prune some blocks.
fn catalog_from(xs: &[i64], block_cap: usize, keys: i64) -> Catalog {
    let schema = Schema::new(vec![
        Field::nullable("k", DataType::Int64),
        Field::nullable("v", DataType::Float64),
        Field::new("s", DataType::Float64),
    ]);
    let mut t = TableBuilder::with_block_capacity("t", schema, block_cap);
    for (i, &x) in xs.iter().enumerate() {
        let k = if i % 11 == 3 {
            Value::Null
        } else {
            Value::Int64(x.rem_euclid(keys))
        };
        let v = if i % 7 == 5 {
            Value::Null
        } else {
            Value::Float64(x as f64 / 7.0)
        };
        // Clustered: long runs share a selector value, so whole blocks
        // fall outside the filter range and the zone map can prove it.
        let s = (i / 256) as f64;
        t.push_row(&[k, v, Value::Float64(s)]).unwrap();
    }
    let c = Catalog::new();
    c.register(t.finish()).unwrap();
    c
}

/// The same table with a STR key `k`: NULL every 11th row, else one of
/// five values (`""` and non-ASCII among them). `dicts == 2` builds the
/// halves with two builders and merges them, so the table holds two
/// dictionaries whose codes disagree.
fn str_catalog_from(xs: &[i64], block_cap: usize, dicts: usize) -> Catalog {
    const KEYS: [&str; 5] = ["", "α", "beta", "日本", "z"];
    let schema = || {
        Schema::new(vec![
            Field::nullable("k", DataType::Str),
            Field::nullable("v", DataType::Float64),
            Field::new("s", DataType::Float64),
        ])
    };
    let per_part = xs.len().div_ceil(dicts);
    let mut parts = xs.chunks(per_part.max(1)).enumerate().map(|(p, part)| {
        let mut t = TableBuilder::with_block_capacity("t", schema(), block_cap);
        for (j, &x) in part.iter().enumerate() {
            let i = p * per_part + j;
            let k = if i % 11 == 3 {
                Value::Null
            } else {
                Value::str(KEYS[x.rem_euclid(5) as usize])
            };
            let v = if i % 7 == 5 {
                Value::Null
            } else {
                Value::Float64(x as f64 / 7.0)
            };
            t.push_row(&[k, v, Value::Float64((i / 256) as f64)])
                .unwrap();
        }
        t.finish()
    });
    let mut table: Table = parts.next().expect("a non-empty table");
    for part in parts {
        Partial::merge(&mut table, &part).unwrap();
    }
    let c = Catalog::new();
    c.register(table).unwrap();
    c
}

/// Every (kernels, pruning, threads) configuration, baseline first.
fn configs() -> Vec<ExecOptions> {
    let mut out = Vec::new();
    for kernels in [false, true] {
        for pruning in [false, true] {
            for threads in THREADS {
                out.push(
                    ExecOptions::with_threads(threads)
                        .with_kernels(kernels)
                        .with_zone_pruning(pruning),
                );
            }
        }
    }
    out
}

/// Runs `plan` under every configuration and asserts the full matrix of
/// equivalences against the scalar serial baseline.
fn assert_equivalent(plan: &LogicalPlan, c: &Catalog) -> Result<(), TestCaseError> {
    let baseline = execute_with(
        plan,
        c,
        ExecOptions::serial()
            .with_kernels(false)
            .with_zone_pruning(false),
    )
    .unwrap();
    let total_blocks = {
        let s = baseline.stats();
        s.blocks_scanned + s.blocks_pruned
    };
    for opts in configs() {
        let run = execute_with(plan, c, opts).unwrap();
        let tag = format!(
            "kernels={} pruning={} threads={}",
            opts.kernels, opts.zone_pruning, opts.threads
        );
        // Bit-for-bit rows: Value equality is float equality, which is
        // bit equality on these values (no NaN, no -0.0).
        prop_assert_eq!(baseline.rows(), run.rows(), "rows diverge at {}", tag);
        prop_assert_eq!(
            baseline.schema(),
            run.schema(),
            "schema diverges at {}",
            tag
        );
        let s = run.stats();
        prop_assert_eq!(
            s.blocks_scanned + s.blocks_pruned,
            total_blocks,
            "block accounting leaks at {}",
            tag
        );
        prop_assert!(
            s.rows_scanned <= baseline.stats().rows_scanned,
            "pruning grew rows_scanned at {}",
            tag
        );
        if !opts.zone_pruning {
            prop_assert_eq!(s.blocks_pruned, 0, "pruned without pruning at {}", tag);
        }
        // Same config, different thread counts: stats must be identical.
        let serial_same = execute_with(
            plan,
            c,
            ExecOptions::serial()
                .with_kernels(opts.kernels)
                .with_zone_pruning(opts.zone_pruning),
        )
        .unwrap();
        prop_assert_eq!(serial_same.stats(), run.stats(), "stats diverge at {}", tag);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Filtered grouped aggregation over a NULL-bearing key and measure:
    /// the kernel's null-group slot, validity-aware accumulators, and
    /// pruning-independent morsel tree all reproduce the scalar fold.
    #[test]
    fn grouped_kernel_matches_scalar_bitwise(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5200),
        cap in 64usize..256,
        hi in 3.0f64..14.0,
    ) {
        let c = catalog_from(&xs, cap, 23);
        let plan = Query::scan("t")
            .filter(col("s").lt(lit(hi)))
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![
                    AggExpr::count_star("n"),
                    AggExpr::sum(col("v"), "sv"),
                    AggExpr::avg(col("v"), "av"),
                    AggExpr::min(col("v"), "lo"),
                    AggExpr::max(col("v"), "hi"),
                ],
            )
            .build();
        assert_equivalent(&plan, &c)?;
    }

    /// Global aggregates over arithmetic on the measure (wrapping INT64,
    /// FLOAT64 division): the kernel's typed expression evaluation must
    /// match `eval`'s value semantics exactly.
    #[test]
    fn global_kernel_matches_scalar_bitwise(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5200),
        cap in 64usize..256,
        lo in 1.0f64..10.0,
    ) {
        let c = catalog_from(&xs, cap, 13);
        let plan = Query::scan("t")
            .filter(col("s").gt_eq(lit(lo)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star("n"),
                    AggExpr::sum(col("v").mul(lit(2.0)), "s2"),
                    AggExpr::min(col("k").add(lit(1i64)), "lo"),
                    AggExpr::max(col("v"), "hi"),
                ],
            )
            .build();
        assert_equivalent(&plan, &c)?;
    }

    /// Compound predicates (AND/OR chains over both columns) compose into
    /// one fused selection mask; an uncoverable shape in the same plan
    /// family must fall back without changing results.
    #[test]
    fn predicate_composition_matches_scalar(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5200),
        cap in 64usize..256,
        mid in 4.0f64..12.0,
    ) {
        let c = catalog_from(&xs, cap, 19);
        let covered = Query::scan("t")
            .filter(col("s").lt(lit(mid)).or(col("s").gt_eq(lit(mid + 3.0))))
            .filter(col("v").gt(lit(-900_000.0)))
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![AggExpr::sum(col("v"), "sv"), AggExpr::count_star("n")],
            )
            .build();
        assert_equivalent(&covered, &c)?;
        // NOT does not commute with three-valued masks: the kernel must
        // decline and the scalar fallback must serve the same answer.
        let fallback = Query::scan("t")
            .filter(col("s").lt(lit(mid)).not())
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![AggExpr::sum(col("v"), "sv"), AggExpr::count_star("n")],
            )
            .build();
        assert_equivalent(&fallback, &c)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A STR group key folds on codes — across two dictionaries when the
    /// table has them — and reproduces the scalar fold bit-for-bit.
    #[test]
    fn string_key_kernel_matches_scalar_bitwise(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5200),
        cap in 64usize..256,
        hi in 3.0f64..14.0,
        dicts in 1usize..3,
    ) {
        let c = str_catalog_from(&xs, cap, dicts);
        let key = vec![(col("k"), "k".to_string())];
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::sum(col("v"), "sv"),
            AggExpr::avg(col("v"), "av"),
            AggExpr::min(col("v"), "lo"),
            AggExpr::max(col("v"), "hi"),
        ];
        let filter = col("s").lt(lit(hi));
        let schema = c.get("t").unwrap().schema().clone();
        prop_assert!(BlockFold::kernel(&[&filter], &key, &aggs, &schema).is_some());
        let plan = Query::scan("t").filter(filter).aggregate(key, aggs).build();
        assert_equivalent(&plan, &c)?;
    }
}

/// Zone maps must actually fire on the clustered selector — otherwise the
/// pruning half of the proptests above is vacuously true.
#[test]
fn clustered_selector_prunes_blocks() {
    let xs: Vec<i64> = (0..20_000).map(|i| (i * 7919) % 100_000 - 50_000).collect();
    let c = catalog_from(&xs, 128, 23);
    let plan = Query::scan("t")
        .filter(col("s").lt(lit(10.0)))
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "sv")])
        .build();
    let pruned = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
    assert!(
        pruned.stats().blocks_pruned > 0,
        "expected zone maps to prune blocks on a clustered selector"
    );
    let unpruned = execute_with(&plan, &c, ExecOptions::serial().with_zone_pruning(false)).unwrap();
    assert_eq!(pruned.rows(), unpruned.rows());
    assert_eq!(unpruned.stats().blocks_pruned, 0);
    assert_eq!(
        pruned.stats().blocks_scanned + pruned.stats().blocks_pruned,
        unpruned.stats().blocks_scanned
    );
}

/// `aqp_kernel_dispatch_total` ticks once per `Aggregate`, labelled by the
/// path its fold took, and never for a filter alone: a filtered
/// join-aggregate is one `kernel` tick (not a second one for the filter
/// pushed below the join), a two-column-key aggregate over a filtered scan
/// one `fallback` tick (and no `kernel` one for its filter). Each run
/// records into a registry of its own, so no other test's runs count.
#[test]
fn one_dispatch_tick_per_aggregate() {
    let xs: Vec<i64> = (0..20_000).map(|i| (i * 7919) % 100_000 - 50_000).collect();
    let c = catalog_from(&xs, 128, 23);
    let mut dim = TableBuilder::new(
        "d",
        Schema::new(vec![
            Field::new("dk", DataType::Int64),
            Field::new("w", DataType::Float64),
        ]),
    );
    for k in 0..23i64 {
        dim.push_row(&[Value::Int64(k), Value::Float64(k as f64 * 0.5)])
            .unwrap();
    }
    c.register(dim.finish()).unwrap();
    let ticks = |plan: LogicalPlan| {
        let registry = Arc::new(MetricsRegistry::new());
        scoped(&registry, || {
            execute_with(&plan, &c, ExecOptions::serial()).unwrap()
        });
        [
            names::KERNEL_DISPATCH_KERNEL,
            names::KERNEL_DISPATCH_FALLBACK,
        ]
        .map(|path| {
            registry
                .counter_labeled(
                    names::KERNEL_DISPATCH_TOTAL,
                    names::KERNEL_DISPATCH_LABEL,
                    path,
                )
                .get()
        })
    };
    let join_agg = Query::scan("t")
        .join(Query::scan("d"), col("k"), col("dk"))
        .filter(col("s").lt(lit(10.0)))
        .aggregate(vec![], vec![AggExpr::sum(col("w"), "sw")])
        .build();
    assert_eq!(
        ticks(join_agg),
        [1, 0],
        "filtered join-aggregate: [kernel, fallback]"
    );
    let two_keys = Query::scan("t")
        .filter(col("s").lt(lit(10.0)))
        .aggregate(
            vec![
                (col("k"), "k".to_string()),
                (col("k").modulo(lit(2i64)), "m".to_string()),
            ],
            vec![AggExpr::sum(col("v"), "sv")],
        )
        .build();
    assert_eq!(
        ticks(two_keys),
        [0, 1],
        "two-column key: [kernel, fallback]"
    );
    let filter_only = Query::scan("t").filter(col("s").lt(lit(10.0))).build();
    assert_eq!(
        ticks(filter_only),
        [0, 0],
        "no aggregate: [kernel, fallback]"
    );
}
