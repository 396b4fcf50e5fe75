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
//! `aqp_kernel_dispatch_total` is pinned at one tick per aggregate.
//!
//! The last group tests the column-at-a-time fold itself against the
//! scalar fold, bit for bit: a proptest over blocks carrying NaN, ±0.0,
//! ±1e308, NULLs, zero divisors, every aggregate function and every key
//! shape, and pinned cases for signed-zero ties, a leading NaN, an empty
//! selection and a group map that grows in the middle of a block.

use std::sync::Arc;

use proptest::prelude::*;

use aqp_engine::{
    execute_with, AggExpr, AggFunc, BlockFold, ExecOptions, FoldAcc, LogicalPlan, Query,
};
use aqp_expr::{col, lit, Expr};
use aqp_mergeable::Partial;
use aqp_obs::metrics::{scoped, MetricsRegistry};
use aqp_obs::names;
use aqp_storage::{Block, Catalog, DataType, Field, Schema, Table, TableBuilder, Value};

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

/// A value with its float bits spelled out, so NaN, `-0.0` and `0.0`
/// compare by bits rather than by float equality.
fn bits(v: &Value) -> String {
    match v {
        Value::Float64(x) => format!("f{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Every row of a result, in bits.
fn row_bits(rows: Vec<Vec<Value>>) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(bits).collect()).collect()
}

/// Special floats the column-at-a-time loops must carry through exactly
/// as the scalar fold does.
const SPECIAL_F64: [f64; 6] = [f64::NAN, 0.0, -0.0, 1e308, -1e308, f64::INFINITY];

/// Table `r(p, i, j, x, y, k)` from generated rows, in `cap`-row blocks:
/// `p` the row number (the selector), `i` a nullable INT64 with extremes,
/// `j` an INT64 divisor with zeros, `x` a nullable FLOAT64 with NaN, ±0.0
/// and ±1e308, `y` a FLOAT64 divisor with ±0.0, and `k` a nullable STR
/// key. With `two_dicts` the halves come from two builders, so the table
/// holds two dictionaries whose codes disagree.
fn special_catalog(rows: &[(u8, i64, u8, u8, u64)], cap: usize, two_dicts: bool) -> Catalog {
    const KEYS: [&str; 4] = ["", "a", "β", "zz"];
    let schema = || {
        Schema::new(vec![
            Field::new("p", DataType::Int64),
            Field::nullable("i", DataType::Int64),
            Field::new("j", DataType::Int64),
            Field::nullable("x", DataType::Float64),
            Field::new("y", DataType::Float64),
            Field::nullable("k", DataType::Str),
        ])
    };
    let half = if two_dicts {
        rows.len().div_ceil(2)
    } else {
        rows.len()
    };
    let mut parts = rows.chunks(half.max(1)).enumerate().map(|(part, chunk)| {
        let mut t = TableBuilder::with_block_capacity("r", schema(), cap);
        for (at, &(sel, small, div, key, r)) in chunk.iter().enumerate() {
            let p = (part * half + at) as i64;
            let i = match sel % 8 {
                0 => Value::Null,
                1 => Value::Int64(i64::MAX),
                2 => Value::Int64(i64::MIN),
                _ => Value::Int64(small),
            };
            let x = match sel % 5 {
                0 => Value::Null,
                1 => Value::Float64(SPECIAL_F64[(r % 6) as usize]),
                _ => Value::Float64((r % 2001) as f64 * 0.173 - 150.0),
            };
            let y = [0.0, -0.0, 2.5, -3.0, 1e-308][(div % 5) as usize];
            let k = match key {
                0 => Value::Null,
                _ => Value::str(KEYS[(key as usize - 1) % KEYS.len()]),
            };
            let row = [
                Value::Int64(p),
                i,
                Value::Int64(i64::from(div % 3)),
                x,
                Value::Float64(y),
                k,
            ];
            t.push_row(&row).unwrap();
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

/// Every aggregate function over INT64 and FLOAT64 columns and over
/// `/ 0.0` and `% 0` arithmetic (NULL where the divisor is zero).
fn every_aggregate() -> Vec<AggExpr> {
    let inputs = [
        ("i", col("i")),
        ("x", col("x")),
        ("xy", col("x").div(col("y"))),
        ("ij", col("i").modulo(col("j"))),
    ];
    let mut aggs = vec![AggExpr::count_star("n")];
    for func in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::CountDistinct,
        AggFunc::VarSamp,
    ] {
        for (name, e) in &inputs {
            aggs.push(AggExpr::new(func, e.clone(), format!("{func}_{name}")));
        }
    }
    aggs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The column-at-a-time fold against the scalar fold on random
    /// blocks, bit for bit, at threads 1, 2 and 4: NULL measures and keys;
    /// NaN, ±0.0, ±1e308 and ∞; INT64, FLOAT64, `/ 0.0` and `% 0` inputs;
    /// every aggregate function; no key, an INT-expression key and a STR
    /// key over one or two dictionaries; and selections that are empty,
    /// full (proved all-true by the zone map) or alternating.
    #[test]
    fn column_fold_matches_scalar_fold_bitwise(
        rows in prop::collection::vec((0u8..40, -6i64..6, 0u8..15, 0u8..6, 0u64..1_000_000), 1..400),
        cap in 8usize..64,
        shape in 0u8..9,
    ) {
        let (selection, key) = (shape % 3, shape / 3);
        let c = special_catalog(&rows, cap, key == 2 && rows.len() > 1);
        let pred = match selection {
            0 => col("p").lt(lit(0i64)),
            1 => col("p").gt_eq(lit(0i64)),
            _ => col("p").modulo(lit(2i64)).eq(lit(0i64)),
        };
        let group_by = match key {
            0 => vec![],
            1 => vec![(col("i").modulo(lit(3i64)), "g".to_string())],
            _ => vec![(col("k"), "g".to_string())],
        };
        let aggs = every_aggregate();
        let schema = c.get("r").unwrap().schema().clone();
        prop_assert!(BlockFold::kernel(&[&pred], &group_by, &aggs, &schema).is_some());
        let plan = Query::scan("r").filter(pred).aggregate(group_by, aggs).build();
        let scalar = execute_with(
            &plan,
            &c,
            ExecOptions::serial().with_kernels(false).with_zone_pruning(false),
        )
        .unwrap();
        for threads in [1, 2, 4] {
            let kernel = execute_with(&plan, &c, ExecOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(
                row_bits(scalar.rows()),
                row_bits(kernel.rows()),
                "shape {} threads {}",
                shape,
                threads
            );
        }
    }
}

/// One block `(g, v)`: INT64 key `g`, nullable FLOAT64 measure `v`.
fn measure_block(rows: &[(i64, Option<f64>)]) -> Block {
    let schema = Arc::new(Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::nullable("v", DataType::Float64),
    ]));
    let mut b = Block::new(schema);
    for &(g, v) in rows {
        b.push_row(&[Value::Int64(g), v.map_or(Value::Null, Value::Float64)])
            .unwrap();
    }
    b
}

/// Folds `blocks` through the typed kernel (with a group-map `hint`) and
/// through the scalar fold; returns both partials' groups, finished, in
/// bits, sorted by key.
fn fold_both(
    blocks: &[&Block],
    predicates: &[&Expr],
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    hint: Option<usize>,
) -> [Vec<String>; 2] {
    let schema = blocks[0].schema();
    let kernel = BlockFold::kernel(predicates, group_by, aggs, schema).expect("kernel compiles");
    let scalar = BlockFold::new(predicates, group_by, aggs, schema, false);
    assert!(!scalar.is_kernel());
    [(kernel, hint), (scalar, None)].map(|(fold, hint)| {
        let mut acc = fold.new_acc(hint);
        for block in blocks {
            fold.fold(block, &mut acc, true, None).unwrap();
        }
        let mut groups: Vec<String> = (acc.into_groups().into_iter())
            .map(|(key, states)| {
                let finished: Vec<String> = states.iter().map(|s| bits(&s.finish())).collect();
                format!("{key:?} {finished:?}")
            })
            .collect();
        groups.sort();
        groups
    })
}

fn min_max() -> Vec<AggExpr> {
    vec![AggExpr::min(col("v"), "lo"), AggExpr::max(col("v"), "hi")]
}

/// MIN and MAX keep the first of equal values: `-0.0` then `0.0` leaves
/// `-0.0` in both, `0.0` then `-0.0` leaves `0.0`.
#[test]
fn min_max_keep_the_first_signed_zero() {
    for (first, second) in [(-0.0, 0.0), (0.0, -0.0)] {
        let b = measure_block(&[(1, Some(first)), (1, Some(second))]);
        let [kernel, scalar] = fold_both(&[&b], &[], &[], &min_max(), None);
        assert_eq!(kernel, scalar);
        let want = format!("f{:016x}", f64::to_bits(first));
        assert_eq!(kernel, [format!("[] [{want:?}, {want:?}]")]);
    }
}

/// A NaN that arrives first sticks in MIN and MAX (no comparison with NaN
/// wins); a NaN that arrives later is passed over.
#[test]
fn a_leading_nan_sticks_in_min_and_max() {
    let nan = format!("f{:016x}", f64::NAN.to_bits());
    let leading = measure_block(&[(1, Some(f64::NAN)), (1, Some(1.0)), (1, Some(-5.0))]);
    let [kernel, scalar] = fold_both(&[&leading], &[], &[], &min_max(), None);
    assert_eq!(kernel, scalar);
    assert_eq!(kernel, [format!("[] [{nan:?}, {nan:?}]")]);
    let later = measure_block(&[
        (1, None),
        (1, Some(1.0)),
        (1, Some(f64::NAN)),
        (1, Some(-5.0)),
    ]);
    let [kernel, scalar] = fold_both(&[&later], &[], &[], &min_max(), None);
    assert_eq!(kernel, scalar);
    let [lo, hi] = [-5.0f64, 1.0].map(|x| format!("f{:016x}", x.to_bits()));
    assert_eq!(kernel, [format!("[] [{lo:?}, {hi:?}]")]);
}

/// A block none of whose rows is selected leaves the partial untouched:
/// no group, and a STR-keyed partial keeps the dictionary it had (none,
/// or the first block's) rather than adopting the empty block's.
#[test]
fn an_empty_selection_leaves_the_partial_untouched() {
    let str_block = |keys: &[&str]| {
        let schema = Arc::new(Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("x", DataType::Int64),
        ]));
        let mut b = Block::new(schema);
        for (i, k) in keys.iter().enumerate() {
            b.push_row(&[Value::str(*k), Value::Int64(i as i64)])
                .unwrap();
        }
        b
    };
    let (first, other) = (str_block(&["p", "q"]), str_block(&["q", "r", "p"]));
    let key = [(col("s"), "s".to_string())];
    let aggs = [AggExpr::sum(col("x"), "sx")];
    let none = col("x").lt(lit(0i64));
    let fold = BlockFold::kernel(&[&none], &key, &aggs, first.schema()).unwrap();
    let mut acc = fold.new_acc(None);
    assert_eq!(fold.fold(&other, &mut acc, true, None).unwrap(), 0);
    let FoldAcc::Coded { groups, dict } = &acc else {
        panic!("a STR key folds on codes");
    };
    assert!(
        groups.is_empty() && dict.is_none(),
        "no group, no dictionary"
    );
    // After a block that selected rows, an empty one changes nothing.
    fold.fold(&first, &mut acc, false, None).unwrap();
    let FoldAcc::Coded { dict, .. } = &acc else {
        unreachable!()
    };
    let before = Arc::clone(dict.as_ref().expect("the first block's dictionary"));
    assert_eq!(fold.fold(&other, &mut acc, true, None).unwrap(), 0);
    let FoldAcc::Coded { groups, dict } = &acc else {
        unreachable!()
    };
    assert!(Arc::ptr_eq(dict.as_ref().unwrap(), &before));
    assert_eq!((groups.len(), before.len()), (2, 2));
}

/// A block whose new keys outgrow the group map's hint in the middle of
/// the block: the map grows between two rows of one pass and the groups
/// still equal the scalar fold's.
#[test]
fn a_block_grows_the_group_map_past_its_hint() {
    let rows: Vec<(i64, Option<f64>)> = (0..600)
        .map(|i| {
            (
                (i * 7919) % 300 - 150,
                (i % 9 != 4).then_some(i as f64 * 0.37),
            )
        })
        .collect();
    let b = measure_block(&rows);
    let key = [(col("g"), "g".to_string())];
    let aggs = vec![
        AggExpr::count_star("n"),
        AggExpr::sum(col("v"), "s"),
        AggExpr::min(col("v"), "lo"),
    ];
    let [kernel, scalar] = fold_both(&[&b], &[], &key, &aggs, Some(1));
    assert_eq!(kernel.len(), 300);
    assert_eq!(kernel, scalar);
    let fold = BlockFold::kernel(&[], &key, &aggs, b.schema()).unwrap();
    let mut acc = fold.new_acc(Some(1));
    fold.fold(&b, &mut acc, true, None).unwrap();
    let FoldAcc::Grouped(map) = acc else {
        panic!("an INT64 key folds into the i64 group map");
    };
    assert_eq!(map.len(), 300);
}
