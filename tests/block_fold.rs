//! The sampled paths fold blocks with the engine's own fold
//! (`aqp_engine::BlockFold` behind `aqp_core::evaluator::StarEvaluator`),
//! so the oracle for a sampled block's per-group `(f, g)` totals is the
//! exact engine itself: `execute(AggQuery::to_plan())` over a catalog whose
//! fact table is that one block. Counts and sums must agree bit-for-bit —
//! with NULL keys and measures, INT64 / FLOAT64 / STR and two-column group
//! keys (the typed kernel takes INT64 and STR, the scalar path the rest), and
//! one- and two-dimension joins with NULL, dangling and
//! dimension-predicate-filtered rows.
//!
//! The second half pins "same bits" across the change of fold: four
//! `(plan, spec, seed)` answers whose value and variance bit patterns were
//! captured from the row-at-a-time evaluator this fold replaced. The last
//! test pins the answer's group *keys*: they come back in the group-by
//! expression's type, as the exact engine emits them.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use aqp_core::evaluator::{SampledTotals, StarEvaluator};
use aqp_core::{
    AggQuery, AggSpec, ApproximateAnswer, AqpSession, AuditConfig, ErrorSpec, ExecutionPath,
    JoinSpec, LinearAgg, OnlineAqp, OnlineConfig, SessionConfig, TechniqueKind,
};
use aqp_engine::agg::{AggFunc, AggState, KeyAtom};
use aqp_engine::{execute, AggExpr, AggStep, LogicalPlan, Query, UnitTotals};
use aqp_expr::{col, lit, Expr};
use aqp_storage::{Block, Catalog, DataType, Field, Schema, Table, TableBuilder, Value};
use aqp_workload::{build_star_schema, skewed_table, StarScale};

/// splitmix64: the generated tables' only source of variation.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const DIM_KEYS: i64 = 6;

/// `fact(ki, kf, ks, x, n, fk1, fk2)` in `rows`-row blocks, plus
/// `d1(d1_key, d1_w, d1_s)` and `d2(d2_key, d2_w)`. Every fact column but
/// `n` carries NULLs; FKs range two past the dimension keys (dangling).
/// `x` has fractional values, so float sums are order-sensitive and a
/// different row order would show in the bits.
fn catalog_from(seed: u64, rows: usize, blocks: usize) -> Catalog {
    let mut s = seed;
    let fact_schema = Schema::new(vec![
        Field::nullable("ki", DataType::Int64),
        Field::nullable("kf", DataType::Float64),
        Field::nullable("ks", DataType::Str),
        Field::nullable("x", DataType::Float64),
        Field::new("n", DataType::Int64),
        Field::nullable("fk1", DataType::Int64),
        Field::nullable("fk2", DataType::Int64),
    ]);
    let mut fact = TableBuilder::with_block_capacity("fact", fact_schema, rows);
    let nullable = |s: &mut u64, v: Value| if next(s) % 9 == 8 { Value::Null } else { v };
    for _ in 0..rows * blocks {
        let r = next(&mut s);
        let row = [
            nullable(&mut s, Value::Int64((r % 5) as i64 - 2)),
            nullable(&mut s, Value::Float64(((r >> 8) % 4) as f64 * 0.5)),
            nullable(&mut s, Value::str(["a", "b", "c"][(r >> 16) as usize % 3])),
            nullable(
                &mut s,
                Value::Float64(((r >> 24) % 2001) as f64 * 0.173 - 150.0),
            ),
            Value::Int64(((r >> 40) % 100) as i64 - 50),
            nullable(
                &mut s,
                Value::Int64(((r >> 48) % (DIM_KEYS as u64 + 2)) as i64),
            ),
            nullable(
                &mut s,
                Value::Int64(((r >> 56) % (DIM_KEYS as u64 + 2)) as i64),
            ),
        ];
        fact.push_row(&row).unwrap();
    }
    let d1_schema = Schema::new(vec![
        Field::new("d1_key", DataType::Int64),
        Field::new("d1_w", DataType::Float64),
        Field::new("d1_s", DataType::Str),
    ]);
    let mut d1 = TableBuilder::with_block_capacity("d1", d1_schema, 4);
    let d2_schema = Schema::new(vec![
        Field::new("d2_key", DataType::Int64),
        Field::new("d2_w", DataType::Int64),
    ]);
    let mut d2 = TableBuilder::with_block_capacity("d2", d2_schema, 4);
    for k in 0..DIM_KEYS {
        d1.push_row(&[
            Value::Int64(k),
            Value::Float64(k as f64 * 1.5),
            Value::str(if k % 2 == 0 { "even" } else { "odd" }),
        ])
        .unwrap();
        d2.push_row(&[Value::Int64(k), Value::Int64(k % 3)])
            .unwrap();
    }
    let c = Catalog::new();
    c.register(fact.finish()).unwrap();
    c.register(d1.finish()).unwrap();
    c.register(d2.finish()).unwrap();
    c
}

fn join(dim: &str, fact_key: &str, dim_key: &str) -> JoinSpec {
    JoinSpec {
        dim_table: dim.into(),
        fact_key: fact_key.into(),
        dim_key: dim_key.into(),
    }
}

/// `(joins, predicate, group keys, whether the fold must compile to the
/// typed kernel)`.
type Shape = (Vec<JoinSpec>, Option<Expr>, Vec<Expr>, bool);

/// The query shapes under test. The aggregates are always `SUM(x)`,
/// `COUNT(*)`, `AVG(x)`, `SUM(n)`.
fn shapes() -> Vec<Shape> {
    let d1 = || join("d1", "fk1", "d1_key");
    let d2 = || join("d2", "fk2", "d2_key");
    vec![
        // Typed kernel: ungrouped, INT64-keyed with a numeric predicate,
        // and STR-keyed (on the dictionary code).
        (vec![], None, vec![], true),
        (vec![], Some(col("x").gt(lit(-20.0))), vec![col("ki")], true),
        (vec![], None, vec![col("ks")], true),
        // Scalar path: FLOAT64 and two-column keys.
        (vec![], Some(col("x").lt(lit(90.0))), vec![col("kf")], false),
        (
            vec![],
            Some(col("n").gt_eq(lit(-10i64))),
            vec![col("ki"), col("ks")],
            false,
        ),
        // One dimension: the joined block folds on the kernel (numeric
        // dimension predicate, INT64 fact key or STR dimension key) …
        (
            vec![d1()],
            Some(col("d1_w").gt(lit(2.0))),
            vec![col("ki")],
            true,
        ),
        (
            vec![d1()],
            Some(col("d1_w").gt(lit(2.0))),
            vec![col("d1_s")],
            true,
        ),
        // … and on the scalar path (STR dimension predicate).
        (
            vec![d1()],
            Some(col("d1_s").eq(lit("even"))),
            vec![col("d1_s")],
            false,
        ),
        // Two dimensions, predicate across both, key from the second.
        (
            vec![d1(), d2()],
            Some(col("d1_w").lt(lit(7.0)).and(col("x").gt(lit(-100.0)))),
            vec![col("d2_w")],
            true,
        ),
        (vec![d1(), d2()], None, vec![col("d1_s"), col("ki")], false),
    ]
}

fn query(joins: Vec<JoinSpec>, predicate: Option<Expr>, keys: Vec<Expr>) -> AggQuery {
    let agg = |kind, expr: Expr, alias: &str| AggSpec {
        kind,
        expr,
        alias: alias.into(),
    };
    AggQuery {
        fact_table: "fact".into(),
        joins,
        predicate,
        group_by: keys
            .into_iter()
            .enumerate()
            .map(|(i, e)| (e, format!("g{i}")))
            .collect(),
        aggregates: vec![
            agg(LinearAgg::Sum, col("x"), "sx"),
            agg(LinearAgg::CountStar, lit(1i64), "cnt"),
            agg(LinearAgg::Avg, col("x"), "ax"),
            agg(LinearAgg::Sum, col("n"), "sn"),
        ],
    }
}

fn f64_bits(v: &Value) -> Option<u64> {
    v.as_f64().map(f64::to_bits)
}

/// A unit's `(f, g)` totals for one linear aggregate, as the estimators
/// read them off its state: SUM is `(Σx, 0)`, COUNT `(n, 0)`, AVG
/// `(Σx, n)`.
fn pair(state: &AggState) -> (f64, f64) {
    match *state {
        AggState::CountStar(n) => (n as f64, 0.0),
        AggState::Sum { sum, .. } => (sum, 0.0),
        AggState::Avg { sum, count } => (sum, count as f64),
        ref other => panic!("not a linear aggregate: {other:?}"),
    }
}

/// One group's key and per-aggregate `(f, g)` totals within one block.
type GroupPairs = (Vec<KeyAtom>, Vec<(f64, f64)>);

/// `block` folded as a one-block sample: each group's key and `(f, g)`
/// totals.
fn unit_pairs(step: &AggStep, block: &Arc<Block>) -> Vec<GroupPairs> {
    let morsels = step.fold_units(std::slice::from_ref(block), 1).unwrap();
    let [morsel] = &morsels[..] else {
        panic!("one morsel, got {}", morsels.len())
    };
    (morsel.cells())
        .map(|(_, g, totals)| (morsel.keys[g].clone(), totals.to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every block's per-group `(f, g)` totals equal what the exact engine
    /// computes for that block alone.
    #[test]
    fn block_totals_match_exact_engine_on_one_block_tables(
        seed in any::<u64>(),
        rows in 1usize..160,
    ) {
        let blocks = 3;
        let c = catalog_from(seed, rows, blocks);
        let fact = c.get("fact").unwrap();
        for (si, (joins, predicate, keys, kernel)) in shapes().into_iter().enumerate() {
            let q = query(joins, predicate, keys);
            let nkeys = q.group_by.len();
            let ev = StarEvaluator::new(&c, &q).unwrap();
            prop_assert_eq!(ev.fold().is_kernel(), kernel, "shape {} fold variant", si);
            let step = AggStep::compile(&q.to_plan(), &c).unwrap();
            for (bi, block) in fact.iter_blocks() {
                // The oracle's catalog: the same dimensions, and a fact
                // table holding this block only.
                let one = Catalog::new();
                let blocks = vec![Arc::clone(block)];
                one.register(Table::from_blocks("fact", Arc::clone(fact.schema()), blocks, rows))
                    .unwrap();
                one.register((*c.get("d1").unwrap()).clone()).unwrap();
                one.register((*c.get("d2").unwrap()).clone()).unwrap();
                let exact: HashMap<Vec<KeyAtom>, Vec<Value>> = execute(&q.to_plan(), &one)
                    .unwrap()
                    .rows()
                    .into_iter()
                    .map(|row| {
                        let key = row[..nkeys].iter().map(KeyAtom::from_value).collect();
                        (key, row[nkeys..].to_vec())
                    })
                    .collect();
                let got = unit_pairs(&step, block);
                let tag = format!("shape {si} block {bi}");
                // The engine emits one all-NULL row for an ungrouped
                // aggregate over nothing; the fold reports no group.
                let exact_groups = if nkeys == 0 && exact[&vec![]][1] == Value::Int64(0) {
                    0
                } else {
                    exact.len()
                };
                prop_assert_eq!(got.len(), exact_groups, "group count, {}", &tag);
                for (key, pairs) in got {
                    let want = exact.get(&key);
                    prop_assert!(want.is_some(), "{}: group {:?} not in exact", &tag, &key);
                    let want = want.unwrap();
                    let [(sx, z0), (cnt, z1), (ax_f, ax_g), (sn, z3)] = pairs[..] else {
                        panic!("four aggregates");
                    };
                    prop_assert_eq!([z0, z1, z3], [0.0; 3], "{}", &tag);
                    // SUM: bit-equal, or 0.0 where SQL says NULL (no
                    // non-NULL input).
                    prop_assert_eq!(sx.to_bits(), f64_bits(&want[0]).unwrap_or(0), "SUM(x) {}", &tag);
                    prop_assert_eq!(sn.to_bits(), f64_bits(&want[3]).unwrap_or(0), "SUM(n) {}", &tag);
                    prop_assert_eq!(&Value::Int64(cnt as i64), &want[1], "COUNT(*) {}", &tag);
                    // AVG carries SUM(x) over COUNT(x): same numerator
                    // bits as SUM(x), and their quotient is the engine's.
                    prop_assert_eq!(ax_f.to_bits(), sx.to_bits(), "AVG numerator {}", &tag);
                    let avg = (ax_g > 0.0).then(|| (ax_f / ax_g).to_bits());
                    prop_assert_eq!(avg, f64_bits(&want[2]), "AVG(x) {}", &tag);
                }
            }
        }
    }
}

/// [`catalog_from`] with a 40-block fact table whose blocks alternate
/// between two builders (two seeds), so a STR column's blocks carry two
/// dictionaries.
fn two_dictionary_catalog(seed: u64, rows: usize) -> Catalog {
    let (a, b) = (catalog_from(seed, rows, 20), catalog_from(!seed, rows, 20));
    let (fa, fb) = (a.get("fact").unwrap(), b.get("fact").unwrap());
    let mixed: Vec<Arc<Block>> = (0..40)
        .map(|i| Arc::clone([&fa, &fb][i % 2].block(i / 2)))
        .collect();
    a.replace(Table::from_blocks(
        "fact",
        Arc::clone(fa.schema()),
        mixed,
        rows,
    ));
    a
}

/// The shapes the morsel fold is checked on, one per partial kind.
fn morsel_shapes() -> Vec<Shape> {
    let d1 = || join("d1", "fk1", "d1_key");
    vec![
        // Global, with whole blocks that select nothing.
        (vec![], Some(col("n").gt(lit(35i64))), vec![], true),
        // Grouped on a nullable INT64 key, over NULL measures.
        (vec![], Some(col("x").gt(lit(-20.0))), vec![col("ki")], true),
        // Coded: a nullable STR key over two dictionaries.
        (vec![], None, vec![col("ks")], true),
        // Scalar, keyed: a FLOAT64 key with sparse rows, two columns.
        (
            vec![],
            Some(col("n").gt(lit(25i64))),
            vec![col("kf")],
            false,
        ),
        (vec![], None, vec![col("ki"), col("ks")], false),
        // A star join: a dimension STR key on the kernel, a fact key
        // under a STR dimension predicate on the scalar path.
        (
            vec![d1()],
            Some(col("d1_w").gt(lit(2.0))),
            vec![col("d1_s")],
            true,
        ),
        (
            vec![d1()],
            Some(col("d1_s").eq(lit("odd"))),
            vec![col("ki")],
            false,
        ),
        // No row of any block qualifies.
        (vec![], Some(col("x").gt(lit(1e6))), vec![col("ki")], true),
    ]
}

/// A unit's `(f, g)` totals in bits.
fn pair_bits(&(f, g): &(f64, f64)) -> String {
    format!("{:016x} {:016x}", f.to_bits(), g.to_bits())
}

/// Every cell of a folded sample — its unit, key and totals in bits —
/// sorted.
fn cell_bits(morsels: &[UnitTotals]) -> Vec<(usize, String, Vec<String>)> {
    let mut out: Vec<_> = (morsels.iter())
        .flat_map(|m| {
            m.cells().map(move |(unit, g, states)| {
                let states = states.iter().map(pair_bits).collect();
                (unit, format!("{:?}", m.keys[g]), states)
            })
        })
        .collect();
    out.sort();
    out
}

/// The reference for one block: the `(f, g)` totals of the states a fresh
/// partial folding it alone holds, per group, in bits — read off the
/// exact engine run over a fact table of that block alone. Beside `query`'s `SUM(x)`, `COUNT(*)`,
/// `SUM(n)` it asks for `COUNT(x)`, so `AVG(x)`'s `(Σx, n)` state can be
/// rebuilt; a group appears only if a row of the block qualified for it.
fn fresh_partial_bits(c: &Catalog, q: &AggQuery, block: &Arc<Block>) -> Vec<(String, Vec<String>)> {
    let one = Catalog::new();
    let fact = c.get("fact").unwrap();
    let blocks = vec![Arc::clone(block)];
    one.register(Table::from_blocks(
        "fact",
        Arc::clone(fact.schema()),
        blocks,
        block.len(),
    ))
    .unwrap();
    one.register((*c.get("d1").unwrap()).clone()).unwrap();
    one.register((*c.get("d2").unwrap()).clone()).unwrap();
    let LogicalPlan::Aggregate {
        input, group_by, ..
    } = q.to_plan()
    else {
        panic!("a star query plans as an aggregate");
    };
    let nkeys = group_by.len();
    let plan = LogicalPlan::Aggregate {
        input,
        group_by,
        aggregates: vec![
            AggExpr::sum(col("x"), "sx"),
            AggExpr::count_star("cnt"),
            AggExpr::new(AggFunc::Count, col("x"), "nx"),
            AggExpr::sum(col("n"), "sn"),
        ],
    };
    let sum = |v: &Value| AggState::Sum {
        sum: v.as_f64().unwrap_or(0.0),
        saw: !v.is_null(),
    };
    let int = |v: &Value| match *v {
        Value::Int64(n) => n as u64,
        ref other => panic!("a count, got {other:?}"),
    };
    let mut out: Vec<_> = (execute(&plan, &one).unwrap().rows().into_iter())
        .filter(|row| nkeys > 0 || int(&row[1]) > 0)
        .map(|row| {
            let key: Vec<KeyAtom> = row[..nkeys].iter().map(KeyAtom::from_value).collect();
            let [sx, cnt, nx, sn] = &row[nkeys..] else {
                panic!("four aggregates")
            };
            let avg = AggState::Avg {
                sum: sx.as_f64().unwrap_or(0.0),
                count: int(nx),
            };
            let states = [sum(sx), AggState::CountStar(int(cnt)), avg, sum(sn)];
            (
                format!("{key:?}"),
                states.iter().map(|s| pair_bits(&pair(s))).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Estimates in bits, sorted by key.
fn estimate_bits(raw: Vec<(Vec<Value>, Vec<aqp_stats::Estimate>)>) -> Vec<(String, Vec<u64>)> {
    let mut out: Vec<_> = (raw.into_iter())
        .map(|(key, es)| {
            let bits = es
                .iter()
                .flat_map(|e| [e.value.to_bits(), e.variance.to_bits()]);
            (format!("{key:?}"), bits.collect())
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A sample folded in morsels — one partial per morsel, flushed after
    /// each block — holds, at every thread count, the bits of a fresh
    /// partial per block: every (unit, group) cell (against the exact
    /// engine run on each block alone), and every estimate (against the
    /// same blocks added one at a time).
    #[test]
    fn morsel_fold_matches_a_fresh_partial_per_block(
        seed in any::<u64>(),
        rows in 1usize..12,
    ) {
        let c = two_dictionary_catalog(seed, rows);
        let fact = c.get("fact").unwrap();
        for (si, (joins, predicate, keys, kernel)) in morsel_shapes().into_iter().enumerate() {
            let q = query(joins, predicate, keys);
            let step = AggStep::compile(&q.to_plan(), &c).unwrap();
            prop_assert_eq!(step.fold().is_kernel(), kernel, "shape {} fold variant", si);
            let ev = StarEvaluator::new(&c, &q).unwrap();
            let fresh: Vec<_> = (0..40).map(|bi| fresh_partial_bits(&c, &q, fact.block(bi))).collect();
            for len in [1usize, 15, 16, 17, 33] {
                // `len` distinct blocks, in an order of their own.
                let start = (seed % 40) as usize;
                let picks: Vec<usize> = (0..len).map(|i| (start + 7 * i) % 40).collect();
                let sample: Vec<Arc<Block>> = picks.iter().map(|&bi| Arc::clone(fact.block(bi))).collect();
                let mut want_cells: Vec<_> = (picks.iter().enumerate())
                    .flat_map(|(u, &bi)| fresh[bi].iter().map(move |(k, st)| (u, k.clone(), st.clone())))
                    .collect();
                want_cells.sort();
                // The same blocks added to the totals one at a time.
                let mut reference = SampledTotals::new(&ev);
                for b in &sample {
                    reference.fold(&ev, std::slice::from_ref(b), 1).unwrap();
                }
                let want = estimate_bits(reference.estimates(&ev));
                for threads in [1, 2, 4] {
                    let tag = format!("shape {si}, {len} blocks, {threads} threads");
                    let morsels = step.fold_units(&sample, threads).unwrap();
                    prop_assert_eq!(morsels.len(), len.div_ceil(16), "{}", &tag);
                    let units: usize = morsels.iter().map(|m| m.units).sum();
                    prop_assert_eq!(units, len, "{}", &tag);
                    for m in &morsels {
                        let distinct: std::collections::HashSet<_> = m.keys.iter().collect();
                        prop_assert_eq!(distinct.len(), m.keys.len(), "{}: a key named twice", &tag);
                    }
                    prop_assert_eq!(&cell_bits(&morsels), &want_cells, "cells, {}", &tag);
                    let mut totals = SampledTotals::new(&ev);
                    totals.fold(&ev, &sample, threads).unwrap();
                    prop_assert_eq!(totals.blocks(), len as u64, "{}", &tag);
                    prop_assert_eq!(estimate_bits(totals.estimates(&ev)), want.clone(), "estimates, {}", &tag);
                }
            }
        }
    }
}

/// `n(k, v)`: nullable INT64 key (NULL every 13th row), nullable FLOAT64
/// measure (NULL every 7th row), 128-row blocks.
fn null_table() -> Catalog {
    let schema = Schema::new(vec![
        Field::nullable("k", DataType::Int64),
        Field::nullable("v", DataType::Float64),
    ]);
    let mut t = TableBuilder::with_block_capacity("n", schema, 128);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..60_000usize {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = if i % 13 == 4 {
            Value::Null
        } else {
            Value::Int64(((x >> 40) % 5) as i64)
        };
        let v = if i % 7 == 2 {
            Value::Null
        } else {
            Value::Float64(((x >> 20) % 10_000) as f64 * 0.37 - 900.0)
        };
        t.push_row(&[k, v]).unwrap();
    }
    let c = Catalog::new();
    c.register(t.finish()).unwrap();
    c
}

/// The four golden cases. `AVG` with NULLs carries a `COUNT(*)` so that
/// the evaluator's old `blocks_seen` over-count (a group whose first rows
/// in a block contribute `(0, 0)` was sealed more than once; fixed with
/// the fold and pinned by `online::tests::blocks_seen_counts_each_block_once`)
/// cannot reach the planned rate: the goldens pin what must *not* change.
fn golden_cases() -> Vec<(&'static str, Catalog, LogicalPlan, ErrorSpec, u64)> {
    let star = || {
        let c = Catalog::new();
        build_star_schema(&c, &StarScale::small(), 11).unwrap();
        c
    };
    let skew = Catalog::new();
    skew.register(skewed_table("t", 200_000, 12, 1.0, 256, 13))
        .unwrap();
    vec![
        (
            "ungrouped",
            star(),
            Query::scan("lineitem")
                .filter(col("l_sel").lt(lit(0.5)))
                .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "s")])
                .build(),
            ErrorSpec::new(0.05, 0.95),
            3,
        ),
        (
            "group-by-g",
            skew,
            Query::scan("t")
                .filter(col("sel").lt(lit(0.8)))
                .aggregate(
                    vec![(col("g"), "g".to_string())],
                    vec![AggExpr::sum(col("v"), "s"), AggExpr::count_star("n")],
                )
                .build(),
            ErrorSpec::new(0.15, 0.9),
            5,
        ),
        (
            "join-group-by-priority",
            star(),
            Query::scan("lineitem")
                .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
                .aggregate(
                    vec![(col("o_priority"), "o_priority".to_string())],
                    vec![AggExpr::sum(col("l_price"), "rev")],
                )
                .build(),
            ErrorSpec::new(0.05, 0.9),
            7,
        ),
        (
            "avg-with-nulls",
            null_table(),
            Query::scan("n")
                .aggregate(
                    vec![(col("k"), "k".to_string())],
                    vec![AggExpr::avg(col("v"), "a"), AggExpr::count_star("n")],
                )
                .build(),
            ErrorSpec::new(0.2, 0.9),
            9,
        ),
    ]
}

/// The answer as bit patterns: the planned final rate, then per group (in
/// answer order) and aggregate the estimate's value and variance.
fn answer_bits(ans: &ApproximateAnswer) -> Vec<u64> {
    let ExecutionPath::OnlineBlockSample { final_rate, .. } = ans.report.path else {
        panic!(
            "golden case must be answered by sampling, got {:?}",
            ans.report.path
        );
    };
    let mut bits = vec![final_rate.to_bits()];
    for g in &ans.groups {
        for e in &g.estimates {
            bits.push(e.value.to_bits());
            bits.push(e.variance.to_bits());
        }
    }
    bits
}

/// Captured with this file's `golden_cases` and `answer_bits`,
/// `OnlineConfig { threads: 1, .. }`. The ungrouped row dates from commit
/// c1eaf82 (the parent of the change that moved the sampled path onto the
/// block fold). The three grouped rows were re-derived when grouped queries
/// stopped piloting at the rate cap: their pilot now starts at 30 blocks,
/// like the ungrouped one, so they plan a different final rate.
const GOLDEN_BITS: [&[u64]; 4] = [
    &[
        0x3fba_41a4_1a41_a41a,
        0x419e_7216_798c_8886,
        0x4275_e284_b67c_1ae7,
    ],
    &[
        0x3fc6_4dd3_693a_4805,
        0x411f_a537_dbeb_8e3c,
        0x4187_4eb4_f3ab_11c6,
        0x40e9_28b8_0000_0000,
        0x4105_94c1_8d46_29bf,
        0x4110_e46f_4ff0_6a02,
        0x4172_80f8_008f_3d02,
        0x40d8_ee80_0000_0000,
        0x40f4_9dc9_5ceb_23ee,
        0x4109_2cdb_d110_3329,
        0x4174_d10a_1089_2634,
        0x40d0_d2c0_0000_0000,
        0x40f1_322b_05b0_5b02,
        0x4104_ab08_f329_0ef9,
        0x4171_267b_533f_ce3a,
        0x40c9_7e40_0000_0000,
        0x40eb_fc45_6480_f2bb,
        0x4101_2d27_5f8f_52e6,
        0x416f_fc51_e678_43a5,
        0x40c4_1480_0000_0000,
        0x40e5_292e_7592_03ce,
        0x40fd_4465_fb51_4e33,
        0x416f_3c83_e7df_b134,
        0x40c0_8520_0000_0000,
        0x40e2_9293_3e93_e940,
        0x40fd_6491_085d_78eb,
        0x4173_3bcf_d133_7e99,
        0x40bd_d400_0000_0001,
        0x40e1_78c6_a314_dbf7,
        0x40fa_d8c2_8e5c_c135,
        0x4173_a2ad_e3a9_a2ae,
        0x40b9_a680_0000_0000,
        0x40e1_d961_9999_999d,
        0x40f8_16ee_ed68_6b83,
        0x4170_82bc_d432_9dd2,
        0x40b5_b840_0000_0000,
        0x40de_2f29_5555_5553,
        0x40f6_e379_134d_0f52,
        0x416f_d72c_2bb8_1557,
        0x40b3_7940_0000_0000,
        0x40d6_acc4_1e57_3ac9,
        0x40f6_71f1_d54c_e2e3,
        0x416d_8314_b731_ec51,
        0x40b2_ccc0_0000_0000,
        0x40d5_6f89_5555_5556,
        0x40f6_d398_7af7_e210,
        0x416f_c6bd_affc_5196,
        0x40b1_a780_0000_0000,
        0x40d2_17ff_684b_da14,
    ],
    &[
        0x3fbc_c3b2_2caf_b06e,
        0x4194_ed41_ab7d_162b,
        0x4287_0331_6a30_5653,
        0x4193_eb2e_aa2b_208e,
        0x4282_c327_78a5_d53c,
        0x4193_e750_1488_b885,
        0x4285_1f90_d4c9_aa9d,
    ],
    &[
        0x3fae_a570_21a8_cd59,
        0x408b_6c05_9fa4_adea,
        0x40af_cc41_b70f_6a20,
        0x40b2_0123_4f72_c235,
        0x4090_6e6b_c1e7_0a2f,
        0x408d_9b9e_2ba5_7f48,
        0x4091_41ee_2322_cb0b,
        0x40c5_92e1_1a7b_9612,
        0x4101_c806_cf99_b8c3,
        0x408a_c6ab_851e_b851,
        0x409c_098d_6745_c5cb,
        0x40c5_d391_a7b9_611a,
        0x40fe_4965_d257_0edc,
        0x408f_0613_b60c_5f33,
        0x40a7_f5bd_6417_b8b0,
        0x40c5_92e1_1a7b_9612,
        0x40ff_186e_b9af_0799,
        0x4090_00ff_726c_8970,
        0x409f_48be_5033_5fc7,
        0x40c5_4a1a_7b96_11a8,
        0x40fb_2212_570e_ea71,
        0x408f_be8a_4858_30ab,
        0x409a_1d60_c699_22cf,
        0x40c5_fc00_0000_0000,
        0x4100_810b_08d3_dcb1,
    ],
];

#[test]
fn online_answers_keep_their_parent_commit_bits() {
    for ((name, c, plan, spec, seed), want) in golden_cases().into_iter().zip(GOLDEN_BITS) {
        for threads in [1usize, 4] {
            let aqp = OnlineAqp::new(
                &c,
                OnlineConfig {
                    threads,
                    ..OnlineConfig::default()
                },
            );
            let ans = aqp.answer_plan(&plan, &spec, seed).unwrap();
            assert_eq!(answer_bits(&ans), want, "{name} at threads={threads}");
        }
    }
}

/// A FLOAT64 group key whose values are integral canonicalizes to
/// `KeyAtom::Int` inside the fold. The answer must still carry `Float64`
/// keys — what the exact engine emits — or every lookup by exact key
/// (`ApproximateAnswer::group`, the auditor) misses the group.
#[test]
fn float_keys_come_back_as_the_exact_engine_emits_them() {
    let schema = Schema::new(vec![
        Field::nullable("g", DataType::Float64),
        Field::new("x", DataType::Float64),
    ]);
    let mut t = TableBuilder::with_block_capacity("f", schema, 64);
    for i in 0..40_000usize {
        let g = match i % 5 {
            0 => Value::Float64(-0.0),
            1 => Value::Float64(1.0),
            2 => Value::Float64(2.0),
            3 => Value::Float64(2.5),
            _ => Value::Null,
        };
        t.push_row(&[g, Value::Float64(1.0 + (i % 11) as f64)])
            .unwrap();
    }
    let c = Catalog::new();
    c.register(t.finish()).unwrap();
    let plan = Query::scan("f")
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("x"), "s")],
        )
        .build();
    let spec = ErrorSpec::new(0.1, 0.9);
    let exact = execute(&plan, &c).unwrap().rows();
    assert_eq!(exact.len(), 5);

    let ans = OnlineAqp::new(&c, OnlineConfig::default())
        .answer_plan(&plan, &spec, 3)
        .unwrap();
    assert!(matches!(
        ans.report.path,
        ExecutionPath::OnlineBlockSample { .. }
    ));
    assert_eq!(ans.groups.len(), exact.len());
    for row in &exact {
        assert!(ans.group(&row[..1]).is_some(), "no group for {:?}", row[0]);
    }

    let config = SessionConfig {
        audit: AuditConfig {
            rate: 1.0,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    let ans = AqpSession::with_config(&c, config)
        .answer(&plan, &spec, 3)
        .unwrap();
    let routing = ans.report.routing.as_ref().expect("routed");
    assert_eq!(routing.winner, TechniqueKind::OnlineSampling);
    let audit = ans.report.audit.expect("rate 1.0 audits everything");
    assert_eq!((audit.groups_checked, audit.groups_missing), (5, 0));
}
