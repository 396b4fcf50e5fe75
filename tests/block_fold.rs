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

use aqp_core::evaluator::StarEvaluator;
use aqp_core::{
    AggQuery, AggSpec, ApproximateAnswer, AqpSession, AuditConfig, ErrorSpec, ExecutionPath,
    JoinSpec, LinearAgg, OnlineAqp, OnlineConfig, SessionConfig, TechniqueKind,
};
use aqp_engine::agg::KeyAtom;
use aqp_engine::{execute, AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit, Expr};
use aqp_storage::{Catalog, DataType, Field, Schema, Table, TableBuilder, Value};
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
                let got = ev.block_totals(block).unwrap();
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

/// Captured at commit c1eaf82 (the parent of the change that moved the
/// sampled path onto the block fold) with this file's `golden_cases` and
/// `answer_bits`, `OnlineConfig { threads: 1, .. }`.
const GOLDEN_BITS: [&[u64]; 4] = [
    &[
        0x3fba_41a4_1a41_a41a,
        0x419e_7216_798c_8886,
        0x4275_e284_b67c_1ae7,
    ],
    &[
        0x3fc4_3500_13eb_d09e,
        0x411f_beb4_00d3_4bd6,
        0x4189_d804_bdf2_5e81,
        0x40e9_1153_c5b9_3c5c,
        0x4107_7140_95b9_04e7,
        0x4110_f4f1_1f55_cfdf,
        0x4174_e17d_c707_b15b,
        0x40d9_0ef1_6e4f_16e5,
        0x40f6_30d4_97cc_7b6b,
        0x4109_9fe8_306a_a12c,
        0x4177_10b7_13f1_41b3,
        0x40d0_f981_0a68_10a6,
        0x40f3_590c_ace8_e162,
        0x4105_04ce_62c6_18ec,
        0x4173_9b8c_2657_282a,
        0x40c9_b43e_7063_e706,
        0x40ee_ad3f_d5d1_6dde,
        0x4101_1783_165e_3ab7,
        0x4172_6b64_279d_8a21,
        0x40c3_e489_5da8_95da,
        0x40e7_7544_0e84_4506,
        0x40fc_e99a_4136_390d,
        0x416f_bc35_555e_1742,
        0x40c0_5106_3e70_63e7,
        0x40e3_4b67_4569_06b4,
        0x40fd_b166_287f_92b4,
        0x4176_2a1f_5b63_3964,
        0x40bd_c08d_8748_d875,
        0x40e3_d0a7_562b_5e16,
        0x40fa_bd42_938b_cfba,
        0x4174_af0d_aa64_73cf,
        0x40b9_9474_8d87_48d8,
        0x40e3_e6a4_186e_91e6,
        0x40f8_5ad7_2633_8d20,
        0x4173_43ff_af2c_4752,
        0x40b5_ae4a_ed44_aed4,
        0x40e1_7409_6731_2be6,
        0x40f6_417b_1cce_a95d,
        0x4170_6db5_986c_a010,
        0x40b3_4597_ef59_7ef5,
        0x40d7_6aef_6efa_3b45,
        0x40f6_7c3d_699b_2155,
        0x4170_c469_93a9_25df,
        0x40b2_ec95_da89_5da9,
        0x40d8_edc5_d9d4_b539,
        0x40f6_c7c6_ab97_62d9,
        0x4172_38e8_b349_b51c,
        0x40b1_a857_6a25_76a2,
        0x40d4_f696_03a7_3edb,
    ],
    &[
        0x3fbd_91ab_c190_9ac8,
        0x4195_0b43_beba_c0ff,
        0x4286_5c4c_0dda_bfaa,
        0x4193_c63e_8cb8_1477,
        0x4283_52a5_ee74_4633,
        0x4194_00c2_82d2_3849,
        0x4284_36f6_6760_7ad7,
    ],
    &[
        0x3fae_f962_b57d_2a36,
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
