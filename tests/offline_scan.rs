//! The synopsis scan (`aqp_core::offline`) against three oracles.
//!
//! 1. **Goldens**: five `OfflineStore::answer` results whose value and
//!    variance bit patterns were captured from the scan this one replaced
//!    (a row-at-a-time expression evaluator, then one
//!    `Sample::estimate_*_with` walk of the sample per group × aggregate).
//! 2. **Reference equivalence**: on generated stratified samples the scan
//!    equals `Sample::estimate_sum_with` / `estimate_avg_with`, the
//!    two-pass design estimators it shares its SRS algebra with.
//! 3. **Census differential**: with a budget of twice the table's rows
//!    every stratum is a census, so the offline family must return exactly
//!    the exact engine's groups with zero variance.
//!
//! Maintenance rides along: an append-only delta is folded into the
//! stored synopsis instead of a rebuild, and a table that shrank is
//! refused without touching anything.

use proptest::prelude::*;

use aqp_core::offline::scan;
use aqp_core::{
    AggQuery, AggSpec, ApproximateAnswer, AqpError, AqpSession, Attempt, AuditConfig, ErrorSpec,
    LinearAgg, OfflineStore, OfflineTechnique, SessionConfig, Technique,
};
use aqp_engine::execute;
use aqp_expr::{col, lit, Expr};
use aqp_mergeable::Partial;
use aqp_sampling::design::StratumMeta;
use aqp_sampling::{RowWeights, Sample, SampleDesign};
use aqp_stats::Estimate;
use aqp_storage::{Block, Catalog, DataType, Field, Schema, Table, TableBuilder, Value};
use aqp_workload::skewed_table;

/// splitmix64: the generated tables' only source of variation.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fact_schema() -> Schema {
    Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("ks", DataType::Str),
        Field::new("ki", DataType::Int64),
        Field::nullable("kf", DataType::Float64),
        Field::nullable("x", DataType::Float64),
        Field::nullable("sel", DataType::Float64),
    ])
}

/// `fact(g, ks, ki, kf, x, sel)`: `g` is the stratification column, seven
/// skewed groups (`g = 6` has a handful of rows, so a modest budget makes
/// it a census stratum); `kf` is a FLOAT64 key with integral and
/// non-integral values and NULLs; `x` and `sel` carry NULLs; `x` is
/// fractional, so float sums are order-sensitive.
fn fact_table(rows: usize, seed: u64) -> Table {
    let mut b = TableBuilder::with_block_capacity("fact", fact_schema(), 256);
    let mut s = seed;
    let nullable = |s: &mut u64, v: Value| if next(s) % 9 == 8 { Value::Null } else { v };
    for _ in 0..rows {
        let r = next(&mut s);
        let g = match r % 1000 {
            0..=449 => 0,
            450..=699 => 1,
            700..=849 => 2,
            850..=929 => 3,
            930..=979 => 4,
            980..=997 => 5,
            _ => 6,
        };
        let row = [
            Value::Int64(g),
            Value::str(["a", "b", "c"][(r >> 16) as usize % 3]),
            Value::Int64(((r >> 20) % 4) as i64),
            nullable(&mut s, Value::Float64(((r >> 24) % 4) as f64 * 0.5 + 1.0)),
            nullable(
                &mut s,
                Value::Float64(((r >> 32) % 2001) as f64 * 0.173 + 10.0 * g as f64),
            ),
            nullable(&mut s, Value::Float64(((r >> 44) % 1000) as f64 / 1000.0)),
        ];
        b.push_row(&row).unwrap();
    }
    b.finish()
}

/// Appends `rows` generated rows to `fact` in the catalog (prefix-stable,
/// so `Table::tail` sees only the delta).
fn append(c: &Catalog, rows: usize, seed: u64) {
    let mut extended = (*c.get("fact").unwrap()).clone();
    Partial::merge(&mut extended, &fact_table(rows, seed)).unwrap();
    c.replace(extended);
}

fn query(predicate: Option<Expr>, keys: &[&str], aggs: &[(LinearAgg, &str)]) -> AggQuery {
    AggQuery {
        fact_table: "fact".into(),
        joins: vec![],
        predicate,
        group_by: keys.iter().map(|k| (col(*k), k.to_string())).collect(),
        aggregates: aggs
            .iter()
            .map(|(kind, alias)| AggSpec {
                kind: *kind,
                expr: col("x"),
                alias: alias.to_string(),
            })
            .collect(),
    }
}

const SUM_AVG_COUNT: [(LinearAgg, &str); 3] = [
    (LinearAgg::Sum, "s"),
    (LinearAgg::Avg, "a"),
    (LinearAgg::CountStar, "c"),
];

/// The five pinned answers, built through the store's public API only.
fn golden_answers() -> Vec<(&'static str, ApproximateAnswer)> {
    let spec = ErrorSpec::new(0.1, 0.9);
    let mut out = Vec::new();

    let c = Catalog::new();
    c.register(fact_table(20_000, 11)).unwrap();
    let store = OfflineStore::with_threads(1);
    store.build_stratified(&c, "fact", "g", 2_000, 5).unwrap();
    // (a) grouped by the stratification column under a selective predicate.
    let q = query(Some(col("sel").lt(lit(0.3))), &["g"], &SUM_AVG_COUNT);
    out.push(("strat-key", store.answer(&q, &spec).unwrap()));
    // (b) drifted group-by: a two-column key the sample was not built on.
    let q = query(None, &["ks", "ki"], &SUM_AVG_COUNT[..2]);
    out.push(("drifted-two-col", store.answer(&q, &spec).unwrap()));
    // (d) NULL measures, a predicate that is NULL on some rows, and a
    // FLOAT64 key with integral values.
    let q = query(
        Some(col("sel").gt_eq(lit(0.2)).and(col("x").gt(lit(50.0)))),
        &["kf"],
        &SUM_AVG_COUNT,
    );
    out.push(("nulls-float-key", store.answer(&q, &spec).unwrap()));

    // (c) two appends, each folded in by `maintain_stratified`: the design
    // now lists every stratum key three times.
    append(&c, 4_000, 12);
    store.maintain_stratified(&c, "fact", 6).unwrap();
    append(&c, 3_000, 13);
    store.maintain_stratified(&c, "fact", 7).unwrap();
    let q = query(Some(col("sel").lt(lit(0.6))), &["g"], &SUM_AVG_COUNT);
    out.push(("maintained", store.answer(&q, &spec).unwrap()));

    // (e) a three-row append at the stored sampling fraction adds strata
    // with one sampled row out of several: dispersion is unobservable
    // there, and every group's variance says so.
    let mut tiny = TableBuilder::with_block_capacity("fact", fact_schema(), 256);
    for i in 0..3 {
        tiny.push_row(&[
            Value::Int64(2),
            Value::str("a"),
            Value::Int64(1),
            Value::Float64(1.0),
            Value::Float64(7.25 + i as f64),
            Value::Float64(0.5),
        ])
        .unwrap();
    }
    let mut extended = (*c.get("fact").unwrap()).clone();
    Partial::merge(&mut extended, &tiny.finish()).unwrap();
    c.replace(extended);
    store.maintain_stratified(&c, "fact", 8).unwrap();
    let q = query(None, &["kf"], &SUM_AVG_COUNT[..2]);
    out.push(("single-row-stratum", store.answer(&q, &spec).unwrap()));
    out
}

/// One pinned estimate: `(n, value bits, variance bits)`.
type Pinned = (u64, u64, u64);

/// One pinned answer: the Boole-split confidence's bits, then per group
/// (in answer order) the key's `Debug` form — which names each value's
/// type — and one [`Pinned`] per aggregate.
struct Golden {
    confidence: u64,
    groups: &'static [(&'static str, &'static [Pinned])],
}

/// Captured at commit 46679cb (the parent of the change that made the scan
/// one pass) from this file's `golden_answers`.
#[rustfmt::skip]
const GOLDENS: [Golden; 5] = [
    // strat-key
    Golden {
        confidence: 0x3fefd8fd8fd8fd90,
        groups: &[
            ("[Int64(0)]", &[(1839, 0x411434b3bb2abf44, 0x41c6bd90c2e21bf7), (1839, 0x4063c6eab2b10509, 0x404a69abfeff59c6), (1839, 0x40a275b69fcbd258, 0x40d6804e06c80991)]),
            ("[Int64(1)]", &[(1839, 0x410cfaa2dd7f4e84, 0x41c189175c7189e1), (1839, 0x4065ef369022d66a, 0x40592609e0ce2eb6), (1839, 0x4097242b834371db, 0x40cb17fc6c7b5f6c)]),
            ("[Int64(2)]", &[(1839, 0x410105410c16c16b, 0x41b46a53c1093694), (1839, 0x40651bba5e353f7b, 0x4064cea7864e1391), (1839, 0x408ceac71c71c71d, 0x40c0cd0a984aacf5)]),
            ("[Int64(3)]", &[(1839, 0x40f0e87e995863d9, 0x4198094fec4db091), (1839, 0x4068679a225eeb99, 0x406e48f7e28660a8), (1839, 0x407a8211d4b24ef6, 0x40a03beb45fc83d8)]),
            ("[Int64(4)]", &[(1839, 0x40e66be19b113594, 0x41828b4a9034ea67), (1839, 0x4068ee63042f5f00, 0x4068acaba924af17), (1839, 0x4070e44c6afc2dda, 0x4088dca00b507d5b)]),
            ("[Int64(5)]", &[(1839, 0x40cd5f4dfd549986, 0x4144a5b041b035aa), (1839, 0x406b5115733a1938, 0x405c3365608149de), (1839, 0x4054d36c423a964a, 0x404a2d69b388afad)]),
            ("[Int64(6)]", &[(1839, 0x409ee503126e978c, 0x0), (1839, 0x4068b735a858793d, 0x0), (1839, 0x4024000000000000, 0x0)]),
        ],
    },
    // drifted-two-col
    Golden {
        confidence: 0x3fefddddddddddde,
        groups: &[
            ("[Str(\"a\"), Int64(0)]", &[(1839, 0x411057aa1ed64216, 0x41c5116b9e0b2dac), (1839, 0x40675d5a5cc7da21, 0x40525f24a8b4ef80)]),
            ("[Str(\"a\"), Int64(1)]", &[(1839, 0x41119856c9528528, 0x41c6cf571db60218), (1839, 0x4066864d2517c668, 0x405333c3a5c19bb1)]),
            ("[Str(\"a\"), Int64(2)]", &[(1839, 0x411045015c78b7a8, 0x41c3669fdb2461aa), (1839, 0x40653cd45ac9556c, 0x4050b2cb14921701)]),
            ("[Str(\"a\"), Int64(3)]", &[(1839, 0x4112e1c821c59cb8, 0x41c933675b0aea3a), (1839, 0x40683fb1078ca1c6, 0x40515c365c688ffe)]),
            ("[Str(\"b\"), Int64(0)]", &[(1839, 0x4113af24ee599895, 0x41c82934e108142b), (1839, 0x4066a7263ffac450, 0x404d361a6d72dad0)]),
            ("[Str(\"b\"), Int64(1)]", &[(1839, 0x410e1d66e1b53b9e, 0x41c2e38b4fbab573), (1839, 0x40658ec2a0f2d62c, 0x4053ae48c53d2870)]),
            ("[Str(\"b\"), Int64(2)]", &[(1839, 0x410dedc8fbf4514b, 0x41c2afab6a5ebe42), (1839, 0x4066a65ba213f6ca, 0x4057d1b56a120de9)]),
            ("[Str(\"b\"), Int64(3)]", &[(1839, 0x410e8def9b210e86, 0x41c2d04b1c4048d8), (1839, 0x406546d553ef3d94, 0x405313f56d9b09be)]),
            ("[Str(\"c\"), Int64(0)]", &[(1839, 0x410d9bdb05dff93e, 0x41c2bd7c73fa9137), (1839, 0x4065769358ea0b7b, 0x4057a6b8f52e9b6f)]),
            ("[Str(\"c\"), Int64(1)]", &[(1839, 0x410cfabdd6ec99e1, 0x41c17f7ffe96b228), (1839, 0x406690cebe19c451, 0x405340b3ea17410c)]),
            ("[Str(\"c\"), Int64(2)]", &[(1839, 0x410d5b576e91a3a2, 0x41c2dc336684dbbe), (1839, 0x4066ac7e86a58720, 0x405968eab538d79d)]),
            ("[Str(\"c\"), Int64(3)]", &[(1839, 0x411317544f560a64, 0x41ca68d7dbc375bc), (1839, 0x40678166cfeca17a, 0x40547fc54ac10626)]),
        ],
    },
    // nulls-float-key
    Golden {
        confidence: 0x3fefc962fc962fc9,
        groups: &[
            ("[Null]", &[(1839, 0x410f8f233324f4a4, 0x41c47e9b25739f95), (1839, 0x406a02efff0ea063, 0x405192b115466b68), (1839, 0x409369956d72e6b6, 0x40cae42bb7956832)]),
            ("[Float64(1.0)]", &[(1839, 0x411d6f362cd59b2e, 0x41d1ca9c35f0d142), (1839, 0x40692fd8e7bc662b, 0x4041ff49ca7542fd), (1839, 0x40a2b2bfc10ae1ea, 0x40d7be258f8a4bac)]),
            ("[Float64(1.5)]", &[(1839, 0x411eec54c7f17a32, 0x41d1f28eee2f25f2), (1839, 0x4067431ecc28e826, 0x404029900876dcbc), (1839, 0x40a544f17d3f2bbe, 0x40dbc7bb85bb61c8)]),
            ("[Float64(2.0)]", &[(1839, 0x4120a96c56408786, 0x41d54882a690a092), (1839, 0x406a24379cc2d7a3, 0x40428af5563b5832), (1839, 0x40a465573d8dadd0, 0x40dac50cfde68a76)]),
            ("[Float64(2.5)]", &[(1839, 0x411ed7b1fc8e0489, 0x41d412e7075d6bca), (1839, 0x406a7747c657bb3c, 0x404229662806398f), (1839, 0x40a2a558f761ca99, 0x40d8f9579c1352f6)]),
        ],
    },
    // maintained
    Golden {
        confidence: 0x3fefd8fd8fd8fd90,
        groups: &[
            ("[Int64(0)]", &[(2435, 0x4130170fb3e16dee, 0x41dec88ec1a52e57), (2435, 0x4065d84059c7210a, 0x4035bf945e2faefe), (2435, 0x40ba51ce33183831, 0x40e3ff7c59335b82)]),
            ("[Int64(1)]", &[(2435, 0x41222c95fad06ebd, 0x41d23a1fdb78b44a), (2435, 0x40667ab3ed747c13, 0x40457718a04c794f), (2435, 0x40ad67f97e447e06, 0x40d630d615a67ac7)]),
            ("[Int64(2)]", &[(2435, 0x41176dfa31cac085, 0x41c5fd1e09850f25), (2435, 0x406677d790522e08, 0x405010e0d93722b7), (2435, 0x40a32c071c71c71c, 0x40c9cacd3daa97df)]),
            ("[Int64(3)]", &[(2435, 0x4106643a4abb468e, 0x41aa853aa11e7cea), (2435, 0x40689229e51b2504, 0x40566a69d57a73cc), (2435, 0x4090bd2ba4d57ef2, 0x40ad912134064f4d)]),
            ("[Int64(4)]", &[(2435, 0x41009466035fe992, 0x4194c1f30b51648a), (2435, 0x406952f81a331a1e, 0x404f65e48a5e3542), (2435, 0x40880adb68adc3c3, 0x4095c8b34a4e82ef)]),
            ("[Int64(5)]", &[(2435, 0x40e4e65f2968c9ba, 0x415680b6ca8cdb87), (2435, 0x406bfc3f4e57f071, 0x4043dd92f99e8553), (2435, 0x406cffa4f0e956aa, 0x405717c68ece29b8)]),
            ("[Int64(6)]", &[(2435, 0x40ba78e51eb851ec, 0x0), (2435, 0x406d35f3fe966c0d, 0x0), (2435, 0x4040000000000000, 0x0)]),
        ],
    },
    // single-row-stratum
    Golden {
        confidence: 0x3fefae147ae147ae,
        groups: &[
            ("[Null]", &[(2436, 0x411ff376157c3f2c, 0x7fefffffffffffff), (2436, 0x40674eb8439c939a, 0x7f72115ca10c7ee9)]),
            ("[Float64(1.0)]", &[(2436, 0x412d7edf585891d1, 0x7fefffffffffffff), (2436, 0x4067a212477fd4ba, 0x7f56693303e9f5a3)]),
            ("[Float64(1.5)]", &[(2436, 0x412ecf98adfccef6, 0x7fefffffffffffff), (2436, 0x406546cc52e44508, 0x7f4afc227d272f08)]),
            ("[Float64(2.0)]", &[(2436, 0x412ddcc7ac17604b, 0x7fefffffffffffff), (2436, 0x40674ba4d5addb69, 0x7f54a4147aa13ddf)]),
            ("[Float64(2.5)]", &[(2436, 0x412ccfecfa3c9648, 0x7fefffffffffffff), (2436, 0x4067a6ea989bfc29, 0x7f578fddd0db1499)]),
        ],
    },
];

/// `got` is `want` up to summation order: same unit count; value within
/// 1e-12 relative; variance within 1e-9 relative — or within 1e-12·value²,
/// where a ratio's variance is what is left after its terms cancel — and
/// `f64::MAX` / `∞` (strata of one sampled row) reproduced as such.
fn same_estimate(got: &Estimate, want: &Estimate) -> Result<(), String> {
    let fail = |what: &str| Err(format!("{what}: got {got:?}, want {want:?}"));
    if got.n != want.n {
        return fail("n");
    }
    if (got.value - want.value).abs() > 1e-12 * want.value.abs() {
        return fail("value");
    }
    if want.variance >= f64::MAX {
        if got.variance != want.variance {
            return fail("unobservable variance");
        }
    } else if (got.variance - want.variance).abs()
        > (1e-9 * want.variance).max(1e-12 * want.value * want.value)
    {
        return fail("variance");
    }
    Ok(())
}

#[test]
fn answers_keep_their_parent_commit_values() {
    for ((name, ans), golden) in golden_answers().into_iter().zip(&GOLDENS) {
        assert_eq!(ans.groups.len(), golden.groups.len(), "{name}: group set");
        for (g, (key, cells)) in ans.groups.iter().zip(golden.groups) {
            assert_eq!(format!("{:?}", g.key), *key, "{name}: key value and type");
            assert_eq!(g.estimates.len(), cells.len(), "{name} {key}");
            for ((est, ci), &(n, value, variance)) in
                g.estimates.iter().zip(&g.intervals).zip(*cells)
            {
                assert_eq!(ci.confidence.to_bits(), golden.confidence, "{name} {key}");
                let want = Estimate {
                    value: f64::from_bits(value),
                    variance: f64::from_bits(variance),
                    n,
                };
                if let Err(e) = same_estimate(est, &want) {
                    panic!("{name} {key}: {e}");
                }
                if want.variance == 0.0 {
                    assert_eq!(est.variance, 0.0, "{name} {key}: a census has no variance");
                }
            }
        }
    }
}

// ---- reference equivalence ----

fn sample_schema() -> Schema {
    Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("k", DataType::Int64),
        Field::nullable("x", DataType::Float64),
        Field::nullable("sel", DataType::Float64),
    ])
}

/// A hand-built stratified sample: stratum `h` holds `sizes[h].0` sampled
/// rows (zero allowed) of a population `sizes[h].1` larger — `(1, 0)` is a
/// one-row census, `(1, 5)` a stratum whose dispersion is unobservable.
/// Rows carry `g = base + h`, a drifted key `k`, and `x` / `sel` with
/// NULLs; `block_capacity` makes strata straddle blocks.
fn hand_sample(sizes: &[(usize, u64)], base: i64, block_capacity: usize, seed: u64) -> Sample {
    let mut s = seed;
    let mut b = TableBuilder::with_block_capacity("syn", sample_schema(), block_capacity);
    let (mut strata, mut weights) = (Vec::new(), Vec::new());
    let mut cursor = 0;
    for (h, &(n, extra)) in sizes.iter().enumerate() {
        let population = n as u64 + extra;
        for _ in 0..n {
            let r = next(&mut s);
            let nullable = |v: Value, bits: u64| if bits % 7 == 6 { Value::Null } else { v };
            b.push_row(&[
                Value::Int64(base + h as i64),
                Value::Int64((r % 3) as i64),
                nullable(
                    Value::Float64(((r >> 8) % 4001) as f64 * 0.37 - 300.0),
                    r >> 24,
                ),
                nullable(Value::Float64(((r >> 32) % 100) as f64 / 100.0), r >> 48),
            ])
            .unwrap();
            weights.push(population as f64 / n as f64);
        }
        strata.push(StratumMeta {
            key: Value::Int64(base + h as i64),
            population_size: population,
            row_start: cursor,
            row_end: cursor + n,
        });
        cursor += n;
    }
    Sample {
        table: b.finish(),
        design: SampleDesign::Stratified {
            column: "g".into(),
            strata,
        },
        weights: RowWeights::PerRow(weights),
    }
}

/// What row `i` of `block` contributes to `group` under `sel < 0.6`:
/// `None` when it is filtered out or in another group, else its `x`.
fn contribution(block: &Block, i: usize, keys: &[&str], group: &[Value]) -> Option<Option<f64>> {
    let passes = block.column_by_name("sel").unwrap().f64_at(i)? < 0.6;
    let in_group = keys
        .iter()
        .zip(group)
        .all(|(k, v)| block.column_by_name(k).unwrap().get(i) == *v);
    (passes && in_group).then(|| block.column_by_name("x").unwrap().f64_at(i))
}

/// The scan's groups and estimates equal the two-pass design estimators'.
fn check_against_reference(sample: &Sample, keys: &[&str]) -> Result<(), String> {
    let mut q = query(Some(col("sel").lt(lit(0.6))), keys, &SUM_AVG_COUNT);
    q.fact_table = "syn".into();
    let groups = scan(sample, &q).map_err(|e| e.to_string())?;
    let mut expected_keys: Vec<Vec<Value>> = Vec::new();
    for (_, block) in sample.table.iter_blocks() {
        for i in 0..block.len() {
            let key: Vec<Value> = keys
                .iter()
                .map(|k| block.column_by_name(k).unwrap().get(i))
                .collect();
            if contribution(block, i, keys, &key).is_some() && !expected_keys.contains(&key) {
                expected_keys.push(key);
            }
        }
    }
    if groups.len() != expected_keys.len() {
        return Err(format!(
            "{} groups, expected {}",
            groups.len(),
            expected_keys.len()
        ));
    }
    for (key, estimates) in &groups {
        if !expected_keys.contains(key) {
            return Err(format!("unexpected group {key:?}"));
        }
        let x = |b: &Block, i: usize| contribution(b, i, keys, key).flatten();
        let want = [
            sample.estimate_sum_with(&mut |b, i| x(b, i).unwrap_or(0.0)),
            sample.estimate_avg_with(&mut |b, i| x(b, i).unwrap_or(0.0), &mut |b, i| {
                f64::from(x(b, i).is_some())
            }),
            sample
                .estimate_sum_with(&mut |b, i| f64::from(contribution(b, i, keys, key).is_some())),
        ];
        for ((got, want), agg) in estimates.iter().zip(&want).zip(["SUM", "AVG", "COUNT"]) {
            same_estimate(got, want).map_err(|e| format!("{agg} of {key:?}: {e}"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stratified samples — with empty strata, one-row strata (census and
    /// not), census strata, and a second sample merged in the way
    /// `maintain_stratified` does (so stratum keys repeat) — grouped by the
    /// stratification column, by a drifted key, by both, and ungrouped.
    #[test]
    fn scan_equals_the_two_pass_estimators(
        first in prop::collection::vec((0usize..7, 0u64..4), 1..6),
        delta in prop::collection::vec((0usize..4, 0u64..9), 0..4),
        block_capacity in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut sample = hand_sample(&first, 0, block_capacity, seed);
        if !delta.is_empty() {
            // Same keys again from 0: the merged design repeats them.
            sample.merge(&hand_sample(&delta, 0, block_capacity, !seed)).unwrap();
        }
        for keys in [&["g"][..], &["k"], &["g", "k"], &[]] {
            if let Err(e) = check_against_reference(&sample, keys) {
                prop_assert!(false, "group by {keys:?}: {e}");
            }
        }
    }
}

/// A stratum whose values sit 10⁶ standard deviations from zero: the
/// variance must survive the single pass, within 1e-3 of the two-pass
/// reference. The scan's Welford cells agree to ~1e-10; raw `Σx, Σx²`
/// sums on this data are off by 3e-3.
#[test]
fn variance_survives_a_large_mean() {
    let mut s = 17u64;
    let mut b = TableBuilder::with_block_capacity("syn", sample_schema(), 64);
    let n = 2_000;
    for _ in 0..n {
        // Sum of four uniforms, centred: σ ≈ 0.58 around 1e6·σ.
        let noise: f64 = (0..4)
            .map(|_| (next(&mut s) % 10_000) as f64 / 10_000.0)
            .sum();
        b.push_row(&[
            Value::Int64(0),
            Value::Int64(0),
            Value::Float64(0.58e6 + noise - 2.0),
            Value::Float64(0.0),
        ])
        .unwrap();
    }
    let sample = Sample {
        table: b.finish(),
        design: SampleDesign::Stratified {
            column: "g".into(),
            strata: vec![StratumMeta {
                key: Value::Int64(0),
                population_size: 50_000,
                row_start: 0,
                row_end: n,
            }],
        },
        weights: RowWeights::Uniform(25.0),
    };
    let mut q = query(None, &["g"], &SUM_AVG_COUNT[..1]);
    q.fact_table = "syn".into();
    let groups = scan(&sample, &q).unwrap();
    let got = groups[0].1[0];
    let x = sample.table.schema().index_of("x").unwrap();
    let want = sample.estimate_sum_with(&mut |b, i| b.column(x).f64_at(i).unwrap());
    assert!((got.value - want.value).abs() <= 1e-12 * want.value);
    assert!(
        (got.variance - want.variance).abs() <= 1e-3 * want.variance,
        "variance {} vs two-pass {}",
        got.variance,
        want.variance
    );
}

// ---- census differential ----

/// With a budget of twice the table's rows every stratum is sampled in
/// full (congressional allocation rescales house-or-senate shares back to
/// the budget, so the row count alone leaves the large strata short), and
/// the offline family's answer is the exact engine's: every key the engine
/// emits is found under that exact `Value`, every value agrees, every
/// variance is `0.0`.
#[test]
fn a_census_synopsis_answers_exactly() {
    let c = Catalog::new();
    c.register(fact_table(3_000, 23)).unwrap();
    let spec = ErrorSpec::new(0.05, 0.95);
    let check = |ans: &ApproximateAnswer, q: &AggQuery| {
        let exact = execute(&q.to_plan(), &c).unwrap().rows();
        let keys = q.group_by.len();
        assert_eq!(
            ans.groups.len(),
            exact.len(),
            "group set by {:?}",
            q.group_by
        );
        for row in &exact {
            let g = ans
                .group(&row[..keys])
                .unwrap_or_else(|| panic!("no group under the exact key {:?}", &row[..keys]));
            for (est, truth) in g.estimates.iter().zip(&row[keys..]) {
                let truth = truth.as_f64().unwrap();
                assert!(
                    (est.value - truth).abs() <= 1e-12 * truth.abs(),
                    "{:?}: {} vs exact {truth}",
                    &row[..keys],
                    est.value
                );
                assert_eq!(est.variance, 0.0, "{:?}", &row[..keys]);
            }
        }
    };
    // INT64, FLOAT64 (integral, non-integral and NULL) and STR keys, each
    // through the router's entry point on a synopsis stratified on it.
    for key in ["ki", "kf", "ks"] {
        let store = OfflineStore::with_threads(1);
        store.build_stratified(&c, "fact", key, 6_000, 1).unwrap();
        let q = query(Some(col("sel").lt(lit(0.7))), &[key], &SUM_AVG_COUNT);
        match OfflineTechnique::new(&store, &c, 0.1)
            .answer(&q, &spec, 1)
            .unwrap()
        {
            Attempt::Answered(ans) => check(&ans, &q),
            Attempt::Declined { reason, .. } => panic!("declined {key}: {reason:?}"),
        }
    }
    // A two-column key is a drifted group-by, which the family's verdict
    // blocks; the store's scan underneath is still exact on a census.
    let store = OfflineStore::with_threads(1);
    store.build_stratified(&c, "fact", "g", 6_000, 1).unwrap();
    let q = query(None, &["kf", "ks"], &SUM_AVG_COUNT);
    check(&store.answer(&q, &spec).unwrap(), &q);
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

/// A table that shrank had rows replaced, not appended: there is no delta
/// to fold. Maintenance says so, and leaves the stored synopsis, the
/// routing epoch and the accuracy scoreboard as they were.
#[test]
fn maintenance_refuses_a_table_that_shrank() {
    let c = Catalog::new();
    c.register(skewed_table("t", 20_000, 50, 1.1, 256, 17))
        .unwrap();
    let config = SessionConfig {
        audit: AuditConfig {
            rate: 1.0,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = AqpSession::with_config(&c, config);
    session
        .offline()
        .build_stratified(&c, "t", "g", 2_000, 5)
        .unwrap();
    let spec = ErrorSpec::new(0.1, 0.9);
    session.answer(&sum_v_query().to_plan(), &spec, 1).unwrap();

    c.replace(skewed_table("t", 10_000, 50, 1.1, 256, 18));
    let epoch = session.routing_epoch();
    let accuracy = session.accuracy();
    assert!(
        !accuracy.rows.is_empty(),
        "the audited answer is on the board"
    );
    let metas = format!("{:?}", session.offline().synopsis_metas(&c));

    let err = session.maintain_synopses("t", 7).unwrap_err();
    assert!(
        matches!(&err, AqpError::Unsupported { detail } if detail.contains("rebuild with `build_stratified`")),
        "{err}"
    );
    assert_eq!(session.routing_epoch(), epoch);
    assert_eq!(session.accuracy(), accuracy);
    assert_eq!(format!("{:?}", session.offline().synopsis_metas(&c)), metas);
    assert_eq!(session.offline().staleness(&c, "t").unwrap(), 0.5);
}

/// Appends arrive one after another: each maintenance pass folds exactly
/// the rows appended since the last one, whether one append or several
/// accumulated, and the synopsis keeps answering the grown table.
#[test]
fn successive_appends_each_fold_only_their_delta() {
    let catalog = Catalog::new();
    catalog
        .register(skewed_table("t", 60_000, 50, 1.1, 256, 41))
        .unwrap();
    let store = OfflineStore::new();
    store
        .build_stratified(&catalog, "t", "g", 6_000, 3)
        .unwrap();

    append_rows(&catalog, 6_000, 42);
    assert_eq!(store.maintain_stratified(&catalog, "t", 8).unwrap(), 6_000);
    append_rows(&catalog, 2_000, 43);
    append_rows(&catalog, 1_000, 44);
    assert!(store.staleness(&catalog, "t").unwrap() > 0.04);
    assert_eq!(store.maintain_stratified(&catalog, "t", 9).unwrap(), 3_000);
    assert_eq!(store.staleness(&catalog, "t").unwrap(), 0.0);

    let q = sum_v_query();
    let truth = execute(&q.to_plan(), &catalog).unwrap().rows()[0][0]
        .as_f64()
        .unwrap();
    let ans = store.answer(&q, &ErrorSpec::new(0.1, 0.9)).unwrap();
    let err = ans.scalar_estimate("s").unwrap().relative_error(truth);
    assert!(err < 0.15, "error after three folded appends {err}");
}

/// The remedy the shrink refusal names works: after `build_stratified`
/// on the replaced table, maintenance folds appends again.
#[test]
fn a_rebuild_after_shrinkage_restores_maintenance() {
    let c = Catalog::new();
    c.register(skewed_table("t", 20_000, 50, 1.1, 256, 17))
        .unwrap();
    let store = OfflineStore::new();
    store.build_stratified(&c, "t", "g", 2_000, 5).unwrap();
    c.replace(skewed_table("t", 10_000, 50, 1.1, 256, 18));
    assert!(matches!(
        store.maintain_stratified(&c, "t", 7),
        Err(AqpError::Unsupported { .. })
    ));

    store.build_stratified(&c, "t", "g", 1_000, 6).unwrap();
    assert_eq!(store.staleness(&c, "t").unwrap(), 0.0);
    append_rows(&c, 2_500, 19);
    assert_eq!(store.maintain_stratified(&c, "t", 8).unwrap(), 2_500);
    assert_eq!(store.staleness(&c, "t").unwrap(), 0.0);
}

/// The success path beside the shrink refusal: after an append, session
/// maintenance folds the delta, moves the routing epoch (cached
/// staleness verdicts are now wrong) and clears the offline synopsis's
/// audit window, whose audits describe the synopsis before the fold.
#[test]
fn session_maintenance_after_an_append_refreshes_routing_and_audits() {
    let c = Catalog::new();
    c.register(skewed_table("t", 20_000, 50, 1.1, 256, 17))
        .unwrap();
    let config = SessionConfig {
        audit: AuditConfig {
            rate: 1.0,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = AqpSession::with_config(&c, config);
    session
        .offline()
        .build_stratified(&c, "t", "g", 2_000, 5)
        .unwrap();
    let spec = ErrorSpec::new(0.1, 0.9);
    session.answer(&sum_v_query().to_plan(), &spec, 1).unwrap();
    assert!(session.accuracy().get("offline-synopsis").is_some());

    append_rows(&c, 2_000, 21);
    assert!(session.offline().staleness(&c, "t").unwrap() > 0.0);
    let epoch = session.routing_epoch();
    assert_eq!(session.maintain_synopses("t", 7).unwrap(), 1);
    assert!(session.routing_epoch() > epoch);
    assert_eq!(session.offline().staleness(&c, "t").unwrap(), 0.0);
    assert!(session.accuracy().get("offline-synopsis").is_none());
}
