//! Differential test of the engine's gather join against a nested-loop
//! reference over generated tables.
//!
//! The reference knows nothing of key indexes, canonical keys, pushdown
//! or column pruning: it pairs every left row with every right row in
//! table order, keeps a pair when both keys are non-NULL and
//! `Value::sql_cmp` calls them equal, and applies the filters above the
//! join to the concatenated row. The engine must produce the same rows in
//! the same order under the same column names, at one thread and at four.
//! Under an aggregate the groups must be the reference's — for one join and
//! for a two-dimension star, whose second dimension's renamed column
//! (`x` → `x_r`) must survive the column pruning of the first join.
//!
//! Covered: duplicate keys on either side, NULL and dangling keys, empty
//! sides, INT64 ⋈ FLOAT64 keys (integral, non-integral, `-0.0`), STR keys,
//! expression keys, a colliding column name (`p` → `p_r`), filters above
//! the join naming the probe side only / the build side only / both, a
//! filtered build side, a filtered probe side, and a join at the plan
//! root.

use std::cmp::Ordering;

use proptest::prelude::*;

use aqp_engine::{execute_with, AggExpr, ExecOptions, LogicalPlan, Query};
use aqp_expr::{col, lit, Expr};
use aqp_storage::{Catalog, DataType, Field, Schema, Table, TableBuilder, Value};

const FLOATS: [f64; 7] = [0.0, -0.0, 1.0, 2.0, 2.5, 3.0, -1.5];
const STRS: [&str; 4] = ["a", "b", "c", ""];

/// One generated row: (key pick, payload). `pick` indexes the small key
/// domains above; pick 0 makes the INT64 key NULL.
type RawRow = (u8, i64);

/// `l(a, f, s, x, p)`: nullable INT64 key, FLOAT64 key, STR key, payload,
/// and a column whose name the right side also has.
fn left_table(rows: &[RawRow], cap: usize) -> Table {
    let schema = Schema::new(vec![
        Field::nullable("a", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("s", DataType::Str),
        Field::new("x", DataType::Int64),
        Field::new("p", DataType::Int64),
    ]);
    let mut b = TableBuilder::with_block_capacity("l", schema, cap);
    for &(pick, x) in rows {
        let pick = pick as usize;
        let a = match pick % 6 {
            0 => Value::Null,
            k => Value::Int64(k as i64 - 2), // -1..=3
        };
        b.push_row(&[
            a,
            Value::Float64(FLOATS[pick % FLOATS.len()]),
            Value::str(STRS[pick % STRS.len()]),
            Value::Int64(x),
            Value::Int64(x * 10),
        ])
        .unwrap();
    }
    b.finish()
}

/// `r(b, g, t, y, p)`: the same shapes under other names, `p` colliding.
fn right_table(rows: &[RawRow], cap: usize) -> Table {
    let schema = Schema::new(vec![
        Field::nullable("b", DataType::Int64),
        Field::new("g", DataType::Float64),
        Field::new("t", DataType::Str),
        Field::new("y", DataType::Int64),
        Field::new("p", DataType::Int64),
    ]);
    let mut b = TableBuilder::with_block_capacity("r", schema, cap);
    for &(pick, y) in rows {
        let pick = pick as usize;
        let key = match pick % 5 {
            0 => Value::Null,
            k => Value::Int64(k as i64 - 1), // 0..=3
        };
        b.push_row(&[
            key,
            Value::Float64(FLOATS[(pick / 2) % FLOATS.len()]),
            Value::str(STRS[(pick / 3) % STRS.len()]),
            Value::Int64(y),
            Value::Int64(-y),
        ])
        .unwrap();
    }
    b.finish()
}

/// `d(dk, x, w)`: a nullable INT64 key over the range of `r.y`, and two
/// payloads, `x` colliding with `l.x`.
fn dim_table(rows: &[RawRow], cap: usize) -> Table {
    let schema = Schema::new(vec![
        Field::nullable("dk", DataType::Int64),
        Field::new("x", DataType::Int64),
        Field::new("w", DataType::Int64),
    ]);
    let mut b = TableBuilder::with_block_capacity("d", schema, cap);
    for &(pick, x) in rows {
        let key = match pick % 10 {
            9 => Value::Null,
            k => Value::Int64(k as i64),
        };
        b.push_row(&[key, Value::Int64(x), Value::Int64(x * 3 - 7)])
            .unwrap();
    }
    b.finish()
}

/// Column positions in the concatenated row `l ++ r ++ d`.
const X: usize = 3;
const Y: usize = 8;
const DX: usize = 11;

type RowPred = fn(&[Value]) -> bool;

fn int(v: &Value) -> i64 {
    v.as_i64().expect("payload columns are non-NULL INT64")
}

/// The key pairs under test: (left key, right key, reference left key,
/// reference right key).
type KeyOf = fn(&[Value]) -> Value;

fn key_cases() -> Vec<(Expr, Expr, KeyOf, KeyOf)> {
    fn plus_one(v: &Value) -> Value {
        v.as_i64().map_or(Value::Null, |i| Value::Int64(i + 1))
    }
    vec![
        (col("a"), col("b"), |l| l[0].clone(), |r| r[0].clone()),
        (col("a"), col("g"), |l| l[0].clone(), |r| r[1].clone()),
        (col("f"), col("b"), |l| l[1].clone(), |r| r[0].clone()),
        (col("f"), col("g"), |l| l[1].clone(), |r| r[1].clone()),
        (col("s"), col("t"), |l| l[2].clone(), |r| r[2].clone()),
        (
            col("a").add(lit(1i64)),
            col("b").add(lit(1i64)),
            |l| plus_one(&l[0]),
            |r| plus_one(&r[0]),
        ),
        (
            col("a"),
            col("b").add(lit(1i64)),
            |l| l[0].clone(),
            |r| plus_one(&r[0]),
        ),
    ]
}

/// Filters above the join: none, probe side only, build side only, one
/// naming both sides, and a stack of all three.
fn filter_cases() -> Vec<Vec<(Expr, RowPred)>> {
    let probe: (Expr, RowPred) = (col("x").lt(lit(4i64)), |row| int(&row[X]) < 4);
    let build: (Expr, RowPred) = (col("y").gt_eq(lit(2i64)), |row| int(&row[Y]) >= 2);
    let both: (Expr, RowPred) = (col("x").add(col("y")).lt(lit(9i64)), |row| {
        int(&row[X]) + int(&row[Y]) < 9
    });
    vec![
        vec![],
        vec![probe.clone()],
        vec![build.clone()],
        vec![both.clone()],
        vec![build, probe, both],
    ]
}

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.row_count()).map(|i| t.row(i)).collect()
}

fn keys_equal(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a.sql_cmp(b) == Some(Ordering::Equal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gather_join_equals_nested_loop(
        left in prop::collection::vec((0u8..60, 0i64..8), 0..14),
        right in prop::collection::vec((0u8..60, 0i64..8), 0..14),
        lcap in 1usize..5,
        rcap in 1usize..5,
        key_case in 0usize..7,
        filter_case in 0usize..5,
        // Bit 0: the probe side is itself filtered (a fused chain); bit
        // 1: the build side is itself filtered (no cached index).
        side_filters in 0u8..4,
    ) {
        let c = Catalog::new();
        let (l, r) = (left_table(&left, lcap), right_table(&right, rcap));
        c.register(l.clone()).unwrap();
        c.register(r.clone()).unwrap();
        let (lk, rk, lref, rref) = key_cases().swap_remove(key_case);
        let filters = filter_cases().swap_remove(filter_case);

        let mut probe = Query::scan("l");
        let mut lrows = rows_of(&l);
        if side_filters & 1 != 0 {
            probe = probe.filter(col("x").gt(lit(0i64)));
            lrows.retain(|row| int(&row[X]) > 0);
        }
        let mut build = Query::scan("r");
        let mut rrows = rows_of(&r);
        if side_filters & 2 != 0 {
            build = build.filter(col("y").lt(lit(6i64)));
            rrows.retain(|row| int(&row[Y - 5]) < 6);
        }
        // With no filter above it the join is the plan root.
        let mut q = probe.join(build, lk, rk);
        for (expr, _) in &filters {
            q = q.filter(expr.clone());
        }
        let plan = q.build();

        let mut expect: Vec<Vec<Value>> = Vec::new();
        for lrow in &lrows {
            for rrow in &rrows {
                if keys_equal(&lref(lrow), &rref(rrow)) {
                    let row: Vec<Value> = lrow.iter().chain(rrow).cloned().collect();
                    if filters.iter().all(|(_, keep)| keep(&row)) {
                        expect.push(row);
                    }
                }
            }
        }
        for threads in [1, 4] {
            let got = execute_with(&plan, &c, ExecOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(
                got.schema().names(),
                vec!["a", "f", "s", "x", "p", "b", "g", "t", "y", "p_r"],
                "threads={}", threads
            );
            prop_assert_eq!(got.rows(), expect.clone(), "threads={}", threads);
        }
    }

    /// Under an aggregate the join prunes columns and fuses into the
    /// fold; the groups must still be the reference's.
    #[test]
    fn join_under_aggregate_equals_nested_loop(
        left in prop::collection::vec((0u8..60, 0i64..8), 0..40),
        right in prop::collection::vec((0u8..60, 0i64..8), 0..14),
        lcap in 1usize..7,
        filter_case in 0usize..5,
    ) {
        let c = Catalog::new();
        let (l, r) = (left_table(&left, lcap), right_table(&right, 4));
        c.register(l.clone()).unwrap();
        c.register(r.clone()).unwrap();
        let filters = filter_cases().swap_remove(filter_case);
        let mut q = Query::scan("l").join(Query::scan("r"), col("a"), col("b"));
        for (expr, _) in &filters {
            q = q.filter(expr.clone());
        }
        // Grouped by a build-side STR column, summing one column of each
        // side (`p_r` exists only through the rename).
        let plan = q
            .aggregate(
                vec![(col("t"), "t".to_string())],
                vec![
                    AggExpr::count_star("n"),
                    AggExpr::sum(col("p"), "sp"),
                    AggExpr::sum(col("p_r"), "spr"),
                ],
            )
            .build();
        let mut expect: std::collections::BTreeMap<String, (i64, i64, i64)> = Default::default();
        for lrow in rows_of(&l) {
            for rrow in rows_of(&r) {
                if keys_equal(&lrow[0], &rrow[0]) {
                    let row: Vec<Value> = lrow.iter().chain(&rrow).cloned().collect();
                    if filters.iter().all(|(_, keep)| keep(&row)) {
                        let e = expect.entry(row[7].to_string()).or_default();
                        e.0 += 1;
                        e.1 += int(&row[4]);
                        e.2 += int(&row[9]);
                    }
                }
            }
        }
        let expect: Vec<Vec<Value>> = expect
            .into_iter()
            .map(|(t, (n, sp, spr))| {
                vec![Value::str(t), n.into(), (sp as f64).into(), (spr as f64).into()]
            })
            .collect();
        for threads in [1, 4] {
            let got = execute_with(&plan, &c, ExecOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(got.rows(), expect.clone(), "threads={}", threads);
        }
    }

    /// A two-dimension star under an aggregate, `l ⋈ r ⋈ d`: the filters
    /// above it name `l` only (below both probes), `r`, `d` through the
    /// renamed `x_r`, and two sides at once; the aggregate sums a column
    /// of `l` and two of `d`, one reachable only through the rename.
    #[test]
    fn star_join_under_aggregate_equals_nested_loop(
        left in prop::collection::vec((0u8..60, 0i64..8), 0..40),
        right in prop::collection::vec((0u8..60, 0i64..8), 0..14),
        dims in prop::collection::vec((0u8..60, 0i64..8), 0..12),
        lcap in 1usize..7,
        filter_case in 0usize..6,
    ) {
        let c = Catalog::new();
        let (l, r, d) = (left_table(&left, lcap), right_table(&right, 4), dim_table(&dims, 3));
        c.register(l.clone()).unwrap();
        c.register(r.clone()).unwrap();
        c.register(d.clone()).unwrap();
        let probe: (Expr, RowPred) = (col("x").lt(lit(4i64)), |row| int(&row[X]) < 4);
        let middle: (Expr, RowPred) = (col("y").gt_eq(lit(2i64)), |row| int(&row[Y]) >= 2);
        let dim: (Expr, RowPred) = (col("x_r").gt(lit(1i64)), |row| int(&row[DX]) > 1);
        let both: (Expr, RowPred) = (col("x").add(col("x_r")).lt(lit(9i64)), |row| {
            int(&row[X]) + int(&row[DX]) < 9
        });
        let filters = vec![
            vec![],
            vec![probe.clone()],
            vec![middle.clone()],
            vec![dim.clone()],
            vec![both.clone()],
            vec![dim, probe, both, middle],
        ]
        .swap_remove(filter_case);
        let mut q = Query::scan("l")
            .join(Query::scan("r"), col("a"), col("b"))
            .join(Query::scan("d"), col("y"), col("dk"));
        for (expr, _) in &filters {
            q = q.filter(expr.clone());
        }
        let plan = q
            .aggregate(
                vec![(col("t"), "t".to_string())],
                vec![
                    AggExpr::count_star("n"),
                    AggExpr::sum(col("p"), "sp"),
                    AggExpr::sum(col("x_r"), "sx"),
                    AggExpr::sum(col("w"), "sw"),
                ],
            )
            .build();
        let mut expect: std::collections::BTreeMap<String, [i64; 4]> = Default::default();
        for lrow in rows_of(&l) {
            for rrow in rows_of(&r) {
                for drow in rows_of(&d) {
                    if !keys_equal(&lrow[0], &rrow[0]) || !keys_equal(&rrow[3], &drow[0]) {
                        continue;
                    }
                    let row: Vec<Value> = lrow.iter().chain(&rrow).chain(&drow).cloned().collect();
                    if filters.iter().all(|(_, keep)| keep(&row)) {
                        let e = expect.entry(row[7].to_string()).or_default();
                        e[0] += 1;
                        e[1] += int(&row[4]);
                        e[2] += int(&row[DX]);
                        e[3] += int(&row[12]);
                    }
                }
            }
        }
        let expect: Vec<Vec<Value>> = expect
            .into_iter()
            .map(|(t, [n, sp, sx, sw])| {
                vec![Value::str(t), n.into(), (sp as f64).into(), (sx as f64).into(), (sw as f64).into()]
            })
            .collect();
        for threads in [1, 4] {
            let got = execute_with(&plan, &c, ExecOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(got.rows(), expect.clone(), "threads={}", threads);
        }
    }
}

/// A many-to-many join on a cached index keeps every pair, in probe-row
/// then build-row order, and a second run reuses the index.
#[test]
fn many_to_many_pairs_in_order() {
    let c = Catalog::new();
    let rows: Vec<RawRow> = vec![(1, 0), (1, 1), (2, 2)];
    c.register(left_table(&rows, 2)).unwrap();
    c.register(right_table(&[(1, 5), (1, 6), (2, 7)], 2))
        .unwrap();
    let plan: LogicalPlan = Query::scan("l")
        .join(Query::scan("r"), col("a"), col("b"))
        .build();
    for _ in 0..2 {
        let got = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
        // l.a = [-1, -1, 0]; r.b = [0, 0, 1]: only the last left row joins.
        let xy: Vec<(i64, i64)> = got
            .rows()
            .iter()
            .map(|row| (int(&row[X]), int(&row[Y])))
            .collect();
        assert_eq!(xy, vec![(2, 5), (2, 6)]);
    }
    assert!(c.get("r").unwrap().has_key_index(0));
}
