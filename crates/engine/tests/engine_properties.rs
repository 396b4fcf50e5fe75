//! Property-based tests for the exact engine: relational-algebra laws
//! checked against proptest-generated tables and predicates.

use proptest::prelude::*;

use aqp_engine::{execute, AggExpr, Query, SortKey};
use aqp_expr::{col, lit, Expr};
use aqp_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

/// A generated test table of (id, v, flag) rows.
fn register(rows: &[(i64, f64, bool)], block_cap: usize) -> Catalog {
    let c = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("v", DataType::Float64),
        Field::new("flag", DataType::Bool),
    ]);
    let mut b = TableBuilder::with_block_capacity("t", schema, block_cap);
    for &(id, v, flag) in rows {
        b.push_row(&[Value::Int64(id), Value::Float64(v), Value::Bool(flag)])
            .unwrap();
    }
    c.register(b.finish()).unwrap();
    c
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, f64, bool)>> {
    prop::collection::vec(
        (
            -50i64..50,
            (-1e3f64..1e3).prop_map(|v| (v * 100.0).round() / 100.0),
            any::<bool>(),
        ),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Filter conjunction splits: σ(p ∧ q) = σ(p) then σ(q).
    #[test]
    fn filter_conjunction_splits(rows in rows_strategy(), threshold in -1e3f64..1e3) {
        let c = register(&rows, 16);
        let p: Expr = col("v").gt(lit(threshold));
        let q: Expr = col("flag").eq(lit(true));
        let combined = execute(
            &Query::scan("t").filter(p.clone().and(q.clone())).build(),
            &c,
        )
        .unwrap();
        let chained = execute(
            &Query::scan("t").filter(p).filter(q).build(),
            &c,
        )
        .unwrap();
        prop_assert_eq!(combined.rows(), chained.rows());
    }

    /// COUNT(*) equals the row count of the unaggregated result.
    #[test]
    fn count_star_matches_cardinality(rows in rows_strategy(), threshold in -1e3f64..1e3) {
        let c = register(&rows, 8);
        let filtered = execute(
            &Query::scan("t").filter(col("v").lt_eq(lit(threshold))).build(),
            &c,
        )
        .unwrap();
        let counted = execute(
            &Query::scan("t")
                .filter(col("v").lt_eq(lit(threshold)))
                .aggregate(vec![], vec![AggExpr::count_star("n")])
                .build(),
            &c,
        )
        .unwrap();
        prop_assert_eq!(
            counted.rows()[0][0].as_i64().unwrap() as usize,
            filtered.num_rows()
        );
    }

    /// Group-by SUMs add up to the global SUM.
    #[test]
    fn group_sums_partition_global_sum(rows in rows_strategy()) {
        prop_assume!(!rows.is_empty());
        let c = register(&rows, 8);
        let global = execute(
            &Query::scan("t")
                .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
                .build(),
            &c,
        )
        .unwrap();
        let grouped = execute(
            &Query::scan("t")
                .aggregate(
                    vec![(col("id").modulo(lit(7i64)), "g".to_string())],
                    vec![AggExpr::sum(col("v"), "s")],
                )
                .build(),
            &c,
        )
        .unwrap();
        let total = global.rows()[0][0].as_f64().unwrap_or(0.0);
        let parts: f64 = grouped.column_f64("s").unwrap().iter().sum();
        prop_assert!((total - parts).abs() < 1e-6 * (1.0 + total.abs()));
    }

    /// Sorting is a permutation and is ordered.
    #[test]
    fn sort_is_an_ordered_permutation(rows in rows_strategy()) {
        let c = register(&rows, 8);
        let sorted = execute(
            &Query::scan("t").sort(vec![SortKey::asc("v")]).build(),
            &c,
        )
        .unwrap();
        let vs = sorted.column_f64("v").unwrap();
        prop_assert!(vs.windows(2).all(|w| w[0] <= w[1]));
        let mut original: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mut got = vs;
        original.sort_by(|a, b| a.partial_cmp(b).unwrap());
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(original, got);
    }

    /// Limit then count = min(n, count).
    #[test]
    fn limit_caps_cardinality(rows in rows_strategy(), n in 0usize..300) {
        let c = register(&rows, 8);
        let limited = execute(&Query::scan("t").limit(n).build(), &c).unwrap();
        prop_assert_eq!(limited.num_rows(), n.min(rows.len()));
    }

    /// Union with self doubles every aggregate count.
    #[test]
    fn union_doubles(rows in rows_strategy()) {
        let c = register(&rows, 8);
        let doubled = execute(
            &Query::scan("t")
                .union_all(Query::scan("t"))
                .aggregate(vec![], vec![AggExpr::count_star("n")])
                .build(),
            &c,
        )
        .unwrap();
        prop_assert_eq!(
            doubled.rows()[0][0].as_i64().unwrap() as usize,
            rows.len() * 2
        );
    }

    /// Self-join on a unique key is the identity (same cardinality).
    #[test]
    fn unique_key_self_join_preserves_cardinality(n in 0usize..120) {
        let rows: Vec<(i64, f64, bool)> =
            (0..n).map(|i| (i as i64, i as f64, i % 2 == 0)).collect();
        let c = register(&rows, 8);
        let joined = execute(
            &Query::scan("t")
                .join(Query::scan("t"), col("id"), col("id"))
                .aggregate(vec![], vec![AggExpr::count_star("n")])
                .build(),
            &c,
        )
        .unwrap();
        prop_assert_eq!(joined.rows()[0][0].as_i64().unwrap() as usize, n);
    }

    /// Results are independent of the physical block size: the same groups
    /// and counts, and sums equal up to rounding. Not bit-for-bit: block
    /// size sets the morsels an aggregate folds and the tree their
    /// partials merge along, and with them the association order of a
    /// float sum. (Bitwise equality holds across thread counts, kernels
    /// and pruning for one layout — `tests/kernels.rs` and
    /// `tests/parallel_equivalence.rs` check that.)
    #[test]
    fn block_size_is_invisible(rows in rows_strategy(), cap in 1usize..64) {
        let small = register(&rows, cap);
        let large = register(&rows, 1024);
        let plan = Query::scan("t")
            .filter(col("flag").eq(lit(true)))
            .aggregate(
                vec![(col("id").modulo(lit(5i64)), "g".to_string())],
                vec![AggExpr::count_star("n"), AggExpr::sum(col("v"), "s")],
            )
            .sort(vec![SortKey::asc("g")])
            .build();
        let a = execute(&plan, &small).unwrap();
        let b = execute(&plan, &large).unwrap();
        let (a, b) = (a.rows(), b.rows());
        prop_assert_eq!(a.len(), b.len());
        // Rounding error of any summation order is below n·ε·Σ|v|.
        let magnitude: f64 = rows.iter().map(|r| r.1.abs()).sum();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x[..2], &y[..2]);
            let (sx, sy) = (x[2].as_f64().unwrap(), y[2].as_f64().unwrap());
            prop_assert!((sx - sy).abs() <= 1e-12 * magnitude, "{} vs {}", sx, sy);
        }
    }
}
