//! Thread-count equivalence for the morsel-parallel executor and the
//! synopsis builders layered on it.
//!
//! The parallel paths fold per-block partial states in *block order*, so
//! the reduction tree is fixed by the data layout, never by scheduling.
//! Consequences tested here:
//!
//! * every parallel thread count (2, 4, 8) produces the same result as
//!   every other — bitwise;
//! * with exactly-summable inputs (integer-valued f64, where addition is
//!   associative), the parallel results also equal the `threads == 1`
//!   serial fold bitwise;
//! * `VAR_SAMP` (Welford serially, pairwise moment merges in parallel)
//!   agrees to tight relative tolerance;
//! * every aggregate — over a join, a filtered scan on the scalar path,
//!   or a projection — folds per-morsel partials merged along a fixed
//!   tree at *every* thread count, so for arbitrary floats threads
//!   1/2/4/8 agree bitwise, zone pruning on or off;
//! * the online sampler's per-block accumulation reproduces the serial
//!   summation order exactly, so approximate answers are identical at
//!   every thread count for *arbitrary* float data.

use proptest::prelude::*;

use aqp_core::{ErrorSpec, OnlineAqp, OnlineConfig};
use aqp_engine::agg::AggFunc;
use aqp_engine::{execute_with, AggExpr, ExecOptions, Query};
use aqp_expr::{col, lit};
use aqp_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

const PAR_THREADS: [usize; 3] = [2, 4, 8];

/// Fact table `fact(k, v)` with integer-valued `v` (exactly summable) and
/// a small dimension `dim(k, w)` covering every key.
fn catalog_from(xs: &[i64], block_cap: usize, keys: i64) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    let mut fact = TableBuilder::with_block_capacity("fact", schema, block_cap);
    for &x in xs {
        fact.push_row(&[Value::Int64(x.rem_euclid(keys)), Value::Float64(x as f64)])
            .unwrap();
    }
    let dim_schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("w", DataType::Float64),
    ]);
    let mut dim = TableBuilder::with_block_capacity("dim", dim_schema, 16);
    for k in 0..keys {
        dim.push_row(&[Value::Int64(k), Value::Float64((k * 3 + 1) as f64)])
            .unwrap();
    }
    let c = Catalog::new();
    c.register(fact.finish()).unwrap();
    c.register(dim.finish()).unwrap();
    c
}

/// `fact(id, k, v)` — `id` the row number, so its zone maps are tight —
/// and `dim(k, name, bucket, w)` covering every key, with non-integral
/// values on both sides.
fn star_catalog(xs: &[i64], block_cap: usize, keys: i64) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    let mut fact = TableBuilder::with_block_capacity("fact", schema, block_cap);
    for (i, &x) in xs.iter().enumerate() {
        let row = [
            Value::Int64(i as i64),
            Value::Int64(x.rem_euclid(keys)),
            Value::Float64(x as f64 / 7.0),
        ];
        fact.push_row(&row).unwrap();
    }
    let dim_schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("name", DataType::Str),
        Field::new("bucket", DataType::Int64),
        Field::new("w", DataType::Float64),
    ]);
    let mut dim = TableBuilder::with_block_capacity("dim", dim_schema, 8);
    for k in 0..keys {
        let row = [
            Value::Int64(k),
            Value::str(format!("n{}", k % 4)),
            Value::Int64(k % 3),
            Value::Float64(k as f64 * 0.3 + 1.0),
        ];
        dim.push_row(&row).unwrap();
    }
    let c = Catalog::new();
    c.register(fact.finish()).unwrap();
    c.register(dim.finish()).unwrap();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Filter → group-by with every mergeable aggregate: parallel runs
    /// equal the serial fold bitwise on exactly-summable data.
    #[test]
    fn aggregate_identical_across_thread_counts(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5200),
        cap in 16usize..96,
    ) {
        let c = catalog_from(&xs, cap, 29);
        let plan = Query::scan("fact")
            .filter(col("v").gt_eq(lit(-900_000.0)))
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![
                    AggExpr::count_star("n"),
                    AggExpr::sum(col("v"), "s"),
                    AggExpr::avg(col("v"), "a"),
                    AggExpr::min(col("v"), "lo"),
                    AggExpr::max(col("v"), "hi"),
                    AggExpr::count_distinct(col("v"), "d"),
                ],
            )
            .build();
        let serial = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
        for threads in PAR_THREADS {
            let par = execute_with(&plan, &c, ExecOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(serial.rows(), par.rows(), "threads={}", threads);
            prop_assert_eq!(serial.stats(), par.stats(), "threads={}", threads);
            prop_assert_eq!(serial.schema(), par.schema(), "threads={}", threads);
        }
    }

    /// Filter → gather join → aggregate: identical rows and stats at every
    /// thread count.
    #[test]
    fn join_pipeline_identical_across_thread_counts(
        xs in prop::collection::vec(-500_000i64..500_000, 4200..5200),
        cap in 16usize..96,
    ) {
        let c = catalog_from(&xs, cap, 17);
        let plan = Query::scan("fact")
            .filter(col("k").lt(lit(13i64)))
            .join(Query::scan("dim"), col("k"), col("k"))
            .aggregate(
                vec![],
                vec![
                    AggExpr::sum(col("w"), "sw"),
                    AggExpr::count_star("n"),
                ],
            )
            .build();
        let serial = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
        for threads in PAR_THREADS {
            let par = execute_with(&plan, &c, ExecOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(serial.rows(), par.rows(), "threads={}", threads);
            prop_assert_eq!(serial.stats(), par.stats(), "threads={}", threads);
        }
    }

    /// Join → filter → aggregate over arbitrary (inexactly summable)
    /// floats: grouped by a STR dimension column, by an INT64 dimension
    /// column and ungrouped (all on the kernel fold), and by a STR and an
    /// INT64 column (scalar fold); then, without a join, a two-column key
    /// over a filtered scan (scalar fold) and an aggregate over a
    /// projection, both keeping enough rows for the pool. All
    /// bit-identical at threads 1/2/4/8 with zone pruning on and off. The
    /// filter on the clustered `id` column — pushed below the join where
    /// there is one — prunes blocks.
    #[test]
    fn join_filter_aggregate_bit_identical_at_every_thread_count(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5200),
        cap in 16usize..96,
    ) {
        let c = star_catalog(&xs, cap, 23);
        let half = (xs.len() / 2) as i64;
        let keys: [Vec<(aqp_expr::Expr, String)>; 4] = [
            vec![(col("name"), "name".to_string())],
            vec![(col("bucket"), "bucket".to_string())],
            vec![],
            vec![(col("name"), "name".to_string()), (col("bucket"), "bucket".to_string())],
        ];
        let joined = keys.into_iter().map(|group_by| {
            Query::scan("fact")
                .join(Query::scan("dim"), col("k"), col("k"))
                .filter(col("id").lt(lit(half)))
                .filter(col("w").gt(lit(1.5)))
                .aggregate(
                    group_by,
                    vec![
                        AggExpr::count_star("n"),
                        AggExpr::sum(col("v").mul(lit(0.1)), "s"),
                        AggExpr::avg(col("v").mul(col("w")), "a"),
                    ],
                )
                .build()
        });
        // Drops the first block only: over 4096 rows stay.
        let tail = col("id").gt_eq(lit(cap as i64));
        let scanned = [
            Query::scan("fact")
                .filter(tail.clone())
                .aggregate(
                    vec![
                        (col("k"), "k".to_string()),
                        (col("id").modulo(lit(3i64)), "m".to_string()),
                    ],
                    vec![
                        AggExpr::count_star("n"),
                        AggExpr::sum(col("v").mul(lit(0.1)), "s"),
                        AggExpr::avg(col("v"), "a"),
                    ],
                )
                .build(),
            Query::scan("fact")
                .filter(tail)
                .project(vec![
                    (col("k"), "k".to_string()),
                    (col("v").mul(lit(0.1)), "x".to_string()),
                ])
                .aggregate(
                    vec![(col("k"), "k".to_string())],
                    vec![AggExpr::sum(col("x"), "s"), AggExpr::avg(col("x"), "a")],
                )
                .build(),
        ];
        for plan in joined.chain(scanned) {
            let reference = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
            prop_assert!(reference.stats().blocks_pruned > 0, "the pushed filter prunes");
            for threads in [1, 2, 4, 8] {
                for pruning in [true, false] {
                    let opts = ExecOptions::with_threads(threads).with_zone_pruning(pruning);
                    let got = execute_with(&plan, &c, opts).unwrap();
                    prop_assert_eq!(
                        reference.rows(), got.rows(),
                        "threads={} pruning={}", threads, pruning
                    );
                    if pruning {
                        prop_assert_eq!(reference.stats(), got.stats(), "threads={}", threads);
                    } else {
                        prop_assert_eq!(got.stats().blocks_pruned, 0);
                    }
                }
            }
        }
    }

    /// VAR_SAMP merges moment partials pairwise instead of one global
    /// Welford fold; values agree to tight relative tolerance.
    #[test]
    fn var_samp_matches_serial_closely(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5000),
        cap in 32usize..96,
    ) {
        let c = catalog_from(&xs, cap, 7);
        let plan = Query::scan("fact")
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![AggExpr::new(AggFunc::VarSamp, col("v"), "var")],
            )
            .build();
        let serial = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
        for threads in PAR_THREADS {
            let par = execute_with(&plan, &c, ExecOptions::with_threads(threads)).unwrap();
            let a = serial.column_f64("var").unwrap();
            let b = par.column_f64("var").unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "threads={} var {} vs {}", threads, x, y
                );
            }
        }
    }

    /// The online sampler's morsel accumulation preserves the serial
    /// summation order exactly, so estimates (and their variances) are
    /// bit-identical at every thread count even for arbitrary floats.
    #[test]
    fn online_answers_identical_across_thread_counts(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 4200..5000),
        seed in any::<u64>(),
    ) {
        let c = catalog_from(&xs, 64, 11);
        let plan = Query::scan("fact")
            .aggregate(
                vec![(col("k"), "k".to_string())],
                vec![AggExpr::sum(col("v").mul(lit(0.1)), "s")],
            )
            .build();
        let spec = ErrorSpec::new(0.2, 0.9);
        let serial = OnlineAqp::new(&c, OnlineConfig { threads: 1, ..OnlineConfig::default() })
            .answer_plan(&plan, &spec, seed)
            .unwrap();
        for threads in PAR_THREADS {
            let par = OnlineAqp::new(&c, OnlineConfig { threads, ..OnlineConfig::default() })
                .answer_plan(&plan, &spec, seed)
                .unwrap();
            prop_assert_eq!(serial.groups.len(), par.groups.len(), "threads={}", threads);
            for (ga, gb) in serial.groups.iter().zip(&par.groups) {
                prop_assert_eq!(&ga.key, &gb.key, "threads={}", threads);
                for (ea, eb) in ga.estimates.iter().zip(&gb.estimates) {
                    prop_assert_eq!(ea.value, eb.value, "threads={}", threads);
                    prop_assert_eq!(ea.variance, eb.variance, "threads={}", threads);
                }
            }
        }
    }
}

/// Offline synopsis builds (congressional stratification) are exact
/// under parallel sampling: the drawn sample, and every estimate from it,
/// equals the serial build's.
#[test]
fn offline_synopses_identical_across_thread_counts() {
    use aqp_core::{AggQuery, OfflineStore};

    let xs: Vec<i64> = (0..20_000).map(|i| (i * 7919) % 4001 - 2000).collect();
    let c = catalog_from(&xs, 64, 31);
    let plan = Query::scan("fact")
        .aggregate(
            vec![(col("k"), "k".to_string())],
            vec![AggExpr::sum(col("v"), "s"), AggExpr::avg(col("v"), "a")],
        )
        .build();
    let q = AggQuery::from_plan(&plan).unwrap();
    let spec = ErrorSpec::new(0.1, 0.9);
    let serial = OfflineStore::with_threads(1);
    serial.build_stratified(&c, "fact", "k", 3_000, 42).unwrap();
    let serial_ans = serial.answer(&q, &spec).unwrap();
    for threads in PAR_THREADS {
        let par = OfflineStore::with_threads(threads);
        par.build_stratified(&c, "fact", "k", 3_000, 42).unwrap();
        assert_eq!(
            serial.stratified_meta("fact"),
            par.stratified_meta("fact"),
            "threads={threads}"
        );
        let par_ans = par.answer(&q, &spec).unwrap();
        assert_eq!(serial_ans.groups.len(), par_ans.groups.len());
        for (ga, gb) in serial_ans.groups.iter().zip(&par_ans.groups) {
            assert_eq!(ga.key, gb.key, "threads={threads}");
            for (ea, eb) in ga.estimates.iter().zip(&gb.estimates) {
                assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "threads={threads}");
                assert_eq!(
                    ea.variance.to_bits(),
                    eb.variance.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }
}
