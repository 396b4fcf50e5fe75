//! The middleware (query-rewriting) path. A sampled table with a weight
//! column, queried through the *unmodified exact engine* with
//! `SUM(x·w)`-style rewrites, must reproduce the sampler's own
//! Horvitz–Thompson estimates — the VerdictDB-style architecture NSB
//! identifies as the deployable form of AQP, validated across samplers.
//! The routed [`RewriteTechnique`] groups its block sample by block, as
//! VerdictDB does to get error bars, which is online's block fold: its
//! answers are that fold's, bit for bit.

use proptest::prelude::*;

use aqp_core::evaluator::{SampledTotals, StarEvaluator};
use aqp_core::{
    AggQuery, AggSpec, Attempt, DeclineReason, ErrorSpec, JoinSpec, LinearAgg, RewriteTechnique,
    Technique,
};
use aqp_engine::{execute, AggExpr, Query};
use aqp_expr::{col, lit};
use aqp_sampling::{
    bernoulli_blocks, bernoulli_rows, distinct_sample, stratified_sample, Allocation,
};
use aqp_stats::Estimate;
use aqp_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
use aqp_workload::skewed_table;

const W: &str = "__w";

fn weighted_sum_via_engine(catalog: &Catalog, table: &str, value: &str) -> f64 {
    let plan = Query::scan(table)
        .project(vec![(col(value).mul(col(W)), "wx".to_string())])
        .aggregate(vec![], vec![AggExpr::sum(col("wx"), "s")])
        .build();
    execute(&plan, catalog).unwrap().rows()[0][0]
        .as_f64()
        .unwrap_or(0.0)
}

fn weighted_count_via_engine(catalog: &Catalog, table: &str) -> f64 {
    let plan = Query::scan(table)
        .aggregate(vec![], vec![AggExpr::sum(col(W), "c")])
        .build();
    execute(&plan, catalog).unwrap().rows()[0][0]
        .as_f64()
        .unwrap_or(0.0)
}

#[test]
fn bernoulli_row_sample_rewrite_matches_ht_estimate() {
    let t = skewed_table("t", 30_000, 40, 1.0, 256, 1);
    let s = bernoulli_rows(&t, 0.05, 9);
    let est = s.estimate_sum("v").unwrap();
    let catalog = Catalog::new();
    catalog
        .register(s.to_weighted_table("t_s", W).unwrap())
        .unwrap();
    let via_engine = weighted_sum_via_engine(&catalog, "t_s", "v");
    assert!(
        (via_engine - est.value).abs() < 1e-6 * est.value.abs().max(1.0),
        "engine {via_engine} vs estimator {}",
        est.value
    );
}

#[test]
fn block_sample_rewrite_matches_plain_ht_estimate() {
    // The weighted-table middleware uses plain HT weights (1/q); the
    // engine-side estimate must equal Σx/q.
    let t = skewed_table("t", 30_000, 40, 1.0, 256, 2);
    let s = bernoulli_blocks(&t, 0.2, 4);
    let sample_sum: f64 = s.table.column_f64("v").unwrap().iter().sum();
    let catalog = Catalog::new();
    catalog
        .register(s.to_weighted_table("t_s", W).unwrap())
        .unwrap();
    let via_engine = weighted_sum_via_engine(&catalog, "t_s", "v");
    assert!((via_engine - sample_sum / 0.2).abs() < 1e-6);
}

#[test]
fn stratified_sample_rewrite_matches_ht_estimate() {
    let t = skewed_table("t", 30_000, 30, 1.2, 256, 3);
    let s = stratified_sample(&t, "g", &Allocation::Congressional { budget: 3000 }, 7).unwrap();
    let est = s.estimate_sum("v").unwrap();
    let catalog = Catalog::new();
    catalog
        .register(s.to_weighted_table("t_s", W).unwrap())
        .unwrap();
    let via_engine = weighted_sum_via_engine(&catalog, "t_s", "v");
    assert!(
        (via_engine - est.value).abs() < 1e-6 * est.value.abs(),
        "engine {via_engine} vs estimator {}",
        est.value
    );
}

#[test]
fn distinct_sample_rewrite_matches_poisson_estimate() {
    let t = skewed_table("t", 30_000, 30, 1.3, 256, 4);
    let s = distinct_sample(&t, &["g"], 4, 0.05, 11).unwrap();
    let est_count = s.estimate_count();
    let catalog = Catalog::new();
    catalog
        .register(s.to_weighted_table("t_s", W).unwrap())
        .unwrap();
    let via_engine = weighted_count_via_engine(&catalog, "t_s");
    assert!(
        (via_engine - est_count.value).abs() < 1e-9 * est_count.value.max(1.0),
        "engine {via_engine} vs estimator {}",
        est_count.value
    );
}

#[test]
fn weighted_group_by_through_engine_is_consistent() {
    // Per-group weighted counts though the engine match per-group HT
    // estimates computed by the sampler API.
    let t = skewed_table("t", 20_000, 10, 0.8, 128, 5);
    let s = stratified_sample(&t, "g", &Allocation::Equal { per_stratum: 200 }, 13).unwrap();
    let catalog = Catalog::new();
    catalog
        .register(s.to_weighted_table("t_s", W).unwrap())
        .unwrap();
    let plan = Query::scan("t_s")
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col(W), "est_n")],
        )
        .build();
    let per_group = execute(&plan, &catalog).unwrap();
    let gi = s.table.schema().index_of("g").unwrap();
    for row in per_group.rows() {
        let g = row[0].clone();
        let engine_est = row[1].as_f64().unwrap();
        let sampler_est = s.estimate_count_with(&mut |b, i| {
            if b.column(gi).get(i) == g {
                1.0
            } else {
                0.0
            }
        });
        assert!(
            (engine_est - sampler_est.value).abs() < 1e-6 * sampler_est.value.max(1.0),
            "group {g:?}: engine {engine_est} vs sampler {}",
            sampler_est.value
        );
    }
}

#[test]
fn block_sampling_skips_scanned_rows_in_engine_stats() {
    // The system-efficiency claim, observable through the engine's scan
    // accounting: querying the block sample touches ~20% of the rows.
    let t = skewed_table("t", 50_000, 10, 0.5, 256, 6);
    let s = bernoulli_blocks(&t, 0.2, 8);
    let catalog = Catalog::new();
    let full_rows = t.row_count() as u64;
    catalog.register(t).unwrap();
    catalog.register(s.table.clone()).unwrap();
    let sample_name = s.table.name().to_string();

    let full = execute(
        &Query::scan("t")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build(),
        &catalog,
    )
    .unwrap();
    assert_eq!(full.stats().rows_scanned, full_rows);

    let sampled = execute(
        &Query::scan(&sample_name)
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build(),
        &catalog,
    )
    .unwrap();
    let frac = sampled.stats().rows_scanned as f64 / full_rows as f64;
    assert!(
        (0.1..0.35).contains(&frac),
        "block sample scanned fraction {frac}"
    );
}

#[test]
fn rebase_tables_redirects_plan_to_sample() {
    // The plan-rewriting primitive: the same logical plan, rebased onto
    // the sampled table, runs unchanged.
    let t = skewed_table("t", 10_000, 5, 0.5, 128, 7);
    let s = bernoulli_blocks(&t, 0.3, 1);
    let catalog = Catalog::new();
    catalog.register(t).unwrap();
    let sample_name = s.table.name().to_string();
    catalog.register(s.table).unwrap();
    let plan = Query::scan("t")
        .filter(col("sel").lt(lit(0.5)))
        .aggregate(vec![], vec![AggExpr::count_star("n")])
        .build();
    let rebased = plan.rebase_tables(&|name| (name == "t").then(|| sample_name.clone()));
    let exact_n = execute(&plan, &catalog).unwrap().rows()[0][0]
        .as_f64()
        .unwrap();
    let sampled_n = execute(&rebased, &catalog).unwrap().rows()[0][0]
        .as_f64()
        .unwrap();
    // ~30% of the filtered rows should appear in the sample.
    let ratio = sampled_n / exact_n;
    assert!((0.15..0.45).contains(&ratio), "ratio {ratio}");
}

/// `t(g, x)`: 6 400 rows in 64-row blocks, four groups, and every third
/// `x` NULL.
fn table_with_null_measures() -> Catalog {
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::nullable("x", DataType::Float64),
    ]);
    let mut t = TableBuilder::with_block_capacity("t", schema, 64);
    for i in 0..6_400i64 {
        let x = if i % 3 == 0 {
            Value::Null
        } else {
            Value::Float64((i % 17) as f64 + 0.25)
        };
        t.push_row(&[Value::Int64(i % 4), x]).unwrap();
    }
    let c = Catalog::new();
    c.register(t.finish()).unwrap();
    c
}

/// Per group key, the rewrite's estimates at `rate`.
fn rewrite_values(c: &Catalog, q: &AggQuery, rate: f64, seed: u64) -> Vec<(Vec<Value>, Vec<f64>)> {
    let spec = ErrorSpec::new(0.1, 0.95);
    let Attempt::Answered(ans) = RewriteTechnique::new(c, rate, 1)
        .answer(q, &spec, seed)
        .unwrap()
    else {
        panic!("the rewrite declined");
    };
    (ans.groups.iter())
        .map(|g| (g.key.clone(), g.estimates.iter().map(|e| e.value).collect()))
        .collect()
}

fn assert_close(got: &[(Vec<Value>, Vec<f64>)], want: &[(Vec<Value>, Vec<f64>)]) {
    assert_eq!(got.len(), want.len());
    for ((gk, gv), (wk, wv)) in got.iter().zip(want) {
        assert_eq!(gk, wk);
        for (g, w) in gv.iter().zip(wv) {
            assert!(
                (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                "{gk:?}: {g} vs {w}"
            );
        }
    }
}

/// The rewrite's AVG skips a NULL measure, as exact and online do: the
/// sample's rows share one weight, so the sample's AVG is the weighted
/// ratio, over the rows whose measure is present.
#[test]
fn rewrite_avg_skips_null_measures_like_exact_and_online() {
    let c = table_with_null_measures();
    let spec = |kind, alias: &str| AggSpec {
        kind,
        expr: col("x"),
        alias: alias.into(),
    };
    let q = AggQuery {
        fact_table: "t".into(),
        joins: vec![],
        predicate: None,
        group_by: vec![(col("g"), "g".into())],
        aggregates: vec![
            spec(LinearAgg::Avg, "avg_x"),
            spec(LinearAgg::Sum, "sum_x"),
            spec(LinearAgg::CountStar, "n"),
        ],
    };

    // Every block sampled: the rewrite is the exact answer.
    let exact = execute(&q.to_plan(), &c).unwrap();
    let mut exact: Vec<_> = (exact.rows().iter())
        .map(|row| {
            let values = row[1..].iter().map(|v| v.as_f64().unwrap()).collect();
            (row[..1].to_vec(), values)
        })
        .collect();
    exact.sort_by_key(|(k, _)| k[0].as_i64());
    assert_close(&rewrite_values(&c, &q, 1.0, 1), &exact);

    // A partial rate: online's fold over the same sampled blocks.
    let (rate, seed) = (0.3, 11);
    let ev = StarEvaluator::new(&c, &q).unwrap();
    let sample = bernoulli_blocks(ev.fact(), rate, seed);
    let mut totals = SampledTotals::new(&ev);
    totals.fold(&ev, sample.table.blocks(), 1).unwrap();
    let mut online: Vec<_> = (totals.estimates(&ev).into_iter())
        .map(|(key, est)| (key, est.iter().map(|e| e.value).collect()))
        .collect();
    online.sort_by_key(|(k, _)| k[0].as_i64());
    assert_close(&rewrite_values(&c, &q, rate, seed), &online);
}

/// `f(k, g, x, q, sel)` — `x` a nullable FLOAT64 measure (NULL where
/// `xs[i] % 5 == 0`), `q` an INT64 one — over `cap`-row blocks, and
/// `orders(o_key, o_priority)` covering every key `k`.
fn star_with_null_measures(xs: &[i64], cap: usize, keys: i64) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("g", DataType::Int64),
        Field::nullable("x", DataType::Float64),
        Field::new("q", DataType::Int64),
        Field::new("sel", DataType::Float64),
    ]);
    let mut fact = TableBuilder::with_block_capacity("f", schema, cap);
    for (i, &v) in xs.iter().enumerate() {
        let x = if v % 5 == 0 {
            Value::Null
        } else {
            Value::Float64(v as f64 / 7.0)
        };
        let row = [
            Value::Int64(v.rem_euclid(keys)),
            Value::Int64(v.rem_euclid(3)),
            x,
            Value::Int64(v % 1_000),
            Value::Float64((i % 97) as f64 / 97.0),
        ];
        fact.push_row(&row).unwrap();
    }
    let dim_schema = Schema::new(vec![
        Field::new("o_key", DataType::Int64),
        Field::new("o_priority", DataType::Str),
    ]);
    let mut dim = TableBuilder::with_block_capacity("orders", dim_schema, 16);
    for k in 0..keys {
        let priority = ["1-URGENT", "2-HIGH", "3-MEDIUM"][(k % 3) as usize];
        dim.push_row(&[Value::Int64(k), Value::Str(priority.into())])
            .unwrap();
    }
    let c = Catalog::new();
    c.register(fact.finish()).unwrap();
    c.register(dim.finish()).unwrap();
    c
}

/// SUM, COUNT(*) and AVG of a nullable measure plus SUM of an INT64 one
/// under a fact predicate; grouped by `o_priority` through the `orders`
/// join or by the fact's `g`, or ungrouped.
fn linear_query(join: bool, grouped: bool) -> AggQuery {
    let agg = |kind, expr, alias: &str| AggSpec {
        kind,
        expr,
        alias: alias.into(),
    };
    let key = if join { "o_priority" } else { "g" };
    AggQuery {
        fact_table: "f".into(),
        joins: (join.then(|| JoinSpec {
            dim_table: "orders".into(),
            fact_key: "k".into(),
            dim_key: "o_key".into(),
        }))
        .into_iter()
        .collect(),
        predicate: Some(col("sel").lt(lit(0.7))),
        group_by: (grouped.then(|| (col(key), key.to_string())))
            .into_iter()
            .collect(),
        aggregates: vec![
            agg(LinearAgg::Sum, col("x"), "sum_x"),
            agg(LinearAgg::CountStar, lit(1i64), "n"),
            agg(LinearAgg::Avg, col("x"), "avg_x"),
            agg(LinearAgg::Sum, col("q"), "sum_q"),
        ],
    }
}

/// One group's key and estimates as a string that tells floats apart by
/// their bits.
fn bits(key: &[Value], estimates: &[Estimate]) -> String {
    let mut out = format!("{key:?}");
    for e in estimates {
        let (v, var) = (e.value.to_bits(), e.variance.to_bits());
        out.push_str(&format!(" {v:016x}/{var:016x}/{}", e.n));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The rewrite is online's block fold at a fixed rate: over the blocks
    /// `bernoulli_blocks(rate, seed)` draws, its estimates are bit for bit
    /// the ones `SampledTotals` finishes for the query alone — the hidden
    /// support count perturbs nothing — grouped or not, joined or not,
    /// with NULL measures, at one thread and two. A sample no row of
    /// which qualifies is a decline with no support.
    #[test]
    fn the_rewrite_answers_with_the_block_fold(
        xs in prop::collection::vec(-1_000_000i64..1_000_000, 1500..4000),
        cap in 16usize..200,
        rate_pct in 5u32..100,
        seed in 0u64..1_000,
        join in 0usize..2,
        grouped in 0usize..2,
    ) {
        let c = star_with_null_measures(&xs, cap, 41);
        let rate = f64::from(rate_pct) / 100.0;
        let q = linear_query(join == 1, grouped == 1);
        let ev = StarEvaluator::new(&c, &q).unwrap();
        let sample = bernoulli_blocks(ev.fact(), rate, seed);
        let mut totals = SampledTotals::new(&ev);
        totals.fold(&ev, sample.table.blocks(), 1).unwrap();
        let mut want: Vec<String> = (totals.estimates(&ev).iter())
            .map(|(key, est)| bits(key, est))
            .collect();
        want.sort();
        let spec = ErrorSpec::new(0.1, 0.95);
        for threads in [1, 2] {
            let rewrite = RewriteTechnique::new(&c, rate, 1).with_threads(Some(threads));
            match rewrite.answer(&q, &spec, seed).unwrap() {
                Attempt::Answered(ans) => {
                    let mut got: Vec<String> = (ans.groups.iter())
                        .map(|g| bits(&g.key, &g.estimates))
                        .collect();
                    got.sort();
                    prop_assert_eq!(&got, &want, "threads={}", threads);
                }
                Attempt::Declined { reason, .. } => {
                    prop_assert_eq!(totals.groups().len(), 0, "threads={}", threads);
                    let none = DeclineReason::InsufficientSupport { rows: 0, min_rows: 1 };
                    prop_assert_eq!(reason, none);
                }
            }
        }
    }
}
