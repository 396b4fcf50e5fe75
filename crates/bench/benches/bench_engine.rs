//! Criterion benches for the exact engine: the baseline whose cost every
//! AQP speedup in this repository is measured against. They print and
//! write nothing else; the enforced kernel-vs-scalar bound lives in
//! `bench_gates`, and thread scaling, routing and lint cost are per-layer
//! metrics of the repo benchmark (`benchmark/README.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aqp_bench::{engine_bench_catalog, kernel_plans};
use aqp_engine::{execute, execute_with, AggExpr, ExecOptions, Query};
use aqp_expr::{col, lit};

fn bench_scan_aggregate(c: &mut Criterion) {
    let catalog = engine_bench_catalog();
    let mut g = c.benchmark_group("engine/scan_aggregate");
    for selectivity in [1.0f64, 0.1, 0.001] {
        let plan = Query::scan("t")
            .filter(col("sel").lt(lit(selectivity)))
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("sel={selectivity}")),
            &plan,
            |b, plan| b.iter(|| execute(plan, &catalog).unwrap()),
        );
    }
    g.finish();
}

fn bench_group_by(c: &mut Criterion) {
    let catalog = engine_bench_catalog();
    // Group cardinality via id % k.
    let mut g = c.benchmark_group("engine/group_by");
    for k in [10i64, 1_000, 100_000] {
        let plan = Query::scan("t")
            .aggregate(
                vec![(col("id").modulo(lit(k)), "g".to_string())],
                vec![AggExpr::count_star("n"), AggExpr::avg(col("v"), "a")],
            )
            .build();
        g.bench_with_input(BenchmarkId::from_parameter(k), &plan, |b, plan| {
            b.iter(|| execute(plan, &catalog).unwrap())
        });
    }
    g.finish();
}

/// Kernel path (zone maps + fused masks + typed accumulators) against the
/// scalar `eval` fallback, single thread, on the plans the kernels cover.
fn bench_kernels(c: &mut Criterion) {
    let catalog = engine_bench_catalog();
    for (name, plan) in kernel_plans() {
        let mut g = c.benchmark_group(format!("engine/kernels/{name}"));
        for kernels in [false, true] {
            let opts = ExecOptions::serial()
                .with_kernels(kernels)
                .with_zone_pruning(kernels);
            g.bench_with_input(
                BenchmarkId::from_parameter(if kernels { "kernel" } else { "scalar" }),
                &opts,
                |b, &opts| b.iter(|| execute_with(&plan, &catalog, opts).unwrap()),
            );
        }
        g.finish();
    }
}

criterion_group!(benches, bench_scan_aggregate, bench_group_by, bench_kernels);
criterion_main!(benches);
