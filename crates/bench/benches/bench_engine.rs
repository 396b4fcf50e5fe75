//! Criterion benches for the exact engine: the baseline whose cost every
//! AQP speedup in this repository is measured against.

use std::time::Instant;

use aqp_obs::timing::median_us;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aqp_core::{AqpSession, CandidateOutcome, ErrorSpec};
use aqp_engine::{execute, execute_with, AggExpr, ExecOptions, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::{build_star_schema, skewed_table, uniform_table, StarScale};

fn catalog() -> Catalog {
    let c = Catalog::new();
    c.register(uniform_table("t", 500_000, 1024, 1)).unwrap();
    build_star_schema(&c, &StarScale::tiny(), 2).unwrap();
    c
}

fn bench_scan_aggregate(c: &mut Criterion) {
    let catalog = catalog();
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
    let catalog = catalog();
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

fn bench_hash_join(c: &mut Criterion) {
    let catalog = catalog();
    let plan = Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "s")])
        .build();
    c.bench_function("engine/fk_join_aggregate", |b| {
        b.iter(|| execute(&plan, &catalog).unwrap())
    });
}

/// The plans swept across thread counts: one scan-heavy fused pipeline,
/// one merge-heavy group-by, one two-phase join.
fn sweep_plans() -> Vec<(&'static str, LogicalPlan)> {
    vec![
        (
            "filter_sum",
            Query::scan("t")
                .filter(col("sel").lt(lit(0.5)))
                .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
                .build(),
        ),
        (
            "group_by_1k",
            Query::scan("t")
                .aggregate(
                    vec![(col("id").modulo(lit(1_000i64)), "g".to_string())],
                    vec![AggExpr::count_star("n"), AggExpr::avg(col("v"), "a")],
                )
                .build(),
        ),
        (
            "fk_join_sum",
            Query::scan("lineitem")
                .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
                .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "s")])
                .build(),
        ),
    ]
}

const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel_sweep(c: &mut Criterion) {
    let catalog = catalog();
    for (name, plan) in sweep_plans() {
        let mut g = c.benchmark_group(format!("engine/parallel/{name}"));
        for threads in SWEEP_THREADS {
            g.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        execute_with(&plan, &catalog, ExecOptions::with_threads(threads)).unwrap()
                    })
                },
            );
        }
        g.finish();
    }
    write_parallel_report(&catalog);
}

/// Emits `BENCH_engine_parallel.json` at the workspace root: median wall
/// time per (query, thread count) and the speedup of each thread count
/// over the serial path. The acceptance criterion — ≥2× at 4 threads —
/// applies on hosts with ≥4 cores; `host_cores` records what this run
/// actually had.
fn write_parallel_report(catalog: &Catalog) {
    const REPS: usize = 7;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut queries = Vec::new();
    for (name, plan) in sweep_plans() {
        let mut medians = Vec::new();
        for threads in SWEEP_THREADS {
            let opts = ExecOptions::with_threads(threads);
            execute_with(&plan, catalog, opts).unwrap(); // warm-up
            let (_, us) = median_us(REPS, || execute_with(&plan, catalog, opts).unwrap());
            medians.push((threads, us / 1e3));
        }
        let serial_ms = medians[0].1;
        let entries: Vec<String> = medians
            .iter()
            .map(|(t, ms)| {
                format!(
                    "{{\"threads\": {t}, \"median_ms\": {ms:.3}, \"speedup\": {:.3}}}",
                    serial_ms / ms
                )
            })
            .collect();
        queries.push(format!(
            "    {{\"query\": \"{name}\", \"sweep\": [{}]}}",
            entries.join(", ")
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"engine_parallel\",\n  \"host_cores\": {host_cores},\n  \
         \"acceptance\": \"speedup >= 2.0 at threads=4 on hosts with >= 4 cores\",\n  \
         \"queries\": [\n{}\n  ]\n}}\n",
        queries.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine_parallel.json"
    );
    std::fs::write(path, json).expect("write parallel bench report");
    eprintln!("wrote {path}");
}

/// The plans the kernel layer covers end-to-end, measured kernel-path vs
/// scalar fallback: the scan-heavy filter and the merge-heavy group-by
/// from the parallel sweep (the join is kernel-independent).
fn kernel_plans() -> Vec<(&'static str, LogicalPlan)> {
    let mut plans = sweep_plans();
    plans.truncate(2); // filter_sum, group_by_1k
    plans
}

fn bench_kernels(c: &mut Criterion) {
    let catalog = catalog();
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
    write_kernels_report(&catalog);
}

/// Emits `BENCH_engine_kernels.json` at the workspace root: single-thread
/// median wall time and per-row cost of the typed kernel path (zone maps +
/// fused masks + typed accumulators) against the scalar `eval` fallback on
/// the same plans. The acceptance criterion is a ≥2× single-thread
/// speedup on both covered sweep queries.
fn write_kernels_report(catalog: &Catalog) {
    const REPS: usize = 7;
    let rows = catalog.get("t").unwrap().row_count() as f64;
    let mut queries = Vec::new();
    let mut all_pass = true;
    for (name, plan) in kernel_plans() {
        let mut ms = [0.0f64; 2]; // [scalar, kernel]
        for (i, kernels) in [false, true].into_iter().enumerate() {
            let opts = ExecOptions::serial()
                .with_kernels(kernels)
                .with_zone_pruning(kernels);
            execute_with(&plan, catalog, opts).unwrap(); // warm-up
            let (_, us) = median_us(REPS, || {
                execute_with(&plan, catalog, opts).unwrap();
            });
            ms[i] = us / 1e3;
        }
        let speedup = ms[0] / ms[1];
        all_pass &= speedup >= 2.0;
        queries.push(format!(
            "    {{\"query\": \"{name}\", \"rows\": {rows:.0}, \
             \"scalar_median_ms\": {:.3}, \"kernel_median_ms\": {:.3}, \
             \"scalar_ns_per_row\": {:.2}, \"kernel_ns_per_row\": {:.2}, \
             \"speedup\": {speedup:.3}}}",
            ms[0],
            ms[1],
            ms[0] * 1e6 / rows,
            ms[1] * 1e6 / rows
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"engine_kernels\",\n  \"threads\": 1,\n  \
         \"acceptance\": \"kernel path >= 2x over scalar eval single-thread on covered plans\",\n  \
         \"within_budget\": {all_pass},\n  \"queries\": [\n{}\n  ]\n}}\n",
        queries.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine_kernels.json"
    );
    std::fs::write(path, json).expect("write kernels bench report");
    eprintln!("wrote {path}");
}

/// The query shapes the router is probed against: a synopsis hit, a
/// grouped ad-hoc predicate (online sampling), an ungrouped progressive
/// shape, and a plan no approximate family supports.
fn router_plans() -> Vec<(&'static str, LogicalPlan)> {
    vec![
        (
            "synopsis_hit",
            Query::scan("r")
                .aggregate(
                    vec![(col("g"), "g".to_string())],
                    vec![AggExpr::sum(col("v"), "s")],
                )
                .build(),
        ),
        (
            "adhoc_grouped",
            Query::scan("r")
                .filter(col("sel").lt(lit(0.5)))
                .aggregate(
                    vec![(col("g"), "g".to_string())],
                    vec![AggExpr::avg(col("v"), "a")],
                )
                .build(),
        ),
        (
            "ungrouped_sum",
            Query::scan("r")
                .filter(col("sel").lt(lit(0.5)))
                .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
                .build(),
        ),
        (
            "unsupported_min",
            Query::scan("r")
                .aggregate(vec![], vec![AggExpr::min(col("v"), "m")])
                .build(),
        ),
    ]
}

fn router_catalog() -> Catalog {
    let c = Catalog::new();
    c.register(skewed_table("r", 200_000, 50, 1.0, 1024, 13))
        .unwrap();
    c
}

fn bench_router(c: &mut Criterion) {
    let catalog = router_catalog();
    let session = AqpSession::new(&catalog);
    session
        .offline()
        .build_stratified(&catalog, "r", "g", 10_000, 1)
        .unwrap();
    let spec = ErrorSpec::new(0.05, 0.95);
    let mut g = c.benchmark_group("router/probe");
    for (name, plan) in router_plans() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, plan| {
            b.iter(|| session.probe(plan, &spec))
        });
    }
    g.finish();
    write_router_report(&catalog);
}

/// Emits `BENCH_router.json` at the workspace root: the median cost of
/// one `AqpSession::probe` (lint pass + verdict walk) per query shape, and
/// the routed-vs-direct overhead on the synopsis-hit path. The acceptance
/// criterion is that deciding a route — metadata-only by contract —
/// stays under a millisecond.
fn write_router_report(catalog: &Catalog) {
    const REPS: usize = 51;
    let session = AqpSession::new(catalog);
    session
        .offline()
        .build_stratified(catalog, "r", "g", 10_000, 1)
        .unwrap();
    let spec = ErrorSpec::new(0.05, 0.95);
    let mut shapes = Vec::new();
    for (name, plan) in router_plans() {
        let decision = session.probe(&plan, &spec); // warm-up
        let (_, probe_us) = median_us(REPS, || {
            session.probe(&plan, &spec);
        });
        shapes.push(format!(
            "    {{\"shape\": \"{name}\", \"winner\": \"{}\", \"probe_median_us\": {probe_us:.2}, \
             \"sub_millisecond\": {}}}",
            decision.winner,
            probe_us < 1_000.0
        ));
    }
    // Routed-vs-direct overhead on the cheapest path (synopsis hit), where
    // routing bookkeeping is proportionally largest.
    let (_, hit_plan) = router_plans().remove(0);
    session.answer(&hit_plan, &spec, 7).unwrap(); // warm-up
    let (_, routed_us) = median_us(REPS, || {
        session.answer(&hit_plan, &spec, 7).unwrap();
    });
    let hit_query = aqp_core::AggQuery::from_plan(&hit_plan).expect("normalized shape");
    let (_, direct_us) = median_us(REPS, || {
        session.offline().answer(&hit_query, &spec).unwrap();
    });
    let json = format!(
        "{{\n  \"bench\": \"router\",\n  \
         \"acceptance\": \"a routing decision (lint + verdict walk) is metadata-only and sub-millisecond\",\n  \
         \"shapes\": [\n{}\n  ],\n  \
         \"synopsis_hit_overhead\": {{\"routed_median_us\": {routed_us:.2}, \
         \"direct_median_us\": {direct_us:.2}, \"overhead_us\": {:.2}}}\n}}\n",
        shapes.join(",\n"),
        routed_us - direct_us
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_router.json");
    std::fs::write(path, json).expect("write router bench report");
    eprintln!("wrote {path}");
}

fn bench_lint(c: &mut Criterion) {
    let catalog = router_catalog();
    let session = AqpSession::new(&catalog);
    session
        .offline()
        .build_stratified(&catalog, "r", "g", 10_000, 1)
        .unwrap();
    let mut g = c.benchmark_group("lint/analyze");
    for (name, plan) in router_plans() {
        g.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, plan| {
            b.iter(|| session.lint_plan(plan))
        });
    }
    g.finish();
    write_lint_report(&catalog);
}

/// Emits `BENCH_lint.json` at the workspace root: the median cost of one
/// full static analysis per router query shape, and how many families
/// its verdicts rule out before anything runs. The acceptance criterion
/// is analysis under 10 µs/plan — metadata-only by contract.
fn write_lint_report(catalog: &Catalog) {
    const REPS: usize = 201;
    let session = AqpSession::new(catalog);
    session
        .offline()
        .build_stratified(catalog, "r", "g", 10_000, 1)
        .unwrap();
    let spec = ErrorSpec::new(0.05, 0.95);
    let mut shapes = Vec::new();
    let mut worst_us = 0.0f64;
    for (name, plan) in router_plans() {
        session.lint_plan(&plan); // warm-up
        let (analysis, lint_us) = median_us(REPS, || session.lint_plan(&plan));
        worst_us = worst_us.max(lint_us);
        let decision = session.probe(&plan, &spec);
        let blocked = decision
            .candidates
            .iter()
            .filter(|c| matches!(c.outcome, CandidateOutcome::StaticallyIneligible(_)))
            .count();
        shapes.push(format!(
            "    {{\"shape\": \"{name}\", \"lint_median_us\": {lint_us:.2}, \
             \"diagnostics\": {}, \"best_attainable\": \"{}\", \"families_blocked\": {blocked}}}",
            analysis.diagnostics.len(),
            analysis.best_attainable()
        ));
    }
    // The conformance source scan rides along: one full-workspace pass of
    // the C001-C007 linter (tokenize + rules over every crates/*/src file)
    // must stay under a 2 s wall budget so check.sh stays fast.
    let scan_cfg =
        aqp_conformance::ScanConfig::workspace(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let report = aqp_conformance::scan_workspace(&scan_cfg).expect("conformance scan");
    let (_, scan_us) = median_us(9, || {
        aqp_conformance::scan_workspace(&scan_cfg).expect("conformance scan")
    });
    let scan_ms = scan_us / 1e3;
    let json = format!(
        "{{\n  \"bench\": \"lint\",\n  \
         \"acceptance\": \"full static analysis under 10 us/plan\",\n  \
         \"worst_median_us\": {worst_us:.2},\n  \"within_budget\": {},\n  \
         \"conformance_scan\": {{\"scan_median_ms\": {scan_ms:.2}, \"files\": {}, \
         \"diagnostics\": {}, \"errors\": {}, \"budget_ms\": 2000, \"within_budget\": {}}},\n  \
         \"shapes\": [\n{}\n  ]\n}}\n",
        worst_us < 10.0,
        report.files,
        report.diagnostics.len(),
        report.errors(),
        scan_ms < 2000.0,
        shapes.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lint.json");
    std::fs::write(path, json).expect("write lint bench report");
    eprintln!("wrote {path}");
}

fn bench_obs_overhead(c: &mut Criterion) {
    let catalog = catalog();
    let plan = sweep_plans().swap_remove(1).1; // group_by_1k
    let opts = ExecOptions::with_threads(4);
    // Criterion only measures the untraced path; the traced cost is
    // measured with bounded reps in write_obs_report.
    c.bench_function("obs/disabled_group_by_1k", |b| {
        b.iter(|| execute_with(&plan, &catalog, opts).unwrap())
    });
    write_obs_report(&catalog);
}

/// Emits `BENCH_obs.json` at the workspace root: the aggregate-workload
/// cost outside vs inside a trace scope, the spans one query emits, the
/// tight-loop cost of an inert span, and the projected no-op overhead —
/// the acceptance criterion is that the untraced path costs <3% of the
/// bench_engine aggregate workload.
fn write_obs_report(catalog: &Catalog) {
    const REPS: usize = 15;
    let (name, plan) = sweep_plans().swap_remove(1); // group_by_1k
    let opts = ExecOptions::with_threads(4);
    execute_with(&plan, catalog, opts).unwrap(); // warm-up
    let (_, off_us) = median_us(REPS, || {
        execute_with(&plan, catalog, opts).unwrap();
    });
    let traced = || aqp_obs::capture(|| execute_with(&plan, catalog, opts).unwrap());
    let spans_per_query = traced().1.len();
    // Each timed run owns and takes its trace: the active cost includes
    // both recording and collection.
    let (_, on_us) = median_us(REPS, || {
        traced();
    });
    // Tight-loop cost of one inert span (open + drop).
    let iters = 200_000u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(aqp_obs::span("noop"));
    }
    let noop_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
    let projected_noop_pct = spans_per_query as f64 * noop_ns / (off_us * 1e3) * 100.0;
    let active_pct = (on_us - off_us) / off_us * 100.0;
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \
         \"acceptance\": \"disabled tracer costs <3% on the bench_engine aggregate workload\",\n  \
         \"workload\": \"{name}\",\n  \"threads\": 4,\n  \
         \"off_median_us\": {off_us:.2},\n  \"on_median_us\": {on_us:.2},\n  \
         \"spans_per_query\": {spans_per_query},\n  \"noop_span_ns\": {noop_ns:.2},\n  \
         \"projected_noop_overhead_pct\": {projected_noop_pct:.4},\n  \
         \"noop_within_budget\": {},\n  \
         \"active_collector_overhead_pct\": {active_pct:.2}\n}}\n",
        projected_noop_pct < 3.0
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, json).expect("write obs bench report");
    eprintln!("wrote {path}");
}

criterion_group!(
    benches,
    bench_scan_aggregate,
    bench_group_by,
    bench_hash_join,
    bench_parallel_sweep,
    bench_kernels,
    bench_router,
    bench_lint,
    bench_obs_overhead
);
criterion_main!(benches);
