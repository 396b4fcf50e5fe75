//! Benchmarks the concurrent service front door and emits
//! `BENCH_server.json` at the workspace root:
//!
//! * **throughput** — a mixed workload (grouped/ungrouped, varying
//!   selectivity and error budgets) driven through one shared
//!   `AqpService` by 1, 2, 4, and 8 client threads; reports QPS and
//!   per-query latency p50/p99 at each level;
//! * **routing cost** — one routing decision cold (plan normalization +
//!   lint pass) versus warm (plan-cache fingerprint lookup). The cache must
//!   make the warm decision at least 5× cheaper — that is the entire
//!   point of memoizing the deliberation;
//! * **backpressure** — with one execution slot and a zero-length queue,
//!   queries colliding with a heavy resident query must be *rejected*,
//!   not silently queued.
//!
//! Exits non-zero when the cache speedup misses the 5× bar or the
//! bounded queue fails to reject.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use aqp_core::{AqpService, Contract, ErrorSpec, ServiceConfig};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

const ROWS: usize = 200_000;
const QUERIES_PER_CLIENT: usize = 60;
const CLIENT_LEVELS: [usize; 4] = [1, 2, 4, 8];
const ROUTE_REPS: usize = 200;
const MIN_CACHE_SPEEDUP: f64 = 5.0;

fn mixed_plans() -> Vec<(LogicalPlan, ErrorSpec)> {
    let grouped = |threshold: f64| {
        Query::scan("t")
            .filter(col("sel").lt(lit(threshold)))
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::sum(col("v"), "s")],
            )
            .build()
    };
    vec![
        (grouped(0.8), ErrorSpec::new(0.15, 0.9)),
        (grouped(0.4), ErrorSpec::new(0.3, 0.9)),
        (
            Query::scan("t")
                .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
                .build(),
            ErrorSpec::new(0.1, 0.95),
        ),
        (
            Query::scan("t")
                .filter(col("sel").lt(lit(0.6)))
                .aggregate(
                    vec![(col("g"), "g".to_string())],
                    vec![AggExpr::avg(col("v"), "a")],
                )
                .build(),
            ErrorSpec::new(0.2, 0.9),
        ),
    ]
}

fn main() {
    let catalog = Catalog::new();
    catalog
        .register(skewed_table("t", ROWS, 12, 1.0, 256, 7))
        .unwrap();
    let plans = mixed_plans();

    // ---- Throughput sweep ----
    let mut level_rows = Vec::with_capacity(CLIENT_LEVELS.len());
    for &clients in &CLIENT_LEVELS {
        let (qps, p50_us, p99_us) = throughput_at(&catalog, &plans, clients);
        println!(
            "bench_server: clients {clients}  qps {qps:>8.1}  p50 {p50_us:>7.1} us  \
             p99 {p99_us:>8.1} us"
        );
        level_rows.push(format!(
            "{{\"clients\": {clients}, \"qps\": {qps:.1}, \"p50_us\": {p50_us:.1}, \
             \"p99_us\": {p99_us:.1}}}"
        ));
    }

    // ---- Routing cost: cold vs cached ----
    // Routing cost is measured on a dashboard-shaped query (filter +
    // group-by + several aggregates): normalization and the lint pass
    // each walk the plan and consult catalog metadata, while a warm hit
    // is one fingerprint walk and a map lookup.
    let routed_plan = Query::scan("t")
        .filter(col("sel").lt(lit(0.7)).and(col("v").gt_eq(lit(0.0))))
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![
                AggExpr::sum(col("v"), "s"),
                AggExpr::avg(col("v"), "a"),
                AggExpr::count_star("n"),
            ],
        )
        .build();
    let (cold_us, cached_us) = route_cost(&catalog, &routed_plan, &plans[0].1);
    let speedup = cold_us / cached_us.max(1e-3);
    println!(
        "bench_server: route cold {cold_us:.1} us  cached {cached_us:.1} us  \
         speedup {speedup:.1}x"
    );

    // ---- Backpressure: bounded queue rejects under collision ----
    let rejected = backpressure_rejections(&catalog);
    println!("bench_server: bounded queue rejected {rejected} colliding queries");

    let json = format!(
        "{{\n  \"bench\": \"server\",\n  \"rows\": {ROWS},\n  \
         \"queries_per_client\": {QUERIES_PER_CLIENT},\n  \
         \"clients\": [\n    {}\n  ],\n  \
         \"cold_route_us\": {cold_us:.2},\n  \
         \"cached_route_us\": {cached_us:.2},\n  \
         \"cache_speedup\": {speedup:.1},\n  \
         \"rejected\": {rejected},\n  \
         \"acceptance\": \"cache_speedup >= {MIN_CACHE_SPEEDUP} && rejected >= 1\"\n}}\n",
        level_rows.join(",\n    "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, json).expect("write server bench report");
    eprintln!("wrote {path}");

    let mut failed = false;
    if speedup < MIN_CACHE_SPEEDUP {
        eprintln!(
            "bench_server: cached routing is only {speedup:.1}x cheaper than cold \
             (bar: {MIN_CACHE_SPEEDUP}x)"
        );
        failed = true;
    }
    if rejected == 0 {
        eprintln!("bench_server: bounded queue never rejected a colliding query");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_server: all checks passed");
}

/// Drives `clients` threads of the mixed workload through one shared
/// service (steady state: the cache is warmed first) and returns
/// (QPS, p50 µs, p99 µs) over the combined per-query latencies.
fn throughput_at(
    catalog: &Catalog,
    plans: &[(LogicalPlan, ErrorSpec)],
    clients: usize,
) -> (f64, f64, f64) {
    let service = AqpService::new(catalog);
    for (i, (plan, spec)) in plans.iter().enumerate() {
        service.answer(plan, spec, i as u64).expect("warmup answer");
    }
    let total = clients * QUERIES_PER_CLIENT;
    let next = AtomicUsize::new(0);
    let lat_us = std::sync::Mutex::new(Vec::with_capacity(total));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Vec::with_capacity(QUERIES_PER_CLIENT);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let (plan, spec) = &plans[i % plans.len()];
                    // A handful of distinct seeds: repeats replay cached
                    // pilot plans, fresh ones pay the pilot — both are
                    // normal steady-state traffic.
                    let seed = (i as u64) % 17;
                    let q_start = Instant::now();
                    service.answer(plan, spec, seed).expect("routed answer");
                    mine.push(q_start.elapsed().as_secs_f64() * 1e6);
                }
                lat_us.lock().expect("latency collector lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed();
    let mut lat = lat_us.into_inner().expect("latency collector");
    lat.sort_by(|a, b| a.total_cmp(b));
    let p = |q: f64| lat[((lat.len() as f64 * q) as usize).min(lat.len() - 1)];
    (total as f64 / wall.as_secs_f64(), p(0.50), p(0.99))
}

/// Median cost of one routing decision, cold (cache invalidated before
/// every call: normalization + lint pass) and warm (fingerprint lookup
/// + clone).
fn route_cost(catalog: &Catalog, plan: &LogicalPlan, spec: &ErrorSpec) -> (f64, f64) {
    let service = AqpService::new(catalog);
    // A production session carries synopses: the cold path then pays the
    // offline store's staleness accounting on every lint, exactly what
    // the cache exists to amortize.
    service
        .session()
        .offline()
        .build_stratified(catalog, "t", "g", 10_000, 5)
        .expect("stratified synopsis");
    let mut cold = Vec::with_capacity(ROUTE_REPS);
    for _ in 0..ROUTE_REPS {
        service.invalidate_cache();
        let start = Instant::now();
        std::hint::black_box(service.route(plan, spec));
        cold.push(start.elapsed());
    }
    let mut warm = Vec::with_capacity(ROUTE_REPS);
    service.route(plan, spec); // fill
    for _ in 0..ROUTE_REPS {
        let start = Instant::now();
        std::hint::black_box(service.route(plan, spec));
        warm.push(start.elapsed());
    }
    cold.sort();
    warm.sort();
    (
        cold[ROUTE_REPS / 2].as_secs_f64() * 1e6,
        warm[ROUTE_REPS / 2].as_secs_f64() * 1e6,
    )
}

/// One slot, zero queue: while a heavy exact aggregate (about a million
/// groups) holds the slot, colliding submissions must come back
/// `QueueFull`. Returns how many were rejected.
fn backpressure_rejections(catalog: &Catalog) -> u64 {
    catalog
        .register(uniform_table("big", 1_000_000, 4096, 3))
        .unwrap();
    let heavy = Query::scan("big")
        .aggregate(
            vec![(col("id"), "id".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    let service = AqpService::with_config(
        catalog,
        Default::default(),
        ServiceConfig {
            max_inflight: 1,
            queue_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            service
                .submit(&heavy, &Contract::new(0.05, 0.95), 1)
                .expect("heavy query")
                .answered()
                .expect("slot holder completes");
        });
        while service.stats().inflight == 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        // Concurrent colliders: with one slot and no queue, at most one
        // of these can ever execute, however the heavy query's timing
        // falls — the rest are rejected.
        let (svc, heavy) = (&service, &heavy);
        for seed in 2..5u64 {
            scope.spawn(move || {
                let reply = svc
                    .submit(heavy, &Contract::new(0.05, 0.95), seed)
                    .expect("colliding submit");
                std::hint::black_box(reply.rejection().is_some());
            });
        }
    });
    service.stats().rejected
}
