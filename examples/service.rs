//! Service tour: one shared `AqpService` front door serving concurrent
//! clients — the plan cache amortizing the routing deliberation across a
//! repeated dashboard workload, contract admission accepting or rejecting
//! queries *before* execution, and the bounded queue refusing (not
//! silently queueing) work it cannot take.
//!
//! ```sh
//! cargo run --release -p aqp-bench --example service
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use aqp_core::{AqpService, Contract, ServiceConfig, ServiceReply};
use aqp_engine::{AggExpr, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::skewed_table;

fn main() {
    // A skewed fact table: 300k rows, 12 Zipf(1.0) groups, 256-row blocks.
    let catalog = Catalog::new();
    println!("generating 300,000 rows ...");
    catalog
        .register(skewed_table("orders", 300_000, 12, 1.0, 256, 7))
        .unwrap();

    // The dashboard workload: two grouped aggregates and one total,
    // asked over and over by every client.
    let plans = [
        Query::scan("orders")
            .filter(col("sel").lt(lit(0.8)))
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::sum(col("v"), "s")],
            )
            .build(),
        Query::scan("orders")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "total")])
            .build(),
        Query::scan("orders")
            .filter(col("sel").lt(lit(0.5)))
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::avg(col("v"), "a")],
            )
            .build(),
    ];

    // ---- 1. Concurrent clients over one shared service -----------------
    let service = AqpService::new(&catalog);
    let contract = Contract::new(0.15, 0.9);
    let total = 48;
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let plan = &plans[i % plans.len()];
                service
                    .submit(plan, &contract, (i % 5) as u64)
                    .expect("submit")
                    .answered()
                    .expect("admitted");
            });
        }
    });
    let stats = service.stats();
    println!(
        "\n-- 4 clients x {} queries through one service --",
        total / 4
    );
    println!(
        "admission : accepted={} rejected={}",
        stats.accepted, stats.rejected
    );
    println!(
        "plan cache: hits={} misses={} stale={} (the deliberation — lint and pilot\n            planning — ran in full only on the misses)",
        stats.cache_hits, stats.cache_misses, stats.cache_stale
    );

    // ---- 2. The admission row in EXPLAIN ANALYZE ------------------------
    let reply = service.submit(&plans[0], &contract, 1).expect("submit");
    if let ServiceReply::Answered(answer) = reply {
        let explain = answer.report.explain_analyze();
        let admission = explain
            .lines()
            .find(|l| l.starts_with("admission:"))
            .expect("service answers carry an admission row");
        println!("\n-- a warm query's admission row --\n{admission}");
    }

    // ---- 3. Rejections are answers: deadline, queue --------------------
    println!("\n-- two ways to be refused --");
    // An impossible deadline: the cached wall estimate sinks it upfront.
    let hurried = Contract::new(0.15, 0.9).with_deadline(Duration::from_nanos(1));
    report_refusal("deadline ", service.submit(&plans[0], &hurried, 2));

    // A full bounded queue: one slot, no waiting room — a query colliding
    // with a resident one is told "no" now, not "later" after queueing.
    // The resident is a heavy exact aggregate (one group per row) so it
    // reliably holds the slot while we collide with it.
    catalog
        .register(aqp_workload::uniform_table("big", 1_000_000, 4096, 3))
        .unwrap();
    let heavy = Query::scan("big")
        .aggregate(
            vec![(col("id"), "id".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    let one_slot = AqpService::with_config(
        &catalog,
        Default::default(),
        ServiceConfig {
            max_inflight: 1,
            queue_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            one_slot
                .submit(&heavy, &Contract::new(0.05, 0.95), 1)
                .expect("resident query")
                .answered()
                .expect("slot holder completes");
        });
        // Wait (bounded) until the resident actually holds the slot.
        for _ in 0..50_000 {
            if one_slot.stats().inflight > 0 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        report_refusal("queue    ", one_slot.submit(&plans[1], &contract, 2));
    });
}

fn report_refusal(label: &str, reply: Result<ServiceReply, aqp_core::AqpError>) {
    match reply.expect("submit") {
        ServiceReply::Rejected(rejection) => println!("{label}: rejected — {rejection}"),
        ServiceReply::Answered(answer) => println!(
            "{label}: admitted after all ({} rows scanned)",
            answer.report.rows_scanned
        ),
    }
}
