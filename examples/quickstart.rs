//! Quickstart: open an `AqpSession`, ask an aggregation query with an
//! error contract, and let the router pick the cheapest technique whose
//! guarantee covers it — orders of magnitude cheaper than the exact scan.
//!
//! ```sh
//! cargo run --release -p aqp-bench --example quickstart
//! ```

use aqp_core::{AqpSession, ErrorSpec, ExecutionPath};
use aqp_engine::{execute, AggExpr, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::uniform_table;

fn main() {
    // 1. Load data: a 2M-row table of measurements split into 1024-row
    //    blocks (blocks are the unit of I/O, like database pages).
    let catalog = Catalog::new();
    println!("generating 2,000,000 rows ...");
    catalog
        .register(uniform_table("readings", 2_000_000, 1024, 42))
        .unwrap();

    // 2. The question: total of `v` over the half of the table selected by
    //    the predicate, to within ±2% with 95% confidence.
    let plan = Query::scan("readings")
        .filter(col("sel").lt(lit(0.5)))
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "total")])
        .build();
    let spec = ErrorSpec::new(0.02, 0.95);

    // 3. Exact baseline.
    let start = std::time::Instant::now();
    let exact = execute(&plan, &catalog).unwrap();
    let exact_wall = start.elapsed();
    let truth = exact.rows()[0][0].as_f64().unwrap();
    println!("\nexact answer : {truth:.2}");
    println!(
        "exact cost   : {} rows scanned in {exact_wall:?}",
        exact.stats().rows_scanned
    );

    // 4. One front door: the session reads every family's eligibility off
    //    one static analysis and routes to the first that can answer.
    let session = AqpSession::new(&catalog);
    let answer = session.answer(&plan, &spec, 7).unwrap();
    let routing = answer.report.routing.as_ref().unwrap();
    println!("\nrouting      : {}", routing.summary());
    println!("winner       : {}", routing.winner);

    let est = answer.scalar_estimate("total").unwrap();
    let ci = &answer.global().intervals[0];
    println!(
        "\napprox answer: {:.2}  (95% CI [{:.2}, {:.2}])",
        est.value, ci.lo, ci.hi
    );
    println!(
        "approx cost  : {} rows scanned ({:.2}% of the table) in {:?}",
        answer.report.rows_scanned,
        100.0 * answer.report.touched_fraction(),
        answer.report.wall,
    );
    match &answer.report.path {
        ExecutionPath::OnlineBlockSample {
            pilot_rate,
            final_rate,
        } => println!("plan         : pilot at {pilot_rate:.3}, final block rate {final_rate:.4}"),
        other => println!("plan         : {other:?}"),
    }
    println!(
        "\nachieved error: {:.3}% (contract: ≤ {:.1}%)",
        100.0 * est.relative_error(truth),
        100.0 * spec.relative_error,
    );
    assert!(ci.contains(truth), "the interval should cover the truth");
}
