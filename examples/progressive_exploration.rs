//! Interactive exploration with online aggregation: watch the running
//! estimate and its confidence interval tighten as random blocks stream
//! in, and stop when it is good enough. A ripple join over two tables
//! converges in experiment E7 (`exp_e07_ola`), which carries it.
//!
//! ```sh
//! cargo run --release -p aqp-bench --example progressive_exploration
//! ```

use aqp_core::{AggQuery, OnlineAggregator};
use aqp_engine::{AggExpr, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::skewed_table;

fn main() {
    // Single-table progressive AVG with a live interval.
    println!("== progressive AVG(v) WHERE sel < 0.3 over 1M skewed rows ==\n");
    let catalog = Catalog::new();
    let table = catalog
        .register(skewed_table("t", 1_000_000, 100, 1.1, 1024, 3))
        .unwrap();
    let truth = {
        let sel = table.column_f64("sel").unwrap();
        let v = table.column_f64("v").unwrap();
        let (mut s, mut n) = (0.0, 0.0);
        for (x, q) in v.iter().zip(&sel) {
            if *q < 0.3 {
                s += x;
                n += 1.0;
            }
        }
        s / n
    };
    println!("ground truth: {truth:.4}\n");
    let plan = Query::scan("t")
        .filter(col("sel").lt(lit(0.3)))
        .aggregate(vec![], vec![AggExpr::avg(col("v"), "avg")])
        .build();
    let query = AggQuery::from_plan(&plan).unwrap();
    let mut ola = OnlineAggregator::new(&catalog, &query, 17).unwrap();
    println!(
        "{:>9} {:>12} {:>24} {:>10}",
        "blocks", "estimate", "95% interval", "rel.width"
    );
    let checkpoints = [5, 10, 20, 40, 80, 160, 320, 640, 977];
    for &target in &checkpoints {
        while ola.blocks_processed() < target {
            if !ola.step().unwrap() {
                break;
            }
        }
        let e = ola.estimates()[0].1[0];
        let ci = e.ci(0.95);
        println!(
            "{:>9} {:>12.4} [{:>10.4}, {:>9.4}] {:>9.3}%",
            ola.blocks_processed(),
            e.value,
            ci.lo,
            ci.hi,
            100.0 * ci.relative_half_width(),
        );
        if ci.relative_half_width() < 0.002 && ola.fraction_processed() < 1.0 {
            println!(
                "          ^ good enough — an analyst would stop here, at {:.1}% of the data",
                100.0 * ola.fraction_processed()
            );
        }
    }
    println!(
        "\nfinal error vs truth: {:.5}%",
        100.0 * (ola.estimates()[0].1[0].value - truth).abs() / truth
    );
}
