//! The skew toolkit: what to reach for when uniform sampling fails.
//!
//! One heavy-tailed sales table, four tools — a plain uniform sample (the
//! failure), an outlier index, a measure-biased (PPS) sample, and the
//! distinct sampler — and what the uniform sample says about itself: its
//! own SUM/COUNT/AVG estimators, each with the interval that shows how
//! far the tail lets it be trusted.
//!
//! ```sh
//! cargo run --release -p aqp-bench --example skew_toolkit
//! ```

use aqp_sampling::{bernoulli_rows, build_outlier_index, distinct_sample, pps_sample};
use aqp_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use aqp_workload::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sales table where 1% of orders carry most of the revenue and
/// customers are Zipf-active.
fn sales(n: usize, seed: u64) -> Table {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut customers = Zipf::new(5_000, 1.2, seed ^ 0xC);
    let schema = Schema::new(vec![
        Field::new("customer", DataType::Int64),
        Field::new("revenue", DataType::Float64),
    ]);
    let mut b = TableBuilder::with_block_capacity("sales", schema, 512);
    for _ in 0..n {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        b.push_row(&[
            Value::Int64(customers.sample() as i64),
            Value::Float64(u.powf(-1.0 / 1.4)), // Pareto revenue
        ])
        .unwrap();
    }
    b.finish()
}

fn main() {
    const N: usize = 1_000_000;
    println!("generating {N} heavy-tailed sales rows ...\n");
    let table = sales(N, 7);
    let truth: f64 = table.column_f64("revenue").unwrap().iter().sum();
    println!("exact SUM(revenue) = {truth:.0}\n");

    // Tool 0 (the failure): a 2% uniform sample.
    let uni = bernoulli_rows(&table, 0.02, 3);
    let e = uni.estimate_sum("revenue").unwrap();
    println!(
        "uniform 2%          : {:>14.0}  (err {:+.1}%, rel-SE {:.1}%) ← swings wildly with the tail",
        e.value,
        100.0 * (e.value - truth) / truth,
        100.0 * e.relative_std_err()
    );

    // Tool 1: outlier index — top 1% exact, 1% sample of the rest.
    let oi = build_outlier_index(&table, "revenue", 0.01, 0.01, 3).unwrap();
    let e = oi.estimate_sum().unwrap();
    println!(
        "outlier index 1%+1% : {:>14.0}  (err {:+.2}%, rel-SE {:.2}%) from {} stored rows",
        e.value,
        100.0 * (e.value - truth) / truth,
        100.0 * e.relative_std_err(),
        oi.stored_rows()
    );

    // Tool 2: measure-biased sampling — 1 000 PPS draws.
    let pps = pps_sample(&table, "revenue", 1_000, 3).unwrap();
    let e = pps.estimate_sum("revenue").unwrap();
    println!(
        "PPS 1000 draws      : {:>14.0}  (err {:+.2e}%, zero variance on its own measure)",
        e.value,
        100.0 * (e.value - truth) / truth
    );

    // Tool 3: distinct sampler — every customer represented.
    let ds = distinct_sample(&table, &["customer"], 2, 0.005, 3).unwrap();
    let mut seen = std::collections::HashSet::new();
    for c in ds.table.column_f64("customer").unwrap() {
        seen.insert(c as i64);
    }
    println!(
        "distinct cap-2      : every active customer present ({} keys in {} rows)",
        seen.len(),
        ds.num_rows()
    );

    // The uniform design's own estimators: every answer carries the
    // interval that shows how far the heavy tail lets it be trusted.
    println!("\n== the uniform 2% sample's own estimators, 95% intervals ==\n");
    let show = |name: &str, e: aqp_stats::Estimate, truth: f64| {
        let ci = e.ci(0.95);
        println!(
            "{name:<6}: {:>16.4}  [{:.4}, {:.4}]  truth {truth:.4} {}",
            e.value,
            ci.lo,
            ci.hi,
            if ci.contains(truth) {
                "inside"
            } else {
                "OUTSIDE"
            }
        );
    };
    show("total", uni.estimate_sum("revenue").unwrap(), truth);
    show("orders", uni.estimate_count(), N as f64);
    show(
        "avg",
        uni.estimate_avg("revenue").unwrap(),
        truth / N as f64,
    );
}
