//! E7 — *Online aggregation converges as 1/√n with a live interval, but
//! full accuracy requires touching everything; ripple joins converge more
//! slowly* (NSB §2.2).
//!
//! Part A: progressive AVG over 1M skewed rows — CI width vs fraction
//! processed, with the 1/√n reference curve.
//! Part B: ripple-join SUM over lineitem ⋈ orders — error vs fraction
//! consumed. The ripple join lives here, not in `aqp-core`: no routed
//! family uses it.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use aqp_bench::TablePrinter;
use aqp_core::{AggQuery, OnlineAggregator};
use aqp_engine::agg::KeyAtom;
use aqp_engine::{AggExpr, Query};
use aqp_expr::col;
use aqp_storage::{Catalog, StorageError, Table};
use aqp_workload::{build_star_schema, skewed_table, StarScale};

/// A ripple join: both inputs are consumed in random row order, and the
/// join's SUM is estimated from the seen-so-far corner of the cross
/// product. Converges to the exact join sum when both sides are fully
/// consumed; convergence is slow when key-match density is low — the
/// behaviour E7b measures.
struct RippleJoin {
    left: Vec<(KeyAtom, f64)>,
    right: Vec<KeyAtom>,
    l_seen: usize,
    r_seen: usize,
    /// key → Σ measure over seen left rows.
    left_sums: HashMap<KeyAtom, f64>,
    /// key → count of seen right rows.
    right_counts: HashMap<KeyAtom, f64>,
    matched_sum: f64,
}

impl RippleJoin {
    /// Prepares a ripple join of `left.key = right.key`, summing
    /// `left.measure` over the join result.
    fn new(
        left: &Table,
        left_key: &str,
        measure: &str,
        right: &Table,
        right_key: &str,
        seed: u64,
    ) -> Result<Self, StorageError> {
        let lk = left.schema().index_of(left_key)?;
        let lm = left.schema().index_of(measure)?;
        let rk = right.schema().index_of(right_key)?;
        let mut lrows = Vec::with_capacity(left.row_count());
        for (_, block) in left.iter_blocks() {
            for i in 0..block.len() {
                lrows.push((
                    KeyAtom::from_value(&block.column(lk).get(i)),
                    block.column(lm).f64_at(i).unwrap_or(0.0),
                ));
            }
        }
        let mut rrows = Vec::with_capacity(right.row_count());
        for (_, block) in right.iter_blocks() {
            for i in 0..block.len() {
                rrows.push(KeyAtom::from_value(&block.column(rk).get(i)));
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        lrows.shuffle(&mut rng);
        rrows.shuffle(&mut rng);
        Ok(Self {
            left: lrows,
            right: rrows,
            l_seen: 0,
            r_seen: 0,
            left_sums: HashMap::new(),
            right_counts: HashMap::new(),
            matched_sum: 0.0,
        })
    }

    /// Consumes up to `batch` rows from each side. Returns `false` when
    /// both sides are exhausted.
    fn step(&mut self, batch: usize) -> bool {
        let mut advanced = false;
        for _ in 0..batch {
            if let Some((k, m)) = self.left.get(self.l_seen).cloned() {
                self.matched_sum += m * self.right_counts.get(&k).copied().unwrap_or(0.0);
                *self.left_sums.entry(k).or_insert(0.0) += m;
                self.l_seen += 1;
                advanced = true;
            }
            if let Some(k) = self.right.get(self.r_seen).cloned() {
                self.matched_sum += self.left_sums.get(&k).copied().unwrap_or(0.0);
                *self.right_counts.entry(k).or_insert(0.0) += 1.0;
                self.r_seen += 1;
                advanced = true;
            }
        }
        advanced
    }

    /// Fractions of each side consumed.
    fn progress(&self) -> (f64, f64) {
        (
            self.l_seen as f64 / self.left.len().max(1) as f64,
            self.r_seen as f64 / self.right.len().max(1) as f64,
        )
    }

    /// Running estimate of `SUM(measure)` over the full join: the seen
    /// corner scaled by `(N_l/k_l)·(N_r/k_r)`.
    fn estimate_sum(&self) -> f64 {
        if self.l_seen == 0 || self.r_seen == 0 {
            return 0.0;
        }
        let scale = (self.left.len() as f64 / self.l_seen as f64)
            * (self.right.len() as f64 / self.r_seen as f64);
        self.matched_sum * scale
    }
}

fn main() {
    println!("E7a: online aggregation convergence (AVG over 1M skewed rows)\n");
    let catalog = Catalog::new();
    let table = catalog
        .register(skewed_table("t", 1_000_000, 100, 1.0, 1024, 9))
        .unwrap();
    let v = table.column_f64("v").unwrap();
    let truth = v.iter().sum::<f64>() / v.len() as f64;

    let plan = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::avg(col("v"), "avg")])
        .build();
    let query = AggQuery::from_plan(&plan).unwrap();
    let mut ola = OnlineAggregator::new(&catalog, &query, 4).unwrap();
    let total_blocks = table.block_count();
    let p = TablePrinter::new(
        &[
            "fraction",
            "estimate",
            "CI half-width %",
            "1/sqrt(n) ref %",
            "rel err %",
        ],
        &[9, 12, 16, 16, 10],
    );
    let mut first_width: Option<(f64, f64)> = None;
    for &frac in &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0] {
        let target = ((total_blocks as f64 * frac) as usize).max(2);
        while ola.blocks_processed() < target {
            if !ola.step().unwrap() {
                break;
            }
        }
        let e = ola.estimates()[0].1[0];
        let ci = e.ci(0.95);
        let width_pct = 100.0 * ci.relative_half_width();
        let reference = match first_width {
            None => {
                first_width = Some((frac, width_pct));
                width_pct
            }
            Some((f0, w0)) => {
                // 1/√n scaling with the fpc of sampling without replacement.
                let fpc = |f: f64| ((1.0 - f).max(0.0)).sqrt();
                w0 * (f0 / frac).sqrt() * fpc(frac) / fpc(f0)
            }
        };
        p.row(&[
            format!("{:.0}%", frac * 100.0),
            format!("{:.3}", e.value),
            format!("{width_pct:.3}"),
            format!("{reference:.3}"),
            format!("{:.4}", 100.0 * e.relative_error(truth)),
        ]);
    }

    println!("\nE7b: ripple join convergence (SUM(l_price) over lineitem ⋈ orders)\n");
    let catalog = Catalog::new();
    build_star_schema(&catalog, &StarScale::small(), 5).unwrap();
    let lineitem = catalog.get("lineitem").unwrap();
    let orders = catalog.get("orders").unwrap();
    let truth: f64 = lineitem.column_f64("l_price").unwrap().iter().sum();
    let mut rj = RippleJoin::new(&lineitem, "l_orderkey", "l_price", &orders, "o_key", 21).unwrap();
    let p = TablePrinter::new(
        &["progress L", "progress R", "estimate", "rel err %"],
        &[10, 10, 16, 10],
    );
    loop {
        let advanced = rj.step(10_000);
        let (pl, pr) = rj.progress();
        p.row(&[
            format!("{:.0}%", pl * 100.0),
            format!("{:.0}%", pr * 100.0),
            format!("{:.0}", rj.estimate_sum()),
            format!("{:.3}", 100.0 * (rj.estimate_sum() - truth).abs() / truth),
        ]);
        if !advanced {
            break;
        }
    }
    println!(
        "\nClaim check: the single-table CI tracks the 1/√n reference and \
         collapses to zero only at\n100% — OLA's speedup is the user's \
         willingness to stop early. The ripple join needs a far\nlarger \
         fraction for the same error: join sampling is harder, per CMN99."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, Field, Schema, TableBuilder, Value};

    #[test]
    fn ripple_join_converges_to_exact() {
        // left: 2000 rows keyed 0..100 with measure; right: 500 rows keyed 0..100.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("m", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("l", schema);
        for i in 0..2000i64 {
            b.push_row(&[Value::Int64(i % 100), Value::Float64((i % 7) as f64)])
                .unwrap();
        }
        let left = b.finish();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let mut b = TableBuilder::new("r", schema);
        for i in 0..500i64 {
            b.push_row(&[Value::Int64(i % 100)]).unwrap();
        }
        let right = b.finish();
        // Exact: every left row matches 5 right rows.
        let truth: f64 = (0..2000).map(|i| ((i % 7) as f64) * 5.0).sum();
        let mut rj = RippleJoin::new(&left, "k", "m", &right, "k", 7).unwrap();
        while rj.step(100) {}
        assert!((rj.estimate_sum() - truth).abs() < 1e-6);
        assert_eq!(rj.progress(), (1.0, 1.0));
    }

    #[test]
    fn ripple_join_partial_estimate_reasonable() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("m", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("l", schema);
        for i in 0..10_000i64 {
            b.push_row(&[Value::Int64(i % 50), Value::Float64(1.0)])
                .unwrap();
        }
        let left = b.finish();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let mut b = TableBuilder::new("r", schema);
        for i in 0..10_000i64 {
            b.push_row(&[Value::Int64(i % 50)]).unwrap();
        }
        let right = b.finish();
        let truth = 10_000.0 * 200.0; // each left row matches 200 right rows
        let mut rj = RippleJoin::new(&left, "k", "m", &right, "k", 3).unwrap();
        for _ in 0..10 {
            rj.step(100);
        }
        let est = rj.estimate_sum();
        assert!(
            (est - truth).abs() / truth < 0.3,
            "partial ripple estimate {est} vs {truth}"
        );
    }
}
