//! Measure-biased (probability-proportional-to-size) sampling with
//! replacement, and the Hansen–Hurwitz estimator.
//!
//! The offline trick behind Sample+Seek-style systems: sample rows with
//! probability proportional to a *measure* column. For `SUM(measure)`
//! itself every draw contributes exactly the population total, so the
//! estimator has **zero variance**; for measures correlated with the
//! biased one the variance is still far below uniform sampling. The cost
//! is workload commitment (the bias bakes in one measure) and a full
//! offline pass to compute the sampling probabilities — the same
//! maintenance trap as every pre-computed synopsis.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use aqp_stats::Estimate;
use aqp_storage::{StorageError, Table, TableBuilder};

/// A PPS-with-replacement sample: `n` independent draws, row `i` drawn
/// with probability `|measure_i| / Σ|measure|` per draw.
#[derive(Debug, Clone)]
pub struct PpsSample {
    /// The sampled rows (duplicates possible — draws are independent).
    pub table: Table,
    /// Per-draw inclusion probability of the drawn row.
    pub draw_probs: Vec<f64>,
    /// The biased measure column.
    pub measure: String,
    /// Population row count.
    pub population_rows: u64,
}

/// Draws a PPS-with-replacement sample of `n` rows biased by `measure`.
///
/// Rows whose measure is zero (or NULL) are never drawn; they contribute
/// nothing to any SUM over a non-negative measure, so the estimator stays
/// unbiased for sums of functions that vanish with the measure. For
/// general aggregates over other columns, prefer a uniform design.
///
/// # Panics
/// Panics if `n == 0`.
pub fn pps_sample(
    table: &Table,
    measure: &str,
    n: usize,
    seed: u64,
) -> Result<PpsSample, StorageError> {
    assert!(n > 0, "sample size must be positive");
    let idx = table.schema().index_of(measure)?;
    // Offline pass: cumulative |measure| per row.
    let mut cumulative = Vec::with_capacity(table.row_count());
    let mut total = 0.0f64;
    for (_, block) in table.iter_blocks() {
        let col = block.column(idx);
        for i in 0..block.len() {
            total += col.f64_at(i).unwrap_or(0.0).abs();
            cumulative.push(total);
        }
    }
    let mut builder = TableBuilder::with_block_capacity(
        format!("{}__pps_{measure}", table.name()),
        table.schema().as_ref().clone(),
        table.block_capacity(),
    );
    let mut draw_probs = Vec::with_capacity(n);
    if total > 0.0 {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..n {
            let u = rng.gen::<f64>() * total;
            let row = cumulative
                .partition_point(|&c| c <= u)
                .min(cumulative.len() - 1);
            let mass = cumulative[row] - if row == 0 { 0.0 } else { cumulative[row - 1] };
            let (bi, ri) = table.locate_row(row);
            builder.gather_row(table.block(bi), ri);
            draw_probs.push(mass / total);
        }
    }
    Ok(PpsSample {
        table: builder.finish(),
        draw_probs,
        measure: measure.to_string(),
        population_rows: table.row_count() as u64,
    })
}

impl PpsSample {
    /// Number of draws.
    fn num_draws(&self) -> usize {
        self.table.row_count()
    }

    /// Hansen–Hurwitz estimate of `SUM(f)` over the population:
    /// `(1/n)·Σ f_i/p_i` with variance `s²(f/p)/n`.
    pub fn estimate_sum_with(
        &self,
        f: &mut dyn FnMut(&aqp_storage::Block, usize) -> f64,
    ) -> Estimate {
        let n = self.num_draws();
        if n == 0 {
            return Estimate::new(0.0, f64::MAX, 0);
        }
        let mut terms = Vec::with_capacity(n);
        let mut global = 0usize;
        for (_, block) in self.table.iter_blocks() {
            for i in 0..block.len() {
                let p = self.draw_probs[global];
                terms.push(if p > 0.0 { f(block, i) / p } else { 0.0 });
                global += 1;
            }
        }
        let mean = terms.iter().sum::<f64>() / n as f64;
        let variance = if n >= 2 {
            let ss: f64 = terms.iter().map(|t| (t - mean) * (t - mean)).sum();
            ss / ((n - 1) as f64 * n as f64)
        } else {
            f64::MAX
        };
        Estimate::new(mean, variance, n as u64)
    }

    /// Convenience: estimated population SUM of a column.
    pub fn estimate_sum(&self, column: &str) -> Result<Estimate, StorageError> {
        let idx = self.table.schema().index_of(column)?;
        Ok(self.estimate_sum_with(&mut |b, i| b.column(idx).f64_at(i).unwrap_or(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bernoulli::bernoulli_rows;
    use aqp_storage::{DataType, Field, Schema, Value};

    /// Heavy-tailed measure + a correlated and an independent column.
    fn table(n: usize, seed: u64) -> Table {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schema = Schema::new(vec![
            Field::new("m", DataType::Float64),
            Field::new("corr", DataType::Float64),
            Field::new("indep", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 256);
        for _ in 0..n {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let m = u.powf(-1.0 / 1.5); // Pareto-ish
            b.push_row(&[
                Value::Float64(m),
                Value::Float64(2.0 * m + rng.gen::<f64>()),
                Value::Float64(rng.gen::<f64>() * 100.0),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn zero_variance_for_the_biased_measure() {
        let t = table(50_000, 1);
        let truth: f64 = t.column_f64("m").unwrap().iter().sum();
        let s = pps_sample(&t, "m", 100, 7).unwrap();
        let e = s.estimate_sum("m").unwrap();
        // Every HH term equals the total exactly.
        assert!((e.value - truth).abs() / truth < 1e-9);
        assert!(e.variance < 1e-12 * truth * truth);
    }

    #[test]
    fn crushes_uniform_on_correlated_measures() {
        let t = table(50_000, 2);
        let truth: f64 = t.column_f64("corr").unwrap().iter().sum();
        // 500 PPS draws vs a 1% (≈500-row) uniform sample.
        let pps = pps_sample(&t, "m", 500, 3).unwrap();
        let pps_est = pps.estimate_sum("corr").unwrap();
        let uni = bernoulli_rows(&t, 0.01, 3);
        let uni_est = uni.estimate_sum("corr").unwrap();
        assert!(pps_est.relative_error(truth) < 0.05);
        assert!(
            pps_est.variance < uni_est.variance / 10.0,
            "pps var {} vs uniform var {}",
            pps_est.variance,
            uni_est.variance
        );
    }

    #[test]
    fn unbiased_across_seeds_for_uncorrelated_measures() {
        // Still unbiased for an independent column — just not better.
        let t = table(20_000, 5);
        let truth: f64 = t.column_f64("indep").unwrap().iter().sum();
        let mut total = 0.0;
        let trials = 200;
        for seed in 0..trials {
            total += pps_sample(&t, "m", 400, seed)
                .unwrap()
                .estimate_sum("indep")
                .unwrap()
                .value;
        }
        let mean = total / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean {mean} truth {truth}"
        );
    }

    #[test]
    fn ci_covers_truth() {
        let t = table(30_000, 8);
        let truth: f64 = t.column_f64("corr").unwrap().iter().sum();
        let mut hits = 0;
        let trials = 100;
        for seed in 0..trials {
            let s = pps_sample(&t, "m", 300, seed).unwrap();
            if s.estimate_sum("corr").unwrap().ci(0.95).contains(truth) {
                hits += 1;
            }
        }
        assert!(hits >= 88, "coverage {hits}/{trials}");
    }

    #[test]
    fn zero_measure_table() {
        let schema = Schema::new(vec![Field::new("m", DataType::Float64)]);
        let mut b = TableBuilder::new("z", schema);
        for _ in 0..10 {
            b.push_row(&[Value::Float64(0.0)]).unwrap();
        }
        let t = b.finish();
        let s = pps_sample(&t, "m", 5, 0).unwrap();
        assert_eq!(s.num_draws(), 0);
        assert_eq!(s.estimate_sum("m").unwrap().value, 0.0);
    }

    #[test]
    fn missing_column_errors() {
        let t = table(100, 0);
        assert!(pps_sample(&t, "zzz", 10, 0).is_err());
    }
}
