//! The outlier index (Chaudhuri, Das, Datar, Motwani & Narasayya, 2001):
//! keep the heavy tail of a measure column **exactly**, sample only the
//! well-behaved remainder.
//!
//! Uniform sampling's variance on skewed aggregates is dominated by the
//! few extreme rows — whether the sample happens to catch them swings the
//! estimate wildly. The outlier index removes exactly that term: the
//! top-fraction rows by |measure| are stored and aggregated exactly, and
//! the sampled remainder has bounded values, so its CLT interval is tight.
//! NSB lists this as the classical answer to skew within the
//! pre-computed-sample family (it shares that family's maintenance cost).

use aqp_stats::Estimate;
use aqp_storage::{StorageError, Table, TableBuilder};

use crate::bernoulli::bernoulli_rows;
use crate::design::Sample;

/// An outlier index over one measure column: exact outliers + a sampled
/// remainder.
#[derive(Debug, Clone)]
pub struct OutlierIndex {
    /// Rows whose |measure| is at or above the threshold (kept exactly).
    pub outliers: Table,
    /// Bernoulli row sample of the remaining rows.
    pub sample: Sample,
    /// The indexed measure column.
    pub column: String,
    /// |measure| threshold that separated outliers from the remainder.
    pub threshold: f64,
}

/// Builds an outlier index: the `outlier_fraction` rows with the largest
/// |column| values are stored exactly; the rest is Bernoulli-sampled at
/// `sample_rate`.
///
/// # Panics
/// Panics if `outlier_fraction` is outside [0, 1) or `sample_rate`
/// outside (0, 1].
pub fn build_outlier_index(
    table: &Table,
    column: &str,
    outlier_fraction: f64,
    sample_rate: f64,
    seed: u64,
) -> Result<OutlierIndex, StorageError> {
    assert!(
        (0.0..1.0).contains(&outlier_fraction),
        "outlier fraction must be in [0,1), got {outlier_fraction}"
    );
    assert!(
        sample_rate > 0.0 && sample_rate <= 1.0,
        "sample rate must be in (0,1], got {sample_rate}"
    );
    let idx = table.schema().index_of(column)?;
    // Find the |v| threshold for the requested tail mass.
    let mut magnitudes: Vec<f64> = Vec::with_capacity(table.row_count());
    for (_, block) in table.iter_blocks() {
        let col = block.column(idx);
        for i in 0..col.len() {
            magnitudes.push(col.f64_at(i).unwrap_or(0.0).abs());
        }
    }
    let k = ((table.row_count() as f64) * outlier_fraction).round() as usize;
    let threshold = if k == 0 {
        f64::INFINITY
    } else {
        let cut = magnitudes.len() - k;
        magnitudes.select_nth_unstable_by(cut, |a, b| a.partial_cmp(b).expect("finite magnitudes"));
        magnitudes[cut]
    };

    // Split the table.
    let mut outliers = TableBuilder::with_block_capacity(
        format!("{}__outliers", table.name()),
        table.schema().as_ref().clone(),
        table.block_capacity(),
    );
    let mut remainder = TableBuilder::with_block_capacity(
        format!("{}__remainder", table.name()),
        table.schema().as_ref().clone(),
        table.block_capacity(),
    );
    for (_, block) in table.iter_blocks() {
        let col = block.column(idx);
        for i in 0..block.len() {
            let mag = col.f64_at(i).unwrap_or(0.0).abs();
            if mag >= threshold {
                outliers.gather_row(block, i);
            } else {
                remainder.gather_row(block, i);
            }
        }
    }
    let remainder = remainder.finish();
    let sample = bernoulli_rows(&remainder, sample_rate, seed);
    Ok(OutlierIndex {
        outliers: outliers.finish(),
        sample,
        column: column.to_string(),
        threshold,
    })
}

impl OutlierIndex {
    /// Rows stored exactly plus rows sampled — the index's total footprint.
    pub fn stored_rows(&self) -> usize {
        self.outliers.row_count() + self.sample.num_rows()
    }

    /// Estimates the population SUM of the indexed column: exact outlier
    /// contribution plus the HT estimate over the remainder.
    pub fn estimate_sum(&self) -> Result<Estimate, StorageError> {
        let exact: f64 = self.outliers.column_f64(&self.column)?.iter().sum();
        let remainder = self.sample.estimate_sum(&self.column)?;
        Ok(Estimate::exact(exact).add_independent(&remainder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, Field, Schema, Value};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Lognormal-ish heavy-tailed data: a few rows dominate the SUM.
    fn heavy_tailed(n: usize, seed: u64) -> Table {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 256);
        for _ in 0..n {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            // Pareto tail with alpha ~1.3: occasional enormous values.
            let v = u.powf(-1.0 / 1.3);
            b.push_row(&[Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn splits_at_the_right_fraction() {
        let t = heavy_tailed(50_000, 1);
        let oi = build_outlier_index(&t, "v", 0.01, 0.05, 2).unwrap();
        let frac = oi.outliers.row_count() as f64 / 50_000.0;
        assert!((frac - 0.01).abs() < 0.002, "outlier fraction {frac}");
        // All outliers are at least as large as every remainder row.
        let min_outlier = oi
            .outliers
            .column_f64("v")
            .unwrap()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max_rest = oi
            .sample
            .table
            .column_f64("v")
            .unwrap()
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert!(min_outlier >= max_rest);
    }

    #[test]
    fn slashes_variance_on_heavy_tails() {
        let t = heavy_tailed(50_000, 3);
        // Plain 5% sample vs outlier index with 1% exact + 4% sample
        // (comparable storage).
        let plain = bernoulli_rows(&t, 0.05, 7);
        let plain_est = plain.estimate_sum("v").unwrap();
        let oi = build_outlier_index(&t, "v", 0.01, 0.04, 7).unwrap();
        let oi_est = oi.estimate_sum().unwrap();
        assert!(
            oi_est.variance < plain_est.variance / 4.0,
            "outlier index var {} should be far below plain var {}",
            oi_est.variance,
            plain_est.variance
        );
    }

    #[test]
    fn estimates_are_accurate_across_seeds() {
        let t = heavy_tailed(30_000, 5);
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let mut worst = 0.0f64;
        for seed in 0..20 {
            let oi = build_outlier_index(&t, "v", 0.02, 0.05, seed).unwrap();
            let e = oi.estimate_sum().unwrap();
            worst = worst.max(e.relative_error(truth));
        }
        assert!(worst < 0.1, "worst rel err {worst}");
    }

    #[test]
    fn zero_fraction_is_plain_sampling() {
        let t = heavy_tailed(5_000, 9);
        let oi = build_outlier_index(&t, "v", 0.0, 0.1, 3).unwrap();
        assert_eq!(oi.outliers.row_count(), 0);
        assert_eq!(oi.threshold, f64::INFINITY);
        assert!(oi.estimate_sum().unwrap().value > 0.0);
    }

    #[test]
    fn footprint_accounting() {
        let t = heavy_tailed(10_000, 15);
        let oi = build_outlier_index(&t, "v", 0.01, 0.05, 1).unwrap();
        assert_eq!(
            oi.stored_rows(),
            oi.outliers.row_count() + oi.sample.num_rows()
        );
        assert!(oi.stored_rows() < 2_000);
    }

    #[test]
    #[should_panic(expected = "outlier fraction")]
    fn rejects_bad_fraction() {
        let t = heavy_tailed(100, 0);
        let _ = build_outlier_index(&t, "v", 1.0, 0.1, 0);
    }

    #[test]
    fn full_rate_remainder_makes_the_sum_exact() {
        // The split loses no row: outliers plus a census of the remainder
        // give the population SUM with zero variance.
        let t = heavy_tailed(5_000, 21);
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let oi = build_outlier_index(&t, "v", 0.05, 1.0, 22).unwrap();
        assert_eq!(oi.stored_rows(), 5_000);
        let e = oi.estimate_sum().unwrap();
        assert!(
            (e.value - truth).abs() <= 1e-9 * truth,
            "{} vs {truth}",
            e.value
        );
        assert_eq!(e.variance, 0.0);
    }
}
