//! Fixed-size simple random sampling: reservoir sampling over rows.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use aqp_storage::{Table, TableBuilder};

use crate::design::{RowWeights, Sample, SampleDesign};

/// Algorithm-R reservoir sampling: a uniform simple random sample of
/// exactly `min(n, rows)` rows, in one pass over the table.
///
/// # Panics
/// Panics if `n == 0`.
pub fn reservoir_rows(table: &Table, n: usize, seed: u64) -> Sample {
    assert!(n > 0, "reservoir size must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    // The reservoir stores (block, row) coordinates to defer materialization.
    let mut reservoir: Vec<(usize, usize)> = Vec::with_capacity(n);
    let mut seen = 0usize;
    for (bi, block) in table.iter_blocks() {
        for ri in 0..block.len() {
            if reservoir.len() < n {
                reservoir.push((bi, ri));
            } else {
                let j = rng.gen_range(0..=seen);
                if j < n {
                    reservoir[j] = (bi, ri);
                }
            }
            seen += 1;
        }
    }
    let population = table.row_count();
    let mut builder = TableBuilder::with_block_capacity(
        format!("{}__srs_{n}", table.name()),
        table.schema().as_ref().clone(),
        table.block_capacity(),
    );
    for &(bi, ri) in &reservoir {
        builder.gather_row(table.block(bi), ri);
    }
    let actual = reservoir.len();
    Sample {
        table: builder.finish(),
        design: SampleDesign::FixedSizeRows {
            population_rows: population as u64,
        },
        weights: RowWeights::Uniform(if actual == 0 {
            1.0
        } else {
            population as f64 / actual as f64
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, Field, Schema, Value};

    fn table(n: usize, cap: usize) -> Table {
        let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, cap);
        for i in 0..n {
            b.push_row(&[Value::Float64(i as f64)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn reservoir_exact_size() {
        let t = table(10_000, 128);
        let s = reservoir_rows(&t, 500, 1);
        assert_eq!(s.num_rows(), 500);
    }

    #[test]
    fn reservoir_caps_at_population() {
        let t = table(10, 4);
        let s = reservoir_rows(&t, 100, 1);
        assert_eq!(s.num_rows(), 10);
        // Census → zero variance.
        assert_eq!(s.estimate_sum("v").unwrap().variance, 0.0);
    }

    #[test]
    fn reservoir_is_uniform() {
        // Every row should appear with roughly equal frequency across seeds.
        let t = table(100, 16);
        let mut counts = vec![0u32; 100];
        let trials = 2000;
        for seed in 0..trials {
            let s = reservoir_rows(&t, 10, seed);
            for v in s.table.column_f64("v").unwrap() {
                counts[v as usize] += 1;
            }
        }
        // Expected count = trials * 10 / 100 = 200; allow ±40%.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (120..=280).contains(&c),
                "row {i} appeared {c} times (expected ~200)"
            );
        }
    }

    #[test]
    fn reservoir_estimate_accuracy() {
        let t = table(10_000, 128);
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let s = reservoir_rows(&t, 2000, 3);
        let e = s.estimate_sum("v").unwrap();
        // 20% SRS of a uniform 0..10000 sequence: well within 5%.
        assert!(e.relative_error(truth) < 0.05);
        // CI at 99% should cover the truth for this seed.
        assert!(e.ci(0.99).contains(truth));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_reservoir_rejected() {
        reservoir_rows(&table(10, 4), 0, 0);
    }

    #[test]
    fn reservoir_is_deterministic_per_seed() {
        let t = table(5_000, 64);
        let a = reservoir_rows(&t, 100, 42).table.column_f64("v").unwrap();
        let b = reservoir_rows(&t, 100, 42).table.column_f64("v").unwrap();
        let c = reservoir_rows(&t, 100, 43).table.column_f64("v").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
