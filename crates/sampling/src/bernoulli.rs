//! Bernoulli sampling at the row and block level.
//!
//! The pair of functions here is the smallest complete demonstration of
//! NSB's system-efficiency argument:
//!
//! * [`bernoulli_rows`] must visit **every row** of the table to flip its
//!   coin — a sample at rate 0.1% still costs a full scan.
//! * [`bernoulli_blocks`] flips one coin per **block** and never touches
//!   the rows of rejected blocks; the sampled table *shares* the selected
//!   blocks (`Arc`), so its cost is proportional to the sampled fraction.
//!   [`bernoulli_block_range`] is its general form, which lets a sample
//!   grow without redrawing the blocks it already has.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use aqp_storage::{Table, TableBuilder};

use crate::design::{RowWeights, Sample, SampleDesign};

/// Row-level Bernoulli(rate) sampling.
///
/// Every row is independently included with probability `rate`. The
/// returned sample's rows are *copied* into fresh blocks — mirroring the
/// reality that row sampling materializes new pages.
///
/// # Panics
/// Panics if `rate` is outside `(0, 1]`.
pub fn bernoulli_rows(table: &Table, rate: f64, seed: u64) -> Sample {
    assert!(
        rate > 0.0 && rate <= 1.0,
        "rate must be in (0,1], got {rate}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = TableBuilder::with_block_capacity(
        format!("{}__rows_{rate}", table.name()),
        table.schema().as_ref().clone(),
        table.block_capacity(),
    );
    for (_, block) in table.iter_blocks() {
        for i in 0..block.len() {
            if rng.gen::<f64>() < rate {
                builder.gather_row(block, i);
            }
        }
    }
    Sample {
        table: builder.finish(),
        design: SampleDesign::BernoulliRows {
            rate,
            population_rows: table.row_count() as u64,
        },
        weights: RowWeights::Uniform(1.0 / rate),
    }
}

/// Block-level Bernoulli(rate) sampling: the `[0, rate)` case of
/// [`bernoulli_block_range`].
///
/// Every block is independently included with probability `rate`; selected
/// blocks are shared by reference (zero copy), rejected blocks are never
/// read. This is the `TABLESAMPLE SYSTEM` analogue.
///
/// # Panics
/// Panics if `rate` is outside `(0, 1]`.
pub fn bernoulli_blocks(table: &Table, rate: f64, seed: u64) -> Sample {
    bernoulli_block_range(table, 0.0, rate, seed)
}

/// The blocks whose seeded uniform draw `u` falls in `[lo, hi)`.
///
/// One uniform is drawn per block in table order, so under one seed the
/// ranges nest: `[0, a)` and `[a, b)` partition `[0, b)`'s blocks. A
/// sample grown from rate `a` to `b` folds only the `[a, b)` blocks, and
/// the union is exactly `bernoulli_blocks(table, b, seed)`. On its own the
/// range is a Bernoulli block sample at rate `hi − lo`.
///
/// # Panics
/// Panics unless `0 ≤ lo < hi ≤ 1`.
pub fn bernoulli_block_range(table: &Table, lo: f64, hi: f64, seed: u64) -> Sample {
    assert!(
        0.0 <= lo && lo < hi && hi <= 1.0,
        "rate must be in (0,1], got [{lo}, {hi})"
    );
    let rate = hi - lo;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut blocks = Vec::new();
    for (_, block) in table.iter_blocks() {
        let u = rng.gen::<f64>();
        if lo <= u && u < hi {
            blocks.push(std::sync::Arc::clone(block));
        }
    }
    let sampled = Table::from_blocks(
        format!("{}__blocks_{rate}", table.name()),
        std::sync::Arc::clone(table.schema()),
        blocks,
        table.block_capacity(),
    );
    Sample {
        table: sampled,
        design: SampleDesign::BernoulliBlocks {
            rate,
            population_blocks: table.block_count() as u64,
            population_rows: table.row_count() as u64,
        },
        weights: RowWeights::Uniform(1.0 / rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, Field, Schema, Value};
    use std::sync::Arc;

    fn table(n: usize, cap: usize) -> Table {
        let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, cap);
        for i in 0..n {
            b.push_row(&[Value::Float64(i as f64)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn row_sample_size_near_expectation() {
        let t = table(10_000, 128);
        let s = bernoulli_rows(&t, 0.1, 42);
        let n = s.num_rows() as f64;
        assert!((800.0..1200.0).contains(&n), "n = {n}");
    }

    #[test]
    fn row_sample_deterministic_by_seed() {
        let t = table(1000, 64);
        let a = bernoulli_rows(&t, 0.2, 7);
        let b = bernoulli_rows(&t, 0.2, 7);
        assert_eq!(a.num_rows(), b.num_rows());
        let c = bernoulli_rows(&t, 0.2, 8);
        // Different seed, almost surely different selection.
        assert_ne!(
            a.table.column_f64("v").unwrap(),
            c.table.column_f64("v").unwrap()
        );
    }

    #[test]
    fn block_sample_shares_arcs() {
        let t = table(1000, 100);
        let s = bernoulli_blocks(&t, 0.5, 3);
        // Every sampled block must be pointer-identical to a population block.
        for sb in s.table.blocks() {
            assert!(t.blocks().iter().any(|tb| Arc::ptr_eq(tb, sb)));
        }
        assert!(s.table.block_count() > 0);
        assert!(s.table.block_count() < t.block_count());
    }

    #[test]
    fn block_sample_estimates_unbiased_across_seeds() {
        let t = table(10_000, 100);
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let mut total = 0.0;
        let trials = 200;
        for seed in 0..trials {
            let s = bernoulli_blocks(&t, 0.2, seed);
            total += s.estimate_sum("v").unwrap().value;
        }
        let mean = total / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.05,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn row_sample_estimates_unbiased_across_seeds() {
        let t = table(5_000, 100);
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let mut total = 0.0;
        let trials = 200;
        for seed in 0..trials {
            total += bernoulli_rows(&t, 0.1, seed)
                .estimate_sum("v")
                .unwrap()
                .value;
        }
        let mean = total / trials as f64;
        assert!((mean - truth).abs() / truth < 0.05);
    }

    #[test]
    fn full_rate_is_identity() {
        let t = table(100, 16);
        let s = bernoulli_blocks(&t, 1.0, 0);
        assert_eq!(s.num_rows(), 100);
        let e = s.estimate_sum("v").unwrap();
        assert_eq!(e.variance, 0.0);
        let s = bernoulli_rows(&t, 1.0, 0);
        assert_eq!(s.num_rows(), 100);
    }

    #[test]
    #[should_panic(expected = "rate must be in (0,1]")]
    fn rejects_zero_rate() {
        bernoulli_rows(&table(10, 4), 0.0, 0);
    }

    /// Growing a sample from rate `a` to `b` draws exactly the blocks a
    /// fresh sample at `b` would, each once.
    #[test]
    fn block_ranges_nest() {
        let t = table(20_000, 16);
        for seed in 0..20 {
            let ptrs = |s: &Sample| -> Vec<*const aqp_storage::Block> {
                s.table.blocks().iter().map(Arc::as_ptr).collect()
            };
            let mut grown = ptrs(&bernoulli_block_range(&t, 0.0, 0.05, seed));
            grown.extend(ptrs(&bernoulli_block_range(&t, 0.05, 0.2, seed)));
            grown.sort();
            let mut fresh = ptrs(&bernoulli_blocks(&t, 0.2, seed));
            fresh.sort();
            assert!(!fresh.is_empty());
            assert_eq!(grown, fresh, "seed {seed}");
        }
    }

    #[test]
    fn design_flags() {
        let t = table(100, 16);
        assert!(bernoulli_rows(&t, 0.5, 0).design.scans_everything());
        assert!(!bernoulli_blocks(&t, 0.5, 0).design.scans_everything());
    }
}
