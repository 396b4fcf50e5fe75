//! AMS "tug-of-war" sketch (Alon, Matias & Szegedy) for the second
//! frequency moment F₂ = Σ f_i².
//!
//! F₂ is the self-join size — the quantity whose sampling-resistance NSB
//! uses to explain why join cardinalities are hard to estimate from
//! samples. The AMS sketch estimates it in O(width·depth) space with a
//! medians-of-means guarantee.

use aqp_mergeable::MergeError;

use crate::hash::{hash_bytes, hash_with_seed, sign_of};

/// An AMS sketch: `depth` independent rows, each with `width` ±1 counters;
/// the estimate is the median over rows of the mean of squared counters.
#[derive(Debug, Clone, PartialEq)]
pub struct AmsSketch {
    width: usize,
    depth: usize,
    seed: u64,
    counters: Vec<i64>,
}

impl AmsSketch {
    /// Creates a sketch. Relative error ≈ O(1/√width) with failure
    /// probability shrinking exponentially in `depth`.
    ///
    /// # Panics
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "width and depth must be positive");
        Self {
            width,
            depth,
            seed,
            counters: vec![0; width * depth],
        }
    }

    /// Width (estimators averaged per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Depth (rows medianed over).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.counters.len() * 8
    }

    /// Inserts an item with multiplicity `count`.
    pub fn insert(&mut self, item: &[u8], count: i64) {
        self.insert_hashed(hash_bytes(item), count);
    }

    /// Inserts a pre-hashed item.
    pub fn insert_hashed(&mut self, item_hash: u64, count: i64) {
        for row in 0..self.depth {
            for col in 0..self.width {
                let cell_seed = self.seed ^ ((row * self.width + col) as u64);
                let s = sign_of(hash_with_seed(item_hash, cell_seed));
                self.counters[row * self.width + col] += s * count;
            }
        }
    }

    /// F₂ estimate: median over rows of the mean of squared counters.
    pub fn estimate_f2(&self) -> f64 {
        let mut row_means: Vec<f64> = (0..self.depth)
            .map(|row| {
                let mean: f64 = (0..self.width)
                    .map(|col| {
                        let c = self.counters[row * self.width + col] as f64;
                        c * c
                    })
                    .sum::<f64>()
                    / self.width as f64;
                mean
            })
            .collect();
        row_means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
        let m = row_means.len();
        if m % 2 == 1 {
            row_means[m / 2]
        } else {
            (row_means[m / 2 - 1] + row_means[m / 2]) / 2.0
        }
    }

    /// Merges an identically configured sketch (stream concatenation).
    /// Returns a typed error on configuration mismatch.
    pub fn merge(&mut self, other: &AmsSketch) -> Result<(), MergeError> {
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed) {
            return Err(MergeError::Incompatible {
                kind: "ams",
                expected: format!("{}x{} seed {}", self.width, self.depth, self.seed),
                found: format!("{}x{} seed {}", other.width, other.depth, other.seed),
            });
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        Ok(())
    }

    /// Codec accessor: the hash seed.
    pub fn seed_for_codec(&self) -> u64 {
        self.seed
    }

    /// Codec accessor: the raw counter array (row-major depth × width).
    pub fn counters_for_codec(&self) -> &[i64] {
        &self.counters
    }

    /// Codec constructor: reassembles a sketch from its raw parts.
    /// Returns `None` when the counter array does not match the declared
    /// dimensions.
    pub fn from_codec_parts(
        width: usize,
        depth: usize,
        seed: u64,
        counters: Vec<i64>,
    ) -> Option<Self> {
        if width == 0 || depth == 0 || counters.len() != width * depth {
            return None;
        }
        Some(Self {
            width,
            depth,
            seed,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_f2(freqs: &[i64]) -> f64 {
        freqs.iter().map(|&f| (f * f) as f64).sum()
    }

    #[test]
    fn uniform_stream_estimate() {
        // 200 keys × 50 occurrences: F2 = 200·2500 = 500k.
        let mut ams = AmsSketch::new(64, 7, 1);
        for i in 0..10_000u64 {
            ams.insert(&(i % 200).to_le_bytes(), 1);
        }
        let est = ams.estimate_f2();
        let truth = exact_f2(&vec![50; 200]);
        assert!((est - truth).abs() / truth < 0.4, "est {est} truth {truth}");
    }

    #[test]
    fn skewed_stream_estimate() {
        // One key with 1000, 100 keys with 10: F2 = 1e6 + 1e4.
        let mut ams = AmsSketch::new(128, 9, 2);
        for _ in 0..1000 {
            ams.insert(b"heavy", 1);
        }
        for i in 0..100u64 {
            for _ in 0..10 {
                ams.insert(&i.to_le_bytes(), 1);
            }
        }
        let truth = 1_000_000.0 + 10_000.0;
        let est = ams.estimate_f2();
        assert!((est - truth).abs() / truth < 0.3, "est {est}");
    }

    #[test]
    fn singleton_f2() {
        let mut ams = AmsSketch::new(32, 5, 3);
        ams.insert(b"only", 7);
        // Single item: every counter is ±7, so every estimate is exactly 49.
        assert_eq!(ams.estimate_f2(), 49.0);
    }

    #[test]
    fn empty_f2_is_zero() {
        assert_eq!(AmsSketch::new(8, 3, 0).estimate_f2(), 0.0);
    }

    #[test]
    fn wider_reduces_spread() {
        // Spread of estimates across seeds shrinks with width.
        let spread = |width: usize| -> f64 {
            let mut estimates = Vec::new();
            for seed in 0..10 {
                let mut ams = AmsSketch::new(width, 1, seed);
                for i in 0..2_000u64 {
                    ams.insert(&(i % 50).to_le_bytes(), 1);
                }
                estimates.push(ams.estimate_f2());
            }
            let mean: f64 = estimates.iter().sum::<f64>() / estimates.len() as f64;
            (estimates
                .iter()
                .map(|e| (e - mean) * (e - mean))
                .sum::<f64>()
                / estimates.len() as f64)
                .sqrt()
        };
        assert!(spread(256) < spread(4));
    }

    #[test]
    fn merge_is_stream_concat() {
        let mut a = AmsSketch::new(32, 5, 9);
        let mut b = AmsSketch::new(32, 5, 9);
        let mut whole = AmsSketch::new(32, 5, 9);
        for i in 0..1000u64 {
            let item = (i % 30).to_le_bytes();
            if i % 2 == 0 {
                a.insert(&item, 1);
            } else {
                b.insert(&item, 1);
            }
            whole.insert(&item, 1);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_mismatch_without_panicking() {
        let mut a = AmsSketch::new(32, 5, 1);
        let snapshot = a.clone();
        let err = a.merge(&AmsSketch::new(32, 5, 2)).unwrap_err();
        assert!(
            matches!(err, MergeError::Incompatible { kind: "ams", .. }),
            "{err}"
        );
        assert_eq!(a, snapshot, "failed merge must leave self unchanged");
    }
}
