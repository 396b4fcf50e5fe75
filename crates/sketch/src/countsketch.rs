//! Count-Sketch (Charikar, Chen & Farach-Colton).
//!
//! Unlike Count-Min's one-sided overestimate, Count-Sketch is an unbiased
//! two-sided estimator whose error scales with `√F₂` rather than `N` —
//! better on skewed data where a few heavy hitters dominate the stream.

use aqp_mergeable::MergeError;

use crate::hash::{hash_bytes, hash_with_seed, sign_of};

/// A Count-Sketch: `depth` rows of `width` signed counters; the estimate is
/// the median across rows of `sign · counter`.
#[derive(Debug, Clone, PartialEq)]
pub struct CountSketch {
    width: usize,
    depth: usize,
    seed: u64,
    counters: Vec<i64>,
    total: u64,
}

impl CountSketch {
    /// Creates a sketch with explicit dimensions (odd depth recommended so
    /// the median is a single row).
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
            total: 0,
        }
    }

    /// Width per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total insertions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.counters.len() * 8
    }

    /// Inserts an item with count `count`.
    pub fn insert(&mut self, item: &[u8], count: i64) {
        self.insert_hashed(hash_bytes(item), count);
    }

    /// Inserts a pre-hashed item.
    pub fn insert_hashed(&mut self, item_hash: u64, count: i64) {
        for row in 0..self.depth {
            let h = hash_with_seed(item_hash, self.seed ^ row as u64);
            let col = (h % self.width as u64) as usize;
            let s = sign_of(hash_with_seed(item_hash, self.seed ^ (row as u64) ^ 0xABCD));
            self.counters[row * self.width + col] += s * count;
        }
        self.total = self.total.saturating_add(count.unsigned_abs());
    }

    /// Unbiased point-frequency estimate (median across rows).
    pub fn estimate(&self, item: &[u8]) -> i64 {
        self.estimate_hashed(hash_bytes(item))
    }

    /// Estimate for a pre-hashed item.
    pub fn estimate_hashed(&self, item_hash: u64) -> i64 {
        let mut row_estimates: Vec<i64> = (0..self.depth)
            .map(|row| {
                let h = hash_with_seed(item_hash, self.seed ^ row as u64);
                let col = (h % self.width as u64) as usize;
                let s = sign_of(hash_with_seed(item_hash, self.seed ^ (row as u64) ^ 0xABCD));
                s * self.counters[row * self.width + col]
            })
            .collect();
        row_estimates.sort_unstable();
        let m = row_estimates.len();
        if m % 2 == 1 {
            row_estimates[m / 2]
        } else {
            (row_estimates[m / 2 - 1] + row_estimates[m / 2]) / 2
        }
    }

    /// Merges an identically configured sketch (stream concatenation).
    /// Returns a typed error on configuration mismatch.
    pub fn merge(&mut self, other: &CountSketch) -> Result<(), MergeError> {
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed) {
            return Err(MergeError::Incompatible {
                kind: "count-sketch",
                expected: format!("{}x{} seed {}", self.width, self.depth, self.seed),
                found: format!("{}x{} seed {}", other.width, other.depth, other.seed),
            });
        }
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
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
        total: u64,
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
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_sparse() {
        let mut cs = CountSketch::new(1024, 5, 1);
        cs.insert(b"a", 10);
        cs.insert(b"b", 3);
        assert_eq!(cs.estimate(b"a"), 10);
        assert_eq!(cs.estimate(b"b"), 3);
        assert_eq!(cs.estimate(b"absent"), 0);
    }

    #[test]
    fn supports_deletions() {
        let mut cs = CountSketch::new(256, 5, 2);
        cs.insert(b"x", 10);
        cs.insert(b"x", -4);
        assert_eq!(cs.estimate(b"x"), 6);
    }

    #[test]
    fn roughly_unbiased_on_heavy_stream() {
        let mut cs = CountSketch::new(256, 7, 3);
        for i in 0..50_000u64 {
            cs.insert(&(i % 500).to_le_bytes(), 1);
        }
        // Mean signed error over all keys should be near zero.
        let mean_err: f64 = (0..500u64)
            .map(|k| cs.estimate(&k.to_le_bytes()) as f64 - 100.0)
            .sum::<f64>()
            / 500.0;
        assert!(mean_err.abs() < 10.0, "mean error {mean_err}");
    }

    #[test]
    fn heavy_hitter_on_skew_beats_background() {
        // One key is 100× heavier; its estimate should be near-exact.
        let mut cs = CountSketch::new(512, 5, 4);
        for _ in 0..10_000 {
            cs.insert(b"heavy", 1);
        }
        for i in 0..1000u64 {
            cs.insert(&i.to_le_bytes(), 1);
        }
        let est = cs.estimate(b"heavy");
        assert!((est - 10_000).abs() < 500, "heavy estimate {est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = CountSketch::new(128, 5, 6);
        let mut b = CountSketch::new(128, 5, 6);
        let mut whole = CountSketch::new(128, 5, 6);
        for i in 0..400u64 {
            let item = (i % 23).to_le_bytes();
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
        let mut a = CountSketch::new(128, 5, 1);
        let snapshot = a.clone();
        let err = a.merge(&CountSketch::new(128, 5, 2)).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::Incompatible {
                    kind: "count-sketch",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(a, snapshot, "failed merge must leave self unchanged");
    }
}
