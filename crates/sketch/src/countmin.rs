//! Count-Min sketch (Cormode & Muthukrishnan).

use aqp_mergeable::MergeError;

use crate::hash::{hash_bytes, hash_with_seed};

/// A Count-Min sketch: `depth` rows of `width` counters; point-frequency
/// estimates are one-sided over-estimates with
/// `P(err > εN) ≤ δ` for `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`.
#[derive(Debug, Clone, PartialEq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    seed: u64,
    counters: Vec<u64>, // row-major depth × width
    total: u64,
}

impl CountMinSketch {
    /// Creates a sketch with explicit dimensions.
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

    /// Width (counters per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Depth (number of rows).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total count inserted (N).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The analytic one-sided error bound `e/width · N`.
    pub fn error_bound(&self) -> f64 {
        std::f64::consts::E / self.width as f64 * self.total as f64
    }

    /// Memory footprint in bytes (counter array only).
    pub fn size_bytes(&self) -> usize {
        self.counters.len() * 8
    }

    /// Inserts an item (by bytes) with count `count`.
    pub fn insert(&mut self, item: &[u8], count: u64) {
        self.insert_hashed(hash_bytes(item), count);
    }

    /// Inserts a pre-hashed item.
    pub fn insert_hashed(&mut self, item_hash: u64, count: u64) {
        for row in 0..self.depth {
            let col =
                (hash_with_seed(item_hash, self.seed ^ row as u64) % self.width as u64) as usize;
            self.counters[row * self.width + col] += count;
        }
        self.total += count;
    }

    /// Point-frequency estimate (never underestimates).
    pub fn estimate(&self, item: &[u8]) -> u64 {
        self.estimate_hashed(hash_bytes(item))
    }

    /// Point-frequency estimate for a pre-hashed item.
    pub fn estimate_hashed(&self, item_hash: u64) -> u64 {
        let mut best = u64::MAX;
        for row in 0..self.depth {
            let col =
                (hash_with_seed(item_hash, self.seed ^ row as u64) % self.width as u64) as usize;
            best = best.min(self.counters[row * self.width + col]);
        }
        best
    }

    /// Estimates the inner product `Σ_k f(k)·g(k)` of two frequency
    /// vectors from their sketches — the **equi-join size** of the two
    /// streams on the sketched key (Cormode–Muthukrishnan §4.2). The
    /// estimate is the minimum over rows of the row-wise counter dot
    /// product; like point queries it never underestimates, with error at
    /// most `(e/width)·N₁·N₂` with probability `1 − δ^depth`-ish.
    ///
    /// # Panics
    /// Panics on dimension or seed mismatch.
    pub fn inner_product(&self, other: &CountMinSketch) -> u64 {
        assert_eq!(
            (self.width, self.depth, self.seed),
            (other.width, other.depth, other.seed),
            "inner product requires identically configured sketches"
        );
        (0..self.depth)
            .map(|row| {
                (0..self.width)
                    .map(|col| {
                        self.counters[row * self.width + col]
                            * other.counters[row * self.width + col]
                    })
                    .sum::<u64>()
            })
            .min()
            .unwrap_or(0)
    }

    /// Merges another sketch with identical dimensions and seed
    /// (counter-wise sum — exactly the sketch of the concatenated streams).
    /// Returns a typed error on dimension or seed mismatch.
    pub fn merge(&mut self, other: &CountMinSketch) -> Result<(), MergeError> {
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed) {
            return Err(MergeError::Incompatible {
                kind: "count-min",
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_underestimates() {
        let mut cm = CountMinSketch::new(64, 4, 1);
        for i in 0..1000u64 {
            cm.insert(&(i % 50).to_le_bytes(), 1);
        }
        for i in 0..50u64 {
            assert!(cm.estimate(&i.to_le_bytes()) >= 20);
        }
    }

    #[test]
    fn exact_when_sparse() {
        let mut cm = CountMinSketch::new(1024, 5, 2);
        cm.insert(b"a", 10);
        cm.insert(b"b", 3);
        assert_eq!(cm.estimate(b"a"), 10);
        assert_eq!(cm.estimate(b"b"), 3);
        assert_eq!(cm.estimate(b"absent"), 0);
    }

    #[test]
    fn error_within_analytic_bound() {
        // Zipf-ish stream, check ε·N bound holds for all queried items.
        // ε = δ = 1 %: width ⌈e/ε⌉ = 272, depth ⌈ln(1/δ)⌉ = 5.
        let mut cm = CountMinSketch::new(272, 5, 3);
        let mut truth = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            let key = (i % 200).pow(2) % 977; // lumpy distribution
            cm.insert(&key.to_le_bytes(), 1);
            *truth.entry(key).or_insert(0u64) += 1;
        }
        let bound = cm.error_bound();
        let mut violations = 0;
        for (k, &t) in &truth {
            let est = cm.estimate(&k.to_le_bytes());
            assert!(est >= t, "CM must not underestimate");
            if (est - t) as f64 > bound {
                violations += 1;
            }
        }
        // δ = 1% per item: allow a few violations out of ~170 keys.
        assert!(violations <= 5, "{violations} bound violations");
    }

    #[test]
    fn wider_is_more_accurate() {
        let items: Vec<u64> = (0..30_000).map(|i| i % 300).collect();
        let total_err = |width: usize| -> u64 {
            let mut cm = CountMinSketch::new(width, 4, 7);
            for &it in &items {
                cm.insert(&it.to_le_bytes(), 1);
            }
            (0..300u64)
                .map(|k| cm.estimate(&k.to_le_bytes()) - 100)
                .sum()
        };
        assert!(total_err(2048) <= total_err(64));
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = CountMinSketch::new(128, 4, 9);
        let mut b = CountMinSketch::new(128, 4, 9);
        let mut whole = CountMinSketch::new(128, 4, 9);
        for i in 0..500u64 {
            let item = (i % 37).to_le_bytes();
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
        let mut a = CountMinSketch::new(128, 4, 1);
        let snapshot = a.clone();
        let err = a.merge(&CountMinSketch::new(64, 4, 1)).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::Incompatible {
                    kind: "count-min",
                    ..
                }
            ),
            "{err}"
        );
        // Seed mismatch is just as fatal as a shape mismatch.
        assert!(a.merge(&CountMinSketch::new(128, 4, 2)).is_err());
        assert_eq!(a, snapshot, "failed merge must leave self unchanged");
    }

    #[test]
    fn inner_product_estimates_join_size() {
        // R has keys 0..100 with f(k) = 20; S has keys 50..150 with
        // g(k) = 5. Join size = Σ_{50..100} 20·5 = 5000.
        let mut r = CountMinSketch::new(2048, 5, 11);
        let mut s = CountMinSketch::new(2048, 5, 11);
        for k in 0..100u64 {
            r.insert(&k.to_le_bytes(), 20);
        }
        for k in 50..150u64 {
            s.insert(&k.to_le_bytes(), 5);
        }
        let est = r.inner_product(&s);
        assert!(est >= 5000, "never underestimates: {est}");
        assert!(
            // The one-sided bound (e/width)·N₁·N₂.
            (est as f64)
                <= 5000.0
                    + std::f64::consts::E / r.width() as f64 * r.total() as f64 * s.total() as f64,
            "est {est} above analytic bound"
        );
        // Wide sketch on small streams: should be nearly exact.
        assert!(est < 6000, "est {est}");
    }

    #[test]
    fn inner_product_disjoint_streams() {
        let mut r = CountMinSketch::new(4096, 5, 3);
        let mut s = CountMinSketch::new(4096, 5, 3);
        for k in 0..200u64 {
            r.insert(&k.to_le_bytes(), 1);
            s.insert(&(k + 10_000).to_le_bytes(), 1);
        }
        // Disjoint keys: true inner product 0; collisions keep it small.
        assert!(r.inner_product(&s) < 50);
    }

    #[test]
    #[should_panic(expected = "identically configured")]
    fn inner_product_rejects_mismatch() {
        let r = CountMinSketch::new(64, 4, 1);
        let s = CountMinSketch::new(64, 4, 2);
        r.inner_product(&s);
    }

    #[test]
    fn dimensions_set_footprint_and_error_bound() {
        // ε = 0.1 %, δ = 1 %: width ⌈e/ε⌉ = 2719, depth ⌈ln(1/δ)⌉ = 5.
        let mut cm = CountMinSketch::new(2719, 5, 0);
        assert_eq!((cm.width(), cm.depth()), (2719, 5));
        assert_eq!(cm.size_bytes(), 2719 * 5 * 8);
        assert_eq!(cm.error_bound(), 0.0);
        cm.insert(b"a", 600);
        cm.insert(b"b", 400);
        assert_eq!(cm.total(), 1000);
        assert!((cm.error_bound() - std::f64::consts::E / 2719.0 * 1000.0).abs() < 1e-12);
    }
}
