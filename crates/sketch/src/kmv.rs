//! KMV (K-Minimum Values) distinct-count sketch (Bar-Yossef et al.).
//!
//! Keeps the k smallest hash values seen; if the k-th smallest maps to
//! position `u ∈ (0,1)` on the unit interval, the distinct count is about
//! `(k−1)/u`. KMV supports *set operations* (intersection/union estimates)
//! that HLL cannot do directly — which is why theta-sketch families build
//! on it.

use std::collections::BTreeSet;

use aqp_mergeable::MergeError;

use crate::hash::hash_bytes;

/// A KMV sketch retaining the `k` minimum hashes.
#[derive(Debug, Clone, PartialEq)]
pub struct KmvSketch {
    k: usize,
    mins: BTreeSet<u64>,
}

impl KmvSketch {
    /// Creates a sketch with parameter `k` (relative error ≈ 1/√(k−2)).
    ///
    /// # Panics
    /// Panics if `k < 3`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 3, "k must be at least 3, got {k}");
        Self {
            k,
            mins: BTreeSet::new(),
        }
    }

    /// The sketch parameter k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Memory footprint in bytes (retained hashes only).
    pub fn size_bytes(&self) -> usize {
        self.mins.len() * 8
    }

    /// Analytic relative standard error ≈ 1/√(k−2).
    pub fn relative_error(&self) -> f64 {
        1.0 / ((self.k - 2) as f64).sqrt()
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: &[u8]) {
        self.insert_hashed(hash_bytes(item));
    }

    /// Inserts a pre-hashed item.
    pub fn insert_hashed(&mut self, h: u64) {
        if self.mins.len() < self.k {
            self.mins.insert(h);
        } else if let Some(&max) = self.mins.iter().next_back() {
            if h < max && self.mins.insert(h) {
                self.mins.remove(&max);
            }
        }
    }

    /// Distinct-count estimate: exact below k, `(k−1)/u_k` above.
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        let kth = *self.mins.iter().next_back().expect("k >= 3 and full");
        let u = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / u
    }

    /// Merges another sketch (same k): union of hash sets, re-trimmed.
    /// Returns a typed error if `k` differs.
    pub fn merge(&mut self, other: &KmvSketch) -> Result<(), MergeError> {
        if self.k != other.k {
            return Err(MergeError::Incompatible {
                kind: "kmv",
                expected: format!("k {}", self.k),
                found: format!("k {}", other.k),
            });
        }
        for &h in &other.mins {
            self.insert_hashed(h);
        }
        Ok(())
    }

    /// Number of retained hashes (≤ k).
    pub fn num_retained(&self) -> usize {
        self.mins.len()
    }

    /// Jaccard-similarity estimate between two sketches (same k): the
    /// fraction of the combined k minimum values present in both.
    pub fn jaccard(&self, other: &KmvSketch) -> f64 {
        assert_eq!(self.k, other.k, "Jaccard requires equal k");
        // k smallest of the union.
        let union: Vec<u64> = self
            .mins
            .iter()
            .chain(other.mins.iter())
            .copied()
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .take(self.k)
            .collect();
        if union.is_empty() {
            return 0.0;
        }
        let both = union
            .iter()
            .filter(|h| self.mins.contains(h) && other.mins.contains(h))
            .count();
        both as f64 / union.len() as f64
    }

    /// Distinct count of the intersection, via Jaccard × union estimate.
    /// # Panics
    /// Panics if `k` differs (via [`KmvSketch::jaccard`]).
    pub fn intersection_estimate(&self, other: &KmvSketch) -> f64 {
        let mut union = self.clone();
        union
            .merge(other)
            .expect("jaccard already requires equal k");
        self.jaccard(other) * union.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(range: std::ops::Range<u64>, k: usize) -> KmvSketch {
        let mut s = KmvSketch::new(k);
        for i in range {
            s.insert(&i.to_le_bytes());
        }
        s
    }

    #[test]
    fn exact_below_k() {
        let s = filled(0..50, 256);
        assert_eq!(s.estimate(), 50.0);
    }

    #[test]
    fn accuracy_above_k() {
        for &n in &[10_000u64, 100_000] {
            let s = filled(0..n, 1024);
            let rel = (s.estimate() - n as f64).abs() / n as f64;
            assert!(rel < 5.0 * s.relative_error(), "n={n} rel={rel}");
        }
    }

    #[test]
    fn duplicates_ignored() {
        let mut s = KmvSketch::new(64);
        for _ in 0..10 {
            for i in 0..40u64 {
                s.insert(&i.to_le_bytes());
            }
        }
        assert_eq!(s.estimate(), 40.0);
    }

    #[test]
    fn bounded_memory() {
        let s = filled(0..1_000_000, 512);
        assert!(s.size_bytes() <= 512 * 8);
    }

    #[test]
    fn merge_estimates_union() {
        let b = filled(40_000..100_000, 1024);
        let mut u = filled(0..60_000, 1024);
        u.merge(&b).unwrap();
        let est = u.estimate();
        assert!((est - 100_000.0).abs() / 100_000.0 < 0.15, "est {est}");
    }

    #[test]
    fn jaccard_estimates_overlap() {
        // |A|=|B|=60k, |A∩B|=20k, |A∪B|=100k → J = 0.2.
        let a = filled(0..60_000, 2048);
        let b = filled(40_000..100_000, 2048);
        let j = a.jaccard(&b);
        assert!((j - 0.2).abs() < 0.05, "jaccard {j}");
        let inter = a.intersection_estimate(&b);
        assert!(
            (inter - 20_000.0).abs() / 20_000.0 < 0.3,
            "intersection {inter}"
        );
    }

    #[test]
    fn jaccard_identical_and_disjoint() {
        let a = filled(0..10_000, 512);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
        let b = filled(50_000..60_000, 512);
        assert!(a.jaccard(&b) < 0.02);
    }

    #[test]
    fn merge_rejects_mismatch_without_panicking() {
        let mut a = KmvSketch::new(64);
        let snapshot = a.clone();
        let err = a.merge(&KmvSketch::new(128)).unwrap_err();
        assert!(
            matches!(err, MergeError::Incompatible { kind: "kmv", .. }),
            "{err}"
        );
        assert_eq!(a, snapshot, "failed merge must leave self unchanged");
    }

    #[test]
    #[should_panic(expected = "k must be at least 3")]
    fn k_lower_bound() {
        KmvSketch::new(2);
    }
}
