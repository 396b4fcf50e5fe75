//! Greenwald–Khanna ε-approximate quantile summary.
//!
//! Maintains `O((1/ε)·log(εn))` tuples such that any quantile query is
//! answered with rank error at most `εn` — the streaming alternative to
//! sorting that NSB lists among synopsis techniques for ORDER-BY-ish
//! aggregates (medians, percentile dashboards).

use aqp_mergeable::MergeError;

/// One summary tuple: a value, the minimum-rank gap `g`, and the rank
/// uncertainty `Δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GkTuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// A Greenwald–Khanna quantile summary with error parameter ε.
#[derive(Debug, Clone, PartialEq)]
pub struct GkQuantiles {
    eps: f64,
    n: u64,
    tuples: Vec<GkTuple>,
    since_compress: u64,
}

impl GkQuantiles {
    /// Creates a summary with rank-error parameter `eps` (e.g. 0.01 for
    /// 1%-of-n rank error).
    ///
    /// # Panics
    /// Panics if `eps` is outside (0, 0.5).
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "eps must be in (0, 0.5), got {eps}");
        Self {
            eps,
            n: 0,
            tuples: Vec::new(),
            since_compress: 0,
        }
    }

    /// Number of observations absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of retained tuples (the space cost).
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// The error parameter ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Inserts one observation.
    ///
    /// # Panics
    /// Panics on NaN (NaN has no rank).
    pub fn insert(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot rank NaN");
        let pos = self.tuples.partition_point(|t| t.v < v);
        let delta = if pos == 0 || pos == self.tuples.len() {
            0
        } else {
            ((2.0 * self.eps * self.n as f64).floor() as u64).saturating_sub(1)
        };
        self.tuples.insert(pos, GkTuple { v, g: 1, delta });
        self.n += 1;
        self.since_compress += 1;
        if self.since_compress as f64 >= 1.0 / (2.0 * self.eps) {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Merges adjacent tuples while preserving the GK invariant
    /// `g_i + g_{i+1} + Δ_{i+1} ≤ 2εn`.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let threshold = (2.0 * self.eps * self.n as f64).floor() as u64;
        let mut i = self.tuples.len() - 2;
        while i >= 1 {
            let merged_g = self.tuples[i].g + self.tuples[i + 1].g;
            if merged_g + self.tuples[i + 1].delta <= threshold {
                self.tuples[i + 1].g = merged_g;
                self.tuples.remove(i);
            }
            i -= 1;
        }
    }

    /// The ε-approximate `phi`-quantile (`phi` in [0, 1]). Returns `None`
    /// on an empty summary.
    pub fn query(&self, phi: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&phi), "phi must be in [0,1]");
        if self.tuples.is_empty() {
            return None;
        }
        let target = (phi * self.n as f64).ceil().max(1.0) as u64;
        let margin = (self.eps * self.n as f64).ceil() as u64;
        let mut rmin = 0u64;
        let mut prev_v = self.tuples[0].v;
        for t in &self.tuples {
            rmin += t.g;
            let rmax = rmin + t.delta;
            if rmax > target + margin {
                return Some(prev_v);
            }
            prev_v = t.v;
        }
        Some(prev_v)
    }

    /// Convenience: the approximate median.
    pub fn median(&self) -> Option<f64> {
        self.query(0.5)
    }

    /// Merges another summary with the same ε by interleaving the two
    /// sorted tuple lists. Each tuple keeps its `g` but its `Δ` grows by
    /// the other summary's rank uncertainty (`⌊2εn_other⌋`), so the merged
    /// summary's rank error is at most `ε·n_self + 2ε·n_other` — still
    /// `O(ε·n)` but conservatively wider than a freshly built summary.
    /// Returns a typed error on ε mismatch.
    pub fn merge(&mut self, other: &GkQuantiles) -> Result<(), MergeError> {
        if self.eps != other.eps {
            return Err(MergeError::Incompatible {
                kind: "gk-quantiles",
                expected: format!("eps {}", self.eps),
                found: format!("eps {}", other.eps),
            });
        }
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            *self = other.clone();
            return Ok(());
        }
        let inflate_self = (2.0 * other.eps * other.n as f64).floor() as u64;
        let inflate_other = (2.0 * self.eps * self.n as f64).floor() as u64;
        let mut merged = Vec::with_capacity(self.tuples.len() + other.tuples.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.tuples.len() || j < other.tuples.len() {
            let take_self = match (self.tuples.get(i), other.tuples.get(j)) {
                (Some(a), Some(b)) => a.v <= b.v,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_self {
                let t = self.tuples[i];
                merged.push(GkTuple {
                    delta: t.delta + inflate_self,
                    ..t
                });
                i += 1;
            } else {
                let t = other.tuples[j];
                merged.push(GkTuple {
                    delta: t.delta + inflate_other,
                    ..t
                });
                j += 1;
            }
        }
        self.tuples = merged;
        self.n += other.n;
        self.since_compress = 0;
        self.compress();
        Ok(())
    }

    /// Codec accessor: `(value, g, Δ)` triples in value order.
    pub fn tuples_for_codec(&self) -> impl Iterator<Item = (f64, u64, u64)> + '_ {
        self.tuples.iter().map(|t| (t.v, t.g, t.delta))
    }

    /// Codec constructor: reassembles a summary from its raw parts.
    /// Returns `None` when ε is out of range, values are NaN or unsorted,
    /// or the tuple gaps do not sum to `n`.
    pub fn from_codec_parts(eps: f64, n: u64, tuples: Vec<(f64, u64, u64)>) -> Option<Self> {
        if !(eps > 0.0 && eps < 0.5) {
            return None;
        }
        let mut g_sum = 0u64;
        for (idx, &(v, g, _)) in tuples.iter().enumerate() {
            if v.is_nan() || (idx > 0 && tuples[idx - 1].0 > v) {
                return None;
            }
            g_sum = g_sum.checked_add(g)?;
        }
        if g_sum != n {
            return None;
        }
        Some(Self {
            eps,
            n,
            tuples: tuples
                .into_iter()
                .map(|(v, g, delta)| GkTuple { v, g, delta })
                .collect(),
            since_compress: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empirical rank of `v` within `sorted` divided by n.
    fn rank_of(sorted: &[f64], v: f64) -> f64 {
        let below = sorted.partition_point(|&x| x < v);
        below as f64 / sorted.len() as f64
    }

    fn check_rank_errors(data: &[f64], eps: f64, tolerance: f64) {
        let mut gk = GkQuantiles::new(eps);
        for &x in data {
            gk.insert(x);
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &phi in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = gk.query(phi).unwrap();
            let achieved = rank_of(&sorted, q);
            assert!(
                (achieved - phi).abs() <= tolerance,
                "phi={phi}: got rank {achieved} (eps {eps})"
            );
        }
    }

    #[test]
    fn uniform_sequence() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        check_rank_errors(&data, 0.01, 0.02);
    }

    #[test]
    fn shuffled_sequence() {
        // Deterministic pseudo-shuffle.
        let mut data: Vec<f64> = (0..10_000).map(|i| ((i * 7919) % 10_000) as f64).collect();
        check_rank_errors(&data, 0.01, 0.02);
        data.reverse();
        check_rank_errors(&data, 0.02, 0.04);
    }

    #[test]
    fn skewed_data() {
        let data: Vec<f64> = (1..5000).map(|i| (i as f64).powi(3)).collect();
        check_rank_errors(&data, 0.01, 0.02);
    }

    #[test]
    fn duplicates() {
        let data: Vec<f64> = (0..5000).map(|i| (i % 5) as f64).collect();
        let mut gk = GkQuantiles::new(0.01);
        for &x in &data {
            gk.insert(x);
        }
        let med = gk.median().unwrap();
        assert!((1.0..=3.0).contains(&med), "median {med}");
    }

    #[test]
    fn space_is_sublinear() {
        let mut gk = GkQuantiles::new(0.01);
        for i in 0..100_000 {
            gk.insert(((i * 2654435761u64) % 1_000_003) as f64);
        }
        assert_eq!(gk.count(), 100_000);
        assert!(
            gk.num_tuples() < 5_000,
            "summary kept {} tuples for 100k items",
            gk.num_tuples()
        );
    }

    #[test]
    fn empty_and_singleton() {
        let gk = GkQuantiles::new(0.1);
        assert_eq!(gk.query(0.5), None);
        let mut gk = GkQuantiles::new(0.1);
        gk.insert(42.0);
        assert_eq!(gk.median(), Some(42.0));
        assert_eq!(gk.query(0.0), Some(42.0));
        assert_eq!(gk.query(1.0), Some(42.0));
    }

    #[test]
    fn extremes_are_exact() {
        let mut gk = GkQuantiles::new(0.05);
        for i in 0..1000 {
            gk.insert(i as f64);
        }
        // GK keeps the min and max tuples un-merged at the ends.
        assert_eq!(gk.query(0.0), Some(0.0));
        let hi = gk.query(1.0).unwrap();
        assert!(hi >= 990.0, "max quantile {hi}");
    }

    #[test]
    fn merge_preserves_rank_error_budget() {
        // Two disjoint halves merged vs the whole stream: quantiles agree
        // within the widened (ε_self + 2ε_other ≈ 3ε) merge bound.
        let eps = 0.01;
        let data: Vec<f64> = (0..20_000).map(|i| ((i * 7919) % 20_000) as f64).collect();
        let mut a = GkQuantiles::new(eps);
        let mut b = GkQuantiles::new(eps);
        for (i, &x) in data.iter().enumerate() {
            if i % 2 == 0 {
                a.insert(x);
            } else {
                b.insert(x);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), 20_000);
        let mut sorted = data;
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for &phi in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let q = a.query(phi).unwrap();
            let achieved = rank_of(&sorted, q);
            assert!(
                (achieved - phi).abs() <= 5.0 * eps,
                "phi={phi}: merged rank {achieved}"
            );
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut gk = GkQuantiles::new(0.05);
        for i in 0..500 {
            gk.insert(i as f64);
        }
        let snapshot = gk.clone();
        gk.merge(&GkQuantiles::new(0.05)).unwrap();
        assert_eq!(gk, snapshot);
        let mut empty = GkQuantiles::new(0.05);
        empty.merge(&snapshot).unwrap();
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn merge_rejects_mismatch_without_panicking() {
        let mut a = GkQuantiles::new(0.01);
        let err = a.merge(&GkQuantiles::new(0.02)).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::Incompatible {
                    kind: "gk-quantiles",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot rank NaN")]
    fn rejects_nan() {
        GkQuantiles::new(0.1).insert(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "eps must be in (0, 0.5)")]
    fn rejects_bad_eps() {
        GkQuantiles::new(0.5);
    }
}
