//! Equi-width and equi-depth histograms for range aggregates.
//!
//! Histograms are the oldest synopsis family NSB covers: per-bucket counts
//! and sums answer range COUNT/SUM/AVG under a uniformity assumption inside
//! each bucket. Equi-depth buckets adapt to skew (each holds ~n/k rows);
//! equi-width buckets are cheaper to build but degrade badly on skew.

use aqp_mergeable::MergeError;

/// One histogram bucket over `[lo, hi)` (the last bucket is closed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound (inclusive for the final bucket).
    pub hi: f64,
    /// Rows in the bucket.
    pub count: u64,
    /// Sum of values in the bucket.
    pub sum: f64,
}

impl Bucket {
    /// Estimated count of this bucket's overlap with query range `[a, b]`,
    /// assuming uniformity within the bucket.
    fn overlap_count(&self, a: f64, b: f64) -> f64 {
        let width = self.hi - self.lo;
        if width <= 0.0 {
            // Degenerate single-value bucket.
            return if a <= self.lo && self.lo <= b {
                self.count as f64
            } else {
                0.0
            };
        }
        let lo = a.max(self.lo);
        let hi = b.min(self.hi);
        if hi <= lo {
            return 0.0;
        }
        self.count as f64 * (hi - lo) / width
    }

    fn overlap_sum(&self, a: f64, b: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Uniform assumption: sum scales with the covered count fraction.
        self.sum * self.overlap_count(a, b) / self.count as f64
    }
}

/// Shared estimation over a bucket list.
fn range_count(buckets: &[Bucket], a: f64, b: f64) -> f64 {
    buckets.iter().map(|bk| bk.overlap_count(a, b)).sum()
}

fn range_sum(buckets: &[Bucket], a: f64, b: f64) -> f64 {
    buckets.iter().map(|bk| bk.overlap_sum(a, b)).sum()
}

/// Shared merge over two bucket lists: boundaries must be bit-identical,
/// per-bucket counts and sums add. Histograms answer *additive* range
/// aggregates, so merging two partials over the same bucketing is exactly
/// the histogram of the concatenated data.
fn merge_buckets(
    kind: &'static str,
    mine: &mut [Bucket],
    theirs: &[Bucket],
) -> Result<(), MergeError> {
    let describe = |bs: &[Bucket]| {
        let (lo, hi) = match (bs.first(), bs.last()) {
            (Some(f), Some(l)) => (f.lo, l.hi),
            _ => (f64::NAN, f64::NAN),
        };
        format!("{} buckets over [{lo}, {hi}]", bs.len())
    };
    let compatible = mine.len() == theirs.len()
        && mine
            .iter()
            .zip(theirs.iter())
            .all(|(a, b)| a.lo == b.lo && a.hi == b.hi);
    if !compatible {
        return Err(MergeError::Incompatible {
            kind,
            expected: describe(mine),
            found: describe(theirs),
        });
    }
    for (a, b) in mine.iter_mut().zip(theirs) {
        a.count += b.count;
        a.sum += b.sum;
    }
    Ok(())
}

/// An equi-width histogram: `k` buckets of equal value-range.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidthHistogram {
    buckets: Vec<Bucket>,
}

impl EquiWidthHistogram {
    /// Builds from data with `k` buckets.
    ///
    /// # Panics
    /// Panics if `k == 0` or `data` is empty or contains NaN.
    pub fn build(data: &[f64], k: usize) -> Self {
        assert!(!data.is_empty(), "cannot build a histogram of nothing");
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::build_in_range(data, k, lo, hi)
    }

    /// Builds with `k` buckets over an explicitly agreed `[lo, hi]` range,
    /// so independently built partials (shards, deltas) share bit-identical
    /// bucket boundaries and stay mergeable. Values outside the range are
    /// clamped into the edge buckets.
    ///
    /// # Panics
    /// Panics if `k == 0`, `data` is empty, or the range is not finite.
    pub fn build_in_range(data: &[f64], k: usize, lo: f64, hi: f64) -> Self {
        assert!(k > 0, "need at least one bucket");
        assert!(!data.is_empty(), "cannot build a histogram of nothing");
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "range must be finite"
        );
        let width = ((hi - lo) / k as f64).max(f64::MIN_POSITIVE);
        let mut buckets: Vec<Bucket> = (0..k)
            .map(|i| Bucket {
                lo: lo + i as f64 * width,
                hi: if i == k - 1 {
                    hi
                } else {
                    lo + (i + 1) as f64 * width
                },
                count: 0,
                sum: 0.0,
            })
            .collect();
        for &x in data {
            let idx = (((x - lo) / width) as usize).min(k - 1);
            buckets[idx].count += 1;
            buckets[idx].sum += x;
        }
        Self { buckets }
    }

    /// The buckets.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Estimated `COUNT(*) WHERE a ≤ v ≤ b`.
    pub fn range_count(&self, a: f64, b: f64) -> f64 {
        range_count(&self.buckets, a, b)
    }

    /// Estimated `SUM(v) WHERE a ≤ v ≤ b`.
    pub fn range_sum(&self, a: f64, b: f64) -> f64 {
        range_sum(&self.buckets, a, b)
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Bucket>()
    }

    /// Merges a histogram with bit-identical bucket boundaries (counts and
    /// sums add). Returns a typed error on boundary mismatch.
    pub fn merge(&mut self, other: &EquiWidthHistogram) -> Result<(), MergeError> {
        merge_buckets("equi-width-histogram", &mut self.buckets, &other.buckets)
    }
}

/// An equi-depth histogram: `k` buckets each holding ≈ n/k rows.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    buckets: Vec<Bucket>,
}

impl EquiDepthHistogram {
    /// Builds from data with `k` buckets (sorts a copy of the data).
    ///
    /// # Panics
    /// Panics if `k == 0` or `data` is empty or contains NaN.
    pub fn build(data: &[f64], k: usize) -> Self {
        assert!(k > 0, "need at least one bucket");
        assert!(!data.is_empty(), "cannot build a histogram of nothing");
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("histogram data must not contain NaN")
        });
        let n = sorted.len();
        let k = k.min(n);
        let mut buckets = Vec::with_capacity(k);
        for i in 0..k {
            let start = i * n / k;
            let end = ((i + 1) * n / k).max(start + 1).min(n);
            let slice = &sorted[start..end];
            buckets.push(Bucket {
                lo: slice[0],
                hi: if i == k - 1 {
                    *slice.last().expect("non-empty")
                } else {
                    sorted[end.min(n - 1)]
                },
                count: slice.len() as u64,
                sum: slice.iter().sum(),
            });
        }
        Self { buckets }
    }

    /// The buckets.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Estimated `COUNT(*) WHERE a ≤ v ≤ b`.
    pub fn range_count(&self, a: f64, b: f64) -> f64 {
        range_count(&self.buckets, a, b)
    }

    /// Estimated `SUM(v) WHERE a ≤ v ≤ b`.
    pub fn range_sum(&self, a: f64, b: f64) -> f64 {
        range_sum(&self.buckets, a, b)
    }

    /// Approximate `phi`-quantile read off the bucket boundaries.
    pub fn quantile(&self, phi: f64) -> f64 {
        assert!((0.0..=1.0).contains(&phi), "phi must be in [0,1]");
        let total: u64 = self.buckets.iter().map(|b| b.count).sum();
        let target = phi * total as f64;
        let mut acc = 0.0;
        for b in &self.buckets {
            let next = acc + b.count as f64;
            if next >= target {
                let frac = if b.count == 0 {
                    0.0
                } else {
                    (target - acc) / b.count as f64
                };
                return b.lo + frac * (b.hi - b.lo);
            }
            acc = next;
        }
        self.buckets.last().expect("non-empty").hi
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Bucket>()
    }

    /// Merges a histogram with bit-identical bucket boundaries (counts and
    /// sums add; the result is no longer exactly equi-depth but estimates
    /// the concatenated data). Returns a typed error on boundary mismatch.
    pub fn merge(&mut self, other: &EquiDepthHistogram) -> Result<(), MergeError> {
        merge_buckets("equi-depth-histogram", &mut self.buckets, &other.buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_data() -> Vec<f64> {
        (0..10_000).map(|i| i as f64).collect()
    }

    /// Heavily skewed: half the mass at 0..10, a long tail to 10^6.
    fn skewed_data() -> Vec<f64> {
        let mut d = Vec::new();
        for i in 0..5000 {
            d.push((i % 10) as f64);
        }
        for i in 0..5000u64 {
            d.push((i * i) as f64 / 25.0);
        }
        d
    }

    fn exact_count(data: &[f64], a: f64, b: f64) -> f64 {
        data.iter().filter(|&&x| a <= x && x <= b).count() as f64
    }

    fn exact_sum(data: &[f64], a: f64, b: f64) -> f64 {
        data.iter().filter(|&&x| a <= x && x <= b).sum()
    }

    #[test]
    fn equi_width_uniform_data_accurate() {
        let data = uniform_data();
        let h = EquiWidthHistogram::build(&data, 100);
        for &(a, b) in &[(0.0, 9999.0), (1000.0, 2000.0), (9000.0, 9999.0)] {
            let rc = h.range_count(a, b);
            let ec = exact_count(&data, a, b);
            assert!((rc - ec).abs() / ec < 0.05, "count {rc} vs {ec}");
            let rs = h.range_sum(a, b);
            let es = exact_sum(&data, a, b);
            assert!((rs - es).abs() / es.max(1.0) < 0.05, "sum {rs} vs {es}");
        }
    }

    #[test]
    fn equi_depth_handles_skew_better() {
        let data = skewed_data();
        let (a, b) = (0.0, 20.0); // the dense head
        let ec = exact_count(&data, a, b);
        let ew = EquiWidthHistogram::build(&data, 50);
        let ed = EquiDepthHistogram::build(&data, 50);
        let err_w = (ew.range_count(a, b) - ec).abs() / ec;
        let err_d = (ed.range_count(a, b) - ec).abs() / ec;
        assert!(
            err_d < err_w,
            "equi-depth {err_d} should beat equi-width {err_w} on skew"
        );
        assert!(err_d < 0.15, "equi-depth error {err_d}");
    }

    #[test]
    fn full_range_is_exact() {
        let data = skewed_data();
        let total: f64 = data.iter().sum();
        let ed = EquiDepthHistogram::build(&data, 32);
        assert!((ed.range_count(f64::MIN, f64::MAX) - data.len() as f64).abs() < 1e-6);
        assert!((ed.range_sum(f64::MIN, f64::MAX) - total).abs() / total < 1e-9);
        let ew = EquiWidthHistogram::build(&data, 32);
        assert!((ew.range_count(f64::MIN, f64::MAX) - data.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn empty_range_is_zero() {
        let h = EquiDepthHistogram::build(&uniform_data(), 16);
        assert_eq!(h.range_count(20_000.0, 30_000.0), 0.0);
        assert_eq!(h.range_sum(-100.0, -1.0), 0.0);
    }

    #[test]
    fn equi_depth_buckets_balanced() {
        let h = EquiDepthHistogram::build(&skewed_data(), 10);
        let counts: Vec<u64> = h.buckets().iter().map(|b| b.count).collect();
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max - min <= 1, "bucket depths {counts:?}");
    }

    #[test]
    fn quantiles_from_equi_depth() {
        let h = EquiDepthHistogram::build(&uniform_data(), 100);
        let med = h.quantile(0.5);
        assert!((med - 5000.0).abs() < 200.0, "median {med}");
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
    }

    #[test]
    fn single_value_data() {
        let data = vec![7.0; 100];
        let ew = EquiWidthHistogram::build(&data, 4);
        assert!((ew.range_count(7.0, 7.0) - 100.0).abs() < 1e-6);
        assert_eq!(ew.range_count(8.0, 9.0), 0.0);
        let ed = EquiDepthHistogram::build(&data, 4);
        assert!((ed.range_count(0.0, 10.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn more_buckets_more_accuracy_on_uniform_data() {
        // On uniform data finer equi-width buckets strictly help. (On
        // heavy skew they need not — `equi_depth_handles_skew_better`
        // covers that side of NSB's argument.)
        let data: Vec<f64> = (0..10_000).map(|i| ((i * i) % 9973) as f64).collect();
        let ranges = [(100.0, 700.0), (2000.0, 2300.0), (9000.0, 9500.0)];
        let avg_err = |k: usize| -> f64 {
            let h = EquiWidthHistogram::build(&data, k);
            ranges
                .iter()
                .map(|&(a, b)| {
                    let ec = exact_count(&data, a, b).max(1.0);
                    (h.range_count(a, b) - ec).abs() / ec
                })
                .sum::<f64>()
                / ranges.len() as f64
        };
        assert!(avg_err(512) < avg_err(4));
    }

    #[test]
    fn merge_shared_range_equals_whole_build() {
        // Two shards built over an agreed range merge into exactly the
        // histogram of the concatenated data.
        let data = skewed_data();
        let (half_a, half_b) = data.split_at(data.len() / 2);
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut merged = EquiWidthHistogram::build_in_range(half_a, 64, lo, hi);
        merged
            .merge(&EquiWidthHistogram::build_in_range(half_b, 64, lo, hi))
            .unwrap();
        let whole = EquiWidthHistogram::build_in_range(&data, 64, lo, hi);
        for (m, w) in merged.buckets().iter().zip(whole.buckets()) {
            assert_eq!(m.count, w.count);
            assert!((m.sum - w.sum).abs() < 1e-9 * (1.0 + w.sum.abs()));
        }
    }

    #[test]
    fn merge_rejects_mismatched_boundaries() {
        let data = uniform_data();
        let mut a = EquiWidthHistogram::build(&data, 16);
        let b = EquiWidthHistogram::build(&data, 32);
        let err = a.merge(&b).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::Incompatible {
                    kind: "equi-width-histogram",
                    ..
                }
            ),
            "{err}"
        );
        let mut ed = EquiDepthHistogram::build(&data, 16);
        let shifted = EquiDepthHistogram::build(&data[100..], 16);
        assert!(ed.merge(&shifted).is_err());
    }

    #[test]
    fn equi_depth_merge_same_boundaries() {
        // Folding a same-boundary partial doubles every bucket.
        let data = uniform_data();
        let mut h = EquiDepthHistogram::build(&data, 8);
        let copy = h.clone();
        h.merge(&copy).unwrap();
        for (a, b) in h.buckets().iter().zip(copy.buckets()) {
            assert_eq!(a.count, 2 * b.count);
            assert!((a.sum - 2.0 * b.sum).abs() < 1e-9 * (1.0 + b.sum.abs()));
        }
        assert!((h.range_count(f64::MIN, f64::MAX) - 2.0 * data.len() as f64).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn empty_data_rejected() {
        EquiWidthHistogram::build(&[], 4);
    }
}
