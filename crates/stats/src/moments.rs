//! Streaming moment accumulators (Welford's algorithm), plain and weighted.
//!
//! These are the single-pass building blocks every sampler-fed estimator
//! uses: numerically stable mean/variance without storing the sample.

use aqp_mergeable::{MergeError, Partial};

/// Streaming count / mean / variance accumulator (Welford).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Accumulates one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Builds from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut m = Self::new();
        for &x in xs {
            m.push(x);
        }
        m
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Running sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Minimum observed value; +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value; −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of squared deviations from the mean, `Σ(x − x̄)²`; 0 when empty.
    pub fn sum_sq_dev(&self) -> f64 {
        self.m2
    }

    /// Unbiased sample variance (divides by n−1); NaN when n < 2.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (divides by n); NaN when empty.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Variance of the sample mean, `s²/n`; NaN when n < 2.
    pub fn variance_of_mean(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.variance() / self.n as f64
        }
    }

    /// Merges two accumulators (parallel Welford / Chan et al.).
    pub fn merge(&self, other: &Moments) -> Moments {
        if other.n == 0 {
            return *self;
        }
        if self.n == 0 {
            return *other;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        Moments {
            n,
            mean,
            m2,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            sum: self.sum + other.sum,
        }
    }
}

/// Moments merge via the parallel-Welford combine: exact for `n`, `sum`,
/// `min`, `max`; mean and m2 agree with single-pass accumulation up to
/// floating-point round-off.
impl Partial for Moments {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        *self = Moments::merge(self, other);
        Ok(())
    }
}

/// Weighted streaming moments, for Horvitz–Thompson-weighted samples
/// (stratified, distinct, measure-biased designs produce unequal weights).
///
/// Uses reliability-weighted Welford; `variance()` is the frequency-weighted
/// unbiased estimate with Bessel-style correction via effective sample size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedMoments {
    n: u64,
    w_sum: f64,
    w2_sum: f64,
    mean: f64,
    m2: f64,
    weighted_sum: f64,
}

impl WeightedMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates an observation `x` with weight `w > 0`.
    ///
    /// # Panics
    /// Panics if `w` is not finite and positive.
    pub fn push(&mut self, x: f64, w: f64) {
        assert!(
            w > 0.0 && w.is_finite(),
            "weight must be positive and finite, got {w}"
        );
        self.n += 1;
        self.w_sum += w;
        self.w2_sum += w * w;
        self.weighted_sum += w * x;
        let delta = x - self.mean;
        self.mean += (w / self.w_sum) * delta;
        self.m2 += w * delta * (x - self.mean);
    }

    /// Number of observations (not weight mass).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Total weight mass Σw — the HT estimate of the population count when
    /// weights are inverse inclusion probabilities.
    pub fn weight_sum(&self) -> f64 {
        self.w_sum
    }

    /// Weighted sum Σ w·x — the HT estimate of the population SUM.
    pub fn weighted_sum(&self) -> f64 {
        self.weighted_sum
    }

    /// Weighted mean Σwx / Σw; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Effective sample size `(Σw)² / Σw²` (Kish). Equals n for equal
    /// weights; smaller when weights are uneven.
    pub fn effective_sample_size(&self) -> f64 {
        if self.w2_sum == 0.0 {
            0.0
        } else {
            self.w_sum * self.w_sum / self.w2_sum
        }
    }

    /// Frequency-weighted unbiased variance; NaN when effective n ≤ 1.
    pub fn variance(&self) -> f64 {
        let neff = self.effective_sample_size();
        if neff <= 1.0 {
            return f64::NAN;
        }
        (self.m2 / self.w_sum) * (neff / (neff - 1.0))
    }

    /// Variance of the weighted mean, `s² / n_eff`.
    pub fn variance_of_mean(&self) -> f64 {
        let neff = self.effective_sample_size();
        if neff <= 1.0 {
            return f64::NAN;
        }
        self.variance() / neff
    }

    /// Merges two accumulators.
    pub fn merge(&self, other: &WeightedMoments) -> WeightedMoments {
        if other.n == 0 {
            return *self;
        }
        if self.n == 0 {
            return *other;
        }
        let w_sum = self.w_sum + other.w_sum;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.w_sum / w_sum;
        let m2 = self.m2 + other.m2 + delta * delta * self.w_sum * other.w_sum / w_sum;
        WeightedMoments {
            n: self.n + other.n,
            w_sum,
            w2_sum: self.w2_sum + other.w2_sum,
            mean,
            m2,
            weighted_sum: self.weighted_sum + other.weighted_sum,
        }
    }
}

/// Same contract as [`Moments`]: exact counts and weight masses, combined
/// mean/m2 within floating-point round-off of single-pass accumulation.
impl Partial for WeightedMoments {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        *self = WeightedMoments::merge(self, other);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_basic() {
        let m = Moments::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.population_variance() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.min(), 2.0);
        assert_eq!(m.max(), 9.0);
        assert_eq!(m.sum(), 40.0);
    }

    #[test]
    fn moments_empty_and_singleton() {
        let e = Moments::new();
        assert!(e.mean().is_nan());
        assert!(e.variance().is_nan());
        let mut s = Moments::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert!(s.variance().is_nan());
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn moments_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all = Moments::from_slice(&xs);
        let left = Moments::from_slice(&xs[..37]);
        let right = Moments::from_slice(&xs[37..]);
        let merged = left.merge(&right);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-10);
        assert!((merged.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn moments_merge_with_empty() {
        let m = Moments::from_slice(&[1.0, 2.0]);
        assert_eq!(m.merge(&Moments::new()), m);
        assert_eq!(Moments::new().merge(&m), m);
    }

    #[test]
    fn weighted_equal_weights_match_unweighted() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m = Moments::from_slice(&xs);
        let mut w = WeightedMoments::new();
        for &x in &xs {
            w.push(x, 3.0);
        }
        assert!((w.mean() - m.mean()).abs() < 1e-12);
        assert!((w.variance() - m.variance()).abs() < 1e-12);
        assert!((w.effective_sample_size() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_ht_sums() {
        let mut w = WeightedMoments::new();
        w.push(10.0, 2.0);
        w.push(20.0, 4.0);
        assert_eq!(w.weight_sum(), 6.0);
        assert_eq!(w.weighted_sum(), 100.0);
        assert!((w.mean() - 100.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_effective_size_shrinks_with_skewed_weights() {
        let mut even = WeightedMoments::new();
        let mut skew = WeightedMoments::new();
        for i in 0..10 {
            even.push(i as f64, 1.0);
            skew.push(i as f64, if i == 0 { 100.0 } else { 1.0 });
        }
        assert!(skew.effective_sample_size() < even.effective_sample_size());
    }

    #[test]
    fn weighted_merge_equals_sequential() {
        let data: Vec<(f64, f64)> = (1..50).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect();
        let mut all = WeightedMoments::new();
        let mut a = WeightedMoments::new();
        let mut b = WeightedMoments::new();
        for (i, &(x, w)) in data.iter().enumerate() {
            all.push(x, w);
            if i < 20 {
                a.push(x, w);
            } else {
                b.push(x, w);
            }
        }
        let merged = a.merge(&b);
        assert!((merged.mean() - all.mean()).abs() < 1e-10);
        assert!((merged.variance() - all.variance()).abs() < 1e-10);
        assert!((merged.weight_sum() - all.weight_sum()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn weighted_rejects_zero_weight() {
        WeightedMoments::new().push(1.0, 0.0);
    }

    #[test]
    fn partial_merge_matches_inherent() {
        let a = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let b = Moments::from_slice(&[10.0, 20.0]);
        let mut via_trait = a;
        Partial::merge(&mut via_trait, &b).unwrap();
        assert_eq!(via_trait, a.merge(&b));
    }

    #[test]
    fn merge_is_stable_at_a_large_mean() {
        // Chan et al.'s combine works on centered sums: partials of data
        // at 1e9 ± 1 keep the variance a naive Σx² − (Σx)²/n would lose.
        let xs: Vec<f64> = (0..1_000)
            .map(|i| 1e9 + ((i * 7) % 13) as f64 / 6.0 - 1.0)
            .collect();
        let all = Moments::from_slice(&xs);
        let mut merged = Moments::new();
        for part in xs.chunks(97) {
            Partial::merge(&mut merged, &Moments::from_slice(part)).unwrap();
        }
        let centered: f64 = xs.iter().map(|x| (x - 1e9) * (x - 1e9)).sum::<f64>();
        let shift = xs.iter().map(|x| x - 1e9).sum::<f64>() / xs.len() as f64;
        let truth = (centered - xs.len() as f64 * shift * shift) / (xs.len() - 1) as f64;
        assert!(truth > 0.3, "{truth}");
        assert!(
            (merged.variance() - truth).abs() < 1e-6 * truth,
            "{}",
            merged.variance()
        );
        assert!((merged.variance() - all.variance()).abs() < 1e-6 * truth);
    }

    #[test]
    fn weighted_partial_merge_matches_inherent() {
        let mut a = WeightedMoments::new();
        let mut b = WeightedMoments::new();
        for i in 0..5 {
            a.push(i as f64, 1.0 + i as f64);
            b.push(10.0 * i as f64, 0.5);
        }
        let mut via_trait = a;
        Partial::merge(&mut via_trait, &b).unwrap();
        assert_eq!(via_trait, a.merge(&b));
        assert_eq!(via_trait.count(), 10);
        assert_eq!(via_trait.weight_sum(), 15.0 + 2.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cutting a stream anywhere and merging the two accumulators
        /// gives the one-pass accumulator: count, min and max exactly,
        /// sum, mean and variance within round-off.
        #[test]
        fn moments_merge_matches_one_pass_for_any_split(
            xs in proptest::collection::vec(-1e6f64..1e6, 0..80),
            cut in 0.0f64..1.0,
        ) {
            let at = (cut * xs.len() as f64) as usize;
            let all = Moments::from_slice(&xs);
            let mut merged = Moments::from_slice(&xs[..at]);
            Partial::merge(&mut merged, &Moments::from_slice(&xs[at..])).unwrap();
            prop_assert_eq!(merged.count(), all.count());
            if !xs.is_empty() {
                prop_assert_eq!(merged.min(), all.min());
                prop_assert_eq!(merged.max(), all.max());
                prop_assert!(close(merged.sum(), all.sum()));
                prop_assert!(close(merged.mean(), all.mean()));
                prop_assert!(close(merged.sum_sq_dev(), all.sum_sq_dev()));
            }
        }

        /// The weighted accumulator obeys the same law, with the weight
        /// masses and the Horvitz–Thompson sum carried through.
        #[test]
        fn weighted_merge_matches_one_pass_for_any_split(
            xs in proptest::collection::vec((-1e6f64..1e6, 0.1f64..100.0), 1..80),
            cut in 0.0f64..1.0,
        ) {
            let at = (cut * xs.len() as f64) as usize;
            let fold = |part: &[(f64, f64)]| {
                let mut w = WeightedMoments::new();
                part.iter().for_each(|&(x, wt)| w.push(x, wt));
                w
            };
            let all = fold(&xs);
            let mut merged = fold(&xs[..at]);
            Partial::merge(&mut merged, &fold(&xs[at..])).unwrap();
            prop_assert_eq!(merged.count(), all.count());
            prop_assert!(close(merged.weight_sum(), all.weight_sum()));
            prop_assert!(close(merged.weighted_sum(), all.weighted_sum()));
            prop_assert!(close(merged.mean(), all.mean()));
            prop_assert!(close(merged.effective_sample_size(), all.effective_sample_size()));
            if xs.len() > 1 {
                prop_assert!(close(merged.variance(), all.variance()));
            }
        }

        /// An empty accumulator is the identity on either side, bit for bit.
        #[test]
        fn merging_an_empty_accumulator_is_the_identity(
            xs in proptest::collection::vec((-1e6f64..1e6, 0.1f64..100.0), 0..40),
        ) {
            let plain = Moments::from_slice(&xs.iter().map(|&(x, _)| x).collect::<Vec<_>>());
            let mut weighted = WeightedMoments::new();
            xs.iter().for_each(|&(x, w)| weighted.push(x, w));
            for (l, r) in [(plain, Moments::new()), (Moments::new(), plain)] {
                let mut m = l;
                Partial::merge(&mut m, &r).unwrap();
                prop_assert_eq!(m, plain);
            }
            for (l, r) in [(weighted, WeightedMoments::new()), (WeightedMoments::new(), weighted)] {
                let mut m = l;
                Partial::merge(&mut m, &r).unwrap();
                prop_assert_eq!(m, weighted);
            }
        }
    }
}
