//! The [`Estimate`] type: a point estimate with a variance estimate, plus
//! the delta-method propagation rules that let composite aggregates (AVG as
//! SUM/COUNT, sums of independent estimates) inherit valid intervals.

use crate::dist::{Normal, StudentT};
use crate::interval::ConfidenceInterval;

/// A point estimate together with an estimate of its sampling variance and
/// the (effective) sample size that produced it.
///
/// `Estimate` is what every approximate operator in this workspace returns.
/// Converting to a [`ConfidenceInterval`] applies the CLT: a Student-t
/// interval when the sample size is small, a normal interval otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate.
    pub value: f64,
    /// Estimated variance of the *estimator* (already divided by n where
    /// applicable — this is `Var(θ̂)`, not the population variance).
    pub variance: f64,
    /// Number of independent sampling units behind the estimate (rows for
    /// row-level designs, blocks for block designs, strata-summed for
    /// stratified designs). Drives the t-vs-normal choice.
    pub n: u64,
}

/// Below this many sampling units the CLT interval switches from the normal
/// to the Student-t critical value.
const T_THRESHOLD: u64 = 100;

impl Estimate {
    /// Creates an estimate.
    ///
    /// # Panics
    /// Panics if `variance` is negative or NaN, or `value` is NaN.
    pub fn new(value: f64, variance: f64, n: u64) -> Self {
        assert!(!value.is_nan(), "estimate value must not be NaN");
        assert!(
            variance >= 0.0 && !variance.is_nan(),
            "estimator variance must be >= 0, got {variance}"
        );
        Self { value, variance, n }
    }

    /// An exactly-known quantity (zero variance).
    pub fn exact(value: f64) -> Self {
        Self::new(value, 0.0, u64::MAX)
    }

    /// Standard error of the estimator.
    fn std_err(&self) -> f64 {
        self.variance.sqrt()
    }

    /// CLT-based two-sided confidence interval at the given confidence.
    ///
    /// Uses Student-t critical values when fewer than 100 sampling units
    /// back the estimate, normal critical values otherwise.
    pub fn ci(&self, confidence: f64) -> ConfidenceInterval {
        self.ci_at(Self::critical_value(self.n, confidence), confidence)
    }

    /// The two-sided critical value [`Estimate::ci`] uses for an estimate
    /// backed by `n` units: Student-t with `n − 1` degrees of freedom for
    /// `2 ≤ n < 100`, normal otherwise.
    fn critical_value(n: u64, confidence: f64) -> f64 {
        if (2..T_THRESHOLD).contains(&n) {
            StudentT::new((n - 1) as f64).two_sided_critical(confidence)
        } else {
            Normal::two_sided_critical(confidence)
        }
    }

    /// The interval `value ± crit · se` at `confidence`.
    fn ci_at(&self, crit: f64, confidence: f64) -> ConfidenceInterval {
        let margin = crit * self.std_err();
        ConfidenceInterval::new(self.value - margin, self.value + margin, confidence)
    }

    /// Relative standard error `se / |value|`; infinite when value is 0.
    pub fn relative_std_err(&self) -> f64 {
        if self.value == 0.0 {
            f64::INFINITY
        } else {
            self.std_err() / self.value.abs()
        }
    }

    /// Relative error of this estimate against a known ground truth.
    pub fn relative_error(&self, truth: f64) -> f64 {
        if truth == 0.0 {
            if self.value == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.value - truth).abs() / truth.abs()
        }
    }

    /// Sum of two *independent* estimates: values add, variances add.
    pub fn add_independent(&self, other: &Estimate) -> Estimate {
        Estimate::new(
            self.value + other.value,
            self.variance + other.variance,
            self.n.min(other.n),
        )
    }

    /// Scales the estimate by a deterministic constant `c`: variance scales
    /// by `c²`. This is the Horvitz–Thompson "inverse inclusion probability"
    /// upscaling step.
    pub fn scale(&self, c: f64) -> Estimate {
        Estimate::new(self.value * c, self.variance * c * c, self.n)
    }

    /// Ratio of two estimates with known covariance, via the delta method:
    ///
    /// `Var(X/Y) ≈ (X/Y)² [ Var(X)/X² + Var(Y)/Y² − 2Cov(X,Y)/(XY) ]`.
    ///
    /// This is the textbook ratio estimator used for `AVG = SUM / COUNT`
    /// under Bernoulli sampling, where numerator and denominator are highly
    /// correlated. Returns an estimate with infinite variance when the
    /// denominator is zero. At a zero numerator the relative form is 0·∞,
    /// so the variance is its limit there, `Var(X)/Y²` (saturating at
    /// `f64::MAX`).
    pub fn ratio(&self, denom: &Estimate, cov: f64) -> Estimate {
        if denom.value == 0.0 {
            return Estimate::new(0.0, f64::MAX, self.n.min(denom.n));
        }
        if self.value == 0.0 {
            let v = (self.variance / (denom.value * denom.value)).min(f64::MAX);
            return Estimate::new(0.0, v, self.n.min(denom.n));
        }
        let r = self.value / denom.value;
        let rel = self.variance / (self.value * self.value).max(f64::MIN_POSITIVE)
            + denom.variance / (denom.value * denom.value)
            - 2.0 * cov / (self.value * denom.value).abs().max(f64::MIN_POSITIVE)
                * (self.value * denom.value).signum();
        let v = (r * r * rel).max(0.0);
        Estimate::new(r, v, self.n.min(denom.n))
    }
}

/// Computes the minimum per-aggregate confidence when a query carries `k`
/// aggregates (or groups) that must *jointly* satisfy the user's confidence
/// `gamma`, via Boole's inequality: each aggregate gets `1 − (1 − γ)/k`.
///
/// This is the standard union-bound confidence split used by a-priori AQP
/// planners.
///
/// # Panics
/// Panics if `k == 0` or `gamma` not in (0, 1).
pub fn boole_split(gamma: f64, k: usize) -> f64 {
    assert!(k > 0, "boole_split requires at least one aggregate");
    assert!(
        gamma > 0.0 && gamma < 1.0,
        "gamma must be in (0,1), got {gamma}"
    );
    1.0 - (1.0 - gamma) / k as f64
}

/// [`Estimate::ci`] for many estimates at one confidence, each critical
/// value computed once: one Student-t value per unit count below the
/// t threshold (each a Newton inversion) and one normal value for every
/// other count. The intervals are [`Estimate::ci`]'s bit for bit.
#[derive(Debug, Clone)]
pub struct CriticalValues {
    confidence: f64,
    /// Slot `n` for `2 ≤ n < 100` holds the t value; slot 0 the normal
    /// one. NaN until first used.
    by_units: [f64; T_THRESHOLD as usize],
}

impl CriticalValues {
    /// An empty memo at `confidence`.
    pub fn new(confidence: f64) -> Self {
        Self {
            confidence,
            by_units: [f64::NAN; T_THRESHOLD as usize],
        }
    }

    /// `estimate.ci(confidence)`, reusing the critical value of an
    /// earlier estimate with the same slot.
    pub fn ci(&mut self, estimate: &Estimate) -> ConfidenceInterval {
        let slot = if (2..T_THRESHOLD).contains(&estimate.n) {
            estimate.n as usize
        } else {
            0
        };
        let crit = &mut self.by_units[slot];
        if crit.is_nan() {
            *crit = Estimate::critical_value(estimate.n, self.confidence);
        }
        estimate.ci_at(*crit, self.confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_normal_regime() {
        // se = 2, n large => 95% margin ≈ 1.96 * 2.
        let e = Estimate::new(100.0, 4.0, 10_000);
        let ci = e.ci(0.95);
        assert!((ci.half_width() - 3.919_927_969).abs() < 1e-6);
        assert!((ci.midpoint() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn ci_t_regime_is_wider() {
        let small = Estimate::new(100.0, 4.0, 10);
        let large = Estimate::new(100.0, 4.0, 10_000);
        assert!(small.ci(0.95).width() > large.ci(0.95).width());
    }

    #[test]
    fn exact_estimate_zero_width() {
        let e = Estimate::exact(5.0);
        assert_eq!(e.ci(0.99).width(), 0.0);
        assert_eq!(e.std_err(), 0.0);
    }

    #[test]
    fn add_independent_sums_variances() {
        let a = Estimate::new(10.0, 1.0, 50);
        let b = Estimate::new(20.0, 3.0, 80);
        let s = a.add_independent(&b);
        assert_eq!(s.value, 30.0);
        assert_eq!(s.variance, 4.0);
        assert_eq!(s.n, 50);
    }

    #[test]
    fn scale_squares_variance() {
        let e = Estimate::new(10.0, 2.0, 100).scale(10.0);
        assert_eq!(e.value, 100.0);
        assert_eq!(e.variance, 200.0);
    }

    #[test]
    fn ratio_independent_delta_method() {
        let num = Estimate::new(100.0, 25.0, 1000); // rel var 25/10000 = 0.0025
        let den = Estimate::new(50.0, 4.0, 1000); // rel var 4/2500 = 0.0016
        let r = num.ratio(&den, 0.0);
        assert!((r.value - 2.0).abs() < 1e-12);
        assert!((r.variance - 4.0 * 0.0041).abs() < 1e-10);
    }

    #[test]
    fn ratio_positive_covariance_shrinks_variance() {
        let num = Estimate::new(100.0, 25.0, 1000);
        let den = Estimate::new(50.0, 4.0, 1000);
        let indep = num.ratio(&den, 0.0);
        let corr = num.ratio(&den, 5.0);
        assert!(corr.variance < indep.variance);
    }

    #[test]
    fn ratio_zero_denominator() {
        let num = Estimate::new(10.0, 1.0, 100);
        let den = Estimate::new(0.0, 1.0, 100);
        let r = num.ratio(&den, 0.0);
        assert_eq!(r.variance, f64::MAX);
    }

    #[test]
    fn ratio_zero_numerator_keeps_its_variance() {
        // 0·∞ used to be NaN, and NaN.max(0) claimed certainty.
        let den = Estimate::new(2.0, 0.5, 10);
        let r = Estimate::new(0.0, 100.0, 10).ratio(&den, 0.3);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.variance, 25.0);
        // The limit agrees with a numerator just off zero.
        let near = Estimate::new(1e-9, 100.0, 10).ratio(&den, 0.3);
        assert!((near.variance - 25.0).abs() < 1e-6, "{}", near.variance);
        // An unobservable numerator stays unobservable.
        let r = Estimate::new(0.0, f64::MAX, 10).ratio(&Estimate::new(0.5, 0.1, 10), 0.0);
        assert_eq!(r.variance, f64::MAX);
    }

    #[test]
    fn relative_error_cases() {
        let e = Estimate::new(105.0, 0.0, 10);
        assert!((e.relative_error(100.0) - 0.05).abs() < 1e-12);
        assert_eq!(Estimate::new(0.0, 0.0, 1).relative_error(0.0), 0.0);
        assert_eq!(
            Estimate::new(1.0, 0.0, 1).relative_error(0.0),
            f64::INFINITY
        );
    }

    #[test]
    fn boole_split_values() {
        assert!((boole_split(0.95, 1) - 0.95).abs() < 1e-15);
        assert!((boole_split(0.95, 5) - 0.99).abs() < 1e-12);
        assert!((boole_split(0.9, 10) - 0.99).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one aggregate")]
    fn boole_split_zero_k() {
        boole_split(0.95, 0);
    }

    #[test]
    #[should_panic(expected = "variance must be >= 0")]
    fn rejects_negative_variance() {
        Estimate::new(1.0, -0.5, 10);
    }

    #[test]
    fn ratio_of_exact_estimates_is_exact() {
        let r = Estimate::exact(-6.0).ratio(&Estimate::exact(4.0), 0.0);
        assert_eq!(r.value, -1.5);
        assert_eq!(r.variance, 0.0);
        assert_eq!(r.ci(0.99).width(), 0.0);
    }
}
