//! Confidence intervals and coverage accounting.

use crate::dist::Normal;

/// A closed real interval `[lo, hi]` carrying a nominal confidence level.
///
/// Intervals are the lingua franca of every AQP answer in this workspace:
/// estimators produce them, experiments measure their empirical coverage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// Nominal confidence level in (0, 1), e.g. `0.95`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Creates an interval, normalizing endpoint order.
    ///
    /// # Panics
    /// Panics if `confidence` is outside (0, 1) or either endpoint is NaN.
    pub fn new(lo: f64, hi: f64, confidence: f64) -> Self {
        assert!(
            !lo.is_nan() && !hi.is_nan(),
            "interval endpoints must not be NaN"
        );
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        Self { lo, hi, confidence }
    }

    /// The degenerate interval around an exactly-known value.
    pub fn exact(value: f64, confidence: f64) -> Self {
        Self::new(value, value, confidence)
    }

    /// Wilson score interval for a binomial proportion: `hits` successes
    /// in `trials` (> 0) at two-sided `confidence`. Its `lo` alone is the
    /// one-sided lower bound at `(1 + confidence) / 2`.
    pub fn wilson(hits: u64, trials: u64, confidence: f64) -> Self {
        let n = trials as f64;
        let p = hits as f64 / n;
        let z = Normal::two_sided_critical(confidence);
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let margin = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
        Self::new(
            (center - margin).max(0.0),
            (center + margin).min(1.0),
            confidence,
        )
    }

    /// Interval width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    pub fn midpoint(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// Half-width (the ± margin around the midpoint).
    pub fn half_width(&self) -> f64 {
        self.width() / 2.0
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Half-width divided by |midpoint| — the *relative* margin users reason
    /// about ("answer is within ±2%"). Returns `f64::INFINITY` when the
    /// midpoint is zero.
    pub fn relative_half_width(&self) -> f64 {
        let m = self.midpoint().abs();
        if m == 0.0 {
            f64::INFINITY
        } else {
            self.half_width() / m
        }
    }
}

/// Empirical coverage accounting across repeated trials: the workhorse of the
/// CI-validity experiments (E2 in `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCounter {
    hits: u64,
    trials: u64,
}

impl CoverageCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial: did the interval contain the ground truth?
    pub fn record(&mut self, interval: &ConfidenceInterval, truth: f64) {
        self.trials += 1;
        if interval.contains(truth) {
            self.hits += 1;
        }
    }

    /// Records a pre-judged boolean outcome.
    pub fn record_hit(&mut self, hit: bool) {
        self.trials += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of trials recorded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of trials whose interval covered the truth.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Empirical coverage fraction; NaN if no trials recorded.
    pub fn coverage(&self) -> f64 {
        if self.trials == 0 {
            f64::NAN
        } else {
            self.hits as f64 / self.trials as f64
        }
    }

    /// Wilson score interval for the coverage proportion itself, so coverage
    /// experiments can distinguish sampling noise from genuine under-coverage.
    pub fn coverage_interval(&self, confidence: f64) -> ConfidenceInterval {
        assert!(
            self.trials > 0,
            "coverage_interval requires at least one trial"
        );
        ConfidenceInterval::wilson(self.hits, self.trials, confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let ci = ConfidenceInterval::new(1.0, 3.0, 0.95);
        assert_eq!(ci.width(), 2.0);
        assert_eq!(ci.midpoint(), 2.0);
        assert_eq!(ci.half_width(), 1.0);
        assert!(ci.contains(1.0) && ci.contains(3.0) && ci.contains(2.5));
        assert!(!ci.contains(0.99) && !ci.contains(3.01));
        assert!((ci.relative_half_width() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn interval_normalizes_order() {
        let ci = ConfidenceInterval::new(5.0, 2.0, 0.9);
        assert_eq!((ci.lo, ci.hi), (2.0, 5.0));
    }

    #[test]
    fn exact_interval_has_zero_width() {
        let ci = ConfidenceInterval::exact(7.0, 0.95);
        assert_eq!(ci.width(), 0.0);
        assert!(ci.contains(7.0));
    }

    #[test]
    fn relative_half_width_zero_midpoint() {
        let ci = ConfidenceInterval::new(-1.0, 1.0, 0.95);
        assert!(ci.relative_half_width().is_infinite());
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0,1)")]
    fn rejects_bad_confidence() {
        ConfidenceInterval::new(0.0, 1.0, 1.0);
    }

    #[test]
    fn coverage_counter_counts() {
        let mut c = CoverageCounter::new();
        let ci = ConfidenceInterval::new(0.0, 1.0, 0.95);
        c.record(&ci, 0.5);
        c.record(&ci, 2.0);
        c.record(&ci, 1.0);
        assert_eq!(c.trials(), 3);
        assert_eq!(c.hits(), 2);
        assert!((c.coverage() - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn wilson_interval_sane() {
        let mut c = CoverageCounter::new();
        for i in 0..1000 {
            c.record_hit(i % 20 != 0); // 95% hit rate.
        }
        let ci = c.coverage_interval(0.95);
        assert!(ci.contains(0.95));
        assert!(ci.lo > 0.9 && ci.hi < 1.0);
    }

    #[test]
    fn empty_counter_is_nan() {
        assert!(CoverageCounter::new().coverage().is_nan());
    }
}
