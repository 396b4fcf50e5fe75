//! Error specifications: the user-facing accuracy contract.
//!
//! NSB argues that AQP adoption hinges on an interface where the user
//! states the error they can tolerate and the system either honors it or
//! declines. [`ErrorSpec`] is that contract: a maximum relative error and
//! the probability with which *all* of the query's aggregates must satisfy
//! it jointly.

/// A joint accuracy contract: with probability at least `confidence`,
/// every aggregate of the query has relative error at most
/// `relative_error`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSpec {
    /// Maximum tolerated relative error, e.g. `0.05` for ±5%.
    pub relative_error: f64,
    /// Joint success probability, e.g. `0.95`.
    pub confidence: f64,
}

impl ErrorSpec {
    /// Creates a spec.
    ///
    /// # Panics
    /// Panics if either field is outside (0, 1).
    pub fn new(relative_error: f64, confidence: f64) -> Self {
        assert!(
            relative_error > 0.0 && relative_error < 1.0,
            "relative error must be in (0,1), got {relative_error}"
        );
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        Self {
            relative_error,
            confidence,
        }
    }

    /// The per-aggregate spec when the joint contract covers `k` aggregate
    /// estimates (aggregates × groups), via Boole's inequality: each keeps
    /// the relative-error target but must hold with confidence
    /// `1 − (1 − γ)/k`.
    pub fn split_across(&self, k: usize) -> ErrorSpec {
        ErrorSpec {
            relative_error: self.relative_error,
            confidence: aqp_stats::estimate::boole_split(self.confidence, k),
        }
    }

    /// The two-sided normal critical value for this spec's confidence.
    pub fn z(&self) -> f64 {
        aqp_stats::Normal::two_sided_critical(self.confidence)
    }
}

impl Default for ErrorSpec {
    /// The conventional default: ±5% with 95% confidence.
    fn default() -> Self {
        Self::new(0.05, 0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec() {
        let s = ErrorSpec::default();
        assert_eq!(s.relative_error, 0.05);
        assert_eq!(s.confidence, 0.95);
        assert!((s.z() - 1.96).abs() < 0.01);
    }

    #[test]
    fn split_tightens_confidence_only() {
        let s = ErrorSpec::new(0.1, 0.9);
        let per = s.split_across(10);
        assert_eq!(per.relative_error, 0.1);
        assert!((per.confidence - 0.99).abs() < 1e-12);
        // Splitting across one aggregate is the identity.
        let same = s.split_across(1);
        assert!((same.confidence - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "relative error must be in (0,1)")]
    fn rejects_bad_error() {
        ErrorSpec::new(1.5, 0.9);
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0,1)")]
    fn rejects_bad_confidence() {
        ErrorSpec::new(0.1, 0.0);
    }
}
