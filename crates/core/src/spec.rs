//! Error specifications: the user-facing accuracy contract.
//!
//! NSB argues that AQP adoption hinges on an interface where the user
//! states the error they can tolerate and the system either honors it or
//! declines. [`ErrorSpec`] is that contract: a maximum relative error and
//! the probability with which *all* of the query's aggregates must satisfy
//! it jointly.

use crate::error::AqpError;

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
        match Self::try_new(relative_error, confidence) {
            Ok(spec) => spec,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`ErrorSpec::new`] for numbers a client sent: a field outside
    /// (0, 1), NaN included, is an [`AqpError::InvalidContract`] naming
    /// it instead of a panic.
    pub fn try_new(relative_error: f64, confidence: f64) -> Result<Self, AqpError> {
        for (name, v) in [
            ("relative error", relative_error),
            ("confidence", confidence),
        ] {
            if !(v > 0.0 && v < 1.0) {
                return Err(AqpError::InvalidContract {
                    detail: format!("{name} must be in (0,1), got {v}"),
                });
            }
        }
        Ok(Self {
            relative_error,
            confidence,
        })
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
    fn try_new_names_the_field_outside_the_open_unit_interval() {
        assert_eq!(ErrorSpec::try_new(0.1, 0.9), Ok(ErrorSpec::new(0.1, 0.9)));
        for bad in [f64::NAN, 0.0, 1.0, 1.5, -0.1] {
            for (spec, field) in [
                (ErrorSpec::try_new(bad, 0.9), "relative error"),
                (ErrorSpec::try_new(0.1, bad), "confidence"),
            ] {
                match spec {
                    Err(AqpError::InvalidContract { detail }) => {
                        assert!(detail.starts_with(field), "{detail}")
                    }
                    other => panic!("{field} = {bad}: {other:?}"),
                }
            }
        }
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
