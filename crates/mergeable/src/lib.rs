//! The `Partial` contract: mergeable partial aggregates.
//!
//! NSB values a synopsis for being *mergeable*: an append-only delta can be
//! summarised on its own and folded into the stored summary instead of
//! rebuilding it from the whole table. Every summary in the system speaks
//! one *partial aggregation* protocol: build a partial per disjoint piece
//! of the data, [`Partial::merge`] partials associatively, and finish only
//! at the very end.
//!
//! This crate is the substrate: the [`Partial`] trait and the typed
//! [`MergeError`] returned when two partials are statistically or
//! structurally incompatible.
//!
//! # Laws
//!
//! Every implementation must satisfy, up to the numeric tolerance its
//! documentation states (exact for integer-state summaries, floating-point
//! round-off for f64 accumulators, rank-error growth for quantile
//! summaries):
//!
//! * **associativity** — `(a ∪ b) ∪ c ≡ a ∪ (b ∪ c)`
//! * **commutativity** — `a ∪ b ≡ b ∪ a`
//! * **identity** — merging a freshly constructed empty partial is a no-op
//! * **merge-equals-union** — merging partials built from disjoint streams
//!   is equivalent to one partial built from the concatenated stream
//!
//! `tests/merge_laws.rs` at the workspace root property-tests these laws
//! for every implementation at 1, 2, 4, and 8 partitions.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

/// Why two partials refused to merge.
///
/// Merging is only defined between partials of the same type *and* the same
/// parameters (sketch width/precision/seed, histogram boundaries, sampling
/// design, aggregate function). A mismatch is an error the caller can
/// handle — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The partials are the same kind but were built with different
    /// parameters (e.g. HLLs of different precision).
    Incompatible {
        /// Human-readable summary kind, e.g. `"hyperloglog"`.
        kind: &'static str,
        /// The parameters of the receiving partial.
        expected: String,
        /// The parameters of the offered partial.
        found: String,
    },
    /// The pair has no statistically sound merge (e.g. Bernoulli samples
    /// drawn at different rates).
    Unsupported {
        /// Human-readable summary kind, e.g. `"sample"`.
        kind: &'static str,
        /// Why this pair cannot be combined.
        reason: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Incompatible {
                kind,
                expected,
                found,
            } => write!(
                f,
                "cannot merge incompatible {kind} partials: expected {expected}, found {found}"
            ),
            MergeError::Unsupported { kind, reason } => {
                write!(f, "no defined merge for {kind} partials: {reason}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// A mergeable partial aggregate.
///
/// See the crate docs for the algebraic laws.
pub trait Partial {
    /// Folds `other` into `self`. Returns [`MergeError`] (leaving `self`
    /// unchanged) when the two partials are incompatible.
    fn merge(&mut self, other: &Self) -> Result<(), MergeError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = MergeError::Incompatible {
            kind: "hyperloglog",
            expected: "precision 12".into(),
            found: "precision 10".into(),
        };
        assert!(e.to_string().contains("hyperloglog"));
        let e = MergeError::Unsupported {
            kind: "sample",
            reason: "rates differ".into(),
        };
        assert!(e.to_string().contains("rates differ"));
    }
}
