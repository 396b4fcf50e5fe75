//! AQP-layer error type.

use std::fmt;

use aqp_engine::EngineError;
use aqp_expr::ExprError;
use aqp_storage::StorageError;

/// Errors raised by the AQP layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AqpError {
    /// Underlying storage error.
    Storage(StorageError),
    /// Underlying expression error.
    Expr(ExprError),
    /// Underlying engine error.
    Engine(EngineError),
    /// The query shape is not supported by the approximate path.
    Unsupported {
        /// Why the query cannot be approximated.
        detail: String,
    },
    /// The error specification cannot be met by sampling (the planner would
    /// need more data than exact execution touches).
    Infeasible {
        /// Why no sampling plan qualifies.
        detail: String,
    },
    /// A client's accuracy contract is malformed: its error or confidence
    /// lies outside (0, 1).
    InvalidContract {
        /// Which field, and the value it had.
        detail: String,
    },
}

impl fmt::Display for AqpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Storage(e) => write!(f, "storage error: {e}"),
            Self::Expr(e) => write!(f, "expression error: {e}"),
            Self::Engine(e) => write!(f, "engine error: {e}"),
            Self::Unsupported { detail } => write!(f, "unsupported for AQP: {detail}"),
            Self::Infeasible { detail } => write!(f, "no feasible sampling plan: {detail}"),
            Self::InvalidContract { detail } => write!(f, "invalid contract: {detail}"),
        }
    }
}

impl std::error::Error for AqpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Storage(e) => Some(e),
            Self::Expr(e) => Some(e),
            Self::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for AqpError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

impl From<ExprError> for AqpError {
    fn from(e: ExprError) -> Self {
        Self::Expr(e)
    }
}

impl From<EngineError> for AqpError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: AqpError = StorageError::TableNotFound { name: "t".into() }.into();
        assert!(e.to_string().contains("table not found"));
        let e = AqpError::Unsupported {
            detail: "MIN".into(),
        };
        assert!(e.to_string().contains("unsupported"));
        let e = AqpError::Infeasible {
            detail: "q > 1".into(),
        };
        assert!(e.to_string().contains("feasible"));
        let e = AqpError::InvalidContract {
            detail: "confidence must be in (0,1), got 1".into(),
        };
        assert!(e.to_string().starts_with("invalid contract"));
    }
}
