//! Structured diagnostics: what the analyzer found, where, and what to do
//! about it.

use std::fmt;

use crate::code::{LintCode, Severity};
use crate::technique::{DeclineReason, TechniqueKind};

/// A machine-readable suggested rewrite — the actionable half of a
/// diagnostic. Every variant names a concrete operation the user (or an
/// orchestrating layer) can apply; rendering is for humans, matching is
/// for tools.
#[derive(Debug, Clone, PartialEq)]
pub enum Suggestion {
    /// Run the query exactly; no approximate path is worth it.
    RouteExact,
    /// Build a stratified synopsis for `table` over `column` so the
    /// offline family can serve this (and similar) queries.
    BuildStratifiedSynopsis {
        /// Fact table to sample.
        table: String,
        /// Column to stratify on (the query's group key).
        column: String,
    },
    /// Rebuild the existing synopsis for `table`; the base data drifted.
    RefreshSynopsis {
        /// The stale synopsis' table.
        table: String,
    },
    /// Re-stratify the synopsis on the query's group column.
    RestratifySynopsis {
        /// The synopsis' table.
        table: String,
        /// Column the query groups by.
        column: String,
    },
    /// Loosen the error spec or raise the sampling budget; the plan is
    /// statically fine but the contract is at risk at runtime.
    RelaxSpecOrRaiseBudget,
    /// Add a universe-sampling (`hash64(key) % m < k`) predicate on the
    /// join key so both sides survive sampling consistently.
    UseUniverseSampling {
        /// The join key column to hash-partition on.
        key: String,
    },
}

impl fmt::Display for Suggestion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RouteExact => write!(f, "route exact"),
            Self::BuildStratifiedSynopsis { table, column } => {
                write!(
                    f,
                    "build a stratified synopsis on `{table}` over `{column}`"
                )
            }
            Self::RefreshSynopsis { table } => write!(f, "rebuild the synopsis for `{table}`"),
            Self::RestratifySynopsis { table, column } => {
                write!(f, "re-stratify `{table}`'s synopsis on `{column}`")
            }
            Self::RelaxSpecOrRaiseBudget => {
                write!(f, "relax the error spec or raise the sampling budget")
            }
            Self::UseUniverseSampling { key } => {
                write!(f, "universe-sample both sides on `hash64({key})`")
            }
        }
    }
}

/// One analyzer finding: a stable code, a severity, the offending
/// sub-expression's path into the plan, prose, and — when the lint blocks
/// or threatens a specific family — which family and which
/// [`DeclineReason`] it predicts.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// How bad it is.
    pub severity: Severity,
    /// The family this lint speaks about; `None` for plan-wide findings.
    pub technique: Option<TechniqueKind>,
    /// Dotted path to the offending plan/sub-expression node, e.g.
    /// `aggregate.aggregates[1]` or `filter.predicate`.
    pub path: String,
    /// Human-readable finding.
    pub message: String,
    /// Machine-readable suggested rewrite, when one exists.
    pub suggestion: Option<Suggestion>,
    /// The decline this lint stands for. For `Warn`-blocking lints this is
    /// the reason on the family's verdict; for risk lints it is the
    /// *dynamic* reason that may surface at runtime.
    pub predicts: Option<DeclineReason>,
}

impl Diagnostic {
    /// One-line rendering: `A005 warn [offline-synopsis] plan: no synopsis
    /// for `t` — suggest: build a stratified synopsis …`.
    pub fn render(&self) -> String {
        let mut out = format!("{} {:<5}", self.code, self.severity.label());
        if let Some(t) = self.technique {
            out.push_str(&format!(" [{t}]"));
        }
        out.push_str(&format!(" {}: {}", self.path, self.message));
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(" — suggest: {s}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_parts() {
        let d = Diagnostic {
            code: LintCode::A005NoSynopsis,
            severity: Severity::Warn,
            technique: Some(TechniqueKind::OfflineSynopsis),
            path: "plan".to_string(),
            message: "no synopsis for `t`".to_string(),
            suggestion: Some(Suggestion::BuildStratifiedSynopsis {
                table: "t".to_string(),
                column: "g".to_string(),
            }),
            predicts: Some(DeclineReason::NoSynopsis { table: "t".into() }),
        };
        let r = d.render();
        assert!(r.starts_with("A005 warn"));
        assert!(r.contains("[offline-synopsis]"));
        assert!(r.contains("no synopsis"));
        assert!(r.contains("suggest: build a stratified synopsis on `t` over `g`"));
    }

    #[test]
    fn suggestions_render() {
        assert_eq!(Suggestion::RouteExact.to_string(), "route exact");
        assert!(Suggestion::UseUniverseSampling { key: "k".into() }
            .to_string()
            .contains("hash64(k)"));
        assert!(Suggestion::RefreshSynopsis { table: "t".into() }
            .to_string()
            .contains("rebuild"));
    }
}
