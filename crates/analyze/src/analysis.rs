//! The analyzer's output: per-family verdicts on the guarantee lattice,
//! plus the diagnostics stream.

use std::fmt::Write as _;

use crate::code::{LintCode, Severity};
use crate::diag::Diagnostic;
use crate::technique::{DeclineReason, TechniqueKind};

/// Where an answer can land on the guarantee lattice, ordered best-first:
///
/// ```text
/// Exact  >  APriori  >  APosteriori  >  Unattainable
/// ```
///
/// `Exact` dominates because its "interval" is a point of width zero known
/// before execution; `Unattainable` is the bottom (the family cannot answer
/// at all). Every approximate family carries an interval. `Ord` follows
/// the lattice (the variants are declared bottom-up), so `max()` over
/// verdicts is "the best answer this plan can statically get".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GuaranteeClass {
    /// The family cannot answer this plan at all.
    Unattainable,
    /// Error known only after (or during) execution.
    APosteriori,
    /// Error contract honored before execution.
    APriori,
    /// Exact execution: zero-width intervals, known a priori.
    Exact,
}

impl GuaranteeClass {
    /// Stable kebab-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Unattainable => "unattainable",
            Self::APosteriori => "a-posteriori",
            Self::APriori => "a-priori",
            Self::Exact => "exact",
        }
    }
}

impl std::fmt::Display for GuaranteeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The analyzer's static verdict on one family: either the guarantee class
/// it can attain for this plan, or the [`DeclineReason`] that rules it
/// out a priori.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueVerdict {
    /// The family.
    pub kind: TechniqueKind,
    /// Best statically attainable guarantee ([`GuaranteeClass::Unattainable`]
    /// iff `blocked_by` is set).
    pub guarantee: GuaranteeClass,
    /// The a-priori decline. This is the eligibility decision itself, not
    /// a forecast of one: the router records it as the candidate's
    /// outcome and never attempts a blocked family.
    pub blocked_by: Option<DeclineReason>,
}

/// The full result of statically analyzing one plan: one verdict per
/// family (policy order, exact last) and the diagnostics stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Diagnostics in emission order (pass order, stable).
    pub diagnostics: Vec<Diagnostic>,
    /// One verdict per family, in routing-policy order.
    pub verdicts: Vec<TechniqueVerdict>,
    /// Whether the plan normalized to the star linear-aggregate shape.
    pub normalized: bool,
    /// Static upper bound on the root aggregation's group count, when the
    /// key shapes imply one (`x % k` has at most `|k|` non-negative
    /// residues, a literal key has one value, a global aggregate has one
    /// group). Consumers use it to pre-size aggregation hash maps — it is
    /// a sizing hint, not a semantic guarantee, so an under-estimate only
    /// costs a rehash. `None` when no bound is derivable or the plan's
    /// root is not an aggregation.
    pub group_cardinality_hint: Option<u64>,
}

impl Analysis {
    /// The verdict for `kind`.
    ///
    /// # Panics
    /// Panics if `kind` has no verdict (every [`TechniqueKind`] does).
    pub fn verdict(&self, kind: TechniqueKind) -> &TechniqueVerdict {
        self.verdicts
            .iter()
            .find(|v| v.kind == kind)
            .unwrap_or_else(|| panic!("no verdict for {kind}"))
    }

    /// The a-priori decline for `kind`, if the analyzer blocks it.
    pub fn blocked_by(&self, kind: TechniqueKind) -> Option<&DeclineReason> {
        self.verdict(kind).blocked_by.as_ref()
    }

    /// Whether `kind` is statically eligible (no a-priori decline).
    pub fn statically_eligible(&self, kind: TechniqueKind) -> bool {
        self.verdict(kind).blocked_by.is_none()
    }

    /// The strongest guarantee any family (exact included) can attain.
    pub fn best_attainable(&self) -> GuaranteeClass {
        self.verdicts
            .iter()
            .map(|v| v.guarantee)
            .max()
            .unwrap_or(GuaranteeClass::Unattainable)
    }

    /// The strongest guarantee any *approximate* family can attain —
    /// [`GuaranteeClass::Unattainable`] means only exact remains.
    pub fn best_approximate(&self) -> GuaranteeClass {
        self.verdicts
            .iter()
            .filter(|v| v.kind != TechniqueKind::Exact)
            .map(|v| v.guarantee)
            .max()
            .unwrap_or(GuaranteeClass::Unattainable)
    }

    /// The first diagnostic with `code`, if any.
    pub fn diag(&self, code: LintCode) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.code == code)
    }

    /// Whether any diagnostic with `code` was emitted.
    pub fn has(&self, code: LintCode) -> bool {
        self.diag(code).is_some()
    }

    /// The worst severity present, `None` when the plan is lint-clean.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Multi-line rendering of verdicts + diagnostics — the `lints:` table
    /// `explain_analyze` embeds.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "best attainable: {} (approximate: {})",
            self.best_attainable(),
            self.best_approximate()
        );
        for v in &self.verdicts {
            match &v.blocked_by {
                Some(r) => {
                    let _ = writeln!(out, "{:<20} {:<14} blocked: {r}", v.kind.name(), "—");
                }
                None => {
                    let _ = writeln!(out, "{:<20} {:<14}", v.kind.name(), v.guarantee.name());
                }
            }
        }
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "no lints");
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", d.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_order() {
        use GuaranteeClass::*;
        assert!(Exact > APriori);
        assert!(APriori > APosteriori);
        assert!(APosteriori > Unattainable);
        assert_eq!([APriori, Exact, APosteriori].iter().max(), Some(&Exact));
    }

    #[test]
    fn verdict_lookup_and_best() {
        let a = Analysis {
            diagnostics: vec![],
            verdicts: vec![
                TechniqueVerdict {
                    kind: TechniqueKind::OnlineSampling,
                    guarantee: GuaranteeClass::Unattainable,
                    blocked_by: Some(DeclineReason::TableTooSmall {
                        blocks: 1,
                        min_blocks: 4,
                    }),
                },
                TechniqueVerdict {
                    kind: TechniqueKind::MiddlewareRewrite,
                    guarantee: GuaranteeClass::APosteriori,
                    blocked_by: None,
                },
                TechniqueVerdict {
                    kind: TechniqueKind::Exact,
                    guarantee: GuaranteeClass::Exact,
                    blocked_by: None,
                },
            ],
            normalized: true,
            group_cardinality_hint: None,
        };
        assert!(!a.statically_eligible(TechniqueKind::OnlineSampling));
        assert!(a.statically_eligible(TechniqueKind::MiddlewareRewrite));
        assert_eq!(a.best_attainable(), GuaranteeClass::Exact);
        assert_eq!(a.best_approximate(), GuaranteeClass::APosteriori);
        let table = a.render_table();
        assert!(table.contains("online-sampling"));
        assert!(table.contains("blocked: table too small"));
        assert!(table.contains("no lints"));
    }
}
