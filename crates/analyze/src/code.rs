//! The stable lint-code registry.
//!
//! Each code operationalizes one claim from NSB §2 ("no silver bullet"):
//! a concrete, statically checkable way a query falls off the
//! generality/accuracy/performance frontier. Codes are append-only —
//! `A001` will mean "aggregate not closed under sampling" forever, so
//! tooling (and the golden tests) can key on them. A retired code is never
//! reused: `A013` ("only a point estimate attainable") went when the
//! middleware rewrite began carrying intervals, and `A014` kept its code.

use std::fmt;

/// A stable lint code (`A001`–`A014`, `A013` retired). The discriminant
/// order is the registry order; new codes append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// Aggregate is not closed under sampling (MAX/MIN/COUNT DISTINCT/…):
    /// no sampling-based estimator can bound its error.
    A001NonClosedAggregate,
    /// The plan is outside the normalized star linear-aggregate shape.
    A002UnsupportedShape,
    /// Joins statically exclude a family (offline synopses and progressive
    /// aggregation sample one relation and cannot replay a join chain).
    A003JoinsExcludeFamily,
    /// The plan's shape statically excludes progressive aggregation
    /// (GROUP BY, multiple aggregates, or a non-column argument).
    A004ProgressiveShape,
    /// No offline synopsis has been built for the fact table.
    A005NoSynopsis,
    /// A synopsis exists but is stratified on a different column than the
    /// query groups by — per-group coverage would be silently lost.
    A006SynopsisMismatch,
    /// The synopsis is stale: the base table moved past the freshness
    /// threshold since the synopsis was built.
    A007StaleSynopsis,
    /// The fact table has too few blocks for pilot-planned block sampling
    /// to estimate spread.
    A008TableTooSmall,
    /// A referenced table does not exist in the catalog.
    A009MissingTable,
    /// Skewed/grouped query over a sampled path: small groups risk
    /// starving per-group support at runtime (a dynamic decline the
    /// analyzer can flag but not decide).
    A010GroupSupportRisk,
    /// A selective predicate over a sampled path risks an empty pilot or a
    /// planned rate above the pay-off cap at runtime.
    A011SelectivePredicateRisk,
    /// A sampled join without a universe-sampling (hash-partitioned key)
    /// predicate: correct only for FK joins into unsampled dimensions.
    A012SampledJoinPrecondition,
    /// The session's accuracy auditor quarantined a technique: its
    /// windowed observed coverage fell below the configured floor and it
    /// will not be routed to until coverage recovers (or its synopsis is
    /// maintained).
    A014TechniqueQuarantined,
}

impl LintCode {
    /// The stable wire code, e.g. `"A001"`.
    pub fn code(&self) -> &'static str {
        match self {
            Self::A001NonClosedAggregate => "A001",
            Self::A002UnsupportedShape => "A002",
            Self::A003JoinsExcludeFamily => "A003",
            Self::A004ProgressiveShape => "A004",
            Self::A005NoSynopsis => "A005",
            Self::A006SynopsisMismatch => "A006",
            Self::A007StaleSynopsis => "A007",
            Self::A008TableTooSmall => "A008",
            Self::A009MissingTable => "A009",
            Self::A010GroupSupportRisk => "A010",
            Self::A011SelectivePredicateRisk => "A011",
            Self::A012SampledJoinPrecondition => "A012",
            Self::A014TechniqueQuarantined => "A014",
        }
    }

    /// One-line title for the registry table.
    pub fn title(&self) -> &'static str {
        match self {
            Self::A001NonClosedAggregate => "aggregate not closed under sampling",
            Self::A002UnsupportedShape => "plan outside the star linear-aggregate shape",
            Self::A003JoinsExcludeFamily => "joins statically exclude this family",
            Self::A004ProgressiveShape => "shape excludes progressive aggregation",
            Self::A005NoSynopsis => "no offline synopsis for the fact table",
            Self::A006SynopsisMismatch => "synopsis stratification does not cover the grouping",
            Self::A007StaleSynopsis => "synopsis staleness exceeds the freshness threshold",
            Self::A008TableTooSmall => "fact table too small for pilot-planned sampling",
            Self::A009MissingTable => "referenced table missing from the catalog",
            Self::A010GroupSupportRisk => "per-group support risk under skewed grouping",
            Self::A011SelectivePredicateRisk => "selective predicate risks pilot starvation",
            Self::A012SampledJoinPrecondition => "sampled join lacks a universe-sampling key",
            Self::A014TechniqueQuarantined => "technique quarantined by accuracy audits",
        }
    }

    /// The NSB §2 claim this lint operationalizes (documented in
    /// `EXPERIMENTS.md` §E-lint).
    pub fn nsb_claim(&self) -> &'static str {
        match self {
            Self::A001NonClosedAggregate => {
                "sampling bounds error only for aggregates closed under it (SUM/COUNT/AVG); \
                 extremes and distinct counts need offline synopses or exact execution"
            }
            Self::A002UnsupportedShape => {
                "generality axis: AQP systems intercept the shapes their theory covers and \
                 must route the rest exact"
            }
            Self::A003JoinsExcludeFamily => {
                "single-relation synopses cannot answer join queries without join synopses"
            }
            Self::A004ProgressiveShape => {
                "online aggregation's live interval is defined per scalar estimator"
            }
            Self::A005NoSynopsis => {
                "offline AQP's speed comes from precomputation; without it the family \
                 cannot answer at all"
            }
            Self::A006SynopsisMismatch => {
                "stratified samples guarantee per-group coverage only for the columns they \
                 were stratified on (BlinkDB's optimizer makes the same static match)"
            }
            Self::A007StaleSynopsis => {
                "precomputed synopses trade freshness for speed; drift voids the guarantee"
            }
            Self::A008TableTooSmall => {
                "pilot-based designs need enough blocks to estimate spread; tiny tables are \
                 cheaper exact"
            }
            Self::A009MissingTable => "no technique, exact included, answers over missing data",
            Self::A010GroupSupportRisk => {
                "uniform sampling starves small groups (the skew failure mode stratification \
                 exists to fix)"
            }
            Self::A011SelectivePredicateRisk => {
                "fixed-rate sampling collapses under selective predicates (the selectivity \
                 cliff)"
            }
            Self::A012SampledJoinPrecondition => {
                "joining two independent samples is biased; universe sampling on the join \
                 key is the known precondition"
            }
            Self::A014TechniqueQuarantined => {
                "AQP guarantees are conditional: when audited coverage falls below the \
                 promise, routing must stop trusting the technique until it is repaired"
            }
        }
    }

    /// Every code, in registry order.
    pub fn all() -> [LintCode; 13] {
        [
            Self::A001NonClosedAggregate,
            Self::A002UnsupportedShape,
            Self::A003JoinsExcludeFamily,
            Self::A004ProgressiveShape,
            Self::A005NoSynopsis,
            Self::A006SynopsisMismatch,
            Self::A007StaleSynopsis,
            Self::A008TableTooSmall,
            Self::A009MissingTable,
            Self::A010GroupSupportRisk,
            Self::A011SelectivePredicateRisk,
            Self::A012SampledJoinPrecondition,
            Self::A014TechniqueQuarantined,
        ]
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing is blocked, but the user should know.
    Note,
    /// A family is statically excluded, or a dynamic decline is likely.
    Warn,
    /// No approximate family (or no technique at all) can serve the plan.
    Error,
}

impl Severity {
    /// Lowercase label for rendering (`error`/`warn`/`note`).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Error => "error",
            Self::Warn => "warn",
            Self::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        // `A013` is retired, never reused; every other code keeps its slot.
        let codes: Vec<&str> = LintCode::all().iter().map(|c| c.code()).collect();
        let want: Vec<String> = (1..=14)
            .filter(|&i| i != 13)
            .map(|i| format!("A{i:03}"))
            .collect();
        assert_eq!(codes, want);
        for c in LintCode::all() {
            assert!(!c.title().is_empty());
            assert!(!c.nsb_claim().is_empty());
        }
    }

    #[test]
    fn severity_orders_note_warn_error() {
        assert!(Severity::Note < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }
}
