//! The shared routing vocabulary: technique identities, guarantee classes,
//! and machine-readable decline reasons.
//!
//! These types live here, not next to `aqp-core`'s `Technique` trait, so
//! the static analyzer and the runtime router speak the *same* language:
//! the [`DeclineReason`] on a verdict is the value the router records, and
//! a runtime decline is compared against it with `==` instead of through
//! a lossy mapping. `aqp-core` re-exports everything.

use std::fmt;

/// The fewest blocks a fact table may have for pilot-planned block
/// sampling to estimate spread — the default
/// [`crate::LintPolicy::min_sampling_blocks`].
pub const MIN_SAMPLING_BLOCKS: u64 = 4;

/// Identifies one routable AQP family (plus the exact terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechniqueKind {
    /// Pre-built offline synopsis.
    OfflineSynopsis,
    /// Pilot-planned two-phase online sampling.
    OnlineSampling,
    /// Progressive online aggregation.
    OnlineAggregation,
    /// Middleware rewrite over a query-time block sample.
    MiddlewareRewrite,
    /// Exact execution — the terminal every chain ends in.
    Exact,
}

impl TechniqueKind {
    /// Stable kebab-case name (used in reports, logs, and BENCH json).
    pub fn name(&self) -> &'static str {
        match self {
            Self::OfflineSynopsis => "offline-synopsis",
            Self::OnlineSampling => "online-sampling",
            Self::OnlineAggregation => "online-aggregation",
            Self::MiddlewareRewrite => "rewrite-middleware",
            Self::Exact => "exact",
        }
    }

    /// The four routable families plus the exact terminal, in routing
    /// policy order (the order [`crate::lint_plan`] reports verdicts in).
    pub fn all() -> [TechniqueKind; 5] {
        [
            Self::OfflineSynopsis,
            Self::OnlineSampling,
            Self::OnlineAggregation,
            Self::MiddlewareRewrite,
            Self::Exact,
        ]
    }
}

impl fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a technique cannot (or would not) serve a query — machine-readable,
/// so routing decisions, lint predictions, and the capability matrix can
/// all be derived from it.
#[derive(Debug, Clone, PartialEq)]
pub enum DeclineReason {
    /// The plan is outside the normalized star linear-aggregate shape.
    UnsupportedShape {
        /// What about the shape is unsupported.
        detail: String,
    },
    /// One of the query's aggregates is outside what the technique covers.
    UnsupportedAggregate {
        /// Alias of the offending aggregate.
        alias: String,
        /// What the technique would have needed.
        detail: String,
    },
    /// The technique cannot serve queries with joins.
    JoinsUnsupported,
    /// The technique cannot serve grouped queries.
    GroupByUnsupported,
    /// No synopsis has been built for the fact table.
    NoSynopsis {
        /// The table lacking a synopsis.
        table: String,
    },
    /// A synopsis exists but was stratified on a different column set than
    /// the query groups by — per-group coverage would be silently lost
    /// (the E8 group-drift failure mode).
    SynopsisMismatch {
        /// Column the synopsis is stratified on.
        stratified_on: String,
        /// Column(s) the query groups by.
        requested: String,
    },
    /// The synopsis is too stale to trust (base data moved on).
    StaleSynopsis {
        /// Relative row-count divergence.
        staleness: f64,
        /// The routing policy's freshness threshold.
        max_staleness: f64,
    },
    /// The table is too small for the design's spread estimation.
    TableTooSmall {
        /// Blocks in the fact table.
        blocks: u64,
        /// Minimum blocks the design needs.
        min_blocks: u64,
    },
    /// The pilot sample matched nothing — no basis for planning.
    EmptyPilot,
    /// The planned sampling rate exceeds the pay-off cap; sampling would
    /// not beat exact execution while honoring the contract.
    RateAboveCap {
        /// The rate the error spec would require: the pilot's spread
        /// inflated for pilot noise.
        required: f64,
        /// The same rate with the pilot's spread *deflated* by the factor
        /// `required` inflates it by — the low end of the planner's band.
        /// Above `cap`, the decline is decisive, not in doubt. The band
        /// is a heuristic, so one decisive pilot is not proof that every
        /// pilot of the same data declines.
        optimistic: f64,
        /// The configured cap.
        cap: f64,
    },
    /// Too few sample rows support the answer for it to be trustworthy.
    InsufficientSupport {
        /// Smallest per-group supporting row count observed.
        rows: u64,
        /// The configured minimum.
        min_rows: u64,
    },
    /// The referenced table does not exist in the catalog.
    MissingTable {
        /// The missing table.
        table: String,
    },
    /// The session's accuracy auditor quarantined the technique: its
    /// windowed observed coverage fell below the configured floor, so
    /// the guarantee it advertises is not the guarantee it delivers.
    Quarantined {
        /// Observed coverage over the audit window, in basis points
        /// (integer so two derivations of the reason compare `==`).
        coverage_bp: u32,
        /// The configured coverage floor, in basis points.
        floor_bp: u32,
    },
}

impl DeclineReason {
    /// Stable kebab-case tag naming the variant (no payload) — the label
    /// value for the `aqp_decline_total` metric series, so cardinality
    /// stays bounded no matter what tables or rates the payloads carry.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::UnsupportedShape { .. } => "unsupported-shape",
            Self::UnsupportedAggregate { .. } => "unsupported-aggregate",
            Self::JoinsUnsupported => "joins-unsupported",
            Self::GroupByUnsupported => "group-by-unsupported",
            Self::NoSynopsis { .. } => "no-synopsis",
            Self::SynopsisMismatch { .. } => "synopsis-mismatch",
            Self::StaleSynopsis { .. } => "stale-synopsis",
            Self::TableTooSmall { .. } => "table-too-small",
            Self::EmptyPilot => "empty-pilot",
            Self::RateAboveCap { .. } => "rate-above-cap",
            Self::InsufficientSupport { .. } => "insufficient-support",
            Self::MissingTable { .. } => "missing-table",
            Self::Quarantined { .. } => "quarantined",
        }
    }

    /// Whether this reason is decidable from the plan and catalog/synopsis
    /// metadata alone — i.e. the static analyzer can (and must) decide it
    /// before execution. Dynamic reasons (empty pilot, rate above cap,
    /// starved support) depend on the data and only ever surface as
    /// *runtime* declines; the analyzer flags them as risks, never as
    /// verdicts. The analyzer/router consistency proptest pivots on this
    /// split: a statically eligible technique may decline at runtime only
    /// for a reason where `is_static()` is `false`.
    pub fn is_static(&self) -> bool {
        match self {
            Self::UnsupportedShape { .. }
            | Self::UnsupportedAggregate { .. }
            | Self::JoinsUnsupported
            | Self::GroupByUnsupported
            | Self::NoSynopsis { .. }
            | Self::SynopsisMismatch { .. }
            | Self::StaleSynopsis { .. }
            | Self::TableTooSmall { .. }
            | Self::MissingTable { .. }
            // Quarantine is session metadata fed into the lint context,
            // so the analyzer predicts it exactly like synopsis state.
            | Self::Quarantined { .. } => true,
            Self::EmptyPilot | Self::RateAboveCap { .. } | Self::InsufficientSupport { .. } => {
                false
            }
        }
    }
}

impl fmt::Display for DeclineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedShape { detail } => write!(f, "unsupported plan shape: {detail}"),
            Self::UnsupportedAggregate { alias, detail } => {
                write!(f, "aggregate `{alias}` unsupported: {detail}")
            }
            Self::JoinsUnsupported => write!(f, "joins unsupported"),
            Self::GroupByUnsupported => write!(f, "GROUP BY unsupported"),
            Self::NoSynopsis { table } => write!(f, "no synopsis for `{table}`"),
            Self::SynopsisMismatch {
                stratified_on,
                requested,
            } => write!(
                f,
                "synopsis stratified on `{stratified_on}`, query groups by `{requested}`"
            ),
            Self::StaleSynopsis {
                staleness,
                max_staleness,
            } => write!(f, "synopsis stale ({staleness:.2} > {max_staleness:.2})"),
            Self::TableTooSmall { blocks, min_blocks } => {
                write!(f, "table too small ({blocks} blocks < {min_blocks})")
            }
            Self::EmptyPilot => write!(f, "pilot sample matched nothing"),
            Self::RateAboveCap {
                required,
                optimistic,
                cap,
            } => write!(
                f,
                "required rate {required:.3} exceeds cap {cap:.3}; optimistic {optimistic:.3}"
            ),
            Self::InsufficientSupport { rows, min_rows } => {
                write!(f, "sample support {rows} rows < minimum {min_rows}")
            }
            Self::MissingTable { table } => write!(f, "table `{table}` not found"),
            Self::Quarantined {
                coverage_bp,
                floor_bp,
            } => write!(
                f,
                "quarantined by accuracy audits (observed coverage {:.2} < floor {:.2})",
                *coverage_bp as f64 / 10_000.0,
                *floor_bp as f64 / 10_000.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TechniqueKind::OfflineSynopsis.name(), "offline-synopsis");
        assert_eq!(TechniqueKind::OnlineSampling.name(), "online-sampling");
        assert_eq!(
            TechniqueKind::OnlineAggregation.name(),
            "online-aggregation"
        );
        assert_eq!(
            TechniqueKind::MiddlewareRewrite.name(),
            "rewrite-middleware"
        );
        assert_eq!(TechniqueKind::Exact.name(), "exact");
    }

    #[test]
    fn decline_reasons_render() {
        let r = DeclineReason::RateAboveCap {
            required: 0.45,
            optimistic: 0.31,
            cap: 0.2,
        };
        assert_eq!(
            r.to_string(),
            "required rate 0.450 exceeds cap 0.200; optimistic 0.310"
        );
        assert!(DeclineReason::EmptyPilot.to_string().contains("pilot"));
        assert!(DeclineReason::StaleSynopsis {
            staleness: 0.3,
            max_staleness: 0.1
        }
        .to_string()
        .contains("stale"));
    }

    #[test]
    fn static_dynamic_split() {
        assert!(DeclineReason::JoinsUnsupported.is_static());
        assert!(DeclineReason::NoSynopsis { table: "t".into() }.is_static());
        assert!(DeclineReason::TableTooSmall {
            blocks: 1,
            min_blocks: 4
        }
        .is_static());
        assert!(!DeclineReason::EmptyPilot.is_static());
        assert!(!DeclineReason::RateAboveCap {
            required: 0.5,
            optimistic: 0.3,
            cap: 0.2
        }
        .is_static());
        assert!(!DeclineReason::InsufficientSupport {
            rows: 3,
            min_rows: 30
        }
        .is_static());
        assert!(DeclineReason::Quarantined {
            coverage_bp: 5_000,
            floor_bp: 8_000
        }
        .is_static());
    }

    #[test]
    fn quarantined_renders_and_tags() {
        let r = DeclineReason::Quarantined {
            coverage_bp: 5_000,
            floor_bp: 8_000,
        };
        assert_eq!(r.tag(), "quarantined");
        assert!(r.to_string().contains("0.50"), "{r}");
        assert!(r.to_string().contains("0.80"), "{r}");
    }
}
