//! What the analyzer knows besides the plan: catalog metadata, synopsis
//! metadata, and the routing policy's thresholds.

use aqp_storage::Catalog;

/// The routing-policy thresholds the analyzer folds into its verdicts.
/// Mirrors the session's configuration; `Default` matches
/// `SessionConfig::default()` so `lint_plan` against a default session
/// needs no explicit policy.
#[derive(Debug, Clone, Copy)]
pub struct LintPolicy {
    /// Maximum synopsis staleness at which the offline family is trusted.
    pub max_staleness: f64,
    /// Minimum per-group sample rows the rewrite demands at runtime (used
    /// for the support-risk lint, not for a static verdict).
    pub rewrite_min_group_support: u64,
}

impl Default for LintPolicy {
    fn default() -> Self {
        Self {
            max_staleness: 0.1,
            rewrite_min_group_support: 30,
        }
    }
}

/// Metadata of one offline synopsis, as the analyzer sees it. The session
/// derives these from its `OfflineStore`; standalone users construct them
/// by hand (or pass none).
#[derive(Debug, Clone)]
pub struct SynopsisMeta {
    /// The fact table the synopsis summarizes.
    pub table: String,
    /// The column the stratified sample is stratified on.
    pub stratified_on: String,
    /// Relative row-count divergence from the live base table; `None` when
    /// the base table no longer exists in the catalog.
    pub staleness: Option<f64>,
}

/// One active quarantine, as the analyzer sees it. The session derives
/// these from its accuracy scoreboard; like [`SynopsisMeta`] they are
/// session metadata the analyzer folds in so predicted and enforced
/// decline reasons compare `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineMeta {
    /// The quarantined technique.
    pub technique: crate::TechniqueKind,
    /// Observed coverage over the audit window, in basis points.
    pub coverage_bp: u32,
    /// The configured coverage floor, in basis points.
    pub floor_bp: u32,
}

/// Everything [`crate::lint_plan`] consults besides the plan itself.
/// Metadata-only by contract — analysis must never touch base-table data.
#[derive(Debug, Clone)]
pub struct LintContext<'a> {
    /// The catalog (table existence, block counts — metadata only).
    pub catalog: &'a Catalog,
    /// Known offline synopses.
    pub synopses: Vec<SynopsisMeta>,
    /// Techniques currently quarantined by the accuracy auditor.
    pub quarantines: Vec<QuarantineMeta>,
    /// Policy thresholds.
    pub policy: LintPolicy,
}

impl<'a> LintContext<'a> {
    /// A context with no synopses and the default policy.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            synopses: Vec::new(),
            quarantines: Vec::new(),
            policy: LintPolicy::default(),
        }
    }

    /// Adds one synopsis' metadata.
    pub fn with_synopsis(mut self, meta: SynopsisMeta) -> Self {
        self.synopses.push(meta);
        self
    }

    /// Adds one active quarantine.
    pub fn with_quarantine(mut self, meta: QuarantineMeta) -> Self {
        self.quarantines.push(meta);
        self
    }

    /// Replaces the policy.
    pub fn with_policy(mut self, policy: LintPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The synopsis covering `table`, if any.
    pub fn synopsis_for(&self, table: &str) -> Option<&SynopsisMeta> {
        self.synopses.iter().find(|s| s.table == table)
    }

    /// The active quarantine for `technique`, if any.
    pub fn quarantine_for(&self, technique: crate::TechniqueKind) -> Option<&QuarantineMeta> {
        self.quarantines.iter().find(|q| q.technique == technique)
    }
}
