//! Ground-truth accuracy auditing: re-execute a sampled fraction of
//! approximate answers exactly and check the promises they carried.
//!
//! NSB's guarantees are conditional — a drifted synopsis, a CI whose
//! nominal coverage silently degrades, or a rewrite whose support
//! assumption breaks all produce *confidently wrong* answers. The audit
//! loop is the session's defense: a deterministic seeded sampler picks a
//! configurable fraction of routed answers, the auditor re-runs them on
//! the exact engine (same morsel pool, same kernel options), and the
//! verdict — truth inside the reported interval or not, observed
//! relative error, audit wall-cost — feeds the per-technique
//! [`aqp_obs::scoreboard::Scoreboard`] whose windowed coverage drives
//! quarantine ([`DeclineReason::Quarantined`](crate::DeclineReason)).
//!
//! Verdict semantics per guarantee class:
//!
//! * **Interval-carrying winners** (offline synopsis, online sampling,
//!   OLA): the audit passes iff every exact group is present in the
//!   answer *and* the exact value lies inside its reported interval.
//!   A group the sample missed is a coverage miss — the answer claimed
//!   to describe the population and didn't.
//! * **Point estimates** (middleware rewrite): no interval was carried,
//!   so the audit checks the spec's relative-error target instead and
//!   records no nominal coverage.
//!
//! Exact winners are never audited — there is nothing to check.

use std::time::{Duration, Instant};

use aqp_engine::ExecOptions;
use aqp_obs::scoreboard::AuditObservation;
use aqp_storage::Catalog;

use crate::aggquery::AggQuery;
use crate::answer::ApproximateAnswer;
use crate::error::AqpError;
use crate::spec::ErrorSpec;
use crate::technique::{exact_answer_with, TechniqueKind};

/// Configuration of the ground-truth audit sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Fraction of approximate answers audited, in `[0, 1]`. `0.0`
    /// (the default) disables auditing entirely.
    pub rate: f64,
    /// Sampler seed: the audit decision for the N-th approximate answer
    /// is a pure function of `(seed, N, rate)`, so identical sessions
    /// audit identical queries.
    pub seed: u64,
    /// Observed-coverage floor below which a technique is quarantined.
    pub coverage_floor: f64,
    /// Sliding-window size of the per-technique scoreboard.
    pub window: usize,
    /// Minimum windowed audits before the floor is enforced.
    pub min_audits: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            rate: 0.0,
            seed: 0xA0D1_7A0D,
            coverage_floor: 0.8,
            window: 64,
            min_audits: 16,
        }
    }
}

/// What one ground-truth audit found.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOutcome {
    /// The technique whose answer was audited.
    pub technique: TechniqueKind,
    /// Whether the audit passed (see the module docs for semantics).
    pub ok: bool,
    /// Worst observed relative error across all groups and aggregates.
    pub max_rel_err: f64,
    /// The nominal coverage the answer promised (`None` for point
    /// estimates, which promise none).
    pub nominal_coverage: Option<f64>,
    /// Exact groups compared.
    pub groups_checked: usize,
    /// Exact groups the approximate answer was missing entirely.
    pub groups_missing: usize,
    /// Wall cost of the exact re-execution and comparison.
    pub wall: Duration,
}

impl AuditOutcome {
    /// The scoreboard observation this audit contributes.
    pub(crate) fn observation(&self) -> AuditObservation {
        AuditObservation {
            ok: self.ok,
            rel_err: self.max_rel_err,
            nominal: self.nominal_coverage,
        }
    }
}

/// SplitMix64 — the statelessly seedable mixer used across the
/// workspace's samplers; here it turns `(seed, serial)` into the audit
/// coin flip.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the `serial`-th approximate answer of a session seeded with
/// `seed` gets audited at `rate`. Pure — no RNG state — so tests can
/// predict exactly which queries the auditor picks.
pub(crate) fn should_audit(seed: u64, serial: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let threshold = (rate * u64::MAX as f64) as u64;
    splitmix64(seed ^ splitmix64(serial)) < threshold
}

/// Re-executes `query` exactly and grades `ans` against the truth.
/// Ticks the audit metrics of the registry in scope (`aqp_audit_total`,
/// `aqp_audit_ci_miss_total`, `aqp_audit_rel_err`, `aqp_audit_wall_us`,
/// all labeled by technique).
pub(crate) fn audit_answer(
    catalog: &Catalog,
    query: &AggQuery,
    ans: &ApproximateAnswer,
    spec: &ErrorSpec,
    opts: ExecOptions,
    winner: TechniqueKind,
) -> Result<AuditOutcome, AqpError> {
    let start = Instant::now();
    let population = catalog
        .get(&query.fact_table)
        .map(|t| t.row_count() as u64)
        .ok();
    let exact = exact_answer_with(catalog, &query.to_plan(), population, opts)?;
    let carries_intervals = !matches!(winner, TechniqueKind::MiddlewareRewrite);
    let mut max_rel_err = 0.0f64;
    let mut covered_all = true;
    let mut groups_missing = 0usize;
    for g in &exact.groups {
        let Some(approx) = ans.group(&g.key) else {
            // The answer claimed to describe the population but this
            // group is absent — a coverage miss, not a neutral skip.
            groups_missing += 1;
            covered_all = false;
            continue;
        };
        for (i, truth_est) in g.estimates.iter().enumerate() {
            let truth = truth_est.value;
            let (Some(est), Some(ci)) = (approx.estimates.get(i), approx.intervals.get(i)) else {
                covered_all = false;
                continue;
            };
            let err = if truth.abs() > f64::EPSILON {
                (est.value - truth).abs() / truth.abs()
            } else {
                (est.value - truth).abs()
            };
            max_rel_err = max_rel_err.max(err);
            if carries_intervals && !ci.contains(truth) {
                covered_all = false;
            }
        }
    }
    let ok = if carries_intervals {
        covered_all
    } else {
        groups_missing == 0 && max_rel_err <= spec.relative_error
    };
    let outcome = AuditOutcome {
        technique: winner,
        ok,
        max_rel_err,
        nominal_coverage: carries_intervals.then_some(spec.confidence),
        groups_checked: exact.groups.len(),
        groups_missing,
        wall: start.elapsed(),
    };
    aqp_obs::metrics::record(|m| record_metrics(m, &outcome));
    Ok(outcome)
}

/// Mirrors the audit into the registry in scope (the auditing session's)
/// so Prometheus scrapes see cumulative per-technique audit health.
fn record_metrics(m: &aqp_obs::metrics::MetricsRegistry, o: &AuditOutcome) {
    use aqp_obs::names;
    let technique = o.technique.name();
    m.counter_labeled(names::AUDIT_TOTAL, names::TECHNIQUE_LABEL, technique)
        .inc(1);
    if !o.ok {
        m.counter_labeled(
            names::AUDIT_CI_MISS_TOTAL,
            names::TECHNIQUE_LABEL,
            technique,
        )
        .inc(1);
    }
    m.histogram_labeled(
        names::AUDIT_REL_ERR,
        names::TECHNIQUE_LABEL,
        technique,
        aqp_obs::metrics::REL_ERROR_BOUNDS,
    )
    .observe(o.max_rel_err);
    m.histogram_labeled(
        names::AUDIT_WALL_US,
        names::TECHNIQUE_LABEL,
        technique,
        aqp_obs::metrics::LATENCY_US_BOUNDS,
    )
    .observe(o.wall.as_secs_f64() * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_and_rate_shaped() {
        let picks = |seed: u64, rate: f64| -> Vec<u64> {
            (0..10_000)
                .filter(|&n| should_audit(seed, n, rate))
                .collect()
        };
        // Same seed, same picks — bit for bit.
        assert_eq!(picks(7, 0.05), picks(7, 0.05));
        // Different seeds disagree.
        assert_ne!(picks(7, 0.05), picks(8, 0.05));
        // The hit count tracks the rate (binomial, generous tolerance).
        let hits = picks(7, 0.05).len() as f64;
        assert!((300.0..700.0).contains(&hits), "{hits}");
        // Edge rates.
        assert!(picks(7, 0.0).is_empty());
        assert_eq!(picks(7, 1.0).len(), 10_000);
    }

    #[test]
    fn rate_one_always_audits_rate_zero_never() {
        for n in 0..64 {
            assert!(should_audit(1, n, 1.0));
            assert!(!should_audit(1, n, 0.0));
        }
    }
}
