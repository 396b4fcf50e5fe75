//! Canonical metric names shared across crates.
//!
//! Metrics are looked up by string name in a registry; a typo
//! silently creates a second time series. Emitters and dashboards/tests
//! should both reference these constants so the names stay a single
//! source of truth. [`ALL_METRIC_NAMES`] enumerates every series the
//! workspace emits; a session-level test asserts that everything showing
//! up in a Prometheus scrape is listed here.

/// Counter: base-table blocks skipped by zone-map pruning. Always on.
/// The prune *rate* is `pruned / (pruned + scanned)` using
/// [`BLOCKS_SCANNED_TOTAL`] as the denominator.
pub const BLOCKS_PRUNED_TOTAL: &str = "aqp_blocks_pruned_total";

/// Counter: base-table blocks actually read by scans. Always on.
pub const BLOCKS_SCANNED_TOTAL: &str = "aqp_blocks_scanned_total";

/// Labeled counter: plan dispatches through the typed kernel path vs the
/// scalar fallback. Always on.
pub const KERNEL_DISPATCH_TOTAL: &str = "aqp_kernel_dispatch_total";

/// Label key for [`KERNEL_DISPATCH_TOTAL`].
pub const KERNEL_DISPATCH_LABEL: &str = "path";

/// Label value: the plan compiled to typed kernels.
pub const KERNEL_DISPATCH_KERNEL: &str = "kernel";

/// Label value: the plan ran on the scalar `Value` path.
pub const KERNEL_DISPATCH_FALLBACK: &str = "fallback";

/// Counter: key indexes built — a table's cached per-column index on its
/// first join, or a transient one over a join input that is not a stored
/// column. Always on. Flat while a workload re-joins the same tables.
pub const KEY_INDEX_BUILDS_TOTAL: &str = "aqp_key_index_builds_total";

/// Counter: block zone maps built by a scan that classifies a block
/// whose map was never built, each map once however many queries race
/// on it. A map is cached on its block and shared by every table over it.
/// Always on. Flat once a workload has touched its blocks.
pub const ZONE_MAP_BUILDS_TOTAL: &str = "aqp_zone_map_builds_total";

/// Histogram: time a morsel spends queued before a worker picks it up.
pub const POOL_QUEUE_WAIT_US: &str = "engine_pool_queue_wait_us";

/// Gauge: workers participating in the most recent pooled operator.
pub const POOL_WORKERS: &str = "engine_pool_workers";

/// Gauge: busy-time fraction of the most recent pooled operator.
pub const POOL_WORKER_UTILIZATION: &str = "engine_pool_worker_utilization";

// ---- Router (AqpSession) series ------------------------------------------

/// Labeled counter: runtime + static declines by the router, keyed by
/// [`DECLINE_REASON_LABEL`]. The label values are exactly
/// `DeclineReason::tag()` strings, enumerated in [`DECLINE_REASON_TAGS`].
pub const DECLINE_TOTAL: &str = "aqp_decline_total";

/// Label key for [`DECLINE_TOTAL`]: the machine-readable decline tag.
pub const DECLINE_REASON_LABEL: &str = "reason";

/// Labeled counter: queries answered, keyed by [`ROUTED_WINNER_LABEL`].
/// The label values are `TechniqueKind::name()` strings, enumerated in
/// [`ROUTED_WINNER_TAGS`].
pub const ROUTED_TOTAL: &str = "aqp_routed_total";

/// Label key for [`ROUTED_TOTAL`]: the winning technique's kebab name.
pub const ROUTED_WINNER_LABEL: &str = "winner";

/// Every label value [`DECLINE_TOTAL`] can carry — one per
/// `DeclineReason::tag()`. Kept in the reason enum's declaration order;
/// an `aqp-core` test asserts the two lists cannot drift.
pub const DECLINE_REASON_TAGS: &[&str] = &[
    "unsupported-shape",
    "unsupported-aggregate",
    "joins-unsupported",
    "group-by-unsupported",
    "no-synopsis",
    "synopsis-mismatch",
    "stale-synopsis",
    "table-too-small",
    "empty-pilot",
    "rate-above-cap",
    "insufficient-support",
    "missing-table",
    "quarantined",
];

/// Every label value [`ROUTED_TOTAL`] can carry — one per
/// `TechniqueKind::name()`, in routing policy order.
pub const ROUTED_WINNER_TAGS: &[&str] = &[
    "offline-synopsis",
    "online-sampling",
    "online-aggregation",
    "rewrite-middleware",
    "exact",
];

// ---- Service (AqpService) series -----------------------------------------

/// Histogram: time a query spends in the service's bounded admission
/// queue before execution starts (µs). Always on.
pub const SERVICE_QUEUE_WAIT_US: &str = "aqp_service_queue_wait_us";

/// Gauge: queries waiting in the admission queue right now.
pub const SERVICE_QUEUE_DEPTH: &str = "aqp_service_queue_depth";

/// Gauge: queries executing right now (admitted, not yet answered).
pub const SERVICE_INFLIGHT: &str = "aqp_service_inflight";

/// Labeled counter: admission-control outcomes, keyed by
/// [`ADMISSION_DECISION_LABEL`]. The label values are enumerated in
/// [`ADMISSION_DECISION_TAGS`].
pub const ADMISSION_TOTAL: &str = "aqp_admission_total";

/// Label key for [`ADMISSION_TOTAL`]: what admission control decided.
pub const ADMISSION_DECISION_LABEL: &str = "decision";

/// Every label value [`ADMISSION_TOTAL`] can carry: the contract was
/// accepted as asked, accepted with an honest guarantee downgrade, or
/// rejected (queue full, deadline unmeetable, or contract unattainable
/// under a strict degrade policy).
pub const ADMISSION_DECISION_TAGS: &[&str] = &["accepted", "degraded", "rejected"];

/// Labeled counter: plan-cache lookups, keyed by [`PLAN_CACHE_EVENT_LABEL`].
/// The label values are enumerated in [`PLAN_CACHE_EVENT_TAGS`].
pub const PLAN_CACHE_TOTAL: &str = "aqp_plan_cache_total";

/// Label key for [`PLAN_CACHE_TOTAL`]: what the lookup found.
pub const PLAN_CACHE_EVENT_LABEL: &str = "event";

/// Every label value [`PLAN_CACHE_TOTAL`] can carry: `hit` (fingerprint
/// found and still valid — lint and probes skipped), `miss` (never seen),
/// `stale` (found but invalidated by a routing-epoch bump or a fact-table
/// row-count change), `evicted` (capacity eviction on insert), and
/// `uncacheable` (plan outside the normalized shape).
pub const PLAN_CACHE_EVENT_TAGS: &[&str] = &["hit", "miss", "stale", "evicted", "uncacheable"];

// ---- Technique-internal series -------------------------------------------

/// Histogram: wall cost of the online sampler's pilot pass (µs).
pub const ONLINE_PILOT_US: &str = "aqp_online_pilot_us";

/// Histogram: relative CI half-width after each progressive OLA update.
pub const OLA_CI_REL_HALF_WIDTH: &str = "aqp_ola_ci_rel_half_width";

/// Histogram: offline synopsis build cost (µs).
pub const SYNOPSIS_BUILD_US: &str = "aqp_synopsis_build_us";

/// Counter: incremental synopsis maintenance operations completed.
pub const SYNOPSIS_MAINTAINED_TOTAL: &str = "aqp_synopsis_maintained_total";

// ---- Accuracy-audit series -----------------------------------------------

/// Label key shared by all per-technique audit series: the audited
/// technique's kebab name (a [`ROUTED_WINNER_TAGS`] value).
pub const TECHNIQUE_LABEL: &str = "technique";

/// Labeled counter: ground-truth audits performed, keyed by
/// [`TECHNIQUE_LABEL`].
pub const AUDIT_TOTAL: &str = "aqp_audit_total";

/// Labeled counter: audits where the exact answer fell *outside* the
/// reported interval (or, for point estimates, missed the contract),
/// keyed by [`TECHNIQUE_LABEL`].
pub const AUDIT_CI_MISS_TOTAL: &str = "aqp_audit_ci_miss_total";

/// Labeled histogram: observed relative error of audited answers, keyed
/// by [`TECHNIQUE_LABEL`] (bounds: [`crate::metrics::REL_ERROR_BOUNDS`]).
pub const AUDIT_REL_ERR: &str = "aqp_audit_rel_err";

/// Labeled histogram: wall cost of the exact audit re-execution (µs),
/// keyed by [`TECHNIQUE_LABEL`].
pub const AUDIT_WALL_US: &str = "aqp_audit_wall_us";

/// Labeled counter: quarantine entries — a technique's windowed observed
/// coverage fell below the configured floor — keyed by
/// [`TECHNIQUE_LABEL`].
pub const QUARANTINED_TOTAL: &str = "aqp_quarantined_total";

// ---- Synopsis drift series -----------------------------------------------

/// Label key for the per-table synopsis drift gauges.
pub const TABLE_LABEL: &str = "table";

/// Labeled gauge: relative row-count divergence of a stratified synopsis
/// (|current − built| / built), refreshed on every staleness probe and
/// reset to 0 by `maintain_*`.
pub const SYNOPSIS_STALENESS: &str = "aqp_synopsis_staleness";

/// Labeled gauge: rows the base table held when the synopsis was built
/// (or last maintained).
pub const SYNOPSIS_ROWS_AT_BUILD: &str = "aqp_synopsis_rows_at_build";

/// Labeled gauge: rows appended to the base table since the synopsis was
/// built; resets to 0 on `maintain_*`.
pub const SYNOPSIS_ROWS_APPENDED: &str = "aqp_synopsis_rows_appended";

/// Labeled gauge: ground-truth audits failed against this table's
/// synopsis since it was last maintained; resets to 0 on `maintain_*`.
pub const SYNOPSIS_FAILED_AUDITS: &str = "aqp_synopsis_failed_audits";

/// Every metric name the workspace emits. A session test scrapes the
/// session's registry after a mixed workload and asserts each series name
/// appears here — so new emitters must register their name in this
/// module, keeping it the single source of truth.
pub const ALL_METRIC_NAMES: &[&str] = &[
    BLOCKS_PRUNED_TOTAL,
    BLOCKS_SCANNED_TOTAL,
    KERNEL_DISPATCH_TOTAL,
    KEY_INDEX_BUILDS_TOTAL,
    ZONE_MAP_BUILDS_TOTAL,
    POOL_QUEUE_WAIT_US,
    POOL_WORKERS,
    POOL_WORKER_UTILIZATION,
    DECLINE_TOTAL,
    ROUTED_TOTAL,
    SERVICE_QUEUE_WAIT_US,
    SERVICE_QUEUE_DEPTH,
    SERVICE_INFLIGHT,
    ADMISSION_TOTAL,
    PLAN_CACHE_TOTAL,
    ONLINE_PILOT_US,
    OLA_CI_REL_HALF_WIDTH,
    SYNOPSIS_BUILD_US,
    SYNOPSIS_MAINTAINED_TOTAL,
    AUDIT_TOTAL,
    AUDIT_CI_MISS_TOTAL,
    AUDIT_REL_ERR,
    AUDIT_WALL_US,
    QUARANTINED_TOTAL,
    SYNOPSIS_STALENESS,
    SYNOPSIS_ROWS_AT_BUILD,
    SYNOPSIS_ROWS_APPENDED,
    SYNOPSIS_FAILED_AUDITS,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_table_is_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL_METRIC_NAMES {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "non-conforming metric name {name}"
            );
            assert!(
                name.starts_with("aqp_") || name.starts_with("engine_"),
                "unprefixed metric name {name}"
            );
        }
    }

    #[test]
    fn tag_tables_are_unique() {
        for tags in [
            DECLINE_REASON_TAGS,
            ROUTED_WINNER_TAGS,
            ADMISSION_DECISION_TAGS,
            PLAN_CACHE_EVENT_TAGS,
        ] {
            let mut seen = std::collections::BTreeSet::new();
            for tag in tags {
                assert!(seen.insert(*tag), "duplicate tag {tag}");
            }
        }
    }
}
