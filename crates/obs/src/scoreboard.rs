//! Per-technique accuracy scoreboard: sliding-window coverage counters
//! driving the session's quarantine feedback loop.
//!
//! The ground-truth auditor (in `aqp-core`) re-executes a sampled
//! fraction of approximate answers exactly and records one
//! [`AuditObservation`] per audit — did the truth fall inside the
//! reported interval, and how large was the observed relative error.
//! This module keeps those observations in a bounded sliding window per
//! technique (keyed by the technique's kebab name, so `aqp-obs` needs no
//! dependency on the routing vocabulary) and answers two questions:
//!
//! 1. **Scorekeeping** — observed coverage vs nominal, p50/p95/max
//!    relative error over the window ([`ScoreboardSnapshot`], rendered
//!    by `explain_analyze()`); quantiles come from the shared
//!    fixed-bucket [`HistogramSnapshot::quantile`] estimator.
//! 2. **Quarantine policy** — once a technique has at least
//!    `min_audits` windowed observations and its observed coverage
//!    drops below `coverage_floor`, [`Scoreboard::record`] reports a
//!    [`Transition::Entered`] and the technique is quarantined until
//!    coverage recovers or the window is [`reset`](Scoreboard::reset)
//!    (which synopsis maintenance does: audits of a synopsis that no
//!    longer exists say nothing about its replacement).
//!
//! Cumulative per-technique audit totals are *also* mirrored into the
//! session's metrics registry by the auditor (`aqp_audit_total` et al. in
//! [`crate::names`]); the scoreboard is the session-local windowed view
//! the routing feedback pivots on.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::metrics::{HistogramSnapshot, REL_ERROR_BOUNDS};

/// Policy knobs for the sliding-window quarantine decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreboardConfig {
    /// Observations kept per technique; older audits slide out.
    pub window: usize,
    /// Observed-coverage floor: a technique whose windowed coverage
    /// drops below this is quarantined.
    pub coverage_floor: f64,
    /// Minimum windowed observations before the floor is enforced — a
    /// single unlucky audit must not quarantine a healthy technique.
    pub min_audits: usize,
}

impl Default for ScoreboardConfig {
    fn default() -> Self {
        ScoreboardConfig {
            window: 64,
            coverage_floor: 0.8,
            min_audits: 16,
        }
    }
}

/// One audited answer, as the ground-truth auditor saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditObservation {
    /// Whether the audit passed: for interval-carrying techniques the
    /// exact answer fell inside every reported CI, for point estimates
    /// the observed error met the requested contract.
    pub ok: bool,
    /// Worst observed relative error across the answer's groups.
    pub rel_err: f64,
    /// The nominal coverage the technique promised (e.g. 0.95), if it
    /// carried an interval at all.
    pub nominal: Option<f64>,
}

/// What [`Scoreboard::record`] did to the technique's quarantine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Quarantine state unchanged.
    None,
    /// Windowed coverage fell below the floor: technique quarantined.
    Entered,
    /// Windowed coverage recovered: technique released.
    Exited,
}

#[derive(Default)]
struct Window {
    ring: VecDeque<AuditObservation>,
    total: u64,
    misses: u64,
    max_rel_err: f64,
    quarantined: bool,
}

impl Window {
    fn coverage(&self) -> Option<f64> {
        if self.ring.is_empty() {
            return None;
        }
        let ok = self.ring.iter().filter(|o| o.ok).count();
        Some(ok as f64 / self.ring.len() as f64)
    }
}

/// Sliding-window audit scores per technique, with quarantine state.
/// Interior-mutable: the session records audits through `&self`.
pub struct Scoreboard {
    config: ScoreboardConfig,
    windows: Mutex<BTreeMap<String, Window>>,
}

impl Scoreboard {
    /// Creates an empty scoreboard with the given policy.
    pub fn new(config: ScoreboardConfig) -> Self {
        Scoreboard {
            config,
            windows: Mutex::new(BTreeMap::new()),
        }
    }

    /// The policy this scoreboard enforces.
    pub fn config(&self) -> ScoreboardConfig {
        self.config
    }

    /// Records one audit for `technique` and re-evaluates its
    /// quarantine state against the configured floor.
    pub fn record(&self, technique: &str, obs: AuditObservation) -> Transition {
        let mut windows = lock(&self.windows);
        let w = windows.entry(technique.to_string()).or_default();
        w.ring.push_back(obs);
        while w.ring.len() > self.config.window.max(1) {
            w.ring.pop_front();
        }
        w.total += 1;
        if !obs.ok {
            w.misses += 1;
        }
        if obs.rel_err > w.max_rel_err {
            w.max_rel_err = obs.rel_err;
        }
        if w.ring.len() < self.config.min_audits {
            return Transition::None;
        }
        let covered = w.coverage().unwrap_or(1.0);
        match (w.quarantined, covered < self.config.coverage_floor) {
            (false, true) => {
                w.quarantined = true;
                Transition::Entered
            }
            (true, false) => {
                w.quarantined = false;
                Transition::Exited
            }
            _ => Transition::None,
        }
    }

    /// Currently quarantined techniques, sorted by name.
    pub fn quarantined(&self) -> Vec<String> {
        lock(&self.windows)
            .iter()
            .filter(|(_, w)| w.quarantined)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Clears `technique`'s window and releases its quarantine — the
    /// maintenance hook: after a synopsis rebuild/maintain, audits of
    /// the old synopsis no longer describe what the router would serve.
    pub fn reset(&self, technique: &str) {
        lock(&self.windows).remove(technique);
    }

    /// A consistent read of every technique's windowed scores.
    pub fn snapshot(&self) -> ScoreboardSnapshot {
        let windows = lock(&self.windows);
        let rows = windows
            .iter()
            .map(|(name, w)| {
                let hist = window_histogram(&w.ring);
                let nominals: Vec<f64> = w.ring.iter().filter_map(|o| o.nominal).collect();
                TechniqueScore {
                    technique: name.clone(),
                    window_len: w.ring.len(),
                    total_audits: w.total,
                    misses: w.misses,
                    coverage: w.coverage(),
                    nominal: if nominals.is_empty() {
                        None
                    } else {
                        Some(nominals.iter().sum::<f64>() / nominals.len() as f64)
                    },
                    p50_rel_err: hist.quantile(0.5),
                    p95_rel_err: hist.quantile(0.95),
                    max_rel_err: w.max_rel_err,
                    quarantined: w.quarantined,
                }
            })
            .collect();
        ScoreboardSnapshot { rows }
    }
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard::new(ScoreboardConfig::default())
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Bins the window's observed errors into the shared relative-error
/// buckets so quantiles come from the one fixed-bucket estimator.
fn window_histogram(ring: &VecDeque<AuditObservation>) -> HistogramSnapshot {
    let bounds = REL_ERROR_BOUNDS.to_vec();
    let mut counts = vec![0u64; bounds.len() + 1];
    let mut sum = 0.0;
    for o in ring {
        counts[bounds.partition_point(|b| *b < o.rel_err)] += 1;
        sum += o.rel_err;
    }
    HistogramSnapshot {
        bounds,
        count: counts.iter().sum(),
        counts,
        sum,
    }
}

/// One technique's windowed scores.
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueScore {
    /// The technique's kebab name (`TechniqueKind::name()`).
    pub technique: String,
    /// Observations currently in the sliding window.
    pub window_len: usize,
    /// Lifetime audits recorded for this technique.
    pub total_audits: u64,
    /// Lifetime audits that missed (truth outside CI / contract blown).
    pub misses: u64,
    /// Observed coverage over the window (`None` when empty).
    pub coverage: Option<f64>,
    /// Mean nominal coverage promised over the window, when intervals
    /// were carried.
    pub nominal: Option<f64>,
    /// Median observed relative error over the window.
    pub p50_rel_err: Option<f64>,
    /// 95th-percentile observed relative error over the window.
    pub p95_rel_err: Option<f64>,
    /// Largest relative error ever observed (lifetime, not windowed).
    pub max_rel_err: f64,
    /// Whether the technique is quarantined right now.
    pub quarantined: bool,
}

/// A point-in-time view of every technique's scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreboardSnapshot {
    /// One row per technique that has received at least one audit,
    /// sorted by technique name.
    pub rows: Vec<TechniqueScore>,
}

impl ScoreboardSnapshot {
    /// The row for `technique`, if it has been audited.
    pub fn get(&self, technique: &str) -> Option<&TechniqueScore> {
        self.rows.iter().find(|r| r.technique == technique)
    }

    /// Techniques quarantined in this snapshot, in row (name) order.
    pub fn quarantined(&self) -> Vec<String> {
        self.rows
            .iter()
            .filter(|r| r.quarantined)
            .map(|r| r.technique.clone())
            .collect()
    }

    /// Renders the scoreboard as the fixed-width "accuracy" table
    /// `explain_analyze()` embeds. Empty string when nothing was audited.
    pub fn render_table(&self) -> String {
        if self.rows.is_empty() {
            return String::new();
        }
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}  status",
            "technique", "audits", "window", "coverage", "nominal", "p50err", "p95err", "maxerr",
        );
        for r in &self.rows {
            let max_err = fmt_opt(Some(r.max_rel_err));
            let _ = writeln!(
                out,
                "{:<20} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
                r.technique,
                r.total_audits,
                r.window_len,
                fmt_opt(r.coverage),
                fmt_opt(r.nominal),
                fmt_opt(r.p50_rel_err),
                fmt_opt(r.p95_rel_err),
                max_err,
                if r.quarantined { "QUARANTINED" } else { "ok" },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_quarantined(sb: &Scoreboard, technique: &str) -> bool {
        sb.quarantined().iter().any(|t| t == technique)
    }

    fn hit() -> AuditObservation {
        AuditObservation {
            ok: true,
            rel_err: 0.01,
            nominal: Some(0.95),
        }
    }

    fn miss() -> AuditObservation {
        AuditObservation {
            ok: false,
            rel_err: 0.4,
            nominal: Some(0.95),
        }
    }

    fn policy(window: usize, floor: f64, min: usize) -> Scoreboard {
        Scoreboard::new(ScoreboardConfig {
            window,
            coverage_floor: floor,
            min_audits: min,
        })
    }

    #[test]
    fn no_quarantine_below_min_audits() {
        let sb = policy(16, 0.9, 8);
        for _ in 0..7 {
            assert_eq!(sb.record("online-sampling", miss()), Transition::None);
        }
        assert!(!is_quarantined(&sb, "online-sampling"));
    }

    #[test]
    fn coverage_floor_triggers_and_releases_quarantine() {
        let sb = policy(8, 0.75, 4);
        for _ in 0..6 {
            sb.record("offline-synopsis", hit());
        }
        // Misses slide in: coverage over the 8-slot window decays.
        assert_eq!(sb.record("offline-synopsis", miss()), Transition::None);
        assert_eq!(sb.record("offline-synopsis", miss()), Transition::None);
        // window now [h h h h h h m m] -> 0.75, not below floor.
        assert_eq!(sb.record("offline-synopsis", miss()), Transition::Entered);
        assert!(is_quarantined(&sb, "offline-synopsis"));
        assert_eq!(sb.quarantined(), vec!["offline-synopsis".to_string()]);
        // Fresh hits push the misses out again.
        let mut released = false;
        for _ in 0..8 {
            if sb.record("offline-synopsis", hit()) == Transition::Exited {
                released = true;
            }
        }
        assert!(released);
        assert!(!is_quarantined(&sb, "offline-synopsis"));
    }

    #[test]
    fn reset_releases_quarantine_and_clears_window() {
        let sb = policy(4, 0.9, 2);
        for _ in 0..4 {
            sb.record("offline-synopsis", miss());
        }
        assert!(is_quarantined(&sb, "offline-synopsis"));
        sb.reset("offline-synopsis");
        assert!(!is_quarantined(&sb, "offline-synopsis"));
        assert!(sb.snapshot().get("offline-synopsis").is_none());
    }

    #[test]
    fn snapshot_scores_and_renders() {
        let sb = policy(16, 0.5, 4);
        for _ in 0..9 {
            sb.record("online-sampling", hit());
        }
        sb.record("online-sampling", miss());
        let snap = sb.snapshot();
        let row = snap.get("online-sampling").unwrap();
        assert_eq!(row.total_audits, 10);
        assert_eq!(row.misses, 1);
        assert!((row.coverage.unwrap() - 0.9).abs() < 1e-12);
        assert!((row.nominal.unwrap() - 0.95).abs() < 1e-12);
        assert!((row.max_rel_err - 0.4).abs() < 1e-12);
        // p50 sits in the bucket containing 0.01, p95 in 0.4's bucket.
        assert!(row.p50_rel_err.unwrap() <= 0.025, "{row:?}");
        assert!(row.p95_rel_err.unwrap() > 0.25, "{row:?}");
        let table = snap.render_table();
        assert!(table.contains("online-sampling"), "{table}");
        assert!(table.contains("ok"), "{table}");
        assert!(!table.contains("QUARANTINED"), "{table}");
    }

    #[test]
    fn window_slides_out_old_observations() {
        let sb = policy(4, 0.1, 2);
        for _ in 0..4 {
            sb.record("exact", miss());
        }
        for _ in 0..4 {
            sb.record("exact", hit());
        }
        let snap = sb.snapshot();
        let row = snap.get("exact").unwrap();
        assert_eq!(row.window_len, 4);
        assert!((row.coverage.unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(row.total_audits, 8, "lifetime total keeps counting");
        assert_eq!(row.misses, 4);
    }
}
