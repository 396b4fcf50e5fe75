//! Approximate answers: per-group estimates with intervals, plus an
//! execution report stating how the answer was produced and what it cost.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use aqp_stats::{ConfidenceInterval, Estimate};
use aqp_storage::Value;

use crate::technique::{DeclineReason, TechniqueKind};

/// How an answer was produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionPath {
    /// Exact execution (AQP declined or was not asked).
    Exact,
    /// Two-phase online block sampling: a pilot at `pilot_rate` planned a
    /// final pass at `final_rate`.
    OnlineBlockSample {
        /// Pilot sampling rate.
        pilot_rate: f64,
        /// Final sampling rate chosen by the planner.
        final_rate: f64,
    },
    /// Answered from a pre-built offline synopsis.
    OfflineSynopsis {
        /// Synopsis kind, e.g. "stratified-sample", "hll".
        kind: String,
    },
    /// Progressive online aggregation, stopped once the live interval met
    /// the spec after processing `fraction` of the table.
    OlaProgressive {
        /// Fraction of the table processed before stopping.
        fraction: f64,
    },
    /// Middleware rewrite over a weighted sample drawn at `rate`, executed
    /// by the unmodified exact engine.
    MiddlewareRewrite {
        /// Sampling rate of the weighted sample.
        rate: f64,
    },
}

/// What happened to one routing candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// The candidate was chosen and produced the answer.
    Chosen,
    /// The static analyzer's verdict blocks the family for this plan: the
    /// reason is the one on `Analysis::blocked_by`, and the family was
    /// never attempted.
    StaticallyIneligible(DeclineReason),
    /// The candidate was eligible and attempted, but declined at runtime
    /// (e.g. the pilot-planned rate exceeded the cap).
    DeclinedAtRuntime(DeclineReason),
    /// A candidate earlier in the chain already answered; this one was
    /// eligible but never attempted.
    NotReached,
}

impl CandidateOutcome {
    /// Human-readable fate, e.g. `statically ineligible (no synopsis for
    /// `t`)`.
    pub fn describe(&self) -> String {
        match self {
            CandidateOutcome::Chosen => "chosen".to_string(),
            CandidateOutcome::StaticallyIneligible(r) => {
                format!("statically ineligible ({r})")
            }
            CandidateOutcome::DeclinedAtRuntime(r) => format!("declined ({r})"),
            CandidateOutcome::NotReached => "not reached".to_string(),
        }
    }
}

/// One candidate the router considered, with its fate and — when it was
/// eligible and attempted — what the attempt cost, whether it answered or
/// declined at runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateDecision {
    /// The technique family.
    pub kind: TechniqueKind,
    /// What happened to it.
    pub outcome: CandidateOutcome,
    /// Wall clock of the runtime attempt ([`Duration::ZERO`] when the
    /// candidate was never attempted).
    pub attempt_wall: Duration,
}

/// A full account of one routing pass: every candidate considered in
/// policy order, why each was or wasn't chosen, and the winner.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingDecision {
    /// Candidates in the order the policy considered them (the exact
    /// terminal is always last).
    pub candidates: Vec<CandidateDecision>,
    /// The family that produced the answer.
    pub winner: TechniqueKind,
}

impl RoutingDecision {
    /// The recorded outcome for `kind`, if it was considered.
    pub fn outcome(&self, kind: TechniqueKind) -> Option<&CandidateOutcome> {
        self.candidates
            .iter()
            .find(|c| c.kind == kind)
            .map(|c| &c.outcome)
    }

    /// One-line human-readable summary, e.g.
    /// `offline-synopsis: stale (0.30 > 0.10); online-sampling: chosen`.
    pub fn summary(&self) -> String {
        self.candidates
            .iter()
            .map(|c| format!("{}: {}", c.kind, c.outcome.describe()))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Cost accounting for one answer.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// How the answer was produced.
    pub path: ExecutionPath,
    /// Rows in the (fact) population.
    pub population_rows: u64,
    /// Base-table rows actually touched (pilot + final for online AQP).
    pub rows_touched: u64,
    /// Total rows read from *any* table while producing the answer —
    /// including dimension tables, synopsis rows, and rows consumed by
    /// attempts that declined. Recorded for the exact path too, so
    /// speedup ratios compare like-for-like.
    pub rows_scanned: u64,
    /// Wall-clock time.
    pub wall: Duration,
    /// The routing pass that selected this path, when the answer came
    /// through [`crate::session::AqpSession`]; `None` when a technique
    /// was called directly.
    pub routing: Option<RoutingDecision>,
    /// The query's span tree, attached by [`crate::session::AqpSession`]
    /// when the caller answered inside a trace scope
    /// (`aqp_obs::capture(|| session.answer(..))`); `None` otherwise —
    /// whatever other threads are tracing. Excluded from equality: two answers produced the same
    /// way are equal even though their wall-clock traces differ.
    pub trace: Option<Arc<aqp_obs::SpanNode>>,
    /// The static analysis the session ran before routing, when the answer
    /// came through [`crate::session::AqpSession`]; `None` when a
    /// technique was called directly. Excluded from equality (like
    /// `trace`): the lint stream annotates how the answer was produced,
    /// it is not part of the answer.
    pub lints: Option<Arc<aqp_analyze::Analysis>>,
    /// The ground-truth audit of *this* answer, when the session's seeded
    /// audit sampler picked it (see [`crate::audit::AuditConfig`]); `None`
    /// otherwise. Excluded from equality (like `trace`): the audit grades
    /// the answer, it is not part of it — and its wall cost is likewise
    /// excluded from `wall`. Boxed to keep the un-audited answer (and the
    /// router's `Attempt` enum wrapping it) small.
    pub audit: Option<Box<crate::audit::AuditOutcome>>,
    /// The session's per-technique accuracy scoreboard at answer time,
    /// when any audits have run; `None` otherwise. Excluded from equality
    /// and boxed for the same reasons as `audit`.
    pub accuracy: Option<Box<aqp_obs::scoreboard::ScoreboardSnapshot>>,
    /// How the concurrent service admitted this query (contract verdict,
    /// plan-cache event, queue wait), when the answer came through
    /// [`crate::service::AqpService`]; `None` for direct session calls.
    /// Excluded from equality (like `trace`): admission describes how the
    /// query reached execution, not what it answered.
    pub admission: Option<Box<crate::service::AdmissionReport>>,
}

impl PartialEq for ExecutionReport {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
            && self.population_rows == other.population_rows
            && self.rows_touched == other.rows_touched
            && self.rows_scanned == other.rows_scanned
            && self.wall == other.wall
            && self.routing == other.routing
    }
}

impl ExecutionReport {
    /// Fraction of the population touched — the scale-free speedup proxy
    /// (touching 1% of blocks ≈ 100× less I/O).
    pub fn touched_fraction(&self) -> f64 {
        if self.population_rows == 0 {
            0.0
        } else {
            self.rows_touched as f64 / self.population_rows as f64
        }
    }

    /// Renders an `EXPLAIN ANALYZE`-style account of the answer: the
    /// header totals, the routing deliberation with per-candidate
    /// attempt wall clocks, and — when tracing was enabled — the indented
    /// span tree (operators with rows, wall/self time, and collapsed
    /// per-morsel counts; technique attempts appear as annotated siblings
    /// under the query root).
    pub fn explain_analyze(&self) -> String {
        let mut out = String::from("EXPLAIN ANALYZE\n");
        let path = match &self.path {
            ExecutionPath::Exact => "exact".to_string(),
            ExecutionPath::OnlineBlockSample {
                pilot_rate,
                final_rate,
            } => format!("online-block-sample(pilot={pilot_rate:.3}, final={final_rate:.3})"),
            ExecutionPath::OfflineSynopsis { kind } => format!("offline-synopsis({kind})"),
            ExecutionPath::OlaProgressive { fraction } => {
                format!("ola-progressive(fraction={fraction:.3})")
            }
            ExecutionPath::MiddlewareRewrite { rate } => {
                format!("middleware-rewrite(rate={rate:.3})")
            }
        };
        let _ = writeln!(
            out,
            "path={path}  wall={}  rows_scanned={}/{} ({:.2}% touched)",
            aqp_obs::fmt_ns(self.wall.as_nanos() as u64),
            self.rows_scanned,
            self.population_rows,
            100.0 * self.touched_fraction(),
        );
        if let Some(admission) = &self.admission {
            let decision = match &admission.decision {
                crate::service::AdmissionDecision::Accepted => "accepted".to_string(),
                crate::service::AdmissionDecision::Degraded { requested, granted } => {
                    format!("degraded ({requested} -> {granted})")
                }
            };
            let _ = write!(
                out,
                "admission: {decision}  cache={}  queue_wait={}",
                admission.cache.tag(),
                aqp_obs::fmt_ns(admission.queue_wait.as_nanos() as u64),
            );
            if let Some(est) = admission.estimated_wall {
                let _ = write!(out, "  est={}", aqp_obs::fmt_ns(est.as_nanos() as u64));
            }
            out.push('\n');
        }
        if let Some(routing) = &self.routing {
            let _ = writeln!(out, "routing:");
            for c in &routing.candidates {
                let _ = write!(out, "  {:<20} {}", c.kind.to_string(), c.outcome.describe());
                if c.attempt_wall > Duration::ZERO {
                    let _ = write!(
                        out,
                        " attempt={}",
                        aqp_obs::fmt_ns(c.attempt_wall.as_nanos() as u64)
                    );
                }
                out.push('\n');
            }
        }
        if let Some(lints) = &self.lints {
            let _ = writeln!(out, "lints:");
            for line in lints.render_table().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if let Some(audit) = &self.audit {
            let verdict = if audit.ok { "ok" } else { "FAILED" };
            let nominal = match audit.nominal_coverage {
                Some(n) => format!("{n:.2}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "audit: {verdict}  max_rel_err={:.4}  nominal={nominal}  \
                 groups={}/{} present  cost={}",
                audit.max_rel_err,
                audit.groups_checked - audit.groups_missing,
                audit.groups_checked,
                aqp_obs::fmt_ns(audit.wall.as_nanos() as u64),
            );
        }
        if let Some(accuracy) = &self.accuracy {
            let table = accuracy.render_table();
            if !table.is_empty() {
                let _ = writeln!(out, "accuracy:");
                for line in table.lines() {
                    let _ = writeln!(out, "  {line}");
                }
                let quarantined = accuracy.quarantined();
                if !quarantined.is_empty() {
                    let _ = writeln!(out, "  quarantined: {}", quarantined.join(", "));
                }
            }
        }
        match &self.trace {
            Some(root) => {
                let _ = writeln!(out, "trace:");
                for line in aqp_obs::render_tree(root).lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "trace: none (answer inside aqp_obs::capture(|| ..) to record one)"
                );
            }
        }
        out
    }
}

/// One group's estimates (one per aggregate, in query order).
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// The group key values (empty for a global aggregate).
    pub key: Vec<Value>,
    /// Point estimates with variances.
    pub estimates: Vec<Estimate>,
    /// Confidence intervals at the spec's (adjusted) confidence.
    pub intervals: Vec<ConfidenceInterval>,
}

/// A complete approximate answer.
#[derive(Debug, Clone)]
pub struct ApproximateAnswer {
    /// Group-by column names (empty for global aggregates).
    pub group_by: Vec<String>,
    /// Aggregate aliases, in query order.
    pub aggregates: Vec<String>,
    /// Per-group results, sorted by key for determinism.
    pub groups: Vec<GroupResult>,
    /// How and at what cost the answer was produced.
    pub report: ExecutionReport,
}

impl ApproximateAnswer {
    /// Looks up a group by key.
    pub fn group(&self, key: &[Value]) -> Option<&GroupResult> {
        self.groups.iter().find(|g| g.key == key)
    }

    /// The single group of a global aggregate.
    ///
    /// # Panics
    /// Panics if the answer has grouping.
    pub fn global(&self) -> &GroupResult {
        assert!(
            self.group_by.is_empty(),
            "global() requires an ungrouped answer"
        );
        &self.groups[0]
    }

    /// The estimate of aggregate `alias` in the global group.
    pub fn scalar_estimate(&self, alias: &str) -> Option<&Estimate> {
        let idx = self.aggregates.iter().position(|a| a == alias)?;
        Some(&self.global().estimates[idx])
    }

    /// Worst observed relative half-width across all groups and
    /// aggregates — what the user compares against the spec.
    pub fn max_relative_half_width(&self) -> f64 {
        self.groups
            .iter()
            .flat_map(|g| g.intervals.iter())
            .map(ConfidenceInterval::relative_half_width)
            .fold(0.0, f64::max)
    }
}

/// The one shared assembly path for every technique: builds intervals at
/// `confidence` from each estimate, sorts groups with [`cmp_group_keys`],
/// and attaches the report. Families must not hand-roll this — the copies
/// used to drift on group ordering.
pub fn assemble_answer(
    group_by: Vec<String>,
    aggregates: Vec<String>,
    raw: Vec<(Vec<Value>, Vec<Estimate>)>,
    confidence: f64,
    report: ExecutionReport,
) -> ApproximateAnswer {
    let mut groups: Vec<GroupResult> = raw
        .into_iter()
        .map(|(key, estimates)| {
            let intervals = estimates.iter().map(|e| e.ci(confidence)).collect();
            GroupResult {
                key,
                estimates,
                intervals,
            }
        })
        .collect();
    groups.sort_by(|a, b| cmp_group_keys(&a.key, &b.key));
    ApproximateAnswer {
        group_by,
        aggregates,
        groups,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scenario constants the fixture derives from: a two-phase online
    /// sample touches `pilot + final` of the population, so the row
    /// accounting follows from the rates instead of being hard-coded.
    const POPULATION_ROWS: u64 = 1_000_000;
    const PILOT_RATE: f64 = 0.01;
    const FINAL_RATE: f64 = 0.05;

    fn answer() -> ApproximateAnswer {
        let rows_touched = ((PILOT_RATE + FINAL_RATE) * POPULATION_ROWS as f64) as u64;
        let est = Estimate::new(100.0, 4.0, 1000);
        ApproximateAnswer {
            group_by: vec!["g".into()],
            aggregates: vec!["s".into()],
            groups: vec![
                GroupResult {
                    key: vec![Value::str("a")],
                    estimates: vec![est],
                    intervals: vec![est.ci(0.95)],
                },
                GroupResult {
                    key: vec![Value::str("b")],
                    estimates: vec![Estimate::new(10.0, 1.0, 50)],
                    intervals: vec![Estimate::new(10.0, 1.0, 50).ci(0.95)],
                },
            ],
            report: ExecutionReport {
                path: ExecutionPath::OnlineBlockSample {
                    pilot_rate: PILOT_RATE,
                    final_rate: FINAL_RATE,
                },
                population_rows: POPULATION_ROWS,
                rows_touched,
                rows_scanned: rows_touched,
                wall: Duration::from_millis(12),
                routing: None,
                trace: None,
                lints: None,
                audit: None,
                accuracy: None,
                admission: None,
            },
        }
    }

    #[test]
    fn group_lookup() {
        let a = answer();
        assert!(a.group(&[Value::str("a")]).is_some());
        assert!(a.group(&[Value::str("zzz")]).is_none());
    }

    #[test]
    fn touched_fraction() {
        let a = answer();
        assert!((a.report.touched_fraction() - (PILOT_RATE + FINAL_RATE)).abs() < 1e-12);
    }

    #[test]
    fn max_relative_half_width_is_worst_case() {
        let a = answer();
        // Group b has rel half-width ~0.2·t, far worse than group a's.
        assert!(a.max_relative_half_width() > 0.15);
    }

    #[test]
    #[should_panic(expected = "ungrouped")]
    fn global_requires_no_grouping() {
        answer().global();
    }

    #[test]
    fn scalar_estimate_on_global() {
        let est = Estimate::new(5.0, 1.0, 10);
        let a = ApproximateAnswer {
            group_by: vec![],
            aggregates: vec!["n".into()],
            groups: vec![GroupResult {
                key: vec![],
                estimates: vec![est],
                intervals: vec![est.ci(0.9)],
            }],
            report: ExecutionReport {
                path: ExecutionPath::Exact,
                population_rows: 10,
                rows_touched: 10,
                rows_scanned: 10,
                wall: Duration::ZERO,
                routing: None,
                trace: None,
                lints: None,
                audit: None,
                accuracy: None,
                admission: None,
            },
        };
        assert_eq!(a.scalar_estimate("n").unwrap().value, 5.0);
        assert!(a.scalar_estimate("zzz").is_none());
    }

    #[test]
    fn assemble_sorts_groups_and_builds_intervals() {
        let report = ExecutionReport {
            path: ExecutionPath::Exact,
            population_rows: 100,
            rows_touched: 100,
            rows_scanned: 100,
            wall: Duration::ZERO,
            routing: None,
            trace: None,
            lints: None,
            audit: None,
            accuracy: None,
            admission: None,
        };
        let a = assemble_answer(
            vec!["g".into()],
            vec!["s".into()],
            vec![
                (vec![Value::str("b")], vec![Estimate::new(2.0, 1.0, 10)]),
                (vec![Value::str("a")], vec![Estimate::new(1.0, 1.0, 10)]),
            ],
            0.95,
            report,
        );
        assert_eq!(a.groups[0].key, vec![Value::str("a")]);
        assert_eq!(a.groups[1].key, vec![Value::str("b")]);
        assert_eq!(a.groups[0].intervals.len(), 1);
        assert!(a.groups[0].intervals[0].contains(1.0));
    }

    #[test]
    fn routing_decision_summary_and_lookup() {
        use crate::technique::DeclineReason;
        let d = RoutingDecision {
            candidates: vec![
                CandidateDecision {
                    kind: TechniqueKind::OfflineSynopsis,
                    outcome: CandidateOutcome::StaticallyIneligible(DeclineReason::NoSynopsis {
                        table: "t".into(),
                    }),
                    attempt_wall: Duration::ZERO,
                },
                CandidateDecision {
                    kind: TechniqueKind::OnlineSampling,
                    outcome: CandidateOutcome::Chosen,
                    attempt_wall: Duration::ZERO,
                },
                CandidateDecision {
                    kind: TechniqueKind::Exact,
                    outcome: CandidateOutcome::NotReached,
                    attempt_wall: Duration::ZERO,
                },
            ],
            winner: TechniqueKind::OnlineSampling,
        };
        assert_eq!(
            d.outcome(TechniqueKind::OnlineSampling),
            Some(&CandidateOutcome::Chosen)
        );
        assert!(d.outcome(TechniqueKind::MiddlewareRewrite).is_none());
        let s = d.summary();
        assert!(s.contains("offline-synopsis: statically ineligible"));
        assert!(s.contains("online-sampling: chosen"));
        assert!(s.contains("exact: not reached"));
    }
}

/// Deterministic total order over group keys (NULL < bool < numeric <
/// string, then by value) — used to sort answer groups.
pub fn cmp_group_keys(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int64(_) | Value::Float64(_) => 2,
            Value::Str(_) => 3,
        }
    }
    for (x, y) in a.iter().zip(b) {
        let ord = match rank(x).cmp(&rank(y)) {
            Ordering::Equal => x.sql_cmp(y).unwrap_or(Ordering::Equal),
            other => other,
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod key_order_tests {
    use super::*;

    #[test]
    fn orders_by_rank_then_value() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_group_keys(&[Value::Null], &[Value::Int64(0)]), Less);
        assert_eq!(
            cmp_group_keys(&[Value::Int64(2)], &[Value::Float64(10.0)]),
            Less
        );
        assert_eq!(cmp_group_keys(&[Value::Int64(5)], &[Value::str("a")]), Less);
        assert_eq!(
            cmp_group_keys(&[Value::str("b")], &[Value::str("a")]),
            Greater
        );
        assert_eq!(
            cmp_group_keys(&[Value::str("a"), Value::Int64(1)], &[Value::str("a")]),
            Greater
        );
        assert_eq!(cmp_group_keys(&[], &[]), Equal);
    }
}
