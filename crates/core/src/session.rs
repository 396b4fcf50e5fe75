//! The routing front door: one [`AqpSession::answer`] call that picks
//! among all four AQP families per query, or declines to exact.
//!
//! NSB's "no silver bullet" argument is that every technique gives up one
//! of generality, error guarantees, or performance — so a *system* must
//! route per query instead of committing to one family. The policy here,
//! in order:
//!
//! 1. **Offline synopsis** — fastest when a fresh, matching stratified
//!    sample exists (no base data touched); gated on existence, the
//!    stratification column covering the group-by, and
//!    [`crate::offline::OfflineStore::staleness`] staying under
//!    [`SessionConfig::max_staleness`].
//! 2. **Online sampling** — pilot-planned block sampling with an a-priori
//!    contract; declines at runtime when the pilot is empty or the
//!    required rate exceeds the pay-off cap.
//! 3. **Online aggregation** — progressive execution with an a-posteriori
//!    stopping rule, for the ungrouped single-table shapes it serves.
//! 4. **Middleware rewrite** — point estimates through the unmodified
//!    exact engine; maximal generality, no guarantee, gated on per-group
//!    sample support.
//! 5. **Exact** — the terminal; always correct, never fast.
//!
//! Guarantee-carrying families outrank the point-estimate middleware;
//! within the guaranteed ones, cheaper data access outranks costlier. A
//! runtime decline falls through to the next candidate, and the full
//! deliberation is recorded in the answer's
//! [`RoutingDecision`].

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aqp_engine::{ExecOptions, LogicalPlan};
use aqp_obs::metrics::MetricsRegistry;
use aqp_obs::scoreboard::{Scoreboard, ScoreboardConfig, ScoreboardSnapshot, Transition};
use aqp_storage::Catalog;

use aqp_analyze::{Analysis, LintContext, LintPolicy, QuarantineMeta};

use crate::aggquery::AggQuery;
use crate::answer::{ApproximateAnswer, CandidateDecision, CandidateOutcome, RoutingDecision};
use crate::audit::{self, AuditConfig};
use crate::error::AqpError;
use crate::offline::{OfflineStore, OfflineTechnique};
use crate::ola::OlaTechnique;
use crate::online::{OnlineAqp, OnlineConfig};
use crate::rewrite::RewriteTechnique;
use crate::spec::ErrorSpec;
use crate::technique::{exact_answer_with, Attempt, Technique, TechniqueKind};

/// Static span name for a candidate's runtime attempt (span names are
/// `&'static str` by design — no per-query allocation on the trace path).
fn attempt_span_name(kind: TechniqueKind) -> &'static str {
    match kind {
        TechniqueKind::OfflineSynopsis => "attempt:offline-synopsis",
        TechniqueKind::OnlineSampling => "attempt:online-sampling",
        TechniqueKind::OnlineAggregation => "attempt:online-aggregation",
        TechniqueKind::MiddlewareRewrite => "attempt:rewrite-middleware",
        TechniqueKind::Exact => "attempt:exact",
    }
}

/// Counts a completed routing pass into the session's registry: one
/// `aqp_decline_total{reason=...}` tick per candidate that declined
/// (statically or at runtime; `DeclineReason::tag` keeps cardinality
/// bounded) and one `aqp_routed_total{winner=...}` tick for the family
/// that answered. Always on — sharded counters cost nanoseconds next to a
/// routed query.
fn count_decision(m: &MetricsRegistry, decision: &RoutingDecision) {
    use aqp_obs::names;
    for c in &decision.candidates {
        if let CandidateOutcome::StaticallyIneligible(r) | CandidateOutcome::DeclinedAtRuntime(r) =
            &c.outcome
        {
            m.counter_labeled(names::DECLINE_TOTAL, names::DECLINE_REASON_LABEL, r.tag())
                .inc(1);
        }
    }
    m.counter_labeled(
        names::ROUTED_TOTAL,
        names::ROUTED_WINNER_LABEL,
        decision.winner.name(),
    )
    .inc(1);
}

/// Closes the query root span, stamps the routed wall, and — when the
/// caller asked for a trace — assembles this query's own records into a
/// tree attached to the report. Ordering matters: the root must close
/// *before* the wall is measured so the `query` span's duration never
/// exceeds `report.wall`, and trace assembly happens after, so collection
/// cost is not billed to the query.
fn attach_trace(
    report: &mut crate::answer::ExecutionReport,
    root: aqp_obs::Span,
    wall_start: Instant,
) {
    let trace = root.ctx().trace;
    root.finish();
    report.wall = wall_start.elapsed();
    let Some(trace) = trace else { return };
    debug_assert_eq!(trace.open_spans(), 0, "spans outlived the query root");
    let roots = aqp_obs::build_tree(trace.take_records());
    report.trace = roots
        .into_iter()
        .find(|n| n.record.name == "query")
        .map(Arc::new);
}

/// Engine options for the session's exact executions: defaults plus the
/// analyzer's static group-cardinality bound, so kernel aggregation maps
/// are pre-sized and never rehash on plans whose key shapes bound the
/// group count (`x % k`, literals, global aggregates) — with an optional
/// worker-count override, how the concurrent service applies its fair
/// [`aqp_engine::PoolShare`] split without disturbing the single-caller
/// default.
fn exec_opts(analysis: &Analysis, threads: Option<usize>) -> ExecOptions {
    let mut opts = ExecOptions::default().with_agg_hint(
        analysis
            .group_cardinality_hint
            .and_then(|h| usize::try_from(h).ok()),
    );
    if let Some(t) = threads {
        opts.threads = t.max(1);
    }
    opts
}

/// What one pass down the candidate chain produced (see
/// [`AqpSession::walk`]).
struct Walk {
    /// Every candidate's fate, exact last.
    decision: RoutingDecision,
    /// The winning family's answer. `None` when nothing was attempted or
    /// no family answered: exact won, and running it is the caller's job.
    answer: Option<ApproximateAnswer>,
    /// Base-table rows consumed by attempts that declined at runtime.
    declined_rows: u64,
}

/// What the concurrent service hands [`AqpSession::answer_with`]: a lint
/// it already ran and its fair thread share. Neither changes what the
/// query computes.
#[derive(Default)]
pub(crate) struct Replay {
    /// A memoized [`Analysis`], skipping the lint pass. It must have been
    /// produced by this session's own lint context at the current
    /// [`routing_epoch`](AqpSession::routing_epoch); the caller owns that
    /// freshness check.
    pub analysis: Option<Arc<Analysis>>,
    /// Worker-count override: the fair [`aqp_engine::PoolShare`] split.
    pub threads: Option<usize>,
}

/// Tuning knobs for the routing policy.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Configuration of the online (pilot-planned) sampler.
    pub online: OnlineConfig,
    /// Maximum [`OfflineStore::staleness`] at which a synopsis is trusted.
    pub max_staleness: f64,
    /// Bernoulli block rate of the middleware rewrite's query-time sample.
    pub rewrite_rate: f64,
    /// Minimum raw sample rows per output group for the rewrite to stand
    /// behind its point estimates.
    pub rewrite_min_group_support: u64,
    /// The ground-truth audit sampler and quarantine policy (disabled by
    /// default: `rate` 0.0).
    pub audit: AuditConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            online: OnlineConfig::default(),
            max_staleness: 0.1,
            rewrite_rate: 0.05,
            rewrite_min_group_support: 30,
            audit: AuditConfig::default(),
        }
    }
}

/// The unified AQP entry point: owns an [`OfflineStore`] and routes each
/// query to the best eligible family (see the module docs for the policy).
pub struct AqpSession<'a> {
    catalog: &'a Catalog,
    offline: OfflineStore,
    config: SessionConfig,
    /// Windowed per-technique audit scores; its quarantine verdicts feed
    /// back into routing through [`AqpSession::lint_context`].
    scoreboard: Scoreboard,
    /// Serial number of approximate answers — the seeded audit sampler's
    /// deterministic input.
    audit_serial: AtomicU64,
    /// Monotone routing-state version: bumped whenever the inputs a cached
    /// routing decision depends on change (synopsis maintenance, any
    /// quarantine transition). The service's plan cache stamps entries
    /// with the epoch at insert and treats a mismatch as stale.
    epoch: AtomicU64,
    /// Every counter, gauge and histogram this session, its synopsis
    /// store, its service and the engine work it runs record.
    metrics: Arc<MetricsRegistry>,
}

impl<'a> AqpSession<'a> {
    /// Creates a session with default configuration.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_config(catalog, SessionConfig::default())
    }

    /// Creates a session with explicit configuration.
    pub fn with_config(catalog: &'a Catalog, config: SessionConfig) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        Self {
            catalog,
            offline: OfflineStore::new().reporting_to(Arc::clone(&metrics)),
            scoreboard: Scoreboard::new(ScoreboardConfig {
                window: config.audit.window,
                coverage_floor: config.audit.coverage_floor,
                min_audits: config.audit.min_audits,
            }),
            audit_serial: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            metrics,
            config,
        }
    }

    /// The current routing epoch: the `epoch` field plus the synopsis
    /// store's generation, so building or maintaining a stratified
    /// synopsis through [`AqpSession::offline`] moves it too. Both only grow, so the sum changes whenever either does.
    /// Cached routing decisions are only valid while the epoch they were
    /// captured under still matches.
    pub fn routing_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) + self.offline.generation()
    }

    /// This session's metrics registry: routing, audit, synopsis and
    /// engine series of every query it answers, and the service series
    /// of an [`AqpService`](crate::AqpService) over it. Another session
    /// in the same process keeps its own.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// This session's routing configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The session's synopsis store — build synopses here to make the
    /// offline path routable (e.g.
    /// [`OfflineStore::build_stratified`]).
    pub fn offline(&self) -> &OfflineStore {
        &self.offline
    }

    /// The catalog this session answers over.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Folds an append-only delta into the synopsis stored for `table`
    /// instead of rebuilding it (the cheap answer to E8-style drift —
    /// see [`OfflineStore::maintain_all`]). Returns the number of
    /// synopses maintained; afterwards the offline path is fresh again
    /// ([`OfflineStore::staleness`] = 0) without any base-table rescan of
    /// pre-existing rows.
    pub fn maintain_synopses(&self, table: &str, seed: u64) -> Result<usize, crate::AqpError> {
        let n = self.offline.maintain_all(self.catalog, table, seed)?;
        // Audits of the replaced synopsis say nothing about the maintained
        // one: clear the offline window, releasing any quarantine.
        self.scoreboard.reset(TechniqueKind::OfflineSynopsis.name());
        // Staleness verdicts captured before maintenance are now wrong in
        // both directions — invalidate cached routing decisions.
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(n)
    }

    /// The per-technique accuracy scoreboard built from ground-truth
    /// audits (see [`SessionConfig::audit`]): observed vs nominal
    /// coverage, error quantiles, and quarantine state per technique.
    pub fn accuracy(&self) -> ScoreboardSnapshot {
        self.scoreboard.snapshot()
    }

    /// Techniques currently quarantined by the accuracy auditor, by name.
    pub fn quarantined(&self) -> Vec<String> {
        self.scoreboard.quarantined()
    }

    /// The analyzer's view of this session: the catalog, the offline
    /// store's synopsis inventory (metadata only), and the routing
    /// policy's thresholds.
    pub(crate) fn lint_context(&self) -> LintContext<'a> {
        let mut ctx = LintContext::new(self.catalog).with_policy(LintPolicy {
            max_staleness: self.config.max_staleness,
            min_sampling_blocks: aqp_analyze::MIN_SAMPLING_BLOCKS,
            rewrite_min_group_support: self.config.rewrite_min_group_support,
        });
        for meta in self.offline.synopsis_metas(self.catalog) {
            ctx = ctx.with_synopsis(meta);
        }
        // Active quarantines enter the context in basis points so the
        // reason on the verdict is `==` across two lints of one state.
        let floor_bp = (self.config.audit.coverage_floor * 10_000.0).round() as u32;
        for row in self.scoreboard.snapshot().rows {
            if !row.quarantined {
                continue;
            }
            let Some(kind) = TechniqueKind::all()
                .into_iter()
                .find(|k| k.name() == row.technique)
            else {
                continue;
            };
            ctx = ctx.with_quarantine(QuarantineMeta {
                technique: kind,
                coverage_bp: (row.coverage.unwrap_or(0.0) * 10_000.0).round() as u32,
                floor_bp,
            });
        }
        ctx
    }

    /// Statically analyzes `plan` against this session's catalog, synopsis
    /// inventory, and policy — the same [`Analysis`] that
    /// [`AqpSession::answer`] routes on and attaches to the report.
    /// Metadata-only; nothing is executed.
    pub fn lint_plan(&self, plan: &LogicalPlan) -> Analysis {
        aqp_analyze::lint_plan(plan, &self.lint_context())
    }

    /// The online sampler's configuration, with the service's fair-share
    /// worker count when one is given.
    fn online_config(&self, threads: Option<usize>) -> OnlineConfig {
        let mut online = self.config.online;
        if let Some(t) = threads {
            online.threads = t.max(1);
        }
        online
    }

    /// The candidate chain in policy order (exact is implicit, last),
    /// with an optional worker-count override for the data-touching
    /// families — the service's fair-share hook.
    pub(crate) fn techniques(&self, threads: Option<usize>) -> Vec<Box<dyn Technique + '_>> {
        vec![
            Box::new(OfflineTechnique::new(
                &self.offline,
                self.catalog,
                self.config.max_staleness,
            )),
            Box::new(OnlineAqp::new(self.catalog, self.online_config(threads))),
            Box::new(OlaTechnique::new(self.catalog)),
            Box::new(
                RewriteTechnique::new(
                    self.catalog,
                    self.config.rewrite_rate,
                    self.config.rewrite_min_group_support,
                )
                .with_threads(threads),
            ),
        ]
    }

    /// The candidate walk — the only loop over the chain. A family the
    /// analysis blocks is recorded with its verdict's reason and never
    /// touched. The first unblocked family is handed to `attempt` (inside
    /// its `attempt:*` span): an answer wins and ends the attempts, a
    /// runtime decline falls through to the next unblocked family.
    /// Without `attempt` nothing runs and the first unblocked family is
    /// the winner the router *would* choose, barring runtime declines.
    /// Exact closes the chain and wins when no family did.
    fn walk<E>(
        &self,
        analysis: &Analysis,
        threads: Option<usize>,
        mut attempt: Option<impl FnMut(&dyn Technique) -> Result<Attempt, E>>,
    ) -> Result<Walk, E> {
        let techniques = self.techniques(threads);
        let mut candidates = Vec::with_capacity(techniques.len() + 1);
        let mut winner = None;
        let mut answer = None;
        let mut declined_rows = 0;
        for t in &techniques {
            let kind = t.kind();
            let mut attempt_wall = Duration::ZERO;
            let outcome = if let Some(reason) = analysis.blocked_by(kind) {
                CandidateOutcome::StaticallyIneligible(reason.clone())
            } else if winner.is_some() {
                CandidateOutcome::NotReached
            } else if let Some(attempt) = attempt.as_mut() {
                let mut span = aqp_obs::span(attempt_span_name(kind));
                let attempt_start = Instant::now();
                let attempted = attempt(t.as_ref())?;
                attempt_wall = attempt_start.elapsed();
                let outcome = match attempted {
                    Attempt::Answered(ans) => {
                        if span.is_recording() {
                            span.set_detail("answered");
                            span.set_rows(ans.report.rows_scanned);
                        }
                        winner = Some(kind);
                        answer = Some(ans);
                        CandidateOutcome::Chosen
                    }
                    Attempt::Declined {
                        reason,
                        rows_scanned,
                    } => {
                        if span.is_recording() {
                            span.set_detail(format!("declined: {reason}"));
                            span.set_rows(rows_scanned);
                        }
                        declined_rows += rows_scanned;
                        CandidateOutcome::DeclinedAtRuntime(reason)
                    }
                };
                span.finish();
                outcome
            } else {
                winner = Some(kind);
                CandidateOutcome::Chosen
            };
            candidates.push(CandidateDecision {
                kind,
                outcome,
                attempt_wall,
            });
        }
        candidates.push(CandidateDecision {
            kind: TechniqueKind::Exact,
            outcome: if winner.is_some() {
                CandidateOutcome::NotReached
            } else {
                CandidateOutcome::Chosen
            },
            attempt_wall: Duration::ZERO,
        });
        Ok(Walk {
            decision: RoutingDecision {
                candidates,
                winner: winner.unwrap_or(TechniqueKind::Exact),
            },
            answer,
            declined_rows,
        })
    }

    /// The decision the router would make on `analysis` without running
    /// anything: the [walk](AqpSession::walk) with no attempts. Runtime
    /// declines are invisible here, so the winner is the first
    /// *unblocked* candidate, which a real answer may still fall past.
    pub(crate) fn decide(&self, analysis: &Analysis) -> RoutingDecision {
        type NoAttempt = fn(&dyn Technique) -> Result<Attempt, Infallible>;
        match self.walk(analysis, None, None::<NoAttempt>) {
            Ok(walk) => walk.decision,
            Err(never) => match never {},
        }
    }

    /// The decision the router *would* make, without executing anything:
    /// one lint pass, then [`CandidateOutcome::StaticallyIneligible`] for
    /// every family the analyzer rules out and the first remaining one as
    /// the winner. No base data is touched. Runtime declines are
    /// invisible here, so the real [`AqpSession::answer`] may still fall
    /// past the probed winner — which is also why the error contract
    /// does not enter: no a-priori verdict depends on it, only the
    /// runtime declines a probe cannot see.
    pub fn probe(&self, plan: &LogicalPlan, _spec: &ErrorSpec) -> RoutingDecision {
        self.decide(&self.lint_plan(plan))
    }

    /// Routes and answers: normalizes the plan once, runs the static
    /// analyzer once, walks the candidate chain (never touching a family
    /// the analyzer rules out, falling through on runtime declines), and
    /// returns the winner's answer with the full [`RoutingDecision`], the
    /// [`Analysis`], and the cost of any failed attempts folded into its
    /// report.
    pub fn answer(
        &self,
        plan: &LogicalPlan,
        spec: &ErrorSpec,
        seed: u64,
    ) -> Result<ApproximateAnswer, AqpError> {
        self.answer_with(plan, spec, seed, Replay::default())
    }

    /// [`AqpSession::answer`] with the service's [`Replay`] hooks;
    /// `Replay::default()` is the single-caller behavior. The
    /// engine and sampler metrics of the call record into this session's
    /// registry.
    pub(crate) fn answer_with(
        &self,
        plan: &LogicalPlan,
        spec: &ErrorSpec,
        seed: u64,
        replay: Replay,
    ) -> Result<ApproximateAnswer, AqpError> {
        aqp_obs::metrics::scoped(&self.metrics, || {
            self.answer_scoped(plan, spec, seed, replay)
        })
    }

    fn answer_scoped(
        &self,
        plan: &LogicalPlan,
        spec: &ErrorSpec,
        seed: u64,
        replay: Replay,
    ) -> Result<ApproximateAnswer, AqpError> {
        // The report's wall is the *routed* wall — analysis, failed
        // attempts, and the winner — mirroring how declined rows are
        // charged to the final answer. When the caller is inside a trace
        // the root span starts a fresh one of this query's own; every
        // attempt and engine operator below nests under it.
        let wall_start = Instant::now();
        let root = aqp_obs::root_span("query");
        let threads = replay.threads;
        let query = AggQuery::from_plan(plan);
        let analysis = if let Some(analysis) = replay.analysis {
            analysis
        } else {
            let mut lint_span = aqp_obs::span("lint:analyze");
            let analysis = Arc::new(aqp_analyze::lint_with(
                plan,
                query.as_ref(),
                &self.lint_context(),
            ));
            if lint_span.is_recording() {
                lint_span.set_detail(format!(
                    "{} diagnostic(s), best {}",
                    analysis.diagnostics.len(),
                    analysis.best_attainable()
                ));
            }
            lint_span.finish();
            analysis
        };
        // An out-of-shape plan has no normalized query to hand a family —
        // and needs none: the analyzer blocks every family on it, so the
        // walk attempts nothing.
        let attempt = query
            .as_ref()
            .map(|q| move |t: &dyn Technique| t.answer(q, spec, seed));
        let Walk {
            mut decision,
            answer,
            declined_rows,
        } = self.walk(&analysis, threads, attempt)?;
        let mut ans = match answer {
            Some(ans) => ans,
            None => {
                // Every family passed: run exactly — the normalized plan
                // with the fact-table population, so speedup ratios
                // compare like-for-like, or the plan as given when it is
                // out of shape.
                let mut span = aqp_obs::span(attempt_span_name(TechniqueKind::Exact));
                let attempt_start = Instant::now();
                let normalized = query.as_ref().map(AggQuery::to_plan);
                let population = query.as_ref().and_then(|q| {
                    let fact = self.catalog.get(&q.fact_table).ok()?;
                    Some(fact.row_count() as u64)
                });
                let ans = exact_answer_with(
                    self.catalog,
                    normalized.as_ref().unwrap_or(plan),
                    population,
                    exec_opts(&analysis, threads),
                )?;
                if let Some(exact) = decision.candidates.last_mut() {
                    exact.attempt_wall = attempt_start.elapsed();
                }
                if span.is_recording() {
                    span.set_detail("answered");
                    span.set_rows(ans.report.rows_scanned);
                }
                span.finish();
                ans
            }
        };
        count_decision(&self.metrics, &decision);
        let winner = decision.winner;
        ans.report.rows_scanned += declined_rows;
        ans.report.routing = Some(decision);
        attach_trace(&mut ans.report, root, wall_start);
        // The audit runs after the trace and wall are sealed: its cost is
        // observably its own (report.audit.wall, aqp_audit_wall_us), never
        // billed to the answer. Exact winners are never audited, so an
        // out-of-shape plan (exact by construction) needs no query here.
        if let Some(query) = &query {
            self.maybe_audit(query, &mut ans, spec, &analysis, winner);
        }
        ans.report.lints = Some(analysis);
        self.attach_accuracy(&mut ans);
        Ok(ans)
    }

    /// Runs the seeded ground-truth audit when the sampler picks this
    /// answer: re-executes exactly, grades the promises, records the
    /// verdict in the scoreboard (possibly entering quarantine), and
    /// mirrors failed offline audits into the synopsis drift monitors.
    fn maybe_audit(
        &self,
        query: &AggQuery,
        ans: &mut ApproximateAnswer,
        spec: &ErrorSpec,
        analysis: &Analysis,
        winner: TechniqueKind,
    ) {
        let cfg = self.config.audit;
        if winner == TechniqueKind::Exact || cfg.rate <= 0.0 {
            return;
        }
        let serial = self.audit_serial.fetch_add(1, Ordering::Relaxed);
        if !audit::should_audit(cfg.seed, serial, cfg.rate) {
            return;
        }
        // The audit gets its own root span, whose trace is dropped with
        // it: the exact re-execution's operator spans must not land in the
        // query's already-attached tree or in the caller's records.
        let audit_root = aqp_obs::root_span("audit");
        let outcome = audit::audit_answer(
            self.catalog,
            query,
            ans,
            spec,
            exec_opts(analysis, None),
            winner,
        );
        audit_root.finish();
        // An audit that itself errors grades nothing — the query already
        // answered; don't fail it retroactively.
        let Ok(outcome) = outcome else { return };
        if !outcome.ok && winner == TechniqueKind::OfflineSynopsis {
            self.offline.note_failed_audit(&query.fact_table);
        }
        let transition = self.scoreboard.record(winner.name(), outcome.observation());
        if transition == Transition::Entered {
            self.metrics
                .counter_labeled(
                    aqp_obs::names::QUARANTINED_TOTAL,
                    aqp_obs::names::TECHNIQUE_LABEL,
                    winner.name(),
                )
                .inc(1);
        }
        if transition != Transition::None {
            // Entering or leaving quarantine flips a family's static
            // eligibility — cached routing decisions are now wrong.
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        ans.report.audit = Some(Box::new(outcome));
    }

    /// Attaches the scoreboard snapshot to the report once any audits
    /// have run, so `explain_analyze()` can render the accuracy table.
    fn attach_accuracy(&self, ans: &mut ApproximateAnswer) {
        let snapshot = self.scoreboard.snapshot();
        if !snapshot.rows.is_empty() {
            ans.report.accuracy = Some(Box::new(snapshot));
        }
    }
}
