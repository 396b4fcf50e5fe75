//! The concurrent front door: one [`AqpService`] shared by many client
//! threads, wrapping a single [`AqpSession`] with the three things a
//! session alone does not give you under load:
//!
//! 1. **Bounded admission + fair scheduling** — at most
//!    [`ServiceConfig::max_inflight`] queries execute at once; excess
//!    queries wait in a FIFO ticket queue of capacity
//!    [`ServiceConfig::queue_capacity`], and when that is full the query
//!    is *rejected* ([`Rejection::QueueFull`]) instead of queueing
//!    unboundedly — NSB's predictable-degradation argument. Queue wait
//!    and occupancy feed the `aqp_service_*` series in
//!    [`aqp_obs::names`], recorded in the session's
//!    [registry](AqpSession::metrics) like every other counter the service
//!    keeps. In-flight queries split one machine-wide
//!    morsel-thread budget fairly ([`aqp_engine::PoolShare`]); results
//!    are unaffected because engine output is thread-count invariant.
//! 2. **Plan cache** — keyed on a fingerprint of the normalized plan and
//!    the error spec, memoizing the lint [`Analysis`], the
//!    [`RoutingDecision`] it implies (refreshed from each completed run),
//!    and an EWMA of the answer wall. A hit makes admission and
//!    [`AqpService::route`] a fingerprint lookup, and execution routes on
//!    the memoized analysis; the winning family then runs exactly what a
//!    cold run runs. Entries are invalidated by every change a verdict
//!    reads: synopsis builds and maintenance, quarantine transitions (all
//!    folded into the session's
//!    [`routing epoch`](AqpSession::routing_epoch)), and fact-table
//!    row-count changes.
//! 3. **Contract admission control** — each query carries a
//!    [`Contract`] (max relative error, confidence, optional deadline).
//!    A contract whose error or confidence lies outside (0, 1) is an
//!    [`AqpError::InvalidContract`]. Admission *accepts* a well-formed
//!    one, *degrades* it (the analyzer proves only a point-estimate
//!    family can answer: the query still runs, with the
//!    honest downgrade recorded in the answer's
//!    [`AdmissionReport`]), or *rejects*
//!    it with a typed [`Rejection`] — strict policies reject instead of
//!    degrading, and deadlines the cached cost estimate proves unmeetable
//!    are rejected before any work is done.
//!
//! Answers produced through the service are bit-for-bit identical to a
//! serial [`AqpSession::answer`] replay of the same `(plan, spec, seed)`
//! stream: the only work a hit skips is the lint, whose verdicts cannot
//! change while the epoch holds. `tests/service.rs` pins this with a
//! multi-threaded proptest.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use aqp_analyze::{Analysis, GuaranteeClass};
use aqp_engine::{LogicalPlan, PoolShare};
use aqp_obs::metrics::MetricsRegistry;
use aqp_obs::names;
use aqp_storage::Catalog;

use crate::aggquery::AggQuery;
use crate::answer::{ApproximateAnswer, CandidateDecision, RoutingDecision};
use crate::error::AqpError;
use crate::session::{AqpSession, Replay, SessionConfig};
use crate::spec::ErrorSpec;

/// A per-query accuracy-and-latency contract negotiated at admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contract {
    /// Maximum acceptable relative error (half-width / |estimate|).
    pub max_rel_err: f64,
    /// Confidence level the error bound must hold at, in (0, 1).
    pub confidence: f64,
    /// Optional wall-clock deadline covering queue wait *and* execution.
    /// Admission rejects up front when the cached cost estimate already
    /// exceeds it, and a query still queued at the deadline is withdrawn
    /// and rejected rather than executed late.
    pub deadline: Option<Duration>,
}

impl Contract {
    /// A contract with no deadline.
    pub fn new(max_rel_err: f64, confidence: f64) -> Self {
        Self {
            max_rel_err,
            confidence,
            deadline: None,
        }
    }

    /// Returns the contract with a deadline attached.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The accuracy half of the contract as an [`ErrorSpec`].
    ///
    /// # Panics
    /// Panics when `max_rel_err` or `confidence` lie outside (0, 1) —
    /// the same construction contract as [`ErrorSpec::new`].
    /// [`AqpService::submit`] checks with [`ErrorSpec::try_new`] instead.
    pub fn spec(&self) -> ErrorSpec {
        ErrorSpec::new(self.max_rel_err, self.confidence)
    }
}

impl Default for Contract {
    fn default() -> Self {
        let spec = ErrorSpec::default();
        Self {
            max_rel_err: spec.relative_error,
            confidence: spec.confidence,
            deadline: None,
        }
    }
}

/// Tuning knobs for the service layer (the session keeps its own
/// [`SessionConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Queries allowed to execute concurrently. Excess queries queue.
    pub max_inflight: usize,
    /// Queries allowed to *wait*; a query arriving past this is rejected
    /// with [`Rejection::QueueFull`]. `0` disables queueing entirely
    /// (admit-or-reject).
    pub queue_capacity: usize,
    /// Plan-cache entries kept (FIFO eviction).
    pub cache_capacity: usize,
    /// When `true`, a contract the analyzer proves no guarantee-carrying
    /// family can honor is rejected ([`Rejection::ContractUnattainable`])
    /// instead of degraded to a point estimate.
    pub strict_contracts: bool,
    /// Machine-wide morsel-thread budget split fairly across in-flight
    /// queries (see [`aqp_engine::PoolShare`]).
    pub thread_budget: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let threads = aqp_engine::pool::default_threads();
        Self {
            max_inflight: threads.max(1),
            queue_capacity: 64,
            cache_capacity: 256,
            strict_contracts: false,
            thread_budget: threads,
        }
    }
}

/// Why admission control refused a query. Rejections are answers, not
/// errors: the service is telling the client *now* what an unbounded
/// queue would have told it much later.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The bounded admission queue is full.
    QueueFull {
        /// Queries already waiting.
        depth: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The contract's deadline cannot (or could not) be met: either the
    /// cached cost estimate already exceeds it, or the deadline expired
    /// while the query was still queued.
    DeadlineUnmeetable {
        /// The contract's deadline.
        deadline: Duration,
        /// The estimated (or already-spent) wall clock that sank it.
        estimate: Duration,
    },
    /// Under [`ServiceConfig::strict_contracts`], no guarantee-carrying
    /// family can answer this plan — only a point estimate is attainable.
    ContractUnattainable {
        /// The strongest approximate guarantee the analyzer found.
        best: GuaranteeClass,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { depth, capacity } => {
                write!(f, "admission queue full ({depth}/{capacity})")
            }
            Self::DeadlineUnmeetable { deadline, estimate } => write!(
                f,
                "deadline {deadline:?} unmeetable (estimate {estimate:?})"
            ),
            Self::ContractUnattainable { best } => {
                write!(f, "contract unattainable (best approximate: {best})")
            }
        }
    }
}

/// What the service returned for a submitted query.
#[derive(Debug)]
pub enum ServiceReply {
    /// The query was admitted and answered.
    Answered(Box<ApproximateAnswer>),
    /// Admission control refused the query; nothing was executed.
    Rejected(Rejection),
}

impl ServiceReply {
    /// The answer, if the query was admitted.
    pub fn answered(self) -> Option<ApproximateAnswer> {
        match self {
            Self::Answered(ans) => Some(*ans),
            Self::Rejected(_) => None,
        }
    }

    /// The rejection, if the query was refused.
    pub fn rejection(&self) -> Option<&Rejection> {
        match self {
            Self::Answered(_) => None,
            Self::Rejected(r) => Some(r),
        }
    }
}

/// What a plan-cache lookup found (the label values of
/// `aqp_plan_cache_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// Fingerprint present and still valid: the memoized analysis and
    /// route serve admission.
    Hit,
    /// Fingerprint never seen.
    Miss,
    /// Fingerprint present but invalidated by a routing-epoch bump or a
    /// fact-table row-count change.
    Stale,
    /// The plan is outside the normalized star shape and cannot be
    /// cached.
    Uncacheable,
}

impl CacheEvent {
    /// The metric label value (a member of
    /// [`aqp_obs::names::PLAN_CACHE_EVENT_TAGS`]).
    pub fn tag(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Stale => "stale",
            Self::Uncacheable => "uncacheable",
        }
    }
}

/// The admission verdict for an executed query (rejected queries carry a
/// [`Rejection`] instead).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionDecision {
    /// A guarantee-carrying family (or exact) can honor the contract.
    Accepted,
    /// Only a point-estimate family can answer: the query ran, with the
    /// guarantee honestly downgraded.
    Degraded {
        /// The class the contract asked for (a-priori bounds).
        requested: GuaranteeClass,
        /// The class actually attainable.
        granted: GuaranteeClass,
    },
}

impl AdmissionDecision {
    /// The metric label value (a member of
    /// [`aqp_obs::names::ADMISSION_DECISION_TAGS`]).
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Accepted => "accepted",
            Self::Degraded { .. } => "degraded",
        }
    }
}

/// How admission handled one executed query — attached to the answer's
/// report and rendered by `explain_analyze()`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionReport {
    /// Accepted as asked, or degraded with an honest downgrade.
    pub decision: AdmissionDecision,
    /// What the plan cache found for this query.
    pub cache: CacheEvent,
    /// Time spent in the admission queue before execution began.
    pub queue_wait: Duration,
    /// The cached wall-clock estimate admission used for deadline checks,
    /// when one existed.
    pub estimated_wall: Option<Duration>,
}

/// A point-in-time view of the service's queues and caches. The counts
/// are reads of the `aqp_plan_cache_total` and `aqp_admission_total`
/// series in the session's [registry](AqpSession::metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries waiting in the admission queue.
    pub queue_depth: usize,
    /// Queries executing right now.
    pub inflight: usize,
    /// Plan-cache entries resident.
    pub cache_entries: usize,
    /// Plan-cache lookups that hit a valid entry.
    pub cache_hits: u64,
    /// Plan-cache lookups that found nothing, or found the plan
    /// uncacheable.
    pub cache_misses: u64,
    /// Plan-cache lookups that found an invalidated entry.
    pub cache_stale: u64,
    /// Queries admitted with the contract intact.
    pub accepted: u64,
    /// Queries admitted with a degraded guarantee.
    pub degraded: u64,
    /// Queries rejected by admission control.
    pub rejected: u64,
}

// ---- FIFO ticket scheduler -------------------------------------------------

#[derive(Debug)]
struct SchedState {
    inflight: usize,
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// Fair (FIFO) admission: the head ticket acquires an execution slot as
/// soon as one frees up; everyone else waits behind it. Tickets abandoned
/// at their deadline remove themselves, so a slow head cannot strand the
/// queue. Built on std's `Condvar` (the vendored `parking_lot` stand-in
/// has no condition variables); poisoning is recovered, matching the
/// stand-in's non-poisoning convention.
#[derive(Debug)]
struct Scheduler {
    state: std::sync::Mutex<SchedState>,
    cv: std::sync::Condvar,
    max_inflight: usize,
    queue_capacity: usize,
    metrics: Arc<MetricsRegistry>,
}

// lock-order: state(via lock_state) < inner
// The scheduler's `state` Mutex and the plan cache's `inner` Mutex are
// never held together today; the declared order makes that a checked
// invariant (conformance C007) rather than a happy accident.

/// Lock the scheduler state, recovering from poisoning.
fn lock_state(sched: &Scheduler) -> std::sync::MutexGuard<'_, SchedState> {
    sched.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII release of one execution slot.
#[derive(Debug)]
struct SchedGuard<'s> {
    sched: &'s Scheduler,
}

impl Drop for SchedGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.sched);
        st.inflight = st.inflight.saturating_sub(1);
        self.sched.publish(&st);
        drop(st);
        self.sched.cv.notify_all();
    }
}

impl Scheduler {
    fn new(max_inflight: usize, queue_capacity: usize, metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            state: std::sync::Mutex::new(SchedState {
                inflight: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: std::sync::Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue_capacity,
            metrics,
        }
    }

    /// Sets the occupancy gauges from the state just changed.
    fn publish(&self, st: &SchedState) {
        self.metrics
            .gauge(names::SERVICE_QUEUE_DEPTH)
            .set(st.queue.len() as f64);
        self.metrics
            .gauge(names::SERVICE_INFLIGHT)
            .set(st.inflight as f64);
    }

    /// Waits for an execution slot in FIFO order. Returns the guard and
    /// the time spent queued, or a typed rejection when the queue is full
    /// or the deadline passes first.
    fn admit(&self, deadline: Option<Instant>) -> Result<(SchedGuard<'_>, Duration), Rejection> {
        let wait_start = Instant::now();
        let mut st = lock_state(self);
        if st.queue.is_empty() && st.inflight < self.max_inflight {
            st.inflight += 1;
            self.publish(&st);
            return Ok((SchedGuard { sched: self }, Duration::ZERO));
        }
        if st.queue.len() >= self.queue_capacity {
            return Err(Rejection::QueueFull {
                depth: st.queue.len(),
                capacity: self.queue_capacity,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        self.publish(&st);
        loop {
            if st.queue.front() == Some(&ticket) && st.inflight < self.max_inflight {
                st.queue.pop_front();
                st.inflight += 1;
                self.publish(&st);
                drop(st);
                // More slots may remain for the next ticket in line.
                self.cv.notify_all();
                return Ok((SchedGuard { sched: self }, wait_start.elapsed()));
            }
            let timed_out = match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        true
                    } else {
                        let (guard, result) = self
                            .cv
                            .wait_timeout(st, remaining)
                            .unwrap_or_else(|e| e.into_inner());
                        st = guard;
                        result.timed_out()
                    }
                }
                None => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    false
                }
            };
            if timed_out && !(st.queue.front() == Some(&ticket) && st.inflight < self.max_inflight)
            {
                st.queue.retain(|&t| t != ticket);
                self.publish(&st);
                drop(st);
                self.cv.notify_all();
                let spent = wait_start.elapsed();
                return Err(Rejection::DeadlineUnmeetable {
                    deadline: spent,
                    estimate: spent,
                });
            }
        }
    }

    fn queue_depth(&self) -> usize {
        lock_state(self).queue.len()
    }

    fn inflight(&self) -> usize {
        lock_state(self).inflight
    }
}

// ---- Plan cache ------------------------------------------------------------

/// One memoized routing decision. Valid only while the session's routing
/// epoch and the fact table's row count still match what the entry was
/// stamped with.
struct CacheEntry {
    analysis: Arc<Analysis>,
    /// Fact table backing the plan — its current row count is part of
    /// the entry's validity check.
    fact_table: String,
    /// Routing template with walls zeroed; refreshed from each completed
    /// run so it reflects runtime declines, not just static verdicts.
    decision: Arc<RoutingDecision>,
    epoch: u64,
    fact_rows: u64,
    /// Exponentially weighted answer wall (µs); 0 = no sample yet.
    ewma_wall_us: f64,
}

struct CacheInner {
    map: HashMap<u64, CacheEntry>,
    order: VecDeque<u64>,
}

struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
    }
}

/// Incremental FNV-1a. Every compound mix is bracketed with a length or
/// discriminant byte so structurally distinct trees cannot collide by
/// concatenation (e.g. `("ab","c")` vs `("a","bc")`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn tag(&mut self, discriminant: u8) {
        self.mix(&[discriminant]);
    }

    fn str(&mut self, s: &str) {
        self.mix(&(s.len() as u64).to_le_bytes());
        self.mix(s.as_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.mix(&v.to_bits().to_le_bytes());
    }

    fn expr(&mut self, e: &aqp_expr::Expr) {
        use aqp_expr::Expr;
        match e {
            Expr::Column(name) => {
                self.tag(1);
                self.str(name);
            }
            Expr::Literal(v) => {
                self.tag(2);
                match v {
                    aqp_storage::Value::Null => self.tag(0),
                    aqp_storage::Value::Int64(i) => {
                        self.tag(1);
                        self.mix(&i.to_le_bytes());
                    }
                    aqp_storage::Value::Float64(f) => {
                        self.tag(2);
                        self.f64(*f);
                    }
                    aqp_storage::Value::Str(s) => {
                        self.tag(3);
                        self.str(s);
                    }
                    aqp_storage::Value::Bool(b) => self.tag(4 + u8::from(*b)),
                }
            }
            Expr::Binary { left, op, right } => {
                self.tag(3);
                self.tag(*op as u8);
                self.expr(left);
                self.expr(right);
            }
            Expr::Not(inner) => {
                self.tag(4);
                self.expr(inner);
            }
            Expr::IsNull(inner) => {
                self.tag(5);
                self.expr(inner);
            }
            Expr::Hash64(inner) => {
                self.tag(6);
                self.expr(inner);
            }
        }
    }

    fn named_exprs(&mut self, pairs: &[(aqp_expr::Expr, String)]) {
        self.mix(&(pairs.len() as u64).to_le_bytes());
        for (e, name) in pairs {
            self.expr(e);
            self.str(name);
        }
    }

    fn plan(&mut self, p: &LogicalPlan) {
        match p {
            LogicalPlan::Scan { table } => {
                self.tag(1);
                self.str(table);
            }
            LogicalPlan::Filter { input, predicate } => {
                self.tag(2);
                self.plan(input);
                self.expr(predicate);
            }
            LogicalPlan::Project { input, exprs } => {
                self.tag(3);
                self.plan(input);
                self.named_exprs(exprs);
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                self.tag(4);
                self.plan(left);
                self.plan(right);
                self.expr(left_key);
                self.expr(right_key);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                self.tag(5);
                self.plan(input);
                self.named_exprs(group_by);
                self.mix(&(aggregates.len() as u64).to_le_bytes());
                for a in aggregates {
                    self.tag(a.func as u8);
                    self.expr(&a.expr);
                    self.str(&a.alias);
                }
            }
            LogicalPlan::Sort { input, keys } => {
                self.tag(6);
                self.plan(input);
                self.mix(&(keys.len() as u64).to_le_bytes());
                for k in keys {
                    self.str(&k.column);
                    self.tag(u8::from(k.desc));
                }
            }
            LogicalPlan::Limit { input, n } => {
                self.tag(7);
                self.plan(input);
                self.mix(&(*n as u64).to_le_bytes());
            }
            LogicalPlan::UnionAll { inputs } => {
                self.tag(8);
                self.mix(&(inputs.len() as u64).to_le_bytes());
                for i in inputs {
                    self.plan(i);
                }
            }
        }
    }
}

/// FNV-1a over the plan tree (walked directly — no debug-format
/// detour) plus the spec bits: equal plans collide, different plans or
/// different specs (which change runtime declines and the wall estimate)
/// do not.
fn fingerprint(plan: &LogicalPlan, spec: &ErrorSpec) -> u64 {
    let mut h = Fnv::new();
    h.plan(plan);
    h.f64(spec.relative_error);
    h.f64(spec.confidence);
    h.0
}

fn zeroed_walls(decision: &RoutingDecision) -> RoutingDecision {
    RoutingDecision {
        candidates: decision
            .candidates
            .iter()
            .map(|c| CandidateDecision {
                kind: c.kind,
                outcome: c.outcome.clone(),
                attempt_wall: Duration::ZERO,
            })
            .collect(),
        winner: decision.winner,
    }
}

/// Everything `submit` needs from the prepare step.
struct Prepared {
    analysis: Arc<Analysis>,
    fingerprint: Option<u64>,
    /// Present on a cache hit: the memoized route.
    route: Option<CachedRoute>,
    event: CacheEvent,
}

struct CachedRoute {
    decision: Arc<RoutingDecision>,
    /// `None` until a completed run has been folded in.
    estimated_wall: Option<Duration>,
}

// ---- The service -----------------------------------------------------------

/// A `Send + Sync` concurrent AQP front door over one [`AqpSession`].
/// See the module docs for the admission / cache / contract design.
pub struct AqpService<'a> {
    session: AqpSession<'a>,
    config: ServiceConfig,
    share: PoolShare,
    sched: Scheduler,
    cache: PlanCache,
}

impl<'a> AqpService<'a> {
    /// A service with default session and service configuration.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::over(AqpSession::new(catalog), ServiceConfig::default())
    }

    /// A service with explicit session and service configuration.
    pub fn with_config(
        catalog: &'a Catalog,
        session: SessionConfig,
        service: ServiceConfig,
    ) -> Self {
        Self::over(AqpSession::with_config(catalog, session), service)
    }

    /// Wraps an already-configured session (synopses built, audits armed)
    /// in the concurrent service layer.
    pub fn over(session: AqpSession<'a>, config: ServiceConfig) -> Self {
        Self {
            share: PoolShare::new(config.thread_budget),
            sched: Scheduler::new(
                config.max_inflight,
                config.queue_capacity,
                Arc::clone(session.metrics()),
            ),
            cache: PlanCache::new(config.cache_capacity),
            session,
            config,
        }
    }

    /// The wrapped session — build synopses or run maintenance through
    /// this handle; the service's plan cache observes the resulting
    /// epoch bumps automatically.
    pub fn session(&self) -> &AqpSession<'a> {
        &self.session
    }

    /// The service-layer configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// A point-in-time snapshot of queues and caches.
    pub fn stats(&self) -> ServiceStats {
        let m = self.metrics();
        let cache = |event: CacheEvent| {
            m.counter_labeled(
                names::PLAN_CACHE_TOTAL,
                names::PLAN_CACHE_EVENT_LABEL,
                event.tag(),
            )
            .get()
        };
        let admitted = |tag| {
            m.counter_labeled(names::ADMISSION_TOTAL, names::ADMISSION_DECISION_LABEL, tag)
                .get()
        };
        ServiceStats {
            queue_depth: self.sched.queue_depth(),
            inflight: self.sched.inflight(),
            cache_entries: self.cache.len(),
            cache_hits: cache(CacheEvent::Hit),
            cache_misses: cache(CacheEvent::Miss) + cache(CacheEvent::Uncacheable),
            cache_stale: cache(CacheEvent::Stale),
            accepted: admitted("accepted"),
            degraded: admitted("degraded"),
            rejected: admitted("rejected"),
        }
    }

    /// The session's metrics registry, which the service's own series
    /// (admission, plan cache, queue) share.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.session.metrics()
    }

    /// Drops every plan-cache entry (benchmarks use this to time the cold
    /// path honestly).
    pub fn invalidate_cache(&self) {
        self.cache.clear();
    }

    /// The routing decision for a plan, served from the plan cache when
    /// possible — the service analogue of [`AqpSession::probe`]. A warm
    /// call is a fingerprint lookup plus a validity check (no plan
    /// normalization, no lint); a cold call lints, reads the decision
    /// off the verdicts and caches both.
    pub fn route(&self, plan: &LogicalPlan, spec: &ErrorSpec) -> Arc<RoutingDecision> {
        let prep = self.prepare(plan, spec);
        match prep.route {
            Some(route) => route.decision,
            // Out-of-shape plans are uncacheable; decide from the lint
            // `prepare` just ran.
            None => Arc::new(self.session.decide(&prep.analysis)),
        }
    }

    /// Convenience wrapper: submit under a no-deadline contract built
    /// from `spec`. A rejection (only possible here when the bounded
    /// queue is full) surfaces as [`AqpError::Infeasible`].
    pub fn answer(
        &self,
        plan: &LogicalPlan,
        spec: &ErrorSpec,
        seed: u64,
    ) -> Result<ApproximateAnswer, AqpError> {
        let contract = Contract::new(spec.relative_error, spec.confidence);
        match self.submit(plan, &contract, seed)? {
            ServiceReply::Answered(ans) => Ok(*ans),
            ServiceReply::Rejected(r) => Err(AqpError::Infeasible {
                detail: format!("service rejected query: {r}"),
            }),
        }
    }

    /// Admits, schedules, and answers one query under `contract`.
    /// Thread-safe: any number of client threads may call this
    /// concurrently on a shared reference. A contract whose error or
    /// confidence lies outside (0, 1), NaN included, is an
    /// [`AqpError::InvalidContract`]: nothing is cached, counted or run.
    pub fn submit(
        &self,
        plan: &LogicalPlan,
        contract: &Contract,
        seed: u64,
    ) -> Result<ServiceReply, AqpError> {
        let spec = ErrorSpec::try_new(contract.max_rel_err, contract.confidence)?;
        let arrived = Instant::now();
        let prep = self.prepare(plan, &spec);
        self.metrics()
            .counter_labeled(
                names::PLAN_CACHE_TOTAL,
                names::PLAN_CACHE_EVENT_LABEL,
                prep.event.tag(),
            )
            .inc(1);

        // ---- Contract admission ----
        let best = prep.analysis.best_approximate();
        let decision = match best {
            // A guarantee-carrying family — or exact-only, which beats any
            // accuracy contract — can honor the request.
            GuaranteeClass::Exact
            | GuaranteeClass::APriori
            | GuaranteeClass::APosteriori
            | GuaranteeClass::Unattainable => AdmissionDecision::Accepted,
            GuaranteeClass::PointEstimate => {
                if self.config.strict_contracts {
                    return Ok(self.reject(Rejection::ContractUnattainable { best }));
                }
                AdmissionDecision::Degraded {
                    requested: GuaranteeClass::APriori,
                    granted: best,
                }
            }
        };
        let estimated_wall = prep.route.as_ref().and_then(|r| r.estimated_wall);
        if let (Some(deadline), Some(estimate)) = (contract.deadline, estimated_wall) {
            if estimate > deadline {
                return Ok(self.reject(Rejection::DeadlineUnmeetable { deadline, estimate }));
            }
        }

        // ---- Scheduling ----
        let deadline_at = contract.deadline.map(|d| arrived + d);
        let (guard, queue_wait) = match self.sched.admit(deadline_at) {
            Ok(admitted) => admitted,
            Err(mut rejection) => {
                if let (Rejection::DeadlineUnmeetable { deadline, .. }, Some(contract_deadline)) =
                    (&mut rejection, contract.deadline)
                {
                    *deadline = contract_deadline;
                }
                return Ok(self.reject(rejection));
            }
        };
        self.metrics()
            .histogram(
                names::SERVICE_QUEUE_WAIT_US,
                aqp_obs::metrics::LATENCY_US_BOUNDS,
            )
            .observe(queue_wait.as_secs_f64() * 1e6);

        // ---- Execution (fair thread split) ----
        let slot = self.share.join();
        let threads = self.share.fair_threads();
        let replay = Replay {
            analysis: Some(Arc::clone(&prep.analysis)),
            threads: Some(threads),
        };
        let mut ans = self.session.answer_with(plan, &spec, seed, replay)?;
        drop(slot);
        drop(guard);

        // ---- Bookkeeping ----
        if let Some(fp) = prep.fingerprint {
            self.record_result(fp, &ans);
        }
        self.count_admission(decision.tag());
        ans.report.admission = Some(Box::new(AdmissionReport {
            decision,
            cache: prep.event,
            queue_wait,
            estimated_wall,
        }));
        Ok(ServiceReply::Answered(Box::new(ans)))
    }

    fn reject(&self, rejection: Rejection) -> ServiceReply {
        self.count_admission("rejected");
        ServiceReply::Rejected(rejection)
    }

    fn count_admission(&self, tag: &'static str) {
        self.metrics()
            .counter_labeled(names::ADMISSION_TOTAL, names::ADMISSION_DECISION_LABEL, tag)
            .inc(1);
    }

    /// Rows currently in the plan's fact table — part of an entry's
    /// validity stamp, catching appends that never touch a synopsis.
    fn fact_rows(&self, query: &AggQuery) -> u64 {
        self.session
            .catalog()
            .get(&query.fact_table)
            .map(|t| t.row_count() as u64)
            .unwrap_or(0)
    }

    /// Cache lookup / fill: on a hit, returns the memoized analysis and
    /// route; on a miss or stale entry, lints, decides, and inserts.
    ///
    /// The hit path deliberately runs *before* plan normalization: a
    /// fingerprint probe plus two catalog reads is the entire cost of a
    /// warm routing decision.
    fn prepare(&self, plan: &LogicalPlan, spec: &ErrorSpec) -> Prepared {
        let fp = fingerprint(plan, spec);
        let epoch = self.session.routing_epoch();
        let mut event = CacheEvent::Miss;
        {
            let mut inner = self.cache.inner.lock();
            if let Some(entry) = inner.map.get(&fp) {
                let fact_rows = self
                    .session
                    .catalog()
                    .get(&entry.fact_table)
                    .map(|t| t.row_count() as u64)
                    .unwrap_or(0);
                if entry.epoch == epoch && entry.fact_rows == fact_rows {
                    return Prepared {
                        analysis: Arc::clone(&entry.analysis),
                        route: Some(CachedRoute {
                            decision: Arc::clone(&entry.decision),
                            estimated_wall: (entry.ewma_wall_us > 0.0)
                                .then(|| Duration::from_micros(entry.ewma_wall_us as u64)),
                        }),
                        fingerprint: Some(fp),
                        event: CacheEvent::Hit,
                    };
                }
                inner.map.remove(&fp);
                inner.order.retain(|&k| k != fp);
                event = CacheEvent::Stale;
            }
        }
        let Some(query) = AggQuery::from_plan(plan) else {
            // Out-of-shape plans route to exact every time; nothing worth
            // caching beyond what the lint itself costs.
            let analysis = Arc::new(aqp_analyze::lint_with(
                plan,
                None,
                &self.session.lint_context(),
            ));
            return Prepared {
                analysis,
                fingerprint: None,
                route: None,
                event: CacheEvent::Uncacheable,
            };
        };
        let fact_rows = self.fact_rows(&query);
        // Miss path: lint outside the cache lock (it is metadata-only and
        // contention here would serialize every cold query).
        let analysis = Arc::new(aqp_analyze::lint_with(
            plan,
            Some(&query),
            &self.session.lint_context(),
        ));
        let decision = Arc::new(self.session.decide(&analysis));
        {
            let mut inner = self.cache.inner.lock();
            while inner.map.len() >= self.cache.capacity {
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                inner.map.remove(&oldest);
                self.metrics()
                    .counter_labeled(
                        names::PLAN_CACHE_TOTAL,
                        names::PLAN_CACHE_EVENT_LABEL,
                        "evicted",
                    )
                    .inc(1);
            }
            inner.map.insert(
                fp,
                CacheEntry {
                    analysis: Arc::clone(&analysis),
                    fact_table: query.fact_table,
                    decision: Arc::clone(&decision),
                    epoch,
                    fact_rows,
                    ewma_wall_us: 0.0,
                },
            );
            inner.order.push_back(fp);
        }
        Prepared {
            analysis,
            fingerprint: Some(fp),
            route: Some(CachedRoute {
                decision,
                estimated_wall: None,
            }),
            event,
        }
    }

    /// Folds one completed answer back into its cache entry: the wall
    /// EWMA for deadline estimates and the realized routing template
    /// (which — unlike the verdict-only template — records runtime
    /// declines).
    fn record_result(&self, fp: u64, ans: &ApproximateAnswer) {
        let mut inner = self.cache.inner.lock();
        let Some(entry) = inner.map.get_mut(&fp) else {
            return;
        };
        let wall_us = ans.report.wall.as_secs_f64() * 1e6;
        entry.ewma_wall_us = if entry.ewma_wall_us > 0.0 {
            0.7 * entry.ewma_wall_us + 0.3 * wall_us
        } else {
            wall_us
        };
        if let Some(routing) = &ans.report.routing {
            entry.decision = Arc::new(zeroed_walls(routing));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_is_send_sync() {
        assert_send_sync::<AqpService<'static>>();
    }

    #[test]
    fn fingerprint_separates_plans_and_specs() {
        use aqp_engine::{AggExpr, Query};
        use aqp_expr::col;
        let a = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build();
        let b = Query::scan("u")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build();
        let tight = ErrorSpec::new(0.01, 0.95);
        let loose = ErrorSpec::new(0.10, 0.95);
        assert_eq!(fingerprint(&a, &tight), fingerprint(&a, &tight));
        assert_ne!(fingerprint(&a, &tight), fingerprint(&b, &tight));
        assert_ne!(fingerprint(&a, &tight), fingerprint(&a, &loose));
    }

    #[test]
    fn scheduler_rejects_when_queue_full() {
        let sched = Scheduler::new(1, 0, Arc::default());
        let (guard, wait) = sched.admit(None).expect("first admit");
        assert_eq!(wait, Duration::ZERO);
        match sched.admit(None) {
            Err(Rejection::QueueFull { capacity: 0, .. }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        drop(guard);
        let (_g, _) = sched.admit(None).expect("slot freed");
    }

    #[test]
    fn scheduler_is_fifo_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sched = Scheduler::new(1, 16, Arc::default());
        let completed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let first = sched.admit(None).expect("head slot");
            for _ in 0..4 {
                scope.spawn(|| {
                    let (_g, _) = sched.admit(None).expect("queued admit");
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Queued threads cannot run while the head slot is held.
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(completed.load(Ordering::SeqCst), 0);
            assert_eq!(sched.queue_depth(), 4);
            drop(first);
        });
        assert_eq!(completed.load(Ordering::SeqCst), 4);
        assert_eq!(sched.inflight(), 0);
        assert_eq!(sched.queue_depth(), 0);
    }

    #[test]
    fn queued_ticket_withdraws_at_deadline() {
        let sched = Scheduler::new(1, 16, Arc::default());
        let guard = sched.admit(None).expect("head slot");
        let deadline = Instant::now() + Duration::from_millis(20);
        match sched.admit(Some(deadline)) {
            Err(Rejection::DeadlineUnmeetable { .. }) => {}
            other => panic!("expected deadline rejection, got {other:?}"),
        }
        assert_eq!(sched.queue_depth(), 0, "abandoned ticket removed");
        drop(guard);
    }
}
