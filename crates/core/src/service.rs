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
//!    morsel-thread budget ([`ServiceConfig::thread_budget`]): a grant
//!    takes the budget divided by the in-flight count, its own slot
//!    included, read under the scheduler's lock. A share is fixed at its
//!    grant and never shrinks, so the budget shapes shares rather than
//!    capping threads in use: three queries admitted one after another on
//!    a budget of 8 run on 8 + 4 + 2 threads. Results are unaffected
//!    because engine output is thread-count invariant.
//! 2. **Plan cache** — keyed on a fingerprint of the normalized plan and
//!    the error spec, memoizing the lint [`Analysis`], the
//!    [`RoutingDecision`] it implies (refreshed from each completed run,
//!    so it can carry a remembered decline of online sampling), and an
//!    EWMA of the answer wall. A hit makes admission and
//!    [`AqpService::route`] a fingerprint lookup, and execution routes on
//!    the memoized analysis; the winning family then runs exactly what a
//!    cold run runs. Entries are invalidated by every change a verdict or
//!    a remembered decline reads: synopsis builds and maintenance,
//!    quarantine transitions (all folded into the session's
//!    [`routing epoch`](AqpSession::routing_epoch)), and a
//!    `Catalog::replace` of any table the plan reads, fact or dimension,
//!    whatever its row count (the entry holds a `Weak` to each table and
//!    compares identities). [`AqpService::invalidate_cache`] drops every
//!    entry.
//!
//!    A decline is decisive when online's pilot found the required rate
//!    over the cap even at the optimistic end of the planner's band
//!    ([`DeclineReason::RateAboveCap`]'s `optimistic`: the pilot's spread
//!    deflated by the factor the plan inflates it by). One pilot is one
//!    sample, and the band is a heuristic: on skewed data a pilot can
//!    read the spread high enough to decline decisively at a seed where
//!    most seeds answer. So an entry remembers the decline only once two
//!    of its pilots, with different readings, declined decisively and
//!    none of its pilots answered or declined in doubt; a shape whose
//!    pilots disagree pilots on every submit for the entry's life. Once
//!    remembered, a hit skips the pilot: the answer's routing shows
//!    online as [`CandidateOutcome::Remembered`] with the confirming
//!    pilot's reason, no `online:pilot` span is opened, no pilot rows are
//!    charged, and the next family runs with the query's own seed.
//! 3. **Contract admission control** — each query carries a
//!    [`Contract`] (max relative error, confidence, optional deadline).
//!    A contract whose error or confidence lies outside (0, 1) is an
//!    [`AqpError::InvalidContract`]. Admission *accepts* a well-formed
//!    one, with its plan-cache event, queue wait and wall estimate in the
//!    answer's [`AdmissionReport`], or *rejects* it with a typed
//!    [`Rejection`]: a full queue, or a deadline the cached cost estimate
//!    proves unmeetable, before any work is done.
//!    Every family that can answer carries an interval (the exact one has
//!    width zero), so no accuracy contract is refused or downgraded
//!    statically: an answer whose interval is wider than the contract
//!    says so itself.
//!
//! Answers produced through the service are bit-for-bit identical to a
//! serial [`AqpSession::answer`] replay of the same `(plan, spec, seed)`
//! stream whenever online's decline of a remembered shape holds at every
//! seed of the stream: the work a hit skips is the lint, whose verdicts
//! cannot change while the entry is valid, and a decisive decline's
//! pilot, whose outcome is the decline. (The rule is a heuristic, not a
//! bound: a seed whose own pilot would have planned under the cap would
//! still get the next family's answer. On the repository benchmark's
//! ad-hoc shapes, and on a skewed table built to make pilots disagree,
//! no seed did.)
//! `tests/service.rs` pins the identity with a multi-threaded proptest
//! whose plans include a remembered shape, and checks that online's
//! winner share over many seeds is the session's.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use aqp_analyze::Analysis;
use aqp_engine::LogicalPlan;
use aqp_obs::metrics::MetricsRegistry;
use aqp_obs::names;
use aqp_storage::{Catalog, Table};

use crate::aggquery::AggQuery;
use crate::answer::{ApproximateAnswer, CandidateDecision, CandidateOutcome, RoutingDecision};
use crate::error::AqpError;
use crate::session::{AqpSession, Replay, SessionConfig};
use crate::spec::ErrorSpec;
use crate::technique::{DeclineReason, TechniqueKind};

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

/// Plan-cache entries kept (FIFO eviction).
const CACHE_CAPACITY: usize = 256;

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
    /// Machine-wide morsel-thread budget split across in-flight queries:
    /// an admitted query runs on the budget divided by the queries in
    /// flight at its grant, itself included, and never on fewer than 1.
    /// The share is kept until the query ends, so the threads in use can
    /// exceed the budget (three queries admitted one after another on 8
    /// run on 8 + 4 + 2).
    pub thread_budget: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let threads = aqp_engine::pool::default_threads();
        Self {
            max_inflight: threads.max(1),
            queue_capacity: 64,
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
    /// replaced table the plan reads.
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

/// How admission handled one executed query — attached to the answer's
/// report and rendered by `explain_analyze()`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionReport {
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
    /// Queries admitted.
    pub accepted: u64,
    /// Queries rejected by admission control.
    pub rejected: u64,
}

// ---- FIFO ticket scheduler -------------------------------------------------

/// The admission queue's state and limits. Its four transitions below
/// are the only way it changes; [`Scheduler`] runs them under
/// [`lock_state`] and owns the waiting, the gauges and the wakeups around
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SchedState {
    inflight: usize,
    queue: VecDeque<u64>,
    next_ticket: u64,
    max_inflight: usize,
    capacity: usize,
    /// The morsel threads the in-flight queries split.
    thread_budget: usize,
}

/// What an arrival got from [`SchedState::enter`].
enum Entered {
    /// A slot, at once, with its thread share: nothing is queued and a
    /// slot is free.
    Admitted(usize),
    /// A place at the back of the queue.
    Queued(u64),
    /// Nothing: the queue already holds `depth` tickets, its capacity.
    Full { depth: usize },
}

impl SchedState {
    fn new(max_inflight: usize, capacity: usize, thread_budget: usize) -> Self {
        Self {
            inflight: 0,
            queue: VecDeque::new(),
            next_ticket: 0,
            max_inflight: max_inflight.max(1),
            capacity,
            thread_budget: thread_budget.max(1),
        }
    }

    /// A grant's worker threads: the budget over the in-flight count, the
    /// grant's own slot included, floored at 1.
    fn share(&self) -> usize {
        (self.thread_budget / self.inflight.max(1)).max(1)
    }

    /// An arrival: it takes a free slot when no one is queued ahead of it,
    /// else a ticket when the queue has room.
    fn enter(&mut self) -> Entered {
        if self.queue.is_empty() && self.inflight < self.max_inflight {
            self.inflight += 1;
            return Entered::Admitted(self.share());
        }
        if self.queue.len() >= self.capacity {
            return Entered::Full {
                depth: self.queue.len(),
            };
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.queue.push_back(ticket);
        Entered::Queued(ticket)
    }

    /// The head ticket takes a free slot and its thread share; any other
    /// ticket keeps waiting.
    fn try_grant(&mut self, ticket: u64) -> Option<usize> {
        if self.queue.front() != Some(&ticket) || self.inflight >= self.max_inflight {
            return None;
        }
        self.queue.pop_front();
        self.inflight += 1;
        Some(self.share())
    }

    /// A ticket leaves the queue at its deadline.
    fn withdraw(&mut self, ticket: u64) {
        self.queue.retain(|&t| t != ticket);
    }

    /// An execution slot frees up.
    fn release(&mut self) {
        self.inflight = self.inflight.saturating_sub(1);
    }
}

/// Why [`Scheduler::admit`] let a query go without a slot.
#[derive(Debug)]
enum Turned {
    /// The queue was full on arrival.
    Full { depth: usize },
    /// The deadline passed while the ticket was queued, after `spent`.
    TimedOut { spent: Duration },
}

/// Fair (FIFO) admission: the head ticket acquires an execution slot as
/// soon as one frees up; everyone else waits behind it. Tickets abandoned
/// at their deadline remove themselves, so a slow head cannot strand the
/// queue. Every change to the queue is one of [`SchedState`]'s
/// transitions (`enter`, `try_grant`, `withdraw`, `release`), each followed
/// by the `notify_all` a waiter may need; `race::sched` in this module's
/// tests explores every interleaving of them. Built on std's `Condvar`
/// (the vendored `parking_lot` stand-in has no condition variables);
/// poisoning is recovered, which is sound because each transition leaves
/// the state valid.
#[derive(Debug)]
struct Scheduler {
    state: std::sync::Mutex<SchedState>,
    cv: std::sync::Condvar,
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

/// One execution slot and the morsel threads it was granted; dropping it
/// releases the slot.
#[derive(Debug)]
struct SchedGuard<'s> {
    sched: &'s Scheduler,
    threads: usize,
}

impl Drop for SchedGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.sched);
        st.release();
        self.sched.publish(&st);
        drop(st);
        self.sched.cv.notify_all();
    }
}

impl Scheduler {
    fn new(state: SchedState, metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            state: std::sync::Mutex::new(state),
            cv: std::sync::Condvar::new(),
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
    /// the time spent queued, or why the query got no slot: the queue was
    /// full, or the deadline passed first.
    fn admit(&self, deadline: Option<Instant>) -> Result<(SchedGuard<'_>, Duration), Turned> {
        let wait_start = Instant::now();
        let mut st = lock_state(self);
        let ticket = match st.enter() {
            Entered::Admitted(threads) => {
                self.publish(&st);
                return Ok((
                    SchedGuard {
                        sched: self,
                        threads,
                    },
                    Duration::ZERO,
                ));
            }
            Entered::Full { depth } => return Err(Turned::Full { depth }),
            Entered::Queued(ticket) => ticket,
        };
        self.publish(&st);
        let mut timed_out = false;
        loop {
            if let Some(threads) = st.try_grant(ticket) {
                self.publish(&st);
                drop(st);
                // More slots may remain for the next ticket in line.
                self.cv.notify_all();
                return Ok((
                    SchedGuard {
                        sched: self,
                        threads,
                    },
                    wait_start.elapsed(),
                ));
            }
            if timed_out {
                st.withdraw(ticket);
                self.publish(&st);
                drop(st);
                // The ticket behind this one may now be the head.
                self.cv.notify_all();
                return Err(Turned::TimedOut {
                    spent: wait_start.elapsed(),
                });
            }
            (st, timed_out) = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => (self.cv.wait(st).unwrap_or_else(|e| e.into_inner()), false),
                Some(remaining) if remaining.is_zero() => (st, true),
                Some(remaining) => {
                    let (st, result) =
                        (self.cv.wait_timeout(st, remaining)).unwrap_or_else(|e| e.into_inner());
                    (st, result.timed_out())
                }
            };
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

/// What a cache entry's contents were learned under: the session's
/// routing epoch and the identity of every table the plan reads, fact
/// and dimensions. A `Catalog::replace` installs a new `Arc<Table>`, so a
/// pointer comparison sees any change to a table's rows or values — and
/// it cannot be fooled by a new table reusing a freed address, because a
/// `Weak` keeps its allocation (never the column data) alive.
#[derive(Clone)]
struct Stamp {
    epoch: u64,
    /// `(name, table)`; `None` for a table missing from the catalog.
    tables: Vec<(String, Option<Weak<Table>>)>,
}

impl Stamp {
    /// The stamp of `query`'s tables as the catalog holds them now.
    fn capture(epoch: u64, catalog: &Catalog, query: &AggQuery) -> Self {
        let names =
            std::iter::once(&query.fact_table).chain(query.joins.iter().map(|j| &j.dim_table));
        let tables = names
            .map(|name| {
                (
                    name.clone(),
                    catalog.get(name).ok().map(|t| Arc::downgrade(&t)),
                )
            })
            .collect();
        Self { epoch, tables }
    }

    /// Whether the session is still at the stamped epoch and its catalog
    /// still holds exactly the stamped tables.
    fn is_current(&self, epoch: u64, catalog: &Catalog) -> bool {
        self.epoch == epoch
            && self.tables.iter().all(|(name, table)| {
                let now = catalog.get(name).ok();
                match (table, &now) {
                    (Some(then), Some(now)) => std::ptr::eq(then.as_ptr(), Arc::as_ptr(now)),
                    (None, None) => true,
                    _ => false,
                }
            })
    }
}

/// One memoized routing decision. Valid only while its [`Stamp`] is
/// current: the session's routing epoch and the plan's tables are still
/// the ones it was learned under.
#[derive(Clone)]
struct CacheEntry {
    /// Which insert made this entry: a result is folded back only into
    /// the entry its query was prepared from, so a query that outlived
    /// its entry cannot write what it learned under the old stamp into
    /// the successor.
    serial: u64,
    analysis: Arc<Analysis>,
    /// Routing template with walls zeroed; refreshed from each completed
    /// run so it reflects runtime declines, not just static verdicts. When
    /// online is [`CandidateOutcome::Remembered`] in it (see
    /// [`AqpService::record_result`]), later runs skip online's pilot.
    decision: Arc<RoutingDecision>,
    stamp: Stamp,
    /// Exponentially weighted answer wall (µs); 0 = no sample yet.
    ewma_wall_us: f64,
    /// Some run of this entry attempted online and did not decline
    /// decisively: it answered, or declined in doubt. Such a shape's
    /// declines depend on the seed, and it never remembers one.
    mixed: bool,
}

/// Online's pilot in a routing pass declined decisively: the required
/// rate is over the cap even at the optimistic end of the planner's
/// band. An empty pilot, or a decline whose optimistic rate fits under
/// the cap, is in doubt.
fn decisive_decline(routing: &RoutingDecision) -> Option<&DeclineReason> {
    match routing.outcome(TechniqueKind::OnlineSampling)? {
        CandidateOutcome::DeclinedAtRuntime(
            reason @ DeclineReason::RateAboveCap {
                optimistic, cap, ..
            },
        ) if optimistic > cap => Some(reason),
        _ => None,
    }
}

/// The decline a routing template remembers for online sampling.
fn remembered_decline(template: &RoutingDecision) -> Option<&DeclineReason> {
    match template.outcome(TechniqueKind::OnlineSampling)? {
        CandidateOutcome::Remembered(reason) => Some(reason),
        _ => None,
    }
}

/// The plan cache's state. Its three transitions below are the only way
/// it changes; [`PlanCache`] runs them under its lock.
#[derive(Clone)]
struct CacheInner {
    map: HashMap<u64, CacheEntry>,
    /// Resident fingerprints, oldest insert first; each appears once.
    order: VecDeque<u64>,
    /// Inserts so far: the next entry's serial.
    inserts: u64,
}

impl CacheInner {
    /// The entry for `fp` if `is_current` accepts its stamp, else
    /// [`CacheEvent::Stale`] (the entry is removed) or [`CacheEvent::Miss`].
    fn lookup(
        &mut self,
        fp: u64,
        is_current: impl FnOnce(&Stamp) -> bool,
    ) -> Result<&CacheEntry, CacheEvent> {
        match self.map.entry(fp) {
            Entry::Occupied(e) if is_current(&e.get().stamp) => Ok(e.into_mut()),
            Entry::Occupied(e) => {
                e.remove();
                self.order.retain(|&k| k != fp);
                Err(CacheEvent::Stale)
            }
            Entry::Vacant(_) => Err(CacheEvent::Miss),
        }
    }

    /// Installs a fresh entry under `fp` with the next serial, replacing
    /// any entry `fp` had and evicting the oldest entries past `capacity`.
    /// Returns the serial and how many entries were evicted.
    fn insert(
        &mut self,
        fp: u64,
        analysis: Arc<Analysis>,
        decision: Arc<RoutingDecision>,
        stamp: Stamp,
        capacity: usize,
    ) -> (u64, usize) {
        if self.map.remove(&fp).is_some() {
            self.order.retain(|&k| k != fp);
        }
        let mut evicted = 0;
        while self.map.len() >= capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        let serial = self.inserts;
        self.inserts += 1;
        let entry = CacheEntry {
            serial,
            analysis,
            decision,
            stamp,
            ewma_wall_us: 0.0,
            mixed: false,
        };
        self.map.insert(fp, entry);
        self.order.push_back(fp);
        (serial, evicted)
    }

    /// The entry a query prepared from entry `serial` of `fp` may fold its
    /// result into: that entry, if it is still resident.
    fn entry_mut(&mut self, fp: u64, serial: u64) -> Option<&mut CacheEntry> {
        self.map.get_mut(&fp).filter(|e| e.serial == serial)
    }
}

/// Memoized routing per plan fingerprint, FIFO-evicted at `capacity`.
/// Every change is one of [`CacheInner`]'s transitions (`lookup`,
/// `insert`, `entry_mut`) under `inner`; `race::cache` in this module's
/// tests explores every interleaving of them against epoch bumps.
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
                inserts: 0,
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

/// A hash of the plan tree plus the spec bits: equal plans collide,
/// different plans or different specs (which change runtime declines and
/// the wall estimate) do not.
fn fingerprint(plan: &LogicalPlan, spec: &ErrorSpec) -> u64 {
    let mut h = DefaultHasher::new();
    plan.hash(&mut h);
    spec.relative_error.to_bits().hash(&mut h);
    spec.confidence.to_bits().hash(&mut h);
    h.finish()
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
    /// The cache entry this query routes on; `None` for an uncacheable
    /// plan.
    cached: Option<Cached>,
    event: CacheEvent,
}

/// A cache entry as one query prepared from it.
struct Cached {
    /// The entry's fingerprint and serial, where the result folds back.
    fp: u64,
    serial: u64,
    /// The memoized route.
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
            sched: Scheduler::new(
                SchedState::new(
                    config.max_inflight,
                    config.queue_capacity,
                    config.thread_budget,
                ),
                Arc::clone(session.metrics()),
            ),
            cache: PlanCache::new(CACHE_CAPACITY),
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
            rejected: admitted("rejected"),
        }
    }

    /// The session's metrics registry, which the service's own series
    /// (admission, plan cache, queue) share.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.session.metrics()
    }

    /// Drops every plan-cache entry, remembered declines included: the
    /// next submit of each shape lints and pilots afresh (benchmarks use
    /// this to time the cold path honestly).
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
        match prep.cached {
            Some(cached) => cached.decision,
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
        let estimated_wall = prep.cached.as_ref().and_then(|c| c.estimated_wall);
        if let (Some(deadline), Some(estimate)) = (contract.deadline, estimated_wall) {
            if estimate > deadline {
                return Ok(self.reject(Rejection::DeadlineUnmeetable { deadline, estimate }));
            }
        }

        // ---- Scheduling ----
        let deadline_at = contract.deadline.map(|d| arrived + d);
        let (guard, queue_wait) = match self.sched.admit(deadline_at) {
            Ok(admitted) => admitted,
            Err(Turned::Full { depth }) => {
                return Ok(self.reject(Rejection::QueueFull {
                    depth,
                    capacity: self.config.queue_capacity,
                }))
            }
            // Only a contract deadline times a ticket out.
            Err(Turned::TimedOut { spent }) => {
                return Ok(self.reject(Rejection::DeadlineUnmeetable {
                    deadline: contract.deadline.unwrap_or(spent),
                    estimate: spent,
                }))
            }
        };
        self.metrics()
            .histogram(
                names::SERVICE_QUEUE_WAIT_US,
                aqp_obs::metrics::LATENCY_US_BOUNDS,
            )
            .observe(queue_wait.as_secs_f64() * 1e6);

        // ---- Execution (on the grant's thread share) ----
        let replay = Replay {
            analysis: Some(Arc::clone(&prep.analysis)),
            threads: Some(guard.threads),
            online_decline: (prep.cached.as_ref())
                .and_then(|c| remembered_decline(&c.decision).cloned()),
        };
        let mut ans = self.session.answer_with(plan, &spec, seed, replay)?;
        drop(guard);

        // ---- Bookkeeping ----
        if let Some(cached) = &prep.cached {
            self.record_result(cached.fp, cached.serial, &ans);
        }
        self.count_admission("accepted");
        ans.report.admission = Some(Box::new(AdmissionReport {
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

    /// Cache lookup / fill: on a hit, returns the memoized analysis and
    /// route; on a miss or stale entry, lints, decides, and inserts.
    ///
    /// The hit path deliberately runs *before* plan normalization: a
    /// fingerprint probe plus one catalog read per table the plan reads
    /// is the entire cost of a warm routing decision.
    fn prepare(&self, plan: &LogicalPlan, spec: &ErrorSpec) -> Prepared {
        let fp = fingerprint(plan, spec);
        let epoch = self.session.routing_epoch();
        let catalog = self.session.catalog();
        let event = match self
            .cache
            .inner
            .lock()
            .lookup(fp, |stamp| stamp.is_current(epoch, catalog))
        {
            Ok(entry) => {
                return Prepared {
                    analysis: Arc::clone(&entry.analysis),
                    cached: Some(Cached {
                        fp,
                        serial: entry.serial,
                        decision: Arc::clone(&entry.decision),
                        estimated_wall: (entry.ewma_wall_us > 0.0)
                            .then(|| Duration::from_micros(entry.ewma_wall_us as u64)),
                    }),
                    event: CacheEvent::Hit,
                }
            }
            Err(event) => event,
        };
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
                cached: None,
                event: CacheEvent::Uncacheable,
            };
        };
        let stamp = Stamp::capture(epoch, self.session.catalog(), &query);
        // Miss path: lint outside the cache lock (it is metadata-only and
        // contention here would serialize every cold query).
        let analysis = Arc::new(aqp_analyze::lint_with(
            plan,
            Some(&query),
            &self.session.lint_context(),
        ));
        let decision = Arc::new(self.session.decide(&analysis));
        let (serial, evicted) = self.cache.inner.lock().insert(
            fp,
            Arc::clone(&analysis),
            Arc::clone(&decision),
            stamp,
            self.cache.capacity,
        );
        if evicted > 0 {
            self.metrics()
                .counter_labeled(
                    names::PLAN_CACHE_TOTAL,
                    names::PLAN_CACHE_EVENT_LABEL,
                    "evicted",
                )
                .inc(evicted as u64);
        }
        Prepared {
            analysis,
            cached: Some(Cached {
                fp,
                serial,
                decision,
                estimated_wall: None,
            }),
            event,
        }
    }

    /// Folds one completed answer back into the cache entry it was
    /// prepared from: the wall EWMA for deadline estimates and the
    /// realized routing template (which — unlike the verdict-only
    /// template — records runtime declines). Online's decline becomes
    /// [`CandidateOutcome::Remembered`] in the template once two of the
    /// entry's pilots declined decisively with different readings (two
    /// samples, not one seed submitted twice) and none of its pilots did
    /// anything else; a remembered run keeps it. An answer prepared from
    /// an entry that has since been replaced is dropped: what it learned
    /// may be about data the replacement no longer describes.
    fn record_result(&self, fp: u64, serial: u64, ans: &ApproximateAnswer) {
        let mut inner = self.cache.inner.lock();
        let Some(entry) = inner.entry_mut(fp, serial) else {
            return;
        };
        let wall_us = ans.report.wall.as_secs_f64() * 1e6;
        entry.ewma_wall_us = if entry.ewma_wall_us > 0.0 {
            0.7 * entry.ewma_wall_us + 0.3 * wall_us
        } else {
            wall_us
        };
        if let Some(routing) = &ans.report.routing {
            let mut template = zeroed_walls(routing);
            let now = decisive_decline(routing);
            let piloted = matches!(
                routing.outcome(TechniqueKind::OnlineSampling),
                Some(CandidateOutcome::Chosen | CandidateOutcome::DeclinedAtRuntime(_))
            );
            entry.mixed |= piloted && now.is_none();
            // A second decisive pilot with a reading of its own confirms
            // the decline; once remembered, a decisive pilot keeps it so.
            let confirmed = |now: &&DeclineReason| {
                remembered_decline(&entry.decision).is_some()
                    || decisive_decline(&entry.decision).is_some_and(|e| e != *now)
            };
            let online =
                (template.candidates.iter_mut()).find(|c| c.kind == TechniqueKind::OnlineSampling);
            let remembered = now.filter(confirmed).filter(|_| !entry.mixed);
            if let (Some(now), Some(online)) = (remembered, online) {
                online.outcome = CandidateOutcome::Remembered(now.clone());
            }
            entry.decision = Arc::new(template);
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

    /// Every plan and expression variant enters the fingerprint: plans
    /// that differ in one variant's field, or in which variant sits at one
    /// place, key different entries.
    #[test]
    fn fingerprint_covers_every_plan_and_expression_variant() {
        use aqp_engine::{AggExpr, LogicalPlan, Query, SortKey};
        use aqp_expr::{col, lit, Expr};
        let filtered = |predicate: Expr| Query::scan("t").filter(predicate).build();
        let joined = |key: &str| {
            let dim = Query::scan("d");
            Query::scan("t").join(dim, col(key), col("k")).build()
        };
        let projected = |name: &str| {
            let exprs = vec![(col("v").add(lit(1i64)), name.to_string())];
            Query::scan("t").project(exprs).build()
        };
        let grouped = |group: &str, agg: AggExpr| {
            let group_by = vec![(col(group), group.to_string())];
            Query::scan("t").aggregate(group_by, vec![agg]).build()
        };
        let plans: Vec<LogicalPlan> = vec![
            Query::scan("t").build(),
            filtered(col("b")),
            filtered(col("b").not()),
            filtered(col("v").is_null()),
            filtered(col("v").hash64().eq(lit(0i64))),
            filtered(col("v").hash64().gt_eq(lit(0i64))),
            filtered(col("v").lt(lit(aqp_storage::Value::Null))),
            filtered(col("s").eq(lit("a"))),
            filtered(col("b").eq(lit(true))),
            joined("fk"),
            joined("fk2"),
            projected("w"),
            projected("x"),
            grouped("g", AggExpr::sum(col("v"), "a")),
            grouped("g", AggExpr::avg(col("v"), "a")),
            grouped("h", AggExpr::sum(col("v"), "a")),
            Query::scan("t").sort(vec![SortKey::asc("v")]).build(),
            Query::scan("t").sort(vec![SortKey::desc("v")]).build(),
            Query::scan("t").limit(5).build(),
            Query::scan("t").limit(6).build(),
            Query::scan("t").union_all(Query::scan("t")).build(),
        ];
        let spec = ErrorSpec::new(0.05, 0.95);
        let fps: std::collections::HashSet<u64> =
            plans.iter().map(|p| fingerprint(p, &spec)).collect();
        assert_eq!(fps.len(), plans.len());
    }

    proptest::proptest! {
        /// The fingerprint follows plan identity: two plans drawn from one
        /// small space share a fingerprint exactly when they are the same
        /// plan, a float literal compared by its bits.
        #[test]
        fn fingerprint_follows_plan_identity(
            a in (0u8..2, 0u8..5, 0u8..2, proptest::prelude::any::<bool>()),
            b in (0u8..2, 0u8..5, 0u8..2, proptest::prelude::any::<bool>()),
        ) {
            use aqp_engine::{AggExpr, Query, SortKey};
            use aqp_expr::{col, lit};
            let plan = |(table, bound, alias, desc): (u8, u8, u8, bool)| {
                let bound = [lit(1i64), lit(2i64), lit(1.0), lit(0.0), lit(-0.0)][usize::from(bound)].clone();
                let key = if desc { SortKey::desc("g") } else { SortKey::asc("g") };
                Query::scan(["t", "u"][usize::from(table)])
                    .filter(col("v").lt(bound))
                    .aggregate(
                        vec![(col("g"), "g".to_string())],
                        vec![AggExpr::sum(col("v"), ["s", "x"][usize::from(alias)])],
                    )
                    .sort(vec![key])
                    .build()
            };
            let spec = ErrorSpec::new(0.05, 0.95);
            let same = fingerprint(&plan(a), &spec) == fingerprint(&plan(b), &spec);
            proptest::prop_assert_eq!(same, a == b);
        }
    }

    /// A query prepared before an epoch bump finishes after its plan was
    /// re-prepared: its result — a decisive decline learned under the old
    /// stamp — must not land in the entry that replaced its own.
    #[test]
    fn a_superseded_query_leaves_its_successor_entry_alone() {
        use aqp_engine::{AggExpr, Query};
        use aqp_expr::{col, lit};
        use aqp_workload::{build_star_schema, StarScale};
        let catalog = Catalog::new();
        let scale = StarScale {
            orders: 4_000,
            ..StarScale::tiny()
        };
        build_star_schema(&catalog, &scale, 23).unwrap();
        let plan = Query::scan("lineitem")
            .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
            .filter(col("l_sel").lt(lit(0.8)))
            .aggregate(
                vec![(col("o_priority"), "priority".to_string())],
                vec![AggExpr::sum(col("l_price"), "s")],
            )
            .build();
        let spec = ErrorSpec::new(0.002, 0.95);
        let service = AqpService::new(&catalog);

        let old = service.prepare(&plan, &spec);
        assert_eq!(old.event, CacheEvent::Miss);
        service.session().maintain_synopses("lineitem", 0).unwrap();
        let new = service.prepare(&plan, &spec);
        assert_eq!(new.event, CacheEvent::Stale);
        let ans = service.session().answer(&plan, &spec, 1).unwrap();
        let routing = ans.report.routing.as_ref().unwrap();
        assert!(decisive_decline(routing).is_some(), "setup: {routing:?}");

        let entry_state = || {
            let inner = service.cache.inner.lock();
            let entry = &inner.map[&fingerprint(&plan, &spec)];
            (
                entry.ewma_wall_us,
                decisive_decline(&entry.decision).cloned(),
                Arc::clone(&entry.decision),
            )
        };
        let (old, new) = (old.cached.unwrap(), new.cached.unwrap());
        service.record_result(old.fp, old.serial, &ans);
        let (ewma, decline, decision) = entry_state();
        assert_eq!((ewma, decline), (0.0, None));
        assert!(Arc::ptr_eq(&decision, &new.decision));

        // The same result prepared from the current entry is folded in.
        service.record_result(new.fp, new.serial, &ans);
        let (ewma, decline, _) = entry_state();
        assert!(ewma > 0.0);
        assert_eq!(decline.as_ref(), decisive_decline(routing));
    }

    #[test]
    fn scheduler_rejects_when_queue_full() {
        let sched = Scheduler::new(SchedState::new(1, 0, 1), Arc::default());
        let (guard, wait) = sched.admit(None).expect("first admit");
        assert_eq!(wait, Duration::ZERO);
        match sched.admit(None) {
            Err(Turned::Full { depth: 0 }) => {}
            other => panic!("expected a full queue, got {other:?}"),
        }
        drop(guard);
        let (_g, _) = sched.admit(None).expect("slot freed");
    }

    #[test]
    fn scheduler_is_fifo_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sched = Scheduler::new(SchedState::new(1, 16, 1), Arc::default());
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
        let sched = Scheduler::new(SchedState::new(1, 16, 1), Arc::default());
        let guard = sched.admit(None).expect("head slot");
        let deadline = Instant::now() + Duration::from_millis(20);
        match sched.admit(Some(deadline)) {
            Err(Turned::TimedOut { .. }) => {}
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert_eq!(sched.queue_depth(), 0, "abandoned ticket removed");
        drop(guard);
    }

    /// A grant's thread share is the budget over the queries in flight,
    /// its own included, and never drops below one worker.
    #[test]
    fn grants_split_the_thread_budget_over_the_queries_in_flight() {
        let sched = Scheduler::new(SchedState::new(3, 0, 8), Arc::default());
        let a = sched.admit(None).expect("first slot").0;
        let b = sched.admit(None).expect("second slot").0;
        let c = sched.admit(None).expect("third slot").0;
        assert_eq!((a.threads, b.threads, c.threads), (8, 4, 2));
        drop(b);
        let d = sched.admit(None).expect("freed slot").0;
        assert_eq!(d.threads, 2);
        drop((a, c, d));
        assert_eq!(sched.admit(None).expect("idle").0.threads, 8);

        let sched = Scheduler::new(SchedState::new(5, 0, 2), Arc::default());
        let guards: Vec<_> = (0..5).map(|_| sched.admit(None).expect("slot").0).collect();
        assert_eq!(guards.last().map(|g| g.threads), Some(1));
    }

    /// A budget of zero threads still grants every query one.
    #[test]
    fn a_zero_thread_budget_still_grants_one_thread() {
        let sched = Scheduler::new(SchedState::new(2, 0, 0), Arc::default());
        let a = sched.admit(None).expect("first slot").0;
        let b = sched.admit(None).expect("second slot").0;
        assert_eq!((a.threads, b.threads), (1, 1));
    }

    /// A queued ticket's share is read when it is granted, counting the
    /// queries in flight then, its own slot included.
    #[test]
    fn a_queued_grant_takes_the_share_at_its_grant() {
        let sched = Scheduler::new(SchedState::new(2, 4, 4), Arc::default());
        let first = sched.admit(None).expect("first slot").0;
        let second = sched.admit(None).expect("second slot").0;
        assert_eq!((first.threads, second.threads), (4, 2));
        std::thread::scope(|s| {
            let queued = s.spawn(|| sched.admit(None).expect("queued slot").0.threads);
            while sched.queue_depth() == 0 {
                std::thread::yield_now();
            }
            drop(first);
            assert_eq!(queued.join().unwrap(), 2);
        });
        drop(second);
        assert_eq!(sched.inflight(), 0);
    }
}

/// Every interleaving of the scheduler's and the plan cache's real
/// transitions, explored by [`aqp_conformance::explore`]. A harness state
/// is the shipped state (`SchedState`, `CacheInner`) plus what each model
/// thread is doing, and every change to the shipped state is one of its
/// transitions, called as `admit`, `SchedGuard::drop`, `prepare` and
/// `record_result` call them under their locks. A condvar wait is a woken
/// flag per waiter, which `notify_all` sets. Each mutant swaps out one
/// transition or one notify, and a test shows the invariants catch it.
#[cfg(test)]
mod race {
    use super::*;
    use aqp_conformance::{explore, Explored, Model};

    /// Explores `init` to the end.
    fn run<M: Model>(init: M) -> Explored {
        let r = explore(init, 1_000_000);
        assert!(!r.truncated);
        r
    }

    fn assert_clean(r: &Explored) {
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(
            r.terminal_states > 0 && r.states >= 1_000,
            "{} states",
            r.states
        );
    }

    fn assert_caught(r: &Explored, classes: &[&str]) {
        let caught = |v: &String| classes.iter().any(|c| v.contains(c));
        assert!(
            r.violations.iter().any(caught),
            "{classes:?}: {:?}",
            r.violations
        );
    }

    mod sched {
        use super::*;

        /// One scheduler transition or notify swapped for a broken one.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub(super) enum Mutant {
            /// `notify_one` for `notify_all`: one parked waiter, chosen
            /// adversarially, wakes.
            NotifyOne,
            /// The grant serves the back of the queue.
            LifoGrant,
            /// The release keeps the slot counted.
            ForgetDecrement,
            /// The grant skips the free-slot check.
            SkipRecheck,
            /// The idle fast path skips the empty-queue check.
            FastPathJumpsQueue,
            /// The withdrawal leaves the ticket queued.
            WithdrawKeepsTicket,
            /// The grant reads its thread share before counting its own
            /// slot.
            ShareBeforeIncrement,
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum Phase {
            Start,
            /// Queued as the `arrival`-th arrival; parked on the condvar
            /// until `woken`.
            Waiting {
                arrival: u8,
                ticket: u64,
                woken: bool,
            },
            Executing,
            Done,
        }

        /// Two threads more than slots, of two admissions each, so some
        /// always queue; thread 0 carries a deadline, so while queued it
        /// may time out at any step.
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        pub(super) struct Sched {
            st: SchedState,
            threads: Vec<Phase>,
            rounds_left: Vec<u8>,
            arrivals: u8,
            last_grant: Option<u8>,
            /// `(earlier, later)` arrivals, the later granted first.
            inversion: Option<(u8, u8)>,
            /// An arrival was turned away with nothing queued and a slot
            /// free.
            idle_refusal: bool,
            /// `(share, running)`: a grant's thread share is not the
            /// budget over the `running` queries, itself included.
            bad_share: Option<(usize, usize)>,
            mutant: Option<Mutant>,
        }

        /// The thread budget: over two slots, a grant's share is 4 or 2.
        const BUDGET: usize = 4;

        impl Sched {
            pub(super) fn new(slots: usize, capacity: usize, mutant: Option<Mutant>) -> Self {
                Self {
                    st: SchedState::new(slots, capacity, BUDGET),
                    threads: vec![Phase::Start; slots + 2],
                    rounds_left: vec![2; slots + 2],
                    arrivals: 0,
                    last_grant: None,
                    inversion: None,
                    idle_refusal: false,
                    bad_share: None,
                    mutant,
                }
            }

            fn enter(&mut self) -> Entered {
                let st = &mut self.st;
                let early = st.share();
                match self.mutant {
                    Some(Mutant::FastPathJumpsQueue) if st.inflight < st.max_inflight => {
                        st.inflight += 1;
                        Entered::Admitted(st.share())
                    }
                    Some(Mutant::ShareBeforeIncrement) => match st.enter() {
                        Entered::Admitted(_) => Entered::Admitted(early),
                        other => other,
                    },
                    _ => st.enter(),
                }
            }

            fn try_grant(&mut self, ticket: u64) -> Option<usize> {
                let (st, mine) = (&mut self.st, Some(&ticket));
                let early = st.share();
                let granted = match self.mutant {
                    Some(Mutant::LifoGrant) => {
                        st.inflight < st.max_inflight
                            && st.queue.back() == mine
                            && st.queue.pop_back().is_some()
                    }
                    Some(Mutant::SkipRecheck) => {
                        st.queue.front() == mine && st.queue.pop_front().is_some()
                    }
                    Some(Mutant::ShareBeforeIncrement) => {
                        return st.try_grant(ticket).map(|_| early)
                    }
                    _ => return st.try_grant(ticket),
                };
                st.inflight += usize::from(granted);
                granted.then(|| st.share())
            }

            /// The states after a `notify_all`: every parked waiter woken,
            /// or under `NotifyOne` one state per waiter it might wake.
            fn notify_all(self) -> Vec<Self> {
                let parked: Vec<usize> = (0..self.threads.len())
                    .filter(|&t| matches!(self.threads[t], Phase::Waiting { woken: false, .. }))
                    .collect();
                let wake = |mut s: Self, ts: &[usize]| {
                    for &t in ts {
                        if let Phase::Waiting { woken, .. } = &mut s.threads[t] {
                            *woken = true;
                        }
                    }
                    s
                };
                if self.mutant != Some(Mutant::NotifyOne) || parked.is_empty() {
                    return vec![wake(self, &parked)];
                }
                parked.iter().map(|&t| wake(self.clone(), &[t])).collect()
            }

            fn grant(&mut self, t: usize, arrival: u8, share: usize) {
                if let Some(last) = self.last_grant.filter(|&last| last > arrival) {
                    self.inversion.get_or_insert((arrival, last));
                }
                self.last_grant = Some(arrival);
                self.threads[t] = Phase::Executing;
                let running = self.threads.iter().filter(|p| **p == Phase::Executing);
                let running = running.count();
                if share != (BUDGET / running).max(1) {
                    self.bad_share.get_or_insert((share, running));
                }
            }

            fn finish_round(&mut self, t: usize) {
                self.rounds_left[t] -= 1;
                let done = self.rounds_left[t] == 0;
                self.threads[t] = if done { Phase::Done } else { Phase::Start };
            }

            /// One pass of `admit`'s loop for thread `t`'s queued ticket,
            /// after a wake or, with `timed_out`, a timed-out wait.
            fn recheck(mut self, t: usize, arrival: u8, ticket: u64, timed_out: bool) -> Vec<Self> {
                if let Some(share) = self.try_grant(ticket) {
                    self.grant(t, arrival, share);
                    self.notify_all()
                } else if timed_out {
                    if self.mutant != Some(Mutant::WithdrawKeepsTicket) {
                        self.st.withdraw(ticket);
                    }
                    self.finish_round(t);
                    self.notify_all()
                } else {
                    let parked = Phase::Waiting {
                        arrival,
                        ticket,
                        woken: false,
                    };
                    self.threads[t] = parked;
                    vec![self]
                }
            }

            fn step(&self, t: usize) -> Vec<Self> {
                let mut s = self.clone();
                match self.threads[t] {
                    Phase::Start => {
                        let arrival = s.arrivals;
                        s.arrivals += 1;
                        let idle = s.st.queue.is_empty() && s.st.inflight < s.st.max_inflight;
                        match s.enter() {
                            Entered::Admitted(share) => s.grant(t, arrival, share),
                            Entered::Full { .. } => {
                                s.idle_refusal |= idle;
                                s.finish_round(t);
                            }
                            Entered::Queued(ticket) => return s.recheck(t, arrival, ticket, false),
                        }
                        vec![s]
                    }
                    Phase::Waiting {
                        arrival,
                        ticket,
                        woken,
                    } => {
                        let mut out = Vec::new();
                        if woken {
                            out.extend(s.clone().recheck(t, arrival, ticket, false));
                        }
                        if t == 0 {
                            out.extend(s.recheck(t, arrival, ticket, true));
                        }
                        out
                    }
                    Phase::Executing => {
                        if self.mutant != Some(Mutant::ForgetDecrement) {
                            s.st.release();
                        }
                        s.finish_round(t);
                        s.notify_all()
                    }
                    Phase::Done => Vec::new(),
                }
            }
        }

        impl Model for Sched {
            fn successors(&self) -> Vec<Self> {
                (0..self.threads.len()).flat_map(|t| self.step(t)).collect()
            }

            fn is_terminal(&self) -> bool {
                self.threads.iter().all(|p| *p == Phase::Done)
            }

            fn invariant(&self) -> Result<(), String> {
                let (st, threads) = (&self.st, &self.threads);
                let executing = threads.iter().filter(|p| **p == Phase::Executing).count();
                let mut waiting: Vec<u64> = (threads.iter())
                    .filter_map(|p| match p {
                        Phase::Waiting { ticket, .. } => Some(*ticket),
                        _ => None,
                    })
                    .collect();
                waiting.sort_unstable();
                if st.inflight > st.max_inflight {
                    Err(format!("inflight cap breached: {}", st.inflight))
                } else if st.inflight != executing {
                    Err(format!("inflight accounting drift: {executing} running"))
                } else if let Some((share, running)) = self.bad_share {
                    Err(format!("thread share {share} with {running} running"))
                } else if st.queue.len() > st.capacity {
                    Err(format!("queue over capacity: {:?}", st.queue))
                } else if let Some((earlier, later)) = self.inversion {
                    Err(format!("FIFO inversion: {later} granted before {earlier}"))
                } else if !st.queue.iter().eq(&waiting) {
                    Err(format!("orphaned ticket: waiters hold {waiting:?}"))
                } else if self.idle_refusal {
                    Err("an idle scheduler turned an arrival away".into())
                } else {
                    Ok(())
                }
            }
        }
    }

    mod cache {
        use super::*;
        use std::hash::{Hash, Hasher};

        /// The one fingerprint every reader prepares.
        const FP: u64 = 7;

        /// One plan-cache transition swapped for a broken one.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub(super) enum Mutant {
            /// The insert stamps the epoch current at insert, not the one
            /// read before planning.
            StampCurrentEpoch,
            /// The lookup serves an entry without checking its stamp.
            NoEpochCheck,
            /// The result's entry access ignores the serial.
            IgnoreSerial,
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum Reader {
            Start,
            /// Missed at the epoch it holds; about to read routing state.
            Computing(u64),
            /// Missed at `.0` and planned from routing-state version `.1`;
            /// about to insert.
            Computed(u64, u64),
            /// Prepared from the entry with this serial; about to record
            /// the result.
            Prepared(u64),
            Done,
        }

        /// Two readers of two `prepare`s each, beside a writer that bumps
        /// the routing epoch twice.
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct Threads {
            readers: Vec<Reader>,
            rounds_left: Vec<u8>,
            /// The routing epoch; the routing state's version moves with it.
            epoch: u64,
            bumps_left: u8,
            /// `(observed epoch, version served)`.
            stale_serve: Option<(u64, u64)>,
            /// `(serial prepared from, serial landed in)`.
            misplaced: Option<(u64, u64)>,
            mutant: Option<Mutant>,
        }

        #[derive(Clone)]
        pub(super) struct Cache {
            inner: CacheInner,
            t: Threads,
        }

        /// The routing-state version an entry's plan was computed from,
        /// kept in a field the protocol never reads.
        fn version(e: &CacheEntry) -> u64 {
            (e.analysis.group_cardinality_hint).expect("every harness plan carries its version")
        }

        impl Cache {
            pub(super) fn new(mutant: Option<Mutant>) -> Self {
                let t = Threads {
                    readers: vec![Reader::Start; 2],
                    rounds_left: vec![2; 2],
                    epoch: 0,
                    bumps_left: 2,
                    stale_serve: None,
                    misplaced: None,
                    mutant,
                };
                let inner = PlanCache::new(CACHE_CAPACITY).inner.into_inner();
                Self { inner, t }
            }

            /// All of the cache its future depends on.
            fn resident(&self) -> (Vec<[u64; 4]>, &VecDeque<u64>, u64) {
                let mut entries: Vec<_> = (self.inner.map.iter())
                    .map(|(&fp, e)| [fp, e.serial, e.stamp.epoch, version(e)])
                    .collect();
                entries.sort_unstable();
                (entries, &self.inner.order, self.inner.inserts)
            }

            fn step(&self, r: usize) -> Option<Self> {
                let mut s = self.clone();
                let (t, inner) = (&mut s.t, &mut s.inner);
                t.readers[r] = match t.readers[r] {
                    Reader::Start => {
                        let observed = t.epoch;
                        let no_check = t.mutant == Some(Mutant::NoEpochCheck);
                        let catalog = Catalog::new();
                        let current = |s: &Stamp| no_check || s.is_current(observed, &catalog);
                        match inner.lookup(FP, current) {
                            Ok(entry) => {
                                if version(entry) != observed {
                                    t.stale_serve = Some((observed, version(entry)));
                                }
                                Reader::Prepared(entry.serial)
                            }
                            Err(_) => Reader::Computing(observed),
                        }
                    }
                    Reader::Computing(observed) => Reader::Computed(observed, t.epoch),
                    Reader::Computed(observed, data) => {
                        let analysis = Analysis {
                            diagnostics: Vec::new(),
                            verdicts: Vec::new(),
                            normalized: true,
                            group_cardinality_hint: Some(data),
                        };
                        let decision = RoutingDecision {
                            candidates: Vec::new(),
                            winner: TechniqueKind::Exact,
                        };
                        let stale_stamp = t.mutant == Some(Mutant::StampCurrentEpoch);
                        let epoch = if stale_stamp { t.epoch } else { observed };
                        let stamp = Stamp {
                            epoch,
                            tables: Vec::new(),
                        };
                        let (analysis, decision) = (Arc::new(analysis), Arc::new(decision));
                        let serial = inner
                            .insert(FP, analysis, decision, stamp, CACHE_CAPACITY)
                            .0;
                        Reader::Prepared(serial)
                    }
                    Reader::Prepared(serial) => {
                        let landed = match t.mutant {
                            Some(Mutant::IgnoreSerial) => inner.map.get_mut(&FP),
                            _ => inner.entry_mut(FP, serial),
                        };
                        if let Some(entry) = landed.filter(|e| e.serial != serial) {
                            t.misplaced = Some((serial, entry.serial));
                        }
                        t.rounds_left[r] -= 1;
                        if t.rounds_left[r] == 0 {
                            Reader::Done
                        } else {
                            Reader::Start
                        }
                    }
                    Reader::Done => return None,
                };
                Some(s)
            }
        }

        impl PartialEq for Cache {
            fn eq(&self, other: &Self) -> bool {
                self.t == other.t && self.resident() == other.resident()
            }
        }

        impl Eq for Cache {}

        impl Hash for Cache {
            fn hash<H: Hasher>(&self, h: &mut H) {
                self.t.hash(h);
                self.resident().hash(h);
            }
        }

        impl Model for Cache {
            fn successors(&self) -> Vec<Self> {
                let mut out: Vec<Self> = (0..2).filter_map(|r| self.step(r)).collect();
                if self.t.bumps_left > 0 {
                    // A synopsis build, maintenance or quarantine change: the
                    // routing state and the epoch move together.
                    let mut s = self.clone();
                    s.t.epoch += 1;
                    s.t.bumps_left -= 1;
                    out.push(s);
                }
                out
            }

            fn is_terminal(&self) -> bool {
                self.t.readers.iter().all(|r| *r == Reader::Done)
            }

            fn invariant(&self) -> Result<(), String> {
                let mut order: Vec<u64> = self.inner.order.iter().copied().collect();
                let mut keys: Vec<u64> = self.inner.map.keys().copied().collect();
                order.sort_unstable();
                keys.sort_unstable();
                if let Some((observed, served)) = self.t.stale_serve {
                    Err(format!(
                        "stale serve after epoch bump: a reader at epoch {observed} was served \
                         a plan from routing-state version {served}"
                    ))
                } else if let Some((from, into)) = self.t.misplaced {
                    Err(format!(
                        "result misplaced: prepared from entry {from}, landed in {into}"
                    ))
                } else if order != keys {
                    Err(format!(
                        "eviction order {:?} is not the entries",
                        self.inner.order
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    use cache::{Cache, Mutant as CacheMutant};
    use sched::{Mutant as SchedMutant, Sched};

    /// Runs `mutant` over one slot: every mutant but the share's is
    /// caught there.
    fn sched_caught(mutant: SchedMutant, classes: &[&str]) {
        assert_caught(&run(Sched::new(1, 2, Some(mutant))), classes);
    }

    fn cache_caught(mutant: CacheMutant, classes: &[&str]) {
        assert_caught(&run(Cache::new(Some(mutant))), classes);
    }

    /// Over two slots the share a grant reads varies with the queries
    /// in flight; the invariants check it at every grant.
    #[test]
    fn faithful_scheduler_has_no_violations() {
        for slots in [1, 2] {
            assert_clean(&run(Sched::new(slots, 2, None)));
        }
    }

    /// With no queue the scheduler is admit-or-reject: an arrival finding
    /// a free slot and no queue takes it, and any other is turned away.
    #[test]
    fn an_idle_scheduler_admits_at_every_queue_capacity() {
        for capacity in [0, 1] {
            let r = run(Sched::new(1, capacity, None));
            assert!(
                r.ok() && r.terminal_states > 0,
                "{capacity}: {:?}",
                r.violations
            );
        }
    }

    #[test]
    fn notify_one_mutant_loses_a_wakeup() {
        sched_caught(SchedMutant::NotifyOne, &["deadlock"]);
    }

    #[test]
    fn lifo_grant_mutant_inverts_fifo() {
        sched_caught(SchedMutant::LifoGrant, &["FIFO inversion"]);
    }

    #[test]
    fn forget_decrement_mutant_breaks_accounting() {
        sched_caught(SchedMutant::ForgetDecrement, &["accounting", "deadlock"]);
    }

    #[test]
    fn skip_recheck_mutant_breaches_the_cap() {
        sched_caught(SchedMutant::SkipRecheck, &["inflight cap"]);
    }

    #[test]
    fn fast_path_that_jumps_the_queue_inverts_fifo() {
        sched_caught(SchedMutant::FastPathJumpsQueue, &["FIFO inversion"]);
    }

    #[test]
    fn withdrawal_that_keeps_its_ticket_wedges_the_queue() {
        sched_caught(
            SchedMutant::WithdrawKeepsTicket,
            &["orphaned ticket", "deadlock"],
        );
    }

    /// A share read before the grant's own slot is counted splits the
    /// budget one query too few ways; only two slots can show it.
    #[test]
    fn share_read_before_the_increment_mutant_oversubscribes() {
        let mutant = Some(SchedMutant::ShareBeforeIncrement);
        assert_caught(&run(Sched::new(2, 2, mutant)), &["thread share"]);
    }

    #[test]
    fn faithful_cache_never_serves_stale() {
        assert_clean(&run(Cache::new(None)));
    }

    #[test]
    fn stamp_current_epoch_mutant_serves_stale() {
        cache_caught(CacheMutant::StampCurrentEpoch, &["stale serve"]);
    }

    #[test]
    fn no_epoch_check_mutant_serves_stale() {
        cache_caught(CacheMutant::NoEpochCheck, &["stale serve"]);
    }

    #[test]
    fn ignore_serial_mutant_misplaces_a_result() {
        cache_caught(CacheMutant::IgnoreSerial, &["result misplaced"]);
    }
}
