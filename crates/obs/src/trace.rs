//! Lightweight RAII span tracer with parent/child links.
//!
//! A trace is a value its caller owns, not a process mode. [`capture`]
//! creates a [`Trace`] — a handle around its own record buffer and its
//! own open-span count — installs it as the calling thread's current
//! context for the duration of one call, and hands back what that call
//! recorded. Every span constructor asks one question of the context it
//! was given (the calling thread's for [`span`], the explicit one for
//! [`child_span`]): does it hold a trace? With none in scope — the
//! default, whatever any other thread is doing — the span is an inert
//! handle: a thread-local check, no clock read, no allocation, no lock.
//! The overhead contract (< 100ns per inert span in release builds) is
//! enforced by a guarded smoke test in this crate and recorded as
//! `noop_span_ns` in `BENCH_gates.json` by `bench_gates`.
//!
//! A recording span stores its start offset (nanoseconds since a
//! process-wide epoch), duration, parent id, trace id, recording thread,
//! and optional row count / detail string into its trace's buffer when it
//! drops. Parenting is implicit through the thread-local current context;
//! work handed to pool worker threads carries an explicit [`SpanCtx`]
//! (captured with [`Span::ctx`] or [`current_ctx`]) and opens children
//! with [`child_span`], so the workers of a traced query record into that
//! query's trace and the workers of an untraced one record nowhere.
//!
//! [`root_span`] starts a fresh trace of its own when its caller is
//! inside one — how each query keeps exactly its own spans
//! ([`Trace::take_records`]) apart from its caller's and from every
//! concurrent query's. [`build_tree`] reassembles a batch of records into
//! a forest and [`render_tree`] pretty-prints one root as an indented
//! operator tree, collapsing large same-name sibling groups (e.g.
//! hundreds of morsel spans) into a single `×N` line.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sibling groups at least this large render as one aggregated line.
const COLLAPSE_AT: usize = 5;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT: RefCell<SpanCtx> = const { RefCell::new(SpanCtx { span: 0, trace: None }) };
    static THREAD_ORD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Stable small ordinal for the calling thread, recorded on every span so
/// per-thread invariants can be checked.
fn thread_ord() -> u64 {
    THREAD_ORD.with(|t| *t)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One trace: a shared handle to its own record buffer and its own
/// open-span count. Spans hold a clone while they are open; whoever
/// started the trace takes the records once the traced call returns, and
/// the buffer is freed with the last handle.
#[derive(Debug, Clone)]
pub struct Trace(Arc<TraceBuf>);

#[derive(Debug)]
struct TraceBuf {
    /// Process-unique, stamped on every record of this trace.
    id: u64,
    open: AtomicI64,
    records: Mutex<Vec<SpanRecord>>,
}

impl Trace {
    fn new() -> Self {
        Trace(Arc::new(TraceBuf {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            open: AtomicI64::new(0),
            records: Mutex::new(Vec::new()),
        }))
    }

    /// Spans of this trace opened and not yet dropped. Zero after all
    /// instrumented work has unwound (and its threads have been joined).
    pub fn open_spans(&self) -> i64 {
        self.0.open.load(Ordering::Relaxed)
    }

    /// Removes and returns the records so far, sorted by start offset.
    pub fn take_records(&self) -> Vec<SpanRecord> {
        let mut out =
            std::mem::take(&mut *self.0.records.lock().unwrap_or_else(|p| p.into_inner()));
        out.sort_by_key(|r| (r.start_ns, r.id));
        out
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}

impl Eq for Trace {}

/// A reference to a live span: its id and the trace it records into. Pass
/// (by reference) across threads to parent worker-side spans under the
/// operator that spawned them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// Id of the span, 0 when no span is in scope.
    pub span: u64,
    /// The enclosing trace, `None` when nothing in scope is recording.
    pub trace: Option<Trace>,
}

/// Puts a saved context back as the thread's current one when dropped, so
/// a panic unwinding through a span or a [`capture`] cannot leave the
/// thread recording.
#[derive(Debug)]
struct Restore(SpanCtx);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = std::mem::take(&mut self.0));
    }
}

/// One completed span, as stored in its trace's buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id of this span.
    pub id: u64,
    /// Id of the parent span, 0 for roots.
    pub parent: u64,
    /// Id of the trace this span belongs to.
    pub trace: u64,
    /// Static name, e.g. `"op:aggregate"` or `"morsel:filter"`.
    pub name: &'static str,
    /// Optional free-form annotation (table name, decline reason, ...).
    pub detail: Option<String>,
    /// Rows attributed to this span via [`Span::set_rows`].
    pub rows: u64,
    /// Start offset in nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Ordinal of the recording thread (see module docs).
    pub thread: u64,
}

impl SpanRecord {
    /// End offset (`start_ns + duration_ns`) in epoch nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.duration_ns
    }
}

/// An RAII span: records itself into its trace when dropped. Created
/// inert (all methods no-ops) when the context it was opened under holds
/// no trace.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    rows: u64,
    detail: Option<String>,
    live: Option<Live>,
}

/// The recording half of a [`Span`]; absent when inert.
#[derive(Debug)]
struct Live {
    trace: Trace,
    id: u64,
    parent: u64,
    start: Instant,
    start_ns: u64,
    _prev: Restore,
}

impl Span {
    fn new(name: &'static str, live: Option<Live>) -> Self {
        Span {
            name,
            rows: 0,
            detail: None,
            live,
        }
    }

    fn open(name: &'static str, parent: u64, trace: Trace) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        trace.0.open.fetch_add(1, Ordering::Relaxed);
        let ctx = SpanCtx {
            span: id,
            trace: Some(trace.clone()),
        };
        let prev = Restore(CURRENT.with(|c| c.replace(ctx)));
        let start = Instant::now();
        let live = Live {
            trace,
            id,
            parent,
            start,
            start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
            _prev: prev,
        };
        Span::new(name, Some(live))
    }

    /// Whether this span will produce a record (a trace was in scope at
    /// creation). Use to skip work done only to annotate the span.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Attributes a row count to this span (no-op when inert).
    pub fn set_rows(&mut self, rows: u64) {
        if self.live.is_some() {
            self.rows = rows;
        }
    }

    /// Attaches a free-form annotation (no-op — and no allocation — when
    /// inert unless the caller already built the string).
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if self.live.is_some() {
            self.detail = Some(detail.into());
        }
    }

    /// This span's id and trace, for parenting children across threads.
    /// Empty (so [`child_span`] under it is inert too) when inert.
    pub fn ctx(&self) -> SpanCtx {
        self.live
            .as_ref()
            .map_or_else(SpanCtx::default, |l| SpanCtx {
                span: l.id,
                trace: Some(l.trace.clone()),
            })
    }

    /// Explicitly closes the span (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let rec = SpanRecord {
            id: live.id,
            parent: live.parent,
            trace: live.trace.0.id,
            name: self.name,
            detail: self.detail.take(),
            rows: self.rows,
            start_ns: live.start_ns,
            duration_ns: live.start.elapsed().as_nanos() as u64,
            thread: thread_ord(),
        };
        let buf = &live.trace.0;
        buf.records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(rec);
        buf.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Opens a span under the calling thread's current context. Inert when
/// that context holds no trace.
pub fn span(name: &'static str) -> Span {
    child_span(name, &current_ctx())
}

/// Opens a root span that starts a fresh [`Trace`] of its own (reachable
/// through [`Span::ctx`]) when the calling thread is inside one, whatever
/// span is in scope; the caller's trace sees none of it. Inert otherwise.
pub fn root_span(name: &'static str) -> Span {
    if CURRENT.with(|c| c.borrow().trace.is_none()) {
        return Span::new(name, None);
    }
    Span::open(name, 0, Trace::new())
}

/// Opens a span under an explicit parent context — the cross-thread
/// variant used by pool workers, which cannot see the spawning thread's
/// current context. Inert when `parent` holds no trace.
pub fn child_span(name: &'static str, parent: &SpanCtx) -> Span {
    match &parent.trace {
        Some(trace) => Span::open(name, parent.span, trace.clone()),
        None => Span::new(name, None),
    }
}

/// The calling thread's current span context (empty when none).
pub fn current_ctx() -> SpanCtx {
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` inside a fresh trace installed as the calling thread's
/// current context — the one way to ask for a trace — and returns its
/// output, every span recorded into that trace during the call (a callee
/// that opens a [`root_span`], e.g. `AqpSession::answer`, keeps its own),
/// and the trace's open-span count, zero once all instrumented work has
/// unwound. Other threads are unaffected; nested captures each see only
/// their own spans.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>, i64) {
    let trace = Trace::new();
    let ctx = SpanCtx {
        span: 0,
        trace: Some(trace.clone()),
    };
    let prev = Restore(CURRENT.with(|c| c.replace(ctx)));
    let out = f();
    drop(prev);
    (out, trace.take_records(), trace.open_spans())
}

/// One node of a reassembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The completed span at this node.
    pub record: SpanRecord,
    /// Child spans, ordered by start offset.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total duration of direct children, in nanoseconds.
    pub fn child_ns(&self) -> u64 {
        self.children.iter().map(|c| c.record.duration_ns).sum()
    }

    /// Duration not accounted for by direct children (saturating: with
    /// parallel workers, summed child wall time can exceed the parent).
    fn self_ns(&self) -> u64 {
        self.record.duration_ns.saturating_sub(self.child_ns())
    }
}

/// Reassembles drained records into a forest of [`SpanNode`]s. Records
/// whose parent is absent from the batch become roots; children are
/// ordered by start offset.
pub fn build_tree(mut records: Vec<SpanRecord>) -> Vec<SpanNode> {
    records.sort_by_key(|r| (r.start_ns, r.id));
    let present: HashMap<u64, ()> = records.iter().map(|r| (r.id, ())).collect();
    let mut by_parent: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    let mut roots = Vec::new();
    for rec in records {
        if rec.parent != 0 && present.contains_key(&rec.parent) {
            by_parent.entry(rec.parent).or_default().push(rec);
        } else {
            roots.push(rec);
        }
    }
    fn assemble(rec: SpanRecord, by_parent: &mut HashMap<u64, Vec<SpanRecord>>) -> SpanNode {
        let children = by_parent
            .remove(&rec.id)
            .unwrap_or_default()
            .into_iter()
            .map(|c| assemble(c, by_parent))
            .collect();
        SpanNode {
            record: rec,
            children,
        }
    }
    roots
        .into_iter()
        .map(|r| assemble(r, &mut by_parent))
        .collect()
}

/// Formats a nanosecond count with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Renders one span tree as an indented text block: per node its name,
/// detail, wall time, self time (when it has children), and rows. Sibling
/// runs of the same name with 5+ members (morsels, typically) collapse
/// into a single `name ×N` line carrying totals, so the morsel count per
/// operator stays visible without a thousand-line dump.
pub fn render_tree(root: &SpanNode) -> String {
    let mut out = String::new();
    render_into(root, 0, &mut out);
    out
}

fn render_into(node: &SpanNode, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let rec = &node.record;
    let _ = write!(out, "{pad}{}", rec.name);
    if let Some(d) = &rec.detail {
        let _ = write!(out, " [{d}]");
    }
    let _ = write!(out, "  wall={}", fmt_ns(rec.duration_ns));
    if !node.children.is_empty() {
        let _ = write!(out, " self={}", fmt_ns(node.self_ns()));
    }
    if rec.rows > 0 {
        let _ = write!(out, " rows={}", rec.rows);
    }
    out.push('\n');
    // Group children by name, preserving first-appearance order.
    let mut order: Vec<&'static str> = Vec::new();
    let mut groups: HashMap<&'static str, Vec<&SpanNode>> = HashMap::new();
    for child in &node.children {
        if !groups.contains_key(child.record.name) {
            order.push(child.record.name);
        }
        groups.entry(child.record.name).or_default().push(child);
    }
    for name in order {
        let group = &groups[name];
        if group.len() >= COLLAPSE_AT {
            let total: u64 = group.iter().map(|n| n.record.duration_ns).sum();
            let rows: u64 = group.iter().map(|n| n.record.rows).sum();
            let pad = "  ".repeat(depth + 1);
            let _ = write!(out, "{pad}{name} ×{}  wall={}", group.len(), fmt_ns(total));
            if rows > 0 {
                let _ = write!(out, " rows={rows}");
            }
            out.push('\n');
        } else {
            for child in group {
                render_into(child, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_outside_a_trace_are_inert_and_record_nothing() {
        let mut s = span("never");
        assert!(!s.is_recording());
        s.set_rows(10);
        s.set_detail("ignored");
        assert_eq!(s.ctx(), SpanCtx::default());
        assert!(!child_span("never", &s.ctx()).is_recording());
        assert!(!root_span("never").is_recording());
        drop(s);
        assert_eq!(current_ctx(), SpanCtx::default());
    }

    #[test]
    fn spans_nest_via_thread_local_current() {
        let ((), records, open) = capture(|| {
            let root = span("root");
            {
                let child = span("child");
                assert_eq!(child.ctx().trace, root.ctx().trace);
                let grand = span("grand");
                assert_eq!(grand.ctx().trace, root.ctx().trace);
                drop(grand);
                drop(child);
            }
            let sibling = span("sibling");
            assert_eq!(
                sibling.ctx().trace,
                root.ctx().trace,
                "current restored after child drop"
            );
            drop(sibling);
            drop(root);
        });
        assert_eq!(open, 0);
        assert_eq!(records.len(), 4);
        let roots = build_tree(records);
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.record.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].record.name, "child");
        assert_eq!(root.children[0].children.len(), 1);
        assert_eq!(root.children[0].children[0].record.name, "grand");
        assert_eq!(root.children[1].record.name, "sibling");
    }

    #[test]
    fn child_span_crosses_threads_with_explicit_ctx() {
        let ((), records, open) = capture(|| {
            let parent = span("parent");
            let ctx = parent.ctx();
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let ctx = ctx.clone();
                    std::thread::spawn(move || {
                        let mut m = child_span("morsel", &ctx);
                        m.set_rows(i + 1);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            drop(parent);
        });
        assert_eq!(open, 0);
        let roots = build_tree(records);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 3);
        let rows: u64 = roots[0].children.iter().map(|c| c.record.rows).sum();
        assert_eq!(rows, 6);
        for c in &roots[0].children {
            assert!(c.record.start_ns >= roots[0].record.start_ns);
            assert!(c.record.end_ns() <= roots[0].record.end_ns());
        }
    }

    #[test]
    fn root_span_keeps_its_own_trace_apart_from_its_caller() {
        let (own, outer, open) = capture(|| {
            let _around = span("around");
            let root = root_span("a");
            let trace = root.ctx().trace.expect("recording");
            drop(span("inside"));
            assert_eq!(trace.open_spans(), 1, "the root itself");
            drop(root);
            assert_eq!(trace.open_spans(), 0);
            trace.take_records()
        });
        assert_eq!(open, 0);
        let names = |rs: &[SpanRecord]| rs.iter().map(|r| r.name).collect::<Vec<_>>();
        assert_eq!(names(&own), ["a", "inside"]);
        assert_eq!(own[0].parent, 0, "a root even with a span in scope");
        assert!(own.iter().all(|r| r.trace == own[0].trace));
        assert_eq!(names(&outer), ["around"]);
        assert_ne!(outer[0].trace, own[0].trace);
    }

    /// Two threads each inside their own capture and a third outside any,
    /// all three holding a span open at the same instant (the barrier).
    /// Each capture sees exactly its own spans and closes them all; the
    /// outsider stays inert on its own thread and on a worker it parents.
    #[test]
    fn concurrent_captures_are_isolated_and_outsiders_stay_inert() {
        let all_open = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            let traced = ["left", "right"].map(|name| {
                let all_open = &all_open;
                scope.spawn(move || {
                    capture(|| {
                        let parent = span(name);
                        let ctx = parent.ctx();
                        all_open.wait();
                        std::thread::scope(|s| {
                            s.spawn(|| drop(child_span(name, &ctx)));
                        });
                    })
                })
            });
            let outsider = scope.spawn(|| {
                let s = span("outside");
                all_open.wait();
                s.is_recording() || child_span("outside", &s.ctx()).is_recording()
            });
            assert!(!outsider.join().unwrap(), "untraced thread recorded");
            let [left, right] = traced.map(|t| t.join().unwrap());
            for (name, ((), records, open)) in [("left", &left), ("right", &right)] {
                assert_eq!(*open, 0, "{name}: spans left open");
                assert_eq!(records.len(), 2);
                assert!(records
                    .iter()
                    .all(|r| r.name == name && r.trace == records[0].trace));
            }
            assert_ne!(left.1[0].trace, right.1[0].trace);
        });
    }

    #[test]
    fn render_collapses_large_sibling_groups() {
        let ((), records, _) = capture(|| {
            let parent = span("op:scan");
            let ctx = parent.ctx();
            for _ in 0..8 {
                let mut m = child_span("morsel:scan", &ctx);
                m.set_rows(100);
            }
            drop(parent);
        });
        let roots = build_tree(records);
        let text = render_tree(&roots[0]);
        assert!(text.contains("morsel:scan ×8"), "got:\n{text}");
        assert!(text.contains("rows=800"), "got:\n{text}");
        // Collapsed: only one morsel line, not eight.
        assert_eq!(text.matches("morsel:scan").count(), 1, "got:\n{text}");
    }

    /// Overhead smoke-check for the no-trace fast path (satellite:
    /// guarded assert, not a flaky wall-clock gate). The production
    /// contract is <100ns per inert span in release builds; this
    /// budget is ~15× that so an unoptimized debug test binary passes
    /// while still catching real regressions (taking a lock or reading
    /// the clock on the inert path costs far more than the budget).
    #[test]
    fn noop_span_overhead_within_budget() {
        const ITERS: u32 = 200_000;
        // Warm up the thread-locals, then take the best of 3 batches to
        // shave scheduler noise.
        let mut best = f64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                std::hint::black_box(span("noop"));
            }
            let per = t0.elapsed().as_nanos() as f64 / ITERS as f64;
            best = best.min(per);
        }
        assert!(
            best < 1_500.0,
            "inert span path costs {best:.0}ns per span (budget 1500ns debug / 100ns release)"
        );
    }
}
