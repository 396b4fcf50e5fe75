//! Morsel scheduling: a scoped worker pool with an order-preserving
//! parallel map over indexed morsels.
//!
//! A *morsel* is one unit of work — one input block of a scan, or a run
//! of blocks an aggregate folds into one partial. The pool hands morsels
//! through a shared work queue to `threads` workers — the calling thread
//! and `threads − 1` scoped threads spawned beside it (idle workers pull
//! the next morsel, so skewed per-morsel costs self-balance), and
//! every result is tagged with its morsel index so callers get outputs in
//! input order no matter which worker produced them. That index tagging is
//! what makes parallel execution deterministic: downstream merge phases
//! fold partial states in morsel order, a reduction tree fixed by data
//! layout rather than by scheduling.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::result::ExecStats;

/// Options controlling how a plan is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Number of worker threads for morsel-parallel operators, the
    /// calling thread included. `1` runs every morsel on the calling
    /// thread; `T` above 1 spawns `T − 1` scoped workers that pull morsels
    /// beside it. Results are bit-for-bit identical at every
    /// value: partials merge along a tree fixed by data layout. Never 0
    /// (clamped).
    pub threads: usize,
    /// Whether fused scans may skip whole blocks whose zone map proves the
    /// predicate can never select a row. Pruning decisions depend only on
    /// data layout, so results and stats stay thread-count independent.
    pub zone_pruning: bool,
    /// Whether predicates and aggregation may compile to typed column
    /// kernels (selection masks feeding typed accumulators) instead of the
    /// scalar `Value`-materializing path, which stays the reference.
    /// Results are bit-for-bit identical either way.
    pub kernels: bool,
    /// Expected group cardinality for aggregations, when a planner or the
    /// static analyzer can bound it (e.g. `GROUP BY col % 1000` has at
    /// most 1000 groups). Pre-sizes kernel group maps so the hot loop
    /// never rehashes; `None` falls back to growth-on-demand.
    pub agg_hint: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            zone_pruning: true,
            kernels: true,
            agg_hint: None,
        }
    }
}

impl ExecOptions {
    /// Options pinned to the serial execution path.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// Options with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Returns the options with zone-map block pruning enabled/disabled.
    pub fn with_zone_pruning(mut self, on: bool) -> Self {
        self.zone_pruning = on;
        self
    }

    /// Returns the options with typed aggregation kernels enabled/disabled.
    pub fn with_kernels(mut self, on: bool) -> Self {
        self.kernels = on;
        self
    }

    /// Returns the options with a group-cardinality hint attached.
    pub fn with_agg_hint(mut self, hint: Option<usize>) -> Self {
        self.agg_hint = hint;
        self
    }
}

/// The default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` workers — the calling
/// thread and up to `threads − 1` scoped ones — returning results in item
/// order. With `threads <= 1` (or fewer than two items) this runs inline
/// on the calling thread, in order, with no pool involved. A panicking
/// item re-raises its own payload on the calling thread, whichever
/// thread ran it.
pub fn parallel_map<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let (out, _) = parallel_map_with_stats(items, threads, |i, item, _| f(i, item));
    out
}

/// Like [`parallel_map`], but each worker also owns an [`ExecStats`]
/// accumulator; the per-worker partials are merged (order-insensitive
/// sums) and returned alongside the results. This is how scan accounting
/// flows out of fused morsel pipelines without any shared-counter traffic.
pub fn parallel_map_with_stats<I, T, F>(items: Vec<I>, threads: usize, f: F) -> (Vec<T>, ExecStats)
where
    I: Send,
    T: Send,
    F: Fn(usize, I, &mut ExecStats) -> T + Sync,
{
    if threads <= 1 || items.len() < 2 {
        let mut stats = ExecStats::default();
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item, &mut stats))
            .collect();
        return (out, stats);
    }
    let n = items.len();
    let workers = threads.min(n);
    // lock-order: queue < results < total < busy_total
    // Workers drain `queue` with transient guards, publish under
    // `results`, then fold stats under `total` — which stays held across
    // the `busy_total` update, the only nested acquisition here.
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let total: Mutex<ExecStats> = Mutex::new(ExecStats::default());
    // Pool telemetry is gated on the caller being inside a trace so the
    // hot loop reads no clock and touches no metric otherwise (the default).
    let obs_on = aqp_obs::current_ctx().trace.is_some();
    let queue_wait = obs_on.then(aqp_obs::metrics::current).flatten().map(|m| {
        m.histogram(
            aqp_obs::names::POOL_QUEUE_WAIT_US,
            aqp_obs::metrics::LATENCY_US_BOUNDS,
        )
    });
    let busy_total: Mutex<Duration> = Mutex::new(Duration::ZERO);
    let scope_start = obs_on.then(Instant::now);
    std::thread::scope(|scope| {
        // The worker loop; the calling thread runs it too, beside
        // `workers - 1` spawned threads.
        let work = || {
            let mut local: Vec<(usize, T)> = Vec::new();
            let mut stats = ExecStats::default();
            let mut busy = Duration::ZERO;
            loop {
                let wait_start = queue_wait.as_ref().map(|_| Instant::now());
                let next = queue.lock().pop_front();
                if let (Some(h), Some(t0)) = (queue_wait.as_ref(), wait_start) {
                    h.observe(t0.elapsed().as_secs_f64() * 1e6);
                }
                let Some((i, item)) = next else { break };
                let work_start = obs_on.then(Instant::now);
                local.push((i, f(i, item, &mut stats)));
                if let Some(t0) = work_start {
                    busy += t0.elapsed();
                }
            }
            results.lock().extend(local);
            let mut t = total.lock();
            *t = t.merge(&stats);
            if obs_on {
                *busy_total.lock() += busy;
            }
        };
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // A morsel that panics here unwinds out of the scope, which joins
        // the workers and re-raises this payload.
        work();
        for handle in handles {
            if let Err(payload) = handle.join() {
                // A worker panicked: re-raise its own payload on the
                // calling thread (the scope still joins the rest first)
                // rather than the scope's generic second panic.
                std::panic::resume_unwind(payload);
            }
        }
    });
    if let Some(t0) = scope_start {
        let wall = t0.elapsed().as_secs_f64();
        aqp_obs::metrics::record(|m| {
            m.gauge(aqp_obs::names::POOL_WORKERS).set(workers as f64);
            if wall > 0.0 {
                let busy = busy_total.into_inner().as_secs_f64();
                m.gauge(aqp_obs::names::POOL_WORKER_UTILIZATION)
                    .set(busy / (workers as f64 * wall));
            }
        });
    }
    let mut tagged = results.into_inner();
    tagged.sort_unstable_by_key(|(i, _)| *i);
    let out = tagged.into_iter().map(|(_, v)| v).collect();
    (out, total.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_and_clamping() {
        assert!(ExecOptions::default().threads >= 1);
        assert_eq!(ExecOptions::serial().threads, 1);
        assert_eq!(ExecOptions::with_threads(0).threads, 1);
        assert_eq!(ExecOptions::with_threads(4).threads, 4);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(items.clone(), threads, |i, x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn per_worker_stats_merge() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 3, 8] {
            let (_, stats) = parallel_map_with_stats(items.clone(), threads, |_, x, s| {
                s.blocks_scanned += 1;
                s.rows_scanned += x;
            });
            assert_eq!(stats.blocks_scanned, 257);
            assert_eq!(stats.rows_scanned, (0..257).sum::<u64>());
        }
    }

    /// The payload a panicking `parallel_map` re-raises on the caller.
    fn panic_payload(f: impl Fn(usize, u64) -> u64 + Sync) -> String {
        let items: Vec<u64> = (0..8).collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(items, 2, &f);
        }))
        .expect_err("a morsel panicked");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(other) => panic!("payload is not a String: {other:?}"),
        }
    }

    #[test]
    fn a_panicking_morsel_reraises_its_own_payload_on_either_thread() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        let on_caller = || std::thread::current().id() == caller;
        // On the caller: the worker holds its first morsel until the
        // caller has taken one, which panics. Without the wait a worker
        // scheduled first could drain every morsel before the caller
        // pops one.
        let caller_ran = AtomicBool::new(false);
        let got = panic_payload(|i, x| {
            if on_caller() {
                caller_ran.store(true, Ordering::Release);
                panic!("caller morsel {i}")
            } else {
                while !caller_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                x
            }
        });
        assert!(got.starts_with("caller morsel"), "{got}");
        // On the worker: the caller holds its first morsel until the
        // worker has taken one, which panics.
        let worker_ran = AtomicBool::new(false);
        let got = panic_payload(|i, x| {
            if on_caller() {
                while !worker_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                x
            } else {
                worker_ran.store(true, Ordering::Release);
                panic!("worker morsel {i}")
            }
        });
        assert!(got.starts_with("worker morsel"), "{got}");
    }

    #[test]
    fn single_item_runs_inline() {
        let out = parallel_map(vec![41], 8, |_, x| x + 1);
        assert_eq!(out, vec![42]);
    }
}
