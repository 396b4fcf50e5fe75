//! Thread-safe metrics registry: counters, gauges, and fixed-bucket
//! histograms, with lock-free per-worker shards merged on read.
//!
//! Writes never take a lock: each metric holds 16 cache-line-padded
//! atomic shards and a thread maps onto a shard by its process-assigned
//! ordinal, so concurrent workers update disjoint cache lines. Reads
//! (exporters, tests) sum across shards. Registering or looking up a
//! metric takes a short registry lock, so hot loops should fetch their
//! handle once up front.
//!
//! A registry is a value its owner holds, as a trace is: there is no
//! process-wide one. Code that holds its registry records into it
//! directly (the session and the service do). Code below it — the
//! engine's operators, the samplers — records into the registry in
//! scope: [`scoped`] installs one as the calling thread's for the
//! duration of a call, and [`record`] runs against it, or does nothing
//! when none is in scope. So two sessions in one process keep disjoint
//! counters, and a bare engine call outside any session records nowhere.
//! Work handed to pool workers records nothing; every built-in metric is
//! recorded on the thread that opened the scope.
//!
//! Exporters: [`MetricsRegistry::to_prometheus_text`] emits the standard
//! text exposition format, [`MetricsRegistry::to_json`] a stable JSON
//! document; both iterate the registry's `BTreeMap`s, so output order is
//! deterministic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::thread_ord;

thread_local! {
    static SCOPE: RefCell<Option<Arc<MetricsRegistry>>> = const { RefCell::new(None) };
}

/// Runs `f` with `registry` as the calling thread's metrics scope, then
/// restores the scope it replaced (also when `f` unwinds).
pub fn scoped<T>(registry: &Arc<MetricsRegistry>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<MetricsRegistry>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let _prev = Restore(SCOPE.with(|s| s.replace(Some(Arc::clone(registry)))));
    f()
}

/// The calling thread's metrics scope, `None` outside any [`scoped`] call.
pub fn current() -> Option<Arc<MetricsRegistry>> {
    SCOPE.with(|s| s.borrow().clone())
}

/// Runs `f` against the registry in scope; a no-op outside any
/// [`scoped`] call.
pub fn record(f: impl FnOnce(&MetricsRegistry)) {
    if let Some(m) = current() {
        f(&m);
    }
}

/// Shard count per metric; threads map on by ordinal modulo this.
const SHARDS: usize = 16;

/// Default bucket bounds (microseconds) for latency histograms.
pub const LATENCY_US_BOUNDS: &[f64] = &[
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 1e5, 1e6,
];

/// Default bucket bounds for relative-error / CI-width histograms.
pub const REL_ERROR_BOUNDS: &[f64] =
    &[0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0];

/// One atomic counter cell padded to its own cache line, so shards
/// written by different workers never false-share.
#[derive(Default)]
#[repr(align(64))]
struct PadCell(AtomicU64);

fn shard_idx() -> usize {
    thread_ord() as usize % SHARDS
}

/// Monotonic counter with lock-free sharded increments.
#[derive(Default)]
pub struct Counter {
    shards: [PadCell; SHARDS],
}

impl Counter {
    /// Adds `n` to the calling thread's shard.
    pub fn inc(&self, n: u64) {
        self.shards[shard_idx()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sums all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-write-wins gauge holding an `f64` (stored as bits in an atomic).
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads the gauge value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

struct HistShard {
    /// One count per bound, plus a final +Inf bucket.
    buckets: Vec<AtomicU64>,
    /// Running sum of observed values, stored as `f64` bits and updated
    /// with a CAS loop (no float atomics in std).
    sum_bits: AtomicU64,
}

/// Fixed-bucket histogram with lock-free sharded observation.
pub struct Histogram {
    bounds: Vec<f64>,
    shards: Vec<HistShard>,
}

/// A read-side snapshot of a [`Histogram`], merged across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bound of each finite bucket.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (non-cumulative), one per bound plus +Inf.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let shards = (0..SHARDS)
            .map(|_| HistShard {
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })
            .collect();
        Histogram {
            bounds: bounds.to_vec(),
            shards,
        }
    }

    /// Records one observation into the calling thread's shard.
    pub fn observe(&self, v: f64) {
        let shard = &self.shards[shard_idx()];
        let idx = self.bounds.partition_point(|b| *b < v);
        shard.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = shard.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match shard.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Merges all shards into a consistent-enough snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut sum = 0.0;
        for shard in &self.shards {
            for (i, b) in shard.buckets.iter().enumerate() {
                counts[i] += b.load(Ordering::Relaxed);
            }
            sum += f64::from_bits(shard.sum_bits.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            count: counts.iter().sum(),
            counts,
            sum,
        }
    }
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket holding the target rank, the standard
    /// fixed-bucket estimator Prometheus' `histogram_quantile` uses. The
    /// first bucket interpolates from a lower bound of 0; ranks landing
    /// in the +Inf bucket clamp to the last finite bound (there is no
    /// upper edge to interpolate toward). Returns `None` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            // Skip buckets with no mass so low quantiles land on the
            // lower edge of the first occupied bucket.
            if (cumulative as f64) < rank || *c == 0 {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                // +Inf bucket: clamp to the last finite bound.
                return self.bounds.last().copied();
            };
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            let below = (cumulative - c) as f64;
            let within = (rank - below) / *c as f64;
            return Some(lower + (upper - lower) * within.clamp(0.0, 1.0));
        }
        self.bounds.last().copied()
    }
}

/// Registry key: metric name plus at most one `key="value"` label pair
/// (enough for e.g. per-`DeclineReason` counters).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    label: Option<(String, String)>,
}

/// A named collection of counters, gauges, and histograms. Each session
/// owns one; see the module docs for how code below it records into it.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &lock(&self.counters).len())
            .field("gauges", &lock(&self.gauges).len())
            .field("histograms", &lock(&self.histograms).len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_entry(MetricKey {
            name: name.to_string(),
            label: None,
        })
    }

    /// Gets or registers the counter `name{label_key="label_value"}`.
    pub fn counter_labeled(&self, name: &str, label_key: &str, label_value: &str) -> Arc<Counter> {
        self.counter_entry(MetricKey {
            name: name.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
        })
    }

    fn counter_entry(&self, key: MetricKey) -> Arc<Counter> {
        Arc::clone(lock(&self.counters).entry(key).or_default())
    }

    /// Gets or registers the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_entry(MetricKey {
            name: name.to_string(),
            label: None,
        })
    }

    /// Gets or registers the gauge `name{label_key="label_value"}`.
    pub fn gauge_labeled(&self, name: &str, label_key: &str, label_value: &str) -> Arc<Gauge> {
        self.gauge_entry(MetricKey {
            name: name.to_string(),
            label: Some((label_key.to_string(), label_value.to_string())),
        })
    }

    fn gauge_entry(&self, key: MetricKey) -> Arc<Gauge> {
        Arc::clone(lock(&self.gauges).entry(key).or_default())
    }

    /// Gets or registers the histogram `name` with the given finite
    /// bucket bounds (ignored if the histogram already exists).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_entry(
            MetricKey {
                name: name.to_string(),
                label: None,
            },
            bounds,
        )
    }

    /// Gets or registers the histogram `name{label_key="label_value"}`.
    pub fn histogram_labeled(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.histogram_entry(
            MetricKey {
                name: name.to_string(),
                label: Some((label_key.to_string(), label_value.to_string())),
            },
            bounds,
        )
    }

    fn histogram_entry(&self, key: MetricKey, bounds: &[f64]) -> Arc<Histogram> {
        Arc::clone(
            lock(&self.histograms)
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// deterministically ordered by metric name and label.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_deref() != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some(name.to_string());
            }
        };
        for (key, c) in lock(&self.counters).iter() {
            type_line(&mut out, &key.name, "counter");
            let _ = writeln!(out, "{} {}", fmt_series(key), c.get());
        }
        for (key, g) in lock(&self.gauges).iter() {
            type_line(&mut out, &key.name, "gauge");
            let _ = writeln!(out, "{} {}", fmt_series(key), g.get());
        }
        for (key, h) in lock(&self.histograms).iter() {
            type_line(&mut out, &key.name, "histogram");
            let snap = h.snapshot();
            // A labeled histogram merges its label pair with `le` on every
            // bucket line; `_sum`/`_count` carry just the label.
            let label = key
                .label
                .as_ref()
                .map(|(k, v)| format!("{k}=\"{}\",", v.replace('"', "\\\"")))
                .unwrap_or_default();
            let mut cumulative = 0u64;
            for (i, count) in snap.counts.iter().enumerate() {
                cumulative += count;
                let le = snap
                    .bounds
                    .get(i)
                    .map(|b| trim_float(*b))
                    .unwrap_or_else(|| "+Inf".to_string());
                let _ = writeln!(
                    out,
                    "{}_bucket{{{label}le=\"{le}\"}} {cumulative}",
                    key.name
                );
            }
            let series = fmt_series(key);
            let suffix = series.strip_prefix(key.name.as_str()).unwrap_or("");
            let _ = writeln!(out, "{}_sum{suffix} {}", key.name, trim_float(snap.sum));
            let _ = writeln!(out, "{}_count{suffix} {}", key.name, snap.count);
        }
        out
    }

    /// Renders the registry as a JSON document with stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        let counters = lock(&self.counters);
        for (i, (key, c)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\"{}, \"value\": {}}}",
                key.name,
                json_label(key),
                c.get()
            );
        }
        drop(counters);
        out.push_str("\n  ],\n  \"gauges\": [");
        let gauges = lock(&self.gauges);
        for (i, (key, g)) in gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\"{}, \"value\": {}}}",
                key.name,
                json_label(key),
                trim_float(g.get())
            );
        }
        drop(gauges);
        out.push_str("\n  ],\n  \"histograms\": [");
        let histograms = lock(&self.histograms);
        for (i, (key, h)) in histograms.iter().enumerate() {
            let snap = h.snapshot();
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\"{}, \"count\": {}, \"sum\": {}, \"buckets\": [",
                key.name,
                json_label(key),
                snap.count,
                trim_float(snap.sum)
            );
            let mut cumulative = 0u64;
            for (j, count) in snap.counts.iter().enumerate() {
                cumulative += count;
                let le = snap
                    .bounds
                    .get(j)
                    .map(|b| trim_float(*b))
                    .unwrap_or_else(|| "\"+Inf\"".to_string());
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{{\"le\": {le}, \"count\": {cumulative}}}");
            }
            out.push_str("]}");
        }
        drop(histograms);
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Formats `12.5` as `12.5` but `12.0` as `12` (Prometheus style).
fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_series(key: &MetricKey) -> String {
    match &key.label {
        Some((k, v)) => format!("{}{{{k}=\"{}\"}}", key.name, v.replace('"', "\\\"")),
        None => key.name.clone(),
    }
}

fn json_label(key: &MetricKey) -> String {
    match &key.label {
        Some((k, v)) => format!(", \"{k}\": \"{}\"", v.replace('"', "\\\"")),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.inc(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8_000);
        // Same name resolves to the same counter.
        assert_eq!(reg.counter("hits").get(), 8_000);
    }

    #[test]
    fn record_reaches_the_innermost_scope_and_nothing_outside_one() {
        let tick = || record(|m| m.counter("ticks").inc(1));
        tick();
        assert!(current().is_none());
        let (outer, inner) = (
            Arc::new(MetricsRegistry::new()),
            Arc::new(MetricsRegistry::new()),
        );
        scoped(&outer, || {
            tick();
            scoped(&inner, tick);
            tick();
            // Another thread is outside the scope this one opened.
            std::thread::scope(|s| s.spawn(|| assert!(current().is_none())).join().unwrap());
        });
        assert!(current().is_none(), "the scope ends with the call");
        assert_eq!(outer.counter("ticks").get(), 2);
        assert_eq!(inner.counter("ticks").get(), 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped(&outer, || panic!("boom"))
        }));
        assert!(unwound.is_err());
        assert!(current().is_none(), "restored while unwinding");
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("declines", "reason", "stale").inc(2);
        reg.counter_labeled("declines", "reason", "empty-pilot")
            .inc(1);
        let text = reg.to_prometheus_text();
        assert!(text.contains("declines{reason=\"stale\"} 2"), "{text}");
        assert!(
            text.contains("declines{reason=\"empty-pilot\"} 1"),
            "{text}"
        );
        // One TYPE line for the family, not one per series.
        assert_eq!(text.matches("# TYPE declines counter").count(), 1);
    }

    #[test]
    fn gauge_holds_floats() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("utilization");
        g.set(0.75);
        assert!((g.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us", &[10.0, 100.0]);
        for v in [1.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 1, 1]);
        assert_eq!(snap.count, 4);
        assert!((snap.sum - 556.0).abs() < 1e-9);
        let text = reg.to_prometheus_text();
        assert!(text.contains("lat_us_bucket{le=\"10\"} 2"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"100\"} 3"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_us_sum 556"), "{text}");
        assert!(text.contains("lat_us_count 4"), "{text}");
    }

    #[test]
    fn json_export_is_stable_and_parsable_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").inc(1);
        reg.counter("a_total").inc(2);
        reg.gauge("util").set(0.5);
        reg.histogram("h", &[1.0]).observe(0.5);
        let json = reg.to_json();
        // BTreeMap ordering: a_total before b_total.
        let a = json.find("a_total").unwrap();
        let b = json.find("b_total").unwrap();
        assert!(a < b, "{json}");
        assert!(json.contains("\"gauges\""), "{json}");
        assert!(json.contains("{\"le\": 1, \"count\": 1}"), "{json}");
        assert!(json.contains("{\"le\": \"+Inf\", \"count\": 1}"), "{json}");
    }

    #[test]
    fn labeled_histograms_merge_label_with_le() {
        let reg = MetricsRegistry::new();
        reg.histogram_labeled("err", "technique", "offline-synopsis", &[0.1, 1.0])
            .observe(0.05);
        reg.histogram_labeled("err", "technique", "rewrite-middleware", &[0.1, 1.0])
            .observe(0.5);
        let text = reg.to_prometheus_text();
        assert!(
            text.contains("err_bucket{technique=\"offline-synopsis\",le=\"0.1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("err_bucket{technique=\"rewrite-middleware\",le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("err_sum{technique=\"offline-synopsis\"} 0.05"),
            "{text}"
        );
        assert!(
            text.contains("err_count{technique=\"rewrite-middleware\"} 1"),
            "{text}"
        );
        assert_eq!(text.matches("# TYPE err histogram").count(), 1);
        let json = reg.to_json();
        assert!(
            json.contains("\"technique\": \"offline-synopsis\""),
            "{json}"
        );
    }

    #[test]
    fn labeled_gauges_are_distinct_series() {
        let reg = MetricsRegistry::new();
        reg.gauge_labeled("staleness", "table", "a").set(0.25);
        reg.gauge_labeled("staleness", "table", "b").set(0.75);
        assert!((reg.gauge_labeled("staleness", "table", "a").get() - 0.25).abs() < 1e-12);
        let text = reg.to_prometheus_text();
        assert!(text.contains("staleness{table=\"a\"} 0.25"), "{text}");
        assert!(text.contains("staleness{table=\"b\"} 0.75"), "{text}");
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q", &[10.0, 20.0, 40.0]);
        assert_eq!(h.snapshot().quantile(0.5), None, "empty histogram");
        // 10 observations in (10, 20], none elsewhere: the median sits
        // halfway through the second bucket.
        for _ in 0..10 {
            h.observe(15.0);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        assert!((p50 - 15.0).abs() < 1e-9, "{p50}");
        // q=1.0 reaches the bucket's upper bound.
        assert!((snap.quantile(1.0).unwrap() - 20.0).abs() < 1e-9);
        // q=0 clamps to the bucket's lower edge.
        assert!((snap.quantile(0.0).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_first_bucket_interpolates_from_zero() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q0", &[8.0]);
        for _ in 0..4 {
            h.observe(1.0);
        }
        let p50 = h.snapshot().quantile(0.5).unwrap();
        assert!(
            (p50 - 4.0).abs() < 1e-9,
            "first bucket lower bound is 0: {p50}"
        );
    }

    #[test]
    fn quantile_inf_bucket_clamps_to_last_finite_bound() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("qi", &[10.0]);
        for _ in 0..10 {
            h.observe(999.0);
        }
        let snap = h.snapshot();
        assert!((snap.quantile(0.99).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_splits_mixed_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("qm", &[1.0, 2.0, 4.0]);
        // 2 in the first bucket, 6 in the second, 2 in the third.
        for v in [0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 3.0, 3.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // rank(0.8) = 8 -> exactly the cumulative edge of bucket 2.
        assert!((snap.quantile(0.8).unwrap() - 2.0).abs() < 1e-9);
        // rank(0.5) = 5 -> halfway through bucket 2: 1 + (5-2)/6 * 1.
        assert!((snap.quantile(0.5).unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn observation_boundary_is_inclusive() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("edge", &[10.0]);
        h.observe(10.0);
        assert_eq!(h.snapshot().counts, vec![1, 0], "le=10 includes 10.0");
    }
}
