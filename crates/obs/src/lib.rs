//! # aqp-obs — query-lifecycle observability substrate
//!
//! Zero-dependency (shim-style, like the other vendored crates)
//! observability layer for the AQP stack, providing:
//!
//! - a **span tracer** ([`trace`]): RAII spans with parent/child links
//!   cheap enough to wrap every morsel, operator, eligibility probe,
//!   technique attempt, and synopsis build — one thread-local check
//!   when the calling thread is not inside a trace (the default), so
//!   benches run unperturbed. A trace is a value: [`capture`] scopes one
//!   around a call on the calling thread, and no other thread pays;
//! - a **metrics registry** ([`metrics`]): counters, gauges, and
//!   fixed-bucket histograms, one set of atomics per series, exported as
//!   Prometheus text or JSON. A registry is a value,
//!   like a trace: [`metrics::scoped`] puts one in scope for a call, and
//!   instrumentation outside any scope records nowhere;
//! - **timing helpers** ([`timing`]): the shared median-of-N wall-clock
//!   idiom used by the `exp_*` binaries and benches.
//!
//! ```
//! let ((), spans, open) = aqp_obs::capture(|| {
//!     let mut op = aqp_obs::span("op:scan");
//!     op.set_rows(1024);
//! });
//! assert_eq!((spans.len(), open), (1, 0));
//! assert_eq!(spans[0].rows, 1024);
//! assert!(!aqp_obs::span("op:scan").is_recording(), "no trace in scope");
//! let registry = std::sync::Arc::new(aqp_obs::metrics::MetricsRegistry::new());
//! aqp_obs::metrics::scoped(&registry, || {
//!     aqp_obs::metrics::record(|m| m.counter("queries_total").inc(1));
//! });
//! aqp_obs::metrics::record(|m| m.counter("queries_total").inc(1)); // no scope: nowhere
//! assert_eq!(registry.counter("queries_total").get(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod metrics;
pub mod names;
pub mod scoreboard;
pub mod timing;
pub mod trace;

pub use trace::{
    build_tree, capture, child_span, current_ctx, fmt_ns, render_tree, root_span, span, Span,
    SpanCtx, SpanNode, SpanRecord, Trace,
};
