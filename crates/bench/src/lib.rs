//! Shared harness utilities for the experiment binaries (`src/bin/exp_*`)
//! and the `bench_gates` binary that reproduce, one by one, the claims of
//! *Approximate Query Processing: No Silver Bullet* (see `EXPERIMENTS.md`
//! for the claim ↔ experiment index).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod report;
pub mod taxonomy;

use std::time::Duration;

use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::uniform_table;

/// The exact engine's bench data: a 500k-row uniform table `t`, which the
/// `bench_gates` binary's kernel gate times. (Joins are measured through
/// the front door: `engine.ns_per_row` on the repo benchmark's
/// `adhoc_join`.)
pub fn engine_bench_catalog() -> Catalog {
    let c = Catalog::new();
    c.register(uniform_table("t", 500_000, 1024, 1))
        .expect("fresh catalog");
    c
}

/// The plans over `t` the kernel layer covers end to end: one scan-heavy
/// fused filter, one merge-heavy group-by, and the repo benchmark's
/// `exact_fallback` shape (an ungrouped filtered MIN).
pub fn kernel_plans() -> [(&'static str, LogicalPlan); 3] {
    [
        (
            "filter_sum",
            Query::scan("t")
                .filter(col("sel").lt(lit(0.5)))
                .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
                .build(),
        ),
        (
            "group_by_1k",
            Query::scan("t")
                .aggregate(
                    vec![(col("id").modulo(lit(1_000i64)), "g".to_string())],
                    vec![AggExpr::count_star("n"), AggExpr::avg(col("v"), "a")],
                )
                .build(),
        ),
        (
            "filter_min",
            Query::scan("t")
                .filter(col("sel").lt(lit(0.5)))
                .aggregate(vec![], vec![AggExpr::min(col("v"), "lo")])
                .build(),
        ),
    ]
}

/// Times a closure over `reps` repetitions, returning the output of the
/// last run and the *median* wall time — robust to one-off scheduling
/// noise in experiment binaries. Thin wrapper over
/// [`aqp_obs::timing::median_duration`], the one shared implementation of
/// the run-N-take-the-median idiom.
pub fn timed_median<T>(reps: usize, f: impl FnMut() -> T) -> (T, Duration) {
    assert!(reps > 0, "need at least one repetition");
    aqp_obs::timing::median_duration(reps, f)
}

/// Geometric mean of positive values (the speedup aggregate the AQP
/// literature reports); NaN for empty input.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Simple fixed-width table printer for experiment output.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Creates a printer and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len());
        let p = Self {
            widths: widths.to_vec(),
        };
        p.row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        p
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_values() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed_median(3, || 42);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
