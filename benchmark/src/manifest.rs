//! The metric tables, and `BENCHMARK.json` generated from them and from the
//! workload table, so the manifest cannot drift from what the run prints.

use crate::workloads::WORKLOADS;

/// How long one run measures (`--seconds`), in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 10;

/// The command of `BENCHMARK.json`, run from the repository root.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// A metric's direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn text(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One metric of either list; `bound` is `None` for per-layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported with `--trace 0`.
pub const END_TO_END: [Metric; 7] = [
    e2e("answer_ms_p50", "ms", Lower, 0.25),
    e2e("answer_ms_p95", "ms", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("exact_ms_p50", "ms", Lower, 0.25),
    e2e("accuracy_p05", "share", Higher, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single layers, measured from outside; reported with `--trace 1`.
pub const PER_LAYER: [Metric; 51] = [
    layer("speedup_vs_exact", "ratio", Higher),
    layer("rel_err_p95", "ratio", Lower),
    layer("contract_miss_rate", "share", Lower),
    layer("service.submit_overhead_us", "us", Lower),
    layer("service.route_cold_us", "us", Lower),
    layer("service.route_warm_us", "us", Lower),
    layer("service.cache_hit_share", "share", Higher),
    layer("service.cache_stale", "count", Lower),
    layer("service.epoch_bumps", "count", Higher),
    layer("service.queue_wait_us_p50", "us", Lower),
    layer("analyze.lint_us", "us", Lower),
    layer("session.probe_us", "us", Lower),
    layer("session.routing_overhead_ms", "ms", Lower),
    layer("session.winner_share.offline-synopsis", "share", Higher),
    layer("session.winner_share.online-sampling", "share", Higher),
    layer("session.winner_share.online-aggregation", "share", Higher),
    layer("session.winner_share.rewrite-middleware", "share", Higher),
    layer("session.winner_share.exact", "share", Lower),
    layer("online.answer_ms_p50", "ms", Lower),
    layer("online.ungrouped_ms_p50", "ms", Lower),
    layer("online.ns_per_row", "ns", Lower),
    layer("online.rows_share", "share", Lower),
    layer("online.submit_share", "share", Lower),
    layer("online.ci_coverage", "share", Higher),
    layer("online.ci_cells", "count", Higher),
    layer("offline.answer_ms_p50", "ms", Lower),
    layer("offline.ns_per_synopsis_row", "ns", Lower),
    layer("offline.submit_share", "share", Lower),
    layer("offline.build_s", "s", Lower),
    layer("offline.maintain_ms_p50", "ms", Lower),
    layer("offline.staleness_max", "share", Lower),
    layer("offline.ci_coverage", "share", Higher),
    layer("offline.ci_cells", "count", Higher),
    layer("rewrite.answer_ms_p50", "ms", Lower),
    layer("rewrite.ns_per_row", "ns", Lower),
    layer("rewrite.submit_share", "share", Lower),
    layer("ola.answer_ms_p50", "ms", Lower),
    layer("ola.submit_share", "share", Lower),
    layer("ola.ci_coverage", "share", Higher),
    layer("ola.ci_cells", "count", Higher),
    layer("engine.exact_ms_p50", "ms", Lower),
    layer("engine.ns_per_row", "ns", Lower),
    layer("engine.ns_per_row_t1", "ns", Lower),
    layer("engine.parallel_efficiency", "ratio", Higher),
    layer("engine.submit_share", "share", Lower),
    layer("storage.build_ns_per_row", "ns", Lower),
    layer("storage.bytes_per_row", "B", Lower),
    layer("storage.replace_us_p50", "us", Lower),
    layer("harness.trace_overhead_share", "share", Lower),
    layer("harness.traced_queries", "count", Higher),
    layer("harness.ref_queries", "count", Higher),
];

/// Looks a metric up in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| json_string(c)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let metric_line = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.text())
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric_line).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_line).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(well_formed_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --print-manifest > BENCHMARK.json`"
        );
    }
}
