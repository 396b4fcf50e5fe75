//! The repeatability report behind `repeat.sh`: per workload × metric, how
//! far repeated runs of one seed lie apart, beside the bound the metric
//! carries.

use std::collections::BTreeMap;
use std::path::Path;

use crate::manifest::{metric, END_TO_END, PER_LAYER};
use crate::stats::sorted;
use crate::workloads::WORKLOADS;

/// Metrics that are counts of a seeded computation: at one client and one
/// seed they must not differ between runs at all.
fn is_count(name: &str) -> bool {
    matches!(
        name,
        "accuracy_p05" | "rel_err_p95" | "contract_miss_rate" | "online.rows_share"
    ) || name.starts_with("session.winner_share.")
}

/// One workload × metric row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Smallest, median (mean of the middle two) and largest value.
    pub min: f64,
    /// See `min`.
    pub median: f64,
    /// See `min`.
    pub max: f64,
    /// (max − min) ÷ |median|.
    pub range: f64,
}

/// Folds one metric's values over the runs.
pub fn row(values: &[f64]) -> Row {
    let v = sorted(values.to_vec());
    let n = v.len();
    let median = (v[(n - 1) / 2] + v[n / 2]) / 2.0;
    let scale = if median == 0.0 { 1.0 } else { median.abs() };
    Row {
        min: v[0],
        median,
        max: v[n - 1],
        range: (v[n - 1] - v[0]) / scale,
    }
}

/// Why a row fails, if it does: a count metric of a one-client workload
/// differs between the runs at all, or a bounded metric's range exceeds its
/// bound.
pub fn verdict(name: &str, concurrent: bool, r: &Row) -> Option<String> {
    if !concurrent && is_count(name) && r.min != r.max {
        return Some(format!(
            "count differs between runs ({} .. {})",
            r.min, r.max
        ));
    }
    let bound = metric(name)?.bound?;
    (r.range > bound).then(|| format!("range {:.4} > bound {bound}", r.range))
}

type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Parses `<set> <workload> <metric> <value> <unit>` lines.
fn parse(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [_set, workload, name, value, _unit] = fields[..] else {
            return Err(format!("line {}: expected 5 fields: {line}", n + 1));
        };
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: {e}: {line}", n + 1))?;
        runs.entry((workload.to_string(), name.to_string()))
            .or_default()
            .push(value);
    }
    Ok(runs)
}

/// Prints the table, writes `spread.json` into `out_dir`, and fails when
/// any row does.
pub fn report(file: &Path, out_dir: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let runs = parse(&text)?;
    let mut failures = Vec::new();
    let mut json = Vec::new();
    println!(
        "{:<20} {:<40} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "n", "min", "median", "max", "range", "bound"
    );
    for w in &WORKLOADS {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let Some(values) = runs.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            let r = row(values);
            let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
            let failed = verdict(m.name, w.concurrent, &r);
            println!(
                "{:<20} {:<40} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>6}{}",
                w.name,
                m.name,
                values.len(),
                r.min,
                r.median,
                r.max,
                r.range,
                bound,
                failed
                    .as_ref()
                    .map_or(String::new(), |f| format!("  FAIL {f}")),
            );
            json.push(format!(
                "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"n\": {}, \"min\": {}, \"median\": {}, \
                 \"max\": {}, \"range\": {}, \"bound\": {}, \"ok\": {}}}",
                w.name,
                m.name,
                values.len(),
                r.min,
                r.median,
                r.max,
                r.range,
                m.bound.map_or("null".to_string(), |b| b.to_string()),
                failed.is_none(),
            ));
            if let Some(f) = failed {
                failures.push(format!("{} {}: {f}", w.name, m.name));
            }
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("spread.json");
    std::fs::write(&path, format!("[\n{}\n]\n", json.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} rows fail:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_verdicts() {
        let r = row(&[10.0, 11.0, 10.5, 12.0]);
        assert_eq!((r.min, r.median, r.max), (10.0, 10.75, 12.0));
        assert!((r.range - 2.0 / 10.75).abs() < 1e-12);

        // No bound exceeds 0.25, so a 60 % range breaks any of them...
        let wide = row(&[10.0, 13.0, 16.0]);
        assert!(verdict("qps", false, &wide).is_some());
        assert!(verdict("setup_s", false, &wide).is_some());
        // ...but not the unbounded per-layer metrics.
        assert!(verdict("online.ns_per_row", false, &wide).is_none());
        let tight = row(&[10.0, 10.01, 10.02, 10.03]);
        assert!(verdict("qps", false, &tight).is_none());
        // Counts must repeat exactly, at one client only.
        assert!(verdict("rel_err_p95", false, &tight).is_some());
        assert!(verdict("rel_err_p95", true, &tight).is_none());
        assert!(verdict("session.winner_share.exact", false, &row(&[1.0, 1.0])).is_none());
    }

    #[test]
    fn parses_run_lines() {
        let runs = parse("1 adhoc_join qps 10.5 1/s\n2 adhoc_join qps 11 1/s\n").unwrap();
        assert_eq!(
            runs[&("adhoc_join".to_string(), "qps".to_string())],
            vec![10.5, 11.0]
        );
        assert!(parse("1 adhoc_join qps\n").is_err());
        assert!(parse("1 adhoc_join qps fast 1/s\n").is_err());
    }
}
