//! CI smoke gate for the bench layer: proves the benchmarked paths still
//! agree and the emitted reports are well-formed, in seconds instead of
//! the minutes a full Criterion run costs.
//!
//! Two checks, both on tiny data at `threads = 1`:
//!
//! 1. **Path equivalence** — the kernel path (zone maps + fused masks +
//!    typed accumulators) returns exactly the scalar fallback's rows on
//!    the sweep plans the full bench times, so a speedup number can never
//!    paper over a wrong answer.
//! 2. **Report shape** — every `BENCH_*.json` at the workspace root
//!    parses as JSON (hand-rolled scanner; this workspace deliberately
//!    carries no JSON dependency) and contains the fields downstream
//!    tooling keys on.
//!
//! Exits non-zero with a diagnostic on the first violation.

use aqp_engine::{execute_with, AggExpr, ExecOptions, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::uniform_table;

/// Every report the bench suite emits, with the fields each must carry.
const REQUIRED_FIELDS: &[(&str, &[&str])] = &[
    (
        "BENCH_engine_parallel.json",
        &["bench", "host_cores", "queries", "median_ms", "speedup"],
    ),
    (
        "BENCH_engine_kernels.json",
        &[
            "bench",
            "queries",
            "scalar_median_ms",
            "kernel_median_ms",
            "speedup",
        ],
    ),
    ("BENCH_router.json", &["bench", "shapes", "probe_median_us"]),
    (
        "BENCH_lint.json",
        &[
            "bench",
            "shapes",
            "lint_median_us",
            "families_blocked",
            "conformance_scan",
        ],
    ),
    (
        "BENCH_obs.json",
        &["bench", "off_median_us", "on_median_us", "spans_per_query"],
    ),
    (
        "BENCH_merge.json",
        &[
            "bench",
            "merge_ns_per_partial",
            "synopsis_bytes",
            "maintain_vs_rebuild_speedup",
        ],
    ),
    (
        "BENCH_audit.json",
        &[
            "bench",
            "queries",
            "rates",
            "overhead_pct_at_1pct",
            "scoreboard_read_ns",
        ],
    ),
    (
        "BENCH_server.json",
        &[
            "bench",
            "queries_per_client",
            "clients",
            "cold_route_us",
            "cached_route_us",
            "cache_speedup",
            "rejected",
        ],
    ),
];

fn main() {
    let mut failures = 0usize;
    kernel_equivalence_smoke(&mut failures);
    report_shape_smoke(&mut failures);
    if failures > 0 {
        eprintln!("bench_smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("bench_smoke: all checks passed");
}

/// Tiny-row replica of the bench sweep plans: kernel and scalar paths
/// must return identical rows, and with pruning off no block may be
/// counted pruned.
fn kernel_equivalence_smoke(failures: &mut usize) {
    let c = Catalog::new();
    // 16 blocks = exactly one aggregation morsel: the kernel's
    // tree-merge degenerates to the serial fold, so float sums are
    // bitwise identical to the scalar path even on arbitrary values.
    // (Across morsels only the association order differs — the
    // integer-valued equivalence proptests in tests/kernels.rs cover
    // that regime.)
    c.register(uniform_table("t", 8_192, 512, 1)).unwrap();
    let plans = [
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
    ];
    for (name, plan) in &plans {
        let kernel = execute_with(plan, &c, ExecOptions::serial()).unwrap();
        let scalar = execute_with(
            plan,
            &c,
            ExecOptions::serial()
                .with_kernels(false)
                .with_zone_pruning(false),
        )
        .unwrap();
        if kernel.rows() != scalar.rows() {
            eprintln!("bench_smoke: kernel and scalar paths diverge on {name}");
            *failures += 1;
        } else {
            println!(
                "bench_smoke: {name} kernel == scalar ({} rows)",
                kernel.rows().len()
            );
        }
        if scalar.stats().blocks_pruned != 0 {
            eprintln!("bench_smoke: {name} counted pruned blocks with pruning off");
            *failures += 1;
        }
    }
}

/// Validates every required report file at the workspace root.
fn report_shape_smoke(failures: &mut usize) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (file, fields) in REQUIRED_FIELDS {
        let path = format!("{root}/{file}");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_smoke: cannot read {file}: {e} (run `cargo bench -p aqp-bench` to regenerate)");
                *failures += 1;
                continue;
            }
        };
        if let Err(e) = json::validate(&text) {
            eprintln!("bench_smoke: {file} is not valid JSON: {e}");
            *failures += 1;
            continue;
        }
        let missing: Vec<&str> = fields
            .iter()
            .filter(|f| !text.contains(&format!("\"{f}\"")))
            .copied()
            .collect();
        if missing.is_empty() {
            println!("bench_smoke: {file} ok");
        } else {
            eprintln!(
                "bench_smoke: {file} is missing field(s): {}",
                missing.join(", ")
            );
            *failures += 1;
        }
    }
}

/// A ~60-line recursive-descent JSON validator: accepts exactly the
/// grammar of json.org (minus `\u` escape surrogate pairing), rejects
/// trailing garbage. Validation only — nothing is materialized.
mod json {
    pub fn validate(text: &str) -> Result<(), String> {
        let b = text.as_bytes();
        let mut i = 0usize;
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at byte {i}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => container(b, i, b'}', true),
            Some(b'[') => container(b, i, b']', false),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, "true"),
            Some(b'f') => literal(b, i, "false"),
            Some(b'n') => literal(b, i, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            other => Err(format!("unexpected {other:?} at byte {i}")),
        }
    }

    fn container(b: &[u8], i: &mut usize, close: u8, keyed: bool) -> Result<(), String> {
        *i += 1; // opening bracket
        skip_ws(b, i);
        if b.get(*i) == Some(&close) {
            *i += 1;
            return Ok(());
        }
        loop {
            if keyed {
                skip_ws(b, i);
                string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
            }
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(c) if *c == close => {
                    *i += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or closer, got {other:?} at byte {i}")),
            }
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at byte {i}"));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => *i += 2,
                _ => *i += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn literal(b: &[u8], i: &mut usize, word: &str) -> Result<(), String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(|_| ())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}
