//! The bench gates: the five bounds nothing in the repo benchmark can see
//! (`benchmark/README.md` measures everything else through
//! `AqpService::submit`), taken in one run, written as one typed report to
//! `BENCH_gates.json` at the workspace root, and enforced — the process
//! exits non-zero when any gate misses its bound. README's "Benchmark
//! artifacts" table lists the gates.

mod audit;
mod merge;

use std::time::Instant;

use aqp_bench::report::{Bound, Gate, Host, Json, Report};
use aqp_bench::{engine_bench_catalog, kernel_plans};
use aqp_engine::{execute_with, ExecOptions};
use aqp_obs::timing::median_us;
use aqp_storage::Catalog;

fn main() {
    let catalog = engine_bench_catalog();
    let report = Report {
        host: Host::detect(),
        gates: vec![
            kernel_gate(&catalog),
            span_gate(&catalog),
            merge::gate(),
            conformance_gate(),
            audit::gate(),
        ],
    };
    for gate in &report.gates {
        println!("bench_gates: {gate}");
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gates.json");
    std::fs::write(path, report.to_json()).expect("write the bench gate report");
    println!("bench_gates: wrote {path}");

    let failing = report.failing();
    if !failing.is_empty() {
        eprintln!("bench_gates: FAILED {}", failing.join(", "));
        std::process::exit(1);
    }
}

/// Single-thread median wall of the typed kernel path (zone maps + fused
/// masks + typed accumulators) against the scalar `eval` fallback on the
/// plans the kernels cover; the gated number is the smaller speedup.
fn kernel_gate(catalog: &Catalog) -> Gate {
    const REPS: usize = 7;
    let rows = catalog.get("t").expect("bench table").row_count();
    let mut worst = f64::INFINITY;
    let mut plans = Vec::new();
    for (name, plan) in kernel_plans() {
        let [scalar_ms, kernel_ms] = [false, true].map(|kernels| {
            let opts = ExecOptions::serial()
                .with_kernels(kernels)
                .with_zone_pruning(kernels);
            execute_with(&plan, catalog, opts).expect("warm-up");
            median_us(REPS, || {
                execute_with(&plan, catalog, opts).expect("bench plan")
            })
            .1 / 1e3
        });
        let speedup = scalar_ms / kernel_ms;
        worst = worst.min(speedup);
        let ns_per_row = |ms: f64| Json::rounded(ms * 1e6 / rows as f64, 2);
        plans.push(Json::obj([
            ("plan", name.into()),
            ("scalar_ms", Json::rounded(scalar_ms, 3)),
            ("kernel_ms", Json::rounded(kernel_ms, 3)),
            ("scalar_ns_per_row", ns_per_row(scalar_ms)),
            ("kernel_ns_per_row", ns_per_row(kernel_ms)),
            ("speedup", Json::rounded(speedup, 3)),
        ]));
    }
    Gate {
        name: "kernel_vs_scalar_speedup",
        claim: "the typed kernel path beats scalar eval single-thread on every covered plan",
        measured: worst,
        bound: Bound::AtLeast(2.0),
        detail: Json::obj([
            ("threads", 1usize.into()),
            ("rows", rows.into()),
            ("plans", Json::Arr(plans)),
        ]),
    }
}

/// What the spans of one untraced query cost: the tight-loop price of an
/// inert span (open + drop) times the spans `group_by_1k` opens, as a
/// share of that query's untraced wall. The traced wall rides along.
fn span_gate(catalog: &Catalog) -> Gate {
    const REPS: usize = 15;
    const THREADS: usize = 4;
    const ITERS: u32 = 200_000;
    let [_, (name, plan)] = kernel_plans();
    let opts = ExecOptions::with_threads(THREADS);
    let run = || execute_with(&plan, catalog, opts).expect("bench plan");
    run(); // warm-up
    let (_, off_us) = median_us(REPS, run);
    let spans_per_query = aqp_obs::capture(run).1.len();
    // Each timed run owns and takes its trace: the active cost includes
    // both recording and collection.
    let (_, on_us) = median_us(REPS, || aqp_obs::capture(run));
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(aqp_obs::span("noop"));
    }
    let noop_ns = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);
    Gate {
        name: "noop_span_overhead_pct",
        claim: "spans opened outside a trace cost under 3% of an aggregate query",
        measured: spans_per_query as f64 * noop_ns / (off_us * 1e3) * 100.0,
        bound: Bound::Below(3.0),
        detail: Json::obj([
            ("workload", name.into()),
            ("threads", THREADS.into()),
            ("noop_span_ns", Json::rounded(noop_ns, 2)),
            ("spans_per_query", spans_per_query.into()),
            ("untraced_median_us", Json::rounded(off_us, 2)),
            ("traced_median_us", Json::rounded(on_us, 2)),
        ]),
    }
}

/// One full-workspace pass of the C001–C007 source linter (tokenize +
/// rules over every `crates/*/src` file): `scripts/check.sh` runs it on
/// every gate, so it must stay cheap.
fn conformance_gate() -> Gate {
    let cfg = aqp_conformance::ScanConfig::workspace(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let scan = || aqp_conformance::scan_workspace(&cfg).expect("conformance scan");
    let found = scan();
    let (_, scan_us) = median_us(9, scan);
    Gate {
        name: "conformance_scan_ms",
        claim: "one full-workspace conformance source scan stays under 2 s",
        measured: scan_us / 1e3,
        bound: Bound::AtMost(2_000.0),
        detail: Json::obj([
            ("files", found.files.into()),
            ("diagnostics", found.diagnostics.len().into()),
            ("errors", found.errors().into()),
        ]),
    }
}
