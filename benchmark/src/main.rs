//! The repository benchmark: routed-vs-exact through `AqpService` on five
//! workloads, with an outside-in per-layer trace. See `README.md`.

mod manifest;
mod rng;
mod run;
mod spans;
mod spread;
mod stats;
mod workloads;

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use manifest::{Metric, END_TO_END, PER_LAYER};
use run::{Host, Limits, Report};
use workloads::{Scale, Spec, FULL, SMOKE, WORKLOADS};

/// Where a run leaves `results_*.json` and `trace_*.jsonl`, relative to the
/// repository root the command runs from.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: aqp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       aqp-benchmark --smoke
       aqp-benchmark --print-manifest
       aqp-benchmark --spread <runs-file>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("aqp-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--print-manifest") {
        print!("{}", manifest::benchmark_json());
        return Ok(());
    }
    if has("--smoke") {
        return smoke();
    }
    if let Some(file) = value_of(args, "--spread") {
        return spread::report(Path::new(file), Path::new(OUT_DIR));
    }
    let required = |flag: &str| value_of(args, flag).ok_or(format!("missing {flag}\n{USAGE}"));
    let name = required("--workload")?;
    let spec = workloads::spec(name).ok_or(format!("no workload named {name}"))?;
    let seed: u64 = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=60"));
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };

    let host = Host::detect();
    eprintln!(
        "{name}: nproc {} T {} rustc [{}] seed {seed} seconds {seconds} trace {}",
        host.nproc,
        host.t,
        env!("BENCH_RUSTC_VERSION"),
        u8::from(trace),
    );
    let report = measure(spec, &FULL, host, seed, seconds, trace, true);
    let list: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let values = ordered(list, &report)?;
    for (m, value) in list.iter().zip(&values) {
        println!("{name} {} {value} {}", m.name, m.unit);
    }
    let line = result_line(list, &values, &report);
    write_outputs(spec, trace, &line, &report).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    println!("{line}");
    if report.failed > 0 || !report.invalid.is_empty() {
        return Err(format!(
            "{name}: {} of {} queries failed; {}",
            report.failed,
            report.attempted,
            report.invalid.join("; ")
        ));
    }
    Ok(())
}

fn measure(
    spec: &Spec,
    scale: &Scale,
    host: Host,
    seed: u64,
    seconds: f64,
    trace: bool,
    strict: bool,
) -> Report {
    if trace {
        run::per_layer(spec, scale, host, seed, strict)
    } else {
        let limits = Limits {
            min_queries: spec.min_queries,
            seconds,
            strict,
        };
        run::end_to_end(spec, scale, host, seed, limits)
    }
}

/// The report's values in the order of `list`; an error when the run
/// printed a metric the list lacks or lacks one the list names.
fn ordered(list: &[Metric], report: &Report) -> Result<Vec<f64>, String> {
    if let Some((extra, _)) = report
        .metrics
        .iter()
        .find(|(name, _)| !list.iter().any(|m| m.name == name))
    {
        return Err(format!("metric {extra} is not in BENCHMARK.json"));
    }
    list.iter()
        .map(|m| {
            report
                .metrics
                .iter()
                .find(|(name, _)| name == m.name)
                .map(|(_, v)| *v)
                .filter(|v| v.is_finite())
                .ok_or(format!("metric {} is missing or not finite", m.name))
        })
        .collect()
}

/// The last line of standard output: one JSON object.
fn result_line(list: &[Metric], values: &[f64], report: &Report) -> String {
    let metrics: Vec<String> = list
        .iter()
        .zip(values)
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.invalid.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn write_outputs(spec: &Spec, trace: bool, line: &str, report: &Report) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let results = dir.join(format!(
        "results_{}_trace{}.json",
        spec.name,
        u8::from(trace)
    ));
    std::fs::write(results, format!("{line}\n"))?;
    if trace {
        let path = dir.join(format!("trace_{}.jsonl", spec.name));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        spans::write_jsonl(&report.spans, &mut out)?;
        out.flush()?;
    }
    Ok(())
}

/// Every workload in both modes at toy scale: checks that each run is
/// correct and prints exactly the metrics `BENCHMARK.json` names.
fn smoke() -> Result<(), String> {
    let host = Host::detect();
    let mut seen = Vec::new();
    for spec in &WORKLOADS {
        let small = Spec {
            min_queries: 40,
            ref_queries: 40,
            trace_queries: 16,
            ..*spec
        };
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report = measure(&small, &SMOKE, host, 1, 0.0, trace, false);
            ordered(list, &report).map_err(|e| format!("{}: {e}", spec.name))?;
            if report.failed > 0 || !report.invalid.is_empty() {
                return Err(format!(
                    "{}: {} failed; {}",
                    spec.name,
                    report.failed,
                    report.invalid.join("; ")
                ));
            }
            if trace && report.spans.is_empty() {
                return Err(format!("{}: the traced replay recorded no span", spec.name));
            }
        }
        seen.push(spec.name);
    }
    println!("smoke ok: {} in both modes", seen.join(", "));
    Ok(())
}
