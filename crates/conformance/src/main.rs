//! The conformance gate binary.
//!
//! ```text
//! cargo run -q --release -p aqp-conformance -- --workspace [--root DIR]
//! ```
//!
//! Scans `crates/*/src` and prints one line per C-code gate. Exit status
//! is non-zero when any Error-severity diagnostic exists, so check.sh and
//! CI gate on it directly.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use aqp_conformance::{Code, ScanConfig, Severity};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // The workspace scan is the binary's one mode; the flag names it.
            "--workspace" => {}
            "--root" => match it.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("conformance: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("conformance: unknown flag `{other}`");
                eprintln!("usage: aqp-conformance [--workspace] [--root DIR]");
                return ExitCode::from(2);
            }
        }
    }

    let cfg = ScanConfig::workspace(&root);
    let report = match aqp_conformance::scan_workspace(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("conformance: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for code in Code::all() {
        let findings = report.with_code(code);
        let errors = findings
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let verdict = if errors == 0 { "ok" } else { "FAIL" };
        println!(
            "conformance {} {:<52} {verdict} ({} finding{})",
            code.code(),
            code.title(),
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
        );
        for d in &findings {
            println!("  {}", d.render());
        }
    }
    println!(
        "conformance scanned {} files: {} diagnostics, {} errors",
        report.files,
        report.diagnostics.len(),
        report.errors()
    );
    if report.errors() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
