//! Golden-fixture suite: every C-code must flag its seeded violation in
//! `fixtures/violations/`, with exact counts so rule drift is visible.

use aqp_conformance::{scan_workspace, Code, ScanConfig, Severity};

fn fixture_cfg() -> ScanConfig {
    ScanConfig {
        root: concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/violations").into(),
        unwrap_budget_files: vec!["crates/app/src/hot.rs".into()],
        api_exempt_prefixes: vec![],
        lock_order_required: vec![],
    }
}

#[test]
fn every_code_is_flagged_by_its_fixture() {
    let r = scan_workspace(&fixture_cfg()).expect("fixture scan");
    for code in Code::all() {
        assert!(
            !r.with_code(code).is_empty(),
            "{} has no flagged fixture; diagnostics: {:#?}",
            code.code(),
            r.diagnostics
        );
    }
}

#[test]
fn fixture_counts_are_golden() {
    let r = scan_workspace(&fixture_cfg()).expect("fixture scan");
    let counts: Vec<(&str, usize)> = Code::all()
        .iter()
        .map(|c| (c.code(), r.with_code(*c).len()))
        .collect();
    assert_eq!(
        counts,
        [
            ("C001", 1),
            ("C002", 1),
            ("C003", 1),
            ("C004", 1),
            ("C005", 1),
            ("C007", 1),
            ("C008", 1),
        ],
        "diagnostics: {:#?}",
        r.diagnostics
    );
    assert!(
        r.diagnostics.iter().all(|d| d.severity == Severity::Error),
        "every seeded fixture finding gates at Error"
    );
}

#[test]
fn fixture_paths_and_renderings_are_stable() {
    let r = scan_workspace(&fixture_cfg()).expect("fixture scan");
    let c001 = r.with_code(Code::C001MetricNameLiteral);
    assert!(c001[0].path.starts_with("crates/app/src/lib.rs:"));
    assert!(c001[0].render().contains("fixture_typo_total"));
    let c007 = r.with_code(Code::C007LockOrder);
    assert!(c007[0].path.starts_with("crates/app/src/hot.rs:"));
    assert!(c007[0].message.contains("queue"));
    assert!(c007[0].message.contains("results"));
    let c008 = r.with_code(Code::C008UnreferencedPub);
    assert!(c008[0].path.starts_with("crates/app/src/lib.rs:"));
    assert!(c008[0].render().contains("`pub fn orphan`"));
}

/// C008 reads `benchmark/src/` as a caller but never walks the build
/// output under `benchmark/target/`.
#[test]
fn c008_reads_benchmark_src_but_not_benchmark_target() {
    let root = std::env::temp_dir().join(format!("aqp-c008-walk-{}", std::process::id()));
    let files = [
        (
            "crates/lib/src/lib.rs",
            "pub fn from_bench() {}\npub fn from_target() {}",
        ),
        ("benchmark/src/main.rs", "fn main() { lib::from_bench(); }"),
        (
            "benchmark/target/debug/build/gen.rs",
            "fn g() { lib::from_target(); }",
        ),
    ];
    for (path, src) in files {
        let p = root.join(path);
        std::fs::create_dir_all(p.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(&p, src).expect("write source");
    }
    let cfg = ScanConfig {
        root: root.clone(),
        unwrap_budget_files: vec![],
        api_exempt_prefixes: vec![],
        lock_order_required: vec![],
    };
    let r = scan_workspace(&cfg);
    std::fs::remove_dir_all(&root).expect("remove scratch tree");
    let r = r.expect("scan");
    let c008: Vec<&str> = r
        .with_code(Code::C008UnreferencedPub)
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(c008, ["`pub fn from_target` is named by no other file"]);
}
