//! Acceptance tests for the accuracy-audit subsystem: the seeded
//! ground-truth sampler, observed-vs-nominal CI coverage, the
//! stale-synopsis quarantine feedback loop, and the metric-name
//! source-of-truth table.
//!
//! * The audit sampler is a pure function of (seed, serial, rate): two
//!   sessions with the same audit config over the same workload audit
//!   exactly the same queries.
//! * A nominal 95% interval's *observed* coverage over ≥200 audited
//!   queries must land in a sane band — at every thread count.
//! * A synopsis whose data silently drifted (append that barely moves
//!   staleness) must be caught by audits, quarantined (visible in the
//!   `RoutingDecision`, the lint stream, Prometheus, and
//!   `explain_analyze()`), and released by `maintain_synopses`.

use proptest::prelude::*;

use aqp_core::{
    AqpSession, AuditConfig, CandidateOutcome, DeclineReason, ErrorSpec, LintCode, SessionConfig,
    TechniqueKind,
};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::col;
use aqp_mergeable::Partial;
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

fn sum_plan(table: &str) -> LogicalPlan {
    Query::scan(table)
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build()
}

fn grouped_sum_plan(table: &str) -> LogicalPlan {
    Query::scan(table)
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build()
}

/// Appends `extra` freshly generated rows to `t` via the Table `Partial`
/// merge — append-only, prefix untouched — with a different seed so the
/// appended distribution genuinely shifts the truth.
fn append_rows(c: &Catalog, extra: usize, seed: u64) {
    let base = c.get("t").unwrap();
    let delta = skewed_table("t", extra, 20, 1.0, 256, seed);
    let mut extended = (*base).clone();
    Partial::merge(&mut extended, &delta).unwrap();
    c.replace(extended);
}

/// Same audit config + same workload ⇒ the same queries get audited, and
/// the audit verdicts agree — the sampler is seeded and serial-driven,
/// not wall-clock- or rng-state-driven.
#[test]
fn audit_sampler_is_deterministic_across_sessions() {
    let run = || {
        let c = Catalog::new();
        c.register(uniform_table("t", 20_000, 128, 7)).unwrap();
        let config = SessionConfig {
            audit: AuditConfig {
                rate: 0.3,
                seed: 42,
                ..AuditConfig::default()
            },
            ..SessionConfig::default()
        };
        let session = AqpSession::with_config(&c, config);
        let spec = ErrorSpec::new(0.1, 0.95);
        (0..40u64)
            .map(|i| {
                let ans = session.answer(&sum_plan("t"), &spec, i).unwrap();
                ans.report.audit.map(|a| (a.technique, a.ok))
            })
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "audit picks and verdicts must replay bit-for-bit");
    let audited = a.iter().filter(|x| x.is_some()).count();
    assert!(
        (4..=20).contains(&audited),
        "rate 0.3 over 40 queries should audit roughly 12, got {audited}"
    );
}

/// Audit rate 0 must leave answers untouched: no audit, no scoreboard.
#[test]
fn disabled_auditor_attaches_nothing() {
    let c = Catalog::new();
    c.register(uniform_table("t", 20_000, 128, 7)).unwrap();
    let session = AqpSession::new(&c);
    let ans = session
        .answer(&sum_plan("t"), &ErrorSpec::new(0.1, 0.95), 3)
        .unwrap();
    assert!(ans.report.audit.is_none());
    assert!(ans.report.accuracy.is_none());
    assert!(session.accuracy().rows.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Observed CI coverage over ≥200 audited online-sampling answers at
    /// nominal 95% lands in a sane band, at 1, 2, and 4 worker threads.
    /// (Exact-coverage calibration is E-audit's job; this pins that the
    /// audit loop *measures* rather than fabricates.)
    #[test]
    fn observed_coverage_tracks_nominal(thread_idx in 0usize..3) {
        let threads = [1usize, 2, 4][thread_idx];
        let c = Catalog::new();
        c.register(uniform_table("t", 12_000, 128, 11)).unwrap();
        let mut config = SessionConfig {
            audit: AuditConfig {
                rate: 1.0,
                seed: 9,
                window: 512,
                // Coverage feedback off: this test measures, not routes.
                coverage_floor: 0.0,
                min_audits: 1,
            },
            ..SessionConfig::default()
        };
        config.online.threads = threads;
        let session = AqpSession::with_config(&c, config);
        let spec = ErrorSpec::new(0.1, 0.95);
        let mut audited = 0u64;
        for seed in 0..220u64 {
            let ans = session.answer(&sum_plan("t"), &spec, seed).unwrap();
            let routing = ans.report.routing.as_ref().unwrap();
            prop_assert_eq!(routing.winner, TechniqueKind::OnlineSampling);
            if ans.report.audit.is_some() {
                audited += 1;
            }
        }
        prop_assert!(audited >= 200, "expected >=200 audits, got {audited}");
        let snap = session.accuracy();
        let row = snap.get(TechniqueKind::OnlineSampling.name()).unwrap();
        prop_assert_eq!(row.total_audits, audited);
        let coverage = row.coverage.unwrap();
        let nominal = row.nominal.unwrap();
        prop_assert!((nominal - 0.95).abs() < 1e-9);
        // Sane band: the estimator is conservative (pilot inflation), so
        // coverage should sit at or above nominal minus sampling noise,
        // and the scoreboard must not report an impossible value.
        prop_assert!(
            (0.85..=1.0).contains(&coverage),
            "threads={}: observed coverage {} escaped the sane band",
            threads, coverage
        );
        // The error quantiles are populated and ordered. (p95 may exceed
        // the true max: bucket interpolation reads the bucket's upper
        // edge, while max_rel_err is exact.)
        let p50 = row.p50_rel_err.unwrap();
        let p95 = row.p95_rel_err.unwrap();
        prop_assert!(p50 <= p95);
        prop_assert!(row.max_rel_err.is_finite() && row.max_rel_err >= 0.0);
    }
}

/// The drift-aware feedback loop, end to end: an append that shifts the
/// distribution (while staying far under the staleness gate) biases the
/// synopsis; ground-truth audits catch it; the technique is quarantined —
/// visible in the routing decision, the lint stream, Prometheus, and
/// `explain_analyze()` — and `maintain_synopses` repairs and releases it.
#[test]
fn stale_synopsis_is_quarantined_and_recovers_after_maintenance() {
    let c = Catalog::new();
    c.register(skewed_table("t", 40_000, 20, 1.0, 256, 3))
        .unwrap();
    let config = SessionConfig {
        // Staleness alone must NOT catch this — audits do.
        max_staleness: 10.0,
        audit: AuditConfig {
            rate: 1.0,
            seed: 5,
            window: 8,
            coverage_floor: 0.7,
            min_audits: 4,
        },
        ..SessionConfig::default()
    };
    let session = AqpSession::with_config(&c, config);
    session
        .offline()
        .build_stratified(&c, "t", "g", 4_000, 1)
        .unwrap();
    let spec = ErrorSpec::new(0.05, 0.95);

    // Phase 1: fresh synopsis answers and audits cleanly.
    let ans = session.answer(&grouped_sum_plan("t"), &spec, 1).unwrap();
    assert_eq!(
        ans.report.routing.as_ref().unwrap().winner,
        TechniqueKind::OfflineSynopsis
    );
    assert!(ans.report.audit.is_some(), "rate 1.0 audits everything");

    // Phase 2: append 60% more rows from a different draw. The synopsis
    // (built on the prefix) now misses a third of the mass; its narrow
    // CIs cannot cover the new truth. Staleness 0.6 << 10.0, so the
    // freshness gate stays open — only audits can see the problem.
    append_rows(&c, 24_000, 99);
    assert!(session.offline().staleness(&c, "t").unwrap() < 1.0);

    let mut quarantined_at = None;
    for i in 0..12u64 {
        let ans = session
            .answer(&grouped_sum_plan("t"), &spec, 10 + i)
            .unwrap();
        if session
            .quarantined()
            .iter()
            .any(|t| t == "offline-synopsis")
        {
            quarantined_at = Some((i, ans));
            break;
        }
        let audit = ans.report.audit.expect("still routed offline: audited");
        assert!(!audit.ok, "biased synopsis must fail its audits");
    }
    let (_, last_offline_ans) =
        quarantined_at.expect("repeated failed audits must quarantine the offline family");
    // min_audits=4 counts the clean phase-1 audit, so the floor trips
    // after three failures at the earliest.
    assert!(session.offline().failed_audits("t") >= 3);
    // The quarantine-entry answer carries the scoreboard with the flag up.
    let accuracy = last_offline_ans.report.accuracy.as_ref().unwrap();
    assert!(accuracy.get("offline-synopsis").unwrap().quarantined);

    // Phase 3: while quarantined, routing declines the family statically
    // with the machine-readable reason — never attempted, lint A014 fired,
    // counter ticked — and falls to the next family.
    let ans = session.answer(&grouped_sum_plan("t"), &spec, 77).unwrap();
    let routing = ans.report.routing.as_ref().unwrap();
    assert_ne!(routing.winner, TechniqueKind::OfflineSynopsis);
    match routing.outcome(TechniqueKind::OfflineSynopsis) {
        Some(CandidateOutcome::StaticallyIneligible(DeclineReason::Quarantined {
            coverage_bp,
            floor_bp,
        })) => {
            assert_eq!(*floor_bp, 7_000);
            assert!(*coverage_bp < *floor_bp);
        }
        other => panic!("expected a static Quarantined decline, got {other:?}"),
    }
    let lints = ans.report.lints.as_ref().unwrap();
    assert!(lints.has(LintCode::A014TechniqueQuarantined));
    let prom = session.metrics().to_prometheus_text();
    assert!(prom.contains("aqp_quarantined_total{technique=\"offline-synopsis\"}"));
    assert!(prom.contains("aqp_audit_ci_miss_total{technique=\"offline-synopsis\"}"));
    let explain = ans.report.explain_analyze();
    assert!(explain.contains("QUARANTINED"), "{explain}");
    assert!(
        explain.contains("quarantined: offline-synopsis"),
        "{explain}"
    );

    // Phase 4: maintenance folds the delta in, resets the scoreboard
    // window and the failed-audit drift counter, and the family routes —
    // and audits cleanly — again.
    assert!(session.maintain_synopses("t", 7).unwrap() >= 1);
    assert!(session.quarantined().is_empty());
    assert_eq!(session.offline().failed_audits("t"), 0);
    let ans = session.answer(&grouped_sum_plan("t"), &spec, 200).unwrap();
    assert_eq!(
        ans.report.routing.as_ref().unwrap().winner,
        TechniqueKind::OfflineSynopsis
    );
    let audit = ans.report.audit.as_ref().unwrap();
    assert!(audit.ok, "maintained synopsis must pass its audit");
}

/// Every Prometheus series name emitted by a mixed audited workload must
/// appear in the `aqp_obs::names` source-of-truth table, and every
/// decline-reason / winner label value must come from its tag table.
#[test]
fn emitted_metric_names_come_from_the_names_table() {
    let c = Catalog::new();
    c.register(skewed_table("t", 30_000, 20, 1.0, 256, 3))
        .unwrap();
    let config = SessionConfig {
        audit: AuditConfig {
            rate: 1.0,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    let session = AqpSession::with_config(&c, config);
    session
        .offline()
        .build_stratified(&c, "t", "g", 3_000, 1)
        .unwrap();
    session.offline().staleness(&c, "t").unwrap();
    let spec = ErrorSpec::new(0.1, 0.9);
    // Exercise offline, online, OLA, rewrite-ish, and exact paths.
    session.answer(&grouped_sum_plan("t"), &spec, 1).unwrap();
    session.answer(&sum_plan("t"), &spec, 2).unwrap();
    let minmax = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::min(col("v"), "m")])
        .build();
    session.answer(&minmax, &spec, 3).unwrap();
    session.maintain_synopses("t", 5).unwrap();

    let prom = session.metrics().to_prometheus_text();
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let series = line.split_whitespace().next().unwrap();
        let base = series.split('{').next().unwrap();
        let base = base
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            aqp_obs::names::ALL_METRIC_NAMES.contains(&base),
            "emitted metric `{base}` missing from aqp_obs::names::ALL_METRIC_NAMES"
        );
        if let Some(rest) = series.strip_prefix(&format!(
            "{}{{{}=",
            aqp_obs::names::DECLINE_TOTAL,
            aqp_obs::names::DECLINE_REASON_LABEL
        )) {
            let tag = rest.trim_start_matches('"').trim_end_matches("\"}");
            assert!(
                aqp_obs::names::DECLINE_REASON_TAGS.contains(&tag),
                "decline tag `{tag}` missing from DECLINE_REASON_TAGS"
            );
        }
        if let Some(rest) = series.strip_prefix(&format!(
            "{}{{{}=",
            aqp_obs::names::ROUTED_TOTAL,
            aqp_obs::names::ROUTED_WINNER_LABEL
        )) {
            let tag = rest.trim_start_matches('"').trim_end_matches("\"}");
            assert!(
                aqp_obs::names::ROUTED_WINNER_TAGS.contains(&tag),
                "winner tag `{tag}` missing from ROUTED_WINNER_TAGS"
            );
        }
    }
    // Every DeclineReason tag and technique name is registered.
    for kind in TechniqueKind::all() {
        assert!(aqp_obs::names::ROUTED_WINNER_TAGS.contains(&kind.name()));
    }
}
