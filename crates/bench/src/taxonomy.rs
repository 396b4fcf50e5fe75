//! NSB's taxonomy as executable data: the technique-vs-property matrix.
//!
//! The survey's core artifact is a map of the AQP design space showing
//! that every technique gives something up. This module renders that map
//! from the capabilities actually implemented in this workspace, so the
//! "no silver bullet" table (T1 in `EXPERIMENTS.md`) is generated from
//! live code rather than transcribed.
//!
//! The four *routable* families (the ones behind
//! [`aqp_core::AqpSession`]) go one step further: their rows are
//! **read off the static analyzer's verdicts** — the same
//! `Analysis::blocked_by` the router routes on — for canned scenario
//! sessions: a query with a predicate, a join; a session with no
//! synopsis; a session whose synopsis went stale. Those columns are what
//! the routing code accepts, not a description of it
//! (`derived_family_rows`). The remaining rows describe building-block
//! techniques (samplers, sketches) that have no router entry point and
//! stay hand-described.

use aqp_analyze::GuaranteeClass;
use aqp_expr::{col, lit};
use aqp_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};

use aqp_core::{AggQuery, AggSpec, AqpSession, ErrorSpec, JoinSpec, LinearAgg, TechniqueKind};

/// One implemented AQP technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Row-level Bernoulli / reservoir sampling at query time.
    UniformRowSample,
    /// Block-level sampling at query time.
    BlockSample,
    /// Pre-computed stratified (congressional) sample.
    OfflineStratifiedSample,
    /// Universe (hash) sampling on a join key.
    UniverseSample,
    /// Distinct sampler with a per-key cap.
    DistinctSample,
    /// Outlier index: exact heavy tail + sampled remainder.
    OutlierIndex,
    /// Measure-biased (PPS) sampling with the Hansen–Hurwitz estimator.
    MeasureBiasedSample,
    /// Bi-level sampling: Bernoulli blocks, then Bernoulli rows within.
    BiLevelSample,
    /// Count-Min / Count-Sketch frequency sketches.
    FrequencySketch,
    /// HyperLogLog / KMV distinct sketches.
    DistinctSketch,
    /// Greenwald–Khanna quantile summary.
    QuantileSketch,
    /// Equi-width / equi-depth histograms.
    Histogram,
    /// Haar wavelet synopsis.
    Wavelet,
    /// Online aggregation.
    OnlineAggregation,
    /// Two-phase pilot-planned online sampling (the planner in
    /// [`aqp_core::online`]).
    PilotPlannedSampling,
    /// VerdictDB-style middleware rewriting over a weighted sample
    /// ([`aqp_core::rewrite`]).
    MiddlewareRewrite,
}

/// What a technique offers and what it costs, along NSB's axes.
#[derive(Debug, Clone)]
pub struct Capability {
    /// The technique.
    pub technique: Technique,
    /// What queries it answers.
    pub answers: &'static str,
    /// Can it honor an a-priori error contract?
    pub a_priori_error: bool,
    /// Does it support arbitrary ad-hoc predicates?
    pub adhoc_predicates: bool,
    /// Does it support (some) joins with guarantees?
    pub joins: bool,
    /// Does it need workload foreknowledge (built ahead for specific
    /// columns)?
    pub needs_workload_knowledge: bool,
    /// Does it need maintenance when data changes?
    pub needs_maintenance: bool,
    /// Where its speedup comes from.
    pub speedup_source: &'static str,
    /// Which crate/module implements it here.
    pub implemented_in: &'static str,
}

/// The probe fact table: `rows` rows in blocks of 64 (640 rows make 10
/// blocks; block designs need ≥4), a group column `g` and a measure `v`.
fn probe_fact(rows: i64) -> aqp_storage::Table {
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    let mut b = TableBuilder::with_block_capacity("probe_fact", schema, 64);
    for i in 0..rows {
        b.push_row(&[Value::Int64(i % 8), Value::Float64((i % 13) as f64)])
            .expect("schema matches");
    }
    b.finish()
}

fn probe_dim() -> aqp_storage::Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("label", DataType::Int64),
    ]);
    let mut b = TableBuilder::new("probe_dim", schema);
    for i in 0..8i64 {
        b.push_row(&[Value::Int64(i), Value::Int64(i * 10)])
            .expect("schema matches");
    }
    b.finish()
}

fn probe_query(
    joins: Vec<JoinSpec>,
    predicate: Option<aqp_expr::Expr>,
    group_by: Vec<(aqp_expr::Expr, String)>,
) -> AggQuery {
    AggQuery {
        fact_table: "probe_fact".into(),
        joins,
        predicate,
        group_by,
        aggregates: vec![AggSpec {
            kind: LinearAgg::Sum,
            expr: col("v"),
            alias: "s".into(),
        }],
    }
}

/// A scenario catalog: the probe fact table and its dimension.
fn probe_catalog() -> Catalog {
    let c = Catalog::new();
    c.register(probe_fact(640)).expect("probe_fact");
    c.register(probe_dim()).expect("probe_dim");
    c
}

/// Derives the four routable families' capability rows from the static
/// analyzer's verdicts on canned scenarios, instead of hand-maintaining
/// them:
///
/// * *ad-hoc predicates* / *joins* — is the family statically eligible
///   for a probe query with a predicate / a join?
/// * *a-priori error* — does the analyzer grade the family
///   [`GuaranteeClass::APriori`] on the predicate query?
/// * *needs workload knowledge* — is the family blocked when no synopsis
///   was pre-built for the probe table?
/// * *needs maintenance* — is it blocked when the base table grows past
///   the synopsis it was built on (staleness)?
///
/// Returned in routing-policy order.
fn derived_family_rows() -> Vec<Capability> {
    // Scenario sessions: fresh (synopsis built, data unchanged), bare (no
    // synopsis ever built), stale (synopsis built, then the table grew
    // 2×: staleness 1.0, far past any threshold).
    let (fresh_data, bare_data, stale_data) = (probe_catalog(), probe_catalog(), probe_catalog());
    let fresh = AqpSession::new(&fresh_data);
    let bare = AqpSession::new(&bare_data);
    let stale = AqpSession::new(&stale_data);
    for (session, data) in [(&fresh, &fresh_data), (&stale, &stale_data)] {
        session
            .offline()
            .build_stratified(data, "probe_fact", "g", 128, 7)
            .expect("probe synopsis");
    }
    stale_data.replace(probe_fact(1280));

    let q_pred = probe_query(vec![], Some(col("v").lt(lit(6.0))), vec![]).to_plan();
    let q_join = probe_query(
        vec![JoinSpec {
            dim_table: "probe_dim".into(),
            fact_key: "g".into(),
            dim_key: "k".into(),
        }],
        None,
        vec![],
    )
    .to_plan();
    let pred_on_fresh = fresh.lint_plan(&q_pred);
    let join_on_fresh = fresh.lint_plan(&q_join);
    let pred_on_bare = bare.lint_plan(&q_pred);
    let pred_on_stale = stale.lint_plan(&q_pred);

    // The router's own candidate chain, in policy order.
    let chain = fresh.probe(&q_pred, &ErrorSpec::default());
    (chain.candidates.iter())
        .filter_map(|candidate| {
            let kind = candidate.kind;
            // What each family answers, where its speedup comes from, and
            // the module implementing it.
            let (technique, answers, speedup_source, implemented_in) = match kind {
                TechniqueKind::OfflineSynopsis => (
                    Technique::OfflineStratifiedSample,
                    "linear aggregates on the synopsized table, grouped by the stratification column",
                    "pre-built stratified sample; no base data touched at query time",
                    "core::offline",
                ),
                TechniqueKind::OnlineSampling => (
                    Technique::PilotPlannedSampling,
                    "linear aggregates over star joins with ad-hoc predicates",
                    "pilot-planned Bernoulli block sampling",
                    "core::online",
                ),
                TechniqueKind::OnlineAggregation => (
                    Technique::OnlineAggregation,
                    "ungrouped single-table SUM/AVG of one column, with predicates",
                    "stop as soon as the live interval meets the spec",
                    "core::ola",
                ),
                TechniqueKind::MiddlewareRewrite => (
                    Technique::MiddlewareRewrite,
                    "any normalized star linear-aggregate query, rewritten over a weighted sample",
                    "fixed-rate sample through the unmodified exact engine",
                    "core::rewrite",
                ),
                // The terminal is not an AQP technique: no row.
                TechniqueKind::Exact => return None,
            };
            Some(Capability {
                technique,
                answers,
                a_priori_error: pred_on_fresh.verdict(kind).guarantee == GuaranteeClass::APriori,
                adhoc_predicates: pred_on_fresh.statically_eligible(kind),
                joins: join_on_fresh.statically_eligible(kind),
                needs_workload_knowledge: !pred_on_bare.statically_eligible(kind),
                needs_maintenance: !pred_on_stale.statically_eligible(kind),
                speedup_source,
                implemented_in,
            })
        })
        .collect()
}

/// The live capability matrix. Building-block rows are hand-described;
/// the four routable family rows come from [`derived_family_rows`], each
/// replacing its positional placeholder (the rewrite has none and goes
/// last).
fn capability_matrix() -> Vec<Capability> {
    let mut rows = hand_rows();
    for derived in derived_family_rows() {
        match rows.iter_mut().find(|c| c.technique == derived.technique) {
            Some(placeholder) => *placeholder = derived,
            None => rows.push(derived),
        }
    }
    rows
}

/// The hand-described rows (building blocks without a router entry
/// point), with positional placeholders for the derived families.
fn hand_rows() -> Vec<Capability> {
    vec![
        Capability {
            technique: Technique::UniformRowSample,
            answers: "linear aggregates (SUM/COUNT/AVG)",
            a_priori_error: false,
            adhoc_predicates: true,
            joins: false,
            needs_workload_knowledge: false,
            needs_maintenance: false,
            speedup_source: "less CPU only — still scans every row",
            implemented_in: "aqp-sampling::bernoulli_rows / reservoir_rows",
        },
        Capability {
            technique: Technique::BlockSample,
            answers: "linear aggregates",
            a_priori_error: false,
            adhoc_predicates: true,
            joins: false,
            needs_workload_knowledge: false,
            needs_maintenance: false,
            speedup_source: "skips non-sampled blocks (I/O)",
            implemented_in: "aqp-sampling::bernoulli_blocks",
        },
        // Positional placeholder — content replaced by the analyzer's
        // verdicts in `derived_family_rows()`.
        Capability {
            technique: Technique::OfflineStratifiedSample,
            answers: "(derived)",
            a_priori_error: false,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "(derived)",
            implemented_in: "(derived)",
        },
        Capability {
            technique: Technique::UniverseSample,
            answers: "linear aggregates over key joins",
            a_priori_error: false,
            adhoc_predicates: true,
            joins: true,
            needs_workload_knowledge: false,
            needs_maintenance: false,
            speedup_source: "samples both join sides consistently",
            implemented_in: "aqp-sampling::universe_sample",
        },
        Capability {
            technique: Technique::DistinctSample,
            answers: "group-by with rare-group coverage",
            a_priori_error: false,
            adhoc_predicates: true,
            joins: false,
            needs_workload_knowledge: false,
            needs_maintenance: false,
            speedup_source: "thins heavy keys, keeps all keys",
            implemented_in: "aqp-sampling::distinct_sample",
        },
        Capability {
            technique: Technique::OutlierIndex,
            answers: "heavy-tailed linear aggregates on the indexed measure",
            a_priori_error: true,
            adhoc_predicates: true,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "exact extremes + small tame sample",
            implemented_in: "aqp-sampling::build_outlier_index",
        },
        Capability {
            technique: Technique::MeasureBiasedSample,
            answers: "SUMs of (functions correlated with) the biased measure",
            a_priori_error: true,
            adhoc_predicates: true,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "tiny sample; zero variance on the biased measure",
            implemented_in: "aqp-sampling::pps_sample",
        },
        Capability {
            technique: Technique::BiLevelSample,
            answers: "linear aggregates on block-clustered data",
            a_priori_error: false,
            adhoc_predicates: true,
            joins: false,
            needs_workload_knowledge: false,
            needs_maintenance: false,
            speedup_source: "block skipping + within-block decorrelation",
            implemented_in: "aqp-sampling::bilevel_sample",
        },
        Capability {
            technique: Technique::FrequencySketch,
            answers: "point frequencies / heavy hitters",
            a_priori_error: true,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "constant-size summary",
            implemented_in: "aqp-sketch::{CountMinSketch, CountSketch}",
        },
        Capability {
            technique: Technique::DistinctSketch,
            answers: "COUNT(DISTINCT column)",
            a_priori_error: true,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "constant-size summary",
            implemented_in: "aqp-sketch::{HyperLogLog, KmvSketch}",
        },
        Capability {
            technique: Technique::QuantileSketch,
            answers: "quantiles / medians of a column",
            a_priori_error: true,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "sublinear summary",
            implemented_in: "aqp-sketch::GkQuantiles",
        },
        Capability {
            technique: Technique::Histogram,
            answers: "range COUNT/SUM on the summarized column",
            a_priori_error: false,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "constant-size summary",
            implemented_in: "aqp-sketch::{EquiWidthHistogram, EquiDepthHistogram}",
        },
        Capability {
            technique: Technique::Wavelet,
            answers: "range aggregates on the summarized column",
            a_priori_error: false,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: true,
            needs_maintenance: true,
            speedup_source: "top-B coefficient summary",
            implemented_in: "aqp-sketch::WaveletSynopsis",
        },
        // Positional placeholders — content replaced by the analyzer's
        // verdicts in `derived_family_rows()`.
        Capability {
            technique: Technique::OnlineAggregation,
            answers: "(derived)",
            a_priori_error: false,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: false,
            needs_maintenance: false,
            speedup_source: "(derived)",
            implemented_in: "(derived)",
        },
        Capability {
            technique: Technique::PilotPlannedSampling,
            answers: "(derived)",
            a_priori_error: false,
            adhoc_predicates: false,
            joins: false,
            needs_workload_knowledge: false,
            needs_maintenance: false,
            speedup_source: "(derived)",
            implemented_in: "(derived)",
        },
    ]
}

/// Renders the matrix as a GitHub-flavored markdown table.
pub fn render_markdown() -> String {
    let mut out = String::from(
        "| Technique | Answers | A-priori error | Ad-hoc predicates | Joins | \
         Needs workload knowledge | Needs maintenance | Speedup source | Implemented in |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let tick = |b: bool| if b { "✓" } else { "—" };
    for c in capability_matrix() {
        out.push_str(&format!(
            "| {:?} | {} | {} | {} | {} | {} | {} | {} | `{}` |\n",
            c.technique,
            c.answers,
            tick(c.a_priori_error),
            tick(c.adhoc_predicates),
            tick(c.joins),
            tick(c.needs_workload_knowledge),
            tick(c.needs_maintenance),
            c.speedup_source,
            c.implemented_in,
        ));
    }
    out
}

/// The survey's thesis, checked mechanically: **no technique wins on every
/// axis**. Returns the list of techniques that would refute it (empty in
/// this implementation, as in the literature).
pub fn silver_bullets() -> Vec<Technique> {
    capability_matrix()
        .into_iter()
        .filter(|c| {
            c.a_priori_error
                && c.adhoc_predicates
                && c.joins
                && !c.needs_workload_knowledge
                && !c.needs_maintenance
                // A true silver bullet must also beat exact execution on
                // arbitrary queries, which pilot-planned sampling does not:
                // it declines selective/small-group queries (E9, E11).
                && !matches!(c.technique, Technique::PilotPlannedSampling)
        })
        .map(|c| c.technique)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_technique_once() {
        let m = capability_matrix();
        let mut seen = std::collections::HashSet::new();
        for c in &m {
            assert!(seen.insert(c.technique), "{:?} listed twice", c.technique);
        }
        assert_eq!(m.len(), 16);
    }

    #[test]
    fn derived_rows_read_real_verdicts() {
        let rows = capability_matrix();
        let row = |t: Technique| {
            rows.iter()
                .find(|c| c.technique == t)
                .unwrap_or_else(|| panic!("{t:?} missing"))
                .clone()
        };
        // No derived placeholder text may survive into the matrix.
        for c in &rows {
            assert_ne!(c.answers, "(derived)", "{:?} not derived", c.technique);
        }
        let offline = row(Technique::OfflineStratifiedSample);
        assert!(offline.a_priori_error);
        assert!(offline.adhoc_predicates);
        assert!(!offline.joins, "one-table synopsis cannot serve joins");
        assert!(offline.needs_workload_knowledge);
        assert!(offline.needs_maintenance, "stale synopsis must disqualify");
        let pilot = row(Technique::PilotPlannedSampling);
        assert!(pilot.a_priori_error);
        assert!(pilot.adhoc_predicates);
        assert!(pilot.joins);
        assert!(!pilot.needs_workload_knowledge);
        assert!(!pilot.needs_maintenance);
        let ola = row(Technique::OnlineAggregation);
        assert!(!ola.a_priori_error, "progressive CI is a-posteriori");
        assert!(ola.adhoc_predicates);
        let rewrite = row(Technique::MiddlewareRewrite);
        assert!(!rewrite.a_priori_error, "point estimates carry no contract");
        assert!(rewrite.adhoc_predicates);
        assert!(rewrite.joins);
        assert!(!rewrite.needs_workload_knowledge);
    }

    /// The derived rows are the router's candidate chain, in its policy
    /// order, exact left out.
    #[test]
    fn derived_rows_follow_the_routing_policy() {
        let order: Vec<Technique> = derived_family_rows().iter().map(|c| c.technique).collect();
        assert_eq!(
            order,
            [
                Technique::OfflineStratifiedSample,
                Technique::PilotPlannedSampling,
                Technique::OnlineAggregation,
                Technique::MiddlewareRewrite,
            ]
        );
    }

    #[test]
    fn no_silver_bullet() {
        assert!(silver_bullets().is_empty(), "the paper title holds");
    }

    #[test]
    fn every_offline_technique_needs_maintenance() {
        for c in capability_matrix() {
            if c.needs_workload_knowledge {
                assert!(
                    c.needs_maintenance,
                    "{:?} is pre-computed but claims zero maintenance",
                    c.technique
                );
            }
        }
    }

    #[test]
    fn sketches_do_not_run_predicates() {
        for c in capability_matrix() {
            if matches!(
                c.technique,
                Technique::FrequencySketch
                    | Technique::DistinctSketch
                    | Technique::QuantileSketch
                    | Technique::Histogram
                    | Technique::Wavelet
            ) {
                assert!(!c.adhoc_predicates, "{:?}", c.technique);
            }
        }
    }

    #[test]
    fn markdown_renders_all_rows() {
        let md = render_markdown();
        assert_eq!(md.lines().count(), 2 + capability_matrix().len());
        assert!(md.contains("PilotPlannedSampling"));
        assert!(md.contains("HyperLogLog"));
    }
}
