//! The analyzer passes.
//!
//! Each family pass *is* that family's a-priori eligibility decision —
//! the only implementation of its checks, order and thresholds. The
//! router reads the resulting [`TechniqueVerdict`] instead of asking the
//! family, and a family handed a query directly consults its own pass
//! ([`verdict_for`]) before it touches data, so the two cannot
//! disagree about what a family serves.
//!
//! Pass order (also the diagnostic emission order):
//!   shape → catalog → offline → sampling → progressive → rewrite → risk

use aqp_engine::LogicalPlan;
use aqp_expr::Expr;

use crate::analysis::{Analysis, GuaranteeClass, TechniqueVerdict};
use crate::code::{LintCode, Severity};
use crate::context::LintContext;
use crate::diag::{Diagnostic, Suggestion};
use crate::query::{AggQuery, LinearAgg};
use crate::technique::{DeclineReason, TechniqueKind};

/// The decline detail of every family when a plan falls outside the
/// normalized shape.
const NOT_NORMALIZED: &str = "plan is not a normalized star linear-aggregate query";

fn blocked(kind: TechniqueKind, reason: DeclineReason) -> TechniqueVerdict {
    TechniqueVerdict {
        kind,
        guarantee: GuaranteeClass::Unattainable,
        blocked_by: Some(reason),
    }
}

fn eligible(kind: TechniqueKind, guarantee: GuaranteeClass) -> TechniqueVerdict {
    TechniqueVerdict {
        kind,
        guarantee,
        blocked_by: None,
    }
}

/// Shared head of every family pass: a technique the accuracy auditor
/// quarantined is blocked before any shape or catalog check runs — the
/// session will not route to it no matter how eligible it looks.
fn quarantine_check(
    kind: TechniqueKind,
    ctx: &LintContext,
    diags: &mut Vec<Diagnostic>,
) -> Option<TechniqueVerdict> {
    let q = ctx.quarantine_for(kind)?;
    let reason = DeclineReason::Quarantined {
        coverage_bp: q.coverage_bp,
        floor_bp: q.floor_bp,
    };
    diags.push(Diagnostic {
        code: LintCode::A014TechniqueQuarantined,
        severity: Severity::Warn,
        technique: Some(kind),
        path: "session".to_string(),
        message: format!(
            "{kind} is quarantined: audited coverage {:.2} fell below the floor {:.2}; \
             it recovers when coverage does (or after synopsis maintenance)",
            q.coverage_bp as f64 / 10_000.0,
            q.floor_bp as f64 / 10_000.0
        ),
        suggestion: None,
        predicts: Some(reason.clone()),
    });
    Some(blocked(kind, reason))
}

/// Runs every pass over `plan` (pre-normalized as `query` when it is in
/// shape) and assembles the [`Analysis`].
pub(crate) fn run(plan: &LogicalPlan, query: Option<&AggQuery>, ctx: &LintContext) -> Analysis {
    let mut diags = Vec::new();
    let missing = missing_tables(plan, ctx);
    let group_cardinality_hint = group_cardinality_hint(plan);

    let Some(q) = query else {
        shape_pass(plan, &mut diags);
        catalog_pass(&missing, &mut diags);
        let shape_reason = DeclineReason::UnsupportedShape {
            detail: NOT_NORMALIZED.to_string(),
        };
        let verdicts = vec![
            blocked(TechniqueKind::OfflineSynopsis, shape_reason.clone()),
            blocked(TechniqueKind::OnlineSampling, shape_reason.clone()),
            blocked(TechniqueKind::OnlineAggregation, shape_reason.clone()),
            blocked(TechniqueKind::MiddlewareRewrite, shape_reason),
            exact_pass(&missing),
        ];
        return Analysis {
            diagnostics: diags,
            verdicts,
            normalized: false,
            group_cardinality_hint,
        };
    };

    catalog_pass(&missing, &mut diags);
    let verdicts = vec![
        offline_pass(q, ctx, &mut diags),
        sampling_pass(q, ctx, &mut diags),
        progressive_pass(q, ctx, &mut diags),
        rewrite_pass(q, ctx, &mut diags),
        exact_pass(&missing),
    ];
    risk_pass(q, &verdicts, ctx, &mut diags);
    Analysis {
        diagnostics: diags,
        verdicts,
        normalized: true,
        group_cardinality_hint,
    }
}

/// One family's verdict on an already-normalized query — the same pass
/// [`crate::lint_with`] runs for it, diagnostics discarded. A family's
/// `answer` guards itself with this, so a query handed to it directly is
/// declined for the reason the router would have recorded.
pub fn verdict_for(kind: TechniqueKind, q: &AggQuery, ctx: &LintContext) -> TechniqueVerdict {
    let diags = &mut Vec::new();
    match kind {
        TechniqueKind::OfflineSynopsis => offline_pass(q, ctx, diags),
        TechniqueKind::OnlineSampling => sampling_pass(q, ctx, diags),
        TechniqueKind::OnlineAggregation => progressive_pass(q, ctx, diags),
        TechniqueKind::MiddlewareRewrite => rewrite_pass(q, ctx, diags),
        TechniqueKind::Exact => exact_pass(&missing_tables(&q.to_plan(), ctx)),
    }
}

/// Static bound on the root aggregation's group count, from key shapes
/// alone: a global aggregate has one group, `x % k` at most `|k|`
/// non-negative residues, a literal key one value; composite keys
/// multiply. `None` when the root is not an aggregation or any key is
/// unbounded. Purely shape-based — never touches data — so it holds for
/// any catalog contents (up to sign: a negative `x` yields negative
/// residues too, which at worst doubles the estimate; consumers treat
/// this as a sizing hint, not a guarantee).
fn group_cardinality_hint(plan: &LogicalPlan) -> Option<u64> {
    let LogicalPlan::Aggregate { group_by, .. } = plan else {
        return None;
    };
    group_by.iter().try_fold(1u64, |bound, (e, _)| {
        bound.checked_mul(key_cardinality_bound(e)?)
    })
}

fn key_cardinality_bound(e: &Expr) -> Option<u64> {
    match e {
        Expr::Literal(_) => Some(1),
        Expr::Binary {
            op: aqp_expr::BinaryOp::Mod,
            right,
            ..
        } => match right.as_ref() {
            Expr::Literal(aqp_storage::Value::Int64(k)) if *k != 0 => Some(k.unsigned_abs()),
            _ => None,
        },
        _ => None,
    }
}

/// Tables the plan scans that the catalog does not know, in scan order.
fn missing_tables(plan: &LogicalPlan, ctx: &LintContext) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for t in plan.scanned_tables() {
        if ctx.catalog.get(t).is_err() && !out.iter().any(|m| m == t) {
            out.push(t.to_string());
        }
    }
    out
}

/// Shape pass — only runs when normalization failed. Distinguishes "an
/// aggregate is not closed under sampling" (A001, the theory says no) from
/// "the plan is outside the normalized form" (A002, this implementation
/// says no).
fn shape_pass(plan: &LogicalPlan, diags: &mut Vec<Diagnostic>) {
    let mut non_closed = 0usize;
    if let LogicalPlan::Aggregate { aggregates, .. } = plan {
        for (i, a) in aggregates.iter().enumerate() {
            if a.func.is_linear() {
                continue;
            }
            non_closed += 1;
            diags.push(Diagnostic {
                code: LintCode::A001NonClosedAggregate,
                severity: Severity::Error,
                technique: None,
                path: format!("aggregate.aggregates[{i}]"),
                message: format!(
                    "`{}` computes {} — not closed under uniform sampling, no \
                     sampling-based estimator can bound its error",
                    a.alias, a.func
                ),
                // No family answers it from a synopsis either: exact is
                // the route this system has.
                suggestion: Some(Suggestion::RouteExact),
                predicts: Some(DeclineReason::UnsupportedAggregate {
                    alias: a.alias.clone(),
                    detail: "not closed under uniform sampling".to_string(),
                }),
            });
        }
    }
    if non_closed == 0 {
        // Normalization failed for a structural reason (non-aggregate root,
        // exotic join shape, COUNT(expr), ...), not a theoretical one.
        diags.push(Diagnostic {
            code: LintCode::A002UnsupportedShape,
            severity: Severity::Error,
            technique: None,
            path: "plan".to_string(),
            message: NOT_NORMALIZED.to_string(),
            suggestion: Some(Suggestion::RouteExact),
            predicts: Some(DeclineReason::UnsupportedShape {
                detail: NOT_NORMALIZED.to_string(),
            }),
        });
    }
}

/// Catalog pass: one A009 per missing table. Blocks every family, exact
/// included, so it is the only `Error` a normalized plan can carry.
fn catalog_pass(missing: &[String], diags: &mut Vec<Diagnostic>) {
    for table in missing {
        diags.push(Diagnostic {
            code: LintCode::A009MissingTable,
            severity: Severity::Error,
            technique: None,
            path: format!("scan({table})"),
            message: format!("table `{table}` not found in the catalog"),
            suggestion: None,
            predicts: Some(DeclineReason::MissingTable {
                table: table.clone(),
            }),
        });
    }
}

/// The column a stratified synopsis for this query should cover: the
/// grouping column when there is one, else the first aggregated column.
fn stratify_column(q: &AggQuery) -> Option<String> {
    for (expr, _) in &q.group_by {
        if let Expr::Column(name) = expr {
            return Some(name.clone());
        }
    }
    for a in &q.aggregates {
        if let Expr::Column(name) = &a.expr {
            return Some(name.clone());
        }
    }
    None
}

/// The offline family's gates, in order: joins → synopsis existence →
/// stratification/grouping match → staleness (where a vanished base table
/// surfaces as `MissingTable`: `OfflineStore::staleness` errors on it).
fn offline_pass(q: &AggQuery, ctx: &LintContext, diags: &mut Vec<Diagnostic>) -> TechniqueVerdict {
    let kind = TechniqueKind::OfflineSynopsis;
    if let Some(v) = quarantine_check(kind, ctx, diags) {
        return v;
    }
    if !q.joins.is_empty() {
        // One A003 covers both single-relation families (offline + OLA);
        // both verdicts still carry the exact predicted reason.
        diags.push(Diagnostic {
            code: LintCode::A003JoinsExcludeFamily,
            severity: Severity::Note,
            technique: None,
            path: "joins".to_string(),
            message: format!(
                "{} join(s) statically exclude offline-synopsis and online-aggregation \
                 (single-relation families)",
                q.joins.len()
            ),
            suggestion: None,
            predicts: Some(DeclineReason::JoinsUnsupported),
        });
        return blocked(kind, DeclineReason::JoinsUnsupported);
    }
    let Some(syn) = ctx.synopsis_for(&q.fact_table) else {
        let reason = DeclineReason::NoSynopsis {
            table: q.fact_table.clone(),
        };
        diags.push(Diagnostic {
            code: LintCode::A005NoSynopsis,
            severity: Severity::Warn,
            technique: Some(kind),
            path: format!("scan({})", q.fact_table),
            message: format!("no offline synopsis has been built for `{}`", q.fact_table),
            suggestion: stratify_column(q).map(|column| Suggestion::BuildStratifiedSynopsis {
                table: q.fact_table.clone(),
                column,
            }),
            predicts: Some(reason.clone()),
        });
        return blocked(kind, reason);
    };
    // A group-by outside the stratification column would get no
    // per-group coverage guarantee (the E8 drift failure): block it so
    // the router prefers a technique that can actually cover it.
    for (i, (expr, _)) in q.group_by.iter().enumerate() {
        let covered = matches!(expr, Expr::Column(name) if *name == syn.stratified_on);
        if !covered {
            let reason = DeclineReason::SynopsisMismatch {
                stratified_on: syn.stratified_on.clone(),
                requested: expr.to_string(),
            };
            diags.push(Diagnostic {
                code: LintCode::A006SynopsisMismatch,
                severity: Severity::Warn,
                technique: Some(kind),
                path: format!("group_by[{i}]"),
                message: format!(
                    "synopsis for `{}` is stratified on `{}` but the query groups by \
                     `{expr}`; per-group coverage would be lost",
                    q.fact_table, syn.stratified_on
                ),
                suggestion: Some(Suggestion::RestratifySynopsis {
                    table: q.fact_table.clone(),
                    column: expr.to_string(),
                }),
                predicts: Some(reason.clone()),
            });
            return blocked(kind, reason);
        }
    }
    match syn.staleness {
        None => blocked(
            kind,
            // Base table gone: `OfflineStore::staleness` errored, so the
            // context carries no staleness. A009 already reported it.
            DeclineReason::MissingTable {
                table: q.fact_table.clone(),
            },
        ),
        Some(s) if s > ctx.policy.max_staleness => {
            let reason = DeclineReason::StaleSynopsis {
                staleness: s,
                max_staleness: ctx.policy.max_staleness,
            };
            diags.push(Diagnostic {
                code: LintCode::A007StaleSynopsis,
                severity: Severity::Warn,
                technique: Some(kind),
                path: format!("scan({})", q.fact_table),
                message: format!(
                    "synopsis staleness {s:.2} exceeds the freshness threshold {:.2}",
                    ctx.policy.max_staleness
                ),
                suggestion: Some(Suggestion::RefreshSynopsis {
                    table: q.fact_table.clone(),
                }),
                predicts: Some(reason.clone()),
            });
            blocked(kind, reason)
        }
        Some(_) => eligible(kind, GuaranteeClass::APriori),
    }
}

/// Pilot-planned sampling's gates: fact table exists → enough blocks for
/// the pilot to estimate spread. The real gates (empty pilot, rate above
/// cap) need data and surface as runtime declines instead.
fn sampling_pass(q: &AggQuery, ctx: &LintContext, diags: &mut Vec<Diagnostic>) -> TechniqueVerdict {
    let kind = TechniqueKind::OnlineSampling;
    if let Some(v) = quarantine_check(kind, ctx, diags) {
        return v;
    }
    let Ok(fact) = ctx.catalog.get(&q.fact_table) else {
        return blocked(
            kind,
            DeclineReason::MissingTable {
                table: q.fact_table.clone(),
            },
        );
    };
    let blocks = fact.block_count() as u64;
    if blocks < ctx.policy.min_sampling_blocks {
        let reason = DeclineReason::TableTooSmall {
            blocks,
            min_blocks: ctx.policy.min_sampling_blocks,
        };
        diags.push(Diagnostic {
            code: LintCode::A008TableTooSmall,
            severity: Severity::Note,
            technique: Some(kind),
            path: format!("scan({})", q.fact_table),
            message: format!(
                "`{}` has {blocks} block(s), fewer than the {} pilot-planned sampling \
                 needs; exact execution is cheaper anyway",
                q.fact_table, ctx.policy.min_sampling_blocks
            ),
            suggestion: Some(Suggestion::RouteExact),
            predicts: Some(reason.clone()),
        });
        return blocked(kind, reason);
    }
    eligible(kind, GuaranteeClass::APriori)
}

/// Progressive aggregation's gates: joins → group-by → exactly one
/// aggregate → SUM/AVG of a bare column → fact table exists.
fn progressive_pass(
    q: &AggQuery,
    ctx: &LintContext,
    diags: &mut Vec<Diagnostic>,
) -> TechniqueVerdict {
    let kind = TechniqueKind::OnlineAggregation;
    if let Some(v) = quarantine_check(kind, ctx, diags) {
        return v;
    }
    if !q.joins.is_empty() {
        // A003 was already emitted by the offline pass.
        return blocked(kind, DeclineReason::JoinsUnsupported);
    }
    if !q.group_by.is_empty() {
        diags.push(Diagnostic {
            code: LintCode::A004ProgressiveShape,
            severity: Severity::Note,
            technique: Some(kind),
            path: "group_by".to_string(),
            message: "progressive aggregation maintains one live interval; grouped \
                      queries are out of shape"
                .to_string(),
            suggestion: None,
            predicts: Some(DeclineReason::GroupByUnsupported),
        });
        return blocked(kind, DeclineReason::GroupByUnsupported);
    }
    let [agg] = q.aggregates.as_slice() else {
        let reason = DeclineReason::UnsupportedShape {
            detail: "progressive aggregation serves exactly one aggregate".to_string(),
        };
        diags.push(Diagnostic {
            code: LintCode::A004ProgressiveShape,
            severity: Severity::Note,
            technique: Some(kind),
            path: "aggregate.aggregates".to_string(),
            message: format!(
                "progressive aggregation serves exactly one aggregate, plan has {}",
                q.aggregates.len()
            ),
            suggestion: None,
            predicts: Some(reason.clone()),
        });
        return blocked(kind, reason);
    };
    if !matches!(agg.kind, LinearAgg::Sum | LinearAgg::Avg) || !matches!(agg.expr, Expr::Column(_))
    {
        let reason = DeclineReason::UnsupportedAggregate {
            alias: agg.alias.clone(),
            detail: "only SUM/AVG of a bare column".to_string(),
        };
        diags.push(Diagnostic {
            code: LintCode::A004ProgressiveShape,
            severity: Severity::Note,
            technique: Some(kind),
            path: "aggregate.aggregates[0]".to_string(),
            message: format!(
                "progressive aggregation covers only SUM/AVG of a bare column; \
                 `{}` is neither",
                agg.alias
            ),
            suggestion: None,
            predicts: Some(reason.clone()),
        });
        return blocked(kind, reason);
    }
    if ctx.catalog.get(&q.fact_table).is_err() {
        return blocked(
            kind,
            DeclineReason::MissingTable {
                table: q.fact_table.clone(),
            },
        );
    }
    eligible(kind, GuaranteeClass::APosteriori)
}

/// The rewrite covers every normalized shape (joins, predicates,
/// group-bys) and answers with the block sample's cluster interval; the
/// only static gate is the fact table existing.
fn rewrite_pass(q: &AggQuery, ctx: &LintContext, diags: &mut Vec<Diagnostic>) -> TechniqueVerdict {
    let kind = TechniqueKind::MiddlewareRewrite;
    if let Some(v) = quarantine_check(kind, ctx, diags) {
        return v;
    }
    if ctx.catalog.get(&q.fact_table).is_err() {
        return blocked(
            kind,
            DeclineReason::MissingTable {
                table: q.fact_table.clone(),
            },
        );
    }
    eligible(kind, GuaranteeClass::APosteriori)
}

/// Exact executes anything whose tables exist — zero-width intervals.
fn exact_pass(missing: &[String]) -> TechniqueVerdict {
    match missing.first() {
        Some(table) => blocked(
            TechniqueKind::Exact,
            DeclineReason::MissingTable {
                table: table.clone(),
            },
        ),
        None => eligible(TechniqueKind::Exact, GuaranteeClass::Exact),
    }
}

/// Whether the predicate contains a `hash64(...)` sub-expression — the
/// universe-sampling shape that makes sampled joins unbiased.
fn has_hash64(predicate: Option<&Expr>) -> bool {
    let Some(p) = predicate else { return false };
    let mut found = false;
    p.walk(&mut |e| {
        if matches!(e, Expr::Hash64(_)) {
            found = true;
        }
    });
    found
}

/// Risk pass: advisory lints about *dynamic* declines the analyzer can
/// foresee but not decide, plus the guarantee-erosion note. Never changes
/// a verdict — statically eligible stays eligible.
fn risk_pass(
    q: &AggQuery,
    verdicts: &[TechniqueVerdict],
    ctx: &LintContext,
    diags: &mut Vec<Diagnostic>,
) {
    let is_eligible = |kind: TechniqueKind| {
        verdicts
            .iter()
            .any(|v| v.kind == kind && v.blocked_by.is_none())
    };

    // A010: a grouped query riding an *unstratified* sampled path — small
    // groups can starve per-group support at runtime.
    if !q.group_by.is_empty()
        && is_eligible(TechniqueKind::MiddlewareRewrite)
        && !is_eligible(TechniqueKind::OfflineSynopsis)
    {
        diags.push(Diagnostic {
            code: LintCode::A010GroupSupportRisk,
            severity: Severity::Warn,
            technique: Some(TechniqueKind::MiddlewareRewrite),
            path: "group_by".to_string(),
            message: "grouped query over an unstratified sample: uniform sampling may \
                      starve small groups below the support minimum"
                .to_string(),
            suggestion: stratify_column(q).map(|column| Suggestion::BuildStratifiedSynopsis {
                table: q.fact_table.clone(),
                column,
            }),
            predicts: Some(DeclineReason::InsufficientSupport {
                rows: 0,
                min_rows: ctx.policy.rewrite_min_group_support,
            }),
        });
    }

    // A011: a predicate over a pilot-planned path — a selective one can
    // empty the pilot or push the planned rate past the pay-off cap.
    if is_eligible(TechniqueKind::OnlineSampling) {
        if let Some(p) = &q.predicate {
            diags.push(Diagnostic {
                code: LintCode::A011SelectivePredicateRisk,
                severity: Severity::Note,
                technique: Some(TechniqueKind::OnlineSampling),
                path: "filter.predicate".to_string(),
                message: format!(
                    "predicate `{p}` filters the pilot too: if it is selective the pilot \
                     can come back empty or the planned rate can exceed the cap"
                ),
                suggestion: Some(Suggestion::RelaxSpecOrRaiseBudget),
                predicts: Some(DeclineReason::EmptyPilot),
            });
        }
    }

    // A012: a sampled join without a universe-sampling key predicate is
    // only unbiased for FK joins into unsampled dimensions.
    if !q.joins.is_empty()
        && is_eligible(TechniqueKind::OnlineSampling)
        && !has_hash64(q.predicate.as_ref())
    {
        diags.push(Diagnostic {
            code: LintCode::A012SampledJoinPrecondition,
            severity: Severity::Note,
            technique: Some(TechniqueKind::OnlineSampling),
            path: "joins".to_string(),
            message: "sampled join relies on the FK-into-unsampled-dimension precondition; \
                      no universe-sampling (hash64) predicate found"
                .to_string(),
            suggestion: Some(Suggestion::UseUniverseSampling {
                key: q.joins[0].fact_key.clone(),
            }),
            predicts: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use aqp_engine::{AggExpr, Query};
    use aqp_expr::{col, lit};

    use super::group_cardinality_hint;

    #[test]
    fn cardinality_hint_follows_key_shapes() {
        // `id % 1000` bounds the residue count.
        let modk = Query::scan("t")
            .aggregate(
                vec![(col("id").modulo(lit(1_000i64)), "g".to_string())],
                vec![AggExpr::count_star("n")],
            )
            .build();
        assert_eq!(group_cardinality_hint(&modk), Some(1_000));

        // A global aggregate has exactly one group.
        let global = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build();
        assert_eq!(group_cardinality_hint(&global), Some(1));

        // Composite keys multiply; a literal contributes one value.
        let composite = Query::scan("t")
            .aggregate(
                vec![
                    (col("id").modulo(lit(8i64)), "a".to_string()),
                    (lit(42i64), "b".to_string()),
                ],
                vec![AggExpr::count_star("n")],
            )
            .build();
        assert_eq!(group_cardinality_hint(&composite), Some(8));

        // A bare column key is unbounded; `% 0` never divides.
        let bare = Query::scan("t")
            .aggregate(
                vec![(col("g"), "g".to_string())],
                vec![AggExpr::count_star("n")],
            )
            .build();
        assert_eq!(group_cardinality_hint(&bare), None);
        let modzero = Query::scan("t")
            .aggregate(
                vec![(col("id").modulo(lit(0i64)), "g".to_string())],
                vec![AggExpr::count_star("n")],
            )
            .build();
        assert_eq!(group_cardinality_hint(&modzero), None);

        // Non-aggregate roots carry no hint.
        let scan = Query::scan("t").build();
        assert_eq!(group_cardinality_hint(&scan), None);
    }
}
