//! # aqp-analyze — static plan analysis for the AQP router (aqp-lint)
//!
//! NSB's central claim is that every AQP technique buys speed by narrowing
//! generality or weakening guarantees — and that most of that narrowing is
//! *decidable before execution*. This crate operationalizes the claim: a
//! pass-based analyzer walks a typed [`LogicalPlan`], consults catalog and
//! synopsis *metadata* (never data), and produces an [`Analysis`]:
//!
//! - one [`TechniqueVerdict`] per family — the best statically attainable
//!   [`GuaranteeClass`], or the [`DeclineReason`] that rules the family
//!   out, and
//! - a stream of structured [`Diagnostic`]s with stable codes
//!   ([`LintCode`] `A001`–`A014`), severities, offending-node paths, and
//!   machine-readable [`Suggestion`]s.
//!
//! ## One eligibility decision
//!
//! The verdict is not a prediction of what some runtime probe would say:
//! it *is* the a-priori eligibility decision, and the family passes in
//! [`passes`](crate) are the only place a family's checks, their order
//! and their thresholds ([`LintPolicy`]) are written. `AqpSession` routes
//! on the verdicts directly; a family whose `answer` is called outside
//! the router asks for its own verdict through [`verdict_for`] and
//! declines with the same reason. What remains falsifiable is the
//! static/dynamic split, and a property test pins it: a statically
//! eligible family never declines at runtime for a *static* reason
//! ([`DeclineReason::is_static`]).
//!
//! ## Example
//!
//! ```
//! use aqp_analyze::{lint_plan, GuaranteeClass, LintContext, TechniqueKind};
//! use aqp_engine::{AggExpr, Query};
//! use aqp_expr::col;
//! use aqp_storage::Catalog;
//! use aqp_workload::uniform_table;
//!
//! let catalog = Catalog::new();
//! catalog.register(uniform_table("t", 4_096, 256, 7)).unwrap();
//! let plan = Query::scan("t")
//!     .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
//!     .build();
//!
//! let analysis = lint_plan(&plan, &LintContext::new(&catalog));
//! assert!(analysis.statically_eligible(TechniqueKind::OnlineSampling));
//! assert_eq!(analysis.best_attainable(), GuaranteeClass::Exact);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod code;
mod context;
mod diag;
mod passes;
mod query;
mod technique;

pub use analysis::{Analysis, GuaranteeClass, TechniqueVerdict};
pub use code::{LintCode, Severity};
pub use context::{LintContext, LintPolicy, QuarantineMeta, SynopsisMeta};
pub use diag::{Diagnostic, Suggestion};
pub use passes::verdict_for;
pub use query::{AggQuery, AggSpec, JoinSpec, LinearAgg};
pub use technique::{DeclineReason, Guarantee, TechniqueKind, MIN_SAMPLING_BLOCKS};

use aqp_engine::LogicalPlan;

/// Statically analyzes `plan`: normalizes it, runs every pass, and returns
/// the verdicts + diagnostics. Metadata-only — no base-table data is read,
/// so cost is linear in plan size, independent of table size.
pub fn lint_plan(plan: &LogicalPlan, ctx: &LintContext) -> Analysis {
    let query = AggQuery::from_plan(plan);
    passes::run(plan, query.as_ref(), ctx)
}

/// [`lint_plan`] for callers that already normalized the plan (the session
/// does, and must not pay `from_plan` twice). `query` must be the result
/// of [`AggQuery::from_plan`] on this same `plan`.
pub fn lint_with(plan: &LogicalPlan, query: Option<&AggQuery>, ctx: &LintContext) -> Analysis {
    passes::run(plan, query, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_engine::{AggExpr, Query};
    use aqp_expr::{col, lit};
    use aqp_storage::Catalog;
    use aqp_workload::uniform_table;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(uniform_table("t", 4_096, 256, 7)).unwrap();
        c
    }

    #[test]
    fn clean_ungrouped_sum_is_widely_eligible() {
        let c = catalog();
        let plan = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build();
        let a = lint_plan(&plan, &LintContext::new(&c));
        assert!(a.normalized);
        assert!(a.statically_eligible(TechniqueKind::OnlineSampling));
        assert!(a.statically_eligible(TechniqueKind::OnlineAggregation));
        assert!(a.statically_eligible(TechniqueKind::MiddlewareRewrite));
        assert!(!a.statically_eligible(TechniqueKind::OfflineSynopsis));
        assert!(a.has(LintCode::A005NoSynopsis));
        assert_eq!(a.best_approximate(), GuaranteeClass::APriori);
    }

    #[test]
    fn nonlinear_aggregate_fires_a001_and_blocks_everything() {
        let c = catalog();
        let plan = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::min(col("v"), "m")])
            .build();
        let a = lint_plan(&plan, &LintContext::new(&c));
        assert!(!a.normalized);
        assert!(a.has(LintCode::A001NonClosedAggregate));
        assert!(!a.has(LintCode::A002UnsupportedShape));
        for k in [
            TechniqueKind::OfflineSynopsis,
            TechniqueKind::OnlineSampling,
            TechniqueKind::OnlineAggregation,
            TechniqueKind::MiddlewareRewrite,
        ] {
            assert!(!a.statically_eligible(k), "{k} should be shape-blocked");
        }
        assert!(a.statically_eligible(TechniqueKind::Exact));
        assert_eq!(a.best_attainable(), GuaranteeClass::Exact);
    }

    #[test]
    fn non_aggregate_root_fires_a002() {
        let c = catalog();
        let plan = Query::scan("t").filter(col("v").gt(lit(1i64))).build();
        let a = lint_plan(&plan, &LintContext::new(&c));
        assert!(a.has(LintCode::A002UnsupportedShape));
        assert!(!a.has(LintCode::A001NonClosedAggregate));
    }

    #[test]
    fn missing_table_fires_a009_and_blocks_exact() {
        let c = Catalog::new();
        let plan = Query::scan("ghost")
            .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
            .build();
        let a = lint_plan(&plan, &LintContext::new(&c));
        let d = a.diag(LintCode::A009MissingTable).expect("A009");
        assert_eq!(d.severity, Severity::Error);
        assert!(!a.statically_eligible(TechniqueKind::Exact));
        assert_eq!(a.best_attainable(), GuaranteeClass::Unattainable);
    }

    #[test]
    fn universe_sampling_predicate_silences_a012() {
        let c = catalog();
        let dim = uniform_table("d", 1_024, 256, 9);
        c.register(dim).unwrap();
        let star = |pred: aqp_expr::Expr| {
            Query::scan("t")
                .join(Query::scan("d"), col("fk"), col("pk"))
                .filter(pred)
                .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
                .build()
        };
        let plain = lint_plan(&star(col("v").gt(lit(0i64))), &LintContext::new(&c));
        assert!(plain.has(LintCode::A012SampledJoinPrecondition));
        let universe = lint_plan(
            &star(col("fk").hash64().modulo(lit(10i64)).lt(lit(3i64))),
            &LintContext::new(&c),
        );
        assert!(!universe.has(LintCode::A012SampledJoinPrecondition));
    }
}
