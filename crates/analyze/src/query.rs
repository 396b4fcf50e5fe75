//! The normalized aggregation-query form the AQP planner understands.
//!
//! Online AQP systems intercept plans whose shape they can reason about
//! statistically and pass everything else through to exact execution —
//! NSB's generality axis in code. [`AggQuery::from_plan`] is that
//! interceptor: it recognizes star-shaped linear-aggregate plans
//! (`Aggregate(Filter?(fact ⋈ dim ⋈ …))`) and declines the rest.
//!
//! Lives here (rather than in `aqp-core`, which re-exports it) so the
//! static analyzer normalizes plans with the *same* code the router uses —
//! the two cannot disagree about which plans are in shape.

use aqp_engine::{AggExpr, AggFunc, LogicalPlan, Query};
use aqp_expr::Expr;

/// One foreign-key join from the fact table to a dimension table.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Dimension table name.
    pub dim_table: String,
    /// FK column on the fact side.
    pub fact_key: String,
    /// Key column on the dimension side.
    pub dim_key: String,
}

/// The linear aggregates the sampling theory covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearAgg {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)` (ratio of two linear totals).
    Avg,
}

/// One aggregate of an [`AggQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate kind.
    pub kind: LinearAgg,
    /// Argument expression (ignored for `COUNT(*)`).
    pub expr: Expr,
    /// Output alias.
    pub alias: String,
}

/// A normalized star aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggQuery {
    /// The fact table (the sampling target).
    pub fact_table: String,
    /// FK joins to dimension tables.
    pub joins: Vec<JoinSpec>,
    /// Optional row predicate (may reference fact and dimension columns).
    pub predicate: Option<Expr>,
    /// Group-by expressions with output names.
    pub group_by: Vec<(Expr, String)>,
    /// Aggregates (all linear).
    pub aggregates: Vec<AggSpec>,
}

impl AggQuery {
    /// Reconstructs the equivalent engine plan.
    pub fn to_plan(&self) -> LogicalPlan {
        let mut q = Query::scan(&self.fact_table);
        for j in &self.joins {
            q = q.join(
                Query::scan(&j.dim_table),
                aqp_expr::col(&j.fact_key),
                aqp_expr::col(&j.dim_key),
            );
        }
        if let Some(p) = &self.predicate {
            q = q.filter(p.clone());
        }
        q.aggregate(self.group_by.clone(), self.agg_exprs()).build()
    }

    /// The aggregates as engine aggregate expressions (`COUNT(*)` drops
    /// its ignored argument).
    pub fn agg_exprs(&self) -> Vec<AggExpr> {
        self.aggregates
            .iter()
            .map(|a| match a.kind {
                LinearAgg::CountStar => AggExpr::count_star(&a.alias),
                LinearAgg::Sum => AggExpr::sum(a.expr.clone(), &a.alias),
                LinearAgg::Avg => AggExpr::avg(a.expr.clone(), &a.alias),
            })
            .collect()
    }

    /// Attempts to normalize an engine plan. Returns `None` when the plan
    /// is outside the supported shape — the caller then runs it exactly.
    ///
    /// Supported shape (inside-out): `Scan(fact)`, zero or more
    /// `Join(chain, Scan(dim))` on bare column keys, at most one `Filter`,
    /// exactly one `Aggregate` whose aggregates are all linear.
    pub fn from_plan(plan: &LogicalPlan) -> Option<AggQuery> {
        let LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } = plan
        else {
            return None;
        };
        let aggs: Option<Vec<AggSpec>> = aggregates
            .iter()
            .map(|a| {
                let kind = match a.func {
                    AggFunc::CountStar => LinearAgg::CountStar,
                    AggFunc::Sum => LinearAgg::Sum,
                    AggFunc::Avg => LinearAgg::Avg,
                    _ => return None,
                };
                Some(AggSpec {
                    kind,
                    expr: a.expr.clone(),
                    alias: a.alias.clone(),
                })
            })
            .collect();
        let aggs = aggs?;
        if aggs.is_empty() {
            return None;
        }

        // Peel an optional filter.
        let (predicate, mut node): (Option<Expr>, &LogicalPlan) = match input.as_ref() {
            LogicalPlan::Filter {
                input: inner,
                predicate,
            } => (Some(predicate.clone()), inner.as_ref()),
            other => (None, other),
        };

        // Peel the join chain down to the fact scan.
        let mut joins_rev = Vec::new();
        loop {
            match node {
                LogicalPlan::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                } => {
                    let LogicalPlan::Scan { table: dim } = right.as_ref() else {
                        return None;
                    };
                    let (Expr::Column(fk), Expr::Column(dk)) = (left_key, right_key) else {
                        return None;
                    };
                    joins_rev.push(JoinSpec {
                        dim_table: dim.clone(),
                        fact_key: fk.clone(),
                        dim_key: dk.clone(),
                    });
                    node = left.as_ref();
                }
                LogicalPlan::Scan { table } => {
                    joins_rev.reverse();
                    return Some(AggQuery {
                        fact_table: table.clone(),
                        joins: joins_rev,
                        predicate,
                        group_by: group_by.clone(),
                        aggregates: aggs,
                    });
                }
                _ => return None,
            }
        }
    }

    /// Total number of aggregate estimates per group (for Boole splitting).
    pub fn num_aggregates(&self) -> usize {
        self.aggregates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_expr::{col, lit};

    fn star_plan() -> LogicalPlan {
        Query::scan("lineitem")
            .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
            .filter(col("l_sel").lt(lit(0.1)))
            .aggregate(
                vec![(col("o_priority"), "o_priority".to_string())],
                vec![
                    AggExpr::sum(col("l_price"), "rev"),
                    AggExpr::count_star("n"),
                ],
            )
            .build()
    }

    #[test]
    fn roundtrip_through_from_plan_and_to_plan() {
        let plan = star_plan();
        let q = AggQuery::from_plan(&plan).expect("supported shape");
        assert_eq!(q.fact_table, "lineitem");
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].dim_table, "orders");
        assert_eq!(q.joins[0].fact_key, "l_orderkey");
        assert!(q.predicate.is_some());
        assert_eq!(q.num_aggregates(), 2);
        assert_eq!(q.to_plan(), plan);
    }

    #[test]
    fn simple_scan_aggregate() {
        let plan = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::avg(col("v"), "a")])
            .build();
        let q = AggQuery::from_plan(&plan).unwrap();
        assert!(q.joins.is_empty());
        assert!(q.predicate.is_none());
        assert_eq!(q.aggregates[0].kind, LinearAgg::Avg);
        assert_eq!(q.to_plan(), plan);
    }

    #[test]
    fn rejects_nonlinear_aggregates() {
        let plan = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::min(col("v"), "m")])
            .build();
        assert!(AggQuery::from_plan(&plan).is_none());
        let plan = Query::scan("t")
            .aggregate(vec![], vec![AggExpr::count_distinct(col("v"), "d")])
            .build();
        assert!(AggQuery::from_plan(&plan).is_none());
    }

    #[test]
    fn rejects_non_aggregate_roots() {
        let plan = Query::scan("t").filter(col("v").gt(lit(1i64))).build();
        assert!(AggQuery::from_plan(&plan).is_none());
    }

    #[test]
    fn rejects_exotic_shapes() {
        // Join whose right side is not a bare scan.
        let plan = Query::scan("t")
            .join(
                Query::scan("u").filter(col("w").gt(lit(0i64))),
                col("id"),
                col("id"),
            )
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        assert!(AggQuery::from_plan(&plan).is_none());
        // Join on computed keys.
        let plan = Query::scan("t")
            .join(Query::scan("u"), col("id").add(lit(1i64)), col("id"))
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        assert!(AggQuery::from_plan(&plan).is_none());
        // Union root under aggregate.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::UnionAll {
                inputs: vec![LogicalPlan::Scan { table: "t".into() }],
            }),
            group_by: vec![],
            aggregates: vec![AggExpr::count_star("n")],
        };
        assert!(AggQuery::from_plan(&plan).is_none());
    }

    #[test]
    fn two_dim_star() {
        let plan = Query::scan("lineitem")
            .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
            .join(Query::scan("part"), col("l_partkey"), col("p_key"))
            .aggregate(vec![], vec![AggExpr::sum(col("l_price"), "s")])
            .build();
        let q = AggQuery::from_plan(&plan).unwrap();
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].dim_table, "orders");
        assert_eq!(q.joins[1].dim_table, "part");
        assert_eq!(q.to_plan(), plan);
    }
}
