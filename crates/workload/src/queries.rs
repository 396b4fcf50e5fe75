//! An ad-hoc aggregation-workload generator with a drift knob.
//!
//! Offline AQP commits to the columns it expects; NSB's maintenance-trap
//! argument is that real dashboards *drift*. The generator makes that
//! concrete: at `drift = 0` every query aggregates the anticipated measure
//! (`l_price`) and groups by the anticipated column (`l_shipmode`) — the
//! ones an offline synopsis would be stratified on; as `drift → 1` queries
//! move to other measures, other group-bys, and joins the synopsis never
//! anticipated.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use aqp_engine::{AggExpr, AggFunc, LogicalPlan, Query};
use aqp_expr::{col, lit};

/// Configuration for a generated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub num_queries: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability that a query departs from the anticipated columns.
    pub drift: f64,
    /// Probability that a query joins `lineitem ⋈ orders`.
    pub join_fraction: f64,
    /// Probability that a query has a GROUP BY.
    pub group_by_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_queries: 40,
            seed: 0xC0FFEE,
            drift: 0.3,
            join_fraction: 0.3,
            group_by_fraction: 0.4,
        }
    }
}

/// One generated query plus the metadata experiments need.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The plan (aggregation over the star schema).
    pub plan: LogicalPlan,
    /// Human-readable description.
    pub description: String,
    /// Whether the plan contains a join.
    pub uses_join: bool,
    /// The GROUP BY column, if any.
    pub group_by: Option<String>,
    /// The aggregated measure column.
    pub measure: String,
    /// The WHERE predicate's selectivity handle (fraction selected).
    pub selectivity: f64,
    /// Whether the query stayed on the anticipated column set.
    pub anticipated: bool,
}

/// The measure an offline synopsis would anticipate.
const ANTICIPATED_MEASURE: &str = "l_price";
/// The group-by column an offline synopsis would be stratified on.
const ANTICIPATED_GROUP: &str = "l_shipmode";

const DRIFT_MEASURES: [&str; 2] = ["l_quantity", "l_discount"];
const DRIFT_GROUPS: [&str; 2] = ["l_partkey", "o_priority"];

/// Generates a workload over the star schema of [`crate::star`].
pub fn generate_workload(config: &WorkloadConfig) -> Vec<GeneratedQuery> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.num_queries);
    for qi in 0..config.num_queries {
        let drifted = rng.gen::<f64>() < config.drift;
        let wants_join = rng.gen::<f64>() < config.join_fraction;
        let wants_group = rng.gen::<f64>() < config.group_by_fraction;

        let measure = if drifted {
            DRIFT_MEASURES[rng.gen_range(0..DRIFT_MEASURES.len())]
        } else {
            ANTICIPATED_MEASURE
        };
        let selectivity = 10f64.powf(rng.gen_range(-2.0..0.0)); // 1%..100%
        let func = match rng.gen_range(0..3) {
            0 => AggFunc::Sum,
            1 => AggFunc::Avg,
            _ => AggFunc::CountStar,
        };

        // o_priority grouping requires the join.
        let group_col: Option<&str> = if wants_group {
            if drifted {
                Some(DRIFT_GROUPS[rng.gen_range(0..DRIFT_GROUPS.len())])
            } else {
                Some(ANTICIPATED_GROUP)
            }
        } else {
            None
        };
        let needs_join = wants_join || group_col == Some("o_priority");

        let mut q = Query::scan("lineitem");
        if needs_join {
            q = q.join(Query::scan("orders"), col("l_orderkey"), col("o_key"));
        }
        q = q.filter(col("l_sel").lt(lit(selectivity)));
        let group_exprs = match group_col {
            Some(g) => vec![(col(g), g.to_string())],
            None => vec![],
        };
        let agg = match func {
            AggFunc::CountStar => AggExpr::count_star("agg"),
            AggFunc::Sum => AggExpr::sum(col(measure), "agg"),
            _ => AggExpr::avg(col(measure), "agg"),
        };
        let plan = q.aggregate(group_exprs, vec![agg]).build();

        out.push(GeneratedQuery {
            description: format!(
                "Q{qi}: {func} of {measure}{}{} at selectivity {selectivity:.3}",
                if needs_join { " with join" } else { "" },
                match group_col {
                    Some(g) => format!(" grouped by {g}"),
                    None => String::new(),
                },
            ),
            uses_join: needs_join,
            group_by: group_col.map(str::to_string),
            measure: measure.to_string(),
            selectivity,
            anticipated: !drifted,
            plan,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_star_schema, StarScale};
    use aqp_engine::execute;
    use aqp_storage::Catalog;

    #[test]
    fn generates_requested_count() {
        let w = generate_workload(&WorkloadConfig::default());
        assert_eq!(w.len(), 40);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_workload(&WorkloadConfig::default());
        let b = generate_workload(&WorkloadConfig::default());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.description, y.description);
            assert_eq!(x.plan, y.plan);
        }
    }

    #[test]
    fn drift_zero_stays_anticipated() {
        let w = generate_workload(&WorkloadConfig {
            drift: 0.0,
            ..Default::default()
        });
        assert!(w.iter().all(|q| q.anticipated));
        assert!(w.iter().all(|q| q.measure == ANTICIPATED_MEASURE));
    }

    #[test]
    fn drift_one_always_departs() {
        let w = generate_workload(&WorkloadConfig {
            drift: 1.0,
            ..Default::default()
        });
        assert!(w.iter().all(|q| !q.anticipated));
        assert!(w.iter().all(|q| q.measure != ANTICIPATED_MEASURE));
    }

    #[test]
    fn join_flag_matches_plan() {
        let w = generate_workload(&WorkloadConfig {
            join_fraction: 1.0,
            ..Default::default()
        });
        for q in &w {
            assert!(q.uses_join);
            assert_eq!(q.plan.scanned_tables(), vec!["lineitem", "orders"]);
        }
        let w = generate_workload(&WorkloadConfig {
            join_fraction: 0.0,
            group_by_fraction: 0.0,
            ..Default::default()
        });
        for q in &w {
            assert!(!q.uses_join);
            assert_eq!(q.plan.scanned_tables(), vec!["lineitem"]);
        }
    }

    #[test]
    fn all_generated_queries_execute() {
        let c = Catalog::new();
        build_star_schema(&c, &StarScale::tiny(), 3).unwrap();
        let w = generate_workload(&WorkloadConfig {
            num_queries: 30,
            ..Default::default()
        });
        for q in &w {
            let r =
                execute(&q.plan, &c).unwrap_or_else(|e| panic!("{} failed: {e}", q.description));
            assert!(r.num_rows() >= 1, "{} returned nothing", q.description);
        }
    }

    #[test]
    fn selectivities_span_range() {
        let w = generate_workload(&WorkloadConfig {
            num_queries: 100,
            ..Default::default()
        });
        let min = w.iter().map(|q| q.selectivity).fold(1.0f64, f64::min);
        let max = w.iter().map(|q| q.selectivity).fold(0.0f64, f64::max);
        assert!(min < 0.05, "min selectivity {min}");
        assert!(max > 0.5, "max selectivity {max}");
    }
}
