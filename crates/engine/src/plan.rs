//! Logical plans and the typed query-builder API.

use std::sync::Arc;

use aqp_expr::Expr;
use aqp_storage::{Catalog, Field, Schema};

use crate::agg::AggExpr;
use crate::error::EngineError;

/// A sort key: column name plus direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// Output-column name to sort by.
    pub column: String,
    /// Descending when true.
    pub desc: bool,
}

impl SortKey {
    /// Ascending sort on a column.
    pub fn asc(column: impl Into<String>) -> Self {
        Self {
            column: column.into(),
            desc: false,
        }
    }

    /// Descending sort on a column.
    pub fn desc(column: impl Into<String>) -> Self {
        Self {
            column: column.into(),
            desc: true,
        }
    }
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum LogicalPlan {
    /// Scan a catalog table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows where the predicate is TRUE.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Compute named expressions.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Inner equi-join on key expressions.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Key expression over the left schema.
        left_key: Expr,
        /// Key expression over the right schema.
        right_key: Expr,
    },
    /// Hash aggregation with optional grouping.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by expressions with output names (empty = global).
        group_by: Vec<(Expr, String)>,
        /// Aggregates to compute.
        aggregates: Vec<AggExpr>,
    },
    /// Sort the result.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, applied in order.
        keys: Vec<SortKey>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Bag union (`UNION ALL`) of schema-identical inputs.
    UnionAll {
        /// Inputs (at least one).
        inputs: Vec<LogicalPlan>,
    },
}

/// The fields of a join's output: the left side's, then the right side's,
/// a right column whose name is already taken renamed `<name>_r`.
pub(crate) fn join_fields(left: &Schema, right: &Schema) -> Vec<Field> {
    let mut fields: Vec<Field> = left.fields().to_vec();
    for f in right.fields() {
        let name = if fields.iter().any(|g| g.name == f.name) {
            format!("{}_r", f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field {
            name,
            data_type: f.data_type,
            nullable: f.nullable,
        });
    }
    fields
}

impl LogicalPlan {
    /// Output schema of this plan against a catalog.
    pub fn schema(&self, catalog: &Catalog) -> Result<Arc<Schema>, EngineError> {
        match self {
            LogicalPlan::Scan { table } => Ok(Arc::clone(catalog.get(table)?.schema())),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
                input.schema(catalog)
            }
            LogicalPlan::Sort { input, .. } => input.schema(catalog),
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    let dt = e.data_type(&in_schema)?;
                    // Projected expressions may produce NULL (e.g. x/0), so
                    // computed fields are nullable; bare column references
                    // inherit their nullability.
                    let nullable = match e {
                        Expr::Column(c) => in_schema.field(c).map(|f| f.nullable)?,
                        _ => true,
                    };
                    fields.push(Field {
                        name: name.clone(),
                        data_type: dt,
                        nullable,
                    });
                }
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::Join { left, right, .. } => Ok(Arc::new(Schema::new(join_fields(
                left.schema(catalog)?.as_ref(),
                right.schema(catalog)?.as_ref(),
            )))),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let in_schema = input.schema(catalog)?;
                let mut fields = Vec::with_capacity(group_by.len() + aggregates.len());
                for (e, name) in group_by {
                    fields.push(Field {
                        name: name.clone(),
                        data_type: e.data_type(&in_schema)?,
                        nullable: true,
                    });
                }
                for a in aggregates {
                    fields.push(Field {
                        name: a.alias.clone(),
                        data_type: a.output_type(&in_schema)?,
                        nullable: true,
                    });
                }
                Ok(Arc::new(Schema::new(fields)))
            }
            LogicalPlan::UnionAll { inputs } => {
                let first = inputs
                    .first()
                    .ok_or_else(|| EngineError::InvalidPlan {
                        detail: "UNION ALL of zero inputs".to_string(),
                    })?
                    .schema(catalog)?;
                for other in &inputs[1..] {
                    let s = other.schema(catalog)?;
                    if s.fields().len() != first.fields().len()
                        || s.fields()
                            .iter()
                            .zip(first.fields())
                            .any(|(a, b)| a.data_type != b.data_type)
                    {
                        return Err(EngineError::InvalidPlan {
                            detail: "UNION ALL inputs have incompatible schemas".to_string(),
                        });
                    }
                }
                Ok(first)
            }
        }
    }

    /// Names of all base tables this plan scans, in plan order.
    pub fn scanned_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            LogicalPlan::Scan { table } => out.push(table),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.collect_tables(out),
            LogicalPlan::Join { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            LogicalPlan::UnionAll { inputs } => {
                for i in inputs {
                    i.collect_tables(out);
                }
            }
        }
    }

    /// Rewrites every `Scan { table }` whose name has a replacement in
    /// `mapping` to scan the replacement instead. This is the primitive the
    /// AQP middleware uses: point the same plan at sampled tables.
    pub fn rebase_tables(&self, mapping: &dyn Fn(&str) -> Option<String>) -> LogicalPlan {
        match self {
            LogicalPlan::Scan { table } => LogicalPlan::Scan {
                table: mapping(table).unwrap_or_else(|| table.clone()),
            },
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(input.rebase_tables(mapping)),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                input: Box::new(input.rebase_tables(mapping)),
                exprs: exprs.clone(),
            },
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => LogicalPlan::Join {
                left: Box::new(left.rebase_tables(mapping)),
                right: Box::new(right.rebase_tables(mapping)),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => LogicalPlan::Aggregate {
                input: Box::new(input.rebase_tables(mapping)),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(input.rebase_tables(mapping)),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(input.rebase_tables(mapping)),
                n: *n,
            },
            LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
                inputs: inputs.iter().map(|i| i.rebase_tables(mapping)).collect(),
            },
        }
    }
}

/// Fluent builder over [`LogicalPlan`].
///
/// ```
/// use aqp_engine::{Query, AggExpr};
/// use aqp_expr::{col, lit};
///
/// let plan = Query::scan("lineitem")
///     .filter(col("quantity").gt(lit(10i64)))
///     .aggregate(
///         vec![(col("status"), "status".to_string())],
///         vec![AggExpr::sum(col("price"), "revenue")],
///     )
///     .sort(vec![aqp_engine::SortKey::asc("status")])
///     .build();
/// assert_eq!(plan.scanned_tables(), vec!["lineitem"]);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    plan: LogicalPlan,
}

impl Query {
    /// Starts from a table scan.
    pub fn scan(table: impl Into<String>) -> Self {
        Self {
            plan: LogicalPlan::Scan {
                table: table.into(),
            },
        }
    }

    /// Wraps an existing plan.
    pub fn from_plan(plan: LogicalPlan) -> Self {
        Self { plan }
    }

    /// Adds a filter.
    pub fn filter(self, predicate: Expr) -> Self {
        Self {
            plan: LogicalPlan::Filter {
                input: Box::new(self.plan),
                predicate,
            },
        }
    }

    /// Adds a projection of `(expr, name)` pairs.
    pub fn project(self, exprs: Vec<(Expr, String)>) -> Self {
        Self {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs,
            },
        }
    }

    /// Inner equi-joins with another query.
    pub fn join(self, right: Query, left_key: Expr, right_key: Expr) -> Self {
        Self {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                left_key,
                right_key,
            },
        }
    }

    /// Adds an aggregation.
    pub fn aggregate(self, group_by: Vec<(Expr, String)>, aggregates: Vec<AggExpr>) -> Self {
        Self {
            plan: LogicalPlan::Aggregate {
                input: Box::new(self.plan),
                group_by,
                aggregates,
            },
        }
    }

    /// Adds a sort.
    pub fn sort(self, keys: Vec<SortKey>) -> Self {
        Self {
            plan: LogicalPlan::Sort {
                input: Box::new(self.plan),
                keys,
            },
        }
    }

    /// Adds a row limit.
    pub fn limit(self, n: usize) -> Self {
        Self {
            plan: LogicalPlan::Limit {
                input: Box::new(self.plan),
                n,
            },
        }
    }

    /// Bag-unions with another query.
    pub fn union_all(self, other: Query) -> Self {
        Self {
            plan: LogicalPlan::UnionAll {
                inputs: vec![self.plan, other.plan],
            },
        }
    }

    /// Finishes building.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_expr::{col, lit};
    use aqp_storage::DataType;
    use aqp_storage::{TableBuilder, Value};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
            Field::new("tag", DataType::Str),
        ]);
        let mut b = TableBuilder::new("t", schema);
        for i in 0..10 {
            b.push_row(&[
                Value::Int64(i),
                Value::Float64(i as f64),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
            ])
            .unwrap();
        }
        c.register(b.finish()).unwrap();
        let schema2 = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("w", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("u", schema2);
        for i in 0..5 {
            b.push_row(&[Value::Int64(i), Value::Float64(i as f64 * 10.0)])
                .unwrap();
        }
        c.register(b.finish()).unwrap();
        c
    }

    #[test]
    fn scan_schema() {
        let c = catalog();
        let s = Query::scan("t").build().schema(&c).unwrap();
        assert_eq!(s.names(), vec!["id", "v", "tag"]);
    }

    #[test]
    fn filter_preserves_schema() {
        let c = catalog();
        let p = Query::scan("t").filter(col("v").gt(lit(1.0))).build();
        assert_eq!(p.schema(&c).unwrap().names(), vec!["id", "v", "tag"]);
    }

    #[test]
    fn project_schema_types() {
        let c = catalog();
        let p = Query::scan("t")
            .project(vec![
                (col("id").mul(lit(2i64)), "id2".to_string()),
                (col("v").div(lit(2i64)), "half".to_string()),
            ])
            .build();
        let s = p.schema(&c).unwrap();
        assert_eq!(s.field("id2").unwrap().data_type, DataType::Int64);
        assert_eq!(s.field("half").unwrap().data_type, DataType::Float64);
        assert!(s.field("half").unwrap().nullable);
    }

    #[test]
    fn join_schema_renames_collisions() {
        let c = catalog();
        let p = Query::scan("t")
            .join(Query::scan("u"), col("id"), col("id"))
            .build();
        let s = p.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["id", "v", "tag", "id_r", "w"]);
    }

    #[test]
    fn aggregate_schema() {
        let c = catalog();
        let p = Query::scan("t")
            .aggregate(
                vec![(col("tag"), "tag".to_string())],
                vec![
                    AggExpr::count_star("n"),
                    AggExpr::avg(col("v"), "avg_v"),
                    AggExpr::min(col("id"), "min_id"),
                ],
            )
            .build();
        let s = p.schema(&c).unwrap();
        assert_eq!(s.names(), vec!["tag", "n", "avg_v", "min_id"]);
        assert_eq!(s.field("n").unwrap().data_type, DataType::Int64);
        assert_eq!(s.field("avg_v").unwrap().data_type, DataType::Float64);
        assert_eq!(s.field("min_id").unwrap().data_type, DataType::Int64);
    }

    #[test]
    fn union_schema_checks_compatibility() {
        let c = catalog();
        let ok = Query::scan("t").union_all(Query::scan("t")).build();
        assert!(ok.schema(&c).is_ok());
        let bad = Query::scan("t").union_all(Query::scan("u")).build();
        assert!(bad.schema(&c).is_err());
        let empty = LogicalPlan::UnionAll { inputs: vec![] };
        assert!(empty.schema(&c).is_err());
    }

    #[test]
    fn scanned_tables_and_rebase() {
        let p = Query::scan("t")
            .join(Query::scan("u"), col("id"), col("id"))
            .filter(col("v").gt(lit(0i64)))
            .build();
        assert_eq!(p.scanned_tables(), vec!["t", "u"]);
        let rebased = p.rebase_tables(&|name| (name == "t").then(|| "t_sample".to_string()));
        assert_eq!(rebased.scanned_tables(), vec!["t_sample", "u"]);
    }

    #[test]
    fn missing_table_schema_error() {
        let c = catalog();
        assert!(Query::scan("nope").build().schema(&c).is_err());
    }
}
