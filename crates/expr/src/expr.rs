//! The expression AST and its builder API.

use aqp_storage::{DataType, Schema, Value};

use crate::error::ExprError;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always produces FLOAT64).
    Div,
    /// Modulo (integer only).
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    NotEq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    LtEq,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    GtEq,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
}

impl BinaryOp {
    /// Whether the operator yields a boolean.
    fn is_predicate(&self) -> bool {
        matches!(
            self,
            Self::Eq
                | Self::NotEq
                | Self::Lt
                | Self::LtEq
                | Self::Gt
                | Self::GtEq
                | Self::And
                | Self::Or
        )
    }
}

/// A typed expression tree.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// Reference to a named column.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// `IS NULL` test (never NULL itself).
    IsNull(Box<Expr>),
    /// Stable 64-bit hash of the operand, as INT64. The primitive behind
    /// universe sampling (`hash(key) % m < k`-style predicates).
    Hash64(Box<Expr>),
}

/// A column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// A literal.
pub fn lit(value: impl Into<Value>) -> Expr {
    Expr::Literal(value.into())
}

#[allow(clippy::should_implement_trait)] // fluent builder API mirrors SQL, not ops
macro_rules! binary_builder {
    ($(#[$doc:meta] $fn_name:ident => $op:ident),* $(,)?) => {
        $(
            #[$doc]
            pub fn $fn_name(self, rhs: Expr) -> Expr {
                Expr::Binary {
                    left: Box::new(self),
                    op: BinaryOp::$op,
                    right: Box::new(rhs),
                }
            }
        )*
    };
}

#[allow(clippy::should_implement_trait)] // fluent builder API mirrors SQL operators
impl Expr {
    binary_builder! {
        /// `self + rhs`.
        add => Add,
        /// `self − rhs`.
        sub => Sub,
        /// `self × rhs`.
        mul => Mul,
        /// `self ÷ rhs` (FLOAT64).
        div => Div,
        /// `self % rhs` (INT64).
        modulo => Mod,
        /// `self = rhs`.
        eq => Eq,
        /// `self ≠ rhs`.
        not_eq => NotEq,
        /// `self < rhs`.
        lt => Lt,
        /// `self ≤ rhs`.
        lt_eq => LtEq,
        /// `self > rhs`.
        gt => Gt,
        /// `self ≥ rhs`.
        gt_eq => GtEq,
        /// `self AND rhs`.
        and => And,
        /// `self OR rhs`.
        or => Or,
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Stable 64-bit hash of `self`.
    pub fn hash64(self) -> Expr {
        Expr::Hash64(Box::new(self))
    }

    /// `lo ≤ self AND self ≤ hi` (inclusive range).
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        self.clone().gt_eq(lo).and(self.lt_eq(hi))
    }

    /// The output type of this expression against a schema.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType, ExprError> {
        match self {
            Expr::Column(name) => Ok(schema.field(name)?.data_type),
            Expr::Literal(v) => v.data_type().ok_or_else(|| ExprError::InvalidOperation {
                detail: "cannot type a bare NULL literal".to_string(),
            }),
            Expr::Binary { left, op, right } => {
                if op.is_predicate() {
                    return Ok(DataType::Bool);
                }
                let lt = left.data_type(schema)?;
                let rt = right.data_type(schema)?;
                match op {
                    BinaryOp::Div => Ok(DataType::Float64),
                    BinaryOp::Mod => {
                        if lt == DataType::Int64 && rt == DataType::Int64 {
                            Ok(DataType::Int64)
                        } else {
                            Err(ExprError::InvalidOperation {
                                detail: format!("modulo requires INT64 operands, got {lt} % {rt}"),
                            })
                        }
                    }
                    _ => match (lt, rt) {
                        (DataType::Int64, DataType::Int64) => Ok(DataType::Int64),
                        (
                            DataType::Int64 | DataType::Float64,
                            DataType::Int64 | DataType::Float64,
                        ) => Ok(DataType::Float64),
                        _ => Err(ExprError::InvalidOperation {
                            detail: format!("arithmetic on non-numeric types {lt} and {rt}"),
                        }),
                    },
                }
            }
            Expr::Not(_) | Expr::IsNull(_) => Ok(DataType::Bool),
            Expr::Hash64(_) => Ok(DataType::Int64),
        }
    }

    /// All column names referenced by this expression, in first-use order.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column(name) => {
                if !out.contains(&name.as_str()) {
                    out.push(name);
                }
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::Hash64(e) => e.collect_columns(out),
        }
    }

    /// Pre-order visit of every node in the tree (self included). The
    /// static analyzer uses this to detect sub-expressions by shape, e.g.
    /// a `hash64(key)` universe-sampling predicate.
    pub fn walk(&self, visit: &mut impl FnMut(&Expr)) {
        visit(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.walk(visit);
                right.walk(visit);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::Hash64(e) => e.walk(visit),
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { left, op, right } => {
                let sym = match op {
                    BinaryOp::Add => "+",
                    BinaryOp::Sub => "-",
                    BinaryOp::Mul => "*",
                    BinaryOp::Div => "/",
                    BinaryOp::Mod => "%",
                    BinaryOp::Eq => "=",
                    BinaryOp::NotEq => "<>",
                    BinaryOp::Lt => "<",
                    BinaryOp::LtEq => "<=",
                    BinaryOp::Gt => ">",
                    BinaryOp::GtEq => ">=",
                    BinaryOp::And => "AND",
                    BinaryOp::Or => "OR",
                };
                write!(f, "({left} {sym} {right})")
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::Hash64(e) => write!(f, "hash64({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("s", DataType::Str),
            Field::new("f", DataType::Bool),
        ])
    }

    #[test]
    fn builder_shapes() {
        let e = col("a").add(lit(1i64)).gt(lit(10i64));
        assert_eq!(
            e,
            Expr::Binary {
                left: Box::new(Expr::Binary {
                    left: Box::new(Expr::Column("a".into())),
                    op: BinaryOp::Add,
                    right: Box::new(Expr::Literal(Value::Int64(1))),
                }),
                op: BinaryOp::Gt,
                right: Box::new(Expr::Literal(Value::Int64(10))),
            }
        );
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(
            col("a").add(lit(1i64)).data_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            col("a").add(col("b")).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            col("a").div(col("a")).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            col("a").modulo(lit(7i64)).data_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(col("a").lt(col("b")).data_type(&s).unwrap(), DataType::Bool);
        assert_eq!(col("s").is_null().data_type(&s).unwrap(), DataType::Bool);
        assert_eq!(col("s").hash64().data_type(&s).unwrap(), DataType::Int64);
    }

    #[test]
    fn type_errors() {
        let s = schema();
        assert!(col("s").add(lit(1i64)).data_type(&s).is_err());
        assert!(col("b").modulo(lit(2i64)).data_type(&s).is_err());
        assert!(col("zzz").data_type(&s).is_err());
        assert!(Expr::Literal(Value::Null).data_type(&s).is_err());
    }

    #[test]
    fn referenced_columns_dedup_ordered() {
        let e = col("a").add(col("b")).gt(col("a").mul(lit(2i64)));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
    }

    #[test]
    fn between_expands() {
        let e = col("a").between(lit(1i64), lit(5i64));
        assert_eq!(e.to_string(), "((a >= 1) AND (a <= 5))");
    }

    #[test]
    fn display_forms() {
        assert_eq!(col("x").eq(lit("y")).to_string(), "(x = 'y')");
        assert_eq!(
            col("x").not_eq(lit(1i64)).not().to_string(),
            "(NOT (x <> 1))"
        );
        assert_eq!(col("x").hash64().to_string(), "hash64(x)");
    }
}
