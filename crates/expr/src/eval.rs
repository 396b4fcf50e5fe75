//! Block-at-a-time expression evaluation with SQL three-valued logic.

use aqp_storage::{Block, Column, DataType, Value};

use crate::error::ExprError;
use crate::expr::{BinaryOp, Expr};
use crate::hash::stable_hash64;

/// Evaluates `expr` over every row of `block`, producing one output column.
///
/// Semantics follow SQL:
/// * arithmetic on NULL yields NULL; division by zero yields NULL;
/// * comparisons involving NULL yield NULL;
/// * `AND`/`OR`/`NOT` use three-valued logic
///   (`FALSE AND NULL = FALSE`, `TRUE OR NULL = TRUE`);
/// * `IS NULL` is never NULL.
pub fn eval(expr: &Expr, block: &Block) -> Result<Column, ExprError> {
    let n = block.len();
    match expr {
        Expr::Column(name) => Ok(block.column_by_name(name)?.clone()),
        Expr::Literal(v) => {
            // One slot, gathered `n` times: a string literal is interned
            // once, not once per row.
            let mut one = Column::new(v.data_type().unwrap_or(DataType::Int64));
            one.push(v).expect("literal type matches its own column");
            Ok(one.take(&vec![0; n]))
        }
        Expr::Binary { left, op, right } => {
            let l = eval(left, block)?;
            let r = eval(right, block)?;
            eval_binary(&l, *op, &r)
        }
        Expr::Not(inner) => {
            let c = eval(inner, block)?;
            require_bool(&c, "NOT")?;
            let mut out = Column::with_capacity(DataType::Bool, n);
            for i in 0..c.len() {
                match c.get(i) {
                    Value::Bool(b) => out.push(&Value::Bool(!b)).expect("bool"),
                    _ => out.push_null(),
                }
            }
            Ok(out)
        }
        Expr::IsNull(inner) => {
            let c = eval(inner, block)?;
            let mut out = Column::with_capacity(DataType::Bool, n);
            for i in 0..c.len() {
                out.push(&Value::Bool(c.is_null(i))).expect("bool");
            }
            Ok(out)
        }
        Expr::Hash64(inner) => {
            let c = eval(inner, block)?;
            let mut out = Column::with_capacity(DataType::Int64, n);
            for i in 0..c.len() {
                let h = stable_hash64(&c.get(i));
                out.push(&Value::Int64(h as i64)).expect("int");
            }
            Ok(out)
        }
    }
}

/// Evaluates a predicate to a boolean mask: NULL counts as *not selected*
/// (SQL WHERE semantics).
pub fn eval_predicate_mask(expr: &Expr, block: &Block) -> Result<Vec<bool>, ExprError> {
    let c = eval(expr, block)?;
    require_bool(&c, "WHERE predicate")?;
    let mut mask = Vec::with_capacity(c.len());
    for i in 0..c.len() {
        mask.push(matches!(c.get(i), Value::Bool(true)));
    }
    Ok(mask)
}

fn require_bool(c: &Column, what: &str) -> Result<(), ExprError> {
    if c.data_type() != DataType::Bool {
        return Err(ExprError::InvalidOperation {
            detail: format!("{what} requires a BOOL operand, got {}", c.data_type()),
        });
    }
    Ok(())
}

fn eval_binary(l: &Column, op: BinaryOp, r: &Column) -> Result<Column, ExprError> {
    assert_eq!(l.len(), r.len(), "operand cardinality mismatch");
    let n = l.len();
    match op {
        BinaryOp::And | BinaryOp::Or => {
            require_bool(l, "AND/OR")?;
            require_bool(r, "AND/OR")?;
            let mut out = Column::with_capacity(DataType::Bool, n);
            for i in 0..n {
                let a = if l.is_null(i) {
                    None
                } else {
                    l.get(i).as_bool()
                };
                let b = if r.is_null(i) {
                    None
                } else {
                    r.get(i).as_bool()
                };
                let v = if op == BinaryOp::And {
                    three_valued_and(a, b)
                } else {
                    three_valued_or(a, b)
                };
                match v {
                    Some(b) => out.push(&Value::Bool(b)).expect("bool"),
                    None => out.push_null(),
                }
            }
            Ok(out)
        }
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            let mut out = Column::with_capacity(DataType::Bool, n);
            for i in 0..n {
                let (a, b) = (l.get(i), r.get(i));
                match a.sql_cmp(&b) {
                    None => out.push_null(),
                    Some(ord) => {
                        let v = match op {
                            BinaryOp::Eq => ord.is_eq(),
                            BinaryOp::NotEq => ord.is_ne(),
                            BinaryOp::Lt => ord.is_lt(),
                            BinaryOp::LtEq => ord.is_le(),
                            BinaryOp::Gt => ord.is_gt(),
                            BinaryOp::GtEq => ord.is_ge(),
                            _ => unreachable!(),
                        };
                        out.push(&Value::Bool(v)).expect("bool");
                    }
                }
            }
            Ok(out)
        }
        BinaryOp::Mod => {
            if l.data_type() != DataType::Int64 || r.data_type() != DataType::Int64 {
                return Err(ExprError::InvalidOperation {
                    detail: format!(
                        "modulo requires INT64 operands, got {} % {}",
                        l.data_type(),
                        r.data_type()
                    ),
                });
            }
            let mut out = Column::with_capacity(DataType::Int64, n);
            for i in 0..n {
                match (l.get(i).as_i64(), r.get(i).as_i64()) {
                    (Some(a), Some(b)) if b != 0 => {
                        out.push(&Value::Int64(a.wrapping_rem(b))).expect("int")
                    }
                    _ => out.push_null(),
                }
            }
            Ok(out)
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
            let numeric = |dt: DataType| matches!(dt, DataType::Int64 | DataType::Float64);
            if !numeric(l.data_type()) || !numeric(r.data_type()) {
                return Err(ExprError::InvalidOperation {
                    detail: format!(
                        "arithmetic on non-numeric types {} and {}",
                        l.data_type(),
                        r.data_type()
                    ),
                });
            }
            let int_out = l.data_type() == DataType::Int64
                && r.data_type() == DataType::Int64
                && op != BinaryOp::Div;
            if int_out {
                let mut out = Column::with_capacity(DataType::Int64, n);
                for i in 0..n {
                    match (l.get(i).as_i64(), r.get(i).as_i64()) {
                        (Some(a), Some(b)) => {
                            let v = match op {
                                BinaryOp::Add => a.wrapping_add(b),
                                BinaryOp::Sub => a.wrapping_sub(b),
                                BinaryOp::Mul => a.wrapping_mul(b),
                                _ => unreachable!(),
                            };
                            out.push(&Value::Int64(v)).expect("int");
                        }
                        _ => out.push_null(),
                    }
                }
                Ok(out)
            } else {
                let mut out = Column::with_capacity(DataType::Float64, n);
                for i in 0..n {
                    match (l.f64_at(i), r.f64_at(i)) {
                        (Some(a), Some(b)) => {
                            let v = match op {
                                BinaryOp::Add => a + b,
                                BinaryOp::Sub => a - b,
                                BinaryOp::Mul => a * b,
                                BinaryOp::Div => {
                                    if b == 0.0 {
                                        out.push_null();
                                        continue;
                                    }
                                    a / b
                                }
                                _ => unreachable!(),
                            };
                            out.push(&Value::Float64(v)).expect("float");
                        }
                        _ => out.push_null(),
                    }
                }
                Ok(out)
            }
        }
    }
}

fn three_valued_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn three_valued_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use aqp_storage::{Field, Schema};
    use std::sync::Arc;

    fn block() -> Block {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::nullable("b", DataType::Float64),
            Field::new("s", DataType::Str),
            Field::new("flag", DataType::Bool),
        ]));
        let mut blk = Block::new(schema);
        blk.push_row(&[
            Value::Int64(1),
            Value::Float64(10.0),
            Value::str("x"),
            Value::Bool(true),
        ])
        .unwrap();
        blk.push_row(&[
            Value::Int64(2),
            Value::Null,
            Value::str("y"),
            Value::Bool(false),
        ])
        .unwrap();
        blk.push_row(&[
            Value::Int64(3),
            Value::Float64(30.0),
            Value::str("x"),
            Value::Bool(true),
        ])
        .unwrap();
        blk
    }

    #[test]
    fn column_and_literal() {
        let b = block();
        let c = eval(&col("a"), &b).unwrap();
        assert_eq!(c.get(1), Value::Int64(2));
        let c = eval(&lit(5i64), &b).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int64(5));
    }

    #[test]
    fn arithmetic_with_null_propagation() {
        let b = block();
        let c = eval(&col("a").add(col("b")), &b).unwrap();
        assert_eq!(c.get(0), Value::Float64(11.0));
        assert_eq!(c.get(1), Value::Null);
        let c = eval(&col("a").mul(lit(2i64)), &b).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.get(2), Value::Int64(6));
    }

    #[test]
    fn division_is_float_and_null_on_zero() {
        let b = block();
        let c = eval(&col("a").div(lit(2i64)), &b).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.get(0), Value::Float64(0.5));
        let c = eval(&col("a").div(lit(0i64)), &b).unwrap();
        assert!(c.is_null(0));
    }

    #[test]
    fn modulo_int_only() {
        let b = block();
        let c = eval(&col("a").modulo(lit(2i64)), &b).unwrap();
        assert_eq!(c.get(0), Value::Int64(1));
        assert_eq!(c.get(1), Value::Int64(0));
        assert!(eval(&col("b").modulo(lit(2i64)), &b).is_err());
        // Modulo by zero is NULL.
        let c = eval(&col("a").modulo(lit(0i64)), &b).unwrap();
        assert!(c.is_null(0));
    }

    #[test]
    fn comparisons_and_nulls() {
        let b = block();
        let c = eval(&col("a").gt_eq(lit(2i64)), &b).unwrap();
        assert_eq!(c.get(0), Value::Bool(false));
        assert_eq!(c.get(1), Value::Bool(true));
        // Comparison with NULL is NULL.
        let c = eval(&col("b").lt(lit(100.0)), &b).unwrap();
        assert_eq!(c.get(0), Value::Bool(true));
        assert!(c.is_null(1));
        // String comparison.
        let c = eval(&col("s").eq(lit("x")), &b).unwrap();
        assert_eq!(c.get(0), Value::Bool(true));
        assert_eq!(c.get(1), Value::Bool(false));
    }

    #[test]
    fn three_valued_logic() {
        let b = block();
        // b IS NULL comparisons combined with AND/OR.
        let null_cmp = col("b").gt(lit(0.0)); // NULL on row 1
        let c = eval(&null_cmp.clone().and(lit(false).eq(lit(true))), &b).unwrap();
        // anything AND false = false, even NULL.
        assert_eq!(c.get(1), Value::Bool(false));
        let c = eval(&null_cmp.clone().or(col("flag")), &b).unwrap();
        // NULL OR false = NULL (row 1 has flag=false).
        assert!(c.is_null(1));
        let c = eval(&null_cmp.not(), &b).unwrap();
        assert!(c.is_null(1)); // NOT NULL = NULL
        assert_eq!(c.get(0), Value::Bool(false));
    }

    #[test]
    fn is_null_never_null() {
        let b = block();
        let c = eval(&col("b").is_null(), &b).unwrap();
        assert_eq!(c.get(0), Value::Bool(false));
        assert_eq!(c.get(1), Value::Bool(true));
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn predicate_mask_treats_null_as_false() {
        let b = block();
        let mask = eval_predicate_mask(&col("b").gt(lit(5.0)), &b).unwrap();
        assert_eq!(mask, vec![true, false, true]);
        assert!(eval_predicate_mask(&col("a"), &b).is_err());
    }

    #[test]
    fn hash64_stable_and_typed() {
        let b = block();
        let c1 = eval(&col("s").hash64(), &b).unwrap();
        let c2 = eval(&col("s").hash64(), &b).unwrap();
        assert_eq!(c1.get(0), c2.get(0));
        assert_eq!(c1.get(0), c1.get(2)); // both "x"
        assert_ne!(c1.get(0), c1.get(1));
        assert_eq!(c1.data_type(), DataType::Int64);
    }

    #[test]
    fn arithmetic_type_errors() {
        let b = block();
        assert!(eval(&col("s").add(lit(1i64)), &b).is_err());
        assert!(eval(&col("flag").and(col("a").gt(lit(0i64))), &b).is_ok());
        assert!(eval(&col("a").and(col("flag")), &b).is_err());
    }
}
