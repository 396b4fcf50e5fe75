//! Zone-map predicate pruning: abstract interpretation of a predicate
//! over one block's [`ZoneMap`].
//!
//! Given per-column `[min, max]` bounds and null counts, a predicate is
//! evaluated over *intervals* instead of rows, yielding a
//! [`PruneVerdict`]:
//!
//! * [`PruneVerdict::AllFalse`] — no row of the block can satisfy the
//!   predicate (under SQL WHERE semantics, where a NULL result does not
//!   select the row), so the scan skips the block without touching data;
//! * [`PruneVerdict::AllTrue`] — every row provably satisfies it (the
//!   predicate can be neither FALSE nor NULL anywhere in the block), so
//!   the scan keeps the block without evaluating the mask;
//! * [`PruneVerdict::Unknown`] — anything else; evaluate normally.
//!
//! Soundness is the whole game: every "maybe" flag is an
//! *over*-approximation, so the only cost of imprecision is a missed
//! prune, never a wrong answer. Expressions the analysis does not model
//! (division, modulo, hashes, string inequalities, NULL literals) simply
//! evaluate to "could be anything".

use aqp_storage::{Schema, Value, ZoneMap};

use crate::expr::{BinaryOp, Expr};

/// The outcome of zone-based predicate analysis for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneVerdict {
    /// Every row satisfies the predicate (provably neither FALSE nor
    /// NULL anywhere in the block).
    AllTrue,
    /// No row satisfies the predicate — the block can be skipped.
    AllFalse,
    /// Cannot decide from zone statistics alone.
    Unknown,
}

/// Abstract numeric value: an interval of possible non-NULL values plus
/// a could-be-NULL flag. `None` (at the use sites) means "unmodeled".
#[derive(Debug, Clone, Copy)]
struct NumRange {
    lo: f64,
    hi: f64,
    maybe_null: bool,
    /// Whether any non-NULL value exists at all (false for an all-NULL
    /// column, where `[lo, hi]` is meaningless).
    maybe_value: bool,
}

/// Abstract boolean: which of the three SQL truth values the expression
/// might take. All flags set = fully unknown.
#[derive(Debug, Clone, Copy)]
struct TriBool {
    maybe_true: bool,
    maybe_false: bool,
    maybe_null: bool,
}

const UNKNOWN: TriBool = TriBool {
    maybe_true: true,
    maybe_false: true,
    maybe_null: true,
};

/// Analyzes `predicate` against one block's zone map. `schema` is the
/// block's schema (resolves column names to zone entries).
pub fn prune_predicate(predicate: &Expr, schema: &Schema, zone: &ZoneMap) -> PruneVerdict {
    if zone.rows == 0 {
        // Empty blocks select nothing; let the scan handle them.
        return PruneVerdict::Unknown;
    }
    let t = eval_bool(predicate, schema, zone);
    if !t.maybe_true {
        PruneVerdict::AllFalse
    } else if !t.maybe_false && !t.maybe_null {
        PruneVerdict::AllTrue
    } else {
        PruneVerdict::Unknown
    }
}

fn eval_bool(expr: &Expr, schema: &Schema, zone: &ZoneMap) -> TriBool {
    match expr {
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And => {
                let a = eval_bool(left, schema, zone);
                let b = eval_bool(right, schema, zone);
                TriBool {
                    maybe_true: a.maybe_true && b.maybe_true,
                    maybe_false: a.maybe_false || b.maybe_false,
                    maybe_null: a.maybe_null || b.maybe_null,
                }
            }
            BinaryOp::Or => {
                let a = eval_bool(left, schema, zone);
                let b = eval_bool(right, schema, zone);
                TriBool {
                    maybe_true: a.maybe_true || b.maybe_true,
                    maybe_false: a.maybe_false && b.maybe_false,
                    maybe_null: a.maybe_null || b.maybe_null,
                }
            }
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => {
                let (Some(l), Some(r)) =
                    (eval_num(left, schema, zone), eval_num(right, schema, zone))
                else {
                    return UNKNOWN;
                };
                compare(l, *op, r)
            }
            _ => UNKNOWN,
        },
        Expr::Not(inner) => {
            let t = eval_bool(inner, schema, zone);
            TriBool {
                maybe_true: t.maybe_false,
                maybe_false: t.maybe_true,
                maybe_null: t.maybe_null,
            }
        }
        Expr::IsNull(inner) => match inner.as_ref() {
            // Only the column case is decidable from zone stats.
            Expr::Column(name) => {
                let Ok(idx) = schema.index_of(name) else {
                    return UNKNOWN;
                };
                let cz = zone.column(idx);
                TriBool {
                    maybe_true: cz.null_count > 0,
                    maybe_false: cz.null_count < zone.rows,
                    maybe_null: false,
                }
            }
            _ => UNKNOWN,
        },
        // A bare boolean column (or anything else) used as a predicate.
        Expr::Column(name) => {
            let Ok(idx) = schema.index_of(name) else {
                return UNKNOWN;
            };
            let cz = zone.column(idx);
            match cz.bounds {
                Some((lo, hi)) => TriBool {
                    maybe_true: hi >= 1.0,
                    maybe_false: lo <= 0.0,
                    maybe_null: cz.null_count > 0,
                },
                None => UNKNOWN,
            }
        }
        Expr::Literal(Value::Bool(b)) => TriBool {
            maybe_true: *b,
            maybe_false: !*b,
            maybe_null: false,
        },
        Expr::Literal(Value::Null) => TriBool {
            maybe_true: false,
            maybe_false: false,
            maybe_null: true,
        },
        _ => UNKNOWN,
    }
}

/// Interval comparison under [`Value::sql_cmp`] numeric semantics. NaN
/// endpoints (a NaN literal in the predicate) bail to unknown — NaN
/// comparisons yield NULL, which the interval logic does not model.
fn compare(l: NumRange, op: BinaryOp, r: NumRange) -> TriBool {
    let maybe_null = l.maybe_null || r.maybe_null;
    if !l.maybe_value || !r.maybe_value {
        // One side is always NULL (its endpoints are NaN sentinels): the
        // comparison is always NULL.
        return TriBool {
            maybe_true: false,
            maybe_false: false,
            maybe_null,
        };
    }
    if l.lo.is_nan() || l.hi.is_nan() || r.lo.is_nan() || r.hi.is_nan() {
        return UNKNOWN;
    }
    // For each op: can any pair (x ∈ l, y ∈ r) make it true? false?
    let (maybe_true, maybe_false) = match op {
        BinaryOp::Lt => (l.lo < r.hi, l.hi >= r.lo),
        BinaryOp::LtEq => (l.lo <= r.hi, l.hi > r.lo),
        BinaryOp::Gt => (l.hi > r.lo, l.lo <= r.hi),
        BinaryOp::GtEq => (l.hi >= r.lo, l.lo < r.hi),
        BinaryOp::Eq => (
            l.lo <= r.hi && r.lo <= l.hi,
            !(l.lo == l.hi && r.lo == r.hi && l.lo == r.lo),
        ),
        BinaryOp::NotEq => (
            !(l.lo == l.hi && r.lo == r.hi && l.lo == r.lo),
            l.lo <= r.hi && r.lo <= l.hi,
        ),
        _ => return UNKNOWN,
    };
    TriBool {
        maybe_true,
        maybe_false,
        maybe_null,
    }
}

/// One-ULP outward widening, so interval endpoints computed in `f64`
/// never round *inward* past a value a row could actually take.
fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if x == 0.0 {
        1u64 | (1u64 << 63) // -MIN_POSITIVE (handles +0.0 and -0.0)
    } else if bits >> 63 == 0 {
        bits - 1
    } else {
        bits + 1
    };
    f64::from_bits(next)
}

fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if x == 0.0 {
        1u64 // +MIN_POSITIVE
    } else if bits >> 63 == 0 {
        bits + 1
    } else {
        bits - 1
    };
    f64::from_bits(next)
}

/// Integer expressions must stay within the exactly-representable (and
/// wrap-free) ±2⁵³ window for interval arithmetic to be sound.
const MAX_EXACT: f64 = (1i64 << 53) as f64;

fn eval_num(expr: &Expr, schema: &Schema, zone: &ZoneMap) -> Option<NumRange> {
    match expr {
        Expr::Column(name) => {
            let idx = schema.index_of(name).ok()?;
            let cz = zone.column(idx);
            let maybe_null = cz.null_count > 0;
            match cz.bounds {
                Some((lo, hi)) => Some(NumRange {
                    lo,
                    hi,
                    maybe_null,
                    maybe_value: true,
                }),
                // An all-NULL column is still modeled (it makes every
                // comparison NULL); anything else is unmodeled.
                None if cz.all_null(zone.rows) => Some(NumRange {
                    lo: f64::NAN,
                    hi: f64::NAN,
                    maybe_null: true,
                    maybe_value: false,
                }),
                None => None,
            }
        }
        Expr::Literal(v) => match v {
            Value::Int64(i) => {
                let x = *i as f64;
                (i.abs() <= 1i64 << 53).then_some(NumRange {
                    lo: x,
                    hi: x,
                    maybe_null: false,
                    maybe_value: true,
                })
            }
            Value::Float64(f) => Some(NumRange {
                lo: *f,
                hi: *f,
                maybe_null: false,
                maybe_value: true,
            }),
            Value::Bool(b) => {
                let x = if *b { 1.0 } else { 0.0 };
                Some(NumRange {
                    lo: x,
                    hi: x,
                    maybe_null: false,
                    maybe_value: true,
                })
            }
            Value::Null => Some(NumRange {
                lo: f64::NAN,
                hi: f64::NAN,
                maybe_null: true,
                maybe_value: false,
            }),
            Value::Str(_) => None,
        },
        Expr::Binary { left, op, right }
            if matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul) =>
        {
            let l = eval_num(left, schema, zone)?;
            let r = eval_num(right, schema, zone)?;
            if !l.maybe_value || !r.maybe_value {
                return Some(NumRange {
                    lo: f64::NAN,
                    hi: f64::NAN,
                    maybe_null: true,
                    maybe_value: false,
                });
            }
            let (lo, hi) = match op {
                BinaryOp::Add => (l.lo + r.lo, l.hi + r.hi),
                BinaryOp::Sub => (l.lo - r.hi, l.hi - r.lo),
                BinaryOp::Mul => {
                    let products = [l.lo * r.lo, l.lo * r.hi, l.hi * r.lo, l.hi * r.hi];
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for p in products {
                        if p.is_nan() {
                            return None; // 0·∞ — give up
                        }
                        lo = lo.min(p);
                        hi = hi.max(p);
                    }
                    (lo, hi)
                }
                _ => unreachable!(),
            };
            if lo.is_nan() || hi.is_nan() {
                return None;
            }
            // Integer-typed expressions are exact as long as they stay in
            // the ±2⁵³ window (every operand endpoint is an exact integer
            // and the true result is representable, so IEEE arithmetic
            // rounds nothing) — but beyond it both f64 rounding and i64
            // wrapping escape any interval, so bail. Float-typed results
            // instead get one ULP of outward widening against rounding.
            let int_typed = matches!(expr.data_type(schema), Ok(aqp_storage::DataType::Int64));
            let (lo, hi) = if int_typed {
                if lo < -MAX_EXACT || hi > MAX_EXACT {
                    return None;
                }
                (lo, hi)
            } else {
                (next_down(lo), next_up(hi))
            };
            Some(NumRange {
                lo,
                hi,
                maybe_null: l.maybe_null || r.maybe_null,
                maybe_value: true,
            })
        }
        // Div (NULL on zero), Mod, Hash64, Not/IsNull-as-number: unmodeled.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use aqp_storage::{Block, DataType, Field};
    use std::sync::Arc;

    fn fixture(vals: &[Option<f64>], ids: &[i64]) -> (Schema, ZoneMap) {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("v", DataType::Float64),
        ]);
        let mut b = Block::new(Arc::new(schema.clone()));
        for (i, v) in ids.iter().zip(vals) {
            b.push_row(&[
                Value::Int64(*i),
                v.map(Value::Float64).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        let zone = b.zone().clone();
        (schema, zone)
    }

    #[test]
    fn range_predicates_prune() {
        let (s, z) = fixture(&[Some(10.0), Some(20.0), Some(30.0)], &[1, 2, 3]);
        // v ∈ [10, 30]
        assert_eq!(
            prune_predicate(&col("v").lt(lit(5.0)), &s, &z),
            PruneVerdict::AllFalse
        );
        assert_eq!(
            prune_predicate(&col("v").lt(lit(50.0)), &s, &z),
            PruneVerdict::AllTrue
        );
        assert_eq!(
            prune_predicate(&col("v").lt(lit(20.0)), &s, &z),
            PruneVerdict::Unknown
        );
        assert_eq!(
            prune_predicate(&col("v").gt_eq(lit(10.0)), &s, &z),
            PruneVerdict::AllTrue
        );
        assert_eq!(
            prune_predicate(&col("v").gt(lit(30.0)), &s, &z),
            PruneVerdict::AllFalse
        );
        assert_eq!(
            prune_predicate(&col("id").eq(lit(7i64)), &s, &z),
            PruneVerdict::AllFalse
        );
    }

    #[test]
    fn nulls_block_all_true_but_not_all_false() {
        let (s, z) = fixture(&[Some(10.0), None, Some(30.0)], &[1, 2, 3]);
        // The NULL row can never satisfy v < 50, so AllTrue must not fire…
        assert_eq!(
            prune_predicate(&col("v").lt(lit(50.0)), &s, &z),
            PruneVerdict::Unknown
        );
        // …but AllFalse still may (NULL rows are not selected anyway).
        assert_eq!(
            prune_predicate(&col("v").gt(lit(100.0)), &s, &z),
            PruneVerdict::AllFalse
        );
        // IS NULL on a mixed column is undecidable; on an all-NULL one
        // it is AllTrue.
        assert_eq!(
            prune_predicate(&col("v").is_null(), &s, &z),
            PruneVerdict::Unknown
        );
        let (s, z) = fixture(&[None, None], &[1, 2]);
        assert_eq!(
            prune_predicate(&col("v").is_null(), &s, &z),
            PruneVerdict::AllTrue
        );
        // Comparisons against an all-NULL column are always NULL → AllFalse.
        assert_eq!(
            prune_predicate(&col("v").lt(lit(1e18)), &s, &z),
            PruneVerdict::AllFalse
        );
    }

    #[test]
    fn and_or_not_compose() {
        let (s, z) = fixture(&[Some(10.0), Some(20.0)], &[1, 2]);
        let lo = col("v").gt(lit(0.0)); // AllTrue
        let hi = col("v").gt(lit(100.0)); // AllFalse
        assert_eq!(
            prune_predicate(&lo.clone().and(hi.clone()), &s, &z),
            PruneVerdict::AllFalse
        );
        assert_eq!(
            prune_predicate(&lo.clone().or(hi.clone()), &s, &z),
            PruneVerdict::AllTrue
        );
        assert_eq!(prune_predicate(&hi.not(), &s, &z), PruneVerdict::AllTrue);
        assert_eq!(prune_predicate(&lo.not(), &s, &z), PruneVerdict::AllFalse);
    }

    #[test]
    fn arithmetic_ranges() {
        let (s, z) = fixture(&[Some(10.0), Some(20.0)], &[1, 4]);
        // id ∈ [1,4] ⇒ id*10 ∈ [10,40]
        assert_eq!(
            prune_predicate(&col("id").mul(lit(10i64)).gt(lit(50i64)), &s, &z),
            PruneVerdict::AllFalse
        );
        assert_eq!(
            prune_predicate(&col("id").add(lit(10i64)).gt_eq(lit(11i64)), &s, &z),
            PruneVerdict::AllTrue
        );
        // Interval arithmetic is oblivious to correlation: v−v abstracts
        // to [10,20]−[10,20] = [−10,10], which still refutes > 1000.
        assert_eq!(
            prune_predicate(&col("v").sub(col("v")).gt(lit(1000.0)), &s, &z),
            PruneVerdict::AllFalse
        );
    }

    #[test]
    fn unmodeled_shapes_stay_unknown() {
        let (s, z) = fixture(&[Some(10.0)], &[1]);
        assert_eq!(
            prune_predicate(&col("id").modulo(lit(3i64)).eq(lit(0i64)), &s, &z),
            PruneVerdict::Unknown
        );
        assert_eq!(
            prune_predicate(&col("id").div(lit(2i64)).gt(lit(100.0)), &s, &z),
            PruneVerdict::Unknown
        );
        assert_eq!(
            prune_predicate(&col("missing").gt(lit(0i64)), &s, &z),
            PruneVerdict::Unknown
        );
        assert_eq!(
            prune_predicate(&col("id").hash64().gt(lit(0i64)), &s, &z),
            PruneVerdict::Unknown
        );
    }

    #[test]
    fn nan_literal_is_not_pruned_wrong() {
        let (s, z) = fixture(&[Some(10.0)], &[1]);
        assert_eq!(
            prune_predicate(&col("v").lt(lit(f64::NAN)), &s, &z),
            PruneVerdict::Unknown
        );
    }

    #[test]
    fn ulp_widening_helpers() {
        assert!(next_down(1.0) < 1.0);
        assert!(next_up(1.0) > 1.0);
        assert!(next_down(0.0) < 0.0);
        assert!(next_up(0.0) > 0.0);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(next_down(-1.0) < -1.0);
        assert!(next_up(-1.0) > -1.0);
    }
}
