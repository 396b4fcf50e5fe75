//! Zone maps: per-block, per-column min/max and null statistics.
//!
//! A zone map is the classic "small materialized aggregate" over one
//! block: for every column, the number of NULL slots plus (when the type
//! admits a sound ordering) numeric lower/upper bounds over the non-NULL
//! slots. Scans consult the zone map *before* touching a block's data:
//! if a predicate provably selects no row of the block, the whole block
//! is skipped — the same economics block sampling exploits, but with a
//! hard guarantee instead of a probabilistic one.
//!
//! Bounds are kept in `f64`, the domain SQL comparisons in this workspace
//! actually compare in ([`crate::value::Value::sql_cmp`] coerces INT64 and
//! BOOL operands to `f64`). Soundness rules:
//!
//! * INT64 endpoints whose magnitude exceeds 2⁵³ are not exactly
//!   representable in `f64`; such an endpoint widens to ±∞ rather than
//!   risk rounding *inward*.
//! * A FLOAT64 column containing any NaN gets no bounds at all: NaN
//!   compares as incomparable (NULL result), outside any interval.
//! * STR columns get no bounds (only null counts); string predicates are
//!   never pruned by zone.
//! * BOOL columns use 0/1 bounds, matching the `f64` coercion comparisons
//!   apply to them.

use crate::block::Block;
use crate::column::Column;

/// Largest integer magnitude exactly representable in `f64` (2⁵³).
const MAX_EXACT_I64_IN_F64: i64 = 1 << 53;

/// Per-column zone statistics within one block.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZone {
    /// Number of NULL slots in the column.
    pub null_count: usize,
    /// `(min, max)` over the non-NULL slots as `f64`, or `None` when the
    /// column admits no sound numeric bounds (strings, all-NULL, NaN
    /// present). Endpoints may be ±∞ (INT64 widening).
    pub bounds: Option<(f64, f64)>,
}

impl ColumnZone {
    /// Whether every slot of the column is NULL within this block.
    pub fn all_null(&self, rows: usize) -> bool {
        self.null_count == rows
    }
}

/// Zone statistics for one block: row count plus one [`ColumnZone`] per
/// schema column, in schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Rows in the block the map summarizes.
    pub rows: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnZone>,
}

impl ZoneMap {
    /// Builds the zone map for a block in one pass per column. Scans read
    /// the copy a block caches ([`Block::zone`]) instead.
    pub fn build(block: &Block) -> ZoneMap {
        ZoneMap {
            rows: block.len(),
            columns: block.columns().iter().map(column_zone).collect(),
        }
    }

    /// The zone for column `index`.
    pub fn column(&self, index: usize) -> &ColumnZone {
        &self.columns[index]
    }
}

/// Summarizes one column in one pass.
pub(crate) fn column_zone(col: &Column) -> ColumnZone {
    let null_count = col.null_count();
    let valid = col.validity_mask();
    let is_valid = |i: usize| valid.is_none_or(|m| m[i]);
    let bounds = match col {
        Column::Int64 { data, .. } => {
            let mut range: Option<(i64, i64)> = None;
            for (i, &v) in data.iter().enumerate() {
                if is_valid(i) {
                    range = Some(match range {
                        None => (v, v),
                        Some((lo, hi)) => (lo.min(v), hi.max(v)),
                    });
                }
            }
            range.map(|(lo, hi)| {
                let lo = if lo < -MAX_EXACT_I64_IN_F64 {
                    f64::NEG_INFINITY
                } else {
                    lo as f64
                };
                let hi = if hi > MAX_EXACT_I64_IN_F64 {
                    f64::INFINITY
                } else {
                    hi as f64
                };
                (lo, hi)
            })
        }
        Column::Float64 { data, .. } => {
            let mut range: Option<(f64, f64)> = None;
            for (i, &v) in data.iter().enumerate() {
                if is_valid(i) {
                    if v.is_nan() {
                        return ColumnZone {
                            null_count,
                            bounds: None,
                        };
                    }
                    range = Some(match range {
                        None => (v, v),
                        Some((lo, hi)) => (lo.min(v), hi.max(v)),
                    });
                }
            }
            range
        }
        Column::Bool { data, .. } => {
            let mut range: Option<(f64, f64)> = None;
            for (i, &v) in data.iter().enumerate() {
                if is_valid(i) {
                    let x = if v { 1.0 } else { 0.0 };
                    range = Some(match range {
                        None => (x, x),
                        Some((lo, hi)) => (lo.min(x), hi.max(x)),
                    });
                }
            }
            range
        }
        Column::Str { .. } => None,
    };
    ColumnZone { null_count, bounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};
    use std::sync::Arc;

    fn block_of(rows: &[[Value; 2]]) -> Block {
        let schema = Arc::new(Schema::new(vec![
            Field::nullable("a", DataType::Int64),
            Field::nullable("b", DataType::Float64),
        ]));
        let mut b = Block::new(schema);
        for r in rows {
            b.push_row(r).unwrap();
        }
        b
    }

    #[test]
    fn basic_bounds_and_null_counts() {
        let b = block_of(&[
            [Value::Int64(3), Value::Float64(-1.5)],
            [Value::Int64(-7), Value::Null],
            [Value::Int64(10), Value::Float64(2.0)],
        ]);
        let z = ZoneMap::build(&b);
        assert_eq!(z.rows, 3);
        assert_eq!(z.column(0).bounds, Some((-7.0, 10.0)));
        assert_eq!(z.column(0).null_count, 0);
        assert_eq!(z.column(1).bounds, Some((-1.5, 2.0)));
        assert_eq!(z.column(1).null_count, 1);
    }

    #[test]
    fn all_null_column_has_no_bounds() {
        let b = block_of(&[[Value::Null, Value::Null], [Value::Null, Value::Null]]);
        let z = ZoneMap::build(&b);
        assert_eq!(z.column(0).bounds, None);
        assert!(z.column(0).all_null(z.rows));
        assert_eq!(z.column(1).null_count, 2);
    }

    #[test]
    fn nan_poisons_float_bounds() {
        let b = block_of(&[
            [Value::Int64(1), Value::Float64(1.0)],
            [Value::Int64(2), Value::Float64(f64::NAN)],
        ]);
        let z = ZoneMap::build(&b);
        assert_eq!(z.column(1).bounds, None);
        assert_eq!(z.column(0).bounds, Some((1.0, 2.0)));
    }

    #[test]
    fn huge_ints_widen_to_infinity() {
        let b = block_of(&[
            [Value::Int64(i64::MIN), Value::Float64(0.0)],
            [Value::Int64(i64::MAX), Value::Float64(0.0)],
        ]);
        let z = ZoneMap::build(&b);
        assert_eq!(z.column(0).bounds, Some((f64::NEG_INFINITY, f64::INFINITY)));
        // Exactly representable endpoints stay tight.
        let b = block_of(&[[Value::Int64(1 << 53), Value::Float64(0.0)]]);
        let z = ZoneMap::build(&b);
        assert_eq!(
            z.column(0).bounds,
            Some(((1i64 << 53) as f64, (1i64 << 53) as f64))
        );
    }

    #[test]
    fn str_and_bool_zones() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("f", DataType::Bool),
        ]));
        let mut b = Block::new(schema);
        b.push_row(&[Value::str("x"), Value::Bool(true)]).unwrap();
        b.push_row(&[Value::str("y"), Value::Bool(true)]).unwrap();
        let z = ZoneMap::build(&b);
        assert_eq!(z.column(0).bounds, None);
        assert_eq!(z.column(1).bounds, Some((1.0, 1.0)));
    }
}
