//! Typed columnar vectors with optional validity (NULL) masks.
//!
//! Strings have one encoding: a `u32` code per slot into a shared
//! [`StrDict`]. Every block a [`TableBuilder`](crate::TableBuilder) seals
//! shares one dictionary per STR column, and the typed gathers (`take`,
//! `push_slot`, `append`, `filter`, the samplers' and joins' row copies)
//! copy codes whenever source and destination share a dictionary — a
//! destination whose dictionary is still empty adopts the source's — and
//! re-intern by value only otherwise. Everything that reads a string as a
//! value ([`Column::get`], equality, the wire codec) goes through the
//! dictionary, so no caller can tell codes from strings.

use std::sync::Arc;

use crate::dict::StrDict;
use crate::error::StorageError;
use crate::value::{DataType, Value};

/// A typed column of values.
///
/// Each variant holds a dense data vector plus an optional validity mask;
/// `None` means every slot is valid (the common case, kept mask-free so scan
/// kernels stay branch-light).
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// Dense values (slot content is unspecified where invalid).
        data: Vec<i64>,
        /// `true` = valid; `None` = all valid.
        validity: Option<Vec<bool>>,
    },
    /// 64-bit floats.
    Float64 {
        /// Dense values.
        data: Vec<f64>,
        /// Validity mask.
        validity: Option<Vec<bool>>,
    },
    /// UTF-8 strings, dictionary-encoded.
    Str {
        /// One code per slot into `dict` (unspecified where invalid).
        codes: Vec<u32>,
        /// The distinct values the codes index.
        dict: Arc<StrDict>,
        /// Validity mask.
        validity: Option<Vec<bool>>,
    },
    /// Booleans.
    Bool {
        /// Dense values.
        data: Vec<bool>,
        /// Validity mask.
        validity: Option<Vec<bool>>,
    },
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        Self::with_capacity(data_type, 0)
    }

    /// Creates an empty column with reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64 {
                data: Vec::with_capacity(capacity),
                validity: None,
            },
            DataType::Float64 => Column::Float64 {
                data: Vec::with_capacity(capacity),
                validity: None,
            },
            DataType::Str => Column::Str {
                codes: Vec::with_capacity(capacity),
                dict: Arc::default(),
                validity: None,
            },
            DataType::Bool => Column::Bool {
                data: Vec::with_capacity(capacity),
                validity: None,
            },
        }
    }

    /// Builds an all-valid column from `i64` values.
    pub fn from_i64(data: Vec<i64>) -> Self {
        Column::Int64 {
            data,
            validity: None,
        }
    }

    /// Builds an all-valid column from `f64` values.
    pub fn from_f64(data: Vec<f64>) -> Self {
        Column::Float64 {
            data,
            validity: None,
        }
    }

    /// Builds an all-valid column from strings.
    pub fn from_str_values<S: AsRef<str>>(data: impl IntoIterator<Item = S>) -> Self {
        let mut dict = StrDict::default();
        let codes = data.into_iter().map(|s| dict.intern(s.as_ref())).collect();
        Column::Str {
            codes,
            dict: Arc::new(dict),
            validity: None,
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Str { .. } => DataType::Str,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// Number of slots (valid or not).
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { data, .. } => data.len(),
            Column::Float64 { data, .. } => data.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Bool { data, .. } => data.len(),
        }
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn validity(&self) -> &Option<Vec<bool>> {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Str { validity, .. }
            | Column::Bool { validity, .. } => validity,
        }
    }

    fn validity_mut(&mut self) -> &mut Option<Vec<bool>> {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Str { validity, .. }
            | Column::Bool { validity, .. } => validity,
        }
    }

    /// Whether slot `i` holds NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self.validity() {
            Some(mask) => !mask[i],
            None => false,
        }
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        match self.validity() {
            Some(mask) => mask.iter().filter(|&&v| !v).count(),
            None => 0,
        }
    }

    /// The type check [`Column::push`] makes, without pushing.
    pub(crate) fn check(&self, value: &Value) -> Result<(), StorageError> {
        let fits = match (self, value) {
            (_, Value::Null)
            | (Column::Int64 { .. }, Value::Int64(_))
            | (Column::Str { .. }, Value::Str(_))
            | (Column::Bool { .. }, Value::Bool(_)) => true,
            (Column::Float64 { .. }, v) => v.as_f64().is_some(),
            _ => false,
        };
        match value.data_type() {
            Some(actual) if !fits => Err(StorageError::TypeMismatch {
                column: String::new(),
                expected: self.data_type(),
                actual,
            }),
            _ => Ok(()),
        }
    }

    /// Appends a value, checking its type against the column's.
    ///
    /// NULL always passes (nullability is the schema's rule, not the
    /// column's). Integers coerce into float columns (the one implicit
    /// widening SQL engines universally allow); all other mismatches error.
    pub fn push(&mut self, value: &Value) -> Result<(), StorageError> {
        self.check(value)?;
        self.push_checked(value);
        Ok(())
    }

    /// Appends a value `check` accepted.
    pub(crate) fn push_checked(&mut self, value: &Value) {
        if value.is_null() {
            self.push_null();
            return;
        }
        match (&mut *self, value) {
            (Column::Int64 { data, .. }, Value::Int64(v)) => data.push(*v),
            (Column::Float64 { data, .. }, v) => data.push(v.as_f64().expect("checked")),
            (Column::Str { codes, dict, .. }, Value::Str(s)) => {
                codes.push(Arc::make_mut(dict).intern(s));
            }
            (Column::Bool { data, .. }, Value::Bool(b)) => data.push(*b),
            _ => unreachable!("value pushed without Column::check"),
        }
        if let Some(mask) = self.validity_mut() {
            mask.push(true);
        }
    }

    /// Appends a NULL slot.
    pub fn push_null(&mut self) {
        let len = self.len();
        // Materialize the mask lazily on first NULL.
        if self.validity().is_none() {
            *self.validity_mut() = Some(vec![true; len]);
        }
        match self {
            Column::Int64 { data, .. } => data.push(0),
            Column::Float64 { data, .. } => data.push(0.0),
            Column::Str { codes, .. } => codes.push(0),
            Column::Bool { data, .. } => data.push(false),
        }
        self.validity_mut()
            .as_mut()
            .expect("mask materialized above")
            .push(false);
    }

    /// The value at slot `i` (NULL-aware).
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Column::Int64 { data, .. } => Value::Int64(data[i]),
            Column::Float64 { data, .. } => Value::Float64(data[i]),
            Column::Str { codes, dict, .. } => Value::Str(Arc::clone(dict.value(codes[i]))),
            Column::Bool { data, .. } => Value::Bool(data[i]),
        }
    }

    /// Numeric view of slot `i`: `None` for NULL or non-numeric columns.
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        match self {
            Column::Int64 { data, .. } => Some(data[i] as f64),
            Column::Float64 { data, .. } => Some(data[i]),
            Column::Bool { data, .. } => Some(if data[i] { 1.0 } else { 0.0 }),
            Column::Str { .. } => None,
        }
    }

    /// Raw `i64` slice view (slot content is unspecified where invalid);
    /// `None` for other column types. Scan kernels read these directly
    /// instead of materializing per-row [`Value`]s.
    pub fn i64_values(&self) -> Option<&[i64]> {
        match self {
            Column::Int64 { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Raw `f64` slice view; `None` for other column types.
    pub fn f64_values(&self) -> Option<&[f64]> {
        match self {
            Column::Float64 { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Raw code view of a STR column — the codes (unspecified where
    /// invalid) and the dictionary they index; `None` for other types.
    pub fn str_codes(&self) -> Option<(&[u32], &Arc<StrDict>)> {
        match self {
            Column::Str { codes, dict, .. } => Some((codes, dict)),
            _ => None,
        }
    }

    /// The dictionary of a STR column, for the storage layer to share one
    /// dictionary across the blocks of a table it assembles.
    pub(crate) fn dict_mut(&mut self) -> Option<&mut Arc<StrDict>> {
        match self {
            Column::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// The validity mask as a slice (`true` = valid); `None` means every
    /// slot is valid.
    pub fn validity_mask(&self) -> Option<&[bool]> {
        self.validity().as_deref()
    }

    /// Appends slot `i` of `src` (same type) onto `self` without
    /// materializing a [`Value`] — the typed gather primitive row
    /// assembly (joins, samplers) is built on.
    ///
    /// # Panics
    /// Panics on type mismatch; gathers happen strictly between columns
    /// of one schema.
    pub fn push_slot(&mut self, src: &Column, i: usize) {
        if let (Column::Str { dict, .. }, Column::Str { dict: from, .. }) = (&mut *self, src) {
            // A destination with no value yet adopts the source's
            // dictionary — on a NULL slot too, as `take` would share it.
            if dict.is_empty() && !Arc::ptr_eq(dict, from) {
                *dict = Arc::clone(from);
            }
        }
        if src.is_null(i) {
            self.push_null();
            return;
        }
        match (&mut *self, src) {
            (Column::Int64 { data, validity }, Column::Int64 { data: s, .. }) => {
                data.push(s[i]);
                if let Some(mask) = validity {
                    mask.push(true);
                }
            }
            (Column::Float64 { data, validity }, Column::Float64 { data: s, .. }) => {
                data.push(s[i]);
                if let Some(mask) = validity {
                    mask.push(true);
                }
            }
            // The one implicit widening `push` allows: INT64 into FLOAT64.
            (Column::Float64 { data, validity }, Column::Int64 { data: s, .. }) => {
                data.push(s[i] as f64);
                if let Some(mask) = validity {
                    mask.push(true);
                }
            }
            (
                Column::Str {
                    codes,
                    dict,
                    validity,
                },
                Column::Str {
                    codes: s,
                    dict: from,
                    ..
                },
            ) => {
                let code = if Arc::ptr_eq(dict, from) {
                    s[i]
                } else {
                    Arc::make_mut(dict).intern(from.value(s[i]))
                };
                codes.push(code);
                if let Some(mask) = validity {
                    mask.push(true);
                }
            }
            (Column::Bool { data, validity }, Column::Bool { data: s, .. }) => {
                data.push(s[i]);
                if let Some(mask) = validity {
                    mask.push(true);
                }
            }
            (dst, src) => panic!(
                "push_slot type mismatch: {} slot into {} column",
                src.data_type(),
                dst.data_type()
            ),
        }
    }

    /// Gathers the slots at `indices` into a new column (typed copies; no
    /// per-slot [`Value`] materialization).
    pub fn take(&self, indices: &[usize]) -> Column {
        let validity = take_mask(self.validity(), indices);
        match self {
            Column::Int64 { data, .. } => Column::Int64 {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity,
            },
            Column::Float64 { data, .. } => Column::Float64 {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity,
            },
            Column::Str { codes, dict, .. } => Column::Str {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
                validity,
            },
            Column::Bool { data, .. } => Column::Bool {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity,
            },
        }
    }

    /// Appends all slots of `other` (same type) onto `self`, slot by slot
    /// through [`Column::push_slot`].
    ///
    /// # Panics
    /// Panics on type mismatch — concatenation happens strictly between
    /// columns of one schema.
    pub fn append(&mut self, other: &Column) {
        assert_eq!(
            self.data_type(),
            other.data_type(),
            "append requires matching column types"
        );
        for i in 0..other.len() {
            self.push_slot(other, i);
        }
    }
}

/// Value equality: same type, same validity, and equal values in every
/// valid slot — two STR columns compare by string, whatever their
/// dictionaries.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        // Validity first: only then are both sides' codes in a slot valid.
        self.validity() == other.validity()
            && match (self, other) {
                (Column::Int64 { data: a, .. }, Column::Int64 { data: b, .. }) => a == b,
                (Column::Float64 { data: a, .. }, Column::Float64 { data: b, .. }) => a == b,
                (Column::Bool { data: a, .. }, Column::Bool { data: b, .. }) => a == b,
                (
                    Column::Str {
                        codes: a, dict: da, ..
                    },
                    Column::Str {
                        codes: b, dict: db, ..
                    },
                ) => {
                    let same_dict = Arc::ptr_eq(da, db);
                    a.len() == b.len()
                        && (0..a.len()).all(|i| {
                            self.is_null(i)
                                || (same_dict && a[i] == b[i])
                                || (!same_dict && da.value(a[i]) == db.value(b[i]))
                        })
                }
                _ => false,
            }
    }
}

/// Gathers a validity mask through `indices`, normalizing an all-valid
/// result back to `None` (so gathered columns compare equal to columns
/// that never saw a NULL).
fn take_mask(validity: &Option<Vec<bool>>, indices: &[usize]) -> Option<Vec<bool>> {
    let mask = validity.as_ref()?;
    let gathered: Vec<bool> = indices.iter().map(|&i| mask[i]).collect();
    gathered.iter().any(|&v| !v).then_some(gathered)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An all-valid BOOL column.
    fn bools(data: Vec<bool>) -> Column {
        Column::Bool {
            data,
            validity: None,
        }
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::new(DataType::Int64);
        c.push(&Value::Int64(1)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Int64(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int64(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int64(3));
        assert!(c.is_null(1));
        assert!(!c.is_null(0));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut c = Column::new(DataType::Float64);
        c.push(&Value::Int64(2)).unwrap();
        assert_eq!(c.get(0), Value::Float64(2.0));
    }

    #[test]
    fn type_mismatch_errors() {
        let mut c = Column::new(DataType::Int64);
        assert!(c.push(&Value::str("x")).is_err());
        let mut c = Column::new(DataType::Str);
        assert!(c.push(&Value::Int64(1)).is_err());
        let mut c = Column::new(DataType::Bool);
        assert!(c.push(&Value::Float64(0.0)).is_err());
    }

    #[test]
    fn f64_view() {
        let c = Column::from_i64(vec![1, 2]);
        assert_eq!(c.f64_at(0), Some(1.0));
        let c = bools(vec![true, false]);
        assert_eq!(c.f64_at(0), Some(1.0));
        assert_eq!(c.f64_at(1), Some(0.0));
        let c = Column::from_str_values(["a"]);
        assert_eq!(c.f64_at(0), None);
        let mut c = Column::new(DataType::Float64);
        c.push_null();
        assert_eq!(c.f64_at(0), None);
    }

    #[test]
    fn lazy_validity_mask() {
        let mut c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.null_count(), 0);
        c.push_null();
        assert_eq!(c.null_count(), 1);
        assert!(!c.is_null(0));
        assert!(c.is_null(3));
    }

    #[test]
    fn take_gathers_with_nulls() {
        let mut c = Column::new(DataType::Str);
        c.push(&Value::str("a")).unwrap();
        c.push_null();
        c.push(&Value::str("c")).unwrap();
        let t = c.take(&[2, 1, 0, 0]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(0), Value::str("c"));
        assert_eq!(t.get(1), Value::Null);
        assert_eq!(t.get(2), Value::str("a"));
        assert_eq!(t.get(3), Value::str("a"));
    }

    #[test]
    fn append_concatenates() {
        let mut a = Column::from_i64(vec![1, 2]);
        let mut b = Column::from_i64(vec![3]);
        b.push_null();
        a.append(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(2), Value::Int64(3));
        assert_eq!(a.get(3), Value::Null);
    }

    #[test]
    #[should_panic(expected = "matching column types")]
    fn append_rejects_mismatch() {
        let mut a = Column::from_i64(vec![1]);
        a.append(&bools(vec![true]));
    }

    #[test]
    fn take_normalizes_all_valid_mask() {
        let mut c = Column::from_i64(vec![1, 2, 3]);
        c.push_null();
        // Gather only valid slots: the result must carry no mask at all,
        // exactly as the push-based gather produced.
        let t = c.take(&[0, 2]);
        assert_eq!(t, Column::from_i64(vec![1, 3]));
        let t = c.take(&[3, 0]);
        assert!(t.is_null(0));
        assert_eq!(t.get(1), Value::Int64(1));
    }

    #[test]
    fn slice_views() {
        let c = Column::from_i64(vec![4, 5]);
        assert_eq!(c.i64_values(), Some(&[4i64, 5][..]));
        assert_eq!(c.f64_values(), None);
        assert_eq!(c.validity_mask(), None);
        let mut c = Column::from_f64(vec![1.5]);
        c.push_null();
        assert_eq!(c.f64_values(), Some(&[1.5, 0.0][..]));
        assert_eq!(c.validity_mask(), Some(&[true, false][..]));
        let strs = Column::from_str_values(["a", "b", "a"]);
        let (codes, dict) = strs.str_codes().expect("STR column");
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.value(1).as_ref(), "b");
        assert!(c.str_codes().is_none());
    }

    #[test]
    fn gathers_copy_codes_within_a_dictionary_and_reintern_across() {
        let src = Column::from_str_values(["x", "y", "x"]);
        let (_, src_dict) = src.str_codes().unwrap();
        // An empty destination adopts the source's dictionary.
        let mut dst = Column::new(DataType::Str);
        dst.push_slot(&src, 1);
        dst.append(&src);
        assert!(Arc::ptr_eq(dst.str_codes().unwrap().1, src_dict));
        assert_eq!(dst.str_codes().unwrap().0, &[1, 0, 1, 0]);
        assert!(Arc::ptr_eq(
            src.take(&[2, 0]).str_codes().unwrap().1,
            src_dict
        ));
        // Another dictionary: re-interned by value, into a copy — the
        // source's dictionary never changes under it.
        let other = Column::from_str_values(["z", "x"]);
        dst.append(&other);
        assert_eq!(src_dict.len(), 2);
        let values: Vec<Value> = (0..dst.len()).map(|i| dst.get(i)).collect();
        let want: Vec<Value> = ["y", "x", "y", "x", "z", "x"].map(Value::str).into();
        assert_eq!(values, want);
        assert_eq!(dst.str_codes().unwrap().0[5], 0, "x kept its code");
    }

    #[test]
    fn string_equality_is_by_value() {
        let a = Column::from_str_values(["p", "q", "p"]);
        let b = Column::from_str_values(["q", "p"]).take(&[1, 0, 1]);
        assert_eq!(a, b, "same values under different codes");
        assert_ne!(a, Column::from_str_values(["p", "q", "q"]));
        let mut n1 = Column::from_str_values(["p"]);
        n1.push_null();
        let mut n2 = Column::from_str_values(["p", "q"]).take(&[0]);
        n2.push_null();
        assert_eq!(n1, n2, "NULL slots compare by validity only");
        assert_ne!(n1, Column::from_str_values(["p", ""]));
        // A NULL against a value, the NULL's dictionary empty.
        let mut null = Column::new(DataType::Str);
        null.push_null();
        assert_ne!(Column::from_str_values(["p"]), null);
    }

    #[test]
    fn push_slot_gathers_typed() {
        let mut src = Column::from_f64(vec![1.0, 2.0]);
        src.push_null();
        let mut dst = Column::new(DataType::Float64);
        dst.push_slot(&src, 2);
        dst.push_slot(&src, 0);
        assert!(dst.is_null(0));
        assert_eq!(dst.get(1), Value::Float64(1.0));
        // INT64 widens into FLOAT64, as with push().
        let ints = Column::from_i64(vec![7]);
        dst.push_slot(&ints, 0);
        assert_eq!(dst.get(2), Value::Float64(7.0));
    }

    #[test]
    #[should_panic(expected = "push_slot type mismatch")]
    fn push_slot_rejects_mismatch() {
        let mut dst = Column::new(DataType::Int64);
        dst.push_slot(&bools(vec![true]), 0);
    }

    #[test]
    fn builders() {
        assert_eq!(Column::from_f64(vec![1.5]).get(0), Value::Float64(1.5));
        assert_eq!(
            Column::from_str_values(vec!["x", "y"]).get(1),
            Value::str("y")
        );
        assert_eq!(Column::with_capacity(DataType::Bool, 10).len(), 0);
        assert!(Column::new(DataType::Int64).is_empty());
    }
}
