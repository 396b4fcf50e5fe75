//! Blocks: fixed-capacity columnar batches, the minimum unit of data access.
//!
//! A block plays the role a disk page plays in the systems NSB surveys:
//! block sampling decides per *block* whether to touch it at all, which is
//! where its system efficiency comes from.

use std::sync::Arc;

use crate::column::Column;
use crate::dict::StrDict;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;

/// A columnar batch of rows sharing one schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    len: usize,
}

impl Block {
    /// Creates an empty block for the schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        Self {
            schema,
            columns,
            len: 0,
        }
    }

    /// Creates an empty block with per-column reserved capacity.
    pub fn with_capacity(schema: Arc<Schema>, capacity: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, capacity))
            .collect();
        Self {
            schema,
            columns,
            len: 0,
        }
    }

    /// Assembles a block directly from columns (lengths must agree and
    /// types must match the schema).
    ///
    /// # Panics
    /// Panics on length or type disagreement; blocks are built by trusted
    /// operators, so disagreement is a bug.
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<Column>) -> Self {
        assert_eq!(
            schema.len(),
            columns.len(),
            "column count must match schema"
        );
        let len = columns.first().map_or(0, Column::len);
        for (f, c) in schema.fields().iter().zip(&columns) {
            assert_eq!(
                f.data_type,
                c.data_type(),
                "column {} type mismatch",
                f.name
            );
            assert_eq!(c.len(), len, "ragged columns in block");
        }
        Self {
            schema,
            columns,
            len,
        }
    }

    /// The block's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at index.
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, StorageError> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Appends a row of values.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                actual: row.len(),
            });
        }
        for ((value, column), field) in row.iter().zip(&mut self.columns).zip(self.schema.fields())
        {
            if value.is_null() && !field.nullable {
                return Err(StorageError::NullViolation {
                    column: field.name.clone(),
                });
            }
            column.push(value).map_err(|e| match e {
                StorageError::TypeMismatch {
                    expected, actual, ..
                } => StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected,
                    actual,
                },
                other => other,
            })?;
        }
        self.len += 1;
        Ok(())
    }

    /// Materializes row `i` as values.
    ///
    /// Allocates a fresh `Vec<Value>` per call — convenience for tests,
    /// display, and result inspection only. Hot paths (scan kernels, the
    /// gather join, samplers) read column slices or gather with
    /// [`Block::gather_row`] / [`Column::push_slot`] / [`Column::take`]
    /// instead.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Appends row `i` of `src` (same schema shape: equal arity, matching
    /// column types) onto this block via typed per-column copies — no
    /// `Vec<Value>` materialization. The gather primitive samplers use.
    ///
    /// # Panics
    /// Panics on arity or column-type mismatch.
    pub fn gather_row(&mut self, src: &Block, i: usize) {
        assert_eq!(
            self.columns.len(),
            src.columns.len(),
            "gather_row arity mismatch"
        );
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.push_slot(s, i);
        }
        self.len += 1;
    }

    /// Points this block's STR columns at `dicts` (one slot per column,
    /// `None` for non-STR ones) — the one dictionary per column the blocks
    /// of an assembled table share. Each must extend the dictionary the
    /// column's codes were minted in.
    pub(crate) fn share_dicts(&mut self, dicts: &[Option<Arc<StrDict>>]) {
        for (column, dict) in self.columns.iter_mut().zip(dicts) {
            if let (Some(slot), Some(dict)) = (column.dict_mut(), dict) {
                *slot = Arc::clone(dict);
            }
        }
    }

    /// Freezes the STR dictionaries this block alone owns (they are done
    /// growing) and returns every STR column's, one slot per column — what
    /// [`Block::share_dicts`] hands the other blocks of the table.
    pub(crate) fn freeze_dicts(&mut self) -> Vec<Option<Arc<StrDict>>> {
        (self.columns.iter_mut())
            .map(|column| {
                column.dict_mut().map(|dict| {
                    if let Some(owned) = Arc::get_mut(dict) {
                        owned.freeze();
                    }
                    Arc::clone(dict)
                })
            })
            .collect()
    }

    /// Moves this block's STR dictionaries into `next` (a block of the
    /// same schema), leaving it `next`'s.
    pub(crate) fn hand_dicts_to(&mut self, next: &mut Block) {
        for (from, to) in self.columns.iter_mut().zip(&mut next.columns) {
            if let (Some(a), Some(b)) = (from.dict_mut(), to.dict_mut()) {
                std::mem::swap(a, b);
            }
        }
    }

    /// Builds this block's [`crate::zone::ZoneMap`] (one pass per column).
    pub fn zone_map(&self) -> crate::zone::ZoneMap {
        crate::zone::ZoneMap::build(self)
    }

    /// Gathers the rows at `indices` into a new block.
    pub fn take(&self, indices: &[usize]) -> Block {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Block {
            schema: Arc::clone(&self.schema),
            columns,
            len: indices.len(),
        }
    }

    /// Filters rows by a boolean mask (`mask.len() == self.len()`).
    pub fn filter(&self, mask: &[bool]) -> Block {
        assert_eq!(mask.len(), self.len, "mask length must equal row count");
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.take(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("v", DataType::Float64),
        ]))
    }

    fn sample_block() -> Block {
        let mut b = Block::new(schema());
        b.push_row(&[Value::Int64(1), Value::Float64(10.0)])
            .unwrap();
        b.push_row(&[Value::Int64(2), Value::Null]).unwrap();
        b.push_row(&[Value::Int64(3), Value::Float64(30.0)])
            .unwrap();
        b
    }

    #[test]
    fn push_and_read_rows() {
        let b = sample_block();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.row(0), vec![Value::Int64(1), Value::Float64(10.0)]);
        assert_eq!(b.row(1), vec![Value::Int64(2), Value::Null]);
        assert_eq!(b.column_by_name("id").unwrap().get(2), Value::Int64(3));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = Block::new(schema());
        assert!(matches!(
            b.push_row(&[Value::Int64(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn null_violation_rejected() {
        let mut b = Block::new(schema());
        assert!(matches!(
            b.push_row(&[Value::Null, Value::Float64(1.0)]),
            Err(StorageError::NullViolation { .. })
        ));
    }

    #[test]
    fn type_mismatch_names_column() {
        let mut b = Block::new(schema());
        let err = b
            .push_row(&[Value::str("oops"), Value::Float64(1.0)])
            .unwrap_err();
        match err {
            StorageError::TypeMismatch { column, .. } => assert_eq!(column, "id"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn take_and_filter() {
        let b = sample_block();
        let t = b.take(&[2, 0]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0)[0], Value::Int64(3));
        let f = b.filter(&[true, false, true]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(1)[0], Value::Int64(3));
    }

    #[test]
    fn from_columns_checks() {
        let s = schema();
        let b = Block::from_columns(
            Arc::clone(&s),
            vec![
                Column::from_i64(vec![1, 2]),
                Column::from_f64(vec![1.0, 2.0]),
            ],
        );
        assert_eq!(b.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged columns")]
    fn from_columns_rejects_ragged() {
        Block::from_columns(
            schema(),
            vec![Column::from_i64(vec![1]), Column::from_f64(vec![1.0, 2.0])],
        );
    }
}
