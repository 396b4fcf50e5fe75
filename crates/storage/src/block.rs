//! Blocks: fixed-capacity columnar batches, the minimum unit of data access.
//!
//! A block plays the role a disk page plays in the systems NSB surveys:
//! block sampling decides per *block* whether to touch it at all, which is
//! where its system efficiency comes from.

use std::sync::{Arc, OnceLock};

use crate::column::Column;
use crate::dict::StrDict;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use crate::zone::{column_zone, ZoneMap};

/// A columnar batch of rows sharing one schema.
#[derive(Debug, Clone)]
pub struct Block {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    len: usize,
    /// The zone map, built on first use and kept with the block, so every
    /// table over this `Arc<Block>` — a block sample, a merge, a
    /// `Catalog::replace`d version — reads the one map. Lazy so assembling
    /// a table stays zero-copy; dropped by every `&mut` row mutator, so it
    /// never describes rows the block no longer holds.
    zone: OnceLock<ZoneMap>,
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
            zone: OnceLock::new(),
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
            zone: OnceLock::new(),
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
            zone: OnceLock::new(),
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

    /// Appends a row of values. The whole row is checked before any
    /// column grows, so a rejected row leaves the block as it was.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                actual: row.len(),
            });
        }
        for ((value, column), field) in row.iter().zip(&self.columns).zip(self.schema.fields()) {
            if value.is_null() && !field.nullable {
                return Err(StorageError::NullViolation {
                    column: field.name.clone(),
                });
            }
            column.check(value).map_err(|e| match e {
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
        for (value, column) in row.iter().zip(&mut self.columns) {
            column.push_checked(value);
        }
        self.len += 1;
        self.zone.take();
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
        self.zone.take();
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

    /// This block's [`ZoneMap`], built on first use (one pass per column)
    /// and cached on the block; concurrent first uses wait on one build.
    pub fn zone(&self) -> &ZoneMap {
        self.zone.get_or_init(|| ZoneMap::build(self))
    }

    /// Builds this block's zone map if no caller has yet, and whether this
    /// call built it: of racing first uses, one builds and the others
    /// wait on it and return `false`.
    pub fn build_zone(&self) -> bool {
        let mut built = false;
        self.zone.get_or_init(|| {
            built = true;
            ZoneMap::build(self)
        });
        built
    }

    /// Whether this block's zone map has been built already.
    pub fn has_zone(&self) -> bool {
        self.zone.get().is_some()
    }

    /// This block's rows with `column` appended as a last column, under
    /// `schema` (this block's fields plus the new one). The new block's
    /// zone map is this block's — built now if missing, and so cached here
    /// for every later caller — plus the new column's zone: no existing
    /// column is summarized again.
    ///
    /// # Panics
    /// Panics on the disagreements [`Block::from_columns`] rejects.
    pub fn with_column(&self, schema: Arc<Schema>, column: Column) -> Block {
        let mut zone = self.zone().clone();
        zone.columns.push(column_zone(&column));
        let mut columns = Vec::with_capacity(self.columns.len() + 1);
        columns.extend_from_slice(&self.columns);
        columns.push(column);
        let mut block = Block::from_columns(schema, columns);
        block.zone = OnceLock::from(zone);
        block
    }

    /// Gathers the rows at `indices` into a new block.
    pub fn take(&self, indices: &[usize]) -> Block {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Block {
            schema: Arc::clone(&self.schema),
            columns,
            len: indices.len(),
            zone: OnceLock::new(),
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

    /// Regression: a row rejected by a later column used to leave the
    /// earlier columns one value longer than the block.
    #[test]
    fn rejected_row_leaves_every_column_as_it_was() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("v", DataType::Float64),
            Field::new("s", DataType::Str),
            Field::new("flag", DataType::Bool),
        ]));
        let mut b = Block::new(schema);
        let err = b.push_row(&[
            Value::Int64(1),
            Value::Float64(1.5),
            Value::str("a"),
            Value::Int64(0),
        ]);
        assert_eq!(
            err,
            Err(StorageError::TypeMismatch {
                column: "flag".into(),
                expected: DataType::Bool,
                actual: DataType::Int64,
            })
        );
        let err = b.push_row(&[Value::Int64(1), Value::Null, Value::Null, Value::Bool(true)]);
        assert!(
            matches!(&err, Err(StorageError::NullViolation { column }) if column == "s"),
            "{err:?}"
        );
        let row = vec![
            Value::Int64(2),
            Value::Float64(2.5),
            Value::str("b"),
            Value::Bool(true),
        ];
        b.push_row(&row).unwrap();
        assert_eq!(b.len(), 1);
        assert!(b.columns().iter().all(|c| c.len() == 1));
        assert_eq!(b.row(0), row);
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

    /// A zone read before a row is added is dropped, so the next read
    /// covers the new row: a stale map would let a scan prune live rows.
    #[test]
    fn a_row_mutator_drops_the_cached_zone() {
        let mut b = sample_block(); // id 1..=3, v 10 / NULL / 30
        assert!(!b.has_zone(), "built on first use");
        assert_eq!(b.zone().column(0).bounds, Some((1.0, 3.0)));
        assert!(b.has_zone());

        b.push_row(&[Value::Int64(9), Value::Float64(-4.0)])
            .unwrap();
        assert!(!b.has_zone(), "push_row kept a stale zone");
        assert_eq!(b.zone().column(0).bounds, Some((1.0, 9.0)));
        assert_eq!(b.zone().column(1).bounds, Some((-4.0, 30.0)));

        let mut src = Block::new(schema());
        src.push_row(&[Value::Int64(100), Value::Null]).unwrap();
        b.gather_row(&src, 0);
        assert!(!b.has_zone(), "gather_row kept a stale zone");
        let zone = b.zone();
        assert_eq!(zone.rows, 5);
        assert_eq!(zone.column(0).bounds, Some((1.0, 100.0)));
        assert_eq!(zone.column(1).null_count, 2);
        assert_eq!(zone, &ZoneMap::build(&b));
    }

    /// `build_zone` builds a missing map once and reports it, so a count
    /// of its `true`s counts each map built, however many callers race.
    #[test]
    fn build_zone_reports_only_the_build_it_made() {
        let b = sample_block();
        assert!(b.build_zone());
        assert!(b.has_zone() && !b.build_zone());
        assert_eq!(b.zone(), &ZoneMap::build(&b));
        let b = sample_block();
        let built: usize = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2).map(|_| s.spawn(|| b.build_zone())).collect();
            racers
                .into_iter()
                .map(|r| usize::from(r.join().unwrap()))
                .sum()
        });
        assert_eq!(built, 1);
    }

    /// `with_column` on an empty block, and the source keeps the map it
    /// built for the copy.
    #[test]
    fn with_column_carries_the_source_zone() {
        let empty = Block::new(schema());
        let wide_schema = |s: &Schema| {
            let mut fields = s.fields().to_vec();
            fields.push(Field::new("w", DataType::Float64));
            Arc::new(Schema::new(fields))
        };
        let wide = empty.with_column(wide_schema(empty.schema()), Column::new(DataType::Float64));
        assert!(wide.is_empty() && empty.has_zone() && wide.has_zone());
        assert_eq!(wide.zone(), &ZoneMap::build(&wide));

        let b = sample_block();
        let wide = b.with_column(wide_schema(b.schema()), Column::from_f64(vec![2.0; 3]));
        assert!(b.has_zone(), "the source caches the map it lent");
        assert_eq!(wide.zone().columns[..2], b.zone().columns[..]);
        assert_eq!(wide.zone().column(2).bounds, Some((2.0, 2.0)));
        assert_eq!(
            wide.row(1),
            vec![Value::Int64(2), Value::Null, Value::Float64(2.0)]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;
    use proptest::prelude::*;

    const TYPES: [DataType; 4] = [
        DataType::Int64,
        DataType::Float64,
        DataType::Str,
        DataType::Bool,
    ];

    /// One nullable value of `data_type` from two small draws, reaching
    /// NULL, NaN, ±0.0, ±∞ and the INT64 extremes.
    fn value(data_type: DataType, pick: u8, x: i64) -> Value {
        match (data_type, pick) {
            (_, 0) => Value::Null,
            (DataType::Int64, 1) => Value::Int64(i64::MAX),
            (DataType::Int64, 2) => Value::Int64(i64::MIN),
            (DataType::Int64, _) => Value::Int64(x),
            (DataType::Float64, 1) if x == 0 => Value::Float64(f64::NAN),
            (DataType::Float64, 2) => Value::Float64(0.0),
            (DataType::Float64, 3) => Value::Float64(-0.0),
            (DataType::Float64, 4) => Value::Float64(f64::NEG_INFINITY),
            (DataType::Float64, _) => Value::Float64(x as f64 / 4.0),
            (DataType::Str, _) => Value::str(format!("s{x}")),
            (DataType::Bool, _) => Value::Bool(x % 2 == 0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A block built row by row — its zone read part-way, so a stale
        /// cache would show — and then widened by one column of any type
        /// carries exactly the zone map a fresh build of the same columns
        /// computes.
        #[test]
        fn with_column_zone_equals_a_fresh_build(
            rows in collection::vec((0u8..16, -6i64..6, 0u8..16, -6i64..6), 0..24),
            read_at in 0usize..24,
            extra in 0usize..4,
            warm in any::<bool>(),
        ) {
            let fields = (TYPES.iter().enumerate())
                .map(|(i, &t)| Field::nullable(format!("c{i}"), t))
                .collect();
            let mut block = Block::new(Arc::new(Schema::new(fields)));
            let mut column = Column::new(TYPES[extra]);
            for (i, &(pick, x, extra_pick, y)) in rows.iter().enumerate() {
                if i == read_at {
                    block.zone();
                }
                let row: Vec<Value> = TYPES.iter().map(|&t| value(t, pick, x)).collect();
                block.push_row(&row).unwrap();
                column.push(&value(TYPES[extra], extra_pick, y)).unwrap();
            }
            if warm {
                block.zone();
            }
            let mut fields = block.schema().fields().to_vec();
            fields.push(Field::nullable("extra", TYPES[extra]));
            let wide = block.with_column(Arc::new(Schema::new(fields)), column);
            prop_assert!(block.has_zone() && wide.has_zone());
            prop_assert_eq!(block.zone(), &ZoneMap::build(&block));
            prop_assert_eq!(wide.zone(), &ZoneMap::build(&wide));
            prop_assert_eq!(wide.len(), rows.len());
        }
    }
}
