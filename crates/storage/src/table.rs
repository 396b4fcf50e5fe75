//! Tables: sequences of fixed-capacity blocks, plus the builder that seals
//! blocks as they fill.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use aqp_mergeable::{MergeError, Partial};

use crate::block::Block;
use crate::column::Column;
use crate::dict::StrDict;
use crate::error::StorageError;
use crate::key::KeyIndex;
use crate::schema::Schema;
use crate::value::Value;

/// Default number of rows per block — the same order of magnitude as rows
/// per page in row stores and per row-group stripe in column stores, so
/// block-sampling experiments exercise realistic block counts.
const DEFAULT_BLOCK_CAPACITY: usize = 1024;

/// An immutable block-structured table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    blocks: Vec<Arc<Block>>,
    /// Starting global row id of each block (parallel to `blocks`).
    offsets: Vec<usize>,
    /// Lazily built key indexes, one slot per schema column, shared across
    /// table clones. Never invalidated: a table is immutable,
    /// and every derived table (`from_blocks`, `tail`, a merge, a
    /// `Catalog::replace`d version) starts with empty slots of its own.
    key_indexes: Arc<Vec<OnceLock<Arc<KeyIndex>>>>,
    block_capacity: usize,
    row_count: usize,
}

impl Table {
    /// Assembles a table directly from existing blocks — the zero-copy path
    /// block sampling uses: a block sample of a table is just a subset of
    /// its `Arc<Block>`s, so non-sampled blocks are never touched.
    ///
    /// # Panics
    /// Panics if any block's schema differs from `schema`.
    pub fn from_blocks(
        name: impl Into<String>,
        schema: Arc<Schema>,
        blocks: Vec<Arc<Block>>,
        block_capacity: usize,
    ) -> Self {
        let mut offsets = Vec::with_capacity(blocks.len());
        let mut row_count = 0;
        for b in &blocks {
            assert_eq!(
                b.schema().as_ref(),
                schema.as_ref(),
                "block schema mismatch in from_blocks"
            );
            offsets.push(row_count);
            row_count += b.len();
        }
        let key_indexes = Arc::new((0..schema.len()).map(|_| OnceLock::new()).collect());
        Self {
            name: name.into(),
            schema,
            blocks,
            offsets,
            key_indexes,
            block_capacity,
            row_count,
        }
    }

    /// The key index over schema column `column` — canonical key → row
    /// positions as `(block, row)` into [`Table::blocks`] — and whether
    /// this call built it. Built once, on first use (concurrent first
    /// uses block on the one build), then shared by every clone.
    pub fn key_index(&self, column: usize) -> (Arc<KeyIndex>, bool) {
        let mut built = false;
        let index = self.key_indexes[column].get_or_init(|| {
            built = true;
            let keys: Vec<&Column> = self.blocks.iter().map(|b| b.column(column)).collect();
            Arc::new(KeyIndex::build(&keys))
        });
        (Arc::clone(index), built)
    }

    /// Whether the key index over `column` has been built already.
    pub fn has_key_index(&self, column: usize) -> bool {
        self.key_indexes[column].get().is_some()
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total row count.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block-capacity the builder used (actual blocks may be shorter at
    /// the tail).
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    /// The blocks, in storage order.
    pub fn blocks(&self) -> &[Arc<Block>] {
        &self.blocks
    }

    /// Block at index.
    pub fn block(&self, index: usize) -> &Arc<Block> {
        &self.blocks[index]
    }

    /// Materializes row `i` (global row id) as values. O(log #blocks) via
    /// binary search over block offsets (blocks may have uneven lengths
    /// when the table was assembled from a block sample).
    pub fn row(&self, i: usize) -> Vec<Value> {
        let (b, r) = self.locate_row(i);
        self.blocks[b].row(r)
    }

    /// Maps a global row id to `(block index, offset within block)`.
    pub fn locate_row(&self, i: usize) -> (usize, usize) {
        assert!(i < self.row_count, "row index {i} out of bounds");
        let b = match self.offsets.binary_search(&i) {
            Ok(exact) => exact,
            Err(insert) => insert - 1,
        };
        (b, i - self.offsets[b])
    }

    /// Iterates over `(block_index, block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, &Arc<Block>)> {
        self.blocks.iter().enumerate()
    }

    /// Collects an entire column across blocks as `f64` values, skipping
    /// NULLs. Convenience for ground-truth computations in tests and
    /// experiments.
    pub fn column_f64(&self, name: &str) -> Result<Vec<f64>, StorageError> {
        let idx = self.schema.index_of(name)?;
        let mut out = Vec::with_capacity(self.row_count);
        for block in &self.blocks {
            let col = block.column(idx);
            for i in 0..col.len() {
                if let Some(v) = col.f64_at(i) {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    /// The rows `from_row..` as a new table — the *delta* view incremental
    /// synopsis maintenance folds in after an append. Whole trailing blocks
    /// are shared zero-copy; if `from_row` cuts a block, that block's tail
    /// rows are copied into a fresh partial block.
    ///
    /// # Panics
    /// Panics if `from_row > row_count()`.
    pub fn tail(&self, from_row: usize) -> Table {
        assert!(
            from_row <= self.row_count,
            "tail start {from_row} out of bounds (rows {})",
            self.row_count
        );
        let name = format!("{}__tail", self.name);
        if from_row == self.row_count {
            return Table::from_blocks(name, Arc::clone(&self.schema), vec![], self.block_capacity);
        }
        let (b, r) = self.locate_row(from_row);
        let mut blocks = Vec::with_capacity(self.blocks.len() - b);
        if r == 0 {
            blocks.extend(self.blocks[b..].iter().cloned());
        } else {
            let src = &self.blocks[b];
            let mut partial = Block::with_capacity(Arc::clone(&self.schema), src.len() - r);
            for i in r..src.len() {
                partial.gather_row(src, i);
            }
            blocks.push(Arc::new(partial));
            blocks.extend(self.blocks[b + 1..].iter().cloned());
        }
        Table::from_blocks(name, Arc::clone(&self.schema), blocks, self.block_capacity)
    }

    /// Approximate in-memory footprint in bytes (data vectors only): 4
    /// bytes per string code, and each distinct dictionary once however
    /// many blocks share it.
    pub fn approx_bytes(&self) -> usize {
        let mut dicts: HashSet<*const StrDict> = HashSet::new();
        let mut total = 0;
        for block in &self.blocks {
            for col in block.columns() {
                total += match col {
                    Column::Int64 { data, .. } => data.len() * 8,
                    Column::Float64 { data, .. } => data.len() * 8,
                    Column::Bool { data, .. } => data.len(),
                    Column::Str { codes, dict, .. } => {
                        let first_sight = dicts.insert(Arc::as_ptr(dict));
                        codes.len() * 4 + if first_sight { dict.approx_bytes() } else { 0 }
                    }
                };
            }
        }
        total
    }
}

fn schema_summary(schema: &Schema) -> String {
    let cols: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{}:{}", f.name, f.data_type))
        .collect();
    format!("[{}]", cols.join(", "))
}

/// Tables merge by block concatenation — the append an incremental
/// synopsis maintenance pass then folds in as a delta. Zero-copy: the
/// merged table shares the input blocks' `Arc`s. Schemas must be
/// identical; the receiving table's name and block capacity win.
/// Merge-equals-union is exact: the merged table holds precisely the rows
/// of both inputs, in order.
impl Partial for Table {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.schema.as_ref() != other.schema.as_ref() {
            return Err(MergeError::Incompatible {
                kind: "table",
                expected: schema_summary(&self.schema),
                found: schema_summary(&other.schema),
            });
        }
        let blocks = self.blocks.iter().chain(&other.blocks).cloned().collect();
        *self = Table::from_blocks(
            std::mem::take(&mut self.name),
            Arc::clone(&self.schema),
            blocks,
            self.block_capacity,
        );
        Ok(())
    }
}

/// Builds a [`Table`] row by row, sealing a block whenever it reaches the
/// configured capacity.
///
/// Each STR column gets one dictionary for the whole table. It travels
/// with the open block — a sealed block hands it on — so it has one owner
/// while it grows and interning a value never copies it;
/// [`finish`](TableBuilder::finish) then points every sealed block at it.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Arc<Schema>,
    /// Sealed blocks, their STR dictionaries still with the open block.
    blocks: Vec<Block>,
    current: Block,
    block_capacity: usize,
    row_count: usize,
}

impl TableBuilder {
    /// Starts a builder with the default block capacity.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self::with_block_capacity(name, schema, DEFAULT_BLOCK_CAPACITY)
    }

    /// Starts a builder with an explicit block capacity.
    ///
    /// # Panics
    /// Panics if `block_capacity == 0`.
    pub fn with_block_capacity(
        name: impl Into<String>,
        schema: Schema,
        block_capacity: usize,
    ) -> Self {
        assert!(block_capacity > 0, "block capacity must be positive");
        let schema = Arc::new(schema);
        Self {
            name: name.into(),
            schema: Arc::clone(&schema),
            blocks: Vec::new(),
            current: Block::with_capacity(schema, block_capacity),
            block_capacity,
            row_count: 0,
        }
    }

    /// The schema being built against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Rows appended so far.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Seals the open block (full or not) and opens a fresh one, which
    /// takes over the dictionaries.
    fn seal(&mut self) {
        let fresh = Block::with_capacity(Arc::clone(&self.schema), self.block_capacity);
        let mut sealed = std::mem::replace(&mut self.current, fresh);
        sealed.hand_dicts_to(&mut self.current);
        self.blocks.push(sealed);
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        self.current.push_row(row)?;
        self.row_count += 1;
        if self.current.len() == self.block_capacity {
            self.seal();
        }
        Ok(())
    }

    /// Appends row `i` of `src` (same schema shape as the builder's) via
    /// typed per-column copies — no `Vec<Value>` materialization, and for
    /// strings a code copy once the builder shares `src`'s dictionary
    /// (adopted while its own is empty). The samplers' hot copy loops use
    /// this instead of `push_row(&block.row(i))`.
    ///
    /// # Panics
    /// Panics on arity or column-type mismatch (see [`Block::gather_row`]).
    pub fn gather_row(&mut self, src: &Block, i: usize) {
        self.current.gather_row(src, i);
        self.row_count += 1;
        if self.current.len() == self.block_capacity {
            self.seal();
        }
    }

    /// Seals the current partial block immediately (no-op when empty).
    /// Samplers use this to preserve source-block boundaries in a sampled
    /// table, so block-design estimators can group rows correctly.
    pub fn seal_block(&mut self) {
        if !self.current.is_empty() {
            self.seal();
        }
    }

    /// Seals the final partial block and produces the immutable table,
    /// every block sharing the open block's (now frozen) dictionaries —
    /// which extend every dictionary a sealed block's codes were minted in.
    pub fn finish(mut self) -> Table {
        let dicts = self.current.freeze_dicts();
        let mut blocks: Vec<Arc<Block>> = (self.blocks.into_iter())
            .map(|mut block| {
                block.share_dicts(&dicts);
                Arc::new(block)
            })
            .collect();
        if !self.current.is_empty() {
            blocks.push(Arc::new(self.current));
        }
        Table::from_blocks(self.name, self.schema, blocks, self.block_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn build(n: usize, cap: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, cap);
        for i in 0..n {
            b.push_row(&[Value::Int64(i as i64), Value::Float64(i as f64 * 2.0)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn blocks_seal_at_capacity() {
        let t = build(10, 4);
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.block_count(), 3); // 4 + 4 + 2
        assert_eq!(t.block(0).len(), 4);
        assert_eq!(t.block(2).len(), 2);
        assert_eq!(t.block_capacity(), 4);
    }

    #[test]
    fn exact_multiple_has_no_partial_block() {
        let t = build(8, 4);
        assert_eq!(t.block_count(), 2);
        assert!(t.blocks().iter().all(|b| b.len() == 4));
    }

    #[test]
    fn empty_table() {
        let t = build(0, 4);
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.block_count(), 0);
    }

    #[test]
    fn global_row_lookup() {
        let t = build(10, 4);
        assert_eq!(t.row(0)[0], Value::Int64(0));
        assert_eq!(t.row(5)[0], Value::Int64(5)); // second block, offset 1
        assert_eq!(t.row(9)[1], Value::Float64(18.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        build(3, 4).row(3);
    }

    #[test]
    fn column_f64_skips_nulls() {
        let schema = Schema::new(vec![Field::nullable("v", DataType::Float64)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 2);
        b.push_row(&[Value::Float64(1.0)]).unwrap();
        b.push_row(&[Value::Null]).unwrap();
        b.push_row(&[Value::Float64(3.0)]).unwrap();
        let t = b.finish();
        assert_eq!(t.column_f64("v").unwrap(), vec![1.0, 3.0]);
        assert!(t.column_f64("missing").is_err());
    }

    #[test]
    fn approx_bytes_grows_with_rows() {
        assert!(build(1000, 128).approx_bytes() > build(10, 128).approx_bytes());
    }

    #[test]
    fn approx_bytes_counts_a_shared_dictionary_once() {
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 4);
        for i in 0..40 {
            b.push_row(&[Value::str(["ab", "cde"][i % 2])]).unwrap();
        }
        let t = b.finish();
        assert_eq!(t.block_count(), 10);
        let dict = t.block(0).column(0).str_codes().unwrap().1;
        assert!(t
            .blocks()
            .iter()
            .all(|b| Arc::ptr_eq(b.column(0).str_codes().unwrap().1, dict)));
        // 40 codes, then "ab" and "cde" once each: not once per block.
        assert_eq!(t.approx_bytes(), 40 * 4 + (2 + 16) + (3 + 16));
    }

    #[test]
    fn zone_maps_lazy_and_shared() {
        let t = build(10, 4);
        assert!(t.blocks().iter().all(|b| !b.has_zone()), "built lazily");
        let z = t.block(1).zone(); // rows 4..8, v = id*2
        assert_eq!(z.rows, 4);
        assert_eq!(z.column(0).bounds, Some((4.0, 7.0)));
        assert_eq!(z.column(1).bounds, Some((8.0, 14.0)));
        assert!(!t.block(0).has_zone(), "one block's map only");
        // A clone, a block sample, a tail and a merge all read the one map.
        let sample = Table::from_blocks("s", Arc::clone(t.schema()), t.blocks()[1..].to_vec(), 4);
        let mut merged = build(2, 4);
        Partial::merge(&mut merged, &t).unwrap();
        for (derived, i) in [(t.clone(), 1), (sample, 0), (t.tail(4), 0), (merged, 2)] {
            assert!(
                std::ptr::eq(derived.block(i).zone(), z),
                "{}",
                derived.name()
            );
        }
    }

    #[test]
    fn key_index_cached_shared_by_clones_not_by_derivatives() {
        let t = build(10, 4);
        assert!(!t.has_key_index(0));
        let (index, built) = t.key_index(0);
        assert!(built);
        assert!(index.is_unique());
        let hit = index.get_i64(5);
        assert_eq!((hit[0].block, hit[0].row), (1, 1));
        // Cached: later uses, and clones, get the same index.
        let clone = t.clone();
        let (again, built) = clone.key_index(0);
        assert!(!built);
        assert!(Arc::ptr_eq(&index, &again));
        assert!(!t.has_key_index(1), "one slot per column");
        // Every derived table has other rows or other block positions:
        // none sees the parent's index.
        let derived = [
            Table::from_blocks("s", Arc::clone(t.schema()), t.blocks()[1..].to_vec(), 4),
            t.tail(2),
            t.tail(4),
            Table::from_blocks("d", Arc::clone(t.schema()), t.blocks().to_vec(), 4),
        ];
        for d in &derived {
            assert!(!d.has_key_index(0), "{} inherited an index", d.name());
        }
        let hit = derived[0].key_index(0).0.get_i64(5).to_vec();
        assert_eq!(
            (hit[0].block, hit[0].row),
            (0, 1),
            "the suffix starts at block 1"
        );
    }

    #[test]
    fn racing_first_uses_build_the_key_index_once() {
        let t = build(5_000, 64);
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<(Arc<KeyIndex>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        t.key_index(0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results.iter().filter(|(_, built)| *built).count(), 1);
        assert!(results.iter().all(|(i, _)| Arc::ptr_eq(i, &results[0].0)));
    }

    #[test]
    fn merge_concatenates_rows_in_order() {
        let a = build(10, 4);
        let b = build(25, 4);
        let mut merged = a.clone();
        Partial::merge(&mut merged, &b).unwrap();
        assert_eq!(merged.row_count(), 35);
        for i in 0..10 {
            assert_eq!(merged.row(i), a.row(i));
        }
        for i in 0..25 {
            assert_eq!(merged.row(10 + i), b.row(i));
        }
        // Zero-copy: blocks are shared, not duplicated.
        assert!(Arc::ptr_eq(merged.block(0), a.block(0)));
    }

    #[test]
    fn merge_rejects_schema_mismatch() {
        let mut a = build(3, 4);
        let other = TableBuilder::new("o", Schema::new(vec![Field::new("x", DataType::Int64)]));
        let err = Partial::merge(&mut a, &other.finish()).unwrap_err();
        assert!(
            matches!(err, MergeError::Incompatible { kind: "table", .. }),
            "{err}"
        );
        assert_eq!(a.row_count(), 3);
    }

    /// Four columns of every type, NULLs in `price`, and a string
    /// dictionary of its own.
    fn mixed(name: &str, n: usize, tag_prefix: &str) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("price", DataType::Float64),
            Field::new("tag", DataType::Str),
            Field::new("flag", DataType::Bool),
        ]);
        let mut b = TableBuilder::with_block_capacity(name, schema, 7);
        for i in 0..n {
            let price = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Float64(i as f64 * 1.5)
            };
            b.push_row(&[
                Value::Int64(i as i64),
                price,
                Value::str(format!("{tag_prefix}{}", i % 3)),
                Value::Bool(i % 2 == 0),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn merge_keeps_nulls_strings_and_both_dictionaries() {
        let a = mixed("a", 23, "x");
        let b = mixed("b", 12, "y");
        let mut merged = a.clone();
        Partial::merge(&mut merged, &b).unwrap();
        assert_eq!(merged.row_count(), 35);
        assert_eq!(merged.block_count(), a.block_count() + b.block_count());
        for i in 0..23 {
            assert_eq!(merged.row(i), a.row(i));
        }
        for i in 0..12 {
            assert_eq!(merged.row(23 + i), b.row(i));
        }
        assert_eq!(merged.row(0)[1], Value::Null);
        assert_eq!(merged.row(23)[2], Value::str("y0"));
        // Each input's dictionary is kept, and counted once.
        assert_eq!(merged.approx_bytes(), a.approx_bytes() + b.approx_bytes());
    }

    #[test]
    fn merge_with_an_empty_table_is_identity() {
        let t = mixed("t", 10, "x");
        let empty = mixed("e", 0, "x");
        let mut right = t.clone();
        Partial::merge(&mut right, &empty).unwrap();
        let mut left = empty.clone();
        Partial::merge(&mut left, &t).unwrap();
        for merged in [&right, &left] {
            assert_eq!(merged.row_count(), 10);
            assert_eq!(merged.schema(), t.schema());
            assert!((0..10).all(|i| merged.row(i) == t.row(i)));
        }
        assert_eq!(right.name(), "t");
        assert_eq!(left.name(), "e", "the receiver's name wins");
        let mut both = empty.clone();
        Partial::merge(&mut both, &empty).unwrap();
        assert_eq!((both.row_count(), both.block_count()), (0, 0));
    }

    #[test]
    fn merge_rejects_a_type_or_nullability_change() {
        let base = || Schema::new(vec![Field::new("x", DataType::Int64)]);
        let mut a = TableBuilder::new("a", base()).finish();
        let retyped = Schema::new(vec![Field::new("x", DataType::Float64)]);
        let nullable = Schema::new(vec![Field::nullable("x", DataType::Int64)]);
        for schema in [retyped, nullable] {
            let err = Partial::merge(&mut a, &TableBuilder::new("o", schema).finish()).unwrap_err();
            assert!(
                matches!(err, MergeError::Incompatible { kind: "table", .. }),
                "{err}"
            );
            assert_eq!(a.schema().as_ref(), &base());
        }
        assert!(Partial::merge(&mut a, &TableBuilder::new("o", base()).finish()).is_ok());
    }

    #[test]
    fn merge_keeps_the_receivers_block_capacity() {
        let mut a = build(6, 4); // blocks 4 + 2
        let b = mixed("b", 0, "x");
        assert!(Partial::merge(&mut a, &b).is_err(), "schemas differ");
        let b = build(9, 8); // one block of 8, one of 1
        Partial::merge(&mut a, &b).unwrap();
        assert_eq!(a.block_capacity(), 4);
        let sizes: Vec<usize> = a.blocks().iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![4, 2, 8, 1], "blocks are shared, not re-cut");
        assert_eq!(a.locate_row(6), (2, 0));
        assert_eq!(a.row(14)[0], Value::Int64(8));
    }

    #[test]
    fn tail_of_a_merged_table_is_the_appended_table() {
        let a = build(10, 4); // blocks 4 + 4 + 2: the append starts mid-capacity
        let b = build(9, 4);
        let mut merged = a.clone();
        Partial::merge(&mut merged, &b).unwrap();
        let delta = merged.tail(a.row_count());
        assert_eq!(delta.row_count(), b.row_count());
        assert!((0..9).all(|i| delta.row(i) == b.row(i)));
        // The append is block-aligned, so the delta shares b's blocks.
        assert!(Arc::ptr_eq(delta.block(0), b.block(0)));
    }

    #[test]
    fn merged_table_builds_fresh_zone_maps_and_key_index() {
        let a = build(10, 4);
        let b = build(6, 4); // ids 0..6 again: the merged key is not unique
        assert!(a.key_index(0).0.is_unique());
        let mut merged = a;
        Partial::merge(&mut merged, &b).unwrap();
        assert!(!merged.has_key_index(0));
        let (index, built) = merged.key_index(0);
        assert!(built);
        assert!(!index.is_unique());
        let hits: Vec<(u32, u32)> = index.get_i64(5).iter().map(|p| (p.block, p.row)).collect();
        assert_eq!(hits, vec![(1, 1), (4, 1)]);
        // Zone maps of the appended blocks describe b's rows.
        assert_eq!(merged.block(3).zone().column(0).bounds, Some((0.0, 3.0)));
        assert_eq!(merged.block(4).zone().column(1).bounds, Some((8.0, 10.0)));
    }

    #[test]
    fn tail_returns_delta_rows() {
        let t = build(10, 4); // blocks: 4 + 4 + 2
                              // Block-aligned tail is zero-copy.
        let aligned = t.tail(8);
        assert_eq!(aligned.row_count(), 2);
        assert!(Arc::ptr_eq(aligned.block(0), t.block(2)));
        // Mid-block tail copies the cut block's remainder.
        let mid = t.tail(6);
        assert_eq!(mid.row_count(), 4);
        assert_eq!(mid.row(0)[0], Value::Int64(6));
        assert_eq!(mid.row(3)[0], Value::Int64(9));
        // Degenerate cases.
        assert_eq!(t.tail(10).row_count(), 0);
        assert_eq!(t.tail(0).row_count(), 10);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        TableBuilder::with_block_capacity(
            "t",
            Schema::new(vec![Field::new("id", DataType::Int64)]),
            0,
        );
    }
}

#[cfg(test)]
mod from_blocks_tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    #[test]
    fn uneven_blocks_row_lookup() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64)]));
        let mk = |vals: &[i64]| {
            let mut b = Block::new(Arc::clone(&schema));
            for &v in vals {
                b.push_row(&[Value::Int64(v)]).unwrap();
            }
            Arc::new(b)
        };
        let t = Table::from_blocks(
            "s",
            Arc::clone(&schema),
            vec![mk(&[1, 2, 3]), mk(&[4]), mk(&[5, 6])],
            4,
        );
        assert_eq!(t.row_count(), 6);
        assert_eq!(t.block_count(), 3);
        assert_eq!(t.row(0)[0], Value::Int64(1));
        assert_eq!(t.row(3)[0], Value::Int64(4));
        assert_eq!(t.row(4)[0], Value::Int64(5));
        assert_eq!(t.row(5)[0], Value::Int64(6));
        assert_eq!(t.locate_row(4), (2, 0));
    }

    #[test]
    fn from_blocks_shares_arcs() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64)]));
        let mut b = Block::new(Arc::clone(&schema));
        b.push_row(&[Value::Int64(1)]).unwrap();
        let block = Arc::new(b);
        let t = Table::from_blocks("s", schema, vec![Arc::clone(&block)], 1);
        assert!(Arc::ptr_eq(&block, t.block(0)));
    }

    #[test]
    fn empty_from_blocks() {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64)]));
        let t = Table::from_blocks("s", schema, vec![], 8);
        assert_eq!(t.row_count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;
    use proptest::prelude::*;

    fn table(name: &str, rows: &[(i64, f64, bool)], cap: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("c", DataType::Bool),
        ]);
        let mut b = TableBuilder::with_block_capacity(name, schema, cap);
        for &(x, y, z) in rows {
            b.push_row(&[Value::Int64(x), Value::Float64(y), Value::Bool(z)])
                .unwrap();
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Cutting a table's rows at arbitrary points and merging the
        /// pieces back gives the table's rows, in order.
        #[test]
        fn arbitrary_splits_merge_back_to_the_whole(
            rows in proptest::collection::vec((any::<i64>(), -1e12f64..1e12, any::<bool>()), 0..60),
            cuts in proptest::collection::vec(0.0f64..1.0, 0..4),
            cap in 1usize..16,
        ) {
            let whole = table("p", &rows, cap);
            let mut bounds: Vec<usize> = cuts.iter().map(|f| (f * rows.len() as f64) as usize).collect();
            bounds.push(0);
            bounds.push(rows.len());
            bounds.sort_unstable();
            let mut merged = table("p", &[], cap);
            for w in bounds.windows(2) {
                Partial::merge(&mut merged, &table("piece", &rows[w[0]..w[1]], cap)).unwrap();
            }
            prop_assert_eq!(merged.row_count(), whole.row_count());
            prop_assert_eq!(merged.name(), "p");
            for i in 0..whole.row_count() {
                prop_assert_eq!(merged.row(i), whole.row(i));
            }
        }

        /// A merged table has a partial block wherever an input ended
        /// mid-capacity; row lookup and the delta view must see through
        /// it: `tail(k)` is exactly rows `k..` for every `k`.
        #[test]
        fn tail_of_a_merged_table_is_its_suffix_at_every_cut(
            sizes in proptest::collection::vec(0usize..20, 1..4),
            cap in 1usize..8,
        ) {
            let mut merged = table("m", &[], cap);
            let mut ids = Vec::new();
            for (p, &n) in sizes.iter().enumerate() {
                let rows: Vec<(i64, f64, bool)> =
                    (0..n).map(|i| ((100 * p + i) as i64, i as f64, p % 2 == 0)).collect();
                ids.extend(rows.iter().map(|r| Value::Int64(r.0)));
                Partial::merge(&mut merged, &table("part", &rows, cap)).unwrap();
            }
            prop_assert_eq!(merged.row_count(), ids.len());
            for (i, id) in ids.iter().enumerate() {
                prop_assert_eq!(&merged.row(i)[0], id);
            }
            for k in 0..=ids.len() {
                let delta = merged.tail(k);
                prop_assert_eq!(delta.row_count(), ids.len() - k);
                for (j, id) in ids[k..].iter().enumerate() {
                    prop_assert_eq!(&delta.row(j)[0], id);
                }
            }
        }

        /// A table with another schema is refused with a typed error,
        /// never a panic, and the receiver keeps its rows.
        #[test]
        fn mismatched_schemas_never_panic(
            n in 0usize..40,
            other_cols in 1usize..4,
            other_type in 0usize..4,
        ) {
            let mut t = table("p", &vec![(1, 2.0, true); n], 8);
            let types = [DataType::Int64, DataType::Float64, DataType::Str, DataType::Bool];
            let fields = (0..other_cols)
                .map(|i| Field::new(format!("o{i}"), types[(other_type + i) % 4]))
                .collect();
            let other = TableBuilder::new("o", Schema::new(fields)).finish();
            let err = Partial::merge(&mut t, &other).unwrap_err();
            let is_table_mismatch = matches!(err, MergeError::Incompatible { kind: "table", .. });
            prop_assert!(is_table_mismatch);
            prop_assert_eq!(t.row_count(), n);
        }
    }

    #[test]
    fn push_row_rejects_a_wrong_arity_row_without_counting_it() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 2);
        b.push_row(&[Value::Int64(0)]).unwrap();
        let err = b.push_row(&[Value::Int64(1), Value::Int64(2)]);
        assert!(
            matches!(err, Err(StorageError::ArityMismatch { .. })),
            "{err:?}"
        );
        b.push_row(&[Value::Int64(3)]).unwrap();
        assert_eq!(b.row_count(), 2);
        let t = b.finish();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column_f64("id").unwrap(), vec![0.0, 3.0]);
    }
}
