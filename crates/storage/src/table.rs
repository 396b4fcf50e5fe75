//! Tables: sequences of fixed-capacity blocks, plus the builder that seals
//! blocks as they fill.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use crate::block::Block;
use crate::column::Column;
use crate::dict::StrDict;
use crate::error::StorageError;
use crate::key::KeyIndex;
use crate::schema::Schema;
use crate::value::Value;
use crate::zone::ZoneMap;

/// Default number of rows per block — the same order of magnitude as rows
/// per page in row stores and per row-group stripe in column stores, so
/// block-sampling experiments exercise realistic block counts.
pub const DEFAULT_BLOCK_CAPACITY: usize = 1024;

/// An immutable block-structured table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    blocks: Vec<Arc<Block>>,
    /// Starting global row id of each block (parallel to `blocks`).
    offsets: Vec<usize>,
    /// Lazily built per-block zone maps (parallel to `blocks`), shared
    /// across table clones. Lazy so `from_blocks` stays zero-copy — a
    /// block sample must not pay a full pass over blocks it never reads.
    zones: Arc<Vec<OnceLock<ZoneMap>>>,
    /// Lazily built key indexes, one slot per schema column, shared across
    /// table clones like `zones`. Never invalidated: a table is immutable,
    /// and every derived table (`from_blocks`, `shard`, `tail`, a merge, a
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
        let zones = Arc::new((0..blocks.len()).map(|_| OnceLock::new()).collect());
        let key_indexes = Arc::new((0..schema.len()).map(|_| OnceLock::new()).collect());
        Self {
            name: name.into(),
            schema,
            blocks,
            offsets,
            zones,
            key_indexes,
            block_capacity,
            row_count,
        }
    }

    /// The zone map for block `index`, built on first access and cached
    /// (shared across clones of this table).
    pub fn zone(&self, index: usize) -> &ZoneMap {
        self.zones[index].get_or_init(|| self.blocks[index].zone_map())
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

    /// Partitions the table into exactly `n` contiguous shards along block
    /// boundaries — the unit of shard-then-merge execution. Zero-copy: each
    /// shard shares the parent's `Arc<Block>`s. Shard `j` takes blocks
    /// `[j·B/n, (j+1)·B/n)`, so every block lands in exactly one shard (in
    /// order) and shards may be empty when `n` exceeds the block count.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn shard(&self, n: usize) -> Vec<Table> {
        assert!(n > 0, "shard count must be positive");
        let len = self.blocks.len();
        (0..n)
            .map(|j| {
                let lo = j * len / n;
                let hi = (j + 1) * len / n;
                Table::from_blocks(
                    format!("{}__shard_{j}", self.name),
                    Arc::clone(&self.schema),
                    self.blocks[lo..hi].to_vec(),
                    self.block_capacity,
                )
            })
            .collect()
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

    /// Appends many rows.
    pub fn push_rows<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a [Value]>,
    ) -> Result<(), StorageError> {
        for row in rows {
            self.push_row(row)?;
        }
        Ok(())
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
        let z = t.zone(1); // rows 4..8, v = id*2
        assert_eq!(z.rows, 4);
        assert_eq!(z.column(0).bounds, Some((4.0, 7.0)));
        assert_eq!(z.column(1).bounds, Some((8.0, 14.0)));
        // Clones share the cache.
        let t2 = t.clone();
        assert!(std::ptr::eq(t2.zone(1), t.zone(1)));
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
            t.shard(2).remove(1),
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
            "shard 1 starts at block 1"
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
    fn shard_partitions_blocks_in_order() {
        let t = build(20, 4); // 5 blocks
        for n in [1, 2, 4, 8] {
            let shards = t.shard(n);
            assert_eq!(shards.len(), n, "n={n}");
            let total: usize = shards.iter().map(Table::row_count).sum();
            assert_eq!(total, 20, "n={n}");
            // Rows appear in original order across the shard sequence.
            let mut seen = Vec::new();
            for s in &shards {
                for i in 0..s.row_count() {
                    seen.push(s.row(i)[0].clone());
                }
            }
            let expect: Vec<Value> = (0..20).map(|i| Value::Int64(i as i64)).collect();
            assert_eq!(seen, expect, "n={n}");
        }
        // Shards share block Arcs with the parent (zero-copy).
        let shards = t.shard(2);
        assert!(Arc::ptr_eq(shards[0].block(0), t.block(0)));
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
    fn push_rows_bulk() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
        let mut b = TableBuilder::new("t", schema);
        let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Int64(i)]).collect();
        b.push_rows(rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(b.row_count(), 5);
        assert_eq!(b.finish().row_count(), 5);
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
