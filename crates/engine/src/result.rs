//! Materialized result sets and execution statistics.

use std::sync::Arc;

use aqp_storage::{Block, Schema, StorageError, Value};

/// Counters describing how much data an execution touched.
///
/// `blocks_scanned`/`rows_scanned` count *base-table* data read by scans —
/// the scale-free proxy for I/O cost that the speedup experiments report
/// alongside wall-clock time. A block sample that skips 99% of blocks shows
/// up here as a 100× reduction, exactly the economics NSB describes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table blocks read by scans.
    pub blocks_scanned: u64,
    /// Base-table blocks skipped outright because their zone map proved
    /// the scan predicate could never select a row. Pruned blocks do not
    /// count toward `blocks_scanned`/`rows_scanned` — their data was
    /// never touched, which is the entire point.
    pub blocks_pruned: u64,
    /// Base-table rows read by scans.
    pub rows_scanned: u64,
    /// Rows produced by the root operator.
    pub rows_output: u64,
}

impl ExecStats {
    /// Merges counters (for combining sub-executions).
    pub fn merge(&self, other: &ExecStats) -> ExecStats {
        ExecStats {
            blocks_scanned: self.blocks_scanned + other.blocks_scanned,
            blocks_pruned: self.blocks_pruned + other.blocks_pruned,
            rows_scanned: self.rows_scanned + other.rows_scanned,
            rows_output: self.rows_output + other.rows_output,
        }
    }
}

/// A fully materialized query result: a schema and a list of blocks.
///
/// Batches are reference-counted: results assembled from scans or shared
/// intermediates alias the underlying blocks instead of deep-copying them,
/// so materializing a result is O(number of blocks), not O(data).
#[derive(Debug, Clone)]
pub struct ResultSet {
    schema: Arc<Schema>,
    batches: Vec<Arc<Block>>,
    stats: ExecStats,
}

impl ResultSet {
    /// Assembles a result set from shared blocks (zero-copy).
    pub fn new(schema: Arc<Schema>, batches: Vec<Arc<Block>>, stats: ExecStats) -> Self {
        Self {
            schema,
            batches,
            stats,
        }
    }

    /// The result schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The result batches.
    pub fn batches(&self) -> &[Arc<Block>] {
        &self.batches
    }

    /// Execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Total number of rows.
    pub fn num_rows(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Row `i` across batches, materialized as values.
    pub fn row(&self, mut i: usize) -> Vec<Value> {
        for b in &self.batches {
            if i < b.len() {
                return b.row(i);
            }
            i -= b.len();
        }
        panic!("row index out of bounds");
    }

    /// All rows, materialized. Convenience for tests and small results.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.num_rows()).map(|i| self.row(i)).collect()
    }

    /// Scalar shortcut: the single value of a 1×1 result.
    ///
    /// # Panics
    /// Panics if the result is not exactly one row by one column.
    pub fn scalar(&self) -> Value {
        assert_eq!(self.num_rows(), 1, "scalar() requires exactly one row");
        assert_eq!(self.schema.len(), 1, "scalar() requires exactly one column");
        self.row(0).remove(0)
    }

    /// Named column across batches as `f64`, skipping NULLs.
    pub fn column_f64(&self, name: &str) -> Result<Vec<f64>, StorageError> {
        let idx = self.schema.index_of(name)?;
        let mut out = Vec::with_capacity(self.num_rows());
        for b in &self.batches {
            let col = b.column(idx);
            for i in 0..col.len() {
                if let Some(v) = col.f64_at(i) {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    /// Named column across batches as values (NULLs included).
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>, StorageError> {
        let idx = self.schema.index_of(name)?;
        let mut out = Vec::with_capacity(self.num_rows());
        for b in &self.batches {
            let col = b.column(idx);
            for i in 0..col.len() {
                out.push(col.get(i));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, Field};

    fn two_batch_result() -> ResultSet {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::nullable("b", DataType::Float64),
        ]));
        let mut b1 = Block::new(Arc::clone(&schema));
        b1.push_row(&[Value::Int64(1), Value::Float64(1.5)])
            .unwrap();
        b1.push_row(&[Value::Int64(2), Value::Null]).unwrap();
        let mut b2 = Block::new(Arc::clone(&schema));
        b2.push_row(&[Value::Int64(3), Value::Float64(3.5)])
            .unwrap();
        ResultSet::new(
            schema,
            vec![Arc::new(b1), Arc::new(b2)],
            ExecStats::default(),
        )
    }

    #[test]
    fn row_access_across_batches() {
        let r = two_batch_result();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.row(0)[0], Value::Int64(1));
        assert_eq!(r.row(2)[0], Value::Int64(3));
        assert_eq!(r.rows().len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds() {
        two_batch_result().row(3);
    }

    #[test]
    fn column_extraction() {
        let r = two_batch_result();
        assert_eq!(r.column_f64("b").unwrap(), vec![1.5, 3.5]); // NULL skipped
        assert_eq!(
            r.column_values("b").unwrap(),
            vec![Value::Float64(1.5), Value::Null, Value::Float64(3.5)]
        );
        assert!(r.column_f64("zzz").is_err());
    }

    #[test]
    fn scalar_contract() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let mut b = Block::new(Arc::clone(&schema));
        b.push_row(&[Value::Int64(42)]).unwrap();
        let r = ResultSet::new(schema, vec![Arc::new(b)], ExecStats::default());
        assert_eq!(r.scalar(), Value::Int64(42));
    }

    #[test]
    fn stats_merge() {
        let a = ExecStats {
            blocks_scanned: 1,
            blocks_pruned: 4,
            rows_scanned: 10,
            rows_output: 5,
        };
        let b = ExecStats {
            blocks_scanned: 2,
            blocks_pruned: 1,
            rows_scanned: 20,
            rows_output: 7,
        };
        let m = a.merge(&b);
        assert_eq!(m.blocks_scanned, 3);
        assert_eq!(m.blocks_pruned, 5);
        assert_eq!(m.rows_scanned, 30);
        assert_eq!(m.rows_output, 12);
    }

    #[test]
    fn rows_concatenate_batches_in_order() {
        let r = two_batch_result();
        assert_eq!(
            r.rows(),
            vec![
                vec![Value::Int64(1), Value::Float64(1.5)],
                vec![Value::Int64(2), Value::Null],
                vec![Value::Int64(3), Value::Float64(3.5)],
            ]
        );
    }
}
