//! The gather join: inner equi-join of one probe block against an indexed
//! build side.
//!
//! The build side is a [`KeyIndex`] — canonical key → positions of the
//! build rows carrying it — plus the blocks those positions point into. A
//! join on a stored column of a catalog table uses the index the
//! [`Table`] caches (built on first use, never again); any other build
//! side (a filtered or joined input, an expression key) gets a transient
//! index of the same shape. Joining a probe block is then a lookup per
//! selected row and a column-wise gather of the output columns the
//! operators above the join asked for: probe columns through
//! [`Column::take`], build columns through [`Column::push_slot`]. Output
//! rows follow probe row order, a probe row's matches in build row order.
//!
//! A join is one stage of the engine's per-block step: the executor
//! ([`crate::exec`]) compiles a chain of them — over the selection pushed
//! below the first probe, and under the [`crate::BlockFold`] when an
//! aggregate consumes the join — and runs it per probe block, for exact
//! morsels and, through [`crate::AggStep`], for `aqp-core`'s *sampled*
//! fact blocks alike. Block boundaries survive because the join never
//! repacks rows.

use std::collections::HashSet;
use std::sync::Arc;

use aqp_expr::eval::eval;
use aqp_expr::Expr;
use aqp_storage::{Block, Column, KeyIndex, Schema, Table};

use crate::error::EngineError;
use crate::plan::join_fields;

/// Where a column of the joined block comes from, by schema index.
enum Source {
    Probe(usize),
    Build(usize),
}

/// A join key: a stored column by index, or an expression to evaluate.
enum Key {
    Column(usize),
    Expr(Expr),
}

/// A compiled gather join over blocks of one probe schema.
pub struct GatherJoin {
    index: Arc<KeyIndex>,
    build: Vec<Arc<Block>>,
    probe_key: Key,
    schema: Arc<Schema>,
    sources: Vec<Source>,
    index_built: bool,
}

impl GatherJoin {
    /// Joins against catalog table `table` on `build_key`. A bare column
    /// key uses the table's cached key index — built here, under a
    /// `join:build` span and counted in
    /// [`aqp_obs::names::KEY_INDEX_BUILDS_TOTAL`], only if no earlier
    /// query has — and an expression key a transient one.
    ///
    /// `needed` names the join-output columns to produce (`None` = all:
    /// the probe side's, then the build side's, a taken name suffixed
    /// `_r`); names the join does not produce are ignored.
    pub fn over_table(
        probe_schema: &Schema,
        probe_key: &Expr,
        table: &Table,
        build_key: &Expr,
        needed: Option<&HashSet<&str>>,
    ) -> Result<GatherJoin, EngineError> {
        let build = table.blocks().to_vec();
        let Expr::Column(name) = build_key else {
            return Self::over_batches(
                probe_schema,
                probe_key,
                table.schema(),
                build,
                build_key,
                needed,
            );
        };
        let column = table.schema().index_of(name)?;
        // Opened before the lookup so a build's time lands in it; a query
        // racing another's first use may wait here without building.
        let mut span = (!table.has_key_index(column)).then(|| aqp_obs::span("join:build"));
        let (index, built) = table.key_index(column);
        if built {
            record_build();
        }
        if let Some(span) = &mut span {
            span.set_rows(table.row_count() as u64);
            span.set_detail(format!("{}.{name}", table.name()));
        }
        drop(span);
        Self::assemble(
            probe_schema,
            probe_key,
            table.schema(),
            build,
            index,
            built,
            needed,
        )
    }

    /// Joins against `build` blocks of `build_schema` through a transient
    /// key index over `build_key` (see [`GatherJoin::over_table`] for
    /// `needed`).
    pub fn over_batches(
        probe_schema: &Schema,
        probe_key: &Expr,
        build_schema: &Schema,
        build: Vec<Arc<Block>>,
        build_key: &Expr,
        needed: Option<&HashSet<&str>>,
    ) -> Result<GatherJoin, EngineError> {
        let mut span = aqp_obs::span("join:build");
        let owned: Vec<Column>;
        let keys: Vec<&Column> = match build_key {
            Expr::Column(name) => {
                let column = build_schema.index_of(name)?;
                build.iter().map(|b| b.column(column)).collect()
            }
            expr => {
                owned = (build.iter().map(|b| eval(expr, b))).collect::<Result<_, _>>()?;
                owned.iter().collect()
            }
        };
        let index = Arc::new(KeyIndex::build(&keys));
        record_build();
        span.set_rows(index.rows() as u64);
        span.finish();
        Self::assemble(
            probe_schema,
            probe_key,
            build_schema,
            build,
            index,
            true,
            needed,
        )
    }

    fn assemble(
        probe_schema: &Schema,
        probe_key: &Expr,
        build_schema: &Schema,
        build: Vec<Arc<Block>>,
        index: Arc<KeyIndex>,
        index_built: bool,
        needed: Option<&HashSet<&str>>,
    ) -> Result<GatherJoin, EngineError> {
        let probe_key = match probe_key {
            Expr::Column(name) => Key::Column(probe_schema.index_of(name)?),
            expr => {
                expr.data_type(probe_schema)?;
                Key::Expr(expr.clone())
            }
        };
        let probe_len = probe_schema.len();
        let mut fields = Vec::new();
        let mut sources = Vec::new();
        for (i, field) in join_fields(probe_schema, build_schema)
            .into_iter()
            .enumerate()
        {
            if needed.is_none_or(|names| names.contains(field.name.as_str())) {
                fields.push(field);
                sources.push(if i < probe_len {
                    Source::Probe(i)
                } else {
                    Source::Build(i - probe_len)
                });
            }
        }
        // A block's row count is its columns' length: a join asked for no
        // column (`COUNT(*)`) still carries one.
        if sources.is_empty() {
            if let Some(first) = probe_schema.fields().first() {
                fields.push(first.clone());
                sources.push(Source::Probe(0));
            }
        }
        Ok(GatherJoin {
            index,
            build,
            probe_key,
            schema: Arc::new(Schema::new(fields)),
            sources,
            index_built,
        })
    }

    /// Schema of the joined blocks.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The build side's key index.
    pub fn index(&self) -> &KeyIndex {
        &self.index
    }

    /// The build side's blocks, which the index's positions point into.
    pub fn build(&self) -> &[Arc<Block>] {
        &self.build
    }

    /// `[index cached|built, unique|multi, N cols gathered]`: the span
    /// detail that says whether this join paid for an index.
    pub fn tag(&self) -> String {
        format!(
            "[index {}, {}, {} cols gathered]",
            if self.index_built { "built" } else { "cached" },
            if self.index.is_unique() {
                "unique"
            } else {
                "multi"
            },
            self.sources.len()
        )
    }

    /// Joins the rows of `probe` that `selection` keeps (`None` = all).
    /// Rows whose key is NULL or matches no build row drop.
    pub fn join_block(
        &self,
        probe: &Block,
        selection: Option<&[bool]>,
    ) -> Result<Block, EngineError> {
        let evaluated;
        let keys = match &self.probe_key {
            Key::Column(column) => probe.column(*column),
            Key::Expr(expr) => {
                evaluated = eval(expr, probe)?;
                &evaluated
            }
        };
        let mut rows: Vec<usize> = Vec::with_capacity(probe.len());
        let mut hits = Vec::with_capacity(probe.len());
        self.index.probe(keys, selection, |row, run| {
            for &pos in run {
                rows.push(row);
                hits.push(pos);
            }
        });
        let columns = (self.sources.iter().zip(self.schema.fields()))
            .map(|(source, field)| match *source {
                Source::Probe(column) => probe.column(column).take(&rows),
                Source::Build(column) => {
                    let mut out = Column::with_capacity(field.data_type, hits.len());
                    for pos in &hits {
                        let src = self.build[pos.block as usize].column(column);
                        out.push_slot(src, pos.row as usize);
                    }
                    out
                }
            })
            .collect();
        Ok(Block::from_columns(Arc::clone(&self.schema), columns))
    }
}

/// Counts one key-index build on the metrics registry in scope.
fn record_build() {
    aqp_obs::metrics::record(|m| m.counter(aqp_obs::names::KEY_INDEX_BUILDS_TOTAL).inc(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_expr::{col, lit};
    use aqp_storage::{DataType, Field, TableBuilder, Value};

    fn dim() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("name", DataType::Str),
        ]);
        let mut b = TableBuilder::with_block_capacity("dim", schema, 2);
        for (k, name) in [(1, "a"), (2, "b"), (2, "c"), (4, "d")] {
            b.push_row(&[Value::Int64(k), Value::str(name)]).unwrap();
        }
        b.finish()
    }

    fn probe() -> Block {
        let schema = Arc::new(Schema::new(vec![
            Field::nullable("fk", DataType::Int64),
            Field::new("k", DataType::Int64),
        ]));
        let mut b = Block::new(schema);
        for (fk, k) in [(Some(2), 10), (None, 11), (Some(9), 12), (Some(1), 13)] {
            b.push_row(&[fk.map_or(Value::Null, Value::Int64), Value::Int64(k)])
                .unwrap();
        }
        b
    }

    #[test]
    fn all_columns_left_then_right_with_rename() {
        let (t, p) = (dim(), probe());
        let j = GatherJoin::over_table(p.schema(), &col("fk"), &t, &col("k"), None).unwrap();
        assert_eq!(j.schema().names(), vec!["fk", "k", "k_r", "name"]);
        let out = j.join_block(&p, None).unwrap();
        // fk 2 matches two build rows in build order; NULL and 9 drop.
        assert_eq!(
            (0..out.len()).map(|i| out.row(i)).collect::<Vec<_>>(),
            vec![
                vec![2i64.into(), 10i64.into(), 2i64.into(), Value::str("b")],
                vec![2i64.into(), 10i64.into(), 2i64.into(), Value::str("c")],
                vec![1i64.into(), 13i64.into(), 1i64.into(), Value::str("a")],
            ]
        );
        assert_eq!(j.tag(), "[index built, multi, 4 cols gathered]");
        // The second join over the same table finds the index cached.
        let again = GatherJoin::over_table(p.schema(), &col("fk"), &t, &col("k"), None).unwrap();
        assert_eq!(again.tag(), "[index cached, multi, 4 cols gathered]");
    }

    #[test]
    fn pruned_columns_and_selection() {
        let (t, p) = (dim(), probe());
        let needed: HashSet<&str> = ["name", "nope"].into();
        let j =
            GatherJoin::over_table(p.schema(), &col("fk"), &t, &col("k"), Some(&needed)).unwrap();
        assert_eq!(j.schema().names(), vec!["name"]);
        let out = j.join_block(&p, Some(&[false, true, true, true])).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), vec![Value::str("a")]);
        // No column asked for: the row count still rides on one.
        let none = HashSet::new();
        let j = GatherJoin::over_table(p.schema(), &col("fk"), &t, &col("k"), Some(&none)).unwrap();
        assert_eq!(j.join_block(&p, None).unwrap().len(), 3);
    }

    #[test]
    fn expression_keys_use_a_transient_index() {
        let (t, p) = (dim(), probe());
        let j = GatherJoin::over_table(
            p.schema(),
            &col("fk").mul(lit(2i64)),
            &t,
            &col("k").mul(lit(2i64)),
            None,
        )
        .unwrap();
        assert_eq!(j.join_block(&p, None).unwrap().len(), 3);
        assert!(!t.has_key_index(0), "an expression key caches nothing");
        assert!(
            GatherJoin::over_table(p.schema(), &col("zz"), &t, &col("k"), None).is_err(),
            "unknown probe key"
        );
    }
}
