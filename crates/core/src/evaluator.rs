//! Per-block evaluation of a star [`AggQuery`] against *sampled* fact
//! blocks: an FK gather feeding the engine's block fold.
//!
//! The statistical machinery needs per-fact-block group totals (blocks are
//! the sampling units), and folding one block into a fresh aggregate
//! partial is exactly what [`aqp_engine::BlockFold`] does for the exact
//! executor's morsels. The evaluator is that fold's second caller: it
//! compiles the query's predicate, keys and aggregates once — onto the
//! typed kernel when the shape is in its domain, the scalar path otherwise
//! — folds each sampled block, and reads the `(f, g)` pairs the HT
//! estimators consume straight out of the aggregate states.
//!
//! A relational join would repack rows and destroy block boundaries, so
//! star joins never go through the engine's hash join. Dimension tables
//! are indexed by their (unique) key once per query, every referenced
//! column name is resolved once — fact columns first, then dimensions in
//! join order — and per fact block the referenced dimension columns are
//! *gathered* through the FK into a joined block of the same row order
//! (rows with a NULL or dangling key drop, as in an inner join). The fold
//! then runs over the joined block as it would over a plain one.
//!
//! That per-row FK lookup is exactly why `sample(fact) ⋈ dim` is
//! statistically identical to `sample(fact ⋈ dim)` for foreign-key joins
//! (each fact row joins to at most one dimension row, so sampling commutes
//! with the join) — the one join shape NSB notes *is* safe to sample one
//! side of.

use std::collections::HashMap;
use std::sync::Arc;

use aqp_engine::agg::{AggState, GroupKey, KeyAtom};
use aqp_engine::BlockFold;
use aqp_storage::{Block, Catalog, Column, DataType, Field, Schema, Table, Value};

use crate::aggquery::AggQuery;
use crate::error::AqpError;

struct DimLookup {
    table: Arc<Table>,
    fact_key_idx: usize,
    /// dim key → (block, row) within the dim table.
    index: HashMap<KeyAtom, (u32, u32)>,
}

/// Where a column of the joined block comes from.
enum Source {
    /// Fact column, by schema index.
    Fact(usize),
    /// Column of dimension `dim`, by that table's schema index.
    Dim { dim: usize, col: usize },
}

/// One group's per-aggregate `(f, g)` totals within one block.
pub type GroupTotals = (GroupKey, Vec<(f64, f64)>);

/// Evaluates a star query one sampled fact block at a time.
pub struct StarEvaluator {
    fact: Arc<Table>,
    dims: Vec<DimLookup>,
    /// Schema and column sources of the joined block (the FK and
    /// referenced columns only); `None` when the query has no joins and
    /// fact blocks are folded as they are.
    joined: Option<(Arc<Schema>, Vec<Source>)>,
    /// Per group key, whether its expression is FLOAT64-typed.
    float_keys: Vec<bool>,
    fold: BlockFold,
}

impl StarEvaluator {
    /// Builds the evaluator: loads the fact table handle, hash-indexes
    /// every dimension by its join key, resolves the referenced columns
    /// and compiles the block fold.
    ///
    /// Errors if a dimension key is duplicated (the FK assumption the
    /// commuting argument rests on) or any referenced table is missing.
    pub fn new(catalog: &Catalog, query: &AggQuery) -> Result<Self, AqpError> {
        let fact = catalog.get(&query.fact_table)?;
        let mut dims = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            let table = catalog.get(&j.dim_table)?;
            let fact_key_idx = fact.schema().index_of(&j.fact_key)?;
            let key_idx = table.schema().index_of(&j.dim_key)?;
            let mut index = HashMap::with_capacity(table.row_count());
            for (bi, block) in table.iter_blocks() {
                let keys = block.column(key_idx);
                for ri in 0..block.len() {
                    let (v, slot) = (keys.get(ri), (bi as u32, ri as u32));
                    // NULL keys are never indexed: they match no fact row.
                    if !v.is_null() && index.insert(KeyAtom::from_value(&v), slot).is_some() {
                        return Err(AqpError::Unsupported {
                            detail: format!(
                                "dimension {} has duplicate key {v} in {}; \
                                 sampling one side of a many-to-many join is unsound",
                                j.dim_table, j.dim_key
                            ),
                        });
                    }
                }
            }
            dims.push(DimLookup {
                table,
                fact_key_idx,
                index,
            });
        }
        let aggregates = query.agg_exprs();
        let joined = (!dims.is_empty()).then(|| {
            // Resolve each referenced name once: fact first, then
            // dimensions in join order. A name nothing resolves stays out
            // of the joined schema and surfaces as the fold's
            // column-not-found error. The FK columns always ride along, so
            // a joined block has its row count even when the query names
            // no column (`COUNT(*)`).
            let mut fields: Vec<Field> = Vec::new();
            let mut sources = Vec::new();
            let exprs = (query.predicate.iter())
                .chain(query.group_by.iter().map(|(e, _)| e))
                .chain(aggregates.iter().map(|a| &a.expr));
            let fks = query.joins.iter().map(|j| j.fact_key.as_str());
            for name in fks.chain(exprs.flat_map(|e| e.referenced_columns())) {
                if fields.iter().any(|f| f.name == name) {
                    continue;
                }
                let tables = std::iter::once(&fact).chain(dims.iter().map(|d| &d.table));
                let hit = tables.enumerate().find_map(|(ti, t)| {
                    let col = t.schema().index_of(name).ok()?;
                    Some((ti, col, t.schema().field_at(col).clone()))
                });
                if let Some((ti, col, field)) = hit {
                    fields.push(field);
                    sources.push(match ti {
                        0 => Source::Fact(col),
                        _ => Source::Dim { dim: ti - 1, col },
                    });
                }
            }
            (Arc::new(Schema::new(fields)), sources)
        });
        let schema = joined.as_ref().map_or(fact.schema(), |(s, _)| s);
        let predicates: Vec<_> = query.predicate.iter().collect();
        let fold = BlockFold::compile(&predicates, &query.group_by, &aggregates, schema);
        let float_keys = (query.group_by.iter())
            .map(|(e, _)| matches!(e.data_type(schema), Ok(DataType::Float64)))
            .collect();
        Ok(Self {
            fact,
            dims,
            joined,
            float_keys,
            fold,
        })
    }

    /// The fact table.
    pub fn fact(&self) -> &Arc<Table> {
        &self.fact
    }

    /// Total rows in the dimension tables (scanned once to index them).
    pub fn dim_rows(&self) -> u64 {
        self.dims.iter().map(|d| d.table.row_count() as u64).sum()
    }

    /// The compiled block fold (typed kernel or scalar path).
    pub fn fold(&self) -> &BlockFold {
        &self.fold
    }

    /// A canonical group key as values of the group-by expressions' types,
    /// as the exact engine emits it: an integral FLOAT64 key, canonically
    /// [`KeyAtom::Int`], comes back as `Float64`.
    pub fn key_values(&self, key: &GroupKey) -> Vec<Value> {
        (key.iter().zip(&self.float_keys))
            .map(|(atom, &float)| match *atom {
                KeyAtom::Int(i) if float => Value::Float64(i as f64),
                _ => atom.to_value(),
            })
            .collect()
    }

    /// Gathers the referenced columns of one fact block through the FK
    /// indexes. Rows whose key is NULL or matches no dimension row drop.
    /// `None` when the query has no joins.
    fn join_block(&self, block: &Block) -> Option<Block> {
        let (schema, sources) = self.joined.as_ref()?;
        let nd = self.dims.len();
        let mut rows: Vec<usize> = Vec::with_capacity(block.len());
        // Row-major: `nd` dimension hits per surviving row.
        let mut hits: Vec<(u32, u32)> = Vec::with_capacity(block.len() * nd);
        for ri in 0..block.len() {
            // NULL keys are never indexed, so NULL and dangling FKs both miss.
            let row_hits = self.dims.iter().map_while(|d| {
                let fk = block.column(d.fact_key_idx).get(ri);
                d.index.get(&KeyAtom::from_value(&fk)).copied()
            });
            hits.extend(row_hits);
            if hits.len() == (rows.len() + 1) * nd {
                rows.push(ri);
            } else {
                hits.truncate(rows.len() * nd);
            }
        }
        let columns = (sources.iter().zip(schema.fields()))
            .map(|(source, field)| match *source {
                Source::Fact(col) => block.column(col).take(&rows),
                Source::Dim { dim, col } => {
                    let table = &self.dims[dim].table;
                    let mut out = Column::with_capacity(field.data_type, rows.len());
                    for &(bi, ri) in hits.iter().skip(dim).step_by(nd) {
                        out.push_slot(table.block(bi as usize).column(col), ri as usize);
                    }
                    out
                }
            })
            .collect();
        Some(Block::from_columns(Arc::clone(schema), columns))
    }

    /// Folds one sampled fact block and returns, for every group with a
    /// qualifying row in it, the block's per-aggregate `(f, g)` totals —
    /// SUM is `(Σx, 0)`, COUNT `(n, 0)`, AVG `(Σx, n)` over non-NULL `x`.
    pub fn block_totals(&self, block: &Block) -> Result<Vec<GroupTotals>, AqpError> {
        let joined = self.join_block(block);
        let input = joined.as_ref().unwrap_or(block);
        let mut acc = self.fold.new_acc(None);
        if self.fold.fold(input, &mut acc, true)? == 0 {
            return Ok(Vec::new());
        }
        let pair = |s: &AggState| match *s {
            AggState::CountStar(n) => (n as f64, 0.0),
            AggState::Sum { sum, .. } => (sum, 0.0),
            AggState::Avg { sum, count } => (sum, count as f64),
            _ => unreachable!("linear aggregates only"),
        };
        let groups = acc.into_groups().into_iter();
        Ok(groups
            .map(|(key, states)| (key, states.iter().map(pair).collect()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggquery::AggSpec;
    use crate::aggquery::LinearAgg;
    use aqp_expr::{col, lit};
    use aqp_storage::{DataType, TableBuilder, Value};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("fk", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("fact", schema, 4);
        for i in 0..10i64 {
            b.push_row(&[Value::Int64(i % 4), Value::Float64(i as f64)])
                .unwrap();
        }
        // One fact row with a dangling FK.
        b.push_row(&[Value::Int64(99), Value::Float64(100.0)])
            .unwrap();
        c.register(b.finish()).unwrap();

        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("label", DataType::Str),
        ]);
        let mut b = TableBuilder::with_block_capacity("dim", schema, 2);
        for i in 0..4i64 {
            b.push_row(&[Value::Int64(i), Value::str(if i < 2 { "lo" } else { "hi" })])
                .unwrap();
        }
        c.register(b.finish()).unwrap();
        c
    }

    fn query(predicate: Option<aqp_expr::Expr>) -> AggQuery {
        AggQuery {
            fact_table: "fact".into(),
            joins: vec![crate::aggquery::JoinSpec {
                dim_table: "dim".into(),
                fact_key: "fk".into(),
                dim_key: "k".into(),
            }],
            predicate,
            group_by: vec![(col("label"), "label".into())],
            aggregates: vec![
                AggSpec {
                    kind: LinearAgg::Sum,
                    expr: col("x"),
                    alias: "s".into(),
                },
                AggSpec {
                    kind: LinearAgg::CountStar,
                    expr: lit(1i64),
                    alias: "n".into(),
                },
            ],
        }
    }

    /// One block's totals, sorted by label.
    fn totals(ev: &StarEvaluator, block: usize) -> Vec<(String, Vec<(f64, f64)>)> {
        let mut out: Vec<_> = ev
            .block_totals(ev.fact().block(block))
            .unwrap()
            .into_iter()
            .map(|(key, pairs)| (key[0].to_value().to_string(), pairs))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn joins_and_groups_resolve() {
        let c = catalog();
        let ev = StarEvaluator::new(&c, &query(None)).unwrap();
        // Block 0 holds fk 0..4 with x = fk: "lo" gets rows 0, 1 and "hi"
        // rows 2, 3.
        assert_eq!(
            totals(&ev, 0),
            vec![
                ("hi".to_string(), vec![(5.0, 0.0), (2.0, 0.0)]),
                ("lo".to_string(), vec![(1.0, 0.0), (2.0, 0.0)]),
            ]
        );
    }

    #[test]
    fn dangling_fk_drops_row() {
        let c = catalog();
        let ev = StarEvaluator::new(&c, &query(None)).unwrap();
        // Block 2 holds rows 8, 9 (fk 0, 1 → "lo") and the fk-99 row.
        assert_eq!(
            totals(&ev, 2),
            vec![("lo".to_string(), vec![(17.0, 0.0), (2.0, 0.0)])]
        );
    }

    #[test]
    fn count_star_alone_counts_joined_rows() {
        // No column is referenced: the joined block still has its rows.
        let c = catalog();
        let mut q = query(None);
        q.group_by.clear();
        q.aggregates.remove(0);
        let ev = StarEvaluator::new(&c, &q).unwrap();
        let got = ev.block_totals(ev.fact().block(2)).unwrap();
        assert_eq!(got, vec![(vec![], vec![(2.0, 0.0)])]);
    }

    #[test]
    fn predicate_on_dim_column() {
        let c = catalog();
        let ev = StarEvaluator::new(&c, &query(Some(col("label").eq(lit("hi"))))).unwrap();
        assert!(
            !ev.fold().is_kernel(),
            "string predicate folds on the scalar path"
        );
        assert_eq!(
            totals(&ev, 0),
            vec![("hi".to_string(), vec![(5.0, 0.0), (2.0, 0.0)])]
        );
    }

    #[test]
    fn predicate_on_fact_column() {
        let c = catalog();
        let ev = StarEvaluator::new(&c, &query(Some(col("x").gt_eq(lit(5.0))))).unwrap();
        assert!(totals(&ev, 0).is_empty(), "no row of block 0 qualifies");
        // Block 1 holds x = 4..8 with fk 0..4; x ≥ 5 keeps fk 1, 2, 3.
        assert_eq!(
            totals(&ev, 1),
            vec![
                ("hi".to_string(), vec![(13.0, 0.0), (2.0, 0.0)]),
                ("lo".to_string(), vec![(5.0, 0.0), (1.0, 0.0)]),
            ]
        );
    }

    #[test]
    fn duplicate_dim_keys_rejected() {
        let c = catalog();
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let mut b = TableBuilder::new("baddim", schema);
        b.push_row(&[Value::Int64(1)]).unwrap();
        b.push_row(&[Value::Int64(1)]).unwrap();
        c.register(b.finish()).unwrap();
        let mut q = query(None);
        q.joins[0].dim_table = "baddim".into();
        q.joins[0].dim_key = "k".into();
        assert!(matches!(
            StarEvaluator::new(&c, &q),
            Err(AqpError::Unsupported { .. })
        ));
    }

    #[test]
    fn avg_contribution_pairs() {
        let c = catalog();
        let mut q = query(None);
        q.joins.clear();
        q.group_by.clear();
        q.aggregates = vec![AggSpec {
            kind: LinearAgg::Avg,
            expr: col("x"),
            alias: "a".into(),
        }];
        let ev = StarEvaluator::new(&c, &q).unwrap();
        assert!(ev.fold().is_kernel(), "numeric ungrouped shape compiles");
        let got = ev.block_totals(ev.fact().block(0)).unwrap();
        assert_eq!(got, vec![(vec![], vec![(6.0, 4.0)])]);
    }

    #[test]
    fn missing_table_errors() {
        let c = catalog();
        let mut q = query(None);
        q.fact_table = "zzz".into();
        assert!(StarEvaluator::new(&c, &q).is_err());
    }
}
