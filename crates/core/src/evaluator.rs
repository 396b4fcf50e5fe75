//! Evaluation of a star [`AggQuery`] against *sampled* fact blocks: the
//! exact engine's aggregate step, run over morsels of sampled blocks.
//!
//! The statistical machinery needs per-fact-block group totals (blocks are
//! the sampling units), and folding blocks into an aggregate partial is
//! exactly what the exact executor does to every morsel. So the evaluator
//! compiles the query's plan ([`AggQuery::to_plan`]) to the engine's own
//! [`AggStep`] — the predicates that name only fact columns as a
//! selection below the gathers, one gather join per dimension against the
//! key index the dimension [`Table`] caches, then the block fold, typed
//! kernel or scalar — and [`SampledTotals::fold`] runs it through
//! [`AggStep::fold_units`]: each morsel of sampled blocks folds through
//! one partial, and after each block the groups it touched are moved out
//! as that unit's totals, so every (unit, group) sum starts at zero and
//! adds its rows in row order, as a fresh partial per block would. Those
//! totals are the `(f, g)` pairs the HT estimators consume. Where a
//! predicate runs, which columns a join gathers and how names resolve
//! (fact columns first, then dimensions in join order) is decided once,
//! in the engine, for the exact and the sampled paths alike. Rows with a
//! NULL or dangling key drop, as in an inner join.
//!
//! That per-row FK lookup is exactly why `sample(fact) ⋈ dim` is
//! statistically identical to `sample(fact ⋈ dim)` for foreign-key joins
//! (each fact row joins to at most one dimension row, so sampling commutes
//! with the join) — the one join shape NSB notes *is* safe to sample one
//! side of. It holds only while the dimension key is unique, which the
//! index knows: a duplicate key is refused.

use std::collections::HashMap;
use std::sync::Arc;

use aqp_engine::agg::{GroupKey, KeyAtom};
use aqp_engine::fold::record_dispatch;
use aqp_engine::{AggStep, BlockFold, UnitTotals};
use aqp_sampling::bernoulli_blocks;
use aqp_sampling::design::{PairStats, UnitSums};
use aqp_stats::Estimate;
use aqp_storage::{Block, Catalog, DataType, Table, Value};

use crate::aggquery::{AggQuery, LinearAgg};
use crate::error::AqpError;

/// Evaluates a star query over sampled fact blocks.
pub struct StarEvaluator {
    fact: Arc<Table>,
    step: AggStep,
    /// Total rows of the dimension tables.
    dim_rows: u64,
    /// Per group key, whether its expression is FLOAT64-typed.
    float_keys: Vec<bool>,
    /// Per aggregate, which estimate its totals finish as.
    kinds: Vec<LinearAgg>,
}

impl StarEvaluator {
    /// Builds the evaluator: loads the fact table handle and compiles the
    /// query's aggregate step (a dimension's key index is built here only
    /// if no earlier query has built it).
    ///
    /// Errors if a dimension key is duplicated (the FK assumption the
    /// commuting argument rests on) or any referenced table is missing.
    pub fn new(catalog: &Catalog, query: &AggQuery) -> Result<Self, AqpError> {
        let fact = catalog.get(&query.fact_table)?;
        let step = AggStep::compile(&query.to_plan(), catalog)?;
        let mut dim_rows = 0u64;
        for (j, join) in query.joins.iter().zip(step.joins()) {
            let build = join.build();
            if let Some(dup) = join.index().first_duplicate() {
                let block = &build[dup.block as usize];
                let key = block.column(block.schema().index_of(&j.dim_key)?);
                return Err(AqpError::Unsupported {
                    detail: format!(
                        "dimension {} has duplicate key {} in {}; \
                         sampling one side of a many-to-many join is unsound",
                        j.dim_table,
                        key.get(dup.row as usize),
                        j.dim_key
                    ),
                });
            }
            dim_rows += build.iter().map(|b| b.len() as u64).sum::<u64>();
        }
        let float_keys = (query.group_by.iter())
            .map(|(e, _)| matches!(e.data_type(step.schema()), Ok(DataType::Float64)))
            .collect();
        Ok(Self {
            fact,
            step,
            dim_rows,
            float_keys,
            kinds: query.aggregates.iter().map(|a| a.kind).collect(),
        })
    }

    /// The fact table.
    pub fn fact(&self) -> &Arc<Table> {
        &self.fact
    }

    /// Total rows in the dimension tables. Callers add it to
    /// `rows_scanned` on every query, as when each query indexed its
    /// dimensions itself: with the index cached on the table the rows are
    /// no longer read, but the count keeps `rows_scanned` and the ns/row
    /// figures read off it comparable across that change.
    pub fn dim_rows(&self) -> u64 {
        self.dim_rows
    }

    /// The compiled block fold (typed kernel or scalar path).
    pub fn fold(&self) -> &BlockFold {
        self.step.fold()
    }

    /// A canonical group key as values of the group-by expressions' types,
    /// as the exact engine emits it: an integral FLOAT64 key, canonically
    /// [`KeyAtom::Int`], comes back as `Float64`.
    fn key_values(&self, key: &GroupKey) -> Vec<Value> {
        (key.iter().zip(&self.float_keys))
            .map(|(atom, &float)| match *atom {
                KeyAtom::Int(i) if float => Value::Float64(i as f64),
                _ => atom.to_value(),
            })
            .collect()
    }
}

/// One group's sums over a block sample: per aggregate, the `(f, g)`
/// totals of the sampled blocks the group has a qualifying row in.
#[derive(Debug, Clone)]
pub struct GroupSums {
    /// Per aggregate: the group's block totals.
    pub totals: Vec<UnitSums>,
    /// Sampled blocks the group appears in.
    pub blocks_seen: u64,
}

/// Per-group block totals over one block sample of a [`StarEvaluator`]'s
/// fact table, folded in sample order — so the summation order, and every
/// estimate, is the same however many threads folded the blocks. A
/// sampled block a group is absent from counts as its `(0, 0)` unit,
/// through [`PairStats::clusters`].
#[derive(Debug)]
pub struct SampledTotals {
    /// Per group key, its sums' index in `groups`.
    index: HashMap<GroupKey, usize>,
    groups: Vec<GroupSums>,
    blocks: u64,
}

impl SampledTotals {
    /// An empty sample for `evaluator`'s query. Ticks
    /// `aqp_kernel_dispatch_total` once, labelled by the fold its blocks
    /// will run.
    pub fn new(evaluator: &StarEvaluator) -> Self {
        record_dispatch(evaluator.fold().is_kernel());
        Self {
            index: HashMap::new(),
            groups: Vec::new(),
            blocks: 0,
        }
    }

    /// Draws a Bernoulli block sample of `evaluator`'s fact table at
    /// `rate` under `seed` and folds it on up to `threads` threads, inside
    /// a `span` that records the rows drawn, the rate and the fold that
    /// ran. Returns the totals with the rows the sample drew. Online's
    /// final phase and the middleware rewrite both sample through here.
    pub fn draw(
        evaluator: &StarEvaluator,
        rate: f64,
        seed: u64,
        threads: usize,
        span: &'static str,
    ) -> Result<(Self, u64), AqpError> {
        let mut span = aqp_obs::span(span);
        let sample = bernoulli_blocks(evaluator.fact(), rate, seed);
        let rows = sample.num_rows() as u64;
        let mut totals = Self::new(evaluator);
        totals.fold(evaluator, sample.table.blocks(), threads)?;
        if span.is_recording() {
            span.set_rows(rows);
            span.set_detail(format!("rate={rate:.4} {}", evaluator.fold().tag()));
        }
        span.finish();
        Ok((totals, rows))
    }

    /// Adds `blocks`, sampled from `evaluator`'s fact table, after those
    /// added so far: [`AggStep::fold_units`] folds them in morsels on up
    /// to `threads` threads, and each morsel's (unit, group) totals are
    /// pushed in unit order.
    pub fn fold(
        &mut self,
        evaluator: &StarEvaluator,
        blocks: &[Arc<Block>],
        threads: usize,
    ) -> Result<(), AqpError> {
        let width = evaluator.kinds.len();
        for morsel in evaluator.step.fold_units(blocks, threads)? {
            self.add(morsel, width);
        }
        Ok(())
    }

    /// Adds one morsel's totals: each of its group keys is resolved once,
    /// then its cells are pushed in unit order.
    fn add(&mut self, mut morsel: UnitTotals, width: usize) {
        let (index, groups) = (&mut self.index, &mut self.groups);
        let slots: Vec<usize> = (std::mem::take(&mut morsel.keys).into_iter())
            .map(|key| {
                let next = groups.len();
                *index.entry(key).or_insert_with(|| {
                    groups.push(GroupSums {
                        totals: vec![UnitSums::default(); width],
                        blocks_seen: 0,
                    });
                    next
                })
            })
            .collect();
        for (_, group, totals) in morsel.cells() {
            let group = &mut groups[slots[group]];
            for (t, &(f, g)) in group.totals.iter_mut().zip(totals) {
                t.push(f, g);
            }
            group.blocks_seen += 1;
        }
        self.blocks += morsel.units as u64;
    }

    /// Sampled blocks added so far.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// The groups seen so far.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = &GroupSums> {
        self.groups.iter()
    }

    /// Per group, its key values and per-aggregate estimates — the shape
    /// [`crate::answer::assemble_answer`] takes — with the sampled blocks
    /// an SRS of the fact table's: SUM and COUNT finish as the cluster
    /// total, AVG as the cluster ratio. An ungrouped query has its one
    /// global group, as the exact engine emits it, even before a row
    /// qualifies.
    pub fn estimates(&self, evaluator: &StarEvaluator) -> Vec<(Vec<Value>, Vec<Estimate>)> {
        let population_blocks = evaluator.fact.block_count() as u64;
        let finish = |totals: &[UnitSums]| -> Vec<Estimate> {
            (evaluator.kinds.iter().zip(totals))
                .map(|(kind, t)| {
                    let stats = PairStats::clusters(t, self.blocks, population_blocks);
                    match kind {
                        LinearAgg::CountStar | LinearAgg::Sum => stats.total(),
                        LinearAgg::Avg => stats.ratio(),
                    }
                })
                .collect()
        };
        let mut raw: Vec<_> = (self.index.iter())
            .map(|(key, &i)| (evaluator.key_values(key), finish(&self.groups[i].totals)))
            .collect();
        if raw.is_empty() && evaluator.float_keys.is_empty() {
            let none = vec![UnitSums::default(); evaluator.kinds.len()];
            raw.push((vec![], finish(&none)));
        }
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggquery::AggSpec;
    use crate::aggquery::LinearAgg;
    use aqp_expr::{col, lit};
    use aqp_storage::{DataType, Field, Schema, TableBuilder, Value};

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

    /// Block `block` folded as a one-block sample: its cells' keys and
    /// `(f, g)` totals.
    fn cells(ev: &StarEvaluator, block: usize) -> Vec<(GroupKey, Vec<(f64, f64)>)> {
        let sample = [Arc::clone(ev.fact().block(block))];
        let morsels = ev.step.fold_units(&sample, 1).unwrap();
        let [morsel] = &morsels[..] else {
            panic!("one morsel, got {}", morsels.len())
        };
        assert_eq!(morsel.units, 1);
        (morsel.cells())
            .map(|(unit, g, totals)| {
                assert_eq!(unit, 0);
                (morsel.keys[g].clone(), totals.to_vec())
            })
            .collect()
    }

    /// One block's totals, sorted by label.
    fn totals(ev: &StarEvaluator, block: usize) -> Vec<(String, Vec<(f64, f64)>)> {
        let mut out: Vec<_> = (cells(ev, block).into_iter())
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
        assert_eq!(cells(&ev, 2), vec![(vec![], vec![(2.0, 0.0)])]);
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
        assert_eq!(cells(&ev, 0), vec![(vec![], vec![(6.0, 4.0)])]);
    }

    #[test]
    fn missing_table_errors() {
        let c = catalog();
        let mut q = query(None);
        q.fact_table = "zzz".into();
        assert!(StarEvaluator::new(&c, &q).is_err());
    }
}
