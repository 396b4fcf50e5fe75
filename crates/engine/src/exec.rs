//! Morsel-driven block-at-a-time physical execution.
//!
//! Leaf scans are split into per-block *morsels* dispatched to a scoped
//! worker pool ([`crate::pool`]). `Scan→Filter→Project` chains run fused:
//! one worker carries a morsel through the whole chain without
//! materializing intermediates. Every predicate conjunction outside a
//! fused kernel is one compiled selection — the typed mask kernel when
//! the shape allows, the scalar evaluator otherwise.
//!
//! Every filter, projection and join, and the input of every `Aggregate`,
//! runs as a *chain*: a source — a catalog table read in place, or any
//! other plan executed to batches — then zero or more left-deep joins,
//! with the filters around them. The chain compiles to one per-block step
//! ([`AggStep`] under an aggregate): the filters that name only source
//! columns as a selection
//! pushed below the gathers (and handed to zone-map pruning), a
//! [`GatherJoin`] per join against the build side's key index — the one a
//! catalog table caches, so a dimension is indexed once per table, not
//! once per query — gathering only the columns the operators above
//! reference, then the [`BlockFold`] with the filters left over. Without a
//! join the source's own filters stay inside the fold, as the kernel's
//! fused mask, skipped on blocks a zone map proved all-true. Under an
//! aggregate no join output is materialized beyond one block.
//!
//! Every `Aggregate` runs that step over morsels of `AGG_MORSEL_BLOCKS`
//! source blocks, folds each morsel into a partial, and merges the
//! partials along the fixed pairwise [`tree_merge`] at every thread count,
//! 1 included. The tree depends only on data layout — never on
//! scheduling, on the kernels or on zone pruning — so a plan produces
//! bit-for-bit identical results at every thread count, with kernels and
//! pruning on or off. `threads == 1` (see [`ExecOptions`]) bypasses the
//! pool entirely and runs the same morsels on the calling thread.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use aqp_expr::eval::eval;
use aqp_expr::{prune_predicate, Expr, PruneVerdict};
use aqp_storage::{Block, Catalog, Column, Schema, Table, Value};

use crate::agg::{AggExpr, AggState, GroupKey, KeyAtom};
use crate::error::EngineError;
use crate::fold::{record_dispatch, tree_merge, BlockFold, FoldAcc, Selection};
use crate::join::GatherJoin;
use crate::plan::{LogicalPlan, SortKey};
use crate::pool::{self, ExecOptions};
use crate::result::{ExecStats, ResultSet};

/// Rows per output block produced by the row-assembling aggregate output.
const OUTPUT_BLOCK_ROWS: usize = 4096;

/// Minimum total input rows before an operator pays for the worker pool;
/// below this, pool setup costs more than the work.
const MIN_PARALLEL_ROWS: u64 = 4096;

/// Blocks per aggregation morsel. Aggregation partials carry a hash map
/// whose size scales with group cardinality, so one-block morsels would
/// pay that map (and its merge) per block; spanning several blocks
/// amortizes it. Fixed by layout — independent of the thread count — so
/// the partial-merge tree, and hence the result, never varies with it.
const AGG_MORSEL_BLOCKS: usize = 16;

/// Resolves the worker count for an operator over `morsels` morsels
/// holding `rows` rows total: serial for small inputs, otherwise the
/// configured thread count capped at one worker per morsel.
fn morsel_threads(opts: &ExecOptions, morsels: usize, rows: u64) -> usize {
    if opts.threads <= 1 || morsels < 2 || rows < MIN_PARALLEL_ROWS {
        1
    } else {
        opts.threads.min(morsels)
    }
}

/// Executes a logical plan against a catalog with default options
/// (worker count = available parallelism).
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> Result<ResultSet, EngineError> {
    execute_with(plan, catalog, ExecOptions::default())
}

/// Executes a logical plan against a catalog, materializing the result.
/// Result batches are shared (`Arc`) with the executor's intermediates —
/// assembling the [`ResultSet`] copies no data.
pub fn execute_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: ExecOptions,
) -> Result<ResultSet, EngineError> {
    let schema = plan.schema(catalog)?;
    let mut stats = ExecStats::default();
    let batches = exec_node(plan, catalog, &mut stats, &opts)?;
    stats.rows_output = batches.iter().map(|b| b.len() as u64).sum();
    Ok(ResultSet::new(schema, batches, stats))
}

/// Static span name for an operator node (fused chains report as one
/// `op:fused-scan` span, matching how they execute).
fn node_span_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "op:scan",
        _ if node_table(plan).is_some() => "op:fused-scan",
        LogicalPlan::Filter { .. } => "op:filter",
        LogicalPlan::Project { .. } => "op:project",
        LogicalPlan::Join { .. } => "op:join",
        LogicalPlan::Aggregate { .. } => "op:aggregate",
        LogicalPlan::Sort { .. } => "op:sort",
        LogicalPlan::Limit { .. } => "op:limit",
        LogicalPlan::UnionAll { .. } => "op:union-all",
    }
}

/// The base table a scan reads, or a fused `Scan→Filter…→Project` chain:
/// an optional `Project` over zero or more `Filter`s over a `Scan`.
fn node_table(plan: &LogicalPlan) -> Option<&str> {
    let input = match plan {
        LogicalPlan::Project { input, .. } => input.as_ref(),
        _ => plan,
    };
    let chain = Chain::of(input);
    chain.table.filter(|_| chain.joins.is_empty())
}

/// Span-wrapping shell around [`exec_node_inner`]: every operator node
/// gets an `op:*` span carrying its output row count (and source table
/// for scans), nested under the caller's span via the tracer's
/// thread-local parenting. Inert — one thread-local check — when the
/// caller is not inside a trace.
fn exec_node(
    plan: &LogicalPlan,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    // A join and the filters around it are one operator, which opens its
    // own `op:join` span (its detail comes from the compiled join).
    let chain = Chain::of(plan);
    if !chain.joins.is_empty() {
        return exec_chain(&chain, None, catalog, stats, opts);
    }
    let mut span = aqp_obs::span(node_span_name(plan));
    if span.is_recording() {
        if let Some(table) = node_table(plan) {
            span.set_detail(table.to_string());
        }
    }
    let pruned_before = stats.blocks_pruned;
    let out = exec_node_inner(plan, catalog, stats, opts)?;
    if span.is_recording() {
        span.set_rows(out.iter().map(|b| b.len() as u64).sum());
        // Surface the zone-map prune rate in the operator row.
        let pruned = stats.blocks_pruned - pruned_before;
        if pruned > 0 {
            if let Some(table) = node_table(plan) {
                span.set_detail(format!("{table} [{pruned} blocks pruned]"));
            }
        }
    }
    Ok(out)
}

/// What a block's zone map says about the predicates run on a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanVerdict {
    /// Some predicate can never be true on this block: skip it outright.
    Pruned,
    /// Every predicate is true on every (non-pruned) row: no mask needed.
    AllTrue,
    /// Undecided: evaluate the predicate masks row by row.
    Evaluate,
}

/// Classifies a table's blocks against a predicate chain using the
/// table's cached zone maps. With pruning disabled (or no predicates)
/// every block gets the conservative verdict. Verdicts depend only on
/// data layout, so downstream stats and results stay identical across
/// thread counts.
fn classify_blocks(
    t: &Table,
    predicates: &[&Expr],
    zone_pruning: bool,
) -> Vec<(Arc<Block>, ScanVerdict)> {
    let schema = t.schema();
    t.iter_blocks()
        .map(|(idx, block)| {
            let verdict = if predicates.is_empty() {
                ScanVerdict::AllTrue
            } else if !zone_pruning {
                ScanVerdict::Evaluate
            } else {
                let zone = t.zone(idx);
                let mut v = ScanVerdict::AllTrue;
                for p in predicates {
                    match prune_predicate(p, schema, zone) {
                        PruneVerdict::AllFalse => {
                            v = ScanVerdict::Pruned;
                            break;
                        }
                        PruneVerdict::AllTrue => {}
                        PruneVerdict::Unknown => v = ScanVerdict::Evaluate,
                    }
                }
                v
            };
            (Arc::clone(block), verdict)
        })
        .collect()
}

/// Counts one source block in a morsel's scan accounting (`scanned`: the
/// block comes off a base-table scan); `false` when its zone map pruned
/// it.
fn scan_block(scanned: bool, block: &Block, verdict: ScanVerdict, s: &mut ExecStats) -> bool {
    if verdict == ScanVerdict::Pruned {
        s.blocks_pruned += 1;
        return false;
    }
    if scanned {
        s.blocks_scanned += 1;
        s.rows_scanned += block.len() as u64;
    }
    true
}

/// Folds one scan's block accounting into the query's and into the
/// prune-rate counters of the metrics registry in scope
/// (`pruned / (pruned + scanned)` is the prune rate).
fn record_scan(scan_stats: &ExecStats, stats: &mut ExecStats) {
    *stats = stats.merge(scan_stats);
    aqp_obs::metrics::record(|m| {
        if scan_stats.blocks_pruned > 0 {
            m.counter(aqp_obs::names::BLOCKS_PRUNED_TOTAL)
                .inc(scan_stats.blocks_pruned);
        }
        if scan_stats.blocks_scanned > 0 {
            m.counter(aqp_obs::names::BLOCKS_SCANNED_TOTAL)
                .inc(scan_stats.blocks_scanned);
        }
    });
}

fn exec_node_inner(
    plan: &LogicalPlan,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog.get(table)?;
            let mut out = Vec::with_capacity(t.block_count());
            for (_, block) in t.iter_blocks() {
                stats.blocks_scanned += 1;
                stats.rows_scanned += block.len() as u64;
                out.push(Arc::clone(block));
            }
            Ok(out)
        }
        LogicalPlan::Filter { .. } => exec_chain(&Chain::of(plan), None, catalog, stats, opts),
        LogicalPlan::Project { input, exprs } => {
            let projection = Some((exprs.as_slice(), plan.schema(catalog)?));
            exec_chain(&Chain::of(input), projection, catalog, stats, opts)
        }
        LogicalPlan::Join { .. } => unreachable!("exec_node runs every join through exec_chain"),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let schema = plan.schema(catalog)?;
            exec_aggregate(input, group_by, aggregates, &schema, catalog, stats, opts)
        }
        LogicalPlan::Sort { input, keys } => {
            let batches = exec_node(input, catalog, stats, opts)?;
            let schema = plan.schema(catalog)?;
            sort_batches(&batches, keys, &schema)
        }
        LogicalPlan::Limit { input, n } => {
            let batches = exec_node(input, catalog, stats, opts)?;
            let mut out = Vec::new();
            let mut remaining = *n;
            for block in batches {
                if remaining == 0 {
                    break;
                }
                if block.len() <= remaining {
                    remaining -= block.len();
                    out.push(block);
                } else {
                    let indices: Vec<usize> = (0..remaining).collect();
                    out.push(Arc::new(block.take(&indices)));
                    remaining = 0;
                }
            }
            Ok(out)
        }
        LogicalPlan::UnionAll { inputs } => {
            let schema = plan.schema(catalog)?;
            let mut out = Vec::new();
            for child in inputs {
                for block in exec_node(child, catalog, stats, opts)? {
                    if block.schema().as_ref() == schema.as_ref() {
                        out.push(block);
                    } else {
                        // Same types, different names: rebind under the
                        // union's schema.
                        out.push(Arc::new(Block::from_columns(
                            Arc::clone(&schema),
                            block.columns().to_vec(),
                        )));
                    }
                }
            }
            Ok(out)
        }
    }
}

/// A plan read as one per-block pipeline: a source, then zero or more
/// left-deep joins, with the filters stacked between and above them.
struct Chain<'a> {
    /// The source: a catalog scan, or any other plan executed to batches.
    source: &'a LogicalPlan,
    /// The source's table when it is a catalog scan — the chain then
    /// classifies, scans and accounts for its blocks itself.
    table: Option<&'a str>,
    /// Filters directly above the source, innermost first.
    predicates: Vec<&'a Expr>,
    /// `(probe key, build side, build key)` per join, innermost first.
    joins: Vec<(&'a Expr, &'a LogicalPlan, &'a Expr)>,
    /// Filters above the innermost join, innermost first.
    filters: Vec<&'a Expr>,
}

/// A chain's compiled selection and gathers.
struct Gathers {
    /// Predicates run on each source block (before the first probe, if
    /// there is a join).
    selection: Selection,
    joins: Vec<GatherJoin>,
    /// Schema of the blocks the gathers hand on: the last join's output,
    /// or the source's when there is no join.
    schema: Arc<Schema>,
}

impl<'a> Chain<'a> {
    fn of(plan: &'a LogicalPlan) -> Chain<'a> {
        let (mut filters, mut joins, mut pending) = (Vec::new(), Vec::new(), Vec::new());
        let mut node = plan;
        loop {
            match node {
                LogicalPlan::Filter { input, predicate } => {
                    pending.push(predicate);
                    node = input.as_ref();
                }
                LogicalPlan::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                } => {
                    filters.append(&mut pending);
                    joins.push((left_key, right.as_ref(), right_key));
                    node = left.as_ref();
                }
                source => {
                    pending.reverse();
                    filters.reverse();
                    joins.reverse();
                    let table = match source {
                        LogicalPlan::Scan { table } => Some(table.as_str()),
                        _ => None,
                    };
                    return Chain {
                        source,
                        table,
                        predicates: pending,
                        joins,
                        filters,
                    };
                }
            }
        }
    }

    /// Compiles the selection and the gathers. The filters above the
    /// joins that name only source columns join the source's own below
    /// the first probe; the rest are returned for the gathered block.
    /// `above` holds the expressions of the operator consuming the chain:
    /// with those leftover filters they decide which columns each join
    /// gathers (`None`: every column). Returns the gathers, the
    /// predicates run on source blocks — which zone maps classify — and
    /// those left for the gathered block (none without a join).
    fn compile(
        &self,
        above: Option<&[&Expr]>,
        catalog: &Catalog,
        stats: &mut ExecStats,
        opts: &ExecOptions,
    ) -> Result<(Gathers, Vec<&'a Expr>, Vec<&'a Expr>), EngineError> {
        let source_schema = self.source.schema(catalog)?;
        if self.joins.is_empty() {
            let gathers = Gathers {
                selection: Selection::new(&self.predicates, &source_schema, opts.kernels),
                joins: Vec::new(),
                schema: source_schema,
            };
            return Ok((gathers, self.predicates.clone(), Vec::new()));
        }
        let (pushed, post): (Vec<&Expr>, Vec<&Expr>) = self.filters.iter().partition(|f| {
            let mut names = f.referenced_columns().into_iter();
            names.all(|name| source_schema.index_of(name).is_ok())
        });
        let below: Vec<&Expr> = self.predicates.iter().copied().chain(pushed).collect();
        let builds = (self.joins.iter())
            .map(|(_, build, _)| build.schema(catalog))
            .collect::<Result<Vec<_>, _>>()?;
        let mut joins: Vec<GatherJoin> = Vec::with_capacity(self.joins.len());
        for (level, &(probe_key, build, build_key)) in self.joins.iter().enumerate() {
            // What this join gathers: the columns referenced above and by
            // later probe keys, plus every name a later build side has — a
            // later build column is then renamed exactly as in the full
            // join schema.
            let needed: Option<HashSet<&str>> = above.map(|exprs| {
                let later_keys = self.joins[level + 1..].iter().map(|&(key, _, _)| key);
                let later_names = builds[level + 1..].iter().flat_map(|s| s.fields());
                (exprs
                    .iter()
                    .copied()
                    .chain(post.iter().copied())
                    .chain(later_keys))
                .flat_map(|e| e.referenced_columns())
                .chain(later_names.map(|f| f.name.as_str()))
                .collect()
            });
            let probe_schema = joins.last().map_or(&source_schema, GatherJoin::schema);
            let gather = match build {
                LogicalPlan::Scan { table } => {
                    let t = catalog.get(table)?;
                    // Accounted as the scan it replaces, index cached or
                    // not, so `rows_scanned` and every ns/row read off it
                    // mean the same before and after a dimension's index
                    // exists.
                    stats.blocks_scanned += t.block_count() as u64;
                    stats.rows_scanned += t.row_count() as u64;
                    GatherJoin::over_table(probe_schema, probe_key, &t, build_key, needed.as_ref())?
                }
                other => {
                    let batches = exec_node(other, catalog, stats, opts)?;
                    GatherJoin::over_batches(
                        probe_schema,
                        probe_key,
                        &builds[level],
                        batches,
                        build_key,
                        needed.as_ref(),
                    )?
                }
            };
            joins.push(gather);
        }
        let gathers = Gathers {
            selection: Selection::new(&below, &source_schema, opts.kernels),
            schema: Arc::clone(joins.last().map_or(&source_schema, GatherJoin::schema)),
            joins,
        };
        Ok((gathers, below, post))
    }

    /// The source's blocks with their verdicts against `predicates`: a
    /// table's classified by its zone maps, any other source executed to
    /// batches (all `Evaluate` when there is a predicate).
    fn source_blocks(
        &self,
        predicates: &[&Expr],
        catalog: &Catalog,
        stats: &mut ExecStats,
        opts: &ExecOptions,
    ) -> Result<Vec<(Arc<Block>, ScanVerdict)>, EngineError> {
        if let Some(table) = self.table {
            let t = catalog.get(table)?;
            return Ok(classify_blocks(&t, predicates, opts.zone_pruning));
        }
        let verdict = if predicates.is_empty() {
            ScanVerdict::AllTrue
        } else {
            ScanVerdict::Evaluate
        };
        let batches = exec_node(self.source, catalog, stats, opts)?;
        Ok(batches.into_iter().map(|b| (b, verdict)).collect())
    }

    /// The `op:join` span detail: the source table, each join's index
    /// tag, the predicates run before the probe, blocks pruned.
    fn join_detail(&self, gathers: &Gathers, below: usize, pruned: u64) -> String {
        let mut detail = self.table.unwrap_or("-").to_string();
        for join in &gathers.joins {
            detail += &format!(" {}", join.tag());
        }
        if below > 0 {
            detail += &format!(" [filters before probe: {below}]");
        }
        if pruned > 0 {
            detail += &format!(" [{pruned} blocks pruned]");
        }
        detail
    }
}

impl Gathers {
    /// Selects and joins one source block (`evaluate: false` when a zone
    /// map proved the selection true on every row); without a join, the
    /// selected rows — `None` when none is. Output rows follow source row
    /// order.
    fn run<'b>(
        &self,
        block: &'b Block,
        evaluate: bool,
    ) -> Result<Option<Cow<'b, Block>>, EngineError> {
        let selection = if evaluate {
            &self.selection
        } else {
            &Selection::All
        };
        let Some((first, rest)) = self.joins.split_first() else {
            return selection.apply(Cow::Borrowed(block));
        };
        let mut joined = first.join_block(block, selection.mask(block)?.as_deref())?;
        for join in rest {
            joined = join.join_block(&joined, None)?;
        }
        Ok(Some(Cow::Owned(joined)))
    }
}

/// An aggregate's compiled per-block step: the selection pushed below the
/// gathers, zero or more [`GatherJoin`]s, then the [`BlockFold`]. The
/// exact executor runs it on every block of every morsel; the sampled
/// paths in `aqp-core` run it on each sampled block, so where a predicate
/// runs, which columns a join gathers and how names resolve are decided
/// here, once, for both.
pub struct AggStep {
    gathers: Gathers,
    fold: BlockFold,
}

impl AggStep {
    /// Compiles the step of an `Aggregate` plan, over blocks of its
    /// input's source (the fact table of a star plan), on the typed
    /// kernels wherever the shape allows. A dimension joined on a bare
    /// column uses the index its table caches, built here if no earlier
    /// query has.
    pub fn compile(plan: &LogicalPlan, catalog: &Catalog) -> Result<AggStep, EngineError> {
        let LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } = plan
        else {
            return Err(EngineError::InvalidPlan {
                detail: "an aggregate step compiles from an Aggregate plan".to_string(),
            });
        };
        let opts = ExecOptions {
            threads: 1,
            zone_pruning: false,
            kernels: true,
            agg_hint: None,
        };
        let mut stats = ExecStats::default();
        let chain = Chain::of(input);
        let (step, _) = compile_step(&chain, group_by, aggregates, catalog, &mut stats, &opts)?;
        Ok(step)
    }

    /// The gather joins, in join order.
    pub fn joins(&self) -> &[GatherJoin] {
        &self.gathers.joins
    }

    /// The compiled block fold (typed kernel or scalar path).
    pub fn fold(&self) -> &BlockFold {
        &self.fold
    }

    /// Schema of the blocks the fold consumes.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.gathers.schema
    }

    /// Runs the step on one source block, folding the rows that pass
    /// every predicate into `acc` in row order; returns how many did.
    /// `evaluate: false` skips the predicates on the source — for blocks
    /// a zone map proved all-true.
    pub fn fold_block(
        &self,
        block: &Block,
        evaluate: bool,
        acc: &mut FoldAcc,
    ) -> Result<u64, EngineError> {
        let Some(input) = self.gathers.run(block, evaluate)? else {
            return Ok(0);
        };
        // Without a join the fold's predicates are the source's own.
        let apply = evaluate || !self.gathers.joins.is_empty();
        self.fold.fold(&input, acc, apply)
    }
}

/// Compiles an aggregate's step over `chain`; also returns the predicates
/// run on source blocks, for zone-map classification.
fn compile_step<'a>(
    chain: &Chain<'a>,
    group_by: &[(Expr, String)],
    aggregates: &[AggExpr],
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<(AggStep, Vec<&'a Expr>), EngineError> {
    let above: Vec<&Expr> = (group_by.iter().map(|(e, _)| e))
        .chain(aggregates.iter().map(|a| &a.expr))
        .collect();
    let (mut gathers, below, mut post) = chain.compile(Some(&above), catalog, stats, opts)?;
    if gathers.joins.is_empty() {
        // Without a join the source's filters stay inside the fold: the
        // kernel's fused mask, skipped on blocks a zone map proved true.
        gathers.selection = Selection::All;
        post.clone_from(&below);
    }
    let fold = BlockFold::new(&post, group_by, aggregates, &gathers.schema, opts.kernels);
    Ok((AggStep { gathers, fold }, below))
}

/// Projection expressions with their output schema.
type Projection<'a> = (&'a [(Expr, String)], Arc<Schema>);

/// Runs a chain no aggregate consumes — a filtered scan, a filter over any
/// other input, joins with the filters around them — then `project` (with
/// its output schema), one morsel and at most one output block per source
/// block, in source order. Filters naming a build-side column run on the
/// joined block.
fn exec_chain(
    chain: &Chain<'_>,
    project: Option<Projection<'_>>,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let joins = !chain.joins.is_empty();
    // Without a join the caller's operator span covers the chain.
    let mut span = joins.then(|| aqp_obs::span("op:join"));
    let (gathers, below, post) = chain.compile(None, catalog, stats, opts)?;
    let post = Selection::new(&post, &gathers.schema, opts.kernels);
    let blocks = chain.source_blocks(&below, catalog, stats, opts)?;
    let rows: u64 = blocks.iter().map(|(b, _)| b.len() as u64).sum();
    let threads = morsel_threads(opts, blocks.len(), rows);
    let morsel_name = match (joins, chain.table, &project) {
        (true, ..) => "join:probe",
        (false, Some(_), _) => "morsel:scan",
        (false, None, Some(_)) => "morsel:project",
        (false, None, None) => "morsel:filter",
    };
    // Morsel spans run on pool worker threads, so they parent under the
    // operator span through an explicit context rather than the worker's
    // (empty) thread-local current span.
    let op_ctx = aqp_obs::current_ctx();
    let (gathers_ref, post, scanned) = (&gathers, &post, chain.table.is_some());
    let (results, scan_stats) = pool::parallel_map_with_stats(
        blocks,
        threads,
        |_, (block, verdict), s| -> Result<Option<Arc<Block>>, EngineError> {
            if !scan_block(scanned, &block, verdict, s) {
                return Ok(None);
            }
            let mut morsel = aqp_obs::child_span(morsel_name, &op_ctx);
            let evaluate = verdict == ScanVerdict::Evaluate;
            let Some(rows) = gathers_ref.run(&block, evaluate)? else {
                return Ok(None);
            };
            let Some(rows) = post.apply(rows)? else {
                return Ok(None);
            };
            let mut cur = match rows {
                Cow::Owned(rows) => Arc::new(rows),
                Cow::Borrowed(_) => block,
            };
            if let Some((exprs, schema)) = &project {
                let columns: Vec<Column> = exprs
                    .iter()
                    .map(|(e, _)| eval(e, &cur))
                    .collect::<Result<_, _>>()?;
                cur = Arc::new(Block::from_columns(Arc::clone(schema), columns));
            }
            morsel.set_rows(cur.len() as u64);
            Ok((!cur.is_empty()).then_some(cur))
        },
    );
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    record_scan(&scan_stats, stats);
    if let Some(span) = span.as_mut().filter(|s| s.is_recording()) {
        span.set_rows(out.iter().map(|b| b.len() as u64).sum());
        span.set_detail(chain.join_detail(&gathers, below.len(), scan_stats.blocks_pruned));
    }
    Ok(out)
}

/// Runs an `Aggregate`: its input's chain compiled to one [`AggStep`],
/// run over morsels of `AGG_MORSEL_BLOCKS` source blocks, each folded into
/// a partial, the partials merged along [`tree_merge`]. Morsel boundaries
/// come from the source's full block list — pruned blocks keep their
/// slots and are skipped inside the morsel — so the merge tree, and the
/// result, is the same at every thread count and with kernels and pruning
/// on or off.
fn exec_aggregate(
    input: &LogicalPlan,
    group_by: &[(Expr, String)],
    aggregates: &[AggExpr],
    out_schema: &Arc<Schema>,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let chain = Chain::of(input);
    // A join, or a base table read in place, gets its own operator span
    // under `op:aggregate`, so traces show the shape the plan describes;
    // any other source opens its own spans as it executes.
    let mut source_span = match (chain.joins.is_empty(), chain.table) {
        (false, _) => Some(aqp_obs::span("op:join")),
        (true, Some(_)) => Some(aqp_obs::span("op:fused-scan")),
        (true, None) => None,
    };
    let (step, below) = compile_step(&chain, group_by, aggregates, catalog, stats, opts)?;
    record_dispatch(step.fold.is_kernel());
    let blocks = chain.source_blocks(&below, catalog, stats, opts)?;
    let rows: u64 = blocks.iter().map(|(b, _)| b.len() as u64).sum();
    let morsels: Vec<Vec<(Arc<Block>, ScanVerdict)>> = blocks
        .chunks(AGG_MORSEL_BLOCKS)
        .map(|c| c.to_vec())
        .collect();
    let threads = morsel_threads(opts, morsels.len(), rows);
    let op_ctx = aqp_obs::current_ctx();
    let (step_ref, scanned) = (&step, chain.table.is_some());
    let (partials, scan_stats) = pool::parallel_map_with_stats(
        morsels,
        threads,
        |_, morsel, s| -> Result<(FoldAcc, u64), EngineError> {
            let mut span = aqp_obs::child_span("agg:partial", &op_ctx);
            let mut acc = step_ref.fold.new_acc(opts.agg_hint);
            let mut folded = 0u64;
            for (block, verdict) in &morsel {
                if scan_block(scanned, block, *verdict, s) {
                    let evaluate = *verdict == ScanVerdict::Evaluate;
                    folded += step_ref.fold_block(block, evaluate, &mut acc)?;
                }
            }
            span.set_rows(folded);
            Ok((acc, folded))
        },
    );
    let mut accs = Vec::with_capacity(partials.len());
    let mut folded = 0u64;
    for partial in partials {
        let (acc, rows) = partial?;
        accs.push(acc);
        folded += rows;
    }
    record_scan(&scan_stats, stats);
    if let Some(span) = source_span.as_mut().filter(|s| s.is_recording()) {
        let pruned = scan_stats.blocks_pruned;
        if chain.joins.is_empty() {
            let path = if step.fold.is_kernel() {
                "kernel"
            } else {
                "scalar"
            };
            let table = chain.table.unwrap_or("-");
            span.set_rows(scan_stats.rows_scanned);
            span.set_detail(format!("{table} [{path}, {pruned} blocks pruned]"));
        } else {
            let detail = chain.join_detail(&step.gathers, below.len(), pruned);
            span.set_rows(folded);
            span.set_detail(format!("{detail} -> fold {}", step.fold.tag()));
        }
    }
    drop(source_span);
    let mut merge_span = aqp_obs::span("agg:merge");
    let acc = tree_merge(accs).unwrap_or_else(|| step.fold.new_acc(None));
    let entries = acc.into_groups();
    merge_span.set_rows(entries.len() as u64);
    merge_span.finish();
    emit_groups(entries, group_by.is_empty(), aggregates, out_schema)
}

/// Packs aggregated groups into output blocks in deterministic order
/// (groups sorted by key).
fn emit_groups(
    mut entries: Vec<(GroupKey, Vec<AggState>)>,
    global: bool,
    aggregates: &[crate::agg::AggExpr],
    schema: &Arc<Schema>,
) -> Result<Vec<Arc<Block>>, EngineError> {
    // SQL: a global aggregate over zero rows still yields one row.
    if entries.is_empty() && global {
        entries.push((
            Vec::new(),
            aggregates.iter().map(|a| AggState::new(a.func)).collect(),
        ));
    }
    entries.sort_by(|a, b| cmp_keys(&a.0, &b.0));

    let mut out = Vec::new();
    let mut current = Block::with_capacity(Arc::clone(schema), OUTPUT_BLOCK_ROWS);
    let mut row: Vec<Value> = Vec::with_capacity(schema.len());
    for (key, states) in entries {
        row.clear();
        row.extend(key.iter().map(KeyAtom::to_value));
        row.extend(states.iter().map(AggState::finish));
        current.push_row(&row).map_err(EngineError::Storage)?;
        if current.len() == OUTPUT_BLOCK_ROWS {
            out.push(Arc::new(std::mem::replace(
                &mut current,
                Block::with_capacity(Arc::clone(schema), OUTPUT_BLOCK_ROWS),
            )));
        }
    }
    if !current.is_empty() {
        out.push(Arc::new(current));
    }
    Ok(out)
}

/// Total order over composite keys for deterministic group output:
/// NULL < Bool < Int/Float < Str, then by value.
fn cmp_keys(a: &[KeyAtom], b: &[KeyAtom]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (x, y) in a.iter().zip(b) {
        let ord = cmp_atom(x, y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn atom_rank(a: &KeyAtom) -> u8 {
    match a {
        KeyAtom::Null => 0,
        KeyAtom::Bool(_) => 1,
        KeyAtom::Int(_) | KeyAtom::FloatBits(_) => 2,
        KeyAtom::Str(_) => 3,
    }
}

fn atom_num(a: &KeyAtom) -> f64 {
    match a {
        KeyAtom::Int(i) => *i as f64,
        KeyAtom::FloatBits(b) => f64::from_bits(*b),
        _ => 0.0,
    }
}

fn cmp_atom(a: &KeyAtom, b: &KeyAtom) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (ra, rb) = (atom_rank(a), atom_rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (KeyAtom::Null, KeyAtom::Null) => Ordering::Equal,
        (KeyAtom::Bool(x), KeyAtom::Bool(y)) => x.cmp(y),
        (KeyAtom::Str(x), KeyAtom::Str(y)) => x.as_ref().cmp(y.as_ref()),
        // Exact on integers: `f64` would tie distinct keys beyond 2^53.
        (KeyAtom::Int(x), KeyAtom::Int(y)) => x.cmp(y),
        _ => atom_num(a)
            .partial_cmp(&atom_num(b))
            .unwrap_or(Ordering::Equal),
    }
}

/// Sorts all rows by the given keys (NULLs last within each key).
fn sort_batches(
    batches: &[Arc<Block>],
    keys: &[SortKey],
    schema: &Arc<Schema>,
) -> Result<Vec<Arc<Block>>, EngineError> {
    // Concatenate into one block for a global sort.
    let total: usize = batches.iter().map(|b| b.len()).sum();
    let mut columns: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::with_capacity(f.data_type, total))
        .collect();
    for b in batches {
        for (dst, src) in columns.iter_mut().zip(b.columns()) {
            dst.append(src);
        }
    }
    let block = Block::from_columns(Arc::clone(schema), columns);
    let key_indices: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| Ok((schema.index_of(&k.column)?, k.desc)))
        .collect::<Result<_, aqp_storage::StorageError>>()?;
    let mut order: Vec<usize> = (0..block.len()).collect();
    order.sort_by(|&i, &j| {
        for &(ci, desc) in &key_indices {
            let col = block.column(ci);
            let (a, b) = (col.get(i), col.get(j));
            let ord = match (a.is_null(), b.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater, // NULLs last
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => a.sql_cmp(&b).unwrap_or(std::cmp::Ordering::Equal),
            };
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(vec![Arc::new(block.take(&order))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::plan::Query;
    use aqp_expr::{col, lit};
    use aqp_storage::{DataType, Field, TableBuilder};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
            Field::new("tag", DataType::Str),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 4);
        for i in 0..10i64 {
            b.push_row(&[
                Value::Int64(i),
                Value::Float64(i as f64),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
            ])
            .unwrap();
        }
        c.register(b.finish()).unwrap();

        let schema2 = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("w", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("u", schema2, 4);
        for i in 0..5i64 {
            b.push_row(&[Value::Int64(i), Value::Float64(i as f64 * 10.0)])
                .unwrap();
        }
        c.register(b.finish()).unwrap();
        c
    }

    #[test]
    fn scan_counts_stats() {
        let c = catalog();
        let r = execute(&Query::scan("t").build(), &c).unwrap();
        assert_eq!(r.num_rows(), 10);
        assert_eq!(r.stats().blocks_scanned, 3); // 4+4+2
        assert_eq!(r.stats().rows_scanned, 10);
        assert_eq!(r.stats().rows_output, 10);
    }

    #[test]
    fn filter_drops_rows() {
        let c = catalog();
        let r = execute(
            &Query::scan("t").filter(col("v").gt_eq(lit(5.0))).build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.num_rows(), 5);
        assert_eq!(r.column_f64("v").unwrap(), vec![5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn project_computes() {
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .project(vec![(col("v").mul(lit(2.0)), "v2".to_string())])
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.column_f64("v2").unwrap()[3], 6.0);
    }

    #[test]
    fn join_inner_equi() {
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .join(Query::scan("u"), col("id"), col("id"))
                .build(),
            &c,
        )
        .unwrap();
        // ids 0..5 match.
        assert_eq!(r.num_rows(), 5);
        let w: f64 = r.column_f64("w").unwrap().iter().sum();
        assert_eq!(w, 100.0); // 0+10+20+30+40
    }

    #[test]
    fn join_skips_null_keys() {
        let c = Catalog::new();
        let schema = Schema::new(vec![Field::nullable("k", DataType::Int64)]);
        let mut b = TableBuilder::new("n", schema);
        b.push_row(&[Value::Null]).unwrap();
        b.push_row(&[Value::Int64(1)]).unwrap();
        c.register(b.finish()).unwrap();
        let r = execute(
            &Query::scan("n")
                .join(Query::scan("n"), col("k"), col("k"))
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.num_rows(), 1); // only 1⋈1; NULL never joins
    }

    #[test]
    fn global_aggregate() {
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .aggregate(
                    vec![],
                    vec![
                        AggExpr::count_star("n"),
                        AggExpr::sum(col("v"), "s"),
                        AggExpr::avg(col("v"), "a"),
                        AggExpr::min(col("id"), "mn"),
                        AggExpr::max(col("id"), "mx"),
                    ],
                )
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.num_rows(), 1);
        let row = r.row(0);
        assert_eq!(row[0], Value::Int64(10));
        assert_eq!(row[1], Value::Float64(45.0));
        assert_eq!(row[2], Value::Float64(4.5));
        assert_eq!(row[3], Value::Int64(0));
        assert_eq!(row[4], Value::Int64(9));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .filter(col("v").gt(lit(1e9)))
                .aggregate(
                    vec![],
                    vec![AggExpr::count_star("n"), AggExpr::sum(col("v"), "s")],
                )
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.row(0)[0], Value::Int64(0));
        assert_eq!(r.row(0)[1], Value::Null);
    }

    #[test]
    fn group_by_deterministic_order() {
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .aggregate(
                    vec![(col("tag"), "tag".to_string())],
                    vec![AggExpr::count_star("n"), AggExpr::sum(col("v"), "s")],
                )
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.num_rows(), 2);
        // Sorted by key: "even" < "odd".
        assert_eq!(r.row(0)[0], Value::str("even"));
        assert_eq!(r.row(0)[1], Value::Int64(5));
        assert_eq!(r.row(0)[2], Value::Float64(20.0));
        assert_eq!(r.row(1)[0], Value::str("odd"));
        assert_eq!(r.row(1)[2], Value::Float64(25.0));
    }

    #[test]
    fn group_by_expression() {
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .aggregate(
                    vec![(col("id").modulo(lit(3i64)), "m".to_string())],
                    vec![AggExpr::count_star("n")],
                )
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.row(0)[0], Value::Int64(0)); // 0,3,6,9
        assert_eq!(r.row(0)[1], Value::Int64(4));
    }

    #[test]
    fn sort_asc_desc_nulls_last() {
        let c = Catalog::new();
        let schema = Schema::new(vec![Field::nullable("x", DataType::Int64)]);
        let mut b = TableBuilder::new("s", schema);
        for v in [
            Value::Int64(2),
            Value::Null,
            Value::Int64(1),
            Value::Int64(3),
        ] {
            b.push_row(&[v]).unwrap();
        }
        c.register(b.finish()).unwrap();
        let r = execute(&Query::scan("s").sort(vec![SortKey::asc("x")]).build(), &c).unwrap();
        assert_eq!(
            r.column_values("x").unwrap(),
            vec![
                Value::Int64(1),
                Value::Int64(2),
                Value::Int64(3),
                Value::Null
            ]
        );
        let r = execute(&Query::scan("s").sort(vec![SortKey::desc("x")]).build(), &c).unwrap();
        assert_eq!(r.column_values("x").unwrap()[0], Value::Null); // reversed: NULLs first under desc
    }

    #[test]
    fn limit_truncates() {
        let c = catalog();
        let r = execute(&Query::scan("t").limit(3).build(), &c).unwrap();
        assert_eq!(r.num_rows(), 3);
        let r = execute(&Query::scan("t").limit(100).build(), &c).unwrap();
        assert_eq!(r.num_rows(), 10);
        let r = execute(&Query::scan("t").limit(0).build(), &c).unwrap();
        assert_eq!(r.num_rows(), 0);
    }

    #[test]
    fn union_all_concatenates() {
        let c = catalog();
        let r = execute(&Query::scan("t").union_all(Query::scan("t")).build(), &c).unwrap();
        assert_eq!(r.num_rows(), 20);
        assert_eq!(r.stats().rows_scanned, 20);
    }

    #[test]
    fn count_distinct_through_engine() {
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .aggregate(vec![], vec![AggExpr::count_distinct(col("tag"), "d")])
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.scalar(), Value::Int64(2));
    }

    #[test]
    fn composite_pipeline() {
        // filter → join → group-by → sort → limit
        let c = catalog();
        let r = execute(
            &Query::scan("t")
                .filter(col("id").lt(lit(8i64)))
                .join(Query::scan("u"), col("id"), col("id"))
                .aggregate(
                    vec![(col("tag"), "tag".to_string())],
                    vec![AggExpr::sum(col("w"), "sw")],
                )
                .sort(vec![SortKey::desc("sw")])
                .limit(1)
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(r.num_rows(), 1);
        // even ids 0,2,4 → w 0+20+40 = 60; odd 1,3 → 10+30 = 40.
        assert_eq!(r.row(0)[0], Value::str("even"));
        assert_eq!(r.row(0)[1], Value::Float64(60.0));
    }
}

#[cfg(test)]
mod parallel_filter_tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::plan::Query;
    use aqp_expr::{col, lit};
    use aqp_storage::{DataType, Field, Schema, TableBuilder};

    /// A table big enough to trip the parallel path (many small blocks).
    fn wide_catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("w", schema, 64);
        for i in 0..20_000i64 {
            b.push_row(&[Value::Int64(i), Value::Float64((i % 100) as f64)])
                .unwrap();
        }
        c.register(b.finish()).unwrap();
        c
    }

    #[test]
    fn parallel_filter_matches_serial_semantics() {
        let c = wide_catalog();
        // > 64 blocks, so the parallel path runs; verify exact results.
        let r = execute(
            &Query::scan("w")
                .filter(col("v").lt(lit(10.0)))
                .aggregate(
                    vec![],
                    vec![AggExpr::count_star("n"), AggExpr::sum(col("id"), "s")],
                )
                .build(),
            &c,
        )
        .unwrap();
        // v < 10 ⇔ id % 100 < 10: exactly 2000 rows.
        assert_eq!(r.rows()[0][0], Value::Int64(2000));
        let expected: i64 = (0..20_000).filter(|i| i % 100 < 10).sum();
        assert_eq!(r.rows()[0][1], Value::Float64(expected as f64));
    }

    #[test]
    fn parallel_filter_preserves_order() {
        let c = wide_catalog();
        let r = execute(&Query::scan("w").filter(col("v").eq(lit(7.0))).build(), &c).unwrap();
        let ids = r.column_f64("id").unwrap();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "output order scrambled"
        );
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn parallel_filter_propagates_errors() {
        let c = wide_catalog();
        // Predicate referencing a missing column must error, not panic.
        let r = execute(
            &Query::scan("w").filter(col("nope").gt(lit(0i64))).build(),
            &c,
        );
        assert!(r.is_err());
    }

    #[test]
    fn empty_result_from_parallel_filter() {
        let c = wide_catalog();
        let r = execute(&Query::scan("w").filter(col("v").gt(lit(1e9))).build(), &c).unwrap();
        assert_eq!(r.num_rows(), 0);
    }
}

#[cfg(test)]
mod morsel_parallel_tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::plan::Query;
    use aqp_expr::{col, lit};
    use aqp_storage::{DataType, Field, Schema, TableBuilder};

    /// Fact + dimension tables with enough blocks to exercise the pool.
    fn catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("fact", schema, 64);
        for i in 0..12_000i64 {
            b.push_row(&[
                Value::Int64(i),
                Value::Int64(i % 37),
                Value::Float64((i % 251) as f64),
            ])
            .unwrap();
        }
        c.register(b.finish()).unwrap();

        let dim_schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("name", DataType::Str),
        ]);
        let mut b = TableBuilder::with_block_capacity("dim", dim_schema, 8);
        for k in 0..37i64 {
            b.push_row(&[Value::Int64(k), Value::str(format!("g{:02}", k % 5))])
                .unwrap();
        }
        c.register(b.finish()).unwrap();
        c
    }

    fn pipeline_plan() -> LogicalPlan {
        Query::scan("fact")
            .filter(col("v").lt(lit(200.0)))
            .join(Query::scan("dim"), col("k"), col("k"))
            .aggregate(
                vec![(col("name"), "name".to_string())],
                vec![
                    AggExpr::count_star("n"),
                    AggExpr::sum(col("v"), "s"),
                    AggExpr::avg(col("v"), "a"),
                    AggExpr::min(col("id"), "mn"),
                    AggExpr::max(col("id"), "mx"),
                    AggExpr::count_distinct(col("k"), "d"),
                ],
            )
            .build()
    }

    #[test]
    fn thread_counts_agree_on_composite_pipeline() {
        let c = catalog();
        let serial = execute_with(&pipeline_plan(), &c, ExecOptions::serial()).unwrap();
        for threads in [2, 4, 8] {
            let parallel =
                execute_with(&pipeline_plan(), &c, ExecOptions::with_threads(threads)).unwrap();
            assert_eq!(parallel.schema(), serial.schema());
            assert_eq!(parallel.rows(), serial.rows(), "threads={threads}");
            assert_eq!(parallel.stats(), serial.stats(), "threads={threads}");
        }
    }

    #[test]
    fn fused_pipeline_counts_scan_stats() {
        let c = catalog();
        let plan = Query::scan("fact")
            .filter(col("v").lt(lit(100.0)))
            .project(vec![(col("v").mul(lit(2.0)), "v2".to_string())])
            .build();
        let serial = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
        let parallel = execute_with(&plan, &c, ExecOptions::with_threads(4)).unwrap();
        // Every base block is either scanned or zone-pruned exactly once,
        // in both modes. v = i % 251 with 64-row blocks, so plenty of
        // blocks sit entirely in [100, 250] and prune against v < 100.
        let s = serial.stats();
        assert_eq!(s.blocks_scanned + s.blocks_pruned, 188); // ceil(12000/64)
        assert!(s.blocks_pruned > 0, "zone maps should prune some blocks");
        assert_eq!(parallel.stats(), s);
        assert_eq!(parallel.rows(), serial.rows());
        // With pruning off, every block is scanned.
        let unpruned =
            execute_with(&plan, &c, ExecOptions::serial().with_zone_pruning(false)).unwrap();
        assert_eq!(unpruned.stats().blocks_scanned, 188);
        assert_eq!(unpruned.stats().blocks_pruned, 0);
        assert_eq!(unpruned.rows(), serial.rows());
    }

    #[test]
    fn fuse_recognizes_chains() {
        let scan_only = Query::scan("fact").build();
        assert_eq!(node_span_name(&scan_only), "op:scan");
        let filtered = Query::scan("fact").filter(col("v").lt(lit(1.0))).build();
        assert_eq!(node_table(&filtered), Some("fact"));
        assert_eq!(node_span_name(&filtered), "op:fused-scan");
        let chain = Query::scan("fact")
            .filter(col("v").lt(lit(1.0)))
            .filter(col("id").gt(lit(0i64)))
            .project(vec![(col("id"), "id".to_string())])
            .build();
        assert_eq!(node_span_name(&chain), "op:fused-scan");
        let LogicalPlan::Project { input, .. } = &chain else {
            panic!("a projection");
        };
        assert_eq!(Chain::of(input).predicates.len(), 2);
        let joined = Query::scan("fact")
            .join(Query::scan("dim"), col("k"), col("k"))
            .filter(col("v").lt(lit(1.0)))
            .build();
        assert_eq!(node_table(&joined), None);
        let c = Chain::of(&joined);
        assert_eq!(
            (c.table, c.joins.len(), c.filters.len()),
            (Some("fact"), 1, 1)
        );
    }

    #[test]
    fn join_blocking_identical_across_threads() {
        let c = catalog();
        let plan = Query::scan("fact")
            .join(Query::scan("dim"), col("k"), col("k"))
            .build();
        let serial = execute_with(&plan, &c, ExecOptions::serial()).unwrap();
        let parallel = execute_with(&plan, &c, ExecOptions::with_threads(4)).unwrap();
        // Same rows, same blocking: one output block per probe block.
        let serial_sizes: Vec<usize> = serial.batches().iter().map(|b| b.len()).collect();
        let parallel_sizes: Vec<usize> = parallel.batches().iter().map(|b| b.len()).collect();
        assert_eq!(parallel_sizes, serial_sizes);
        assert_eq!(parallel.rows(), serial.rows());
    }

    #[test]
    fn parallel_error_propagation_from_fused_chain() {
        let c = catalog();
        let plan = Query::scan("fact")
            .filter(col("missing").gt(lit(0i64)))
            .build();
        assert!(execute_with(&plan, &c, ExecOptions::with_threads(4)).is_err());
    }
}
