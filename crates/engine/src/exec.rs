//! Morsel-driven block-at-a-time physical execution.
//!
//! Leaf scans are split into per-block *morsels* dispatched to a scoped
//! worker pool ([`crate::pool`]). `Scan→Filter→Project` chains run fused:
//! one worker carries a morsel through the whole chain without
//! materializing intermediates. A join is a [`GatherJoin`] per probe
//! morsel against the build side's key index — the one a catalog table
//! caches, so a dimension is indexed once per table, not once per query —
//! with the filters above it that name only probe-side columns run
//! *before* the probe (and handed to zone-map pruning), and only the
//! columns the operators above it reference gathered. Under an
//! `Aggregate` the joined morsel goes straight into the [`BlockFold`]: no
//! join output is materialized. Aggregation runs in two phases —
//! per-morsel partial [`AggState`]s, then a merge pass folding partials
//! *in morsel order*.
//!
//! That fixed fold order is the determinism guarantee: the reduction tree
//! depends only on data layout, never on scheduling, so a given plan
//! produces identical results at every thread count. `threads == 1`
//! (see [`ExecOptions`]) bypasses the pool entirely and runs the same
//! morsels on the calling thread.

use std::collections::HashSet;
use std::sync::Arc;

use aqp_expr::eval::{eval, eval_predicate_mask};
use aqp_expr::{prune_predicate, Expr, PruneVerdict};
use aqp_storage::{Block, Catalog, Column, Schema, Table, Value};

use crate::agg::{AggState, GroupKey, KeyAtom};
use crate::error::EngineError;
use crate::fold::{record_dispatch, tree_merge, BlockFold, FoldAcc};
use crate::join::GatherJoin;
use crate::kernel::PredKernel;
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
    if fuse(plan).is_some() {
        return "op:fused-scan";
    }
    match plan {
        LogicalPlan::Scan { .. } => "op:scan",
        LogicalPlan::Filter { .. } => "op:filter",
        LogicalPlan::Project { .. } => "op:project",
        LogicalPlan::Join { .. } => "op:join",
        LogicalPlan::Aggregate { .. } => "op:aggregate",
        LogicalPlan::Sort { .. } => "op:sort",
        LogicalPlan::Limit { .. } => "op:limit",
        LogicalPlan::UnionAll { .. } => "op:union-all",
    }
}

fn node_table(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { table } => Some(table),
        _ => fuse(plan).map(|f| f.table),
    }
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
    // A join and the filters above it are one operator, which opens its
    // own `op:join` span (its detail comes from the compiled join).
    if let Some(join) = peel_join(plan) {
        return exec_join(&join, catalog, stats, opts);
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

/// What a block's zone map says about a fused chain's predicate set.
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

/// Feeds one scan's block accounting into the always-on prune-rate
/// counters (`pruned / (pruned + scanned)` is the prune rate).
fn record_scan_counters(scan_stats: &ExecStats) {
    let m = aqp_obs::metrics::global();
    if scan_stats.blocks_pruned > 0 {
        m.counter(aqp_obs::names::BLOCKS_PRUNED_TOTAL)
            .inc(scan_stats.blocks_pruned);
    }
    if scan_stats.blocks_scanned > 0 {
        m.counter(aqp_obs::names::BLOCKS_SCANNED_TOTAL)
            .inc(scan_stats.blocks_scanned);
    }
}

fn exec_node_inner(
    plan: &LogicalPlan,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    if let Some(fused) = fuse(plan) {
        let out_schema = plan.schema(catalog)?;
        return exec_fused(&fused, &out_schema, catalog, stats, opts);
    }
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
        LogicalPlan::Filter { input, predicate } => {
            let batches = exec_node(input, catalog, stats, opts)?;
            let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
            let threads = morsel_threads(opts, batches.len(), rows);
            filter_batches(batches, predicate, threads)
        }
        LogicalPlan::Project { input, exprs } => {
            let batches = exec_node(input, catalog, stats, opts)?;
            let schema = plan.schema(catalog)?;
            let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
            let threads = morsel_threads(opts, batches.len(), rows);
            project_batches(batches, exprs, &schema, threads)
        }
        LogicalPlan::Join { .. } => unreachable!("exec_node runs every join through exec_join"),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let schema = plan.schema(catalog)?;
            if let Some(out) =
                exec_fused_agg(input, group_by, aggregates, &schema, catalog, stats, opts)?
            {
                return Ok(out);
            }
            if let Some(join) = peel_join(input) {
                return exec_join_agg(&join, group_by, aggregates, &schema, catalog, stats, opts);
            }
            record_dispatch(false);
            let batches = exec_node(input, catalog, stats, opts)?;
            let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
            let threads = morsel_threads(opts, batches.len().div_ceil(AGG_MORSEL_BLOCKS), rows);
            hash_aggregate(&batches, group_by, aggregates, &schema, threads)
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

/// A `Scan→Filter…→Project` chain runnable as one fused per-morsel
/// pipeline: each worker scans a block, applies the predicates in order,
/// and projects, with no cross-operator materialization.
struct FusedScan<'a> {
    table: &'a str,
    /// Predicates in application (innermost-first) order.
    predicates: Vec<&'a Expr>,
    project: Option<&'a [(Expr, String)]>,
}

/// Recognizes a fusable chain: optional `Project` over zero or more
/// `Filter`s over a `Scan`, with at least one non-scan operator.
fn fuse(plan: &LogicalPlan) -> Option<FusedScan<'_>> {
    let (project, mut node) = match plan {
        LogicalPlan::Project { input, exprs } => (Some(exprs.as_slice()), input.as_ref()),
        _ => (None, plan),
    };
    let mut predicates = Vec::new();
    loop {
        match node {
            LogicalPlan::Filter { input, predicate } => {
                predicates.push(predicate);
                node = input.as_ref();
            }
            LogicalPlan::Scan { table } if project.is_some() || !predicates.is_empty() => {
                predicates.reverse();
                return Some(FusedScan {
                    table,
                    predicates,
                    project,
                });
            }
            _ => return None,
        }
    }
}

/// A base table read in place — a bare scan or a project-free fused chain
/// — as its name and predicates (innermost first): what an operator that
/// classifies and folds the table's blocks itself can take as input.
fn scan_chain(plan: &LogicalPlan) -> Option<(&str, Vec<&Expr>)> {
    match plan {
        LogicalPlan::Scan { table } => Some((table.as_str(), Vec::new())),
        other => match fuse(other) {
            Some(FusedScan {
                table,
                predicates,
                project: None,
            }) => Some((table, predicates)),
            _ => None,
        },
    }
}

/// Runs a fused chain: one morsel per base-table block, scan accounting
/// accumulated per worker and merged.
fn exec_fused(
    fused: &FusedScan<'_>,
    out_schema: &Arc<Schema>,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let t = catalog.get(fused.table)?;
    let blocks = classify_blocks(&t, &fused.predicates, opts.zone_pruning);
    // Predicates compile to a typed selection-mask kernel when every
    // shape is modeled; otherwise the scalar mask path runs unchanged.
    let pred_kernel = if opts.kernels && !fused.predicates.is_empty() {
        PredKernel::compile(&fused.predicates, t.schema())
    } else {
        None
    };
    if !fused.predicates.is_empty() {
        record_dispatch(pred_kernel.is_some());
    }
    let rows: u64 = blocks.iter().map(|(b, _)| b.len() as u64).sum();
    let threads = morsel_threads(opts, blocks.len(), rows);
    // Pair the projection exprs with the output schema up front so the
    // morsel closure never has to re-derive that they exist together.
    let projection = fused.project.map(|exprs| (exprs, Arc::clone(out_schema)));
    // Morsel spans run on pool worker threads, so they parent under the
    // operator span through an explicit context rather than the worker's
    // (empty) thread-local current span.
    let op_ctx = aqp_obs::current_ctx();
    let pred_kernel = pred_kernel.as_ref();
    let (results, scan_stats) = pool::parallel_map_with_stats(
        blocks,
        threads,
        |_, (block, verdict), s| -> Result<Option<Arc<Block>>, EngineError> {
            if verdict == ScanVerdict::Pruned {
                s.blocks_pruned += 1;
                return Ok(None);
            }
            let mut morsel = aqp_obs::child_span("morsel:scan", &op_ctx);
            s.blocks_scanned += 1;
            s.rows_scanned += block.len() as u64;
            let mut cur = block;
            if verdict == ScanVerdict::Evaluate {
                if let Some(kernel) = pred_kernel {
                    // One fused mask for the whole chain: rows where any
                    // predicate is FALSE or NULL drop, exactly as under
                    // one-predicate-at-a-time filtering.
                    let mask = kernel.selection_mask(&cur);
                    if mask.iter().all(|&keep| keep) {
                        // Block passes whole: keep the shared reference.
                    } else if mask.iter().any(|&keep| keep) {
                        cur = Arc::new(cur.filter(&mask));
                    } else {
                        return Ok(None);
                    }
                } else {
                    for pred in &fused.predicates {
                        let mask = eval_predicate_mask(pred, &cur)?;
                        if mask.iter().all(|&keep| keep) {
                            // Block passes whole: keep the shared reference.
                        } else if mask.iter().any(|&keep| keep) {
                            cur = Arc::new(cur.filter(&mask));
                        } else {
                            return Ok(None);
                        }
                    }
                }
            }
            if let Some((exprs, schema)) = &projection {
                let columns: Vec<Column> = exprs
                    .iter()
                    .map(|(e, _)| eval(e, &cur))
                    .collect::<Result<_, _>>()?;
                cur = Arc::new(Block::from_columns(Arc::clone(schema), columns));
            }
            morsel.set_rows(cur.len() as u64);
            Ok(Some(cur))
        },
    );
    *stats = stats.merge(&scan_stats);
    record_scan_counters(&scan_stats);
    let mut out = Vec::new();
    for r in results {
        if let Some(block) = r? {
            out.push(block);
        }
    }
    Ok(out)
}

/// Tries the fused filter→aggregate kernel path: the aggregation's input
/// is a bare scan or a project-free fused chain, and every predicate,
/// group key, and aggregate argument compiles to a typed kernel. Returns
/// `Ok(None)` to send the plan down the scalar path.
///
/// The kernel path always computes per-morsel partials and folds them
/// along the fixed pairwise [`tree_merge`] — even at `threads == 1` — so
/// a given plan's result is bit-for-bit identical at every thread count.
fn exec_fused_agg(
    input: &LogicalPlan,
    group_by: &[(Expr, String)],
    aggregates: &[crate::agg::AggExpr],
    out_schema: &Arc<Schema>,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Option<Vec<Arc<Block>>>, EngineError> {
    if !opts.kernels {
        return Ok(None);
    }
    let Some((table, predicates)) = scan_chain(input) else {
        return Ok(None);
    };
    let t = catalog.get(table)?;
    let Some(fold) = BlockFold::kernel(&predicates, group_by, aggregates, t.schema()) else {
        return Ok(None);
    };
    record_dispatch(true);
    let blocks = classify_blocks(&t, &predicates, opts.zone_pruning);
    let rows: u64 = blocks.iter().map(|(b, _)| b.len() as u64).sum();
    // Morsel boundaries come from the full block list (pruned blocks keep
    // their slots and are skipped inside the morsel), so the partial
    // tree — and hence the result — is identical with pruning on or off.
    let morsels: Vec<Vec<(Arc<Block>, ScanVerdict)>> = blocks
        .chunks(AGG_MORSEL_BLOCKS)
        .map(|c| c.to_vec())
        .collect();
    let threads = morsel_threads(opts, morsels.len(), rows);
    // The scan side of the fusion gets its own operator span (nested
    // under the caller's `op:aggregate` span) so traces still show the
    // aggregate-over-scan shape the plan describes.
    let mut scan_span = aqp_obs::span("op:fused-scan");
    if scan_span.is_recording() {
        scan_span.set_detail(format!("{table} {}", fold.tag()));
    }
    let op_ctx = aqp_obs::current_ctx();
    let fold = &fold;
    let (partials, scan_stats) = pool::parallel_map_with_stats(
        morsels,
        threads,
        |_, morsel, s| -> Result<FoldAcc, EngineError> {
            let mut span = aqp_obs::child_span("agg:partial", &op_ctx);
            let mut acc = fold.new_acc(opts.agg_hint);
            let mut rows_in = 0u64;
            for (block, verdict) in &morsel {
                match verdict {
                    ScanVerdict::Pruned => s.blocks_pruned += 1,
                    v => {
                        s.blocks_scanned += 1;
                        s.rows_scanned += block.len() as u64;
                        rows_in += fold.fold(block, &mut acc, *v == ScanVerdict::Evaluate)?;
                    }
                }
            }
            span.set_rows(rows_in);
            Ok(acc)
        },
    );
    let partials = partials.into_iter().collect::<Result<Vec<_>, _>>()?;
    *stats = stats.merge(&scan_stats);
    record_scan_counters(&scan_stats);
    if scan_span.is_recording() {
        scan_span.set_rows(scan_stats.rows_scanned);
        scan_span.set_detail(format!(
            "{table} [kernel, {} blocks pruned]",
            scan_stats.blocks_pruned
        ));
    }
    scan_span.finish();
    let mut merge_span = aqp_obs::span("agg:merge");
    let acc = tree_merge(partials).unwrap_or_else(|| fold.new_acc(None));
    let entries = acc.into_groups();
    merge_span.set_rows(entries.len() as u64);
    merge_span.finish();
    emit_groups(entries, group_by.is_empty(), aggregates, out_schema).map(Some)
}

/// Applies a predicate to a batch list on up to `threads` workers.
/// Blocks are independent morsels; output order is preserved by index.
fn filter_batches(
    batches: Vec<Arc<Block>>,
    predicate: &Expr,
    threads: usize,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let op_ctx = aqp_obs::current_ctx();
    let results = pool::parallel_map(
        batches,
        threads,
        |_, block| -> Result<Option<Arc<Block>>, EngineError> {
            let mut morsel = aqp_obs::child_span("morsel:filter", &op_ctx);
            let mask = eval_predicate_mask(predicate, &block)?;
            let kept = if mask.iter().all(|&b| b) {
                Some(block)
            } else if mask.iter().any(|&b| b) {
                Some(Arc::new(block.filter(&mask)))
            } else {
                None
            };
            morsel.set_rows(kept.as_ref().map_or(0, |b| b.len() as u64));
            Ok(kept)
        },
    );
    let mut out = Vec::new();
    for r in results {
        if let Some(kept) = r? {
            out.push(kept);
        }
    }
    Ok(out)
}

/// Evaluates projection expressions per block on up to `threads` workers.
fn project_batches(
    batches: Vec<Arc<Block>>,
    exprs: &[(Expr, String)],
    schema: &Arc<Schema>,
    threads: usize,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let op_ctx = aqp_obs::current_ctx();
    let results = pool::parallel_map(
        batches,
        threads,
        |_, block| -> Result<Arc<Block>, EngineError> {
            let mut morsel = aqp_obs::child_span("morsel:project", &op_ctx);
            morsel.set_rows(block.len() as u64);
            let columns: Vec<Column> = exprs
                .iter()
                .map(|(e, _)| eval(e, &block))
                .collect::<Result<_, _>>()?;
            Ok(Arc::new(Block::from_columns(Arc::clone(schema), columns)))
        },
    );
    results.into_iter().collect()
}

/// A join together with the filters stacked directly above it: one
/// operator, because a filter that names only probe-side columns runs
/// before the probe.
struct JoinNode<'a> {
    left: &'a LogicalPlan,
    right: &'a LogicalPlan,
    left_key: &'a Expr,
    right_key: &'a Expr,
    /// Filters above the join, innermost first.
    filters: Vec<&'a Expr>,
}

/// Recognizes zero or more `Filter`s over a `Join`.
fn peel_join(plan: &LogicalPlan) -> Option<JoinNode<'_>> {
    let mut filters = Vec::new();
    let mut node = plan;
    loop {
        match node {
            LogicalPlan::Filter { input, predicate } => {
                filters.push(predicate);
                node = input.as_ref();
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                filters.reverse();
                return Some(JoinNode {
                    left,
                    right,
                    left_key,
                    right_key,
                    filters,
                });
            }
            _ => return None,
        }
    }
}

/// A join ready to run one probe block at a time.
struct PreparedJoin<'a> {
    /// The probe side's base table when its blocks come straight off a
    /// scan — the join then does that scan's block accounting.
    probe_table: Option<&'a str>,
    blocks: Vec<(Arc<Block>, ScanVerdict)>,
    /// Predicates over the probe schema, applied to `Evaluate` blocks
    /// before the probe: the probe side's own fused filters, then the
    /// filters above the join that name only probe-side columns.
    predicates: Vec<&'a Expr>,
    kernel: Option<PredKernel>,
    gather: GatherJoin,
    /// Filters above the join that name a build-side column, innermost
    /// first: evaluated on the joined block.
    post: Vec<&'a Expr>,
}

impl PreparedJoin<'_> {
    /// Accounts for, filters and joins one probe block; `None` when its
    /// zone map pruned it.
    fn join_block(
        &self,
        block: &Block,
        verdict: ScanVerdict,
        s: &mut ExecStats,
    ) -> Result<Option<Block>, EngineError> {
        if verdict == ScanVerdict::Pruned {
            s.blocks_pruned += 1;
            return Ok(None);
        }
        if self.probe_table.is_some() {
            s.blocks_scanned += 1;
            s.rows_scanned += block.len() as u64;
        }
        let mut selection: Option<Vec<bool>> = None;
        if verdict == ScanVerdict::Evaluate {
            if let Some(kernel) = &self.kernel {
                selection = Some(kernel.selection_mask(block));
            } else {
                for pred in &self.predicates {
                    let mask = eval_predicate_mask(pred, block)?;
                    selection = Some(match selection {
                        None => mask,
                        Some(prev) => prev.iter().zip(&mask).map(|(a, b)| *a && *b).collect(),
                    });
                }
            }
        }
        Ok(Some(self.gather.join_block(block, selection.as_deref())?))
    }

    /// Folds the probe side's scan accounting into the query's and
    /// annotates the `op:join` span (`fold`: the tag of the fold the
    /// joined blocks fed, when an aggregate consumed them).
    fn finish(
        &self,
        span: &mut aqp_obs::Span,
        rows: u64,
        scan: &ExecStats,
        stats: &mut ExecStats,
        fold: Option<&str>,
    ) {
        *stats = stats.merge(scan);
        if self.probe_table.is_some() {
            record_scan_counters(scan);
        }
        if span.is_recording() {
            span.set_rows(rows);
            let mut detail = format!("{} {}", self.probe_table.unwrap_or("-"), self.gather.tag());
            if !self.predicates.is_empty() {
                detail += &format!(" [filters before probe: {}]", self.predicates.len());
            }
            if scan.blocks_pruned > 0 {
                detail += &format!(" [{} blocks pruned]", scan.blocks_pruned);
            }
            if let Some(fold) = fold {
                detail += &format!(" -> fold {fold}");
            }
            span.set_detail(detail);
        }
    }
}

/// Plans a join: resolves the probe side (a base table's classified
/// blocks when it is a scan or project-free fused chain, else its
/// executed batches), pushes down the filters that name only probe-side
/// columns, and compiles the [`GatherJoin`] — over the build table's
/// cached key index when the build side is a bare scan.
///
/// `above` holds the expressions of the operators above the join's
/// filters; with the filters left for after the join they decide which
/// columns are gathered. `None` gathers every column.
fn prepare_join<'a>(
    join: &JoinNode<'a>,
    above: Option<&[&Expr]>,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<PreparedJoin<'a>, EngineError> {
    let probe_schema = join.left.schema(catalog)?;
    let (pushed, post): (Vec<&Expr>, Vec<&Expr>) = join.filters.iter().partition(|f| {
        let mut names = f.referenced_columns().into_iter();
        names.all(|name| probe_schema.index_of(name).is_ok())
    });
    let (probe_table, predicates, blocks) = match scan_chain(join.left) {
        Some((table, mut predicates)) => {
            predicates.extend(pushed);
            let t = catalog.get(table)?;
            let blocks = classify_blocks(&t, &predicates, opts.zone_pruning);
            (Some(table), predicates, blocks)
        }
        None => {
            let verdict = if pushed.is_empty() {
                ScanVerdict::AllTrue
            } else {
                ScanVerdict::Evaluate
            };
            let batches = exec_node(join.left, catalog, stats, opts)?;
            let blocks = batches.into_iter().map(|b| (b, verdict)).collect();
            (None, pushed, blocks)
        }
    };
    let kernel = if opts.kernels && !predicates.is_empty() {
        PredKernel::compile(&predicates, &probe_schema)
    } else {
        None
    };
    if !predicates.is_empty() {
        record_dispatch(kernel.is_some());
    }
    let needed: Option<HashSet<&str>> = above.map(|exprs| {
        (exprs.iter().chain(&post))
            .flat_map(|e| e.referenced_columns())
            .collect()
    });
    let gather = match join.right {
        LogicalPlan::Scan { table } => {
            let t = catalog.get(table)?;
            // Accounted as the scan it replaces, index cached or not, so
            // `rows_scanned` and every ns/row read off it mean the same
            // before and after a dimension's index exists.
            stats.blocks_scanned += t.block_count() as u64;
            stats.rows_scanned += t.row_count() as u64;
            GatherJoin::over_table(
                &probe_schema,
                join.left_key,
                &t,
                join.right_key,
                needed.as_ref(),
            )?
        }
        other => {
            let build_schema = other.schema(catalog)?;
            let batches = exec_node(other, catalog, stats, opts)?;
            GatherJoin::over_batches(
                &probe_schema,
                join.left_key,
                &build_schema,
                batches,
                join.right_key,
                needed.as_ref(),
            )?
        }
    };
    Ok(PreparedJoin {
        probe_table,
        blocks,
        predicates,
        kernel,
        gather,
        post,
    })
}

/// Runs a join (and the filters above it) that no aggregate consumes:
/// one joined output block per probe block, in probe order.
fn exec_join(
    join: &JoinNode<'_>,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let mut span = aqp_obs::span("op:join");
    let mut prepared = prepare_join(join, None, catalog, stats, opts)?;
    let blocks = std::mem::take(&mut prepared.blocks);
    let rows: u64 = blocks.iter().map(|(b, _)| b.len() as u64).sum();
    let threads = morsel_threads(opts, blocks.len(), rows);
    let op_ctx = aqp_obs::current_ctx();
    let prepared = &prepared;
    let (results, scan_stats) = pool::parallel_map_with_stats(
        blocks,
        threads,
        |_, (block, verdict), s| -> Result<Option<Arc<Block>>, EngineError> {
            let mut morsel = aqp_obs::child_span("join:probe", &op_ctx);
            let Some(mut joined) = prepared.join_block(&block, verdict, s)? else {
                return Ok(None);
            };
            for pred in &prepared.post {
                let mask = eval_predicate_mask(pred, &joined)?;
                if !mask.iter().all(|&keep| keep) {
                    joined = joined.filter(&mask);
                }
            }
            morsel.set_rows(joined.len() as u64);
            Ok((!joined.is_empty()).then(|| Arc::new(joined)))
        },
    );
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    let joined_rows = out.iter().map(|b| b.len() as u64).sum();
    prepared.finish(&mut span, joined_rows, &scan_stats, stats, None);
    Ok(out)
}

/// Runs `Aggregate` over a join (and the filters above it) fused: each
/// probe morsel's joined blocks go straight into a [`BlockFold`] — the
/// typed kernel when the keys, arguments and remaining filters are in its
/// domain, the scalar fold otherwise — and the per-morsel partials merge
/// along the fixed [`tree_merge`] at every thread count. No join output
/// is materialized beyond one block at a time.
fn exec_join_agg(
    join: &JoinNode<'_>,
    group_by: &[(Expr, String)],
    aggregates: &[crate::agg::AggExpr],
    out_schema: &Arc<Schema>,
    catalog: &Catalog,
    stats: &mut ExecStats,
    opts: &ExecOptions,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let mut join_span = aqp_obs::span("op:join");
    let above: Vec<&Expr> = (group_by.iter().map(|(e, _)| e))
        .chain(aggregates.iter().map(|a| &a.expr))
        .collect();
    let mut prepared = prepare_join(join, Some(&above), catalog, stats, opts)?;
    let fold = if opts.kernels {
        let joined_schema = prepared.gather.schema();
        BlockFold::compile(&prepared.post, group_by, aggregates, joined_schema)
    } else {
        BlockFold::scalar(&prepared.post, group_by, aggregates)
    };
    record_dispatch(fold.is_kernel());
    // Morsel boundaries come from the probe side's full block list, so
    // the partial tree — and the result — is the same with pruning on or
    // off and at every thread count.
    let blocks = std::mem::take(&mut prepared.blocks);
    let rows: u64 = blocks.iter().map(|(b, _)| b.len() as u64).sum();
    let morsels: Vec<Vec<(Arc<Block>, ScanVerdict)>> = blocks
        .chunks(AGG_MORSEL_BLOCKS)
        .map(|c| c.to_vec())
        .collect();
    let threads = morsel_threads(opts, morsels.len(), rows);
    let op_ctx = aqp_obs::current_ctx();
    let (prepared, fold) = (&prepared, &fold);
    let (partials, scan_stats) = pool::parallel_map_with_stats(
        morsels,
        threads,
        |_, morsel, s| -> Result<(FoldAcc, u64), EngineError> {
            let mut span = aqp_obs::child_span("agg:partial", &op_ctx);
            let mut acc = fold.new_acc(opts.agg_hint);
            let mut joined_rows = 0u64;
            for (block, verdict) in &morsel {
                if let Some(joined) = prepared.join_block(block, *verdict, s)? {
                    joined_rows += joined.len() as u64;
                    fold.fold(&joined, &mut acc, true)?;
                }
            }
            span.set_rows(joined_rows);
            Ok((acc, joined_rows))
        },
    );
    let mut accs = Vec::with_capacity(partials.len());
    let mut joined_rows = 0u64;
    for partial in partials {
        let (acc, rows) = partial?;
        accs.push(acc);
        joined_rows += rows;
    }
    let tag = Some(fold.tag());
    prepared.finish(&mut join_span, joined_rows, &scan_stats, stats, tag);
    join_span.finish();
    let mut merge_span = aqp_obs::span("agg:merge");
    let acc = tree_merge(accs).unwrap_or_else(|| fold.new_acc(None));
    let entries = acc.into_groups();
    merge_span.set_rows(entries.len() as u64);
    merge_span.finish();
    emit_groups(entries, group_by.is_empty(), aggregates, out_schema)
}

/// Hash aggregation; deterministic output order (groups sorted by key).
/// With `threads > 1` runs two-phase: per-block partial [`AggState`] maps
/// merged in block order via [`AggState::merge`].
fn hash_aggregate(
    batches: &[Arc<Block>],
    group_by: &[(Expr, String)],
    aggregates: &[crate::agg::AggExpr],
    schema: &Arc<Schema>,
    threads: usize,
) -> Result<Vec<Arc<Block>>, EngineError> {
    let fold = BlockFold::scalar(&[], group_by, aggregates);
    let entries = if threads <= 1 {
        let mut build_span = aqp_obs::span("agg:partial");
        let mut acc = fold.new_acc(None);
        for block in batches {
            fold.fold(block, &mut acc, false)?;
        }
        if build_span.is_recording() {
            build_span.set_rows(batches.iter().map(|b| b.len() as u64).sum());
        }
        acc.into_groups()
    } else {
        // Phase 1: per-morsel partials. Phase 2: fold in morsel order, so
        // each group's states merge along a fixed, scheduling-independent
        // reduction tree. Aggregation morsels span several blocks
        // (AGG_MORSEL_BLOCKS — a layout constant, never derived from the
        // thread count, or results would vary with it): a partial map
        // amortizes over the whole span, keeping the merge phase small
        // even when group cardinality approaches the block size.
        let morsels: Vec<Vec<Arc<Block>>> = batches
            .chunks(AGG_MORSEL_BLOCKS)
            .map(|c| c.to_vec())
            .collect();
        let op_ctx = aqp_obs::current_ctx();
        let fold = &fold;
        let partials = pool::parallel_map(
            morsels,
            threads,
            |_, span| -> Result<FoldAcc, EngineError> {
                let mut morsel = aqp_obs::child_span("agg:partial", &op_ctx);
                if morsel.is_recording() {
                    morsel.set_rows(span.iter().map(|b| b.len() as u64).sum());
                }
                let mut part = fold.new_acc(None);
                for block in &span {
                    fold.fold(block, &mut part, false)?;
                }
                Ok(part)
            },
        );
        let mut merge_span = aqp_obs::span("agg:merge");
        let mut acc = fold.new_acc(None);
        for part in partials {
            acc.merge_from(part?);
        }
        let entries = acc.into_groups();
        merge_span.set_rows(entries.len() as u64);
        merge_span.finish();
        entries
    };
    emit_groups(entries, group_by.is_empty(), aggregates, schema)
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
        assert!(fuse(&scan_only).is_none());
        let filtered = Query::scan("fact").filter(col("v").lt(lit(1.0))).build();
        let f = fuse(&filtered).expect("filter over scan fuses");
        assert_eq!(f.table, "fact");
        assert_eq!(f.predicates.len(), 1);
        assert!(f.project.is_none());
        let chain = Query::scan("fact")
            .filter(col("v").lt(lit(1.0)))
            .filter(col("id").gt(lit(0i64)))
            .project(vec![(col("id"), "id".to_string())])
            .build();
        let f = fuse(&chain).expect("project over filters over scan fuses");
        assert_eq!(f.predicates.len(), 2);
        assert!(f.project.is_some());
        let joined = Query::scan("fact")
            .join(Query::scan("dim"), col("k"), col("k"))
            .build();
        assert!(fuse(&joined).is_none());
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
