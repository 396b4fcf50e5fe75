//! The block fold: one block folded into an aggregate partial, and the
//! predicate selection every operator filters blocks with.
//!
//! Filter→aggregate over a block is the unit every aggregation in the
//! system is built from. It is the last stage of the engine's one
//! aggregate step ([`crate::exec::AggStep`]), which the exact executor runs
//! on every block of a morsel — merging morsel partials along a fixed tree
//! — and the sampled paths in `aqp-core` run on each *sampled* block,
//! reading the per-group totals out of a fresh partial (blocks are the
//! sampling unit, so block totals are the statistic). Online aggregation
//! and sharded exact aggregation fold blocks through it directly.
//! [`BlockFold`] is compiled once per query: the typed [`FusedAggKernel`]
//! when every predicate, key and aggregate argument is in its domain,
//! otherwise the scalar `eval` path (is-true mask, `Value`-typed updates of
//! the selected rows), which stays the semantic reference. Where both
//! compile they agree bit-for-bit on every block.
//!
//! A predicate conjunction outside a fused kernel — a filtered scan, the
//! selection pushed below a join, the filters above one, the scalar fold's
//! — is one `Selection`: the typed [`PredKernel`] mask when it compiles,
//! else the AND of `eval_predicate_mask` results.
//!
//! A kernel partial grouped on a STR column keys its groups on dictionary
//! codes ([`FoldAcc::Coded`]) and remembers the dictionary they belong
//! to; a block or partial under another dictionary is re-coded by value
//! on the way in. [`FoldAcc::into_groups`] is where codes become strings
//! again — the only place they do — so every consumer sees canonical
//! [`KeyAtom`]s, whichever path folded the rows.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use aqp_expr::eval::{eval, eval_predicate_mask};
use aqp_expr::Expr;
use aqp_storage::{Block, Column, Schema, StrDict};

use crate::agg::{AggExpr, AggState, GroupKey, I64GroupMap, KeyAtom};
use crate::error::EngineError;
use crate::kernel::{FusedAggKernel, PredKernel};

/// Records one dispatch on the kernel/fallback counter of the metrics
/// registry in scope: one tick per `Aggregate` operator or sampling
/// phase, labelled by the path of its fold — not per block, and not for
/// predicates alone.
pub fn record_dispatch(kernel: bool) {
    aqp_obs::metrics::record(|m| {
        m.counter_labeled(
            aqp_obs::names::KERNEL_DISPATCH_TOTAL,
            aqp_obs::names::KERNEL_DISPATCH_LABEL,
            if kernel {
                aqp_obs::names::KERNEL_DISPATCH_KERNEL
            } else {
                aqp_obs::names::KERNEL_DISPATCH_FALLBACK
            },
        )
        .inc(1);
    });
}

/// Partial aggregation state for one morsel or block: one state vector
/// (global aggregate), an `i64`-keyed group map (the kernel's grouped
/// shapes), or a composite-key map (the scalar fold's shape).
pub enum FoldAcc {
    /// Global (no GROUP BY) partial.
    Global(Vec<AggState>),
    /// Grouped partial keyed on a single `i64`.
    Grouped(I64GroupMap),
    /// Grouped partial keyed on a single STR key's dictionary code.
    Coded {
        /// The groups, keyed on codes of `dict`.
        groups: I64GroupMap,
        /// The dictionary the codes belong to; `None` until a block with
        /// a non-NULL key arrives.
        dict: Option<Arc<StrDict>>,
    },
    /// Grouped partial keyed on canonicalized composite keys.
    Keyed(HashMap<GroupKey, Vec<AggState>>),
}

/// Whether codes of `from` are codes of the partial dictionary `dict` as
/// they stand: the same dictionary, no codes on either side yet — then
/// `dict` adopts `from` — or none in `from`. `false` means they must be
/// re-coded by value ([`recode`]).
pub(crate) fn shares_codes(dict: &mut Option<Arc<StrDict>>, from: &Arc<StrDict>) -> bool {
    match dict {
        Some(d) if !d.is_empty() => Arc::ptr_eq(d, from) || from.is_empty(),
        _ => {
            *dict = Some(Arc::clone(from));
            true
        }
    }
}

/// The code in `dict` of the value `code` has in `from`, interned if new
/// (into a copy of `dict`, if it is shared).
pub(crate) fn recode(dict: &mut Arc<StrDict>, from: &StrDict, code: u32) -> u32 {
    Arc::make_mut(dict).intern(from.value(code))
}

impl FoldAcc {
    /// Absorbs a later morsel's partial. `self` must cover the earlier
    /// morsels — [`AggState::merge`] and [`I64GroupMap::merge_from`] are
    /// order-sensitive for float sums and MIN/MAX ties.
    pub fn merge_from(&mut self, other: FoldAcc) {
        match (self, other) {
            (FoldAcc::Global(a), FoldAcc::Global(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    x.merge(y);
                }
            }
            (FoldAcc::Grouped(a), FoldAcc::Grouped(b)) => a.merge_from(b),
            (
                FoldAcc::Coded { groups: a, dict },
                FoldAcc::Coded {
                    groups: b,
                    dict: from,
                },
            ) => match from {
                Some(from) if !shares_codes(dict, &from) => {
                    let dict = dict.as_mut().expect("a non-empty dictionary");
                    a.merge_rekeyed(b, |code| recode(dict, &from, code as u32) as i64);
                }
                _ => a.merge_from(b),
            },
            (FoldAcc::Keyed(a), FoldAcc::Keyed(b)) => {
                for (key, states) in b {
                    match a.entry(key) {
                        Entry::Occupied(mut e) => {
                            for (dst, src) in e.get_mut().iter_mut().zip(states) {
                                dst.merge(src);
                            }
                        }
                        Entry::Vacant(v) => {
                            v.insert(states);
                        }
                    }
                }
            }
            _ => unreachable!("mismatched fold accumulator shapes"),
        }
    }

    /// Consumes the partial, yielding every group's canonical key and
    /// states (in no particular order; a global partial is the one group
    /// with the empty key).
    pub fn into_groups(self) -> Vec<(GroupKey, Vec<AggState>)> {
        match self {
            FoldAcc::Global(states) => vec![(Vec::new(), states)],
            FoldAcc::Grouped(map) => {
                let (groups, null_group) = map.into_groups();
                let null = null_group.map(|states| (vec![KeyAtom::Null], states));
                let keyed = groups.into_iter().map(|(k, s)| (vec![KeyAtom::Int(k)], s));
                null.into_iter().chain(keyed).collect()
            }
            FoldAcc::Coded { groups, dict } => {
                let (groups, null_group) = groups.into_groups();
                let null = null_group.map(|states| (vec![KeyAtom::Null], states));
                let coded = groups.into_iter().map(|(code, states)| {
                    let dict = dict.as_ref().expect("a coded group has its dictionary");
                    let value = Arc::clone(dict.value(code as u32));
                    (vec![KeyAtom::Str(value)], states)
                });
                null.into_iter().chain(coded).collect()
            }
            FoldAcc::Keyed(map) => map.into_iter().collect(),
        }
    }
}

/// Merges per-morsel partials along a fixed pairwise tree: `(0,1)`,
/// `(2,3)`, … then pairs of pairs, until one remains. The tree shape
/// depends only on the morsel count — never on the thread count — so a
/// plan's result is bit-for-bit identical at every thread count,
/// including 1.
pub fn tree_merge(mut parts: Vec<FoldAcc>) -> Option<FoldAcc> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.merge_from(b);
            }
            next.push(a);
        }
        parts = next;
    }
    parts.pop()
}

/// A conjunction of predicates compiled once over blocks of one schema.
/// A row is selected when every predicate is TRUE on it — FALSE and NULL
/// drop it, exactly as applying the predicates one by one would.
pub(crate) enum Selection {
    /// No predicate: every row is selected.
    All,
    Kernel(PredKernel),
    /// Predicates in application order, ANDed.
    Scalar(Vec<Expr>),
}

impl Selection {
    /// Compiles `predicates` over blocks of `schema`: the typed mask
    /// kernel when `kernels` allows and every predicate is in its domain,
    /// the scalar evaluator otherwise.
    pub(crate) fn new(predicates: &[&Expr], schema: &Schema, kernels: bool) -> Selection {
        if predicates.is_empty() {
            return Selection::All;
        }
        match kernels.then(|| PredKernel::compile(predicates, schema)) {
            Some(Some(kernel)) => Selection::Kernel(kernel),
            _ => Selection::Scalar(predicates.iter().map(|&p| p.clone()).collect()),
        }
    }

    /// The is-true mask of `block`'s selected rows; `None` when there is
    /// no predicate.
    pub(crate) fn mask(&self, block: &Block) -> Result<Option<Vec<bool>>, EngineError> {
        Ok(match self {
            Selection::All => None,
            Selection::Kernel(k) => Some(k.selection_mask(block)),
            Selection::Scalar(predicates) => {
                // Each predicate runs only on the rows those before it kept.
                let mut mask = vec![true; block.len()];
                for p in predicates {
                    let rows = if mask.contains(&false) {
                        Cow::Owned(block.filter(&mask))
                    } else {
                        Cow::Borrowed(block)
                    };
                    if rows.is_empty() {
                        break;
                    }
                    let kept = mask.iter_mut().filter(|keep| **keep);
                    for (keep, m) in kept.zip(eval_predicate_mask(p, &rows)?) {
                        *keep = m;
                    }
                }
                Some(mask)
            }
        })
    }

    /// `block` reduced to its selected rows: the block itself when every
    /// row is, `None` when none is.
    pub(crate) fn apply<'b>(
        &self,
        block: Cow<'b, Block>,
    ) -> Result<Option<Cow<'b, Block>>, EngineError> {
        let Some(mask) = self.mask(&block)? else {
            return Ok(Some(block));
        };
        Ok(if mask.iter().all(|&keep| keep) {
            Some(block)
        } else if mask.iter().any(|&keep| keep) {
            Some(Cow::Owned(block.filter(&mask)))
        } else {
            None
        })
    }
}

/// A compiled filter→aggregate fold over blocks of one schema.
pub struct BlockFold {
    imp: FoldImpl,
}

enum FoldImpl {
    Kernel(FusedAggKernel),
    Scalar {
        selection: Selection,
        group_by: Vec<Expr>,
        aggregates: Vec<AggExpr>,
    },
}

impl BlockFold {
    /// The typed-kernel fold over blocks of `schema`, or `None` when some
    /// predicate, key or aggregate argument is outside the kernel's domain.
    pub fn kernel(
        predicates: &[&Expr],
        group_by: &[(Expr, String)],
        aggregates: &[AggExpr],
        schema: &Schema,
    ) -> Option<BlockFold> {
        let kernel = FusedAggKernel::compile(predicates, group_by, aggregates, schema)?;
        Some(BlockFold {
            imp: FoldImpl::Kernel(kernel),
        })
    }

    /// The fold for blocks of `schema`: the typed kernel when `kernels`
    /// allows and the shape is in its domain, the scalar path — the
    /// reference, which takes any predicate, key and aggregate the
    /// evaluator accepts — otherwise.
    pub fn new(
        predicates: &[&Expr],
        group_by: &[(Expr, String)],
        aggregates: &[AggExpr],
        schema: &Schema,
        kernels: bool,
    ) -> BlockFold {
        let kernel = kernels.then(|| Self::kernel(predicates, group_by, aggregates, schema));
        kernel.flatten().unwrap_or_else(|| BlockFold {
            imp: FoldImpl::Scalar {
                selection: Selection::new(predicates, schema, kernels),
                group_by: group_by.iter().map(|(e, _)| e.clone()).collect(),
                aggregates: aggregates.to_vec(),
            },
        })
    }

    /// Whether the fold runs on the typed kernel (else the scalar path).
    pub fn is_kernel(&self) -> bool {
        matches!(self.imp, FoldImpl::Kernel(_))
    }

    /// `[kernel]` or `[scalar]`: the span-detail tag naming the path.
    pub fn tag(&self) -> &'static str {
        if self.is_kernel() {
            "[kernel]"
        } else {
            "[scalar]"
        }
    }

    /// A fresh (empty) partial. `hint` pre-sizes the kernel's group map.
    pub fn new_acc(&self, hint: Option<usize>) -> FoldAcc {
        match &self.imp {
            FoldImpl::Kernel(k) => k.new_acc(hint),
            FoldImpl::Scalar { .. } => FoldAcc::Keyed(HashMap::new()),
        }
    }

    /// Folds one block's rows, in row order, into `acc`. Returns the
    /// number of rows that passed the predicates; a block where none did
    /// leaves `acc` untouched. `apply_predicates: false` skips predicate
    /// evaluation — for blocks a zone map already proved all-true.
    pub fn fold(
        &self,
        block: &Block,
        acc: &mut FoldAcc,
        apply_predicates: bool,
    ) -> Result<u64, EngineError> {
        match &self.imp {
            FoldImpl::Kernel(k) => Ok(k.accumulate(block, acc, apply_predicates)),
            FoldImpl::Scalar {
                selection,
                group_by,
                aggregates,
            } => {
                let selected = if apply_predicates {
                    selection.apply(Cow::Borrowed(block))?
                } else {
                    Some(Cow::Borrowed(block))
                };
                match selected {
                    Some(rows) => accumulate_block(&rows, group_by, aggregates, acc),
                    None => Ok(0),
                }
            }
        }
    }
}

/// The scalar inner loop: evaluates keys and aggregate arguments to
/// columns, then updates `Value`-typed states for each row. Returns the
/// rows folded.
fn accumulate_block(
    block: &Block,
    group_by: &[Expr],
    aggregates: &[AggExpr],
    acc: &mut FoldAcc,
) -> Result<u64, EngineError> {
    let FoldAcc::Keyed(groups) = acc else {
        unreachable!("scalar fold given a kernel-shaped accumulator");
    };
    let key_cols: Vec<Column> = group_by
        .iter()
        .map(|e| eval(e, block))
        .collect::<Result<_, _>>()?;
    let agg_cols: Vec<Column> = aggregates
        .iter()
        .map(|a| eval(&a.expr, block))
        .collect::<Result<_, _>>()?;
    for ri in 0..block.len() {
        let key: GroupKey = key_cols
            .iter()
            .map(|c| KeyAtom::from_value(&c.get(ri)))
            .collect();
        let states = groups
            .entry(key)
            .or_insert_with(|| aggregates.iter().map(|a| AggState::new(a.func)).collect());
        for (state, col) in states.iter_mut().zip(&agg_cols) {
            state.update(&col.get(ri));
        }
    }
    Ok(block.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use aqp_storage::Value;

    #[test]
    fn tree_merge_is_shape_stable() {
        // 5 partials, each one value: tree is ((0,1),(2,3)),(4) regardless
        // of how the caller computed them.
        let parts: Vec<FoldAcc> = (0..5)
            .map(|i| {
                let mut s = AggState::new(AggFunc::Sum);
                s.update_f64(0.1 * (i as f64 + 1.0));
                FoldAcc::Global(vec![s])
            })
            .collect();
        let merged = tree_merge(parts).expect("non-empty");
        let FoldAcc::Global(states) = merged else {
            panic!("global");
        };
        let expect = ((0.1 + 0.2) + (0.3 + 0.4)) + 0.5_f64;
        let Value::Float64(got) = states[0].finish() else {
            panic!("float");
        };
        assert_eq!(got.to_bits(), expect.to_bits());
    }
}
