//! Typed filter→aggregate kernels over raw column slices.
//!
//! The scalar execution path materializes a `Column` of [`Value`]s for
//! every expression node and walks rows through `Value`-typed aggregate
//! updates. These kernels compile the common numeric shapes once per plan
//! — column references, numeric literals, `+ − × ÷ %` arithmetic,
//! comparisons, `AND`/`OR` — and then fold each block a column at a time
//! over `&[i64]` / `&[f64]` slices plus validity masks:
//!
//! 1. **Selection vector.** The predicate evaluates to an **is-true mask**
//!    (SQL `WHERE` semantics: NULL is not selected) through comparison and
//!    arithmetic loops that match their operator and operand types once
//!    per block; `AND`/`OR` combine into one mask buffer. The mask is
//!    compacted, without a branch per row, into the selected row indices.
//!    A block whose zone map proved the predicate true everywhere skips
//!    this step and selects every row.
//! 2. **Group ids.** A grouped fold maps each selected row's key — an
//!    `i64` expression value or the dictionary code of a STR column — to
//!    its dense group in the partial's [`I64GroupMap`] in one pass,
//!    probing the map once per distinct key per block; NULL keys go to the
//!    NULL group.
//! 3. **One loop per aggregate.** Each aggregate drops its NULL inputs
//!    from the selection (only `COUNT(*)` counts them) and runs one loop,
//!    monomorphic in its function, input type and grouping, over
//!    (selection, group id) on its typed input slice, straight into the
//!    map's typed column for that aggregate. A global partial's states
//!    become one-row columns for the block.
//!
//! Strings are in the domain only as that group key: a string in a
//! predicate or an aggregate argument, booleans, `NOT`, `IS NULL`,
//! `hash64`, NULL literals, multi-column or FLOAT64 group keys make
//! [`FusedAggKernel::compile`] return `None` and the caller falls back to
//! the scalar path, which remains the semantic reference.
//! Where both paths run, they agree bit-for-bit on every block: the
//! kernels reproduce `eval`'s exact coercions (universal f64 comparison
//! domain, wrapping integer arithmetic, NULL on division by zero), and
//! every group still sees its rows in row order — its float sum starts
//! from the state's value and adds them one by one, and MIN/MAX keep the
//! first of equal values (`-0.0` vs `0.0` included) and a NaN that
//! arrives first. Reordering *between* groups or aggregates cannot change
//! a bit, since their states are disjoint.
//!
//! Is-true masks compose under `AND`/`OR` (`t(A∧B) = t(A)∧t(B)`,
//! `t(A∨B) = t(A)∨t(B)`) but **not** under `NOT` (`NOT NULL` is NULL,
//! while `!false = true`), which is why `NOT` is out of scope rather
//! than special-cased.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use aqp_expr::{BinaryOp, Expr};
use aqp_storage::key::home_slot;
use aqp_storage::{Block, Column, DataType, Schema, StrDict, Value};

use crate::agg::{AggExpr, AggFunc, AggState, Col, I64GroupMap};
use crate::fold::{recode, shares_codes, FoldAcc};

/// A compiled numeric expression: evaluates over a block to a typed
/// vector (or splat) without `Value` materialization.
#[derive(Debug, Clone)]
enum NumExpr {
    /// An `INT64` column, by schema index.
    ColI64(usize),
    /// A `FLOAT64` column, by schema index.
    ColF64(usize),
    /// An integer literal, splatted.
    LitI64(i64),
    /// A float literal, splatted.
    LitF64(f64),
    /// Arithmetic. `int_out` mirrors `eval`'s rule: both operands INT64
    /// and the op is not division.
    Arith {
        op: BinaryOp,
        int_out: bool,
        l: Box<NumExpr>,
        r: Box<NumExpr>,
    },
}

/// One operand of a typed loop: a block's worth of values (a borrowed
/// column or a computed intermediate), or a literal splatted over it.
enum Side<'a, T: Clone> {
    Col(Cow<'a, [T]>),
    Lit(T),
}

impl<'a, T: Copy> Side<'a, T> {
    /// The values of `n` rows as a slice (a literal is materialized).
    fn values(self, n: usize) -> Cow<'a, [T]> {
        match self {
            Side::Col(c) => c,
            Side::Lit(x) => Cow::Owned(vec![x; n]),
        }
    }
}

/// Runs `f` on each output slot beside its two operands, with the
/// operand shapes matched once, not per row.
fn zip_each<T: Copy, O>(a: &Side<T>, b: &Side<T>, out: &mut [O], f: impl Fn(&mut O, T, T)) {
    match (a, b) {
        (Side::Col(a), Side::Col(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                f(o, x, y);
            }
        }
        (Side::Col(a), &Side::Lit(y)) => {
            for (o, &x) in out.iter_mut().zip(a.iter()) {
                f(o, x, y);
            }
        }
        (&Side::Lit(x), Side::Col(b)) => {
            for (o, &y) in out.iter_mut().zip(b.iter()) {
                f(o, x, y);
            }
        }
        (&Side::Lit(x), &Side::Lit(y)) => {
            for o in out {
                f(o, x, y);
            }
        }
    }
}

/// A block's typed values.
enum Data<'a> {
    I64(Side<'a, i64>),
    F64(Side<'a, f64>),
}

/// One block's worth of evaluated numeric values with its validity mask
/// (`true` = non-NULL), absent when every row is valid — matching
/// [`aqp_storage::Column`]'s convention.
struct Vals<'a> {
    data: Data<'a>,
    valid: Option<Cow<'a, [bool]>>,
}

impl Vals<'_> {
    /// The values in the universal f64 comparison domain (the coercion
    /// [`Value::sql_cmp`] applies).
    fn f64_side(&self) -> Side<'_, f64> {
        match &self.data {
            Data::F64(Side::Col(c)) => Side::Col(Cow::Borrowed(c)),
            &Data::F64(Side::Lit(x)) => Side::Lit(x),
            Data::I64(Side::Col(c)) => Side::Col(c.iter().map(|&x| x as f64).collect()),
            &Data::I64(Side::Lit(x)) => Side::Lit(x as f64),
        }
    }

    /// [`Vals::f64_side`] with NaN at NULL rows: every comparison with NaN
    /// is false, so a comparison over these values is already false where
    /// an operand is NULL, as `WHERE` wants.
    fn cmp_side(&self) -> Side<'_, f64> {
        match (self.f64_side(), &self.valid) {
            (Side::Col(c), Some(valid)) => Side::Col(
                (c.iter().zip(valid.iter()))
                    .map(|(&x, &ok)| if ok { x } else { f64::NAN })
                    .collect(),
            ),
            (side, _) => side,
        }
    }

    /// The values as integers; compile-time typing guarantees int
    /// operands for int-out arithmetic.
    fn int_side(&self) -> &Side<'_, i64> {
        match &self.data {
            Data::I64(side) => side,
            Data::F64(_) => unreachable!("int-typed kernel operand evaluated to float"),
        }
    }
}

/// The AND of the validity masks present; `None` when none is.
fn and_masks(masks: [Option<&[bool]>; 3]) -> Option<Vec<bool>> {
    let mut present = masks.into_iter().flatten();
    let mut out = present.next()?.to_vec();
    for m in present {
        for (o, &v) in out.iter_mut().zip(m) {
            *o &= v;
        }
    }
    Some(out)
}

/// Where a divisor is non-zero — the rows `/ 0.0` and `% 0` leave
/// non-NULL — or `None` when it never is zero.
fn nonzero<T: Copy + PartialEq + Default>(divisor: &Side<T>, n: usize) -> Option<Vec<bool>> {
    let zero = T::default();
    match divisor {
        Side::Col(c) if c.contains(&zero) => Some(c.iter().map(|&x| x != zero).collect()),
        Side::Col(_) => None,
        &Side::Lit(x) => (x == zero).then(|| vec![false; n]),
    }
}

impl NumExpr {
    /// Whether the expression statically produces `i64` values.
    fn is_int(&self) -> bool {
        match self {
            NumExpr::ColI64(_) | NumExpr::LitI64(_) => true,
            NumExpr::ColF64(_) | NumExpr::LitF64(_) => false,
            NumExpr::Arith { int_out, .. } => *int_out,
        }
    }

    fn eval<'a>(&self, block: &'a Block) -> Vals<'a> {
        match self {
            NumExpr::ColI64(ci) => {
                let c = block.column(*ci);
                let data = c.i64_values().expect("compiled against INT64 column");
                Vals {
                    data: Data::I64(Side::Col(Cow::Borrowed(data))),
                    valid: c.validity_mask().map(Cow::Borrowed),
                }
            }
            NumExpr::ColF64(ci) => {
                let c = block.column(*ci);
                let data = c.f64_values().expect("compiled against FLOAT64 column");
                Vals {
                    data: Data::F64(Side::Col(Cow::Borrowed(data))),
                    valid: c.validity_mask().map(Cow::Borrowed),
                }
            }
            NumExpr::LitI64(x) => Vals {
                data: Data::I64(Side::Lit(*x)),
                valid: None,
            },
            NumExpr::LitF64(x) => Vals {
                data: Data::F64(Side::Lit(*x)),
                valid: None,
            },
            NumExpr::Arith { op, int_out, l, r } => {
                let (lv, rv) = (l.eval(block), r.eval(block));
                let n = block.len();
                let (data, zero) = if *int_out {
                    let (a, b) = (lv.int_side(), rv.int_side());
                    let zero = (*op == BinaryOp::Mod).then(|| nonzero(b, n)).flatten();
                    (Data::I64(Side::Col(arith_int(*op, a, b, n).into())), zero)
                } else {
                    let (a, b) = (lv.f64_side(), rv.f64_side());
                    let zero = (*op == BinaryOp::Div).then(|| nonzero(&b, n)).flatten();
                    (Data::F64(Side::Col(arith_f64(*op, &a, &b, n).into())), zero)
                };
                let valid = and_masks([lv.valid.as_deref(), rv.valid.as_deref(), zero.as_deref()]);
                Vals {
                    data,
                    valid: valid.map(Cow::Owned),
                }
            }
        }
    }
}

/// Integer arithmetic: wrapping ops, and `% 0` yields a placeholder the
/// validity mask hides (NULL, mirroring `eval`). Values under NULL rows
/// are never read.
fn arith_int(op: BinaryOp, a: &Side<i64>, b: &Side<i64>, n: usize) -> Vec<i64> {
    let mut out = vec![0; n];
    match op {
        BinaryOp::Add => zip_each(a, b, &mut out, |o, x, y| *o = x.wrapping_add(y)),
        BinaryOp::Sub => zip_each(a, b, &mut out, |o, x, y| *o = x.wrapping_sub(y)),
        BinaryOp::Mul => zip_each(a, b, &mut out, |o, x, y| *o = x.wrapping_mul(y)),
        BinaryOp::Mod => zip_each(a, b, &mut out, |o, x, y| {
            *o = if y == 0 { 0 } else { x.wrapping_rem(y) };
        }),
        other => unreachable!("non-arithmetic op {other:?} in int kernel"),
    }
    out
}

/// Float arithmetic (also the mixed-type and division paths): operands
/// coerced to f64 exactly as `eval` does; `/ 0.0` is NULL through the
/// validity mask.
fn arith_f64(op: BinaryOp, a: &Side<f64>, b: &Side<f64>, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    match op {
        BinaryOp::Add => zip_each(a, b, &mut out, |o, x, y| *o = x + y),
        BinaryOp::Sub => zip_each(a, b, &mut out, |o, x, y| *o = x - y),
        BinaryOp::Mul => zip_each(a, b, &mut out, |o, x, y| *o = x * y),
        BinaryOp::Div => zip_each(a, b, &mut out, |o, x, y| *o = x / y),
        other => unreachable!("non-arithmetic op {other:?} in float kernel"),
    }
    out
}

/// How a predicate node's mask lands in the buffer it is written into.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Combine {
    /// Overwrite.
    Set,
    /// AND into what is there.
    And,
    /// OR into what is there.
    Or,
}

/// Writes the comparison `op` of `a` and `b` into `out` per `how`. The
/// operands are in the f64 domain with NaN at NULL rows; `partial_cmp`
/// semantics — NaN on either side selects nothing — hold for every op,
/// `<>` included (ordered and unequal, not IEEE `!=`, which NaN passes).
fn compare_into(op: BinaryOp, a: &Side<f64>, b: &Side<f64>, out: &mut [bool], how: Combine) {
    match op {
        BinaryOp::Eq => combine_each(a, b, out, how, |x, y| x == y),
        BinaryOp::NotEq => combine_each(a, b, out, how, |x, y| {
            matches!(x.partial_cmp(&y), Some(Ordering::Less | Ordering::Greater))
        }),
        BinaryOp::Lt => combine_each(a, b, out, how, |x, y| x < y),
        BinaryOp::LtEq => combine_each(a, b, out, how, |x, y| x <= y),
        BinaryOp::Gt => combine_each(a, b, out, how, |x, y| x > y),
        BinaryOp::GtEq => combine_each(a, b, out, how, |x, y| x >= y),
        other => unreachable!("non-comparison op {other:?} in predicate kernel"),
    }
}

fn combine_each(
    a: &Side<f64>,
    b: &Side<f64>,
    out: &mut [bool],
    how: Combine,
    holds: impl Fn(f64, f64) -> bool,
) {
    match how {
        Combine::Set => zip_each(a, b, out, |o, x, y| *o = holds(x, y)),
        Combine::And => zip_each(a, b, out, |o, x, y| *o &= holds(x, y)),
        Combine::Or => zip_each(a, b, out, |o, x, y| *o |= holds(x, y)),
    }
}

/// A compiled predicate producing an is-true selection mask.
#[derive(Debug, Clone)]
enum PredNode {
    /// Numeric comparison in the f64 domain (NaN or NULL → not selected).
    Cmp {
        op: BinaryOp,
        l: NumExpr,
        r: NumExpr,
    },
    And(Box<PredNode>, Box<PredNode>),
    Or(Box<PredNode>, Box<PredNode>),
}

impl PredNode {
    /// Writes the node's is-true mask over `block` into `out`, combined
    /// with what `out` holds per `how`. A chain of one connective writes
    /// straight into `out`; only an `AND` under an `OR` (or the reverse)
    /// needs a buffer of its own, borrowed from `spare` and returned.
    fn fill(&self, block: &Block, out: &mut [bool], how: Combine, spare: &mut Vec<Vec<bool>>) {
        match (self, how) {
            (PredNode::Cmp { op, l, r }, _) => {
                let (lv, rv) = (l.eval(block), r.eval(block));
                compare_into(*op, &lv.cmp_side(), &rv.cmp_side(), out, how);
            }
            (PredNode::And(a, b), Combine::Set | Combine::And) => {
                a.fill(block, out, how, spare);
                b.fill(block, out, Combine::And, spare);
            }
            (PredNode::Or(a, b), Combine::Set | Combine::Or) => {
                a.fill(block, out, how, spare);
                b.fill(block, out, Combine::Or, spare);
            }
            (PredNode::And(..), Combine::Or) | (PredNode::Or(..), Combine::And) => {
                let mut inner = spare.pop().unwrap_or_default();
                inner.clear();
                inner.resize(out.len(), false);
                self.fill(block, &mut inner, Combine::Set, spare);
                for (o, &x) in out.iter_mut().zip(&inner) {
                    if how == Combine::And {
                        *o &= x;
                    } else {
                        *o |= x;
                    }
                }
                spare.push(inner);
            }
        }
    }
}

fn compile_num(e: &Expr, schema: &Schema) -> Option<NumExpr> {
    match e {
        Expr::Column(name) => {
            let i = schema.index_of(name).ok()?;
            match schema.fields()[i].data_type {
                DataType::Int64 => Some(NumExpr::ColI64(i)),
                DataType::Float64 => Some(NumExpr::ColF64(i)),
                DataType::Str | DataType::Bool => None,
            }
        }
        Expr::Literal(Value::Int64(x)) => Some(NumExpr::LitI64(*x)),
        Expr::Literal(Value::Float64(x)) => Some(NumExpr::LitF64(*x)),
        Expr::Binary { left, op, right }
            if matches!(
                op,
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
            ) =>
        {
            let l = compile_num(left, schema)?;
            let r = compile_num(right, schema)?;
            let int_out = match op {
                BinaryOp::Div => false,
                // eval rejects non-INT64 modulo; keep that path scalar so
                // the error surfaces identically.
                BinaryOp::Mod => {
                    if !(l.is_int() && r.is_int()) {
                        return None;
                    }
                    true
                }
                _ => l.is_int() && r.is_int(),
            };
            Some(NumExpr::Arith {
                op: *op,
                int_out,
                l: Box::new(l),
                r: Box::new(r),
            })
        }
        _ => None,
    }
}

fn compile_pred(e: &Expr, schema: &Schema) -> Option<PredNode> {
    match e {
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And => Some(PredNode::And(
                Box::new(compile_pred(left, schema)?),
                Box::new(compile_pred(right, schema)?),
            )),
            BinaryOp::Or => Some(PredNode::Or(
                Box::new(compile_pred(left, schema)?),
                Box::new(compile_pred(right, schema)?),
            )),
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => Some(PredNode::Cmp {
                op: *op,
                l: compile_num(left, schema)?,
                r: compile_num(right, schema)?,
            }),
            _ => None,
        },
        _ => None,
    }
}

/// A compiled predicate pipeline for fused scans: all of a chain's
/// predicates as one ANDed is-true mask kernel.
pub struct PredKernel {
    node: PredNode,
}

impl PredKernel {
    /// Compiles a predicate chain (innermost-first, as in a fused scan).
    /// Returns `None` if any predicate uses an unmodeled shape.
    pub fn compile(predicates: &[&Expr], schema: &Schema) -> Option<PredKernel> {
        let mut nodes = predicates
            .iter()
            .map(|p| compile_pred(p, schema))
            .collect::<Option<Vec<_>>>()?;
        let first = nodes
            .drain(..)
            .reduce(|a, b| PredNode::And(Box::new(a), Box::new(b)))?;
        Some(PredKernel { node: first })
    }

    /// Evaluates the combined selection mask for one block. Rows where a
    /// predicate is FALSE *or NULL* are not selected — identical to
    /// applying the chain's predicates one by one.
    pub fn selection_mask(&self, block: &Block) -> Vec<bool> {
        let mut mask = vec![false; block.len()];
        self.node
            .fill(block, &mut mask, Combine::Set, &mut Vec::new());
        mask
    }

    /// The selected rows' indices, in row order.
    fn selection(&self, block: &Block) -> Vec<u32> {
        let mask = self.selection_mask(block);
        compact(0..mask.len() as u32, |i| mask[i])
    }
}

/// The items of `xs` at the positions `keep` accepts, in order: every item
/// is written at the cursor and the cursor advances by the flag, so no
/// item takes a branch.
fn compact(xs: impl ExactSizeIterator<Item = u32>, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; xs.len()];
    let mut len = 0;
    for (i, x) in xs.enumerate() {
        out[len] = x;
        len += usize::from(keep(i));
    }
    out.truncate(len);
    out
}

/// Aggregate input: `COUNT(*)` needs no evaluation, everything else is a
/// compiled numeric expression.
#[derive(Debug, Clone)]
enum AggInput {
    CountStar,
    Num(NumExpr),
}

/// A compiled single-column group key.
#[derive(Debug, Clone)]
enum KeyExpr {
    /// An INT64-typed numeric expression, grouped on its value.
    Int(NumExpr),
    /// A STR column, by schema index, grouped on its dictionary code.
    Str(usize),
}

/// The schema index of `e` if it is a bare STR column.
fn str_column(e: &Expr, schema: &Schema) -> Option<usize> {
    let Expr::Column(name) = e else { return None };
    let i = schema.index_of(name).ok()?;
    (schema.fields()[i].data_type == DataType::Str).then_some(i)
}

/// A STR key column's codes as codes of the partial's dictionary `dict`:
/// borrowed when they already are ([`shares_codes`]), re-coded by value
/// otherwise.
fn codes_in<'a>(col: &'a Column, dict: &mut Option<Arc<StrDict>>) -> Cow<'a, [u32]> {
    let (codes, from) = col.str_codes().expect("compiled against a STR column");
    if shares_codes(dict, from) {
        return Cow::Borrowed(codes);
    }
    let dict = dict.as_mut().expect("a non-empty dictionary");
    let mut seen: HashMap<u32, u32> = HashMap::new();
    let recoded = (codes.iter().enumerate()).map(|(i, &code)| {
        if col.is_null(i) {
            0
        } else {
            *seen.entry(code).or_insert_with(|| recode(dict, from, code))
        }
    });
    Cow::Owned(recoded.collect())
}

/// Maps each selected row's key to its dense group in `map`, in one pass
/// and in row order, creating a group at its first row as a
/// row-at-a-time fold would — `map` may grow in the middle of the block.
/// A block-local open-addressing table remembers the keys the block has
/// shown, so `map` is probed once per distinct key. `is_null` says which
/// rows have a NULL key; they go to the NULL group. Each group the block
/// meets is pushed onto `touched`, once, when one is given.
fn group_ids<K: Copy + Into<i64>>(
    keys: &[K],
    is_null: impl Fn(usize) -> bool,
    rows: &[u32],
    map: &mut I64GroupMap,
    mut touched: Option<&mut Vec<u32>>,
) -> Vec<u32> {
    let mask = (2 * rows.len()).next_power_of_two() - 1;
    // Per slot, a group index + 1 (0 = empty) and the key it holds.
    let mut table = vec![0u32; mask + 1];
    let mut slot_keys = vec![0i64; mask + 1];
    let mut null_seen = false;
    let mut ids = Vec::with_capacity(rows.len());
    for &r in rows {
        let r = r as usize;
        if is_null(r) {
            let gi = map.null_index() as u32;
            if !null_seen {
                null_seen = true;
                if let Some(t) = touched.as_deref_mut() {
                    t.push(gi);
                }
            }
            ids.push(gi);
            continue;
        }
        let key = keys[r].into();
        let mut s = home_slot(key, mask);
        let id = loop {
            match table[s] {
                0 => {
                    let gi = map.group_index(key) as u32;
                    (table[s], slot_keys[s]) = (gi + 1, key);
                    if let Some(t) = touched.as_deref_mut() {
                        t.push(gi);
                    }
                    break gi;
                }
                e if slot_keys[s] == key => break e - 1,
                _ => s = (s + 1) & mask,
            }
        };
        ids.push(id);
    }
    ids
}

/// [`group_ids`] for a key column with an optional validity mask.
fn group_keys<K: Copy + Into<i64>>(
    keys: &[K],
    valid: Option<&[bool]>,
    rows: &[u32],
    map: &mut I64GroupMap,
    touched: Option<&mut Vec<u32>>,
) -> Vec<u32> {
    match valid {
        None => group_ids(keys, |_| false, rows, map, touched),
        Some(valid) => group_ids(keys, |r| !valid[r], rows, map, touched),
    }
}

/// The group of the `k`-th row of an aggregate's selection: always row 0
/// of a global partial's one-row columns, else a look-up in the group
/// ids. The loops are monomorphic in it, so a global loop reads no id
/// array.
trait GroupOf: Copy {
    fn at(self, k: usize) -> usize;
}

#[derive(Clone, Copy)]
struct OneGroup;

impl GroupOf for OneGroup {
    #[inline]
    fn at(self, _: usize) -> usize {
        0
    }
}

impl GroupOf for &[u32] {
    #[inline]
    fn at(self, k: usize) -> usize {
        self[k] as usize
    }
}

/// An aggregate input type: the typed loops are monomorphic in it.
trait Num: Copy {
    /// The value in the f64 comparison and summation domain.
    fn f64(self) -> f64;
    /// The value a MIN/MAX state stores.
    fn value(self) -> Value;
    /// The per-row [`AggState`] update, for the aggregates without a
    /// typed column (`COUNT(DISTINCT)`, `VAR_SAMP`).
    fn update(self, state: &mut AggState);
}

impl Num for i64 {
    #[inline]
    fn f64(self) -> f64 {
        self as f64
    }
    fn value(self) -> Value {
        Value::Int64(self)
    }
    #[inline]
    fn update(self, state: &mut AggState) {
        state.update_i64(self);
    }
}

impl Num for f64 {
    #[inline]
    fn f64(self) -> f64 {
        self
    }
    fn value(self) -> Value {
        Value::Float64(self)
    }
    #[inline]
    fn update(self, state: &mut AggState) {
        state.update_f64(self);
    }
}

/// Runs one aggregate's loop over its selection into its column: `rows`
/// (NULL inputs already dropped, except for `COUNT(*)`) in row order, `g`
/// their groups, `xs` the typed input (`COUNT`s read none). The function,
/// the input type and the grouping are matched here, once per block.
fn fold_col<G: GroupOf>(col: &mut Col, xs: Option<Data>, rows: &[u32], g: G, n: usize) {
    match (col, xs) {
        (Col::Count(_, counts), _) => {
            for k in 0..rows.len() {
                counts[g.at(k)] += 1;
            }
        }
        (Col::Sum(_, sums, counts), Some(Data::I64(xs))) => {
            add(&xs.values(n), rows, g, sums, counts);
        }
        (Col::Sum(_, sums, counts), Some(Data::F64(xs))) => {
            add(&xs.values(n), rows, g, sums, counts);
        }
        (Col::Best(func, best, cmp), Some(Data::I64(xs))) => {
            keep_best(*func, &xs.values(n), rows, g, best, cmp);
        }
        (Col::Best(func, best, cmp), Some(Data::F64(xs))) => {
            keep_best(*func, &xs.values(n), rows, g, best, cmp);
        }
        (Col::States(_, states), Some(Data::I64(xs))) => {
            update_each(&xs.values(n), rows, g, states);
        }
        (Col::States(_, states), Some(Data::F64(xs))) => {
            update_each(&xs.values(n), rows, g, states);
        }
        (col, None) => unreachable!("{col:?} needs an input"),
    }
}

/// SUM/AVG in row order: each group's sum adds its rows one by one onto
/// the sum so far, so its bits are the row-at-a-time fold's.
fn add<T: Num, G: GroupOf>(xs: &[T], rows: &[u32], g: G, sums: &mut [f64], counts: &mut [u64]) {
    for (k, &r) in rows.iter().enumerate() {
        let gi = g.at(k);
        sums[gi] += xs[r as usize].f64();
        counts[gi] += 1;
    }
}

/// MIN/MAX in row order, compared in the f64 domain as
/// [`AggState::update_i64`] does.
fn keep_best<T: Num, G: GroupOf>(
    func: AggFunc,
    xs: &[T],
    rows: &[u32],
    g: G,
    best: &mut [Option<Value>],
    cmp: &mut [f64],
) {
    if func == AggFunc::Min {
        best_by(xs, rows, g, best, cmp, |x, b| x < b);
    } else {
        best_by(xs, rows, g, best, cmp, |x, b| x > b);
    }
}

/// A value replaces its group's best only when it `wins` strictly, so
/// ties keep the first (`-0.0` vs `0.0` included); a group's first value
/// is taken whatever it is, so a leading NaN sticks — no comparison with
/// NaN wins.
fn best_by<T: Num, G: GroupOf>(
    xs: &[T],
    rows: &[u32],
    g: G,
    best: &mut [Option<Value>],
    cmp: &mut [f64],
    wins: impl Fn(f64, f64) -> bool,
) {
    for (k, &r) in rows.iter().enumerate() {
        let (gi, x) = (g.at(k), xs[r as usize]);
        if best[gi].is_none() || wins(x.f64(), cmp[gi]) {
            cmp[gi] = x.f64();
            best[gi] = Some(x.value());
        }
    }
}

/// `COUNT(DISTINCT)` and `VAR_SAMP`: the typed state update per row.
fn update_each<T: Num, G: GroupOf>(xs: &[T], rows: &[u32], g: G, states: &mut [AggState]) {
    for (k, &r) in rows.iter().enumerate() {
        xs[r as usize].update(&mut states[g.at(k)]);
    }
}

/// A fully compiled filter→aggregate pipeline over one table's blocks.
pub struct FusedAggKernel {
    predicate: Option<PredKernel>,
    /// `None` = global aggregate; `Some` = a single-column group key.
    key: Option<KeyExpr>,
    inputs: Vec<AggInput>,
    funcs: Vec<AggFunc>,
}

impl FusedAggKernel {
    /// Compiles a fused scan's predicates plus an aggregation against the
    /// base table schema. Returns `None` — caller falls back to the
    /// scalar path — when any piece is out of the kernel's domain:
    /// non-numeric or NULL-literal expressions (a string is in it only as
    /// a bare-column group key), `NOT`/`IS NULL`/`hash64`, multi-column
    /// group keys, or FLOAT64 / BOOL keys.
    pub fn compile(
        predicates: &[&Expr],
        group_by: &[(Expr, String)],
        aggregates: &[AggExpr],
        schema: &Schema,
    ) -> Option<FusedAggKernel> {
        let predicate = if predicates.is_empty() {
            None
        } else {
            Some(PredKernel::compile(predicates, schema)?)
        };
        let key = match group_by {
            [] => None,
            [(expr, _)] => match str_column(expr, schema) {
                Some(i) => Some(KeyExpr::Str(i)),
                None => {
                    let k = compile_num(expr, schema)?;
                    if !k.is_int() {
                        return None; // float keys canonicalize through KeyAtom
                    }
                    Some(KeyExpr::Int(k))
                }
            },
            _ => return None,
        };
        let mut inputs = Vec::with_capacity(aggregates.len());
        let mut funcs = Vec::with_capacity(aggregates.len());
        for a in aggregates {
            // Compile the argument even for COUNT(*): an argument the
            // scalar path would reject must keep erroring, not silently
            // succeed through the kernel.
            let num = compile_num(&a.expr, schema)?;
            inputs.push(match a.func {
                AggFunc::CountStar => AggInput::CountStar,
                _ => AggInput::Num(num),
            });
            funcs.push(a.func);
        }
        Some(FusedAggKernel {
            predicate,
            key,
            inputs,
            funcs,
        })
    }

    /// A fresh (empty) partial accumulator. `hint` pre-sizes the group
    /// map (from the analyzer's cardinality hint, when available).
    pub fn new_acc(&self, hint: Option<usize>) -> FoldAcc {
        let groups = || I64GroupMap::new(self.funcs.clone(), hint.unwrap_or(64));
        match &self.key {
            None => FoldAcc::Global(self.funcs.iter().map(|f| AggState::new(*f)).collect()),
            Some(KeyExpr::Int(_)) => FoldAcc::Grouped(groups()),
            Some(KeyExpr::Str(_)) => FoldAcc::Coded {
                groups: groups(),
                dict: None,
            },
        }
    }

    /// Folds one block into a partial accumulator, a column at a time:
    /// the selection vector, the group ids, then one typed loop per
    /// aggregate (see the module doc). Returns the number of rows that
    /// passed the predicate; a block where none did leaves `acc`
    /// untouched. `apply_predicates: false` skips predicate evaluation —
    /// for blocks whose zone map already proved every predicate true on
    /// every row. A grouped fold pushes the dense id of each group the
    /// block folded rows into onto `touched`, once, when one is given.
    pub fn accumulate(
        &self,
        block: &Block,
        acc: &mut FoldAcc,
        apply_predicates: bool,
        touched: Option<&mut Vec<u32>>,
    ) -> u64 {
        let n = block.len();
        let rows = match &self.predicate {
            Some(p) if apply_predicates => p.selection(block),
            _ => (0..n as u32).collect(),
        };
        if rows.is_empty() {
            return 0;
        }
        match (&self.key, acc) {
            (None, FoldAcc::Global(states)) => {
                // One group: its states become one-row columns for the block.
                let mut cols: Vec<Col> = (states.iter_mut())
                    .map(|s| Col::of_state(std::mem::replace(s, AggState::CountStar(0))))
                    .collect();
                self.fold_cols(block, &rows, None, &mut cols);
                for (state, col) in states.iter_mut().zip(&mut cols) {
                    *state = col.take_state(0);
                }
            }
            (Some(KeyExpr::Int(k)), FoldAcc::Grouped(map)) => {
                let Vals { data, valid } = k.eval(block);
                let Data::I64(keys) = data else {
                    unreachable!("an INT64 key evaluated to float")
                };
                let ids = group_keys(&keys.values(n), valid.as_deref(), &rows, map, touched);
                self.fold_cols(block, &rows, Some(&ids), map.cols_mut());
            }
            (Some(KeyExpr::Str(ci)), FoldAcc::Coded { groups, dict }) => {
                let col = block.column(*ci);
                let ids = group_keys(
                    &codes_in(col, dict),
                    col.validity_mask(),
                    &rows,
                    groups,
                    touched,
                );
                self.fold_cols(block, &rows, Some(&ids), groups.cols_mut());
            }
            _ => unreachable!("accumulator shape disagrees with kernel"),
        }
        rows.len() as u64
    }

    /// Runs each aggregate's loop over the selected `rows` (`ids` their
    /// groups; `None` for a global partial) into its column of `cols`.
    fn fold_cols(&self, block: &Block, rows: &[u32], ids: Option<&[u32]>, cols: &mut [Col]) {
        for (col, input) in cols.iter_mut().zip(&self.inputs) {
            // COUNT(*) counts every selected row and reads no input.
            let (xs, valid) = match input {
                AggInput::CountStar => (None, None),
                AggInput::Num(e) => {
                    let Vals { data, valid } = e.eval(block);
                    (Some(data), valid)
                }
            };
            // NULL inputs leave the aggregate's selection.
            let (rows, ids) = match &valid {
                None => (Cow::Borrowed(rows), ids.map(Cow::Borrowed)),
                Some(valid) => {
                    let keep = |k: usize| valid[rows[k] as usize];
                    let ids = ids.map(|ids| compact(ids.iter().copied(), keep));
                    (
                        Cow::Owned(compact(rows.iter().copied(), keep)),
                        ids.map(Cow::Owned),
                    )
                }
            };
            match ids.as_deref() {
                None => fold_col(col, xs, &rows, OneGroup, block.len()),
                Some(ids) => fold_col(col, xs, &rows, ids, block.len()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_expr::eval::{eval, eval_predicate_mask};
    use aqp_expr::{col, lit};
    use aqp_storage::{Field, Schema};
    use std::sync::Arc;

    fn block() -> Block {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("v", DataType::Float64),
            Field::new("k", DataType::Int64),
        ]));
        let mut b = Block::new(schema);
        for i in 0..50i64 {
            let v = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Float64(i as f64 * 0.5)
            };
            b.push_row(&[Value::Int64(i), v, Value::Int64(i % 5)])
                .unwrap();
        }
        b
    }

    fn assert_mask_matches(pred: &Expr, b: &Block) {
        let k = PredKernel::compile(&[pred], b.schema()).expect("compiles");
        assert_eq!(
            k.selection_mask(b),
            eval_predicate_mask(pred, b).expect("scalar path evaluates"),
            "mask mismatch for {pred}"
        );
    }

    #[test]
    fn predicate_masks_match_scalar_eval() {
        let b = block();
        for pred in [
            col("v").lt(lit(10.0)),
            col("v").gt_eq(lit(5.0)),
            col("id").modulo(lit(3i64)).eq(lit(0i64)),
            col("id").mul(lit(2i64)).gt(col("k").add(lit(30i64))),
            col("v").lt(lit(10.0)).and(col("id").gt(lit(4i64))),
            col("v").lt(lit(3.0)).or(col("v").gt(lit(20.0))),
            col("v").div(col("k")).gt(lit(2.0)), // ÷0 rows are NULL → unselected
            col("v").not_eq(lit(f64::NAN)),      // NaN compares as NULL
        ] {
            assert_mask_matches(&pred, &b);
        }
    }

    #[test]
    fn chained_predicates_equal_sequential_masks() {
        let b = block();
        let p1 = col("v").lt(lit(20.0));
        let p2 = col("id").gt(lit(3i64));
        let k = PredKernel::compile(&[&p1, &p2], b.schema()).expect("compiles");
        let combined = k.selection_mask(&b);
        let m1 = eval_predicate_mask(&p1, &b).unwrap();
        let m2 = eval_predicate_mask(&p2, &b).unwrap();
        let expect: Vec<bool> = m1.iter().zip(&m2).map(|(a, c)| *a && *c).collect();
        assert_eq!(combined, expect);
    }

    #[test]
    fn unsupported_shapes_do_not_compile() {
        let schema = Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("f", DataType::Bool),
            Field::new("x", DataType::Int64),
        ]);
        for pred in [
            col("s").eq(lit("hi")),               // string compare
            col("f").and(col("x").gt(lit(0i64))), // bare bool column
            col("x").gt(lit(0i64)).not(),         // NOT inverts NULL wrong
            col("x").is_null(),
            col("x").hash64().gt(lit(0i64)),
            col("x").eq(Expr::Literal(Value::Null)),
        ] {
            assert!(
                PredKernel::compile(&[&pred], &schema).is_none(),
                "{pred} should fall back"
            );
        }
    }

    #[test]
    fn arith_kernel_matches_eval_bitwise() {
        let b = block();
        let exprs = [
            col("id").add(col("k")),
            col("id").sub(lit(7i64)),
            col("v").mul(lit(0.1)),
            col("id").div(col("k")),     // k=0 rows → NULL
            col("id").modulo(lit(0i64)), // mod 0 → NULL
            col("v").add(col("id")),
        ];
        for e in exprs {
            let compiled = compile_num(&e, b.schema()).expect("compiles");
            let Vals { data, valid } = compiled.eval(&b);
            let valid = |i: usize| valid.as_ref().is_none_or(|m| m[i]);
            let kernel: Vec<Value> = match data {
                Data::I64(xs) => xs
                    .values(b.len())
                    .iter()
                    .map(|&x| Value::Int64(x))
                    .collect(),
                Data::F64(xs) => xs
                    .values(b.len())
                    .iter()
                    .map(|&x| Value::Float64(x))
                    .collect(),
            };
            let scalar = eval(&e, &b).expect("scalar path");
            for (i, kv) in kernel.into_iter().enumerate() {
                let sv = scalar.get(i);
                if sv.is_null() {
                    assert!(!valid(i), "{e} row {i}: kernel non-null, eval NULL");
                    continue;
                }
                assert!(valid(i), "{e} row {i}: kernel NULL, eval {sv:?}");
                match (sv, kv) {
                    (Value::Int64(x), Value::Int64(y)) => assert_eq!(y, x, "{e} row {i}"),
                    (Value::Float64(x), Value::Float64(y)) => {
                        assert_eq!(y.to_bits(), x.to_bits(), "{e} row {i}")
                    }
                    other => panic!("kernel/scalar output types differ: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn global_agg_kernel_matches_scalar_states() {
        let b = block();
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::sum(col("v"), "s"),
            AggExpr::avg(col("v"), "a"),
            AggExpr::min(col("v"), "mn"),
            AggExpr::max(col("id"), "mx"),
            AggExpr::count_distinct(col("k"), "d"),
            AggExpr::new(AggFunc::VarSamp, col("v"), "var"),
        ];
        let pred = col("v").lt(lit(18.0));
        let kernel = FusedAggKernel::compile(&[&pred], &[], &aggs, b.schema()).expect("compiles");
        assert!(kernel.key.is_none());
        let mut acc = kernel.new_acc(None);
        kernel.accumulate(&b, &mut acc, true, None);
        // Scalar reference: filter then update with Values.
        let mask = eval_predicate_mask(&pred, &b).unwrap();
        let filtered = b.filter(&mask);
        let mut reference: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.func)).collect();
        for (j, a) in aggs.iter().enumerate() {
            let c = eval(&a.expr, &filtered).unwrap();
            for i in 0..filtered.len() {
                reference[j].update(&c.get(i));
            }
        }
        let FoldAcc::Global(states) = acc else {
            panic!("expected global accumulator");
        };
        for (j, (ks, rs)) in states.iter().zip(&reference).enumerate() {
            let bits = |v: Value| match v {
                Value::Float64(x) => format!("f{}", x.to_bits()),
                other => format!("{other:?}"),
            };
            assert_eq!(bits(ks.finish()), bits(rs.finish()), "agg #{j}");
        }
    }

    #[test]
    fn grouped_agg_kernel_matches_scalar_fold() {
        let b = block();
        let aggs = vec![AggExpr::count_star("n"), AggExpr::sum(col("v"), "s")];
        let kernel = FusedAggKernel::compile(
            &[],
            &[(col("id").modulo(lit(5i64)), "g".to_string())],
            &aggs,
            b.schema(),
        )
        .expect("compiles");
        assert!(kernel.key.is_some());
        let mut acc = kernel.new_acc(Some(5));
        let passed = kernel.accumulate(&b, &mut acc, true, None);
        assert_eq!(passed, 50);
        let FoldAcc::Grouped(map) = acc else {
            panic!("expected grouped accumulator");
        };
        let (groups, null_group) = map.into_groups();
        assert!(null_group.is_none());
        assert_eq!(groups.len(), 5);
        for (key, states) in groups {
            // 10 rows per residue class; v NULL when id % 7 == 0.
            assert_eq!(states[0].finish(), Value::Int64(10));
            let expect: f64 = (0..50i64)
                .filter(|i| i % 5 == key && i % 7 != 0)
                .map(|i| i as f64 * 0.5)
                .sum();
            assert_eq!(states[1].finish(), Value::Float64(expect), "group {key}");
        }
    }

    #[test]
    fn null_group_key_routes_to_null_slot() {
        let schema = Arc::new(Schema::new(vec![
            Field::nullable("g", DataType::Int64),
            Field::new("x", DataType::Int64),
        ]));
        let mut b = Block::new(schema);
        b.push_row(&[Value::Int64(1), Value::Int64(10)]).unwrap();
        b.push_row(&[Value::Null, Value::Int64(20)]).unwrap();
        b.push_row(&[Value::Int64(1), Value::Int64(30)]).unwrap();
        let aggs = vec![AggExpr::sum(col("x"), "s")];
        let kernel =
            FusedAggKernel::compile(&[], &[(col("g"), "g".to_string())], &aggs, b.schema())
                .expect("compiles");
        let mut acc = kernel.new_acc(None);
        kernel.accumulate(&b, &mut acc, true, None);
        let FoldAcc::Grouped(map) = acc else { panic!() };
        let (groups, null_group) = map.into_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 1);
        assert_eq!(groups[0].1[0].finish(), Value::Float64(40.0));
        assert_eq!(
            null_group.expect("null group")[0].finish(),
            Value::Float64(20.0)
        );
    }

    /// A block `(s, x)` of `keys` (`None` = NULL) with its own dictionary.
    fn str_block(keys: &[Option<&str>]) -> Block {
        let schema = Arc::new(Schema::new(vec![
            Field::nullable("s", DataType::Str),
            Field::new("x", DataType::Int64),
        ]));
        let mut b = Block::new(schema);
        for (i, k) in keys.iter().enumerate() {
            let k = k.map_or(Value::Null, Value::str);
            b.push_row(&[k, Value::Int64(i as i64 + 1)]).unwrap();
        }
        b
    }

    #[test]
    fn string_key_groups_on_codes_across_dictionaries() {
        let a = str_block(&[Some("p"), None, Some(""), Some("p")]);
        // Same values, other codes, plus one the first block lacks.
        let b = str_block(&[Some("q"), Some("p"), Some(""), None]);
        let aggs = vec![AggExpr::sum(col("x"), "sx"), AggExpr::count_star("n")];
        let key = [(col("s"), "s".to_string())];
        let kernel = FusedAggKernel::compile(&[], &key, &aggs, a.schema()).expect("compiles");
        let run = |blocks: &[&Block]| {
            let mut acc = kernel.new_acc(None);
            for block in blocks {
                kernel.accumulate(block, &mut acc, true, None);
            }
            let mut groups: Vec<(String, Vec<Value>)> = (acc.into_groups().into_iter())
                .map(|(k, states)| {
                    let k = format!("{:?}", k[0]);
                    (k, states.iter().map(AggState::finish).collect())
                })
                .collect();
            groups.sort_by(|x, y| x.0.cmp(&y.0));
            groups
        };
        let sum = |x: f64, n: i64| vec![Value::Float64(x), Value::Int64(n)];
        assert_eq!(
            run(&[&a, &b]),
            vec![
                ("Null".into(), sum(6.0, 2)),
                ("Str(\"\")".into(), sum(6.0, 2)),
                ("Str(\"p\")".into(), sum(7.0, 3)),
                ("Str(\"q\")".into(), sum(1.0, 1)),
            ]
        );
        // The foreign block was re-coded into a copy: `a` is untouched.
        assert_eq!(a.column(0).str_codes().unwrap().1.len(), 2);
        // Partials folded apart merge to the same groups, either order.
        let mut left = kernel.new_acc(None);
        kernel.accumulate(&b, &mut left, true, None);
        let mut right = kernel.new_acc(None);
        kernel.accumulate(&a, &mut right, true, None);
        left.merge_from(right);
        let mut merged: Vec<String> = (left.into_groups().into_iter())
            .map(|(k, states)| format!("{k:?} {:?}", states[1].finish()))
            .collect();
        merged.sort();
        assert_eq!(
            merged,
            [
                "[Null] Int64(2)",
                "[Str(\"\")] Int64(2)",
                "[Str(\"p\")] Int64(3)",
                "[Str(\"q\")] Int64(1)"
            ]
        );
    }

    #[test]
    fn compile_rejects_out_of_domain_aggregations() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("s", DataType::Str),
            Field::new("f", DataType::Bool),
            Field::new("v", DataType::Float64),
        ]);
        let ok = vec![AggExpr::sum(col("v"), "s")];
        // Multi-column keys fall back.
        assert!(FusedAggKernel::compile(
            &[],
            &[(col("id"), "a".to_string()), (col("id"), "b".to_string())],
            &ok,
            &schema
        )
        .is_none());
        // Float keys fall back (KeyAtom canonicalization); a bare string
        // column keys on its codes, and a string anywhere else falls back.
        assert!(
            FusedAggKernel::compile(&[], &[(col("v"), "g".to_string())], &ok, &schema).is_none()
        );
        assert!(
            FusedAggKernel::compile(&[], &[(col("s"), "g".to_string())], &ok, &schema).is_some()
        );
        assert!(FusedAggKernel::compile(
            &[&col("s").eq(lit("x"))],
            &[(col("s"), "g".to_string())],
            &ok,
            &schema
        )
        .is_none());
        // String/bool aggregate inputs fall back.
        assert!(
            FusedAggKernel::compile(&[], &[], &[AggExpr::min(col("s"), "m")], &schema).is_none()
        );
        assert!(
            FusedAggKernel::compile(&[], &[], &[AggExpr::max(col("f"), "m")], &schema).is_none()
        );
        // COUNT(*) with an invalid argument keeps erroring via fallback.
        assert!(FusedAggKernel::compile(
            &[],
            &[],
            &[AggExpr::new(AggFunc::CountStar, col("missing"), "n")],
            &schema
        )
        .is_none());
    }
}
