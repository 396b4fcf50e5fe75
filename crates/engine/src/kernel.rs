//! Typed filter→aggregate kernels over raw column slices.
//!
//! The scalar execution path materializes a `Column` of [`Value`]s for
//! every expression node and walks rows through `Value`-typed aggregate
//! updates. These kernels compile the common numeric shapes once per plan
//! — column references, numeric literals, `+ − × ÷ %` arithmetic,
//! comparisons, `AND`/`OR` — and then evaluate each block directly over
//! `&[i64]` / `&[f64]` slices plus validity masks:
//!
//! * predicates produce an **is-true selection mask** (SQL `WHERE`
//!   semantics: NULL is not selected) without building a boolean column;
//! * aggregate inputs evaluate to typed vectors consumed by the typed
//!   [`AggState`] updates, so no per-row `Value` or per-row key `Vec` is
//!   ever allocated;
//! * grouped aggregation keys on a single `i64` expression, or on the
//!   dictionary code of a single STR column, through [`I64GroupMap`].
//!
//! Strings are in the domain only as that group key: a string in a
//! predicate or an aggregate argument, booleans, `NOT`, `IS NULL`,
//! `hash64`, NULL literals, multi-column or FLOAT64 group keys make
//! [`FusedAggKernel::compile`] return `None` and the caller falls back to
//! the scalar path, which remains the semantic reference.
//! Where both paths run, they agree bit-for-bit on every block: the
//! kernels reproduce `eval`'s exact coercions (universal f64 comparison
//! domain, wrapping integer arithmetic, NULL on division by zero).
//!
//! Is-true masks compose under `AND`/`OR` (`t(A∧B) = t(A)∧t(B)`,
//! `t(A∨B) = t(A)∨t(B)`) but **not** under `NOT` (`NOT NULL` is NULL,
//! while `!false = true`), which is why `NOT` is out of scope rather
//! than special-cased.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use aqp_expr::{BinaryOp, Expr};
use aqp_storage::{Block, Column, DataType, Schema, StrDict, Value};

use crate::agg::{AggExpr, AggFunc, AggState, I64GroupMap};
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

/// One block's worth of evaluated numeric values. Leaf columns borrow
/// their slices; computed intermediates own theirs; literals splat.
/// The validity mask (`true` = non-NULL) is absent when every row is
/// valid, matching [`aqp_storage::Column`]'s convention.
enum Vals<'a> {
    I64(Cow<'a, [i64]>, Option<Cow<'a, [bool]>>),
    F64(Cow<'a, [f64]>, Option<Cow<'a, [bool]>>),
    SplatI64(i64),
    SplatF64(f64),
}

impl Vals<'_> {
    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        match self {
            Vals::I64(_, nulls) | Vals::F64(_, nulls) => nulls.as_ref().is_none_or(|m| m[i]),
            Vals::SplatI64(_) | Vals::SplatF64(_) => true,
        }
    }

    /// Whether no row is NULL (enables validity-check-free inner loops).
    fn all_valid(&self) -> bool {
        match self {
            Vals::I64(_, nulls) | Vals::F64(_, nulls) => nulls.is_none(),
            Vals::SplatI64(_) | Vals::SplatF64(_) => true,
        }
    }

    /// Value at `i` in the universal f64 comparison domain (the same
    /// coercion [`Value::sql_cmp`] applies). Only meaningful when
    /// `is_valid(i)`.
    #[inline]
    fn f64_at(&self, i: usize) -> f64 {
        match self {
            Vals::I64(d, _) => d[i] as f64,
            Vals::F64(d, _) => d[i],
            Vals::SplatI64(x) => *x as f64,
            Vals::SplatF64(x) => *x,
        }
    }

    /// Integer value at `i`; panics on float variants (compile-time
    /// typing guarantees int operands for int-out arithmetic).
    #[inline]
    fn i64_at(&self, i: usize) -> i64 {
        match self {
            Vals::I64(d, _) => d[i],
            Vals::SplatI64(x) => *x,
            Vals::F64(..) | Vals::SplatF64(_) => {
                unreachable!("int-typed kernel operand evaluated to float")
            }
        }
    }
}

/// Merges two validity masks (logical AND), staying `None` when both are.
fn merge_validity<'a>(a: &Vals<'a>, b: &Vals<'a>, n: usize) -> Option<Vec<bool>> {
    if a.all_valid() && b.all_valid() {
        return None;
    }
    Some((0..n).map(|i| a.is_valid(i) && b.is_valid(i)).collect())
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
                Vals::I64(
                    Cow::Borrowed(c.i64_values().expect("compiled against INT64 column")),
                    c.validity_mask().map(Cow::Borrowed),
                )
            }
            NumExpr::ColF64(ci) => {
                let c = block.column(*ci);
                Vals::F64(
                    Cow::Borrowed(c.f64_values().expect("compiled against FLOAT64 column")),
                    c.validity_mask().map(Cow::Borrowed),
                )
            }
            NumExpr::LitI64(x) => Vals::SplatI64(*x),
            NumExpr::LitF64(x) => Vals::SplatF64(*x),
            NumExpr::Arith { op, int_out, l, r } => {
                let lv = l.eval(block);
                let rv = r.eval(block);
                let n = block.len();
                if *int_out {
                    eval_arith_int(*op, &lv, &rv, n)
                } else {
                    eval_arith_f64(*op, &lv, &rv, n)
                }
            }
        }
    }
}

/// Integer arithmetic: wrapping ops, NULL on `% 0`, mirroring `eval`.
fn eval_arith_int<'a>(op: BinaryOp, lv: &Vals<'_>, rv: &Vals<'_>, n: usize) -> Vals<'a> {
    let mut validity = merge_validity(lv, rv, n);
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        if !validity.as_ref().is_none_or(|m| m[i]) {
            data.push(0); // placeholder under a NULL slot, never read
            continue;
        }
        let (a, b) = (lv.i64_at(i), rv.i64_at(i));
        let v = match op {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Mod => {
                if b == 0 {
                    validity.get_or_insert_with(|| vec![true; n])[i] = false;
                    data.push(0);
                    continue;
                }
                a.wrapping_rem(b)
            }
            other => unreachable!("non-arithmetic op {other:?} in int kernel"),
        };
        data.push(v);
    }
    Vals::I64(Cow::Owned(data), validity.map(Cow::Owned))
}

/// Float arithmetic (also the mixed-type and division paths): operands
/// coerce to f64 exactly as `eval` does, NULL on `/ 0.0`.
fn eval_arith_f64<'a>(op: BinaryOp, lv: &Vals<'_>, rv: &Vals<'_>, n: usize) -> Vals<'a> {
    let mut validity = merge_validity(lv, rv, n);
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        if !validity.as_ref().is_none_or(|m| m[i]) {
            data.push(0.0);
            continue;
        }
        let (a, b) = (lv.f64_at(i), rv.f64_at(i));
        let v = match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    validity.get_or_insert_with(|| vec![true; n])[i] = false;
                    data.push(0.0);
                    continue;
                }
                a / b
            }
            other => unreachable!("non-arithmetic op {other:?} in float kernel"),
        };
        data.push(v);
    }
    Vals::F64(Cow::Owned(data), validity.map(Cow::Owned))
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

#[inline]
fn cmp_holds(op: BinaryOp, a: f64, b: f64) -> bool {
    // partial_cmp mirrors sql_cmp: NaN on either side selects nothing.
    match a.partial_cmp(&b) {
        None => false,
        Some(ord) => match op {
            BinaryOp::Eq => ord.is_eq(),
            BinaryOp::NotEq => ord.is_ne(),
            BinaryOp::Lt => ord.is_lt(),
            BinaryOp::LtEq => ord.is_le(),
            BinaryOp::Gt => ord.is_gt(),
            BinaryOp::GtEq => ord.is_ge(),
            other => unreachable!("non-comparison op {other:?} in predicate kernel"),
        },
    }
}

impl PredNode {
    /// Evaluates the is-true mask for a block into `out` (cleared first).
    fn fill_mask(&self, block: &Block, out: &mut Vec<bool>) {
        let n = block.len();
        match self {
            PredNode::Cmp { op, l, r } => {
                let lv = l.eval(block);
                let rv = r.eval(block);
                out.clear();
                out.reserve(n);
                if lv.all_valid() && rv.all_valid() {
                    for i in 0..n {
                        out.push(cmp_holds(*op, lv.f64_at(i), rv.f64_at(i)));
                    }
                } else {
                    for i in 0..n {
                        out.push(
                            lv.is_valid(i)
                                && rv.is_valid(i)
                                && cmp_holds(*op, lv.f64_at(i), rv.f64_at(i)),
                        );
                    }
                }
            }
            PredNode::And(a, b) => {
                a.fill_mask(block, out);
                let mut rhs = Vec::new();
                b.fill_mask(block, &mut rhs);
                for (x, y) in out.iter_mut().zip(rhs) {
                    *x = *x && y;
                }
            }
            PredNode::Or(a, b) => {
                a.fill_mask(block, out);
                let mut rhs = Vec::new();
                b.fill_mask(block, &mut rhs);
                for (x, y) in out.iter_mut().zip(rhs) {
                    *x = *x || y;
                }
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
        let mut mask = Vec::new();
        self.node.fill_mask(block, &mut mask);
        mask
    }
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

/// One block's group keys: `i64` values, or codes in the partial's
/// dictionary with the column's validity mask.
enum KeyVals<'a> {
    Int(Vals<'a>),
    Codes(Cow<'a, [u32]>, Option<&'a [bool]>),
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

    /// Folds one block into a partial accumulator. Returns the number of
    /// rows that passed the predicate. `apply_predicates: false` skips
    /// mask evaluation entirely — for blocks whose zone map already
    /// proved every predicate true on every row.
    pub fn accumulate(&self, block: &Block, acc: &mut FoldAcc, apply_predicates: bool) -> u64 {
        let n = block.len();
        let mask = if apply_predicates {
            self.predicate.as_ref().map(|p| p.selection_mask(block))
        } else {
            None
        };
        let selected: u64 = match &mask {
            None => n as u64,
            Some(m) => m.iter().filter(|&&b| b).count() as u64,
        };
        if selected == 0 {
            return 0;
        }
        let key_vals = match (&self.key, &mut *acc) {
            (None, _) => None,
            (Some(KeyExpr::Int(k)), _) => Some(KeyVals::Int(k.eval(block))),
            (Some(KeyExpr::Str(ci)), FoldAcc::Coded { dict, .. }) => {
                let col = block.column(*ci);
                Some(KeyVals::Codes(codes_in(col, dict), col.validity_mask()))
            }
            _ => unreachable!("accumulator shape disagrees with kernel"),
        };
        let agg_vals: Vec<Option<Vals<'_>>> = self
            .inputs
            .iter()
            .map(|inp| match inp {
                AggInput::CountStar => None,
                AggInput::Num(e) => Some(e.eval(block)),
            })
            .collect();
        for i in 0..n {
            if let Some(m) = &mask {
                if !m[i] {
                    continue;
                }
            }
            let states: &mut [AggState] = match (&key_vals, &mut *acc) {
                (None, FoldAcc::Global(states)) => states,
                (Some(KeyVals::Int(kv)), FoldAcc::Grouped(map)) => {
                    if kv.is_valid(i) {
                        map.slot(kv.i64_at(i))
                    } else {
                        map.null_slot()
                    }
                }
                (Some(KeyVals::Codes(codes, valid)), FoldAcc::Coded { groups, .. }) => {
                    if valid.is_none_or(|m| m[i]) {
                        groups.slot(i64::from(codes[i]))
                    } else {
                        groups.null_slot()
                    }
                }
                _ => unreachable!("accumulator shape disagrees with kernel"),
            };
            for (state, vals) in states.iter_mut().zip(&agg_vals) {
                match vals {
                    // COUNT(*) advances on every row, NULL or not — and
                    // update_null is exactly "advance iff COUNT(*)".
                    None => state.update_null(),
                    Some(v) => {
                        if !v.is_valid(i) {
                            state.update_null();
                        } else {
                            match v {
                                Vals::I64(..) | Vals::SplatI64(_) => state.update_i64(v.i64_at(i)),
                                Vals::F64(..) | Vals::SplatF64(_) => state.update_f64(v.f64_at(i)),
                            }
                        }
                    }
                }
            }
        }
        selected
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
            let vals = compiled.eval(&b);
            let scalar = eval(&e, &b).expect("scalar path");
            for i in 0..b.len() {
                let sv = scalar.get(i);
                if sv.is_null() {
                    assert!(!vals.is_valid(i), "{e} row {i}: kernel non-null, eval NULL");
                    continue;
                }
                assert!(vals.is_valid(i), "{e} row {i}: kernel NULL, eval {sv:?}");
                match sv {
                    Value::Int64(x) => assert_eq!(vals.i64_at(i), x, "{e} row {i}"),
                    Value::Float64(x) => {
                        assert_eq!(vals.f64_at(i).to_bits(), x.to_bits(), "{e} row {i}")
                    }
                    other => panic!("unexpected scalar output {other:?}"),
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
        kernel.accumulate(&b, &mut acc, true);
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
        let passed = kernel.accumulate(&b, &mut acc, true);
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
        kernel.accumulate(&b, &mut acc, true);
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
                kernel.accumulate(block, &mut acc, true);
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
        kernel.accumulate(&b, &mut left, true);
        let mut right = kernel.new_acc(None);
        kernel.accumulate(&a, &mut right, true);
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
