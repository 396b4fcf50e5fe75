//! Aggregate functions, group keys, and hash-aggregation state.

use std::collections::HashSet;

use aqp_expr::Expr;
use aqp_mergeable::{tag, wire, CodecError, MergeError, Partial};
use aqp_stats::Moments;
use aqp_storage::codec::{decode_value, encode_value};
use aqp_storage::key::home_slot;
pub use aqp_storage::KeyAtom;
use aqp_storage::{DataType, Schema, Value};
use bytes::{BufMut, Bytes, BytesMut};

use crate::error::EngineError;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `SUM(expr)` (FLOAT64; NULL over an all-NULL input).
    Sum,
    /// `AVG(expr)` (FLOAT64; NULL over an all-NULL input).
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// Exact `COUNT(DISTINCT expr)` — the expensive baseline the distinct
    /// sketches (E5) are compared against.
    CountDistinct,
    /// Unbiased sample variance `VAR_SAMP(expr)`.
    VarSamp,
}

impl AggFunc {
    /// Output type of the aggregate given its input type.
    pub fn output_type(&self, input: DataType) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct => DataType::Int64,
            AggFunc::Sum | AggFunc::Avg | AggFunc::VarSamp => DataType::Float64,
            AggFunc::Min | AggFunc::Max => input,
        }
    }

    /// Whether the estimate of this aggregate from a uniform sample scales
    /// linearly with inclusion probabilities (SUM/COUNT do; MIN/MAX and
    /// COUNT DISTINCT do not). This is the line NSB draws between aggregates
    /// sampling can answer and those it cannot.
    pub fn is_linear(&self) -> bool {
        matches!(
            self,
            AggFunc::CountStar | AggFunc::Count | AggFunc::Sum | AggFunc::Avg
        )
    }
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::CountDistinct => "COUNT(DISTINCT)",
            AggFunc::VarSamp => "VAR_SAMP",
        };
        f.write_str(s)
    }
}

/// One aggregate in a query: a function, its argument, and an output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The argument (ignored for `COUNT(*)`).
    pub expr: Expr,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// Creates an aggregate expression.
    pub fn new(func: AggFunc, expr: Expr, alias: impl Into<String>) -> Self {
        Self {
            func,
            expr,
            alias: alias.into(),
        }
    }

    /// `COUNT(*) AS alias`.
    pub fn count_star(alias: impl Into<String>) -> Self {
        Self::new(AggFunc::CountStar, aqp_expr::lit(1i64), alias)
    }

    /// `SUM(expr) AS alias`.
    pub fn sum(expr: Expr, alias: impl Into<String>) -> Self {
        Self::new(AggFunc::Sum, expr, alias)
    }

    /// `AVG(expr) AS alias`.
    pub fn avg(expr: Expr, alias: impl Into<String>) -> Self {
        Self::new(AggFunc::Avg, expr, alias)
    }

    /// `MIN(expr) AS alias`.
    pub fn min(expr: Expr, alias: impl Into<String>) -> Self {
        Self::new(AggFunc::Min, expr, alias)
    }

    /// `MAX(expr) AS alias`.
    pub fn max(expr: Expr, alias: impl Into<String>) -> Self {
        Self::new(AggFunc::Max, expr, alias)
    }

    /// `COUNT(DISTINCT expr) AS alias`.
    pub fn count_distinct(expr: Expr, alias: impl Into<String>) -> Self {
        Self::new(AggFunc::CountDistinct, expr, alias)
    }

    /// Output type against an input schema.
    pub fn output_type(&self, schema: &Schema) -> Result<DataType, EngineError> {
        match self.func {
            AggFunc::CountStar => Ok(DataType::Int64),
            _ => Ok(self.func.output_type(self.expr.data_type(schema)?)),
        }
    }
}

/// A composite group key.
pub type GroupKey = Vec<KeyAtom>;

/// Running state for one aggregate within one group.
#[derive(Debug, Clone)]
pub enum AggState {
    /// Row counter.
    CountStar(u64),
    /// Non-NULL counter.
    Count(u64),
    /// Sum with a saw-any-value flag (SQL SUM of nothing is NULL).
    Sum {
        /// Accumulated sum.
        sum: f64,
        /// Whether any non-NULL input arrived.
        saw: bool,
    },
    /// Average accumulator.
    Avg {
        /// Accumulated sum.
        sum: f64,
        /// Count of non-NULL inputs.
        count: u64,
    },
    /// Minimum tracker.
    Min(Option<Value>),
    /// Maximum tracker.
    Max(Option<Value>),
    /// Exact distinct set.
    CountDistinct(HashSet<KeyAtom>),
    /// Variance accumulator.
    VarSamp(Moments),
}

impl AggState {
    /// Fresh state for a function.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::CountStar => AggState::CountStar(0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                saw: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
            AggFunc::VarSamp => AggState::VarSamp(Moments::new()),
        }
    }

    /// Feeds one input value into the state.
    pub fn update(&mut self, value: &Value) {
        match self {
            AggState::CountStar(n) => *n += 1,
            AggState::Count(n) => {
                if !value.is_null() {
                    *n += 1;
                }
            }
            AggState::Sum { sum, saw } => {
                if let Some(x) = value.as_f64() {
                    *sum += x;
                    *saw = true;
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(x) = value.as_f64() {
                    *sum += x;
                    *count += 1;
                }
            }
            AggState::Min(best) => {
                if !value.is_null() {
                    let better = match best {
                        None => true,
                        Some(b) => matches!(value.sql_cmp(b), Some(std::cmp::Ordering::Less)),
                    };
                    if better {
                        *best = Some(value.clone());
                    }
                }
            }
            AggState::Max(best) => {
                if !value.is_null() {
                    let better = match best {
                        None => true,
                        Some(b) => matches!(value.sql_cmp(b), Some(std::cmp::Ordering::Greater)),
                    };
                    if better {
                        *best = Some(value.clone());
                    }
                }
            }
            AggState::CountDistinct(set) => {
                if !value.is_null() {
                    set.insert(KeyAtom::from_value(value));
                }
            }
            AggState::VarSamp(m) => {
                if let Some(x) = value.as_f64() {
                    m.push(x);
                }
            }
        }
    }

    /// Typed fast path for [`AggState::update`] with an `f64` input.
    /// Bitwise-identical to `update(&Value::Float64(x))` — the comparisons
    /// mirror [`Value::sql_cmp`]'s universal f64 coercion, including the
    /// first-NaN-sticks MIN/MAX quirk (NaN comparisons are never "better",
    /// but a NaN that arrives while the tracker is empty is kept).
    #[inline]
    pub fn update_f64(&mut self, x: f64) {
        match self {
            AggState::CountStar(n) | AggState::Count(n) => *n += 1,
            AggState::Sum { sum, saw } => {
                *sum += x;
                *saw = true;
            }
            AggState::Avg { sum, count } => {
                *sum += x;
                *count += 1;
            }
            AggState::Min(best) => {
                let better = match best {
                    None => true,
                    Some(b) => matches!(
                        b.as_f64().and_then(|bf| x.partial_cmp(&bf)),
                        Some(std::cmp::Ordering::Less)
                    ),
                };
                if better {
                    *best = Some(Value::Float64(x));
                }
            }
            AggState::Max(best) => {
                let better = match best {
                    None => true,
                    Some(b) => matches!(
                        b.as_f64().and_then(|bf| x.partial_cmp(&bf)),
                        Some(std::cmp::Ordering::Greater)
                    ),
                };
                if better {
                    *best = Some(Value::Float64(x));
                }
            }
            AggState::CountDistinct(set) => {
                set.insert(KeyAtom::from_value(&Value::Float64(x)));
            }
            AggState::VarSamp(m) => m.push(x),
        }
    }

    /// Typed fast path for [`AggState::update`] with an `i64` input.
    /// Bitwise-identical to `update(&Value::Int64(x))`: SUM/AVG/VAR see
    /// `x as f64` (the `as_f64` coercion), MIN/MAX compare in f64 but
    /// store the integer value, COUNT DISTINCT keys on `KeyAtom::Int`.
    #[inline]
    pub fn update_i64(&mut self, x: i64) {
        match self {
            AggState::CountStar(n) | AggState::Count(n) => *n += 1,
            AggState::Sum { sum, saw } => {
                *sum += x as f64;
                *saw = true;
            }
            AggState::Avg { sum, count } => {
                *sum += x as f64;
                *count += 1;
            }
            AggState::Min(best) => {
                let better = match best {
                    None => true,
                    Some(b) => matches!(
                        b.as_f64().and_then(|bf| (x as f64).partial_cmp(&bf)),
                        Some(std::cmp::Ordering::Less)
                    ),
                };
                if better {
                    *best = Some(Value::Int64(x));
                }
            }
            AggState::Max(best) => {
                let better = match best {
                    None => true,
                    Some(b) => matches!(
                        b.as_f64().and_then(|bf| (x as f64).partial_cmp(&bf)),
                        Some(std::cmp::Ordering::Greater)
                    ),
                };
                if better {
                    *best = Some(Value::Int64(x));
                }
            }
            AggState::CountDistinct(set) => {
                set.insert(KeyAtom::Int(x));
            }
            AggState::VarSamp(m) => m.push(x as f64),
        }
    }

    /// Typed fast path for a NULL input: only `COUNT(*)` advances.
    #[inline]
    pub fn update_null(&mut self) {
        if let AggState::CountStar(n) = self {
            *n += 1;
        }
    }

    /// Absorbs another partial state for the same aggregate function
    /// (two-phase aggregation: thread-local partials, then a merge pass).
    ///
    /// `self` must be the *earlier* partial in morsel order: MIN/MAX keep
    /// `self`'s value on ties, exactly as the serial fold keeps the first
    /// occurrence, so merging partials in morsel order reproduces the
    /// serial result.
    ///
    /// # Panics
    /// Panics if the two states belong to different aggregate functions.
    pub fn merge(&mut self, other: AggState) {
        match (&mut *self, other) {
            (AggState::CountStar(a), AggState::CountStar(b)) => *a += b,
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Sum { sum, saw },
                AggState::Sum {
                    sum: other_sum,
                    saw: other_saw,
                },
            ) => {
                *sum += other_sum;
                *saw |= other_saw;
            }
            (
                AggState::Avg { sum, count },
                AggState::Avg {
                    sum: other_sum,
                    count: other_count,
                },
            ) => {
                *sum += other_sum;
                *count += other_count;
            }
            // Strict-improvement comparisons, as in update(): ties keep the
            // earlier partial, matching the serial fold's first-wins rule.
            (AggState::Min(best), AggState::Min(other_best)) => {
                if let Some(v) = other_best {
                    let better = match best {
                        None => true,
                        Some(b) => matches!(v.sql_cmp(b), Some(std::cmp::Ordering::Less)),
                    };
                    if better {
                        *best = Some(v);
                    }
                }
            }
            (AggState::Max(best), AggState::Max(other_best)) => {
                if let Some(v) = other_best {
                    let better = match best {
                        None => true,
                        Some(b) => matches!(v.sql_cmp(b), Some(std::cmp::Ordering::Greater)),
                    };
                    if better {
                        *best = Some(v);
                    }
                }
            }
            (AggState::CountDistinct(set), AggState::CountDistinct(other_set)) => {
                set.extend(other_set);
            }
            (AggState::VarSamp(m), AggState::VarSamp(other_m)) => {
                *m = Moments::merge(m, &other_m);
            }
            (a, b) => panic!("cannot merge mismatched aggregate states {a:?} / {b:?}"),
        }
    }

    /// Fallible variant of [`AggState::merge`] for the [`Partial`]
    /// contract: a function mismatch is a typed
    /// [`MergeError::Incompatible`] instead of a panic, and `self` is left
    /// unchanged on error. The panicking by-value `merge` remains the hot
    /// path inside the operators, where the planner guarantees alignment.
    pub fn try_merge(&mut self, other: &AggState) -> Result<(), MergeError> {
        if std::mem::discriminant(self) != std::mem::discriminant(other) {
            return Err(MergeError::Incompatible {
                kind: "agg-state",
                expected: self.state_name().to_string(),
                found: other.state_name().to_string(),
            });
        }
        self.merge(other.clone());
        Ok(())
    }

    fn state_name(&self) -> &'static str {
        match self {
            AggState::CountStar(_) => "COUNT(*)",
            AggState::Count(_) => "COUNT",
            AggState::Sum { .. } => "SUM",
            AggState::Avg { .. } => "AVG",
            AggState::Min(_) => "MIN",
            AggState::Max(_) => "MAX",
            AggState::CountDistinct(_) => "COUNT(DISTINCT)",
            AggState::VarSamp(_) => "VAR_SAMP",
        }
    }

    /// Finalizes the state to an output value.
    pub fn finish(&self) -> Value {
        match self {
            AggState::CountStar(n) | AggState::Count(n) => Value::Int64(*n as i64),
            AggState::Sum { sum, saw } => {
                if *saw {
                    Value::Float64(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if *count > 0 {
                    Value::Float64(*sum / *count as f64)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::CountDistinct(set) => Value::Int64(set.len() as i64),
            AggState::VarSamp(m) => {
                let v = m.variance();
                if v.is_nan() {
                    Value::Null
                } else {
                    Value::Float64(v)
                }
            }
        }
    }
}

const STATE_COUNT_STAR: u8 = 0;
const STATE_COUNT: u8 = 1;
const STATE_SUM: u8 = 2;
const STATE_AVG: u8 = 3;
const STATE_MIN: u8 = 4;
const STATE_MAX: u8 = 5;
const STATE_COUNT_DISTINCT: u8 = 6;
const STATE_VAR_SAMP: u8 = 7;

/// Decoder cap: a distinct set larger than this is corrupt, not data.
const MAX_DISTINCT: usize = 1 << 28;

fn encode_opt_value(buf: &mut BytesMut, v: &Option<Value>) {
    match v {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            encode_value(buf, v);
        }
    }
}

fn decode_opt_value(buf: &mut &[u8]) -> Result<Option<Value>, CodecError> {
    match wire::read_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(decode_value(buf)?)),
        _ => Err(CodecError::BadDimensions),
    }
}

/// Aggregate partials ship between shards as a variant byte plus the
/// variant's accumulator fields; MIN/MAX carry their candidate through the
/// scalar value codec and VAR_SAMP embeds the [`Moments`] partial's own
/// length-prefixed wire form.
impl Partial for AggState {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        self.try_merge(other)
    }

    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        wire::write_header(&mut buf, tag::AGG_STATE);
        match self {
            AggState::CountStar(n) => {
                buf.put_u8(STATE_COUNT_STAR);
                buf.put_u64(*n);
            }
            AggState::Count(n) => {
                buf.put_u8(STATE_COUNT);
                buf.put_u64(*n);
            }
            AggState::Sum { sum, saw } => {
                buf.put_u8(STATE_SUM);
                wire::write_f64(&mut buf, *sum);
                buf.put_u8(u8::from(*saw));
            }
            AggState::Avg { sum, count } => {
                buf.put_u8(STATE_AVG);
                wire::write_f64(&mut buf, *sum);
                buf.put_u64(*count);
            }
            AggState::Min(best) => {
                buf.put_u8(STATE_MIN);
                encode_opt_value(&mut buf, best);
            }
            AggState::Max(best) => {
                buf.put_u8(STATE_MAX);
                encode_opt_value(&mut buf, best);
            }
            AggState::CountDistinct(set) => {
                buf.put_u8(STATE_COUNT_DISTINCT);
                buf.put_u32(set.len() as u32);
                for atom in set {
                    encode_value(&mut buf, &atom.to_value());
                }
            }
            AggState::VarSamp(m) => {
                buf.put_u8(STATE_VAR_SAMP);
                let inner = Partial::to_bytes(m);
                buf.put_u32(inner.len() as u32);
                buf.put_slice(&inner);
            }
        }
        buf.freeze()
    }

    fn from_bytes(mut buf: &[u8]) -> Result<Self, CodecError> {
        let buf = &mut buf;
        wire::read_header(buf, tag::AGG_STATE)?;
        match wire::read_u8(buf)? {
            STATE_COUNT_STAR => Ok(AggState::CountStar(wire::read_u64(buf)?)),
            STATE_COUNT => Ok(AggState::Count(wire::read_u64(buf)?)),
            STATE_SUM => Ok(AggState::Sum {
                sum: wire::read_f64(buf)?,
                saw: wire::read_u8(buf)? != 0,
            }),
            STATE_AVG => Ok(AggState::Avg {
                sum: wire::read_f64(buf)?,
                count: wire::read_u64(buf)?,
            }),
            STATE_MIN => Ok(AggState::Min(decode_opt_value(buf)?)),
            STATE_MAX => Ok(AggState::Max(decode_opt_value(buf)?)),
            STATE_COUNT_DISTINCT => {
                let n = wire::read_u32(buf)? as usize;
                if n > MAX_DISTINCT {
                    return Err(CodecError::BadDimensions);
                }
                let mut set = HashSet::with_capacity(n.min(4096));
                for _ in 0..n {
                    set.insert(KeyAtom::from_value(&decode_value(buf)?));
                }
                Ok(AggState::CountDistinct(set))
            }
            STATE_VAR_SAMP => {
                let len = wire::read_u32(buf)? as usize;
                wire::need(buf, len)?;
                let m = Moments::from_bytes(&buf[..len])?;
                *buf = &buf[len..];
                Ok(AggState::VarSamp(m))
            }
            _ => Err(CodecError::BadDimensions),
        }
    }
}

/// One dense group: its `i64` key and per-aggregate states.
pub type GroupStates = (i64, Vec<AggState>);

/// An open-addressing hash map specialized for single-`i64` group keys,
/// the shape the fused aggregation kernel handles (`GROUP BY int_col` and
/// `GROUP BY int_col % k`). Groups live in a dense `Vec` in first-seen
/// order — the property the tree merge relies on to stay deterministic —
/// and the table stores 1-based indices into it (0 = empty slot).
///
/// NULL keys get a dedicated side slot rather than a sentinel, so the
/// full `i64` domain remains usable as keys.
#[derive(Debug)]
pub struct I64GroupMap {
    /// Probe table of `group_index + 1` entries; 0 marks an empty slot.
    table: Vec<u32>,
    /// Dense groups in first-seen order.
    groups: Vec<GroupStates>,
    null_group: Option<Vec<AggState>>,
    funcs: Vec<AggFunc>,
}

impl I64GroupMap {
    /// Creates a map for the given aggregate functions, pre-sizing the
    /// probe table for `capacity_hint` expected groups (the static
    /// analyzer's cardinality hint) so the hot loop never rehashes.
    pub fn new(funcs: Vec<AggFunc>, capacity_hint: usize) -> Self {
        let cap = (capacity_hint.clamp(8, 1 << 24) * 2).next_power_of_two();
        Self {
            table: vec![0; cap],
            groups: Vec::new(),
            null_group: None,
            funcs,
        }
    }

    fn fresh_states(&self) -> Vec<AggState> {
        self.funcs.iter().map(|f| AggState::new(*f)).collect()
    }

    fn find_or_insert(&mut self, key: i64) -> usize {
        // Keep load factor under 3/4 so linear probes stay short.
        if (self.groups.len() + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut i = home_slot(key, mask);
        loop {
            match self.table[i] {
                0 => {
                    self.table[i] =
                        u32::try_from(self.groups.len() + 1).expect("more than u32::MAX-1 groups");
                    let states = self.fresh_states();
                    self.groups.push((key, states));
                    return self.groups.len() - 1;
                }
                e => {
                    let gi = (e - 1) as usize;
                    if self.groups[gi].0 == key {
                        return gi;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        let mask = new_cap - 1;
        let mut table = vec![0u32; new_cap];
        for (gi, (key, _)) in self.groups.iter().enumerate() {
            let mut i = home_slot(*key, mask);
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = u32::try_from(gi + 1).expect("more than u32::MAX-1 groups");
        }
        self.table = table;
    }

    /// The aggregate states for `key`, creating the group on first sight.
    #[inline]
    pub fn slot(&mut self, key: i64) -> &mut [AggState] {
        let gi = self.find_or_insert(key);
        &mut self.groups[gi].1
    }

    /// The aggregate states for the NULL key.
    pub fn null_slot(&mut self) -> &mut [AggState] {
        if self.null_group.is_none() {
            self.null_group = Some(self.fresh_states());
        }
        self.null_group.as_mut().expect("just initialized")
    }

    /// Number of non-NULL groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the map holds no groups at all (NULL group included).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty() && self.null_group.is_none()
    }

    /// Absorbs `other`'s partials. `self` must cover the *earlier* morsels:
    /// per group, states merge via [`AggState::merge`] with `self` on the
    /// left, so float summation order — and therefore the bits of the
    /// result — is fixed by morsel order, not thread schedule. `other`'s
    /// first-seen group order is preserved for groups new to `self`.
    pub fn merge_from(&mut self, other: I64GroupMap) {
        self.merge_rekeyed(other, |key| key);
    }

    /// [`I64GroupMap::merge_from`] with each of `other`'s keys passed
    /// through `rekey` first — an injective map into `self`'s key domain
    /// (a string code re-interned into another dictionary).
    pub(crate) fn merge_rekeyed(&mut self, other: I64GroupMap, mut rekey: impl FnMut(i64) -> i64) {
        for (key, states) in other.groups {
            let slot = self.slot(rekey(key));
            for (a, b) in slot.iter_mut().zip(states) {
                a.merge(b);
            }
        }
        if let Some(states) = other.null_group {
            let slot = self.null_slot();
            for (a, b) in slot.iter_mut().zip(states) {
                a.merge(b);
            }
        }
    }

    /// Consumes the map, yielding dense groups in first-seen order plus
    /// the NULL group, if any.
    pub fn into_groups(self) -> (Vec<GroupStates>, Option<Vec<AggState>>) {
        (self.groups, self.null_group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_expr::col;

    #[test]
    fn count_semantics() {
        let mut star = AggState::new(AggFunc::CountStar);
        let mut cnt = AggState::new(AggFunc::Count);
        for v in [Value::Int64(1), Value::Null, Value::Int64(3)] {
            star.update(&v);
            cnt.update(&v);
        }
        assert_eq!(star.finish(), Value::Int64(3));
        assert_eq!(cnt.finish(), Value::Int64(2));
    }

    #[test]
    fn sum_avg_null_handling() {
        let mut sum = AggState::new(AggFunc::Sum);
        let mut avg = AggState::new(AggFunc::Avg);
        assert_eq!(sum.finish(), Value::Null); // SUM of nothing is NULL
        assert_eq!(avg.finish(), Value::Null);
        for v in [Value::Float64(1.0), Value::Null, Value::Float64(3.0)] {
            sum.update(&v);
            avg.update(&v);
        }
        assert_eq!(sum.finish(), Value::Float64(4.0));
        assert_eq!(avg.finish(), Value::Float64(2.0)); // NULLs excluded
    }

    #[test]
    fn min_max_ignore_nulls() {
        let mut min = AggState::new(AggFunc::Min);
        let mut max = AggState::new(AggFunc::Max);
        for v in [
            Value::Null,
            Value::Int64(5),
            Value::Int64(2),
            Value::Int64(9),
        ] {
            min.update(&v);
            max.update(&v);
        }
        assert_eq!(min.finish(), Value::Int64(2));
        assert_eq!(max.finish(), Value::Int64(9));
    }

    #[test]
    fn count_distinct_exact() {
        let mut cd = AggState::new(AggFunc::CountDistinct);
        for v in [
            Value::Int64(1),
            Value::Int64(1),
            Value::Float64(1.0), // canonicalizes onto Int(1)
            Value::Int64(2),
            Value::Null,
        ] {
            cd.update(&v);
        }
        assert_eq!(cd.finish(), Value::Int64(2));
    }

    #[test]
    fn var_samp() {
        let mut v = AggState::new(AggFunc::VarSamp);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            v.update(&Value::Float64(x));
        }
        match v.finish() {
            Value::Float64(x) => assert!((x - 32.0 / 7.0).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(AggState::new(AggFunc::VarSamp).finish(), Value::Null);
    }

    #[test]
    fn merge_equals_serial_fold() {
        // For every function: split a stream in two, fold each half into a
        // partial, merge, and compare against the single serial fold.
        let values = [
            Value::Float64(3.0),
            Value::Null,
            Value::Int64(-2),
            Value::Float64(7.5),
            Value::Int64(5),
            Value::Float64(3.0),
        ];
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
        ] {
            let mut serial = AggState::new(func);
            for v in &values {
                serial.update(v);
            }
            for split in 0..=values.len() {
                let mut left = AggState::new(func);
                let mut right = AggState::new(func);
                for v in &values[..split] {
                    left.update(v);
                }
                for v in &values[split..] {
                    right.update(v);
                }
                left.merge(right);
                assert_eq!(left.finish(), serial.finish(), "{func} split at {split}");
            }
        }
    }

    #[test]
    fn merge_var_samp_matches_serial_closely() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut serial = AggState::new(AggFunc::VarSamp);
        let mut left = AggState::new(AggFunc::VarSamp);
        let mut right = AggState::new(AggFunc::VarSamp);
        for (i, &x) in xs.iter().enumerate() {
            serial.update(&Value::Float64(x));
            if i < 3 {
                left.update(&Value::Float64(x));
            } else {
                right.update(&Value::Float64(x));
            }
        }
        left.merge(right);
        let (Value::Float64(a), Value::Float64(b)) = (left.finish(), serial.finish()) else {
            panic!("expected float variances");
        };
        assert!((a - b).abs() < 1e-12, "merged {a} vs serial {b}");
    }

    #[test]
    fn merge_empty_partial_is_identity() {
        let mut sum = AggState::new(AggFunc::Sum);
        sum.update(&Value::Float64(2.5));
        sum.merge(AggState::new(AggFunc::Sum));
        assert_eq!(sum.finish(), Value::Float64(2.5));
        let mut min = AggState::new(AggFunc::Min);
        min.merge(AggState::new(AggFunc::Min));
        assert_eq!(min.finish(), Value::Null);
    }

    #[test]
    #[should_panic(expected = "mismatched aggregate states")]
    fn merge_mismatched_states_panics() {
        let mut a = AggState::new(AggFunc::Sum);
        a.merge(AggState::new(AggFunc::Count));
    }

    #[test]
    fn try_merge_rejects_mismatch_without_panicking() {
        let mut a = AggState::new(AggFunc::Sum);
        a.update_f64(2.5);
        let err = a.try_merge(&AggState::new(AggFunc::Count)).unwrap_err();
        assert!(matches!(
            err,
            MergeError::Incompatible {
                kind: "agg-state",
                ..
            }
        ));
        assert_eq!(a.finish(), Value::Float64(2.5), "self unchanged on error");

        let mut b = AggState::new(AggFunc::Sum);
        b.update_f64(1.5);
        a.try_merge(&b).unwrap();
        assert_eq!(a.finish(), Value::Float64(4.0));
    }

    #[test]
    fn agg_state_partial_roundtrips_every_variant() {
        let values = [
            Value::Float64(3.0),
            Value::Null,
            Value::Int64(-2),
            Value::str("zeta"),
            Value::Bool(true),
            Value::Float64(7.5),
        ];
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
            AggFunc::VarSamp,
        ] {
            for feed in [0, values.len()] {
                let mut state = AggState::new(func);
                for v in &values[..feed] {
                    state.update(v);
                }
                let bytes = Partial::to_bytes(&state);
                let back = AggState::from_bytes(&bytes).unwrap();
                assert_eq!(
                    format!("{:?}", back.finish()),
                    format!("{:?}", state.finish()),
                    "{func} fed {feed}"
                );
                // Decoded partials keep merging.
                let mut merged = back;
                Partial::merge(&mut merged, &state).unwrap();
                // And corruption is an error, never a panic.
                for cut in 0..bytes.len() {
                    assert!(
                        AggState::from_bytes(&bytes[..cut]).is_err(),
                        "{func} cut {cut}"
                    );
                }
            }
        }
        let mut wrong = Partial::to_bytes(&AggState::new(AggFunc::Sum)).to_vec();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            AggState::from_bytes(&wrong),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn key_atom_canonicalization() {
        assert_eq!(
            KeyAtom::from_value(&Value::Float64(3.0)),
            KeyAtom::from_value(&Value::Int64(3))
        );
        assert_eq!(
            KeyAtom::from_value(&Value::Float64(-0.0)),
            KeyAtom::from_value(&Value::Float64(0.0))
        );
        assert_ne!(
            KeyAtom::from_value(&Value::Float64(3.5)),
            KeyAtom::from_value(&Value::Int64(3))
        );
        assert!(KeyAtom::from_value(&Value::Null).is_null());
        // NaN folds onto a single atom.
        assert_eq!(
            KeyAtom::from_value(&Value::Float64(f64::NAN)),
            KeyAtom::from_value(&Value::Float64(-f64::NAN))
        );
    }

    #[test]
    fn key_atom_roundtrip() {
        for v in [
            Value::Null,
            Value::Int64(-5),
            Value::Float64(2.5),
            Value::str("k"),
            Value::Bool(true),
        ] {
            let atom = KeyAtom::from_value(&v);
            assert_eq!(atom.to_value(), v);
        }
    }

    #[test]
    fn typed_updates_match_value_updates() {
        let inputs: [(Option<f64>, Option<i64>); 6] = [
            (Some(3.0), Some(3)),
            (None, None),
            (Some(-2.5), Some(-2)),
            (Some(f64::NAN), Some(i64::MAX)),
            (Some(0.5), Some(7)),
            (Some(3.0), Some(3)),
        ];
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
            AggFunc::VarSamp,
        ] {
            let mut vf = AggState::new(func);
            let mut tf = AggState::new(func);
            let mut vi = AggState::new(func);
            let mut ti = AggState::new(func);
            for (f, i) in &inputs {
                match f {
                    Some(x) => {
                        vf.update(&Value::Float64(*x));
                        tf.update_f64(*x);
                    }
                    None => {
                        vf.update(&Value::Null);
                        tf.update_null();
                    }
                }
                match i {
                    Some(x) => {
                        vi.update(&Value::Int64(*x));
                        ti.update_i64(*x);
                    }
                    None => {
                        vi.update(&Value::Null);
                        ti.update_null();
                    }
                }
            }
            // Compare finished values bit-for-bit (NaN-safe).
            let bits = |v: Value| match v {
                Value::Float64(x) => format!("f{}", x.to_bits()),
                other => format!("{other:?}"),
            };
            assert_eq!(bits(vf.finish()), bits(tf.finish()), "{func} f64 path");
            assert_eq!(bits(vi.finish()), bits(ti.finish()), "{func} i64 path");
        }
    }

    #[test]
    fn typed_min_keeps_first_nan_like_value_path() {
        let mut via_value = AggState::new(AggFunc::Min);
        let mut typed = AggState::new(AggFunc::Min);
        for x in [f64::NAN, 1.0, -5.0] {
            via_value.update(&Value::Float64(x));
            typed.update_f64(x);
        }
        let (Value::Float64(a), Value::Float64(b)) = (via_value.finish(), typed.finish()) else {
            panic!("expected floats");
        };
        assert_eq!(a.to_bits(), b.to_bits()); // both keep the first NaN
    }

    #[test]
    fn group_map_basics_and_order() {
        let mut m = I64GroupMap::new(vec![AggFunc::CountStar, AggFunc::Sum], 4);
        for (k, v) in [(7i64, 1.0), (3, 2.0), (7, 3.0), (-1, 4.0)] {
            let slot = m.slot(k);
            slot[0].update_null();
            slot[1].update_f64(v);
        }
        m.null_slot()[0].update_null();
        m.null_slot()[1].update_f64(10.0);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        let (groups, null) = m.into_groups();
        // First-seen order.
        let keys: Vec<i64> = groups.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![7, 3, -1]);
        assert_eq!(groups[0].1[1].finish(), Value::Float64(4.0));
        assert_eq!(null.expect("null group")[1].finish(), Value::Float64(10.0));
    }

    #[test]
    fn group_map_grows_past_hint() {
        // Hint of 2 but 10k distinct keys: forces several rehashes.
        let mut m = I64GroupMap::new(vec![AggFunc::Count], 2);
        for k in 0..10_000i64 {
            m.slot(k * 1_000_003)[0].update_i64(k);
        }
        assert_eq!(m.len(), 10_000);
        let (groups, null) = m.into_groups();
        assert!(null.is_none());
        assert!(groups.iter().all(|(_, s)| s[0].finish() == Value::Int64(1)));
    }

    #[test]
    fn group_map_merge_matches_single_map() {
        let funcs = vec![AggFunc::Sum, AggFunc::Min];
        let feed = |m: &mut I64GroupMap, rows: &[(i64, f64)]| {
            for (k, v) in rows {
                let slot = m.slot(*k);
                slot[0].update_f64(*v);
                slot[1].update_f64(*v);
            }
        };
        let rows = [(1i64, 0.1), (2, 0.2), (1, 0.3), (3, 0.4), (2, 0.5)];
        let mut single = I64GroupMap::new(funcs.clone(), 4);
        feed(&mut single, &rows);
        let mut left = I64GroupMap::new(funcs.clone(), 4);
        let mut right = I64GroupMap::new(funcs, 4);
        feed(&mut left, &rows[..2]);
        feed(&mut right, &rows[2..]);
        left.merge_from(right);
        let (a, _) = single.into_groups();
        let (mut b, _) = left.into_groups();
        b.sort_by_key(|(k, _)| *k);
        let mut a = a;
        a.sort_by_key(|(k, _)| *k);
        for ((ka, sa), (kb, sb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            for (x, y) in sa.iter().zip(sb) {
                assert_eq!(format!("{:?}", x.finish()), format!("{:?}", y.finish()));
            }
        }
    }

    #[test]
    fn linearity_classification() {
        assert!(AggFunc::Sum.is_linear());
        assert!(AggFunc::CountStar.is_linear());
        assert!(!AggFunc::Min.is_linear());
        assert!(!AggFunc::CountDistinct.is_linear());
    }

    #[test]
    fn agg_expr_builders_and_types() {
        let schema = Schema::new(vec![aqp_storage::Field::new("x", DataType::Int64)]);
        assert_eq!(
            AggExpr::count_star("c").output_type(&schema).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggExpr::sum(col("x"), "s").output_type(&schema).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggExpr::min(col("x"), "m").output_type(&schema).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggExpr::count_distinct(col("x"), "d")
                .output_type(&schema)
                .unwrap(),
            DataType::Int64
        );
        assert_eq!(format!("{}", AggFunc::Avg), "AVG");
    }
}
