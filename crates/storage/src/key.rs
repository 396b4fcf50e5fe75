//! Canonical keys and the key index: key → run of row positions.
//!
//! Equality on keys — `GROUP BY`, equi-join, `COUNT(DISTINCT)` — is
//! decided on [`KeyAtom`], the one canonical form of a [`Value`]. A
//! [`KeyIndex`] maps every canonical key of one key column to the
//! positions of the rows that carry it, in row order. A
//! [`Table`](crate::Table) builds the index of a column on first use and
//! keeps it for as long as the table lives (tables are immutable, so it
//! is never invalidated); the engine builds a transient one of the same
//! shape over a join input that is not a stored column.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::Column;
use crate::value::Value;

/// A hashable, equatable canonical form of a [`Value`] for group-by keys,
/// join keys, and exact distinct counting.
///
/// Floats are canonicalized (integral floats fold onto integers, `-0.0`
/// onto `0.0`) so `GROUP BY` agrees with [`Value::sql_cmp`] equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyAtom {
    /// NULL (groups together in GROUP BY, per SQL).
    Null,
    /// Canonical integer.
    Int(i64),
    /// Non-integral float, by bit pattern.
    FloatBits(u64),
    /// String.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl KeyAtom {
    /// Canonicalizes a value.
    pub fn from_value(v: &Value) -> KeyAtom {
        match v {
            Value::Null => KeyAtom::Null,
            Value::Int64(i) => KeyAtom::Int(*i),
            Value::Float64(f) => {
                let f = if *f == 0.0 { 0.0 } else { *f }; // fold -0.0
                if f.fract() == 0.0 && f.abs() < 9.0e18 {
                    KeyAtom::Int(f as i64)
                } else if f.is_nan() {
                    KeyAtom::FloatBits(f64::NAN.to_bits())
                } else {
                    KeyAtom::FloatBits(f.to_bits())
                }
            }
            Value::Str(s) => KeyAtom::Str(Arc::clone(s)),
            Value::Bool(b) => KeyAtom::Bool(*b),
        }
    }

    /// Whether the atom is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, KeyAtom::Null)
    }

    /// Back-conversion to a value (floats reconstructed from bits).
    pub fn to_value(&self) -> Value {
        match self {
            KeyAtom::Null => Value::Null,
            KeyAtom::Int(i) => Value::Int64(*i),
            KeyAtom::FloatBits(b) => Value::Float64(f64::from_bits(*b)),
            KeyAtom::Str(s) => Value::Str(Arc::clone(s)),
            KeyAtom::Bool(b) => Value::Bool(*b),
        }
    }
}

/// Where an indexed row lives: block within the indexed input, row
/// within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPos {
    /// Block index.
    pub block: u32,
    /// Row offset within the block.
    pub row: u32,
}

/// Fibonacci multiplier for spreading `i64` keys across the probe table.
const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// A direct-address array is used while the key range is at most this
/// many slots per indexed row (plus a small floor): surrogate keys are
/// dense, and a slot costs 4 bytes against the 12+ of a hashed entry.
const DENSE_SLOTS_PER_ROW: usize = 4;

/// Entry id of a NULL key's row during the build: NULL keys never join
/// and are not indexed.
const NO_ENTRY: u32 = u32::MAX;

/// How a canonical key finds its entry (its run of positions).
#[derive(Debug)]
enum Lookup {
    /// INT64 keys in a narrow range: entry = `key − min`.
    Dense { min: i64 },
    /// INT64 keys, open addressing: `table` holds `entry + 1` (0 = empty
    /// slot), `keys[entry]` the key.
    Hashed { table: Vec<u32>, keys: Vec<i64> },
    /// Every other key type, canonicalized.
    Atoms(HashMap<KeyAtom, u32>),
}

/// Canonical key → positions of the rows carrying it, over the blocks of
/// one key column. NULL keys are absent (they match nothing).
#[derive(Debug)]
pub struct KeyIndex {
    lookup: Lookup,
    /// Entry `e`'s run is `runs[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    /// Row positions grouped by key, ascending within a key.
    runs: Vec<RowPos>,
    /// The first row, in row order, whose key an earlier row already had.
    first_duplicate: Option<RowPos>,
}

/// Home slot of an `i64` key in an open-addressing table of `mask + 1`
/// (a power of two) slots, by Fibonacci hashing — shared with the
/// engine's `i64`-keyed group map.
#[inline]
pub fn home_slot(key: i64, mask: usize) -> usize {
    (((key as u64).wrapping_mul(FIB_HASH)) >> 32) as usize & mask
}

/// The slots of an INT64 key column, `None` where NULL.
fn int_keys(col: &Column) -> impl Iterator<Item = Option<i64>> + '_ {
    let data = col.i64_values().expect("INT64 key column");
    (data.iter().enumerate()).map(|(i, &k)| (!col.is_null(i)).then_some(k))
}

impl KeyIndex {
    /// Indexes a key column given as one [`Column`] per block, in block
    /// order. INT64 columns index on the integer itself (a direct-address
    /// array when the key range allows, Fibonacci open addressing
    /// otherwise); any other type indexes on [`KeyAtom`].
    ///
    /// # Panics
    /// Panics if the input holds `u32::MAX` rows or more.
    pub fn build(keys: &[&Column]) -> KeyIndex {
        let total: usize = keys.iter().map(|c| c.len()).sum();
        assert!(
            u32::try_from(total).is_ok_and(|n| n < NO_ENTRY),
            "key index over {total} rows exceeds u32 positions"
        );
        // Pass 1: every non-NULL row gets the entry id of its key.
        let mut entry_of_row: Vec<u32> = Vec::with_capacity(total);
        let all_int = keys.iter().all(|c| matches!(c, Column::Int64 { .. }));
        let (lookup, entries) = if all_int {
            Self::assign_int_entries(keys, &mut entry_of_row)
        } else {
            let mut map: HashMap<KeyAtom, u32> = HashMap::new();
            for col in keys {
                for i in 0..col.len() {
                    let v = col.get(i);
                    entry_of_row.push(if v.is_null() {
                        NO_ENTRY
                    } else {
                        let next = map.len() as u32;
                        *map.entry(KeyAtom::from_value(&v)).or_insert(next)
                    });
                }
            }
            let entries = map.len();
            (Lookup::Atoms(map), entries)
        };
        // Pass 2: counting sort of the row positions by entry, in row
        // order, so every run is ascending.
        let mut offsets = vec![0u32; entries + 1];
        let positions = || {
            keys.iter().enumerate().flat_map(|(block, col)| {
                (0..col.len()).map(move |row| RowPos {
                    block: block as u32,
                    row: row as u32,
                })
            })
        };
        let mut first_duplicate = None;
        for (&e, pos) in entry_of_row.iter().zip(positions()) {
            if e != NO_ENTRY {
                let count = &mut offsets[e as usize + 1];
                *count += 1;
                if *count == 2 && first_duplicate.is_none() {
                    first_duplicate = Some(pos);
                }
            }
        }
        for e in 0..entries {
            offsets[e + 1] += offsets[e];
        }
        let mut cursor = offsets.clone();
        let mut runs = vec![RowPos { block: 0, row: 0 }; offsets[entries] as usize];
        for (&e, pos) in entry_of_row.iter().zip(positions()) {
            if e != NO_ENTRY {
                let at = &mut cursor[e as usize];
                runs[*at as usize] = pos;
                *at += 1;
            }
        }
        KeyIndex {
            lookup,
            offsets,
            runs,
            first_duplicate,
        }
    }

    /// Pass 1 for INT64 key columns: picks the dense or the hashed lookup
    /// and pushes each row's entry id. Returns the lookup and entry count.
    fn assign_int_entries(keys: &[&Column], entry_of_row: &mut Vec<u32>) -> (Lookup, usize) {
        let rows = || keys.iter().flat_map(|col| int_keys(col));
        let (mut n, mut min, mut max) = (0usize, i64::MAX, i64::MIN);
        for k in rows().flatten() {
            n += 1;
            min = min.min(k);
            max = max.max(k);
        }
        if n == 0 {
            entry_of_row.extend(rows().map(|_| NO_ENTRY));
            return (Lookup::Dense { min: 0 }, 0);
        }
        let range = (max as i128 - min as i128 + 1) as u128;
        if range <= (n * DENSE_SLOTS_PER_ROW + 1024) as u128 {
            entry_of_row.extend(rows().map(|k| k.map_or(NO_ENTRY, |k| (k - min) as u32)));
            return (Lookup::Dense { min }, range as usize);
        }
        // Load factor at most 1/2, so linear probes stay short.
        let mask = (n * 2).next_power_of_two() - 1;
        let mut table = vec![0u32; mask + 1];
        let mut distinct: Vec<i64> = Vec::new();
        for k in rows() {
            let Some(k) = k else {
                entry_of_row.push(NO_ENTRY);
                continue;
            };
            let mut slot = home_slot(k, mask);
            let entry = loop {
                match table[slot] {
                    0 => {
                        distinct.push(k);
                        table[slot] = distinct.len() as u32;
                        break distinct.len() as u32 - 1;
                    }
                    e if distinct[e as usize - 1] == k => break e - 1,
                    _ => slot = (slot + 1) & mask,
                }
            };
            entry_of_row.push(entry);
        }
        let entries = distinct.len();
        let keys = distinct;
        (Lookup::Hashed { table, keys }, entries)
    }

    #[inline]
    fn run(&self, entry: usize) -> &[RowPos] {
        &self.runs[self.offsets[entry] as usize..self.offsets[entry + 1] as usize]
    }

    /// The positions of the rows whose key is the integer `key` (empty
    /// when none), ascending.
    #[inline]
    pub fn get_i64(&self, key: i64) -> &[RowPos] {
        match &self.lookup {
            Lookup::Dense { min } => {
                let slot = (key as i128 - *min as i128) as u128;
                if slot < (self.offsets.len() - 1) as u128 {
                    self.run(slot as usize)
                } else {
                    &[]
                }
            }
            Lookup::Hashed { table, keys } => {
                let mask = table.len() - 1;
                let mut slot = home_slot(key, mask);
                loop {
                    match table[slot] {
                        0 => return &[],
                        e if keys[e as usize - 1] == key => return self.run(e as usize - 1),
                        _ => slot = (slot + 1) & mask,
                    }
                }
            }
            Lookup::Atoms(map) => map
                .get(&KeyAtom::Int(key))
                .map_or(&[], |&e| self.run(e as usize)),
        }
    }

    /// The positions of the rows whose canonical key is `key` (empty when
    /// none, and always for NULL), ascending.
    pub fn get(&self, key: &KeyAtom) -> &[RowPos] {
        match (&self.lookup, key) {
            (Lookup::Atoms(map), key) => map.get(key).map_or(&[], |&e| self.run(e as usize)),
            (_, KeyAtom::Int(key)) => self.get_i64(*key),
            // An INT64 column holds no other canonical key.
            _ => &[],
        }
    }

    /// Looks up every selected, non-NULL slot of `keys` (`selection:
    /// None` selects all) and calls `hit(slot, run)` for each one whose
    /// key is indexed, in slot order. Keys canonicalize through
    /// [`KeyAtom`], so an integral FLOAT64 probe key finds an INT64 key.
    pub fn probe(
        &self,
        keys: &Column,
        selection: Option<&[bool]>,
        mut hit: impl FnMut(usize, &[RowPos]),
    ) {
        let selected = |i: usize| selection.is_none_or(|mask| mask[i]) && !keys.is_null(i);
        if let Some(data) = keys.i64_values() {
            for (i, &key) in data.iter().enumerate() {
                if selected(i) {
                    let run = self.get_i64(key);
                    if !run.is_empty() {
                        hit(i, run);
                    }
                }
            }
            return;
        }
        for i in 0..keys.len() {
            if selected(i) {
                let run = self.get(&KeyAtom::from_value(&keys.get(i)));
                if !run.is_empty() {
                    hit(i, run);
                }
            }
        }
    }

    /// Whether no key occurs on more than one row.
    pub fn is_unique(&self) -> bool {
        self.first_duplicate.is_none()
    }

    /// The first row, in row order, that repeats an earlier row's key.
    pub fn first_duplicate(&self) -> Option<RowPos> {
        self.first_duplicate
    }

    /// Number of indexed (non-NULL-key) rows.
    pub fn rows(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(block: u32, row: u32) -> RowPos {
        RowPos { block, row }
    }

    #[test]
    fn dense_unique_keys() {
        let a = Column::from_i64(vec![10, 11, 12]);
        let b = Column::from_i64(vec![14, 13]);
        let idx = KeyIndex::build(&[&a, &b]);
        assert!(matches!(idx.lookup, Lookup::Dense { min: 10 }));
        assert!(idx.is_unique());
        assert_eq!(idx.rows(), 5);
        assert_eq!(idx.get_i64(12), &[pos(0, 2)]);
        assert_eq!(idx.get_i64(13), &[pos(1, 1)]);
        assert!(idx.get_i64(9).is_empty());
        assert!(idx.get_i64(15).is_empty());
        assert!(idx.get_i64(i64::MIN).is_empty());
        assert!(idx.get_i64(i64::MAX).is_empty());
    }

    #[test]
    fn duplicate_keys_form_ascending_runs() {
        let a = Column::from_i64(vec![7, 3, 7]);
        let b = Column::from_i64(vec![3, 7]);
        let idx = KeyIndex::build(&[&a, &b]);
        assert!(!idx.is_unique());
        // Row (0, 2) is the first to repeat a key (7).
        assert_eq!(idx.first_duplicate(), Some(pos(0, 2)));
        assert_eq!(idx.get_i64(7), &[pos(0, 0), pos(0, 2), pos(1, 1)]);
        assert_eq!(idx.get_i64(3), &[pos(0, 1), pos(1, 0)]);
    }

    #[test]
    fn sparse_keys_hash() {
        let keys: Vec<i64> = (0..200).map(|i| i * 1_000_003 - 77).collect();
        let col = Column::from_i64(keys.clone());
        let idx = KeyIndex::build(&[&col]);
        assert!(matches!(idx.lookup, Lookup::Hashed { .. }));
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(idx.get_i64(*k), &[pos(0, i as u32)]);
            assert!(idx.get_i64(k + 1).is_empty());
        }
        // The extremes of the domain hash like any other key.
        let col = Column::from_i64(vec![i64::MIN, i64::MAX, 0, i64::MIN]);
        let idx = KeyIndex::build(&[&col]);
        assert_eq!(idx.get_i64(i64::MIN), &[pos(0, 0), pos(0, 3)]);
        assert_eq!(idx.get_i64(i64::MAX), &[pos(0, 1)]);
    }

    #[test]
    fn null_keys_are_not_indexed() {
        let mut col = Column::from_i64(vec![1]);
        col.push_null();
        col.push(&Value::Int64(2)).unwrap();
        let idx = KeyIndex::build(&[&col]);
        assert_eq!(idx.rows(), 2);
        assert!(idx.get(&KeyAtom::Null).is_empty());
        assert_eq!(idx.get_i64(2), &[pos(0, 2)]);
        // All-NULL and empty inputs index nothing.
        let mut nulls = Column::from_i64(vec![]);
        nulls.push_null();
        assert_eq!(KeyIndex::build(&[&nulls]).rows(), 0);
        assert!(KeyIndex::build(&[]).get_i64(0).is_empty());
    }

    #[test]
    fn float_and_string_keys_canonicalize() {
        let col = Column::from_f64(vec![1.0, 2.5, -0.0, 1.0]);
        let idx = KeyIndex::build(&[&col]);
        assert!(matches!(idx.lookup, Lookup::Atoms(_)));
        assert_eq!(idx.get_i64(1), &[pos(0, 0), pos(0, 3)]);
        assert_eq!(idx.get_i64(0), &[pos(0, 2)]);
        assert_eq!(
            idx.get(&KeyAtom::from_value(&Value::Float64(2.5))),
            &[pos(0, 1)]
        );
        let col = Column::from_str_values(["b", "a", "b"]);
        let idx = KeyIndex::build(&[&col]);
        assert_eq!(
            idx.get(&KeyAtom::from_value(&Value::str("b"))),
            &[pos(0, 0), pos(0, 2)]
        );
        assert!(idx.get_i64(0).is_empty());
    }

    #[test]
    fn probe_respects_selection_nulls_and_types() {
        let build = Column::from_i64(vec![5, 6, 6]);
        let idx = KeyIndex::build(&[&build]);
        let collect = |keys: &Column, sel: Option<&[bool]>| {
            let mut out = Vec::new();
            idx.probe(keys, sel, |i, run| out.push((i, run.len())));
            out
        };
        let mut ints = Column::from_i64(vec![6, 9, 5]);
        ints.push_null();
        assert_eq!(collect(&ints, None), vec![(0, 2), (2, 1)]);
        assert_eq!(
            collect(&ints, Some(&[false, true, true, true])),
            vec![(2, 1)]
        );
        // Integral floats meet integer keys; non-integral ones miss.
        let floats = Column::from_f64(vec![6.0, 5.5, 5.0]);
        assert_eq!(collect(&floats, None), vec![(0, 2), (2, 1)]);
        let strs = Column::from_str_values(["5"]);
        assert!(collect(&strs, None).is_empty());
    }
}
