//! String dictionaries: the value side of a STR column.
//!
//! A [`Column::Str`](crate::Column::Str) stores one `u32` code per slot
//! and an `Arc<StrDict>`: the append-only list of the distinct values the
//! codes index, code = position. Codes never change meaning, so a
//! dictionary that has grown still decodes every code minted before, and
//! columns sharing one dictionary (`Arc::ptr_eq`) gather, compare and group
//! by code alone. The value → code map exists only while values are still
//! being added: a frozen dictionary keeps the list, and rebuilds the map
//! should it ever be asked to grow again.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The distinct values of a STR column, in code order.
#[derive(Clone, Default)]
pub struct StrDict {
    values: Vec<Arc<str>>,
    /// Value → code, while the dictionary is still growing.
    codes: Option<HashMap<Arc<str>, u32>>,
}

impl StrDict {
    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary holds no value.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of `code`.
    ///
    /// # Panics
    /// Panics if no value has that code.
    #[inline]
    pub fn value(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// The code of `value`, appending it first if it is new.
    ///
    /// # Panics
    /// Panics past `u32::MAX` distinct values.
    pub fn intern(&mut self, value: &str) -> u32 {
        let StrDict { values, codes } = self;
        let codes = codes.get_or_insert_with(|| {
            (values.iter().enumerate())
                .map(|(code, v)| (Arc::clone(v), code as u32))
                .collect()
        });
        if let Some(&code) = codes.get(value) {
            return code;
        }
        let code = u32::try_from(values.len()).expect("dictionary exceeds u32 codes");
        let value: Arc<str> = Arc::from(value);
        codes.insert(Arc::clone(&value), code);
        values.push(value);
        code
    }

    /// Drops the value → code map: the dictionary is done growing.
    pub(crate) fn freeze(&mut self) {
        self.codes = None;
    }

    /// Approximate footprint in bytes: each value plus a 16-byte handle.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.values.iter().map(|v| v.len() + 16).sum()
    }
}

impl fmt::Debug for StrDict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.values).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_survives_a_freeze() {
        let mut d = StrDict::default();
        assert!(d.is_empty());
        assert_eq!(d.intern("b"), 0);
        assert_eq!(d.intern(""), 1);
        assert_eq!(d.intern("b"), 0);
        assert_eq!(d.intern("日本"), 2);
        d.freeze();
        assert_eq!(d.len(), 3);
        assert_eq!(d.value(2).as_ref(), "日本");
        // A frozen dictionary asked to grow rebuilds its map first.
        assert_eq!(d.intern(""), 1);
        assert_eq!(d.intern("c"), 3);
        assert_eq!(d.approx_bytes(), 1 + 16 + 16 + 6 + 16 + 1 + 16);
        assert_eq!(format!("{d:?}"), r#"["b", "", "日本", "c"]"#);
    }
}
