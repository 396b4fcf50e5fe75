//! Scalar values and their data types.

use std::fmt;
use std::sync::Arc;

/// The data types the engine supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Int64 => "INT64",
            Self::Float64 => "FLOAT64",
            Self::Str => "STR",
            Self::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A single scalar value, the unit of row-oriented interchange.
///
/// Strings are `Arc<str>` so values clone cheaply through operators.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The value's data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: integers and floats coerce to `f64`; booleans map to
    /// 0/1; strings and NULL yield `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view (no coercion from float).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: NULL compares as `None`; numeric
    /// types compare after coercion to `f64`; mixed non-numeric types yield
    /// `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn data_types() {
        assert_eq!(Value::Int64(1).data_type(), Some(DataType::Int64));
        assert_eq!(Value::Float64(1.0).data_type(), Some(DataType::Float64));
        assert_eq!(Value::str("a").data_type(), Some(DataType::Str));
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int64(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn typed_views() {
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Float64(7.0).as_i64(), None);
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
    }

    #[test]
    fn sql_cmp_semantics() {
        assert_eq!(
            Value::Int64(1).sql_cmp(&Value::Int64(2)),
            Some(Ordering::Less)
        );
        // Cross-type numeric comparison.
        assert_eq!(
            Value::Int64(2).sql_cmp(&Value::Float64(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::str("b").sql_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        // NULL never compares.
        assert_eq!(Value::Null.sql_cmp(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).sql_cmp(&Value::Null), None);
        // Incomparable mixed types.
        assert_eq!(Value::str("1").sql_cmp(&Value::Int64(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int64(-4).to_string(), "-4");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(DataType::Float64.to_string(), "FLOAT64");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(5i64), Value::Int64(5));
        assert_eq!(Value::from(2.5f64), Value::Float64(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from("s".to_string()), Value::str("s"));
    }
}
