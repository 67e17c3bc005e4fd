//! Cell values and data types.

use std::borrow::Cow;
use std::fmt;

/// The data type of a column of a [`crate::Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// Boolean cells.
    Bool,
    /// 64-bit signed integer cells.
    Int,
    /// 64-bit IEEE-754 float cells.
    Float,
    /// UTF-8 string cells.
    Str,
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dtype::Bool => "bool",
            Dtype::Int => "int",
            Dtype::Float => "float",
            Dtype::Str => "str",
        };
        f.write_str(s)
    }
}

/// An owned cell value. `Null` is a first-class citizen because real EM
/// inputs are full of missing values (§6 of the paper lists missing values
/// among the interoperability challenges).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// The dtype this value would occupy, or `None` for `Null` (a null fits
    /// any column).
    pub fn dtype(&self) -> Option<Dtype> {
        self.as_ref().dtype()
    }

    /// True iff the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow this value as a [`ValueRef`].
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T> From<Option<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Value::from)
    }
}

/// A borrowed cell value: what [`crate::Table::value`] hands out without
/// cloning string data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Missing value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Borrowed string value.
    Str(&'a str),
}

impl<'a> ValueRef<'a> {
    /// The dtype of the cell, or `None` for `Null`.
    pub fn dtype(&self) -> Option<Dtype> {
        match self {
            ValueRef::Null => None,
            ValueRef::Bool(_) => Some(Dtype::Bool),
            ValueRef::Int(_) => Some(Dtype::Int),
            ValueRef::Float(_) => Some(Dtype::Float),
            ValueRef::Str(_) => Some(Dtype::Str),
        }
    }

    /// True iff the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Borrow as `&str` when the cell holds a string.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract an integer when the cell holds one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a float; integers widen losslessly (within f64 precision),
    /// matching the numeric coercion feature generators rely on.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ValueRef::Float(f) => Some(*f),
            ValueRef::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract a boolean when the cell holds one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ValueRef::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Promote to an owned [`Value`].
    pub fn to_owned(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(*b),
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Float(f) => Value::Float(*f),
            ValueRef::Str(s) => Value::Str((*s).to_owned()),
        }
    }

    /// Render the cell the way the CSV writer and displays do: nulls become
    /// the empty string.
    pub fn display_string(&self) -> String {
        self.to_string()
    }

    /// `self.display_string().trim().to_lowercase()` — the one cell
    /// normalization every string measure, blocking key and blocking rule
    /// reads — borrowing the cell when it is a string already in that form.
    ///
    /// Only an ASCII value is recognised as such. Unicode lowercasing can
    /// *produce* ASCII (U+212A KELVIN SIGN → `k`, U+0130 `İ` → `i` +
    /// U+0307), so any other value goes through `str::to_lowercase`.
    pub fn lower_trimmed(&self) -> Cow<'a, str> {
        let ValueRef::Str(s) = *self else {
            return Cow::Owned(self.display_string().trim().to_lowercase());
        };
        let s = s.trim();
        if s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
            Cow::Borrowed(s)
        } else {
            Cow::Owned(s.to_lowercase())
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => Ok(()),
            ValueRef::Bool(b) => write!(f, "{b}"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Str(s) => f.write_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_of_values() {
        assert_eq!(Value::Null.dtype(), None);
        assert_eq!(Value::Bool(true).dtype(), Some(Dtype::Bool));
        assert_eq!(Value::Int(3).dtype(), Some(Dtype::Int));
        assert_eq!(Value::Float(0.5).dtype(), Some(Dtype::Float));
        assert_eq!(Value::Str("x".into()).dtype(), Some(Dtype::Str));
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from("abc"), Value::Str("abc".into()));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(Value::from(Some(7i64)), Value::Int(7));
    }

    #[test]
    fn value_ref_roundtrip() {
        let v = Value::Str("hello".into());
        let r = v.as_ref();
        assert_eq!(r.as_str(), Some("hello"));
        assert_eq!(r.to_owned(), v);
    }

    #[test]
    fn int_widens_to_float() {
        assert_eq!(ValueRef::Int(4).as_float(), Some(4.0));
        assert_eq!(ValueRef::Str("4").as_float(), None);
    }

    #[test]
    fn null_displays_empty() {
        assert_eq!(ValueRef::Null.display_string(), "");
        assert_eq!(ValueRef::Int(-2).display_string(), "-2");
    }
}
