//! Minimal in-tree stand-in for the `serde` crate.
//!
//! The build environment has no access to a crates.io mirror, so this shim
//! provides exactly the surface the workspace uses: `Serialize` /
//! `Deserialize` traits (via a simple JSON-like [`Value`] data model rather
//! than serde's visitor architecture) and the two derive macros. The
//! companion `serde_json` shim renders/parses [`Value`] as real JSON.
//!
//! Determinism notes: object fields serialize in declaration order and
//! `Value::Object` preserves insertion order, so `to_string` output is
//! byte-stable for a given data structure — a property the pipeline's
//! determinism tests rely on.
//!
//! # Attributes
//!
//! The derives understand three `#[serde(...)]` attributes, with real
//! serde's spelling and meaning:
//!
//! * field `#[serde(skip_serializing_if = "path")]` — leave the key out
//!   when `path(&field)` returns true;
//! * field `#[serde(default)]` — a missing key reads as the field type's
//!   `Default`;
//! * container `#[serde(default)]` — a missing key takes that field's
//!   value from the struct's own `Default`.
//!
//! Any other `serde` attribute, or one of these elsewhere (a variant, a
//! tuple field), fails to compile:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Renamed {
//!     #[serde(rename = "id")]
//!     key: u32,
//! }
//! ```

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree. Integer and unsigned variants are kept separate
/// from floats so `u64` seeds above 2^53 round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered map (field declaration order).
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == name).map(|(_, v)| v))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialize error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

/// Serialize into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Deserialize from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Derive-macro helper: fetch + deserialize one field of an object.
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, DeError> {
    optional_field(obj, name)?.ok_or_else(|| DeError(format!("missing field `{name}`")))
}

/// Derive-macro helper: fetch + deserialize one field of an object that
/// may be absent (`#[serde(default)]`).
pub fn optional_field<T: Deserialize>(
    obj: &[(String, Value)],
    name: &str,
) -> Result<Option<T>, DeError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| T::from_value(v))
        .transpose()
}

// ---------------------------------------------------------------- numbers

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if (*self as i128) < 0 {
                    Value::Int(*self as i64)
                } else {
                    Value::UInt(*self as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError(format!("{i} out of range"))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| DeError(format!("{u} out of range"))),
                    other => Err(DeError::expected("integer", other)),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

// ----------------------------------------------------------- other scalars

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("single-char string", other)),
        }
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of {N}, got {len}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::expected("array", v))?;
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                if items.len() != LEN {
                    return Err(DeError(format!("expected tuple of {LEN}, got {}", items.len())));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Sort by rendered key for deterministic output.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| {
                let key = match k.to_value() {
                    Value::Str(s) => s,
                    other => panic!("map key must serialize to a string, got {}", other.kind()),
                };
                (key, v.to_value())
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_above_2_53() {
        let big: u64 = 0x4C61_6E67_4372_5558;
        let v = big.to_value();
        assert_eq!(u64::from_value(&v), Ok(big));
    }

    #[test]
    fn option_null_round_trip() {
        let none: Option<String> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<String>::from_value(&Value::Null), Ok(None));
    }

    #[test]
    fn tuple_round_trip() {
        let t = (3usize, "x".to_string());
        let v = t.to_value();
        let back: (usize, String) = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, t);
    }
}
