//! Workspace-local stand-in for `serde`.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a small serialization framework with the surface
//! this repository calls: `#[derive(Serialize, Deserialize)]` (provided
//! by the companion `serde_derive` shim, whose header lists the supported
//! shapes and `#[serde(...)]` attributes: `default`, `default = "path"`,
//! `skip_serializing_if = "path"`, `tag = "..."`,
//! `rename_all = "snake_case"`).
//!
//! Instead of upstream serde's visitor architecture, types convert to and
//! from a JSON-like [`Value`] tree:
//!
//! * [`Serialize::to_value`] — build a [`Value`];
//! * [`Deserialize::from_value`] — parse from a [`Value`].
//!
//! Both traits are implemented for `bool`, the integer and float
//! primitives, `String`, `Vec<T>`, `Option<T>`, pairs, `BTreeMap<String,
//! V>` and [`Value`] itself; `Serialize` also for `&T`, `str`, `[T]` and
//! triples (written, never read).
//!
//! The companion `serde_json` shim renders [`Value`] to JSON text and
//! back, so `serde_json::{to_string, to_string_pretty, from_str}` behave
//! as the rest of the workspace expects.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like data model: the interchange tree between typed values and
/// serialized text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative integer (stored when the source was negative).
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as a map, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| value_get(m, key))
    }

    /// One-word description of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

/// Looks up `key` in an ordered map body.
pub fn value_get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// The standard "wrong type" error.
    pub fn expected(what: &str, got: &Value) -> Self {
        Error::custom(format!("expected {what}, found {}", got.kind()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

/// Types convertible to the [`Value`] data model.
pub trait Serialize {
    /// Builds the value tree for `self`.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses from a value tree.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the tree does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("boolean", other)),
        }
    }
}

macro_rules! uint_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    Value::Int(_) => {
                        return Err(Error::custom(concat!(
                            "negative value for ",
                            stringify!($t)
                        )))
                    }
                    other => return Err(Error::expected("integer", other)),
                };
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(concat!("integer out of range for ", stringify!($t)))
                })
            }
        }
    )*};
}

uint_impls!(u32, u64, usize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    other => Err(Error::expected("number", other)),
                }
            }
        }
    )*};
}

float_impls!(f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(Error::expected("2-element array", v)),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::expected("object", other)),
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_parsing() {
        assert_eq!(f64::from_value(&Value::UInt(3)).unwrap(), 3.0);
        assert_eq!(u32::from_value(&Value::Int(7)).unwrap(), 7);
        assert!(u32::from_value(&Value::Int(-1)).is_err());
        assert!(u32::from_value(&Value::UInt(1 << 40)).is_err());
        assert_eq!(f64::from_value(&Value::Int(-9)).unwrap(), -9.0);
    }

    #[test]
    fn option_null_roundtrip() {
        let v: Option<u32> = None;
        assert_eq!(v.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u32>::from_value(&Value::UInt(5)).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn tuple_as_array() {
        let t = (1.5f64, -2.0f64);
        let v = t.to_value();
        assert_eq!(<(f64, f64)>::from_value(&v).unwrap(), t);
    }

    #[test]
    fn map_helpers() {
        let v = Value::Map(vec![("a".into(), Value::UInt(1))]);
        assert!(v.get("a").is_some());
        assert!(v.get("b").is_none());
        assert_eq!(v.kind(), "object");
    }
}
