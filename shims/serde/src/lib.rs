//! Offline stand-in for `serde`.
//!
//! The real `serde` cannot be fetched in this build environment, so this
//! shim provides a simplified, value-tree-based serialization pair:
//! [`Serialize`] lowers a type to a [`Value`] tree and [`Deserialize`]
//! rebuilds it. `serde_json` (the sibling shim) renders and parses that
//! tree as JSON. The derive macros (`#[derive(Serialize, Deserialize)]`)
//! come from the local `serde_derive` shim and target exactly these traits.
//!
//! The surface intentionally covers only what the workspace uses: named
//! structs, externally-tagged enums, the primitive scalar types, `String`,
//! `Vec<T>`, `Option<T>`, and 2-/3-tuples.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// An untyped serialization tree (the shim's data model, JSON-shaped).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (kept exact; not routed through `f64`).
    U64(u64),
    /// Signed integer (kept exact; not routed through `f64`).
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an [`Value::Object`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Types that can lower themselves to a [`Value`] tree.
pub trait Serialize {
    /// Lowers `self` to the shim data model.
    fn to_value(&self) -> Value;
}

/// Types that can rebuild themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self`, or explains why the tree does not match.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Rebuilds `Self` from a tree the caller is done with, so a
    /// [`Value`] is taken as is instead of copied.
    fn from_owned(value: Value) -> Result<Self, Error> {
        Self::from_value(&value)
    }
}

/// Extracts and deserializes a named field of an object — the helper the
/// derive macro calls for every struct field.
pub fn object_field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
    let field = value.get(name).ok_or_else(|| Error::custom(format!("missing field `{name}`")))?;
    T::from_value(field).map_err(|e| Error::custom(format!("field `{name}`: {e}")))
}

// ---------------------------------------------------------------------------
// Scalar impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = match value {
                    Value::U64(u) => *u as i128,
                    Value::I64(i) => *i as i128,
                    Value::F64(f) if f.fract() == 0.0 => *f as i128,
                    other => {
                        return Err(Error::custom(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide = match value {
                    Value::U64(u) => *u as i128,
                    Value::I64(i) => *i as i128,
                    Value::F64(f) if f.fract() == 0.0 => *f as i128,
                    other => {
                        return Err(Error::custom(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::F64(f) => Ok(*f as $t),
                    Value::U64(u) => Ok(*u as $t),
                    Value::I64(i) => Ok(*i as $t),
                    other => Err(Error::custom(format!("expected number, got {other:?}"))),
                }
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(Error::custom(format!("expected 2-tuple, got {other:?}"))),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value(), self.2.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            other => Err(Error::custom(format!("expected 3-tuple, got {other:?}"))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }

    fn from_owned(value: Value) -> Result<Self, Error> {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
    }

    #[test]
    fn container_round_trips() {
        let v: Vec<(String, Vec<f32>)> =
            vec![("w".to_string(), vec![1.0, 2.0]), ("b".to_string(), vec![])];
        assert_eq!(<Vec<(String, Vec<f32>)>>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<f32> = None;
        assert_eq!(Option::<f32>::from_value(&o.to_value()).unwrap(), None);
        assert_eq!(Option::<f32>::from_value(&Some(3.0f32).to_value()).unwrap(), Some(3.0));
    }

    #[test]
    fn large_u64_stays_exact() {
        let big = u64::MAX - 3;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn missing_field_reports_name() {
        let obj = Value::Object(vec![("a".to_string(), Value::U64(1))]);
        let err = object_field::<u64>(&obj, "b").unwrap_err();
        assert!(err.to_string().contains("missing field `b`"));
    }
}
