//! Offline stand-in for `serde`.
//!
//! The workspace builds hermetically without crates.io, so this crate
//! provides the serialization surface SimProf actually uses: derivable
//! [`Serialize`] / [`Deserialize`] traits, an in-memory JSON [`Value`]
//! model, and the JSON text layer itself ([`JsonReader`] and the writers
//! in [`json`]). The visitor architecture of real serde is replaced by two
//! pairs of methods per trait:
//!
//! * `to_value` / `from_value` convert between `T` and [`Value`]; every
//!   impl has them, and `serde_json::to_value` / `from_value` / `json!`
//!   and pretty printing use them.
//! * `write_json` / `from_json` stream between `T` and JSON text with no
//!   intermediate [`Value`]; `serde_json::to_string` / `from_str` use
//!   them. Their defaults fall back to rendering `to_value()` and to
//!   `from_value(&reader.value()?)`. The derives (named-field, newtype and
//!   tuple structs) and the std impls for numbers, strings, options,
//!   sequences and tuples override them; enums and maps keep the
//!   fallback, and [`Value`] uses the value parser and renderer directly.
//!
//! The two paths are interchangeable: the same text is accepted, the same
//! value comes back, and the same bytes are written (DESIGN.md §20).
//!
//! Supported shapes (everything the workspace derives): named-field
//! structs, tuple/newtype structs, enums with unit/tuple/struct variants
//! (externally tagged, like real serde), plus the std impls below. The
//! `#[serde(default)]` field attribute is honoured on deserialization.

pub mod json;
mod value;

pub use json::{JsonReader, MAX_DEPTH};
pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// Deserialization error. Boxed, so a `Result` carrying it stays small on
/// the parse path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(Box<ErrorKind>);

/// What went wrong, as carried by a [`DeError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed text, or a value of the wrong shape for the target type:
    /// a human-readable path + message.
    Invalid(String),
    /// Arrays/objects nested deeper than [`MAX_DEPTH`]; carries the byte
    /// offset of the opening bracket that crossed the cap.
    TooDeep(usize),
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.0 {
            ErrorKind::Invalid(m) => f.write_str(m),
            ErrorKind::TooDeep(at) => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for DeError {}

impl DeError {
    /// Builds an [`ErrorKind::Invalid`] error from anything displayable.
    #[cold]
    pub fn msg(m: impl std::fmt::Display) -> Self {
        Self(Box::new(ErrorKind::Invalid(m.to_string())))
    }

    /// Builds an [`ErrorKind::TooDeep`] error for the bracket at byte `at`.
    #[cold]
    pub fn too_deep(at: usize) -> Self {
        Self(Box::new(ErrorKind::TooDeep(at)))
    }

    /// What went wrong.
    pub fn kind(&self) -> &ErrorKind {
        &self.0
    }
}

/// A type renderable to the JSON value model and to JSON text.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;

    /// Appends `self` as compact JSON text. The default renders
    /// [`to_value`](Self::to_value); overrides must write the same bytes.
    fn write_json(&self, out: &mut String) {
        json::write_value(out, &self.to_value(), None, 0);
    }
}

/// A type reconstructible from the JSON value model and from JSON text.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Parses `Self` from the next value in `r`. The default parses a
    /// [`Value`] and calls [`from_value`](Self::from_value); overrides
    /// must accept exactly the texts the default accepts and return the
    /// same value.
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        Self::from_value(&r.value()?)
    }
}

/// Converts any serializable value into a [`Value`] (mirrors
/// `serde_json::to_value`, re-exported there).
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

// ---------------------------------------------------------------------------
// std impls: scalars
// ---------------------------------------------------------------------------

/// The integer impls' conversion, shared by both paths: `n` is the
/// number as the widest integer (`None` when not representable) and
/// `kind` names what the input held.
#[inline]
fn int_from<W, T>(n: Option<W>, kind: &str, want: &str) -> Result<T, DeError>
where
    W: Copy + std::fmt::Display,
    T: TryFrom<W>,
{
    let n = n.ok_or_else(|| DeError::msg(format!("expected {want}, got {kind}")))?;
    T::try_from(n)
        .map_err(|_| DeError::msg(format!("{n} out of range for {}", std::any::type_name::<T>())))
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
            fn write_json(&self, out: &mut String) {
                json::write_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                int_from(v.as_u64(), v.kind(), "unsigned integer")
            }
            #[inline]
            fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                match r.number_if_next()? {
                    Some(n) => int_from(n.as_u64(), "number", "unsigned integer"),
                    None => Self::from_value(&r.value()?),
                }
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::I64(*self as i64))
            }
            fn write_json(&self, out: &mut String) {
                json::write_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                int_from(v.as_i64(), v.kind(), "integer")
            }
            #[inline]
            fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                match r.number_if_next()? {
                    Some(n) => int_from(n.as_i64(), "number", "integer"),
                    None => Self::from_value(&r.value()?),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::msg(format!("expected number, got {}", v.kind())))
    }
    #[inline]
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        match r.number_if_next()? {
            Some(n) => Ok(n.as_f64()),
            None => Self::from_value(&r.value()?),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self as f64))
    }
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self as f64);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        f64::from_json(r).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!("expected string, got {}", other.kind()))),
        }
    }
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.peek() == Some(b'"') {
            return r.string().map(Cow::into_owned);
        }
        Self::from_value(&r.value()?)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg("expected single-character string")),
        }
    }
}

// ---------------------------------------------------------------------------
// std impls: composites
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
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
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.null() {
            return Ok(None);
        }
        T::from_json(r).map(Some)
    }
}

/// Writes `items` as a JSON array through their `write_json`.
fn write_seq<T: Serialize>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::msg(format!("expected array, got {}", other.kind()))),
        }
    }
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.peek() != Some(b'[') {
            return Self::from_value(&r.value()?);
        }
        let mut items = Vec::new();
        let mut more = r.begin_array()?;
        while more {
            items.push(T::from_json(r)?);
            more = r.array_next()?;
        }
        Ok(items)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident . $idx:tt),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = match v {
                    Value::Array(items) => items,
                    other => return Err(DeError::msg(format!("expected tuple array, got {}", other.kind()))),
                };
                let want = [$($idx),+].len();
                if items.len() != want {
                    return Err(DeError::msg(format!("expected {}-tuple, got {} elements", want, items.len())));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
            fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                if r.peek() != Some(b'[') {
                    return Self::from_value(&r.value()?);
                }
                let want = [$($idx),+].len();
                let mut more = r.begin_array()?;
                let tuple = ($(tuple_element::<$t>(r, &mut more, want)?,)+);
                end_tuple(more, want)?;
                Ok(tuple)
            }
        }
    )*};
}
impl_serde_tuple! {
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
}

impl<V: Serialize, S> Serialize for HashMap<String, V, S> {
    /// Keys are emitted in sorted order so output is deterministic across
    /// processes (std's `HashMap` iteration order is seeded per process).
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(entries) => {
                entries.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => Err(DeError::msg(format!("expected object, got {}", other.kind()))),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(entries) => {
                entries.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => Err(DeError::msg(format!("expected object, got {}", other.kind()))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, out: &mut String) {
        json::write_value(out, self, None, 0);
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.value()
    }
}

// ---------------------------------------------------------------------------
// Derive-macro support: helpers the generated code calls.
// ---------------------------------------------------------------------------

/// Looks up `key` in an object's entry list (derive-generated code helper).
pub fn value_get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses the next element of a fixed-length array whose `more` flag (from
/// [`JsonReader::begin_array`] / [`JsonReader::array_next`]) is `*more`,
/// then advances the flag (derive-generated code helper).
#[inline]
pub fn tuple_element<T: Deserialize>(
    r: &mut JsonReader<'_>,
    more: &mut bool,
    want: usize,
) -> Result<T, DeError> {
    if !*more {
        return Err(DeError::msg(format!("expected {want}-tuple, got fewer elements")));
    }
    let item = T::from_json(r)?;
    *more = r.array_next()?;
    Ok(item)
}

/// Rejects a fixed-length array that still has elements after its last
/// expected one (derive-generated code helper).
#[inline]
pub fn end_tuple(more: bool, want: usize) -> Result<(), DeError> {
    if more {
        return Err(DeError::msg(format!("expected {want}-tuple, got more elements")));
    }
    Ok(())
}
