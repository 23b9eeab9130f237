//! Offline stand-in for `serde`.
//!
//! The workspace builds hermetically without crates.io, so this crate
//! provides the serialization surface SimProf actually uses: derivable
//! [`Serialize`] / [`Deserialize`] traits, an in-memory JSON [`Value`]
//! model, and the JSON text layer itself ([`JsonReader`] and the writers
//! in [`json`]). The visitor architecture of real serde is replaced by one
//! method per trait, both working on JSON text with no intermediate
//! [`Value`]: `Serialize::write_json` appends compact JSON and
//! `Deserialize::from_json` pulls tokens from a [`JsonReader`]
//! (`Deserialize::from_json_in_place` parses into an existing value,
//! reusing its allocations: by default through `from_json`, field by field
//! for derived structs, element by element for `Vec`).
//! `serde_json::to_string` / `from_str` call them directly, pretty printing
//! re-indents the compact text ([`json::indent`]), and [`Value`] is just
//! another type with impls of its own: a dynamic document that
//! `serde_json::to_value` fills by parsing a value's text (DESIGN.md §20).
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

/// A type renderable to JSON text.
pub trait Serialize {
    /// Appends `self` as compact JSON text.
    fn write_json(&self, out: &mut String);
}

/// A type parseable from JSON text.
pub trait Deserialize: Sized {
    /// Parses `Self` from the next value in `r`.
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError>;

    /// Parses the next value in `r` into `place`, reusing what `place`
    /// holds where it can (real serde's `deserialize_in_place`). On
    /// success `place` is what [`from_json`](Self::from_json) would
    /// return and an error is the same; after an error `place` is
    /// unspecified.
    fn from_json_in_place(r: &mut JsonReader<'_>, place: &mut Self) -> Result<(), DeError> {
        *place = Self::from_json(r)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// std impls: scalars
// ---------------------------------------------------------------------------

/// The integer impls' conversion: `n` is the number as `u64` or `i64`
/// (`None` when it is not an integer that type can hold).
#[inline]
fn int_from<W, T>(n: Option<W>, want: &str) -> Result<T, DeError>
where
    W: Copy + std::fmt::Display,
    T: TryFrom<W>,
{
    let n = n.ok_or_else(|| DeError::msg(format!("expected {want}, got number")))?;
    T::try_from(n)
        .map_err(|_| DeError::msg(format!("{n} out of range for {}", std::any::type_name::<T>())))
}

macro_rules! impl_serde_int {
    ($($t:ty => $write:ident, $as:ident, $want:literal;)*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                json::$write(out, *self as _);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                // A plain digit run converts straight to `Self`; every
                // other token takes the full grammar, with the same result.
                if let Some(n) = r.plain_u64() {
                    return int_from(Number::U64(n).$as(), $want);
                }
                match r.number_if_next()? {
                    Some(n) => int_from(n.$as(), $want),
                    None => Err(r.expected($want)),
                }
            }
        }
    )*};
}
impl_serde_int! {
    u8 => write_u64, as_u64, "unsigned integer";
    u16 => write_u64, as_u64, "unsigned integer";
    u32 => write_u64, as_u64, "unsigned integer";
    u64 => write_u64, as_u64, "unsigned integer";
    usize => write_u64, as_u64, "unsigned integer";
    i8 => write_i64, as_i64, "integer";
    i16 => write_i64, as_i64, "integer";
    i32 => write_i64, as_i64, "integer";
    i64 => write_i64, as_i64, "integer";
    isize => write_i64, as_i64, "integer";
}

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    #[inline]
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        match r.number_if_next()? {
            Some(n) => Ok(n.as_f64()),
            None => Err(r.expected("number")),
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self as f64);
    }
}

impl Deserialize for f32 {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        f64::from_json(r).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.boolean()
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.string().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

// ---------------------------------------------------------------------------
// std impls: composites
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.null() {
            return Ok(None);
        }
        T::from_json(r).map(Some)
    }
}

/// Writes `items` as a JSON array through their `write_json`.
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut more = r.begin_array()?;
        // Most decoded sequences are short (a unit's histogram and slices):
        // sixteen up front saves them the growth steps, reallocations that
        // cost the most under a tracking allocator.
        let mut items = Vec::with_capacity(if more { 16 } else { 0 });
        while more {
            items.push(T::from_json(r)?);
            more = r.array_next()?;
        }
        Ok(items)
    }

    /// Reuses the elements already in `place` (and their allocations).
    fn from_json_in_place(r: &mut JsonReader<'_>, place: &mut Self) -> Result<(), DeError> {
        let mut n = 0;
        let mut more = r.begin_array()?;
        while more {
            match place.get_mut(n) {
                Some(item) => T::from_json_in_place(r, item)?,
                None => place.push(T::from_json(r)?),
            }
            n += 1;
            more = r.array_next()?;
        }
        place.truncate(n);
        Ok(())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident . $idx:tt),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
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
            fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
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

/// Writes `entries` as a JSON object, in the order given.
fn write_map<'a, V: Serialize + 'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (&'a String, &'a V)>,
) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

/// Parses an object into any string-keyed map; a repeated key keeps its
/// last value.
fn read_map<V: Deserialize, M: Default + Extend<(String, V)>>(
    r: &mut JsonReader<'_>,
) -> Result<M, DeError> {
    let mut map = M::default();
    let mut more = r.begin_object()?;
    while more {
        let key = r.key()?.into_owned();
        map.extend([(key, V::from_json(r)?)]);
        more = r.object_next()?;
    }
    Ok(map)
}

impl<V: Serialize, S> Serialize for HashMap<String, V, S> {
    /// Keys are written in sorted order so output is deterministic across
    /// processes (std's `HashMap` iteration order is seeded per process).
    fn write_json(&self, out: &mut String) {
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        write_map(out, entries);
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        read_map(r)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String) {
        write_map(out, self);
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        read_map(r)
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        json::write_value(out, self);
    }
}

impl Deserialize for Value {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.value()
    }
}

// ---------------------------------------------------------------------------
// Derive-macro support: helpers the generated code calls.
// ---------------------------------------------------------------------------

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
