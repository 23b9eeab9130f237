//! Offline stand-in for `serde_json`.
//!
//! Thin entry points over the shim-`serde` JSON layer: [`to_string`] and
//! [`from_str`] stream between typed values and text through
//! `Serialize::write_json` / `Deserialize::from_json` (no intermediate
//! [`Value`]); [`to_string_pretty`] (2-space indent, like real
//! serde_json), [`to_value`], [`from_value`] and the [`json!`] macro work
//! on the [`Value`] model.

pub use serde::{Map, Number, Value};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub serde::DeError);

impl Error {
    /// True when the input nested arrays/objects deeper than
    /// [`serde::MAX_DEPTH`] levels.
    pub fn is_too_deep(&self) -> bool {
        matches!(self.0.kind(), serde::ErrorKind::TooDeep(_))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e)
    }
}

/// Converts any serializable value into a [`Value`].
pub fn to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Rebuilds a deserializable type from a [`Value`].
pub fn from_value<T: serde::Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v).map_err(Error::from)
}

/// Serializes a value to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    v.write_json(&mut out);
    Ok(out)
}

/// Serializes a value to pretty JSON text (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    serde::json::write_value(&mut out, &v.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a deserializable type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = serde::JsonReader::new(s);
    let v = T::from_json(&mut reader)?;
    reader.end()?;
    Ok(v)
}

// ---------------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------------

/// Builds a [`Value`] from an inline JSON-ish literal. Supports the forms
/// the workspace uses: `{"key": expr, ...}`, `[expr, ...]`, `null`, and
/// bare serializable expressions. Unlike upstream, object/array values are
/// plain Rust expressions — nest containers by nesting explicit `json!`
/// calls (e.g. `json!({"xs": json!([1, 2])})`).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::to_value(&$val)) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let inner = json!([1.5, true, json!(null)]);
        let v = json!({"a": 1, "b": inner, "s": "hi\n"});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back2);
    }

    #[test]
    fn big_u64_roundtrips_exactly() {
        let n = u64::MAX - 3;
        let text = to_string(&n).unwrap();
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn negative_and_float_numbers() {
        let back: i64 = from_str("-42").unwrap();
        assert_eq!(back, -42);
        let back: f64 = from_str("2.5e3").unwrap();
        assert_eq!(back, 2500.0);
    }
}
