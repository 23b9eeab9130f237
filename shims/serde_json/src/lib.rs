//! Offline stand-in for `serde_json`.
//!
//! Thin entry points over the shim-`serde` JSON layer: [`to_string`] and
//! [`from_str`] stream between typed values and text through
//! `Serialize::write_json` / `Deserialize::from_json`;
//! [`to_string_pretty`] re-indents that text (2-space indent, like real
//! serde_json). [`to_value`] and the [`json!`] macro build the dynamic
//! [`Value`] document by parsing a value's text.

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

/// Converts any serializable value into a [`Value`] by parsing its JSON
/// text. Non-finite floats become `null`, as they do in text.
pub fn to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    let text = to_string(v).expect("rendering to a String cannot fail");
    from_str(&text).expect("the JSON writers produce text that parses")
}

/// Serializes a value to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    v.write_json(&mut out);
    Ok(out)
}

/// Serializes a value to pretty JSON text (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    Ok(serde::json::indent(&to_string(v)?, 2))
}

/// Parses JSON text into a deserializable type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = serde::JsonReader::new(s);
    let v = T::from_json(&mut reader)?;
    reader.end()?;
    Ok(v)
}

/// Parses JSON text into `place`, reusing what it holds
/// (`Deserialize::from_json_in_place`): on success `place` is what
/// [`from_str`] returns, with the same errors; after an error it is
/// unspecified.
pub fn from_str_into<T: serde::Deserialize>(s: &str, place: &mut T) -> Result<(), Error> {
    let mut reader = serde::JsonReader::new(s);
    T::from_json_in_place(&mut reader, place)?;
    reader.end()?;
    Ok(())
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
    fn surrogate_pair_escapes_decode_to_one_char() {
        // How Python's `json.dumps` writes a non-BMP id by default.
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "\u{1f600}");
        assert_eq!(from_str::<String>(r#""a\uD83D\uDE00b""#).unwrap(), "a\u{1f600}b");
        // A lone surrogate, either half, stays U+FFFD.
        assert_eq!(from_str::<String>(r#""\ud83d""#).unwrap(), "\u{fffd}");
        assert_eq!(from_str::<String>(r#""\ude00x""#).unwrap(), "\u{fffd}x");
        assert_eq!(from_str::<String>(r#""\ud83d\u0041""#).unwrap(), "\u{fffd}A");
        assert_eq!(from_str::<String>(r#""\ude00\ud83d""#).unwrap(), "\u{fffd}\u{fffd}");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>(r#""\u0041""#).unwrap(), "A");
        assert!(from_str::<String>(r#""\u+041""#).is_err());
        assert!(from_str::<String>(r#""\u-041""#).is_err());
        assert!(from_str::<String>(r#""\u12""#).is_err());
        assert!(from_str::<String>(r#""\u00é""#).is_err());
        assert!(from_str::<String>(r#""\ud83d\u+e00""#).is_err());
    }

    #[test]
    fn pretty_text_is_the_compact_text_reindented() {
        let v = json!({"a": json!([]), "b": json!({}), "c": json!([1, json!({"d": "x,y:[z]"})])});
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    1,\n    {\n      \"d\": \"x,y:[z]\"\n    }\n  ]\n}"
        );
        assert_eq!(to_string_pretty(&7u8).unwrap(), "7");
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
