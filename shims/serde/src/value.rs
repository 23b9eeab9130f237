//! The in-memory JSON value model shared by the `serde` and `serde_json`
//! stand-ins.

/// Object representation: insertion-ordered key/value pairs. Struct fields
/// keep declaration order; map serializers sort their keys.
pub type Map = Vec<(String, Value)>;

/// A JSON number, kept tagged so `u64`/`i64` round-trip bit-exactly (an
/// `f64`-only model would corrupt counters above 2^53).
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (always < 0; non-negative parses as `U64`).
    I64(i64),
    /// A floating-point number.
    F64(f64),
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::U64(a), Number::U64(b)) => a == b,
            (Number::I64(a), Number::I64(b)) => a == b,
            (Number::F64(a), Number::F64(b)) => a == b,
            (Number::U64(a), Number::I64(b)) | (Number::I64(b), Number::U64(a)) => {
                i64::try_from(*a).is_ok_and(|a| a == *b)
            }
            (Number::F64(a), Number::U64(b)) | (Number::U64(b), Number::F64(a)) => *a == *b as f64,
            (Number::F64(a), Number::I64(b)) | (Number::I64(b), Number::F64(a)) => *a == *b as f64,
        }
    }
}

impl Number {
    /// The number as a `u64`, if losslessly representable. A float
    /// converts only when integral and below 2^64 (`u64::MAX as f64` is
    /// 2^64 itself, which is out of range).
    #[inline]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(n) => Some(n),
            Number::I64(n) => u64::try_from(n).ok(),
            Number::F64(f) if f.fract() == 0.0 && f >= 0.0 && f < u64::MAX as f64 => Some(f as u64),
            Number::F64(_) => None,
        }
    }

    /// The number as an `i64`, if losslessly representable. A float
    /// converts only when integral and strictly inside (−2^63, 2^63): the
    /// integers just past `i64::MIN` round to −2^63 as floats, so that
    /// float cannot say which integer it was.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::I64(n) => Some(n),
            Number::U64(n) => i64::try_from(n).ok(),
            Number::F64(f) if f.fract() == 0.0 && f > i64::MIN as f64 && f < i64::MAX as f64 => {
                Some(f as i64)
            }
            Number::F64(_) => None,
        }
    }

    /// The number as an `f64` (integers widen).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::F64(f) => f,
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
        }
    }
}

/// An in-memory JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (ordered entries).
    Object(Map),
}

impl Value {
    /// The value as a `u64`, if it is a number losslessly representable
    /// as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a number losslessly representable
    /// as one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as object entries.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as array elements.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The entry named `key`, when the value is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number::U64(n))
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(Number::U64(n as u64))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(Number::U64(n as u64))
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        if n >= 0 {
            Value::Number(Number::U64(n as u64))
        } else {
            Value::Number(Number::I64(n))
        }
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::from(n as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Number(Number::F64(f))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
