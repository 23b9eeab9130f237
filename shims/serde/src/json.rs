//! JSON text on both sides of the traits: [`JsonReader`], the
//! recursive-descent parser that typed `from_json` impls pull tokens from,
//! the compact writers that `write_json` impls append to, and [`indent`],
//! which re-indents compact text for `serde_json::to_string_pretty`.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::{DeError, Number, Value};

/// Deepest array/object nesting [`JsonReader`] accepts. Deeper input is a
/// [`ErrorKind::TooDeep`](crate::ErrorKind::TooDeep) error rather than a
/// stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A cursor over JSON text. Typed `from_json` impls walk it token by token
/// ([`begin_object`](Self::begin_object) / [`key`](Self::key) /
/// [`object_next`](Self::object_next), and the array equivalents);
/// [`value`](Self::value) parses one whole value into the [`Value`] model.
/// Both count nesting against [`MAX_DEPTH`].
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0, depth: 0 }
    }

    /// Checks that only whitespace remains.
    pub fn end(&mut self) -> Result<(), DeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(DeError::msg(format!("trailing characters at byte {}", self.pos))),
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        match self.text.as_bytes().get(self.pos) {
            // Every JSON whitespace byte is <= b' '.
            Some(&b) if b > b' ' => Some(b),
            _ => self.skip_ws(),
        }
    }

    fn skip_ws(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    /// Parses the next value, whatever it is, into the [`Value`] model.
    pub fn value(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(|s| Value::String(s.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.begin_array()?;
                while more {
                    items.push(self.value()?);
                    more = self.array_next()?;
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut entries = Vec::new();
                let mut more = self.begin_object()?;
                while more {
                    let key = self.key()?.into_owned();
                    entries.push((key, self.value()?));
                    more = self.object_next()?;
                }
                Ok(Value::Object(entries))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(Value::Number),
            other => Err(DeError::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parses the next token when it is a number; `None` (nothing
    /// consumed) when the next value is anything else.
    #[inline]
    pub fn number_if_next(&mut self) -> Result<Option<Number>, DeError> {
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(Some),
            _ => Ok(None),
        }
    }

    /// Consumes a `null` token if one is next.
    #[inline]
    pub fn null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.literal("null")
    }

    /// Parses a `true` or `false` token.
    #[inline]
    pub fn boolean(&mut self) -> Result<bool, DeError> {
        match self.peek() {
            Some(b't') if self.literal("true") => Ok(true),
            Some(b'f') if self.literal("false") => Ok(false),
            _ => Err(self.unexpected("a bool")),
        }
    }

    /// The error for a next value that is not the kind `want` names (e.g.
    /// `"number"`).
    #[cold]
    pub fn expected(&mut self, want: &str) -> DeError {
        self.peek();
        self.unexpected(want)
    }

    /// Parses the next value and drops it: unknown and repeated keys are
    /// syntax-checked like any other value.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        self.value().map(drop)
    }

    /// Consumes `{`; returns whether an entry follows (`false` after `{}`).
    #[inline]
    pub fn begin_object(&mut self) -> Result<bool, DeError> {
        self.open(b'{', b'}')
    }

    /// Consumes an entry's key and its `:`.
    #[inline]
    pub fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        let key = self.string()?;
        if self.peek() == Some(b':') {
            self.pos += 1;
            return Ok(key);
        }
        Err(self.unexpected("`:`"))
    }

    /// Consumes the next key and its `:` when they are spelled exactly
    /// `quoted` (`"name":`, no escapes, no whitespace before the colon);
    /// otherwise consumes nothing but whitespace and returns `false`.
    /// Derived structs try their next declared field this way before
    /// falling back to [`key`](Self::key): the text matched is the one
    /// spelling of that key which `key` would also accept, so either path
    /// reads the same entry to the same field.
    #[inline]
    pub fn key_is(&mut self, quoted: &str) -> bool {
        self.peek();
        let hit = self.text.as_bytes()[self.pos..].starts_with(quoted.as_bytes());
        if hit {
            self.pos += quoted.len();
        }
        hit
    }

    /// After an entry's value: consumes `,` (another entry follows, `true`)
    /// or the closing `}` (`false`).
    #[inline]
    pub fn object_next(&mut self) -> Result<bool, DeError> {
        self.next(b'}')
    }

    /// Consumes `[`; returns whether an element follows (`false` after `[]`).
    #[inline]
    pub fn begin_array(&mut self) -> Result<bool, DeError> {
        self.open(b'[', b']')
    }

    /// After an element: consumes `,` (another element follows, `true`) or
    /// the closing `]` (`false`).
    #[inline]
    pub fn array_next(&mut self) -> Result<bool, DeError> {
        self.next(b']')
    }

    /// Parses a string token. Borrows from the input unless the string
    /// holds escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected("`\"`"));
        }
        let start = self.pos + 1;
        self.pos = plain_run(self.text.as_bytes(), start);
        if self.text.as_bytes().get(self.pos) == Some(&b'"') {
            let s = self.slice(start, self.pos)?;
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        self.escaped_string(start)
    }

    /// The rest of a string token that holds an escape (or is
    /// unterminated), whose plain prefix starts at `start`.
    fn escaped_string(&mut self, start: usize) -> Result<Cow<'a, str>, DeError> {
        let bytes = self.text.as_bytes();
        let mut s = String::from(self.slice(start, self.pos)?);
        loop {
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let code = hex4(bytes, self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate escape followed by a low one
                            // is one char (how writers that escape non-BMP
                            // text spell it); a lone surrogate is U+FFFD.
                            let c = match code {
                                0xD800..=0xDBFF if bytes[self.pos + 1..].starts_with(b"\\u") => {
                                    match hex4(bytes, self.pos + 3)? {
                                        low @ 0xDC00..=0xDFFF => {
                                            self.pos += 6;
                                            char::from_u32(
                                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                            )
                                        }
                                        _ => None,
                                    }
                                }
                                _ => char::from_u32(code),
                            };
                            s.push(c.unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(DeError::msg(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|&b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                    let start = self.pos;
                    self.pos = plain_run(bytes, start);
                    s.push_str(self.slice(start, self.pos)?);
                }
                _ => return Err(DeError::msg("unterminated string")),
            }
        }
    }

    /// Parses a number token by the JSON grammar: an integer that fits
    /// `u64` (or, negative, `i64`) stays exact; anything else parses as a
    /// finite `f64`.
    #[inline]
    pub fn number(&mut self) -> Result<Number, DeError> {
        match self.plain_u64() {
            Some(n) => Ok(Number::U64(n)),
            None => self.general_number(self.pos),
        }
    }

    /// Consumes the next token when it is a plain run of at most 19 digits
    /// (so it cannot overflow `u64`) that ends the token, and returns its
    /// value: exactly what [`number`](Self::number) returns for it, as
    /// `Number::U64`. Consumes nothing but whitespace and returns `None`
    /// for any other token (signs, fractions, exponents, leading zeros,
    /// longer runs), which the caller hands to `number` for the full
    /// grammar and its errors. The integer impls read their values here.
    #[inline]
    pub fn plain_u64(&mut self) -> Option<u64> {
        let first = self.peek()?.wrapping_sub(b'0');
        if first >= 10 {
            return None;
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut n = u64::from(first);
        let mut end = start + 1;
        // A leading zero is only the number zero.
        if first != 0 {
            for &b in &bytes[end..bytes.len().min(start + 19)] {
                let d = b.wrapping_sub(b'0');
                if d >= 10 {
                    break;
                }
                n = n * 10 + u64::from(d);
                end += 1;
            }
        }
        if matches!(bytes.get(end), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            return None;
        }
        self.pos = end;
        Some(n)
    }

    /// Any number token starting at `start` (= `self.pos`), following the
    /// grammar `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn general_number(&mut self, start: usize) -> Result<Number, DeError> {
        let bytes = self.text.as_bytes();
        let digits = |mut at: usize| {
            while bytes.get(at).is_some_and(u8::is_ascii_digit) {
                at += 1;
            }
            at
        };
        let invalid = || DeError::msg(format!("invalid number at byte {start}"));
        let int = start + usize::from(bytes.get(start) == Some(&b'-'));
        let mut end = digits(int);
        if end == int || (bytes[int] == b'0' && end > int + 1) {
            return Err(invalid());
        }
        let mut float = false;
        if bytes.get(end) == Some(&b'.') {
            let frac = digits(end + 1);
            if frac == end + 1 {
                return Err(invalid());
            }
            (end, float) = (frac, true);
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            let sign = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
            let exp = digits(sign);
            if exp == sign {
                return Err(invalid());
            }
            (end, float) = (exp, true);
        }
        self.pos = end;
        let text = &self.text[start..end];
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::I64(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::F64(f)),
            _ => Err(invalid()),
        }
    }

    fn slice(&self, start: usize, end: usize) -> Result<&'a str, DeError> {
        self.text.get(start..end).ok_or_else(|| DeError::msg("invalid utf-8 in string"))
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    #[cold]
    fn unexpected(&self, want: impl std::fmt::Display) -> DeError {
        DeError::msg(format!(
            "expected {want} at byte {}, got {:?}",
            self.pos,
            self.text.as_bytes().get(self.pos).map(|&b| b as char)
        ))
    }

    #[inline]
    fn open(&mut self, open: u8, close: u8) -> Result<bool, DeError> {
        if self.peek() != Some(open) {
            return Err(self.unexpected(format_args!("`{}`", open as char)));
        }
        let at = self.pos;
        self.pos += 1;
        if self.depth == MAX_DEPTH {
            return Err(DeError::too_deep(at));
        }
        self.depth += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, DeError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.unexpected(format_args!("`,` or `{}`", close as char))),
        }
    }
}

/// The value of the four hex digits of a `\u` escape starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, DeError> {
    bytes
        .get(at..at + 4)
        .and_then(|hex| {
            hex.iter().try_fold(0, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
        })
        .ok_or_else(|| DeError::msg(format!("bad \\u escape at byte {at}")))
}

/// End of the run of bytes from `at` that are neither `"` nor `\`.
#[inline]
fn plain_run(bytes: &[u8], at: usize) -> usize {
    at + bytes[at..].iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(bytes.len() - at)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Appends `v` as compact JSON.
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::U64(u)) => write_u64(out, *u),
        Value::Number(Number::I64(i)) => write_i64(out, *i),
        Value::Number(Number::F64(f)) => write_f64(out, *f),
        Value::String(s) => write_str(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Re-indents compact JSON text (as the writers produce it: no whitespace
/// outside strings) with `width` spaces per level: one element or entry
/// per line, `": "` after each key, and empty `[]` / `{}` kept inline.
pub fn indent(compact: &str, width: usize) -> String {
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0;
    // `compact[copied..i]` is pending verbatim text; every split point is
    // an ASCII byte, so each slice is on char boundaries.
    let (mut copied, mut i) = (0, 0);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    };
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'[' | b'{' if matches!(bytes.get(i + 1), Some(b']' | b'}')) => i += 2,
            b'[' | b'{' => {
                i += 1;
                depth += 1;
                out.push_str(&compact[copied..i]);
                newline(&mut out, depth);
                copied = i;
            }
            b']' | b'}' => {
                depth -= 1;
                out.push_str(&compact[copied..i]);
                newline(&mut out, depth);
                copied = i;
                i += 1;
            }
            b',' => {
                i += 1;
                out.push_str(&compact[copied..i]);
                newline(&mut out, depth);
                copied = i;
            }
            b':' => {
                i += 1;
                out.push_str(&compact[copied..i]);
                out.push(' ');
                copied = i;
            }
            _ => i += 1,
        }
    }
    out.push_str(&compact[copied..]);
    out
}

/// Appends `n` in decimal.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Appends `n` in decimal.
pub fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Appends `f` as `{f}` (with a `.0` suffix when that prints an integer,
/// keeping the float-ness), or `null` when it is not finite: JSON has no
/// representation for NaN or infinities, and real serde_json writes `null`.
pub fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{f}").expect("writing to a String cannot fail");
    if !out[start..].bytes().any(|b| b == b'.' || b == b'e' || b == b'E') {
        out.push_str(".0");
    }
}

/// Appends `s` as a quoted JSON string, escaping `"`, `\` and control
/// characters.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}
