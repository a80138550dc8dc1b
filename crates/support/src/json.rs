//! Minimal JSON: a value type, a strict parser, and deterministic writers.
//!
//! Covers exactly what the workspace exchanges — the `NetworkSpec` /
//! `SolveReport` shapes of `wolt-cli`, experiment traces, and the
//! quantity newtypes — with two properties the external `serde_json`
//! stack could not guarantee offline:
//!
//! * **Determinism**: objects keep insertion order, floats print with the
//!   shortest round-trip representation, and there is no configuration,
//!   so equal values always serialize to identical bytes.
//! * **Zero dependencies**: builds with no registry access.
//!
//! Types opt in by implementing [`ToJson`] / [`FromJson`] explicitly;
//! there is deliberately no derive magic, so every serialized field is
//! visible in the source.

use std::fmt::{self, Write as _};

/// A JSON value.
///
/// Objects preserve insertion order (`Vec` of pairs, not a map): the
/// serialized form of a value is a pure function of construction order,
/// which is what makes same-seed CLI reports byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number written without a decimal point or exponent.
    ///
    /// Kept distinct from [`Json::Num`] so integer fields (counts,
    /// indices) serialize as `42`, not `42.0`.
    Int(i64),
    /// A JSON number with a fractional part (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Error from parsing or shape-checking JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the problem was detected (0 for
    /// shape errors raised after parsing).
    pub offset: usize,
}

impl JsonError {
    /// Shape error (wrong type / missing field) with no input position.
    pub fn shape(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Serialize into a [`Json`] value.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Deserialize from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, or explains which shape constraint failed.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the missing field or wrong type.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Compact serialization (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization: two-space indent, one key per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Object field by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field by key, as a shape error when absent.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field {key:?}")))
    }

    /// The number value, if this is a number (integer or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The integer value, if this is a number without a fractional part.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Some(*n as i64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True if this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Builds an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Shortest round-trip float formatting; integral values keep a `.0`
/// suffix so the type is evident (`42.0`, not `42`). Non-finite values
/// have no JSON representation and serialize as `null`.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's Debug for f64 is the shortest representation that parses
        // back exactly, and always includes a decimal point or exponent.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos.max(1),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            // hex4 leaves pos after the digits; compensate
                            // for the increment below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8:
                    // it came from &str).
                    let rest = &self.bytes[self.pos..];
                    let step = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let s = std::str::from_utf8(&rest[..step])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += step;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // A number written without '.' or an exponent is an integer when it
        // fits; larger literals degrade to f64 like every JSON parser.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson for primitives and containers.
// ---------------------------------------------------------------------------

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError::shape("expected a number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::shape("expected a boolean"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::shape("expected a string"))
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(n) => Json::Int(n),
                    // u64 values above i64::MAX degrade to f64.
                    Err(_) => Json::Num(*self as f64),
                }
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let n = value.as_i64().ok_or_else(|| match value.as_f64() {
                    Some(f) => JsonError::shape(format!("expected an integer, got {f}")),
                    None => JsonError::shape("expected a number"),
                })?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::shape(format!(
                        "integer {n} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_json(value).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_arr()
            .ok_or_else(|| JsonError::shape("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::shape("expected a two-element array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            Json::parse(r#"{"capacities": [60.0, 20.0], "rates": [[15.0, 10.0], [40.0, 20.0]]}"#)
                .unwrap();
        let caps: Vec<f64> = Vec::from_json(v.field("capacities").unwrap()).unwrap();
        assert_eq!(caps, vec![60.0, 20.0]);
        let rates: Vec<Vec<f64>> = Vec::from_json(v.field("rates").unwrap()).unwrap();
        assert_eq!(rates[1], vec![40.0, 20.0]);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "00",
            "1e",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1 2]",
            "\"bad \\x escape\"",
            "+1",
            ".5",
            "--1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash \u{08}\u{0C} unicode: ☂";
        let json = Json::Str(original.to_string()).to_compact();
        assert_eq!(Json::parse(&json).unwrap(), Json::Str(original.to_string()));
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap(), Json::Str("Aé😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(Json::Num(42.0).to_compact(), "42.0");
        assert_eq!(Json::Num(0.1).to_compact(), "0.1");
        assert_eq!(Json::Num(-3.25).to_compact(), "-3.25");
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [
            0.0,
            1.0,
            -1.0,
            0.1,
            1e-300,
            1e300,
            std::f64::consts::PI,
            177.19761470204833,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Num(v).to_compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(v), "{v}");
        }
    }

    #[test]
    fn pretty_format_is_stable() {
        let v = Json::obj([
            ("name", Json::Str("fig3".into())),
            ("values", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"name\": \"fig3\",\n  \"values\": [\n    1.0,\n    2.5\n  ],\n  \"empty\": []\n}"
        );
        assert_eq!(
            v.to_compact(),
            r#"{"name":"fig3","values":[1.0,2.5],"empty":[]}"#
        );
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::obj([("zebra", Json::Num(1.0)), ("alpha", Json::Num(2.0))]);
        assert_eq!(v.to_compact(), r#"{"zebra":1.0,"alpha":2.0}"#);
        let reparsed = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(reparsed.to_compact(), v.to_compact());
    }

    #[test]
    fn container_traits_round_trip() {
        let pairs: Vec<(String, u64)> = vec![("a".into(), 1), ("b".into(), 2)];
        let back: Vec<(String, u64)> = Vec::from_json(&pairs.to_json()).unwrap();
        assert_eq!(back, pairs);

        let opt: Option<f64> = Some(2.5);
        assert_eq!(Option::<f64>::from_json(&opt.to_json()).unwrap(), Some(2.5));
        assert_eq!(Option::<f64>::from_json(&Json::Null).unwrap(), None);
    }

    #[test]
    fn integer_shape_checks() {
        assert_eq!(u64::from_json(&Json::Num(7.0)).unwrap(), 7);
        assert_eq!(u64::from_json(&Json::Int(7)).unwrap(), 7);
        assert!(u64::from_json(&Json::Num(7.5)).is_err());
        assert!(u64::from_json(&Json::Int(-1)).is_err());
        assert!(u8::from_json(&Json::Num(300.0)).is_err());
        assert!(usize::from_json(&Json::Str("7".into())).is_err());
        assert!(i64::from_json(&Json::Num(-3.0)).is_ok());
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(7usize.to_json().to_compact(), "7");
        assert_eq!((-3i64).to_json().to_compact(), "-3");
        assert_eq!(vec![2usize, 0, 1].to_json().to_compact(), "[2,0,1]");
        // And round trip through the parser as integers.
        let back: Vec<usize> = Vec::from_json(&Json::parse("[2,0,1]").unwrap()).unwrap();
        assert_eq!(back, vec![2, 0, 1]);
        // Integer-valued floats still keep their decimal point.
        assert_eq!(42.0f64.to_json().to_compact(), "42.0");
    }

    #[test]
    fn field_errors_name_the_key() {
        let v = Json::parse(r#"{"a": 1}"#).unwrap();
        let err = v.field("missing").unwrap_err();
        assert!(err.message.contains("missing"));
        assert!(err.to_string().contains("\"missing\""));
    }

    #[test]
    fn error_offsets_point_into_input() {
        let err = Json::parse("[1, 2, oops]").unwrap_err();
        assert!(
            err.offset >= 7,
            "offset {} should reach the bad token",
            err.offset
        );
        assert!(err.to_string().contains("byte"));
    }
}
