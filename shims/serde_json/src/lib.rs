//! Minimal offline stand-in for `serde_json`, built on the shim `serde`
//! crate's `Content` data model.
//!
//! Covers the workspace's usage: `to_string` / `to_string_pretty` /
//! `to_value` / `from_str`, a `Value` tree with `Number` and an
//! insertion-ordered `Map`, `Index` by key and position, and comparisons
//! against literals. Integers round-trip as integers; floats always render
//! with a decimal point or exponent so `is_f64` survives a round trip.

use serde::{Content, Deserialize, Serialize};

/// JSON number: integer or float, as parsed.
#[derive(Debug, Clone)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Floating point.
    Float(f64),
}

impl Number {
    /// The value as an `f64`, if representable.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Number::PosInt(v) => Some(*v as f64),
            Number::NegInt(v) => Some(*v as f64),
            Number::Float(v) => Some(*v),
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Number::PosInt(v) => i64::try_from(*v).ok(),
            Number::NegInt(v) => Some(*v),
            Number::Float(_) => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Number::PosInt(v) => Some(*v),
            Number::NegInt(_) | Number::Float(_) => None,
        }
    }

    /// Whether the number is a float (was written with `.` or exponent).
    pub fn is_f64(&self) -> bool {
        matches!(self, Number::Float(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        self.as_f64() == other.as_f64() && self.is_f64() == other.is_f64()
    }
}

impl std::fmt::Display for Number {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Number::PosInt(v) => write!(f, "{v}"),
            Number::NegInt(v) => write!(f, "{v}"),
            // `{:?}` keeps a trailing `.0` on whole floats, so float-ness
            // survives serialization round trips.
            Number::Float(v) if v.is_finite() => write!(f, "{v:?}"),
            Number::Float(_) => write!(f, "null"),
        }
    }
}

/// Insertion-ordered string-keyed map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// New empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Insert, replacing an existing key in place.
    pub fn insert(&mut self, key: String, value: Value) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Look up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Key/value pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::ops::Index<&str> for Map {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Number.
    Number(Number),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object.
    Object(Map),
}

impl Value {
    /// Borrow as array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Convert to f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// Convert to i64 if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Convert to u64 if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Borrow as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Look up a key (objects only; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    fn write_json(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => write_escaped(s, out),
            Value::Array(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i, lvl| {
                    items[i].write_json(out, indent, lvl);
                });
            }
            Value::Object(map) => {
                write_seq(out, indent, level, '{', '}', map.len(), |out, i, lvl| {
                    let (k, v) = &map.entries[i];
                    write_escaped(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write_json(out, indent, lvl);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (level + 1)));
        }
        item(out, i, level + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * level));
    }
    out.push(close);
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write_json(&mut s, None, 0);
        f.write_str(&s)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        match self {
            Value::Null => Content::Null,
            Value::Bool(b) => Content::Bool(*b),
            Value::Number(Number::PosInt(v)) => {
                if *v <= i64::MAX as u64 {
                    Content::I64(*v as i64)
                } else {
                    Content::U64(*v)
                }
            }
            Value::Number(Number::NegInt(v)) => Content::I64(*v),
            Value::Number(Number::Float(v)) => Content::F64(*v),
            Value::String(s) => Content::Str(s.clone()),
            Value::Array(a) => Content::Seq(a.iter().map(Serialize::to_content).collect()),
            Value::Object(m) => Content::Map(
                m.entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_content()))
                    .collect(),
            ),
        }
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Self, String> {
        Ok(match c {
            Content::Null => Value::Null,
            Content::Bool(b) => Value::Bool(*b),
            Content::I64(v) => Value::Number(if *v < 0 {
                Number::NegInt(*v)
            } else {
                Number::PosInt(*v as u64)
            }),
            Content::U64(v) => Value::Number(Number::PosInt(*v)),
            Content::F64(v) => Value::Number(Number::Float(*v)),
            Content::Str(s) => Value::String(s.clone()),
            Content::Seq(items) => Value::Array(
                items
                    .iter()
                    .map(Value::from_content)
                    .collect::<Result<_, _>>()?,
            ),
            Content::Map(entries) => {
                let mut m = Map::new();
                for (k, v) in entries {
                    m.insert(k.clone(), Value::from_content(v)?);
                }
                Value::Object(m)
            }
        })
    }
}

/// Serialization / parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize>(value: T) -> Result<String, Error> {
    let v = content_to_value(&value.to_content());
    let mut s = String::new();
    v.write_json(&mut s, None, 0);
    Ok(s)
}

/// Serialize to pretty JSON text (2-space indent).
pub fn to_string_pretty<T: Serialize>(value: T) -> Result<String, Error> {
    let v = content_to_value(&value.to_content());
    let mut s = String::new();
    v.write_json(&mut s, Some(2), 0);
    Ok(s)
}

/// Serialize to a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(content_to_value(&value.to_content()))
}

fn content_to_value(c: &Content) -> Value {
    Value::from_content(c).expect("Content always converts to Value")
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let content = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_content(&content).map_err(Error)
}

/// Parse a [`Value`] from a serializable input (identity-ish helper).
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_content(&value.to_content()).map_err(Error)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        match self.peek() {
            None => Err(Error("unexpected end of input".into())),
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(Error(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one slice. Both are ASCII, so they never fall inside
                    // a multibyte sequence and the cut is a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Content::I64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| Error(format!("invalid number `{text}`")))?;
            Ok(if v <= i64::MAX as u64 {
                Content::I64(v as i64)
            } else {
                Content::U64(v)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_roundtrip() {
        let text = r#"{"a": [1, -2, 3.5], "b": "hi\n", "c": true, "d": null}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][0], 1i64);
        assert_eq!(v["a"][2], 3.5f64);
        assert_eq!(v["b"], "hi\n");
        assert_eq!(v["c"], true);
        assert_eq!(v["d"], Value::Null);
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_keep_floatness() {
        let v: Value = from_str("[1.0, 1]").unwrap();
        let arr = v.as_array().unwrap();
        assert!(matches!(&arr[0], Value::Number(n) if n.is_f64()));
        assert!(matches!(&arr[1], Value::Number(n) if !n.is_f64()));
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[1.0,1]");
    }

    #[test]
    fn pretty_print_is_reparseable() {
        let v: Value = from_str(r#"{"x": {"y": [1, 2]}, "z": []}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn errors_report_position() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn multibyte_runs_round_trip_next_to_escapes() {
        let original = "é\"ß→\\\n𝄞 \t€\u{1}z";
        let text = to_string(&Value::String(original.into())).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, original);
        let escaped: String = from_str(r#""\u00e9é\"→\\""#).unwrap();
        assert_eq!(escaped, "éé\"→\\");
    }

    #[test]
    fn typed_from_str() {
        let v: Vec<(u32, u32)> = from_str("[[1, 2], [3, 4]]").unwrap();
        assert_eq!(v, vec![(1, 2), (3, 4)]);
        let s: String = from_str("\"x\"").unwrap();
        assert_eq!(s, "x");
    }
}
