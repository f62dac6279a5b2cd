//! Minimal JSON: a [`Value`] tree, a recursive-descent parser, and compact /
//! pretty writers.
//!
//! The workspace needs JSON in two places — the on-disk run-artifact cache in
//! `p2pmal-bench` and the machine-readable comparison dump in
//! `p2pmal-analysis` — and the build environment cannot fetch serde. Both
//! producers hand-build their trees, so a small explicit `Value` type is all
//! that is required. Object key order is preserved (insertion order), which
//! keeps serialized artifacts byte-stable across runs.
//!
//! Numbers are stored as `f64`. Every integer the workspace serializes
//! (event counts, byte sizes, microsecond timestamps) is far below 2^53, so
//! round-tripping is exact.

use std::borrow::Cow;
use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` on non-arrays and out-of-range indexes.
    pub fn at(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(idx),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, None, 0, &mut out);
        out
    }

    /// Indented multi-line serialization.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(2), 0, &mut out);
        out
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Panics on non-objects / missing keys, mirroring the ergonomics the
    /// tests want; use [`Value::get`] for fallible lookup.
    fn index(&self, key: &str) -> &Value {
        self.get(key)
            .unwrap_or_else(|| panic!("no key {key:?} in {self:?}"))
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        self.at(idx)
            .unwrap_or_else(|| panic!("no index {idx} in {self:?}"))
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Num(n as f64)
    }
}

impl From<u16> for Value {
    fn from(n: u16) -> Self {
        Value::Num(n as f64)
    }
}

impl From<u8> for Value {
    fn from(n: u8) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Arr(items)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => write_seq(
            items.iter().map(|v| (None, v)),
            indent,
            depth,
            out,
            ('[', ']'),
        ),
        Value::Obj(fields) => write_seq(
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            indent,
            depth,
            out,
            ('{', '}'),
        ),
    }
}

fn write_seq<'a, I>(
    items: I,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    braces: (char, char),
) where
    I: ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
{
    out.push(braces.0);
    let len = items.len();
    for (i, (key, v)) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        if let Some(k) = key {
            write_string(k, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
        }
        write_value(v, indent, depth + 1, out);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(step) = indent {
        if len > 0 {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    }
    out.push(braces.1);
}

/// Appends `n` the way every writer in the workspace renders a number:
/// integral values below 9e15 as integers, everything else through `f64`'s
/// shortest round-trip `Display`.
pub fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted JSON string. `"`, `\\` and control bytes are
/// escaped; everything else (non-ASCII included) is copied through.
pub fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    // Copy maximal runs of bytes that need no escape in one go. Every byte
    // that does is ASCII, so the run boundaries are char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Why a parse failed, with the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub at: usize,
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut r = Reader::new(input);
    r.skip_ws();
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Containers nested deeper than this are rejected, so no input can
/// overflow the stack of the recursive descent.
pub const MAX_DEPTH: usize = 128;

/// The tokenizer [`parse`] is built on, for callers that validate a document
/// and pick fields out of it without building a [`Value`] tree (the journal
/// scanner in `p2pmal-obs`). [`Reader::skip_value`] accepts exactly what
/// [`Reader::value`] accepts.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    /// The next byte, not consumed.
    pub fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips trailing whitespace and fails unless the input ends there.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing data"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    /// Parses any value into a tree.
    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.keyword("null").map(|()| Value::Null),
            Some(b't') => self.keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|key, r| {
                    fields.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Validates any value and drops it.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(|r| r.skip_value()),
            Some(b'{') => self.object(|_, r| r.skip_value()),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.err("expected a value")),
        }
    }

    fn keyword(&mut self, word: &'static str) -> Result<(), ParseError> {
        if self.input.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("bad keyword"))
        }
    }

    pub fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("bad number"))
    }

    /// Parses a string; borrowed from the input unless it holds an escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"', "expected string")?;
        let mut out = Cow::Borrowed("");
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .input
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our writers;
                            // map unpaired surrogates to the replacement char.
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.to_mut().push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a maximal run of unescaped bytes in one go.
                    // ASCII quote/backslash never appear inside a multi-byte
                    // UTF-8 sequence, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let chunk = &self.input[start..self.pos];
                    if out.is_empty() {
                        out = Cow::Borrowed(chunk);
                    } else {
                        out.to_mut().push_str(chunk);
                    }
                }
            }
        }
    }

    fn nested<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    /// Walks an array; `item` must consume exactly one value per call.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'[', "expected array")?;
        self.nested(|r| {
            r.skip_ws();
            if r.peek() == Some(b']') {
                r.pos += 1;
                return Ok(());
            }
            loop {
                r.skip_ws();
                item(r)?;
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b']') => {
                        r.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(r.err("expected , or ]")),
                }
            }
        })
    }

    /// Walks an object; `field` gets each key and must consume exactly one
    /// value per call. Duplicate keys are passed through in input order.
    pub fn object(
        &mut self,
        mut field: impl FnMut(Cow<'a, str>, &mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{', "expected object")?;
        self.nested(|r| {
            r.skip_ws();
            if r.peek() == Some(b'}') {
                r.pos += 1;
                return Ok(());
            }
            loop {
                r.skip_ws();
                let key = r.string()?;
                r.skip_ws();
                r.expect(b':', "expected :")?;
                r.skip_ws();
                field(key, r)?;
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b'}') => {
                        r.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(r.err("expected , or }")),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = obj(vec![
            ("name", "setup.exe".into()),
            ("size", 58_368u64.into()),
            ("clean", false.into()),
            ("sha1", Value::Null),
            (
                "days",
                Value::Arr(vec![1u64.into(), 2u64.into(), 3u64.into()]),
            ),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let v = Value::Str(nasty.to_string());
        assert_eq!(parse(&v.to_string_compact()).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for n in [0.0, -1.0, 3_041_280_000_000.0, 0.5, 68.4, 1e-9] {
            let v = Value::Num(n);
            assert_eq!(parse(&v.to_string_compact()).unwrap().as_f64(), Some(n));
        }
    }

    #[test]
    fn index_and_eq_sugar() {
        let v = obj(vec![(
            "expectations",
            Value::Arr(vec![obj(vec![("id", "a".into())])]),
        )]);
        assert_eq!(v["expectations"][0]["id"], "a");
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn skip_value_accepts_what_value_accepts() {
        let docs = [
            "null",
            "tru",
            "-",
            "-.5",
            "1.",
            "1e",
            "1e5",
            "[1,{\"a\":[]}]",
            "[1,]",
            "{\"a\":}",
            "\"a\\u00e9\\n\"",
            "\"\\u12\"",
            "\"\\q\"",
            "\"open",
            "{\"a\":1,\"a\":2}",
            "{1:2}",
            "[ ]",
            "{ }",
            "",
        ];
        for doc in docs {
            let mut tree = Reader::new(doc);
            let mut skip = Reader::new(doc);
            assert_eq!(
                tree.value().map(drop).and_then(|()| tree.finish()),
                skip.skip_value().and_then(|()| skip.finish()),
                "{doc:?}"
            );
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new("\"plain é\" \"a\\tb\"");
        assert!(matches!(r.string(), Ok(Cow::Borrowed("plain é"))));
        r.skip_ws();
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "a\tb"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)).unwrap_err().what,
            "nested too deeply"
        );
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn as_u64_guards() {
        assert_eq!(Value::Num(5.0).as_u64(), Some(5));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
    }
}
