//! Minimal hand-rolled JSON (the workspace is dependency-free, so there is
//! no serde).
//!
//! Two halves:
//!
//! * **Emission** ([`escape`], [`string`], [`object`], [`array()`],
//!   [`ObjectWriter`]) — what the run reports and wire lines need:
//!   objects, arrays, strings, unsigned integers. Each document is written
//!   into one buffer, and unescaped runs are copied whole, so emission is
//!   linear in the output.
//! * **Parsing** ([`parse`], [`Value`]) — what the `dexlegod` wire
//!   protocol needs: a strict recursive-descent parser for one JSON
//!   document, nested at most [`MAX_DEPTH`] arrays and objects deep.
//!   Numbers keep their raw token ([`Value::Num`]) so `u64` values (e.g.
//!   fuzzing seeds) survive without a float round-trip. Strings are
//!   copied run by run between escapes.

use std::fmt::Write as _;

use dexlego_store::hex::push_hex;

/// Escapes `s` for use inside a JSON string literal (quotes not included).
///
/// Besides the mandatory escapes, U+2028 LINE SEPARATOR and U+2029
/// PARAGRAPH SEPARATOR are escaped: both are legal raw in JSON but are
/// line terminators in JavaScript source, so leaving them raw would make
/// emitted reports unsafe to embed in JS consumers.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s`, escaped as by [`escape`], to `out`. Runs that need no
/// escape are copied whole.
fn push_escaped(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    let mut i = 0;
    // Only ASCII bytes and 0xE2, the lead byte of U+2028/U+2029 (E2 80
    // A8/A9), can start an escape, so a run is always cut at a char
    // boundary.
    while let Some(n) = bytes[i..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\' || b == 0xe2)
    {
        i += n;
        let b = bytes[i];
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ if bytes[i + 1..].starts_with(&[0x80, 0xa8]) => "\\u2028",
            _ if bytes[i + 1..].starts_with(&[0x80, 0xa9]) => "\\u2029",
            _ => {
                // Another character with the same lead byte.
                i += 1;
                continue;
            }
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            // Any other control character.
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        i += if b == 0xe2 { 3 } else { 1 };
        run = i;
    }
    out.push_str(&s[run..]);
}

/// A JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `s` as a JSON string literal, quotes included, to `out`.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// An object from already-serialised `(key, value)` members.
pub fn object(members: &[(&str, String)]) -> String {
    let len: usize = members.iter().map(|(k, v)| k.len() + v.len() + 6).sum();
    let mut out = String::with_capacity(len + 2);
    let mut obj = ObjectWriter::new(&mut out);
    for (key, value) in members {
        obj.raw(key, value);
    }
    obj.finish();
    out
}

/// An array from already-serialised elements.
pub fn array(elements: &[String]) -> String {
    let len: usize = elements.iter().map(|e| e.len() + 2).sum();
    let mut out = String::with_capacity(len + 2);
    out.push('[');
    for (i, element) in elements.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(element);
    }
    out.push(']');
    out
}

/// Writes one JSON object member by member into the caller's buffer:
/// `{`, then `"key": value` members joined by `, `, then `}` on
/// [`finish`](ObjectWriter::finish). Every object this module emits goes
/// through it, and large wire lines use it to write their payload once,
/// straight into the line.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Starts member `key` and returns the buffer its serialised value
    /// must be appended to before the next member.
    pub(crate) fn member(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push_str(", ");
        }
        self.empty = false;
        push_string(self.out, key);
        self.out.push_str(": ");
        self.out
    }

    /// Member `key` with an already-serialised value.
    pub fn raw(&mut self, key: &str, value: &str) {
        self.member(key).push_str(value);
    }

    /// Member `key` as a string literal of `value`.
    pub fn string(&mut self, key: &str, value: &str) {
        push_string(self.member(key), value);
    }

    /// Member `key` as a lowercase hex string of `bytes`. Hex never needs
    /// escaping, so the digits are written once, straight into the buffer.
    pub fn hex(&mut self, key: &str, bytes: &[u8]) {
        let out = self.member(key);
        out.push('"');
        push_hex(out, bytes);
        out.push('"');
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token so integer values are lossless.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys: first wins on lookup).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64` (integers only — floats and negatives
    /// return `None`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serialises the value back to one JSON document. Numbers re-emit
    /// their raw token, so a parse→serialise round trip is lossless for
    /// `u64` payloads; object member order is preserved.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.len_hint());
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => push_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                let mut obj = ObjectWriter::new(out);
                for (key, value) in members {
                    value.write_json(obj.member(key));
                }
                obj.finish();
            }
        }
    }

    /// The serialised length when no string needs escaping — what
    /// [`to_json`](Value::to_json) reserves up front.
    fn len_hint(&self) -> usize {
        match self {
            Value::Null | Value::Bool(true) => 4,
            Value::Bool(false) => 5,
            Value::Num(raw) => raw.len(),
            Value::Str(s) => s.len() + 2,
            Value::Arr(items) => items.iter().map(|v| v.len_hint() + 2).sum::<usize>() + 2,
            Value::Obj(members) => {
                members
                    .iter()
                    .map(|(k, v)| k.len() + v.len_hint() + 6)
                    .sum::<usize>()
                    + 2
            }
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile request line
/// from overflowing the stack of the thread that parses it; the deepest
/// document the wire protocol carries (a `stats` reply) nests 4 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// content rejected).
///
/// # Errors
///
/// A message naming the byte offset and what went wrong, including
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            got => Err(format!(
                "expected '{want}' at byte {}, found {got:?}",
                self.pos
            )),
        }
    }

    fn eat(&mut self, literal: &str, value: Value) -> Result<Value, String> {
        if self.s[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('{' | '[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.eat("true", Value::Bool(true)),
            Some('f') => self.eat("false", Value::Bool(false)),
            Some('n') => self.eat("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Value::Obj(members)),
                got => return Err(format!("expected ',' or '}}', found {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Value::Arr(items)),
                got => return Err(format!("expected ',' or ']', found {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece; all three are ASCII, so the run ends on
            // a char boundary.
            let rest = &self.s.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.s[self.pos..self.pos + run]);
            self.pos += run;
            match self.bump() {
                None => return Err("unterminated string".to_owned()),
                Some('"') => return Ok(out),
                Some('\\') => out.push(self.escape_char()?),
                Some(_) => return Err(format!("raw control character at byte {}", self.pos)),
            }
        }
    }

    fn escape_char(&mut self) -> Result<char, String> {
        match self.bump() {
            Some('"') => Ok('"'),
            Some('\\') => Ok('\\'),
            Some('/') => Ok('/'),
            Some('b') => Ok('\u{8}'),
            Some('f') => Ok('\u{c}'),
            Some('n') => Ok('\n'),
            Some('r') => Ok('\r'),
            Some('t') => Ok('\t'),
            Some('u') => {
                let unit = self.hex4()?;
                // Surrogate pair: a high surrogate must be followed by an
                // escaped low surrogate.
                if (0xd800..0xdc00).contains(&unit) {
                    if self.bump() != Some('\\') || self.bump() != Some('u') {
                        return Err("lone high surrogate".to_owned());
                    }
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err("invalid low surrogate".to_owned());
                    }
                    let cp = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    char::from_u32(cp).ok_or_else(|| "invalid surrogate pair".to_owned())
                } else if (0xdc00..0xe000).contains(&unit) {
                    Err("lone low surrogate".to_owned())
                } else {
                    char::from_u32(unit).ok_or_else(|| "invalid \\u escape".to_owned())
                }
            }
            got => Err(format!("invalid escape {got:?}")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|c| c.to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            value = (value << 4) | digit;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some('.') {
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let raw = &self.s[start..self.pos];
        // Validate the token shape by parsing it; the raw text is kept.
        raw.parse::<f64>()
            .map_err(|_| format!("invalid number {raw:?} at byte {start}"))?;
        Ok(Value::Num(raw.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escapes_js_line_separators() {
        // U+2028/U+2029 are valid raw JSON but terminate lines in
        // JavaScript; they must leave as escapes.
        assert_eq!(escape("a\u{2028}b\u{2029}c"), "a\\u2028b\\u2029c");
        let emitted = string("x\u{2028}y");
        assert!(!emitted.contains('\u{2028}'));
        // And the parser round-trips them back to the real characters.
        assert_eq!(
            parse(&emitted).unwrap(),
            Value::Str("x\u{2028}y".to_owned())
        );
    }

    #[test]
    fn composes_objects() {
        let o = object(&[("a", "1".to_owned()), ("b", string("x"))]);
        assert_eq!(o, "{\"a\": 1, \"b\": \"x\"}");
        assert_eq!(array(&["1".to_owned(), "2".to_owned()]), "[1, 2]");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".to_owned()));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    }

    #[test]
    fn u64_numbers_are_lossless() {
        let big = u64::MAX.to_string();
        assert_eq!(parse(&big).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"op": "extract", "seeds": [1, 2], "packer": null, "deep": {"x": true}}"#)
            .unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("extract"));
        let seeds: Vec<u64> = v
            .get("seeds")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(seeds, vec![1, 2]);
        assert!(v.get("packer").unwrap().is_null());
        assert_eq!(
            v.get("deep").unwrap().get("x").and_then(Value::as_bool),
            Some(true)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_string_escapes() {
        assert_eq!(
            parse(r#""a\n\t\"\\Aé""#).unwrap(),
            Value::Str("a\n\t\"\\Aé".to_owned())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".to_owned()));
    }

    #[test]
    fn emission_parses_back() {
        let doc = object(&[
            ("name", string("job \"one\"\nline")),
            ("n", "12345".to_owned()),
            ("tags", array(&[string("a"), string("b")])),
            ("none", "null".to_owned()),
        ]);
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("job \"one\"\nline")
        );
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(12345));
        assert_eq!(v.get("tags").and_then(Value::as_array).unwrap().len(), 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "true false",
            r#""\ud83d""#,
            r#""\q""#,
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let deeper = format!("[{deepest}]");
        assert!(parse(&deeper).unwrap_err().contains("nesting deeper than"));
        let objects = format!(
            "{}1{}",
            "{\"a\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // A hostile request line: recursing once per level would overflow
        // this test thread's stack.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn serialisation_round_trips_losslessly() {
        for doc in [
            r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"n": 18446744073709551615}}"#,
            r#"[{"k": "v"}, 0, -3.5]"#,
            r#""just a string""#,
        ] {
            let value = parse(doc).expect("parses");
            let emitted = value.to_json();
            assert_eq!(parse(&emitted).expect("re-parses"), value, "{doc}");
        }
        // Exact-token check: a u64 past f64 precision survives verbatim.
        let value = parse("18446744073709551615").unwrap();
        assert_eq!(value.to_json(), "18446744073709551615");
    }
}
