//! Minimal JSON support shared across the workspace.
//!
//! Four pieces, all dependency-free:
//!
//! - [`escape_into`] / [`escape`]: JSON string escaping with the exact
//!   byte-level behavior the remarks JSON-lines format has always used
//!   (`\"`, `\\`, `\n`, `\r`, `\t`, and `\u00XX` for other control
//!   characters). Every serializer in the workspace routes through this
//!   so RTL names, file paths, and error messages are always escaped.
//! - [`JsonWriter`]: a compact (no-whitespace) streaming writer, the
//!   one JSON emitter of the workspace (stats snapshots, profiles,
//!   traces, remarks, wire replies). Comma placement is tracked per
//!   nesting level, so callers never emit a trailing or missing comma.
//! - [`Value`] / [`parse`]: the one JSON reader, producing a document
//!   tree. It decodes the `ompgpu-serve/v1` wire protocol, artifacts
//!   and remark streams alike (strict RFC 8259: no duplicate keys, no
//!   unpaired surrogates, no leading zeros; at most [`MAX_DEPTH`]
//!   nested arrays and objects, so no input can overflow the parser's
//!   stack). Object key order is preserved and numbers keep their
//!   source spelling, so `parse` → [`Value::to_json`] round-trips
//!   byte-identically. [`validate`] is `parse`'s syntax check and
//!   [`parse_lines`] its JSON-lines walk.
//! - [`fnv1a`] / [`content_address`]: the 64-bit FNV-1a hash used for
//!   the compile service's content-addressed artifact cache keys.

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes), appending to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Convenience wrapper over [`escape_into`] returning a new `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Compact JSON writer with per-level comma tracking.
///
/// Values are emitted in call order; inside an object every value must
/// be preceded by a `key`. The writer never inserts whitespace, so
/// output is stable and diff-friendly byte-for-byte.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    // One entry per open container: true once the first element has
    // been written (so the next one needs a comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    pub fn with_capacity(cap: usize) -> JsonWriter {
        JsonWriter {
            buf: String::with_capacity(cap),
            stack: Vec::new(),
        }
    }

    fn comma(&mut self) {
        if let Some(has_prev) = self.stack.last_mut() {
            if *has_prev {
                self.buf.push(',');
            }
            *has_prev = true;
        }
    }

    /// Writes an object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.comma();
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        // The value that follows must not emit its own comma.
        if let Some(has_prev) = self.stack.last_mut() {
            *has_prev = false;
        }
        self
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('{');
        self.stack.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push('}');
        if let Some(has_prev) = self.stack.last_mut() {
            *has_prev = true;
        }
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('[');
        self.stack.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push(']');
        if let Some(has_prev) = self.stack.last_mut() {
            *has_prev = true;
        }
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.comma();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
        self
    }

    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.comma();
        self.buf.push_str(&n.to_string());
        self
    }

    pub fn i64(&mut self, n: i64) -> &mut Self {
        self.comma();
        self.buf.push_str(&n.to_string());
        self
    }

    pub fn u32(&mut self, n: u32) -> &mut Self {
        self.u64(n as u64)
    }

    pub fn usize(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    /// Finite floats only; written via Rust's shortest-roundtrip
    /// formatting. Non-finite values are emitted as `null` (JSON has no
    /// NaN/Inf).
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.comma();
        if x.is_finite() {
            let s = format!("{x}");
            self.buf.push_str(&s);
            // `{}` prints integral floats without a decimal point;
            // keep the value unambiguously a float.
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                self.buf.push_str(".0");
            }
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.comma();
        self.buf.push_str(if b { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.comma();
        self.buf.push_str("null");
        self
    }

    /// Splices a pre-serialized JSON value verbatim (caller guarantees
    /// validity). Used to embed an already encoded document (for
    /// example a launch's stats object) without re-encoding.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.comma();
        self.buf.push_str(json);
        self
    }

    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.buf
    }

    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

/// Validates that `s` is exactly one well-formed JSON value (with
/// optional surrounding whitespace): [`parse`]'s syntax check, so every
/// artifact is held to the grammar the wire decoder accepts. Returns a
/// human-readable error with a byte offset on failure.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    let digits = *pos - int_start;
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    // RFC 8259: `0` is the only integer part that may start with `0`.
    if digits > 1 && b[int_start] == b'0' {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

/// 64-bit FNV-1a over `bytes`. Stable across platforms and runs — the
/// workspace's content-address hash for cached compile artifacts.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a content hash the way the serve protocol spells artifact
/// addresses: 16 lowercase hex digits.
pub fn content_address(hash: u64) -> String {
    format!("{hash:016x}")
}

// ---------------------------------------------------------------------
// Document tree (the decoder side of the wire protocol)
// ---------------------------------------------------------------------

/// A parsed JSON value.
///
/// Two departures from the usual tree shape, both so that
/// `parse(s).to_json()` reproduces `s` byte-for-byte (modulo
/// whitespace): object members keep their source order (duplicate keys
/// are rejected at parse time), and numbers keep their exact source
/// spelling instead of being narrowed to `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The number's source spelling (always a valid JSON number).
    Number(String),
    String(String),
    Array(Vec<Value>),
    /// Members in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object member. `None` for missing keys and for
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
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

    /// The number as `u64`, if this is a non-negative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64` (accepts any JSON number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), preserving member order and
    /// number spellings — the inverse of [`parse`] for compact input.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128);
        self.write_to(&mut w);
        w.finish()
    }

    /// Writes this value into an open [`JsonWriter`] position.
    pub fn write_to(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => {
                w.null();
            }
            Value::Bool(b) => {
                w.bool(*b);
            }
            Value::Number(s) => {
                w.raw(s);
            }
            Value::String(s) => {
                w.string(s);
            }
            Value::Array(items) => {
                w.begin_array();
                for v in items {
                    v.write_to(w);
                }
                w.end_array();
            }
            Value::Object(members) => {
                w.begin_object();
                for (k, v) in members {
                    w.key(k);
                    v.write_to(w);
                }
                w.end_object();
            }
        }
    }
}

/// How deeply [`parse`] nests arrays and objects. The workspace's
/// documents nest about 6 deep; the parser recurses once per level, so
/// the bound keeps any input off the end of the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses exactly one JSON value (with optional surrounding
/// whitespace) into a [`Value`] tree. Errors carry a byte offset.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut members: Vec<(String, Value)> = Vec::new();
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}", pos = *pos));
                }
                let key = parse_string(b, pos)?;
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate object key {key:?}"));
                }
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                skip_ws(b, pos);
                let v = parse_value(b, pos, depth + 1)?;
                members.push((key, v));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut items = Vec::new();
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                skip_ws(b, pos);
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            parse_number(b, pos)?;
            // Safe: a valid JSON number is pure ASCII.
            Ok(Value::Number(
                std::str::from_utf8(&b[start..*pos]).unwrap().to_string(),
            ))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
    }
}

/// Parses a string literal (cursor on the opening quote), decoding
/// escapes — including `\uXXXX` surrogate pairs — into the returned
/// `String`.
fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // '"'
    let mut out = String::new();
    loop {
        // Copy the run that needs no decoding in one piece: it ends
        // before an ASCII byte, so it is whole UTF-8.
        let run = *pos;
        while matches!(b.get(*pos), Some(&c) if c != b'"' && c != b'\\' && c >= 0x20) {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[run..*pos]).expect("the input is a &str"));
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "unescaped control byte {c:#04x} at {pos}",
                    pos = *pos
                ))
            }
            _ => {}
        }
        // A backslash: decode one escape.
        let escape = b.get(*pos + 1).copied();
        *pos += 2;
        out.push(match escape {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => parse_unicode_escape(b, pos)?,
            _ => return Err(format!("bad escape at byte {}", *pos - 1)),
        });
    }
}

/// Decodes the `XXXX` of a `\uXXXX` escape (cursor after the `u`),
/// joining a surrogate pair into one scalar.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let hi = parse_hex4(b, pos)?;
    let cp = if (0xD800..0xDC00).contains(&hi) {
        // High surrogate: a `\uXXXX` low surrogate must follow.
        let unpaired = |pos: usize| format!("unpaired surrogate at byte {pos}");
        if b.get(*pos..*pos + 2) != Some(&b"\\u"[..]) {
            return Err(unpaired(*pos));
        }
        *pos += 2;
        let lo = parse_hex4(b, pos)?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(unpaired(*pos));
        }
        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
    } else {
        hi
    };
    char::from_u32(cp).ok_or_else(|| format!("invalid \\u escape at byte {pos}", pos = *pos))
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut v = 0u32;
    for _ in 0..4 {
        let d = match b.get(*pos) {
            Some(h) if h.is_ascii_hexdigit() => (*h as char).to_digit(16).unwrap(),
            _ => return Err(format!("bad \\u escape at byte {pos}", pos = *pos)),
        };
        v = v * 16 + d;
        *pos += 1;
    }
    Ok(v)
}

/// Parses a JSON-lines document: every non-blank line is one value.
/// Returns the values with their 1-based line numbers; the error of
/// the first malformed line is prefixed `line N: `.
pub fn parse_lines(text: &str) -> Result<Vec<(usize, Value)>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            parse(line)
                .map(|v| (i + 1, v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escape_matches_remarks_format() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("l1\nl2\tt\rr"), "l1\\nl2\\tt\\rr");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("héllo"), "héllo");
    }

    #[test]
    fn writer_objects_arrays_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").u64(1);
        w.key("b").begin_array();
        w.string("x").string("y");
        w.end_array();
        w.key("c").begin_object();
        w.key("d").null();
        w.end_object();
        w.key("e").f64(1.5);
        w.key("f").f64(2.0);
        w.key("g").bool(true);
        w.end_object();
        let s = w.finish();
        assert_eq!(
            s,
            "{\"a\":1,\"b\":[\"x\",\"y\"],\"c\":{\"d\":null},\"e\":1.5,\"f\":2.0,\"g\":true}"
        );
        validate(&s).unwrap();
    }

    #[test]
    fn writer_escapes_keys_and_strings() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("k\"1").string("v\\2");
        w.end_object();
        let s = w.finish();
        assert_eq!(s, "{\"k\\\"1\":\"v\\\\2\"}");
        validate(&s).unwrap();
    }

    #[test]
    fn validate_accepts_well_formed() {
        for ok in [
            "null",
            "true",
            " false ",
            "0",
            "-12.5e3",
            "\"s\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            "{\"a\":{\"b\":[null]}}",
            "{\"u\":\"\\u00e9\"}",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "\"bad\\q\"",
            "{} {}",
            "1.",
            "1e",
            "nan",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(f64::NAN).f64(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[null,null]");
    }

    #[test]
    fn parse_roundtrips_compact_documents() {
        for s in [
            "null",
            "true",
            "false",
            "0",
            "-12.5e3",
            "1e-9",
            "\"s\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            "{\"a\":{\"b\":[null]},\"c\":-0.5}",
            "{\"text\":\"a\\\"b\\\\c\\nd\"}",
        ] {
            let v = parse(s).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            assert_eq!(v.to_json(), s, "round-trip of {s:?}");
        }
    }

    #[test]
    fn parse_preserves_member_order_and_number_spelling() {
        let v = parse("{\"z\":1.50,\"a\":2}").unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
        // The spelling `1.50` survives instead of being normalized.
        assert_eq!(v.to_json(), "{\"z\":1.50,\"a\":2}");
    }

    #[test]
    fn parse_decodes_escapes_and_surrogates() {
        let v = parse("\"\\u00e9 \\uD83D\\uDE00 \\t\"").unwrap();
        assert_eq!(v.as_str(), Some("é 😀 \t"));
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0000""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\u{0}"));
        assert!(parse("\"\\uD83D\"").is_err(), "unpaired high surrogate");
        assert!(parse("\"\\uDE00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn parse_accessors() {
        let v = parse("{\"n\":42,\"s\":\"x\",\"b\":true,\"a\":[1],\"f\":2.5}").unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(42));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("n"), None);
    }

    #[test]
    fn parse_rejects_malformed_and_duplicates() {
        for bad in ["", "{", "[1,]", "{\"a\":1,\"a\":2}", "{} {}", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Far past the limit: an error, not a stack overflow.
        let deep = "[".repeat(200_000);
        assert_eq!(
            validate(&deep),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
    }

    #[test]
    fn numbers_with_a_leading_zero_are_rejected() {
        for bad in [
            "01",
            "-01",
            "00",
            "-00.5",
            "012e3",
            "[1,02]",
            "{\"teams\":02}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(
            parse("[1,02]"),
            Err("leading zero in number at byte 3".to_string())
        );
        for ok in ["0", "-0", "0.5", "-0.0", "0e1", "10", "100.01", "-20"] {
            assert_eq!(parse(ok).map(|v| v.to_json()), Ok(ok.to_string()));
        }
    }

    #[test]
    fn validate_is_parse_s_syntax_check() {
        // A syntax-only twin parser used to accept the first three.
        for bad in ["{\"a\":1,\"a\":2}", "\"\\uD83D\"", "\"\\uDE00\"", "01"] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
            assert_eq!(validate(bad), parse(bad).map(|_| ()));
        }
    }

    #[test]
    fn parse_lines_numbers_lines_and_skips_blank_ones() {
        let values = parse_lines("{\"a\":1}\n\n  \n[2]\n").unwrap();
        assert_eq!(
            values,
            vec![(1, parse("{\"a\":1}").unwrap()), (4, parse("[2]").unwrap())]
        );
        assert_eq!(parse_lines(""), Ok(Vec::new()));
        assert_eq!(
            parse_lines("1\n\n{"),
            Err("line 3: expected object key at byte 1".to_string())
        );
    }

    /// Characters that exercise the escaper and the decoder: control
    /// bytes (`\b` and `\f` included), `"`, `\`, `/`, multi-byte and
    /// non-BMP scalars.
    const TRICKY: &[char] = &[
        'a',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{2028}',
        '\u{fffd}',
        '\u{ffff}',
        '😀',
        '\u{10ffff}',
    ];

    fn arbitrary_string(rng: &mut TestRng) -> String {
        (0..rng.below(8))
            .map(|_| match rng.below(4) {
                0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('x'),
                _ => TRICKY[rng.below(TRICKY.len() as u64) as usize],
            })
            .collect()
    }

    /// A number spelled the way producers spell them.
    fn arbitrary_number(rng: &mut TestRng) -> String {
        match rng.below(3) {
            0 => (rng.next_u64() as i64 >> rng.below(64)).to_string(),
            1 => rng.next_u64().to_string(),
            _ => {
                let x = f64::from_bits(rng.next_u64());
                let mut w = JsonWriter::new();
                w.f64(if x.is_finite() { x } else { -0.5 });
                w.finish()
            }
        }
    }

    /// A document nested at most `depth` containers deep (the shim has
    /// no recursive strategies, so the recursion lives here).
    fn arbitrary_value(rng: &mut TestRng, depth: u32) -> Value {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Number(arbitrary_number(rng)),
            3 => Value::String(arbitrary_string(rng)),
            4 => Value::Array(
                (0..rng.below(4))
                    .map(|_| arbitrary_value(rng, depth - 1))
                    .collect(),
            ),
            _ => {
                let mut members: Vec<(String, Value)> = Vec::new();
                for _ in 0..rng.below(4) {
                    let key = arbitrary_string(rng);
                    if members.iter().all(|(k, _)| *k != key) {
                        members.push((key, arbitrary_value(rng, depth - 1)));
                    }
                }
                Value::Object(members)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn written_documents_parse_back_to_the_same_tree(seed in any::<u64>()) {
            let v = arbitrary_value(&mut TestRng::new(seed), 4);
            prop_assert_eq!(parse(&v.to_json()), Ok(v));
        }

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            // Half the inputs are a written document with a few bytes
            // overwritten, so most of them get past the first byte.
            let mut bytes = match rng.below(2) {
                0 => arbitrary_value(&mut rng, 3).to_json().into_bytes(),
                _ => (0..rng.below(48)).map(|_| rng.next_u64() as u8).collect(),
            };
            const JSONISH: &[u8] = b"{}[]\":,\\/-+.0123456789eEtrufalsn \x01\xf0";
            for _ in 0..rng.below(4) {
                if !bytes.is_empty() {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] = JSONISH[rng.below(JSONISH.len() as u64) as usize];
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            // `Ok` or `Err`, never a panic; what it accepts re-encodes
            // to a document that reads back the same.
            if let Ok(v) = parse(&text) {
                prop_assert_eq!(parse(&v.to_json()), Ok(v));
            }
        }
    }

    #[test]
    fn fnv1a_is_stable() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_eq!(content_address(0xab), "00000000000000ab");
    }
}
