//! A small, deterministic JSON value type with a writer and a
//! recursive-descent parser.
//!
//! The observability layer (and the wire formats built on top of it)
//! must be bit-reproducible: two identical runs have to serialize to
//! byte-identical text. That rules out hash-map key order, so objects
//! are backed by [`BTreeMap`] and always serialize with sorted keys.
//! Floats serialize via Rust's shortest-roundtrip formatting, which is
//! stable for a given value.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; integers up to 2^53 roundtrip
    /// exactly, which covers every counter this crate emits. Values
    /// that exceed that (saturated counters) are clamped on write.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with deterministically-ordered keys.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// An empty object.
    pub fn obj() -> JsonValue {
        JsonValue::Obj(BTreeMap::new())
    }

    /// Insert a key into an object value (no-op on non-objects).
    pub fn set(&mut self, key: &str, v: impl Into<JsonValue>) {
        if let JsonValue::Obj(m) = self {
            m.insert(key.to_string(), v.into());
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which is out of range.
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize to a compact string (no whitespace, sorted keys).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Serialize to a pretty-printed string (2-space indent, sorted keys).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document. The whole input must be consumed (trailing
    /// whitespace allowed).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}
impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<i64> for JsonValue {
    fn from(n: i64) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Arr(v)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_value(v: &JsonValue, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Num(n) => write_number(*n, out),
        JsonValue::Str(s) => write_string(s, out),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        JsonValue::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, level + 1);
            }
            if !map.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * level {
            out.push(' ');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; clamp to null-adjacent sentinels.
        out.push_str(if n.is_nan() {
            "0"
        } else if n > 0.0 {
            "1.7976931348623157e308"
        } else {
            "-1.7976931348623157e308"
        });
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { msg, at: self.pos }
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
            Err(self.err("unexpected character"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &'static str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("bad number"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("bad fraction"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("bad exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("unparseable number"))
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined).ok_or(self.err("bad codepoint"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or(self.err("bad codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, backslash or control byte. The run ends on an
                    // ASCII byte (or the end of input) and the input is a
                    // `&str`, so it is whole UTF-8 scalars; validating only
                    // the run keeps the decode linear in the input size.
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let len = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| JsonError {
                        msg: "invalid utf-8",
                        at: start,
                    })?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("bad \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_simnet::rng::DetRng;

    #[test]
    fn roundtrip_compact() {
        let mut v = JsonValue::obj();
        v.set("b", 2u64);
        v.set("a", "x\"y\n");
        v.set(
            "c",
            vec![JsonValue::Null, JsonValue::Bool(true), JsonValue::Num(1.5)],
        );
        let s = v.to_string_compact();
        // Keys sorted deterministically.
        assert_eq!(s, r#"{"a":"x\"y\n","b":2,"c":[null,true,1.5]}"#);
        assert_eq!(JsonValue::parse(&s).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "01x",
            "{}extra",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_numbers_and_escapes() {
        let v = JsonValue::parse(r#"[-1.5e3, 0, 42, "A😀"]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(-1500.0));
        assert_eq!(a[2].as_u64(), Some(42));
        assert_eq!(a[3].as_str(), Some("A😀"));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let s = "[".repeat(1000) + &"]".repeat(1000);
        assert!(JsonValue::parse(&s).is_err());
    }

    #[test]
    fn integers_stay_integral_in_output() {
        assert_eq!(JsonValue::Num(3.0).to_string_compact(), "3");
        assert_eq!(JsonValue::Num(3.25).to_string_compact(), "3.25");
    }

    #[test]
    fn as_u64_rejects_out_of_range() {
        let n = |s: &str| JsonValue::parse(s).unwrap().as_u64();
        assert_eq!(n("18446744073709551616"), None); // 2^64
        assert_eq!(n("9007199254740992"), Some(1 << 53));
        // The largest f64 below 2^64 is still in range.
        assert_eq!(n("18446744073709549568"), Some(u64::MAX - 2047));
    }

    /// A random scalar from one of the UTF-8 width classes, with the
    /// specials (quote, backslash, controls) drawn often.
    fn random_char(rng: &mut DetRng) -> char {
        let cp = match rng.index(6) {
            0 => ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][rng.index(8)] as u32,
            1 => rng.range_u64(0, 0x20) as u32,
            2 => rng.range_u64(0x20, 0x80) as u32,
            3 => rng.range_u64(0x80, 0x800) as u32,
            4 => {
                // Three-byte scalars, skipping the surrogate block.
                let cp = rng.range_u64(0x800, 0x1_0000 - 0x800) as u32;
                if cp >= 0xD800 {
                    cp + 0x800
                } else {
                    cp
                }
            }
            _ => rng.range_u64(0x1_0000, 0x11_0000) as u32,
        };
        char::from_u32(cp).unwrap()
    }

    /// `c` as JSON string text, raw or escaped at random: short escapes,
    /// `\u` escapes in either hex case, surrogate pairs above the BMP.
    fn push_encoded(c: char, rng: &mut DetRng, out: &mut String) {
        let short = match c {
            '"' => Some('"'),
            '\\' => Some('\\'),
            '/' => Some('/'),
            '\u{8}' => Some('b'),
            '\u{c}' => Some('f'),
            '\n' => Some('n'),
            '\r' => Some('r'),
            '\t' => Some('t'),
            _ => None,
        };
        let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
        match (rng.index(3), short) {
            (0, _) if !must_escape => out.push(c),
            (1, Some(e)) => {
                out.push('\\');
                out.push(e);
            }
            _ => {
                let upper = rng.chance(0.5);
                for u in c.encode_utf16(&mut [0u16; 2]) {
                    out.push_str(&if upper {
                        format!("\\u{u:04X}")
                    } else {
                        format!("\\u{u:04x}")
                    });
                }
            }
        }
    }

    #[test]
    fn random_strings_roundtrip() {
        let mut rng = DetRng::new(0x6a73_6f6e);
        for _ in 0..2_000 {
            let len = rng.index(40);
            let s: String = (0..len).map(|_| random_char(&mut rng)).collect();
            let compact = JsonValue::from(s.as_str()).to_string_compact();
            assert_eq!(JsonValue::parse(&compact), Ok(JsonValue::Str(s.clone())));
            let mut text = String::from("\"");
            for c in s.chars() {
                push_encoded(c, &mut rng, &mut text);
            }
            text.push('"');
            assert_eq!(
                JsonValue::parse(&text),
                Ok(JsonValue::Str(s.clone())),
                "{text:?}"
            );
        }
    }

    #[test]
    fn malformed_strings_keep_their_error_offsets() {
        for (bad, msg, at) in [
            ("\"ab\u{1}c\"", "control char in string", 3),
            ("\"é😀\nx\"", "control char in string", 7),
            ("[\"ok\",\"x\u{1f}\"]", "control char in string", 8),
            ("\"abc", "unterminated string", 4),
            ("\"a😀", "unterminated string", 6),
            ("\"a\\", "bad escape", 3),
            ("{\"key", "unterminated string", 5),
            ("\"\\ud800\"", "lone high surrogate", 7),
            ("\"x\\ud83d", "lone high surrogate", 8),
            ("\"\\udc00\"", "lone low surrogate", 7),
            ("\"\\ud800\\u0041\"", "bad low surrogate", 13),
            ("\"\\ud800\\n\"", "unexpected character", 8),
            ("\"\\q\"", "bad escape", 2),
            ("\"\\u12g4\"", "bad \\u escape", 5),
        ] {
            assert_eq!(JsonValue::parse(bad), Err(JsonError { msg, at }), "{bad:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic decode takes hours on these; a linear one takes
        // milliseconds, even unoptimized, so the bound cannot flake.
        const LEN: usize = 4 << 20;
        let plain: String = "plain ascii, é and 😀 ".chars().cycle().take(LEN).collect();
        let escaped = "a\\n".repeat(LEN / 3);
        for body in [plain, escaped] {
            let text = format!("\"{body}\"");
            let t0 = std::time::Instant::now();
            let v = JsonValue::parse(&text).unwrap();
            let dt = t0.elapsed();
            assert!(v.as_str().unwrap().len() >= LEN / 2);
            assert!(dt < std::time::Duration::from_secs(5), "{dt:?}");
        }
    }
}
