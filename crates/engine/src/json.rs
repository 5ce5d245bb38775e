//! Minimal JSON value model, parser, and writer.
//!
//! The workspace builds offline (no registry access), so the artifact
//! formats that need to round-trip through files — `flash-repro-v1`
//! reproducers, serialized [`WedgeReport`]s and checker violations — are
//! carried by this hand-rolled module instead of `serde`. It is
//! deliberately small: one [`Json`] value enum, a recursive-descent
//! parser, and a deterministic writer.
//!
//! Determinism contract: objects preserve insertion order, `u64` integers
//! round-trip exactly (no `f64` truncation — addresses use the high bits),
//! and floats render with Rust's shortest round-trip formatting (`{:?}`),
//! so `parse(render(v)) == v` and `render(parse(s))` is a canonical form
//! that is byte-identical across runs and hosts.
//!
//! [`WedgeReport`]: ../../flash_fault/struct.WedgeReport.html
//!
//! # Examples
//!
//! ```
//! use flash_engine::json::Json;
//!
//! let v = Json::parse(r#"{"schema": "flash-repro-v1", "nodes": 8}"#).unwrap();
//! assert_eq!(v.get("nodes").and_then(Json::as_u64), Some(8));
//! let round = Json::parse(&v.render()).unwrap();
//! assert_eq!(v, round);
//! ```

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a hostile file of nested
/// `[` would overflow the stack; every document this workspace writes
/// nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// One JSON value. Integers that fit a `u64`/`i64` are kept exact;
/// everything else numeric is a float.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (exact; this is what addresses use).
    UInt(u64),
    /// A negative integer (exact).
    Int(i64),
    /// Any other number (fractions, exponents).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and significant for the
    /// byte-identity contracts of the repro artifacts).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks a key up in an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a signed integer, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(f) => Some(f),
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace). Deterministic:
    /// object order is insertion order, floats use shortest round-trip
    /// formatting.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is Rust's shortest representation that parses
                    // back to the same bits (always includes `.` or `e`).
                    let _ = write!(out, "{f:?}");
                } else {
                    // JSON has no Inf/NaN; null is the least-bad encoding.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Exactly one top-level value is allowed;
    /// trailing whitespace is ignored; arrays and objects may nest at
    /// most [`MAX_DEPTH`] deep. Errors carry a byte offset.
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
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            at: self.pos,
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
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
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next escape/quote.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The slice boundaries sit on ASCII bytes, so this is
                // valid UTF-8 whenever the input is.
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any writer
                            // in this workspace; map lone surrogates to
                            // the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::UInt(0)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("-42", Json::Int(-42)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("0.08", Json::Float(0.08)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), v, "{text}");
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn u64_precision_is_exact() {
        // Addresses carry the home node above bit 32; f64 would truncate
        // past 2^53.
        let addr = (1u64 << 63) | 0x8841;
        let v = Json::UInt(addr);
        assert_eq!(Json::parse(&v.render()).unwrap().as_u64(), Some(addr));
    }

    #[test]
    fn float_shortest_form_round_trips() {
        for f in [0.08, 0.005, 1e-9, 123.456, f64::MIN_POSITIVE] {
            let v = Json::Float(f);
            let parsed = Json::parse(&v.render()).unwrap();
            assert_eq!(parsed.as_f64(), Some(f), "{f}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj(vec![
            ("schema", Json::str("flash-repro-v1")),
            (
                "streams",
                Json::Arr(vec![Json::Arr(vec![
                    Json::Arr(vec![Json::str("r"), Json::UInt(0x1_0000_4000)]),
                    Json::Arr(vec![Json::str("bar")]),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Null),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Canonical: render(parse(render(v))) is byte-identical.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn string_escapes() {
        let s = "line\nbreak \"quote\" back\\slash \t tab \u{1} ctrl";
        let v = Json::Str(s.into());
        assert_eq!(Json::parse(&v.render()).unwrap().as_str(), Some(s));
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn object_accessors() {
        let v = Json::parse(r#"{"a": 1, "b": [2, 3], "c": "x", "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::UInt(5).get("a"), None);
    }

    #[test]
    fn parse_errors_are_located() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"unterminated", "tru", "1 2"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.message.is_empty(), "{bad}: {e}");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "{e}");
        let e = Json::parse(&"[{\"a\":".repeat(1_000_000)).unwrap_err();
        assert_eq!(e.at, 3 * MAX_DEPTH, "{e}");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" {\n \"a\" :\t[ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }
}
