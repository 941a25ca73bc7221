//! Minimal hand-rolled JSON serialization and parsing.
//!
//! The observability layer writes JSONL traces and manifests without any
//! external serialization crate. Integers keep full 64-bit precision
//! (separate `U64`/`I64` variants instead of routing everything through
//! `f64`); non-finite floats render as `null` per RFC 8259.
//!
//! [`Json::parse`] is the matching recursive-descent reader: the lint
//! cache uses it to read its facts back, and tests use it to validate
//! exported Chrome traces and server replies. Numbers without a
//! fraction or exponent parse to the exact integer variants; everything
//! else becomes `F64`.
//!
//! [`Json::Raw`] splices text a producer in this process already
//! rendered (the projection graph's nodes) into a tree without parsing
//! it back; [`Json::write_str`] and [`Json::write_f64`] are the scalar
//! encoders such producers write with, so spliced text and tree text
//! are the same bytes.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (exact).
    U64(u64),
    /// Signed integer (exact).
    I64(i64),
    /// Floating point (`null` when non-finite).
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// Trusted, already-rendered JSON text from this process, written
    /// verbatim. [`Json::parse`] never produces it; whoever builds one
    /// vouches that it holds exactly one well-formed value.
    Raw(String),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append `s` as a JSON string literal (quoted and escaped), exactly
    /// as `Json::Str(s)` renders.
    pub fn write_str(s: &str, out: &mut String) {
        write_escaped(s, out);
    }

    /// Append `x` as a JSON number, exactly as `Json::F64(x)` renders:
    /// the shortest round-trippable decimal, `null` when non-finite.
    pub fn write_f64(x: f64, out: &mut String) {
        if x.is_finite() {
            let _ = write!(out, "{x}");
        } else {
            out.push_str("null");
        }
    }

    /// Parse one JSON document (rejecting trailing non-whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Look up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers convert; `None` otherwise).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer value (`None` for other variants or negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Boolean value (`None` for other variants).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value (`None` for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items (`None` for other variants).
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => Json::write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Raw(text) => out.push_str(text),
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

/// Nesting depth cap — malformed input must not overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: consume the paired \uXXXX.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(ch);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err("unterminated string".to_string()),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else { return Err("truncated \\u escape".to_string()) };
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| format!("bad number {text:?}"))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::U64(n as u64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::I64(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::I64(-42).render(), "-42");
        assert_eq!(Json::I64(i64::MIN).render(), "-9223372036854775808");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn scalar_writers_match_the_tree_and_raw_is_spliced_verbatim() {
        for x in [0.0, -0.0, 1.5, 1e300, 1e-7, f64::NAN, f64::NEG_INFINITY] {
            let mut out = String::new();
            Json::write_f64(x, &mut out);
            assert_eq!(out, Json::F64(x).render());
        }
        for s in ["", "plain", "a\"b\\c\n\u{1}\u{1f}ü"] {
            let mut out = String::new();
            Json::write_str(s, &mut out);
            assert_eq!(out, Json::Str(s.into()).render());
        }
        let tree =
            Json::obj([("n", Json::Arr(vec![Json::U64(1), Json::obj([("k", Json::Null)])]))]);
        let spliced = Json::obj([("n", Json::Raw(r#"[1,{"k":null}]"#.into()))]);
        assert_eq!(spliced.render(), tree.render());
        assert_eq!(Json::parse(&spliced.render()).expect("parses"), tree, "parse never yields Raw");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\n".into()).render(), r#""a\"b\\c\n""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), r#""\u0001""#);
        assert_eq!(Json::Str("ünïcödé".into()).render(), "\"ünïcödé\"");
    }

    #[test]
    fn containers_render() {
        let v = Json::Arr(vec![Json::U64(1), Json::Null, Json::Str("x".into())]);
        assert_eq!(v.render(), r#"[1,null,"x"]"#);
        let o = Json::obj([("a", Json::U64(1)), ("b", Json::Arr(vec![]))]);
        assert_eq!(o.render(), r#"{"a":1,"b":[]}"#);
    }

    #[test]
    fn nested_structures() {
        let o = Json::obj([(
            "runs",
            Json::Arr(vec![Json::obj([("seed", Json::U64(7)), ("ok", Json::Bool(true))])]),
        )]);
        assert_eq!(o.render(), r#"{"runs":[{"seed":7,"ok":true}]}"#);
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let original = Json::obj([
            ("u", Json::U64(u64::MAX)),
            ("i", Json::I64(-42)),
            ("f", Json::F64(1.5)),
            ("s", Json::Str("a\"b\\c\nü".into())),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(false), Json::U64(0)])),
            ("obj", Json::obj([("nested", Json::Bool(true))])),
        ]);
        let parsed = Json::parse(&original.render()).expect("round trip");
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_handles_whitespace_and_number_forms() {
        let v = Json::parse(" { \"a\" : [ 1 , -2 , 3.5 , 1e3 ] } ").expect("parse");
        let arr = v.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(arr[0], Json::U64(1));
        assert_eq!(arr[1], Json::I64(-2));
        assert_eq!(arr[2], Json::F64(3.5));
        assert_eq!(arr[3], Json::F64(1000.0));
    }

    #[test]
    fn parse_decodes_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""A\t\/""#).expect("escapes"), Json::Str("A\t/".into()));
        assert_eq!(Json::parse(r#""😀""#).expect("raw utf-8"), Json::Str("😀".into()));
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").expect("surrogate pair"),
            Json::Str("😀".into())
        );
        assert_eq!(
            Json::parse(r#""\ud83d""#).expect("lone surrogate"),
            Json::Str("\u{FFFD}".into())
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\":1,}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err(), "depth cap holds");
    }

    #[test]
    fn accessors_select_by_type() {
        let v = Json::parse(r#"{"n":3,"neg":-1,"x":2.5,"s":"hi","a":[1]}"#).expect("parse");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }
}
