//! The workspace's JSON codec: one tree, one parser, one escaper.
//!
//! Everything hrviz writes or reads as JSON goes through this module —
//! JSONL traces and manifests here, the run store's manifests and column
//! files, fault schedules, slice segments and progress watermarks, sweep
//! journals and the lint report — with no external serialization crate. Integers keep full 64-bit precision (separate `U64`/`I64`
//! variants instead of routing everything through `f64`); non-finite
//! floats render as `null` per RFC 8259.
//!
//! [`Json::parse`] is a recursive-descent reader of RFC 8259 JSON: raw
//! control characters in strings are rejected, strings are scanned in
//! linear time, a surrogate-pair escape decodes to one character (any
//! other surrogate escape to U+FFFD), and nesting is capped at 128
//! levels below the outermost value. A number literal
//! without `.`, `e` or `E` becomes `U64` when `str::parse::<u64>` takes
//! it, else `I64` when `str::parse::<i64>` takes it and it is not a
//! negative zero; anything else becomes `F64`. So [`Json::as_f64`] is
//! bit-identical to `str::parse::<f64>` of the literal (`-0` keeps its
//! sign) and [`Json::as_u64`] equals `str::parse::<u64>`.
//!
//! [`ObjectReader`] is the same parser driven as a pull reader: hot paths
//! (the run store's `columns.jsonl`) decode an object's fields straight
//! into their own types (`f64` or `u32` arrays), numbers parsed once
//! (short integers without the float parser) and no tree built, and it
//! accepts exactly the documents [`Json::parse`] accepts.
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

    /// Append `x` as a JSON number, exactly as `Json::F64(x)` renders:
    /// the shortest round-trippable decimal, `null` when non-finite.
    pub fn write_f64(x: f64, out: &mut String) {
        if x.is_finite() {
            let _ = write!(out, "{x}");
        } else {
            out.push_str("null");
        }
    }

    /// Parse one JSON document (only whitespace may follow it).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value(0)?;
        p.finish()?;
        Ok(v)
    }

    /// Look up `key` in an object (`None` for other variants). The first
    /// of a repeated key wins.
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
            Json::Str(s) => Json::write_str(s, out),
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
                    Json::write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Nesting depth cap — a corrupt file must not overflow the stack.
const MAX_DEPTH: usize = 128;

/// Most digits an integer cell may have to skip the float parser:
/// 10^15 < 2^53, so every such integer is an exact `f64`.
const SHORT_INT_DIGITS: usize = 15;

/// Most digits a `u32` cell may have to be read by
/// [`ObjectReader::u32_array`]'s fast path: 10^9 - 1 < `u32::MAX`, so no
/// such cell can overflow.
const SHORT_U32_DIGITS: usize = 9;

/// A pull reader over one JSON object document: the caller asks for each
/// key in turn and reads its value with [`ObjectReader::string`],
/// [`ObjectReader::f64_array`] or [`ObjectReader::skip_value`]. A document
/// read to the end (`next_key` returning `None`) is accepted exactly when
/// [`Json::parse`] accepts it.
pub struct ObjectReader<'a> {
    p: Parser<'a>,
    started: bool,
}

impl<'a> ObjectReader<'a> {
    /// Start reading `text`, which must hold one object.
    pub fn new(text: &'a str) -> Result<Self, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        p.expect_byte(b'{')?;
        Ok(ObjectReader { p, started: false })
    }

    /// The next key, or `None` once the closing `}` has been read and
    /// nothing but whitespace follows it. Each key's value must be read
    /// before asking for the next key.
    pub fn next_key(&mut self) -> Result<Option<String>, String> {
        self.p.skip_ws();
        if self.started {
            match self.p.bump() {
                Some(b',') => self.p.skip_ws(),
                Some(b'}') => return self.p.finish().map(|()| None),
                _ => return Err(self.p.err("expected ',' or '}'")),
            }
        } else {
            self.started = true;
            if self.p.peek() == Some(b'}') {
                self.p.pos += 1;
                return self.p.finish().map(|()| None);
            }
        }
        let key = self.p.string()?;
        self.p.skip_ws();
        self.p.expect_byte(b':')?;
        Ok(Some(key))
    }

    /// Read the current value, which must be a string.
    pub fn string(&mut self) -> Result<String, String> {
        self.p.skip_ws();
        self.p.string()
    }

    /// Read the current value, which must be an array, appending its
    /// numbers to `out` as `f64`s: each number is scanned and parsed once,
    /// a short integer without the float parser. Returns `false` when the
    /// array also holds a valid but non-numeric element (`null`, a string,
    /// a nested value); its numbers are appended all the same.
    pub fn f64_array(&mut self, out: &mut Vec<f64>) -> Result<bool, String> {
        self.p.skip_ws();
        self.p.expect_byte(b'[')?;
        out.reserve_exact(self.p.cells_left());
        let mut numeric = true;
        self.p.skip_ws();
        if self.p.peek() == Some(b']') {
            self.p.pos += 1;
            return Ok(true);
        }
        loop {
            self.p.skip_ws();
            if matches!(self.p.peek(), Some(b'-' | b'0'..=b'9')) {
                let x = match self.p.short_integer() {
                    Some(x) => x,
                    None => self.p.number()?.1,
                };
                out.push(x);
            } else {
                // Elements sit two levels down, as in the tree parser.
                self.p.value(2)?;
                numeric = false;
            }
            self.p.skip_ws();
            match self.p.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(numeric),
                _ => return Err(self.p.err("expected ',' or ']'")),
            }
        }
    }

    /// Read the current value, which must be an array, appending its
    /// numbers to `out` as `u32`s: the attribute columns of a run. A cell
    /// of 1 to [`SHORT_U32_DIGITS`] plain digits followed by `,` or `]` is
    /// read straight off the bytes; any other element (whitespace, a sign,
    /// a fraction, an exponent, more digits) goes through
    /// [`Parser::number`] and is cast with `as u32` (saturating, fraction
    /// dropped), so every cell decodes to exactly `parsed f64 as u32`.
    /// Returns `false` on a valid but non-numeric element, as
    /// [`ObjectReader::f64_array`] does.
    pub fn u32_array(&mut self, out: &mut Vec<u32>) -> Result<bool, String> {
        self.p.skip_ws();
        self.p.expect_byte(b'[')?;
        out.reserve_exact(self.p.cells_left());
        let mut numeric = true;
        self.p.skip_ws();
        if self.p.peek() == Some(b']') {
            self.p.pos += 1;
            return Ok(true);
        }
        loop {
            if let Some(x) = self.p.short_u32() {
                out.push(x);
            } else {
                self.p.skip_ws();
                if matches!(self.p.peek(), Some(b'-' | b'0'..=b'9')) {
                    out.push(self.p.number()?.1 as u32);
                } else {
                    self.p.value(2)?;
                    numeric = false;
                }
                self.p.skip_ws();
            }
            match self.p.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(numeric),
                _ => return Err(self.p.err("expected ',' or ']'")),
            }
        }
    }

    /// Read and discard the current value, validating it.
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.p.value(1).map(drop)
    }
}

struct Parser<'a> {
    /// The document; always whole `&str` text, so valid UTF-8.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Only whitespace may follow a complete document.
    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after document"));
        }
        Ok(())
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes.get(self.pos..).is_some_and(|rest| rest.starts_with(word.as_bytes())) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(|(raw, x)| number_value(raw, x)),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
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
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Read a string literal. Each byte is looked at once: a run of
    /// unescaped characters is copied whole, and as the run ends on an
    /// ASCII byte of whole `&str` text it is valid UTF-8 on its own.
    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid utf-8 in string"))?;
            out.push_str(run);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("unknown escape")),
                },
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` has been read. A high
    /// surrogate followed by a `\u` low surrogate combines with it; any
    /// other surrogate is U+FFFD, and an escape after it decodes alone.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let cp = match self.hex4(self.pos) {
            Some(cp) => cp,
            None if self.bytes.len() < self.pos + 4 => return Err(self.err("truncated \\u escape")),
            None => return Err(self.err("bad \\u escape")),
        };
        self.pos += 4;
        if (0xD800..0xDC00).contains(&cp) && self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u")
        {
            if let Some(lo @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 2) {
                self.pos += 6;
                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(combined).unwrap_or('\u{FFFD}'));
            }
        }
        Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'))
    }

    /// The four hex digits at `at`, if there are four.
    fn hex4(&self, at: usize) -> Option<u32> {
        let quad = self.bytes.get(at..at + 4)?;
        quad.iter().try_fold(0, |n, &b| Some(n << 4 | char::from(b).to_digit(16)?))
    }

    /// Read an integer literal of 1 to [`SHORT_INT_DIGITS`] digits with an
    /// optional `-` (nearly every stored column cell) without the float
    /// parser. Such an integer is below 2^53, so `as f64` is exact and
    /// bit-identical to `str::parse::<f64>`, `-0` and leading zeros
    /// included. `None`, with nothing consumed, for anything else (a
    /// fraction, an exponent, more digits, a bare `-`): [`Parser::number`]
    /// reads those.
    fn short_integer(&mut self) -> Option<f64> {
        let rest = self.bytes.get(self.pos..)?;
        let sign = usize::from(rest.first() == Some(&b'-'));
        let (mut n, mut len) = (0u64, 0);
        for &b in rest.get(sign..)?.iter().take(SHORT_INT_DIGITS + 1) {
            if !b.is_ascii_digit() {
                break;
            }
            n = n * 10 + u64::from(b - b'0');
            len += 1;
        }
        let next = rest.get(sign + len).copied();
        if len == 0 || len > SHORT_INT_DIGITS || matches!(next, Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos += sign + len;
        let x = n as f64;
        Some(if sign == 1 { -x } else { x })
    }

    /// The array cells left in the document, counted by their separators
    /// (exact for the rest of a flat array, an upper bound otherwise): the
    /// room that lets a column be read without growing its vector twice.
    fn cells_left(&self) -> usize {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        rest.iter().filter(|&&b| b == b',').count() + 1
    }

    /// Read a `u32` cell of 1 to [`SHORT_U32_DIGITS`] digits that ends at a
    /// `,` or `]`, leaving the position on that byte. `None`, with nothing
    /// consumed, for anything else.
    fn short_u32(&mut self) -> Option<u32> {
        let rest = self.bytes.get(self.pos..)?;
        let (mut n, mut len) = (0u32, 0);
        while len < SHORT_U32_DIGITS {
            match rest.get(len) {
                Some(&b @ b'0'..=b'9') => n = n * 10 + u32::from(b - b'0'),
                _ => break,
            }
            len += 1;
        }
        match rest.get(len) {
            Some(b',' | b']') if len > 0 => {
                self.pos += len;
                Some(n)
            }
            _ => None,
        }
    }

    /// Scan one number and parse it once: its raw text and its value.
    fn number(&mut self) -> Result<(&'a str, f64), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or_default();
        let raw = std::str::from_utf8(digits).map_err(|_| self.err("non-utf8 number"))?;
        match raw.parse::<f64>() {
            Ok(x) => Ok((raw, x)),
            Err(_) => Err(self.err("malformed number")),
        }
    }
}

/// The tree value of a number literal `raw` that parses to `x`: an exact
/// integer variant when `raw` has no fraction or exponent and is not a
/// negative zero, else `F64(x)`.
fn number_value(raw: &str, x: f64) -> Json {
    if !raw.contains(['.', 'e', 'E']) {
        if let Ok(n) = raw.parse::<u64>() {
            return Json::U64(n);
        }
        if let Ok(n) = raw.parse::<i64>() {
            if n != 0 {
                return Json::I64(n);
            }
        }
    }
    Json::F64(x)
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
        let s = "line\n\"quoted\"\tend\r\u{7f}";
        assert_eq!(Json::parse(&Json::Str(s.into()).render()), Ok(Json::Str(s.into())));
    }

    #[test]
    fn containers_render() {
        let v = Json::Arr(vec![Json::U64(1), Json::Null, Json::Str("x".into())]);
        assert_eq!(v.render(), r#"[1,null,"x"]"#);
        let o = Json::obj([("a", Json::U64(1)), ("b", Json::Arr(vec![]))]);
        assert_eq!(o.render(), r#"{"a":1,"b":[]}"#);
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
        let v = Json::parse(" { \"a\" : [ 1 , -2 , 3.5 , 1e3, -1.25e2, 0.5 ] } ").expect("parse");
        let arr = v.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(arr[0], Json::U64(1));
        assert_eq!(arr[1], Json::I64(-2));
        assert_eq!(arr[2], Json::F64(3.5));
        assert_eq!(arr[3], Json::F64(1000.0));
        assert_eq!(arr[4], Json::F64(-125.0));
        assert_eq!(arr[5].as_u64(), None, "a float is not an integer");
        let big = Json::parse(&format!("{{\"t\": {}}}", u64::MAX)).expect("parse");
        assert_eq!(big.get("t").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn number_values_match_the_std_parsers_bit_for_bit() {
        let mut cells = generated_cells();
        cells.extend(
            ["0", "-0", "-00", "007", "-007", "01", "1.", "-.5", "-0.0", "1e400", "-1e400"]
                .map(String::from),
        );
        cells.extend(
            ["18446744073709551615", "18446744073709551616", "-9223372036854775808"]
                .map(String::from),
        );
        cells.push("-9223372036854775809".into());
        for cell in &cells {
            let v = Json::parse(cell).expect(cell);
            let want = cell.parse::<f64>().expect(cell).to_bits();
            assert_eq!(v.as_f64().map(f64::to_bits), Some(want), "{cell}");
            assert_eq!(v.as_u64(), cell.parse::<u64>().ok(), "{cell}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        for text in ["-0", "-00", "[-0]"] {
            let v = Json::parse(text).expect("parses");
            let v = v.as_array().map_or(&v, |a| &a[0]);
            assert!(v.as_f64().expect("number").is_sign_negative(), "{text}");
            assert_eq!(v.as_u64(), None, "{text}");
        }
        assert_eq!(Json::parse("0"), Ok(Json::U64(0)));
    }

    #[test]
    fn parse_decodes_escapes_and_surrogates() {
        let parse = |s: &str| Json::parse(s).expect(s);
        assert_eq!(parse(r#""A\t\/\b\f\"\\""#), Json::Str("A\t/\u{8}\u{c}\"\\".into()));
        assert_eq!(parse(r#""a\u0062""#), Json::Str("ab".into()));
        assert_eq!(parse(r#""😀""#), Json::Str("😀".into()));
        assert_eq!(parse("\"\\ud83d\\ude00\""), Json::Str("😀".into()));
        assert_eq!(parse("\"\\uD83D\\uDE00x\""), Json::Str("😀x".into()));
        assert_eq!(parse(r#""\ud83d""#), Json::Str("\u{FFFD}".into()));
        assert_eq!(parse(r#""\udc00""#), Json::Str("\u{FFFD}".into()));
        assert_eq!(parse(r#""\udc00\ud83d\ude00""#), Json::Str("\u{FFFD}😀".into()));
        // A high surrogate followed by anything but a low one.
        assert_eq!(parse("\"\\ud800\\u0041\""), Json::Str("\u{FFFD}A".into()));
        assert_eq!(parse("\"\\ud800\\ud800\\udc00\""), Json::Str("\u{FFFD}\u{10000}".into()));
        assert_eq!(parse("\"\\ud800\\n\""), Json::Str("\u{FFFD}\n".into()));
        assert_eq!(parse("\"\\ud800x\""), Json::Str("\u{FFFD}x".into()));
        for bad in [r#""\ud800\u00""#, r#""\ud800\uzzzz""#, r#""\u12""#, r#""\u+041""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for bad in ["\"a\u{1}b\"", "\"a\nb\"", "\"\t\"", "{\"k\u{1f}\":1}"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.contains("control character"), "{bad:?}: {e}");
        }
        assert_eq!(Json::parse("\"a\u{7f}b\""), Ok(Json::Str("a\u{7f}b".into())));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic scan takes minutes on this input in a debug build.
        let s = "é".repeat(1 << 19) + "\\n" + &"x".repeat(1 << 19);
        let doc = format!("[\"{s}\"]");
        let t = std::time::Instant::now();
        let v = Json::parse(&doc).expect("parses");
        assert!(t.elapsed() < std::time::Duration::from_secs(1), "took {:?}", t.elapsed());
        assert_eq!(v.as_array().and_then(|a| a[0].as_str()).map(str::len), Some(s.len() - 1));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[1,]",
            "{\"a\" 1}",
            "01x",
            "{} trailing",
            "-",
            "--1",
            "+1",
            "1e",
            "\"\\x\"",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(Json::parse("[1 2]").unwrap_err(), "expected ',' or ']' at byte 4");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting too deep"));
        let doc = format!("{{\"k\": {deep}}}");
        let mut r = ObjectReader::new(&doc).unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k"));
        assert!(r.skip_value().unwrap_err().contains("nesting too deep"));
        // The cap counts the outermost value as depth 0.
        let at_cap = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(Json::parse(&past_cap).is_err());
    }

    #[test]
    fn accessors_select_by_type() {
        let v = Json::parse(r#"{"n":3,"neg":-1,"x":2.5,"s":"hi","a":[1],"b":true,"z":null}"#)
            .expect("parse");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    /// The current array as `f64`s, `None` when it holds a non-number.
    fn f64s(r: &mut ObjectReader) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        r.f64_array(&mut out).unwrap().then_some(out)
    }

    /// The current array as `u32`s, `None` when it holds a non-number.
    fn u32s(r: &mut ObjectReader) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        r.u32_array(&mut out).unwrap().then_some(out)
    }

    #[test]
    fn object_reader_decodes_fields_in_one_pass() {
        let doc = r#" {"s": "a\u0062", "v": [1, -0, 2.5e1, 9007199254740993], "x": {"y": [null]},
            "bad": [1, null], "e": []} "#;
        let mut r = ObjectReader::new(doc).unwrap();
        let mut seen = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            match key.as_str() {
                "s" => assert_eq!(r.string().unwrap(), "ab"),
                "v" => {
                    let v = f64s(&mut r).unwrap();
                    let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                    let want = [1.0, -0.0, 25.0, 9007199254740993.0f64];
                    assert_eq!(bits, want.map(f64::to_bits));
                }
                "bad" => assert_eq!(f64s(&mut r), None),
                "e" => assert_eq!(f64s(&mut r), Some(Vec::new())),
                _ => r.skip_value().unwrap(),
            }
            seen.push(key);
        }
        assert_eq!(seen, ["s", "v", "x", "bad", "e"]);
        assert!(Json::parse(doc).is_ok());
    }

    /// 10k cells rendered with `{}`, as the store writes them: integers of
    /// every width (u64 and i64) and arbitrary finite f64 bit patterns.
    fn generated_cells() -> Vec<String> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..10_000)
            .map(|i| {
                let r = next();
                let int = r >> (next() % 64);
                match i % 3 {
                    0 => format!("{int}"),
                    1 => format!("{}", (int as i64).wrapping_neg()),
                    _ => {
                        let x = f64::from_bits(r);
                        format!("{}", if x.is_finite() { x } else { int as f64 })
                    }
                }
            })
            .collect()
    }

    #[test]
    fn integer_cells_skip_the_float_parser_and_match_it_bit_for_bit() {
        let cells = generated_cells();
        let doc = format!("{{\"v\":[{}]}}", cells.join(","));
        let mut r = ObjectReader::new(&doc).unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("v"));
        let got = f64s(&mut r).unwrap();
        assert_eq!(got.len(), cells.len());
        let mut short = 0;
        for (cell, x) in cells.iter().zip(&got) {
            assert_eq!(x.to_bits(), cell.parse::<f64>().unwrap().to_bits(), "{cell}");
            // Exactly the integers of at most 15 digits skip the float parser.
            let digits = cell.strip_prefix('-').unwrap_or(cell);
            let want_short = digits.len() <= 15 && digits.bytes().all(|b| b.is_ascii_digit());
            let mut p = Parser { bytes: cell.as_bytes(), pos: 0 };
            assert_eq!(p.short_integer().is_some(), want_short, "{cell}");
            assert_eq!(p.pos, if want_short { cell.len() } else { 0 }, "{cell}");
            short += usize::from(want_short);
        }
        assert!(short > 1_000 && short < 9_000, "{short} short integers");
    }

    #[test]
    fn u32_cells_match_the_float_parser_cast_bit_for_bit() {
        // The generated cells plus every width around the u32 boundary.
        let mut cells = generated_cells();
        for d in 1..=12u32 {
            let p = 10u64.pow(d);
            cells.extend([p - 1, p, p + 1].map(|x| x.to_string()));
        }
        cells.extend(["4294967295", "4294967296", "0", "007", "-0", "-3"].map(String::from));
        let doc = format!("{{\"v\":[{}]}}", cells.join(","));
        let mut r = ObjectReader::new(&doc).unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("v"));
        let got = u32s(&mut r).unwrap();
        assert_eq!(got.len(), cells.len());
        let mut short = 0;
        for (cell, &x) in cells.iter().zip(&got) {
            assert_eq!(x, cell.parse::<f64>().unwrap() as u32, "{cell}");
            // Exactly the unsigned integers of at most 9 digits skip it.
            let want_short = cell.len() <= 9 && cell.bytes().all(|b| b.is_ascii_digit());
            let text = format!("{cell},");
            let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
            assert_eq!(p.short_u32().is_some(), want_short, "{cell}");
            assert_eq!(p.pos, if want_short { cell.len() } else { 0 }, "{cell}");
            short += usize::from(want_short);
        }
        assert!(short > 100 && short < 9_000, "{short} short cells");
        // Whitespace, `[]` and non-numeric elements, as `f64_array` reads them.
        for (doc, want) in [
            ("[ 1 ,2\t,\n3 ]", Some(vec![1, 2, 3])),
            ("[]", Some(vec![])),
            ("[ ]", Some(vec![])),
            ("[1,null]", None),
            ("[\"7\",1]", None),
        ] {
            let text = format!("{{\"v\":{doc}}}");
            let mut r = ObjectReader::new(&text).unwrap();
            r.next_key().unwrap();
            assert_eq!(u32s(&mut r), want, "{doc}");
        }
        // Arrays append to what the vector already holds.
        let text = r#"{"a":[1,2],"b":[3]}"#;
        let mut r = ObjectReader::new(text).unwrap();
        let mut out = vec![9];
        while r.next_key().unwrap().is_some() {
            assert!(r.u32_array(&mut out).unwrap());
        }
        assert_eq!(out, [9, 1, 2, 3]);
        for bad in ["[1,]", "[1 2]", "[-]", "[+1]", "[1", "[12a]"] {
            let text = format!("{{\"v\":{bad}}}");
            let mut r = ObjectReader::new(&text).unwrap();
            r.next_key().unwrap();
            assert!(r.u32_array(&mut Vec::new()).is_err(), "should reject {bad}");
        }
    }
}
