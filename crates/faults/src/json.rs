//! A minimal JSON reader for fault-schedule files.
//!
//! The workspace builds fully offline, so there is no serde; schedules are
//! small hand-written (or generated) documents, and this recursive-descent
//! parser covers the full JSON grammar the schedule format needs. Numbers
//! keep their raw text so integers up to `u64::MAX` survive exactly.
//!
//! [`ObjectReader`] is the same parser driven as a pull reader: hot paths
//! (the run store's `columns.jsonl`) decode an object's fields straight
//! into their own types (`f64` or `u32` arrays), numbers parsed once
//! (short integers without the float parser) and no [`Value`] tree built,
//! and it accepts exactly the documents [`parse`] accepts.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; the raw source text is kept for lossless integer access.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an exactly-integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Trailing content is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.finish()?;
    Ok(v)
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
/// [`parse`] accepts it.
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

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes.get(self.pos..).is_some_and(|rest| rest.starts_with(word.as_bytes())) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(|(raw, _)| Value::Num(raw.to_string())),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
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
                Some(b'}') => return Ok(Value::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
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
                    Some(b'u') => {
                        let quad = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or_else(|| self.err("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(quad)
                            .map_err(|_| self.err("non-utf8 \\u escape"))?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                        self.pos += 4;
                        // Surrogate pairs are not needed for schedule files;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(self.err("unknown escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences byte-wise.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let seq = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated utf-8 sequence"))?;
                    let s = std::str::from_utf8(seq)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
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

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedule_shaped_document() {
        let v = parse(r#"{"seed": 42, "events": [{"kind": "link_down", "router": 3}]}"#).unwrap();
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(42));
        let events = v.get("events").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("kind").and_then(Value::as_str), Some("link_down"));
    }

    #[test]
    fn large_integers_survive_exactly() {
        let v = parse(&format!("{{\"t\": {}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("t").and_then(Value::as_u64), Some(u64::MAX));
    }

    #[test]
    fn floats_and_escapes() {
        let v =
            parse(r#"{"f": 0.5, "neg": -1.25e2, "s": "a\"b\n", "b": true, "n": null}"#).unwrap();
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-125.0));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\n"));
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("n"), Some(&Value::Null));
        // A float is not an integer.
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "[1,]", "{\"a\" 1}", "{\"a\": }", "\"unterminated", "01x", "{} trailing", "-"]
        {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
        let doc = format!("{{\"k\": {deep}}}");
        let mut r = ObjectReader::new(&doc).unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k"));
        assert!(r.skip_value().unwrap_err().contains("nesting too deep"));
        // The cap counts the outermost value as depth 0.
        let at_cap = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(parse(&past_cap).is_err());
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
        assert!(parse(doc).is_ok());
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

    #[test]
    fn escape_round_trips() {
        let s = "line\n\"quoted\"\tend";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(s));
    }
}
