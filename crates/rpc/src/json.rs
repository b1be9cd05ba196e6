//! A minimal vendored JSON encode/decode module.
//!
//! The build environment has no crates.io access (the same constraint that
//! produced `vendor/{rand,proptest,criterion}` and `fairgen-par`'s pool),
//! so the RPC layer carries its own JSON support: a [`Json`] value tree, a
//! strict recursive-descent parser with typed [`JsonError`]s and hard
//! resource limits, and a writer whose output the parser round-trips.
//!
//! Design points that matter for the wire format:
//!
//! * **Integers are lossless.** Seeds and node ids are `u64`/`u32`; an
//!   `f64`-only number type would silently corrupt seeds above 2⁵³. The
//!   parser classifies each number token: unsigned integral → [`Json::U64`],
//!   negative integral → [`Json::I64`], anything with a fraction or
//!   exponent → [`Json::F64`].
//! * **Malformed input is a typed error, never a panic.** Depth, string
//!   escapes, UTF-8, trailing garbage — every failure mode returns a
//!   [`JsonError`] with a byte offset (proptested in `tests/json_props.rs`).
//! * **No `Date`/locale/float-formatting surprises.** The writer uses
//!   Rust's shortest-round-trip `f64` formatting and emits `null` for
//!   non-finite floats (JSON has no NaN/Inf).
//! * **Allocation-light on the hot path.** A request carries a whole graph,
//!   so per-element work dominates. The writer formats integers through a
//!   stack buffer and copies the runs between string escapes whole; the
//!   parser copies string runs whole and accumulates integer tokens of up
//!   to 19 digits in place. Longer integers and floats still go through
//!   `str::parse`, so every value is the one `str::parse` would give.
//! * **Linear in the key count.** Duplicate keys are found through a set
//!   of key hashes, so a body of many distinct keys cannot make parsing
//!   quadratic.

use std::collections::HashSet;
use std::fmt;
use std::hash::BuildHasher;

/// Maximum nesting depth the parser accepts — deep enough for any real
/// request, shallow enough that `[[[[…` cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token (no sign, fraction, or exponent).
    U64(u64),
    /// A negative integer token.
    I64(i64),
    /// Any other number (fraction, exponent, or out of integer range).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (duplicate keys rejected by
    /// the parser).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (accepts `U64`, and non-negative `I64`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an `i64` (accepts `I64`, and in-range `U64`).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Moves the value of object field `key` out, consuming the object;
    /// `None` on non-objects and missing keys. The owned counterpart of
    /// [`get`](Json::get), for taking a subtree without copying it.
    pub fn into_field(self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => fields.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("the writer emits UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::U64(v) => write_decimal(*v, out),
            Json::I64(v) => {
                if *v < 0 {
                    out.push(b'-');
                }
                write_decimal(v.unsigned_abs(), out);
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's Display for f64 is shortest-round-trip; force a
                    // fraction/exponent marker so the reparse stays F64.
                    let s = v.to_string();
                    out.extend_from_slice(s.as_bytes());
                    if !s.contains(['.', 'e', 'E']) {
                        out.extend_from_slice(b".0");
                    }
                } else {
                    out.extend_from_slice(b"null"); // JSON has no NaN/Infinity.
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// Writes `v` in decimal through a stack buffer, not a `String` per number.
fn write_decimal(mut v: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[start..]);
}

/// Writes `s` as a JSON string literal, copying the runs between escapes
/// whole. Bytes of multi-byte UTF-8 sequences are all ≥ 0x80 and are never
/// escaped.
fn write_escaped(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let control;
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                control = format!("\\u{b:04x}");
                control.as_bytes()
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escaped);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Why a byte sequence failed to parse as JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue the expected token.
    UnexpectedByte(u8),
    /// A number token that does not parse (`1e`, `-`, leading zeros…).
    BadNumber,
    /// A malformed string: bad escape, bad `\u` sequence, raw control
    /// character, or invalid UTF-8.
    BadString,
    /// Nesting beyond [`MAX_DEPTH`].
    TooDeep,
    /// Non-whitespace bytes after the top-level value.
    TrailingGarbage,
    /// The same key appeared twice in one object.
    DuplicateKey(String),
}

/// A typed JSON parse failure with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            JsonErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonErrorKind::UnexpectedByte(b) => {
                write!(f, "unexpected byte 0x{b:02x} at offset {}", self.at)
            }
            JsonErrorKind::BadNumber => write!(f, "malformed number at offset {}", self.at),
            JsonErrorKind::BadString => write!(f, "malformed string at offset {}", self.at),
            JsonErrorKind::TooDeep => {
                write!(f, "nesting deeper than {MAX_DEPTH} at offset {}", self.at)
            }
            JsonErrorKind::TrailingGarbage => {
                write!(f, "trailing garbage after value at offset {}", self.at)
            }
            JsonErrorKind::DuplicateKey(k) => {
                write!(f, "duplicate object key {k:?} at offset {}", self.at)
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value from `input`; the whole slice must be the
/// value plus optional surrounding whitespace.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err(JsonErrorKind::TrailingGarbage));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError { kind, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(self.err(JsonErrorKind::UnexpectedByte(got))),
            None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        if self.input.len() - self.pos >= bytes.len()
            && &self.input[self.pos..self.pos + bytes.len()] == bytes
        {
            self.pos += bytes.len();
            Ok(value)
        } else {
            match self.peek() {
                Some(b) => Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEnd)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(JsonErrorKind::UnexpectedByte(b))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        // Hashes of every key so far.
        let mut hashes: HashSet<u64> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // A new hash proves a new key. A repeated one is rare for
            // distinct keys (the hasher is randomly keyed, so input cannot
            // aim for collisions) and is settled by a scan.
            if !hashes.insert(hashes.hasher().hash_one(key.as_str()))
                && fields.iter().any(|(k, _)| *k == key)
            {
                return Err(self.err(JsonErrorKind::DuplicateKey(key)));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            // Copy the run of bytes that need no decoding in one go.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.extend_from_slice(&self.input[run..self.pos]);
            match self.peek() {
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.err(JsonErrorKind::BadString));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(self.err(JsonErrorKind::UnexpectedEnd))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let c = self.unicode_escape()?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.err(JsonErrorKind::BadString)),
                    }
                }
                // A raw control character.
                Some(_) => return Err(self.err(JsonErrorKind::BadString)),
            }
        }
    }

    /// Reads the 4 hex digits after a `\u`; handles UTF-16 surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if (0xdc00..0xe000).contains(&lo) {
                        let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                        return char::from_u32(c).ok_or(self.err(JsonErrorKind::BadString));
                    }
                }
            }
            return Err(self.err(JsonErrorKind::BadString));
        }
        char::from_u32(hi).ok_or(self.err(JsonErrorKind::BadString))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or(self.err(JsonErrorKind::UnexpectedEnd))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err(JsonErrorKind::BadString)),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        // Integer part: one digit, or a nonzero digit followed by more.
        // Accumulated as it is scanned; exact while it has ≤ 19 digits.
        let int_start = self.pos;
        let mut magnitude = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let int_digits = self.pos - int_start;
        if int_digits == 0 || (int_digits > 1 && self.input[int_start] == b'0') {
            return Err(JsonError { kind: JsonErrorKind::BadNumber, at: start });
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError { kind: JsonErrorKind::BadNumber, at: start });
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError { kind: JsonErrorKind::BadNumber, at: start });
            }
        }
        if integral && int_digits <= 19 {
            // 19 digits stay below 10^19 < u64::MAX, so `magnitude` is exact.
            if !neg {
                return Ok(Json::U64(magnitude));
            }
            if magnitude <= i64::MIN.unsigned_abs() {
                return Ok(Json::I64(0i64.wrapping_sub_unsigned(magnitude)));
            }
        }
        // Longer integers, fractions and exponents: the standard parsers
        // decide (out-of-range integers become floats). The token is valid
        // ASCII by construction.
        let text =
            std::str::from_utf8(&self.input[start..self.pos]).expect("number token is ASCII");
        if integral {
            if neg {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::F64(v)),
            Err(_) => Err(JsonError { kind: JsonErrorKind::BadNumber, at: start }),
        }
    }
}

/// Convenience constructor for an object literal.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::U64(0)),
            ("42", Json::U64(42)),
            ("-7", Json::I64(-7)),
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-9223372036854775808", Json::I64(i64::MIN)),
            ("1.5", Json::F64(1.5)),
            ("1e3", Json::F64(1000.0)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            let parsed = parse(text.as_bytes()).expect(text);
            assert_eq!(parsed, value, "parsing {text}");
            assert_eq!(parse(parsed.encode().as_bytes()).expect(text), value);
        }
    }

    #[test]
    fn structures_round_trip() {
        let v = obj(vec![
            ("a", Json::Arr(vec![Json::U64(1), Json::Null, Json::Str("x\n\"y".into())])),
            ("b", obj(vec![("nested", Json::Bool(false))])),
            ("c", Json::F64(2.25)),
        ]);
        assert_eq!(parse(v.encode().as_bytes()).expect("round trip"), v);
    }

    #[test]
    fn big_seed_is_lossless() {
        let seed = u64::MAX - 1;
        let v = Json::U64(seed);
        let back = parse(v.encode().as_bytes()).expect("parse");
        assert_eq!(back.as_u64(), Some(seed), "u64 seeds must not go through f64");
    }

    #[test]
    fn unicode_escapes_decode() {
        // `\u00e9` = é; the surrogate pair `\ud83d\ude00` = 😀.
        assert_eq!(
            parse(br#""\u00e9\ud83d\ude00""#).expect("escapes"),
            Json::Str("é😀".into())
        );
        // Raw UTF-8 (not escaped) passes through too.
        assert_eq!(parse("\"é😀\"".as_bytes()).expect("utf8"), Json::Str("é😀".into()));
        // Lone high surrogate is malformed.
        assert!(matches!(parse(br#""\ud83d""#).unwrap_err().kind, JsonErrorKind::BadString));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for (text, kind) in [
            ("", JsonErrorKind::UnexpectedEnd),
            ("{", JsonErrorKind::UnexpectedEnd),
            ("[1,", JsonErrorKind::UnexpectedEnd),
            ("tru", JsonErrorKind::UnexpectedByte(b't')),
            ("01", JsonErrorKind::BadNumber),
            ("1e", JsonErrorKind::BadNumber),
            ("-", JsonErrorKind::BadNumber),
            ("\"\x01\"", JsonErrorKind::BadString),
            ("1 2", JsonErrorKind::TrailingGarbage),
            ("{\"a\":1,\"a\":2}", JsonErrorKind::DuplicateKey("a".into())),
        ] {
            let err = parse(text.as_bytes()).expect_err(text);
            assert_eq!(err.kind, kind, "for input {text:?}");
        }
    }

    /// `{"k0":0,"k1":1,…}` with `keys` keys, then `tail` before the `}`.
    fn wide_object(keys: usize, tail: &str) -> String {
        let mut text = String::from("{");
        for i in 0..keys {
            text.push_str(&format!("\"k{i}\":{i},"));
        }
        text.push_str(tail);
        text.push('}');
        text
    }

    #[test]
    fn wide_objects_parse_in_linear_time() {
        // 100 000 keys: quadratic duplicate detection would take minutes.
        let text = wide_object(100_000, "\"last\":null");
        let Json::Obj(fields) = parse(text.as_bytes()).expect("distinct keys") else {
            panic!("an object");
        };
        assert_eq!(fields.len(), 100_001);
        assert_eq!(fields[99_999], ("k99999".to_string(), Json::U64(99_999)));
    }

    #[test]
    fn duplicate_keys_are_found_at_any_width() {
        // Each duplicate is the object's last key; the error points just
        // past it. An escaped spelling of a key is the same key.
        for keys in [1, 2, 17, 100_000] {
            for dup in ["\"k0\"", "\"\\u006b0\""] {
                let text = wide_object(keys, &format!("{dup}:0"));
                let err = parse(text.as_bytes()).expect_err("duplicate");
                assert_eq!(err.kind, JsonErrorKind::DuplicateKey("k0".into()), "{keys} keys");
                assert_eq!(err.at, text.len() - 3, "{keys} keys, {dup}");
            }
        }
    }

    #[test]
    fn invalid_utf8_in_string_is_rejected() {
        let input = [b'"', 0xff, 0xfe, b'"'];
        assert!(matches!(parse(&input).unwrap_err().kind, JsonErrorKind::BadString));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut deep = String::new();
        for _ in 0..(MAX_DEPTH + 8) {
            deep.push('[');
        }
        assert_eq!(parse(deep.as_bytes()).unwrap_err().kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
        assert_eq!(Json::F64(f64::INFINITY).encode(), "null");
    }
}
