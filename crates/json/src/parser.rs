//! A recursive-descent JSON parser (RFC 8259).
//!
//! Full string unescaping including `\uXXXX` surrogate pairs, nesting
//! capped at [`MAX_DEPTH`], and every error reported with the byte
//! offset it happened at. The serve client parses a lint report of
//! ~120 KB per request, so the two common token kinds take fast paths
//! that change no accepted document, value or error offset:
//!
//! * a string's escape-free runs are sliced straight from the input
//!   `&str` — the input is valid UTF-8 and every run ends at an ASCII
//!   byte, so no run needs re-validating;
//! * a plain integer of at most 15 digits (no fraction, no exponent) is
//!   accumulated exactly in a `u64`, since every such value lies below
//!   2^53; every other number goes through Rust's `f64` parser.

use std::error::Error;
use std::fmt;

use crate::value::Value;

/// Maximum container nesting the parser accepts — protects the server
/// against stack-exhaustion bodies (`[[[[…`).
pub const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on malformed input,
/// nesting beyond [`MAX_DEPTH`], or trailing garbage.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'t> {
    text: &'t str,
    bytes: &'t [u8],
    pos: usize,
}

/// Digits of the longest plain integer the parser accumulates itself:
/// 10^15 - 1 is below 2^53, so the `u64` converts to `f64` exactly.
const EXACT_DIGITS: usize = 15;

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn skip_digits(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        self.skip_digits();
        let digits = &self.bytes[digits_start..self.pos];
        if (1..=EXACT_DIGITS).contains(&digits.len())
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            let n = digits
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
            let v = n as f64; // exact: n < 10^15 < 2^53
            return Ok(Value::Num(if negative { -v } else { v }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of plain bytes. It ends at an ASCII byte (or the end
            // of the input), so both ends are char boundaries of `text`.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos = start + run;
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        if self.peek() == Some(b'u') {
                            self.pos += 1;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("unpaired surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            return Err(self.err("unpaired surrogate"));
                        }
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(scalar).ok_or_else(|| self.err("invalid codepoint"))?);
            }
            other => {
                return Err(self.err(format!("unknown escape '\\{}'", other as char)));
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_containers() {
        let v = parse("{\"a\": [1, {\"b\": null}], \"c\": \"x\"}").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn unescapes_strings() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\n\\t\\u0041\"").unwrap(),
            Value::Str("a\"b\\c\n\tA".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2", "\"", "{]", "nul", "+1", "01a",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_raw_controls_in_strings() {
        for c in (0u8..0x20).map(char::from) {
            let e = parse(&format!("[\"ab{c}\"]")).unwrap_err();
            assert_eq!(e.message, "raw control character in string", "{c:?}");
            assert_eq!(e.offset, 4, "{c:?}");
        }
    }

    #[test]
    fn reports_offsets() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("at byte 4"));
    }

    #[test]
    fn depth_cap_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn round_trips_compact() {
        let text = "{\"a\":[1,2.5,null,true],\"b\":{\"c\":\"x\\ny\"}}";
        let v = parse(text).unwrap();
        assert_eq!(v.to_compact(), text);
    }
}
