//! A minimal JSON parser for the framework's wire formats, and the two
//! rendering helpers every hand-written JSON emitter shares.
//!
//! The vendored `serde` is a marker-trait shim (see `vendor/README.md`), so
//! the JSON the framework *renders* by hand (the [`crate::report`] exporters
//! and the serving protocol) must also be *parsed* by hand.
//! [`string`] and [`number`] are the only string escaper and float renderer
//! those emitters use. The parser is their inverse: a small
//! recursive-descent parser producing a [`JsonValue`] tree whose objects
//! preserve insertion order — the property the round-trip golden tests rely
//! on.
//!
//! Numbers are parsed with Rust's `str::parse::<f64>`, which is correctly
//! rounded: a float rendered with the exporters' shortest round-trip
//! `Display` re-parses to the bit-identical `f64`. That is what lets the
//! serving layer hand protected coordinates through JSON without breaking
//! the workspace's bit-equivalence contracts.

use crate::error::CoreError;
use std::fmt;
use std::fmt::Write as _;

/// Renders `value` as a JSON string literal: quoted, with `"`, `\` and the
/// control characters escaped.
pub fn string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
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
    out
}

/// Renders a float in Rust's shortest round-trip form, which re-parses to
/// the bit-identical `f64`; non-finite values, which JSON cannot express,
/// become `null`.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// One parsed JSON value. Object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`, like the exporters emit).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source member order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] on malformed input, with a byte offset
    /// in the reason.
    pub fn parse(input: &str) -> Result<JsonValue, CoreError> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The member of an object, by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().find(|(name, _)| name == key).map(|(_, value)| value)
            }
            _ => None,
        }
    }

    /// The object members, in source order.
    pub fn members(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The array elements.
    pub fn elements(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(elements) => Some(elements),
            _ => None,
        }
    }

    /// The numeric value; `null` reads as NaN (the exporters render
    /// non-finite floats as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The numeric value as an exact unsigned integer.
    ///
    /// Numbers are carried as `f64`, which represents integers exactly only
    /// up to 2⁵³ − 1; beyond that, distinct source integers collapse onto
    /// one float. Rather than silently rounding (which would let two
    /// different user ids collide onto one identity), values above that
    /// bound return `None` — ids in the wire formats must fit 53 bits.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = ((1u64 << 53) - 1) as f64;
        match self {
            JsonValue::Number(value)
                if value.fract() == 0.0 && *value >= 0.0 && *value <= MAX_EXACT =>
            {
                Some(*value as u64)
            }
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(value) => Some(value),
            _ => None,
        }
    }

    /// The boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// A one-word description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind())
    }
}

/// Maximum container nesting the parser accepts. The recursive descent uses
/// the call stack, so an unbounded depth would let a small hostile document
/// (kilobytes of `[`) overflow the stack and abort the process — a failure
/// no `catch_unwind` can intercept. 128 is far beyond any document the
/// exporters emit while keeping the worst-case stack a few frames deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &str) -> CoreError {
        CoreError::Parse { reason: format!("{reason} (at byte {})", self.pos) }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), CoreError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, CoreError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected \"{word}\"")))
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, CoreError>,
    ) -> Result<JsonValue, CoreError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("document nesting exceeds the depth limit"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn value(&mut self) -> Result<JsonValue, CoreError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, CoreError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, CoreError> {
        self.expect(b'[')?;
        let mut elements = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(elements));
        }
        loop {
            elements.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(elements));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, CoreError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("malformed \\u escape"))?;
                            // The exporters only emit BMP escapes (control
                            // characters); surrogate pairs are out of scope.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // in one step. Both are ASCII, so the run ends on a char
                    // boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, CoreError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        let value: f64 = text.parse().map_err(|_| self.error("malformed number"))?;
        Ok(JsonValue::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_strings_and_numbers_parse_back_exactly() {
        for text in ["plain", "a\"b\\c", "line\nbreak\tand\u{1}\r", "ünïcödé ✓", ""] {
            let parsed = JsonValue::parse(&string(text)).unwrap();
            assert_eq!(parsed.as_str(), Some(text));
        }
        for value in [0.1, -1.6777926, 1e-300, 48.117266, f64::MAX, 0.0] {
            let parsed = JsonValue::parse(&number(value)).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), value.to_bits());
        }
        assert_eq!(JsonValue::parse(&number(f64::NAN)).unwrap(), JsonValue::Null);
    }

    #[test]
    fn non_finite_numbers_render_as_null_and_control_characters_as_escapes() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(value), "null");
        }
        assert_eq!(number(-0.5), "-0.5");
        assert_eq!(string("tab\there\u{1}\u{1f}"), "\"tab\\there\\u0001\\u001f\"");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap().as_bool(), Some(false));
        assert_eq!(JsonValue::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("\"a b\"").unwrap().as_str(), Some("a b"));
        assert_eq!(
            JsonValue::parse("[1, 2]").unwrap(),
            JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.0)])
        );
        let object = JsonValue::parse("{\"a\": 1, \"b\": [true, null]}").unwrap();
        assert_eq!(object.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(object.get("b").unwrap().elements().unwrap().len(), 2);
        assert!(object.get("c").is_none());
        assert_eq!(object.members().unwrap()[0].0, "a");
        assert_eq!(JsonValue::parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
    }

    #[test]
    fn object_member_order_is_preserved() {
        let object = JsonValue::parse("{\"z\": 1, \"a\": 2, \"m\": 3}").unwrap();
        let keys: Vec<&str> = object.members().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn string_escapes_resolve() {
        assert_eq!(
            JsonValue::parse(r#""a\"b\\c\nd\te\u0001""#).unwrap().as_str(),
            Some("a\"b\\c\nd\te\u{1}")
        );
        assert_eq!(JsonValue::parse(r#""caf\u00e9 é""#).unwrap().as_str(), Some("café é"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Every unescaped character used to re-validate the rest of the
        // input as UTF-8, so a 1 MiB string took minutes. Multi-byte
        // characters next to escapes check the run boundaries.
        let text = "é gère \u{1F30D}".repeat(1 << 17);
        assert!(text.len() >= 1 << 20);
        let document = format!("\"{text}\\n{text}\\\"\"");
        let parsed = JsonValue::parse(&document).unwrap();
        assert_eq!(parsed.as_str(), Some(format!("{text}\n{text}\"").as_str()));
    }

    #[test]
    fn shortest_roundtrip_floats_reparse_bit_identically() {
        // The exporters render floats with the shortest round-trip Display;
        // the parser must give the bit-identical f64 back.
        for &value in
            &[0.1, 1.0 / 3.0, 1e-4, 0.010022339934432, f64::MAX, f64::MIN_POSITIVE, -2.5e-17]
        {
            let rendered = format!("{value}");
            let parsed = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), value.to_bits(), "{rendered} drifted");
        }
        // Non-finite floats are rendered as null and read back as NaN.
        assert!(JsonValue::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn malformed_documents_fail_with_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": }",
            "tru",
            "\"open",
            "1 2",
            "{\"a\":1,}",
            "nul",
            "--1",
            "\"bad \\q escape\"",
            "\"\\u00g1\"",
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(
                matches!(err, CoreError::Parse { .. }),
                "{bad:?} should fail with Parse, got {err}"
            );
            assert!(err.to_string().contains("at byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        // ~100KB of '[' used to overflow the worker stack and SIGABRT the
        // whole process; the depth limit turns it into a typed parse error.
        for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = JsonValue::parse(&hostile).unwrap_err();
            assert!(matches!(err, CoreError::Parse { .. }));
            assert!(err.to_string().contains("depth"), "{err}");
        }
        // Sane nesting well below the limit still parses.
        let nested = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&nested).is_ok());
    }

    #[test]
    fn as_u64_rejects_inexact_integers() {
        // 2^53 - 1 is the largest exactly-representable integer; beyond it
        // distinct ids collapse onto one f64 and must not become one user.
        assert_eq!(JsonValue::parse("9007199254740991").unwrap().as_u64(), Some((1u64 << 53) - 1));
        for too_big in ["9007199254740992", "9007199254740993", "18446744073709551615", "1e300"] {
            assert_eq!(JsonValue::parse(too_big).unwrap().as_u64(), None, "{too_big}");
        }
    }

    #[test]
    fn accessor_mismatches_return_none() {
        let value = JsonValue::parse("{\"a\": 1.5}").unwrap();
        assert!(value.as_f64().is_none());
        assert!(value.as_str().is_none());
        assert!(value.as_bool().is_none());
        assert!(value.elements().is_none());
        assert!(value.get("a").unwrap().as_u64().is_none()); // 1.5 is not integral
        assert!(value.get("a").unwrap().members().is_none());
        assert_eq!(value.kind(), "object");
        assert_eq!(value.to_string(), "object");
        assert_eq!(JsonValue::Null.kind(), "null");
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
    }
}
