//! Offline drop-in subset of `serde_json`: JSON text encode/decode over the
//! serde shim's [`serde::Value`] tree.
//!
//! Floats are written with Rust's shortest-round-trip formatting, so every
//! finite `f64` survives a write/parse cycle bit-for-bit; `u64`/`i64` are
//! written as integer literals and never go through `f64`.
//!
//! Decoding is a single linear pass: string contents are copied run by run
//! between escapes, and raw control bytes inside strings are rejected with
//! [`ErrorKind::ControlCharacter`], as RFC 8259 §7 requires.

#![warn(missing_docs)]

use serde::{Deserialize, Number, Serialize, Value};
use std::io::{Read, Write};

/// Encode/decode error.
#[derive(Debug)]
pub struct Error {
    msg: String,
    kind: ErrorKind,
}

/// The class of an [`Error`], for callers that branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A raw control byte (below `0x20`) inside a string. RFC 8259 §7
    /// requires those to be escaped.
    ControlCharacter {
        /// The offending byte.
        byte: u8,
        /// Its byte offset in the input.
        offset: usize,
    },
    /// Any other syntax, data or I/O error; the message says which.
    Other,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            kind: ErrorKind::Other,
        }
    }

    fn control_character(byte: u8, offset: usize) -> Self {
        Self {
            msg: format!("unescaped control character {byte:#04x} in string at byte {offset}"),
            kind: ErrorKind::ControlCharacter { byte, offset },
        }
    }

    /// The class of this error.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Self::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Self::new(e.to_string())
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to a 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serializes `value` as compact JSON into `writer`.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    let s = to_string(value)?;
    writer.write_all(s.as_bytes())?;
    Ok(())
}

/// Deserializes a `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

/// Deserializes a `T` from a JSON reader.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

// ---- writer ----------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    use std::fmt::Write as _;
    match n {
        Number::PosInt(u) => {
            let _ = write!(out, "{u}");
        }
        Number::NegInt(i) => {
            let _ = write!(out, "{i}");
        }
        Number::Float(f) if f.is_finite() => {
            // `{:?}` is the shortest string that round-trips the exact value.
            let _ = write!(out, "{f:?}");
        }
        // JSON has no NaN/∞; mirror serde_json's lossy-null fallback.
        Number::Float(_) => out.push_str("null"),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                            let cp = self.hex4()?;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1; // past the first escape's last digit
                                if self.peek() != Some(b'\\') {
                                    return Err(Error::new("lone leading surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(Error::new("lone leading surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("bad surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| Error::new("bad \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(Error::new(format!(
                                "bad escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // Both are ASCII, so the run ends on a char boundary and
                    // each input byte is scanned and validated exactly once.
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    self.pos += len;
                    if let Some(&b) = rest.get(len).filter(|&&b| b < 0x20) {
                        return Err(Error::control_character(b, self.pos));
                    }
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| Error::new(format!("bad utf-8 at byte {start}")))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\uXXXX` escape. On entry `pos` is at the
    /// `u`; on exit it is at the last hex digit.
    fn hex4(&mut self) -> Result<u32, Error> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| Error::new("bad number"))?;
        let n = if is_float {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| Error::new(format!("bad number `{text}`")))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            let _ = stripped;
            Number::NegInt(
                text.parse::<i64>()
                    .map_err(|_| Error::new(format!("bad number `{text}`")))?,
            )
        } else {
            Number::PosInt(
                text.parse::<u64>()
                    .map_err(|_| Error::new(format!("bad number `{text}`")))?,
            )
        };
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
        assert_eq!(from_str::<i64>(&to_string(&-42i64).unwrap()).unwrap(), -42);
        assert!(from_str::<bool>("true").unwrap());
        let f = 0.123_456_789_012_345_68_f64;
        assert_eq!(from_str::<f64>(&to_string(&f).unwrap()).unwrap(), f);
        let s = "hi \"there\"\n\tunicode: ✓";
        assert_eq!(from_str::<String>(&to_string(s).unwrap()).unwrap(), s);
    }

    #[test]
    fn collections_round_trip() {
        let v: Vec<(u32, f64)> = vec![(1, 0.5), (2, 1.75)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,0.5],[2,1.75]]");
        assert_eq!(from_str::<Vec<(u32, f64)>>(&json).unwrap(), v);
        let opt: Vec<Option<u8>> = vec![Some(3), None];
        let json = to_string(&opt).unwrap();
        assert_eq!(json, "[3,null]");
        assert_eq!(from_str::<Vec<Option<u8>>>(&json).unwrap(), opt);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let v: Vec<Vec<u32>> = vec![vec![1, 2], vec![]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&pretty).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(from_str::<String>(r#""Aé""#).unwrap(), "Aé");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
        // Valid surrogate pair decodes; a high surrogate followed by a
        // non-low-surrogate `\u` escape (or nothing) must be a clean error,
        // not a debug-mode subtraction overflow.
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00""#).unwrap(),
            "\u{1F600}"
        );
        assert!(from_str::<String>(r#""\ud834\u0041""#).is_err());
        assert!(from_str::<String>(r#""\ud834A""#).is_err());
        assert!(from_str::<String>(r#""\ud834""#).is_err());
    }

    #[test]
    fn surrogate_errors_survive_preceding_runs() {
        for (text, msg) in [
            (r#""é✓\ud834A""#, "lone leading surrogate"),
            (r#""ab\ud834\u0041""#, "invalid low surrogate"),
            (r#""😀\ud834\x""#, "lone leading surrogate"),
        ] {
            let err = from_str::<String>(text).unwrap_err();
            assert_eq!(err.to_string(), msg, "{text:?}");
        }
    }

    #[test]
    fn runs_split_cleanly_around_escapes() {
        // Multi-byte UTF-8 directly before and after every escape.
        let s = "é\n✓\"😀x";
        assert_eq!(from_str::<String>(r#""é\n✓\"😀x""#).unwrap(), s);
        assert_eq!(from_str::<String>(&to_string(s).unwrap()).unwrap(), s);
        assert_eq!(from_str::<String>(r#""\u00e9é\\""#).unwrap(), "éé\\");
        assert_eq!(from_str::<String>(r#""""#).unwrap(), "");
    }

    #[test]
    fn runs_ending_at_eof_are_unterminated() {
        for text in ["\"abc", "\"é✓😀", "\"ab\\n", "\""] {
            let err = from_str::<String>(text).unwrap_err();
            assert_eq!(err.to_string(), "unterminated string", "{text:?}");
            assert_eq!(err.kind(), ErrorKind::Other);
        }
    }

    #[test]
    fn non_ascii_object_keys() {
        let v = parse(r#"{"ключ":1,"键\t":2,"😀":{"é":[]}}"#).unwrap();
        let Value::Object(fields) = v else {
            panic!("expected an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["ключ", "键\t", "😀"]);
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected() {
        for (text, byte, offset) in [
            ("\"a\nb\"", b'\n', 2),
            ("\"\u{0}\"", 0, 1),
            ("[\"é\\n\t\"]", b'\t', 6),
            ("{\"k\u{1f}\":1}", 0x1f, 3),
        ] {
            let err = from_str::<serde::Value>(text).unwrap_err();
            assert_eq!(
                err.kind(),
                ErrorKind::ControlCharacter { byte, offset },
                "{text:?}"
            );
            assert!(err.to_string().contains(&format!("at byte {offset}")));
        }
        // Escaped forms of the same bytes, and whitespace between tokens,
        // are fine.
        assert_eq!(
            from_str::<String>(r#""a\nb\u0000\u001f""#).unwrap(),
            "a\nb\u{0}\u{1f}"
        );
        assert_eq!(from_str::<Vec<u8>>("[\n1,\t2\r]").unwrap(), [1, 2]);
        // DEL and C1 controls are not JSON control characters.
        assert_eq!(
            from_str::<String>("\"\u{7f}\u{85}\"").unwrap(),
            "\u{7f}\u{85}"
        );
    }

    #[test]
    fn errors_on_garbage() {
        assert!(from_str::<u32>("[1,").is_err());
        assert!(from_str::<u32>("1 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<u32>("-1").is_err());
    }
}
