//! Workspace-local stand-in for `serde_json`.
//!
//! Renders the shim `serde::Value` data model to JSON text and parses it
//! back. Supports the API surface this repository uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], and [`Error`].
//!
//! Formatting matches `serde_json` closely enough for the workspace's
//! tests: compact output has no whitespace, pretty output indents with
//! two spaces, floats round-trip exactly (Rust's shortest-representation
//! formatting), and non-finite floats serialize as `null`.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

/// Serialization or parse error.
#[derive(Debug)]
pub struct Error {
    inner: serde::Error,
}

impl Error {
    fn msg(m: impl Into<String>) -> Self {
        Error {
            inner: serde::Error::custom(m),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error { inner: e }
    }
}

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Infallible for the value shapes this workspace produces; the
/// `Result` mirrors the upstream signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to pretty JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the value shapes this workspace produces.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// Returns an [`Error`] for malformed JSON or a tree that does not match
/// `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = Parser::new(s).parse_document()?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) => write_float(*x, out),
        Value::Str(s) => write_string(s, out),
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
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
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
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_float(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x == x.trunc() && x.abs() < 1e16 {
        // Keep a fractional part so the value reads back as a float,
        // matching serde_json's `1.0` formatting.
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Value, Error> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::msg(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::msg("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(Error::msg(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'n' => self.parse_keyword("null", Value::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` in array, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::msg("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: expect a low surrogate.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(Error::msg("lone surrogate in string"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(combined)
                                            .ok_or_else(|| Error::msg("invalid surrogate pair"))?,
                                    );
                                } else {
                                    return Err(Error::msg("lone surrogate in string"));
                                }
                            } else {
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error::msg("invalid unicode escape"))?,
                                );
                            }
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Copy one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8).
                    let start = self.pos;
                    let len = utf8_len(b);
                    self.pos += len;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| Error::msg("truncated UTF-8 sequence"))?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| Error::msg("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated unicode escape"))?;
        self.pos += 4;
        let s = std::str::from_utf8(chunk).map_err(|_| Error::msg("invalid unicode escape"))?;
        u32::from_str_radix(s, 16).map_err(|_| Error::msg("invalid unicode escape"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .map_err(|_| Error::msg("invalid number"))?;
        if is_float {
            let x: f64 = text
                .parse()
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))?;
            Ok(Value::Float(x))
        } else if let Some(stripped) = text.strip_prefix('-') {
            let n: i64 = format!("-{stripped}")
                .parse()
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))?;
            Ok(Value::Int(n))
        } else {
            match text.parse::<u64>() {
                Ok(n) => Ok(Value::UInt(n)),
                // Overflowing integers fall back to float, like serde_json
                // with arbitrary_precision off.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::msg(format!("invalid number `{text}`"))),
            }
        }
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_formatting() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(1)),
            ("b".into(), Value::Array(vec![Value::Float(1.5), Value::Null])),
        ]);
        let mut out = String::new();
        write_value(&v, &mut out, None, 0);
        assert_eq!(out, r#"{"a":1,"b":[1.5,null]}"#);
    }

    #[test]
    fn pretty_formatting_indents() {
        let v = Value::Map(vec![("a".into(), Value::UInt(1))]);
        let mut out = String::new();
        write_value(&v, &mut out, Some(2), 0);
        assert_eq!(out, "{\n  \"a\": 1\n}");
    }

    #[test]
    fn float_keeps_fraction() {
        let s = to_string(&1.0f64).unwrap();
        assert_eq!(s, "1.0");
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back, 1.0);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for &x in &[0.1, -1e-12, std::f64::consts::PI, 1e300, -0.0, 123456.789] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, x, "via {s}");
        }
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert!(from_str::<f64>("null").is_err());
    }

    #[test]
    fn parses_nested_document() {
        let v: Value = from_str(r#" { "x": [1, -2, 3.5], "y": {"z": "s"}, "w": true } "#).unwrap();
        assert_eq!(v.get("x").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("y").unwrap().get("z").unwrap().as_str(), Some("s"));
        assert_eq!(v.get("w"), Some(&Value::Bool(true)));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ slash ünïcode";
        let json = to_string(&original.to_string()).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_str::<Value>("{not json").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("{} extra").is_err());
        assert!(from_str::<Value>("").is_err());
        // A high surrogate escape needs a low one (DC00..=DFFF) next.
        for bad in [
            r#""\uD800\uD800""#,
            r#""\uD800\u0041""#,
            r#""\uDBFF\uE000""#,
            r#""\uD800x""#,
        ] {
            let err = from_str::<String>(bad).unwrap_err();
            assert!(err.to_string().contains("lone surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn unicode_escape_parses() {
        for json in [r#""é😀""#, r#""\u00e9\uD83D\uDE00""#] {
            let s: String = from_str(json).unwrap();
            assert_eq!(s, "é😀");
        }
    }
}
