//! Offline stand-in for `serde_json`.
//!
//! Renders the shim `serde`'s [`Value`] tree as JSON text and parses JSON
//! text back into it. Covers the workspace's call surface: [`to_string`],
//! [`to_string_pretty`], [`to_writer`], [`to_writer_pretty`], [`from_str`],
//! and [`from_reader`].

#![forbid(unsafe_code)]

use std::fmt::{self, Write as _};
use std::io::{Read, Write};

use serde::{Deserialize, Serialize, Value};

/// JSON serialization/parse failure.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// `Result` alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
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

/// Appends `f` to `out`. Numbers are formatted straight into `out`
/// (writing to a `String` cannot fail), with no `String` per number.
fn render_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        // Ryū-style shortest form is unavailable; `{}` on f64 is already
        // round-trippable in Rust.
        if f == f.trunc() && f.abs() < 1e15 {
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        // Real serde_json errors on non-finite floats; reports in this
        // workspace occasionally carry NaN placeholders, so encode as null.
        out.push_str("null");
    }
}

fn render(value: &Value, pretty: bool, indent: usize, out: &mut String) {
    let pad = |out: &mut String, n: usize| {
        if pretty {
            out.push('\n');
            for _ in 0..n {
                out.push_str("  ");
            }
        }
    };
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Value::I64(i) => {
            let _ = write!(out, "{i}");
        }
        Value::F64(f) => render_f64(*f, out),
        Value::String(s) => escape_into(s, out),
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
                pad(out, indent + 1);
                render(item, pretty, indent + 1, out);
            }
            pad(out, indent);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent + 1);
                escape_into(k, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                render(v, pretty, indent + 1, out);
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), false, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as human-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), true, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as compact JSON into `writer`.
pub fn to_writer<W: Write, T: Serialize>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

/// Serializes `value` as pretty JSON into `writer`.
pub fn to_writer_pretty<W: Write, T: Serialize>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string_pretty(value)?.as_bytes())?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    fn error(&self, message: &str) -> Error {
        Error::new(format!("{message} at byte {}", self.pos))
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
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
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the shim
                            // serializer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(self.error(&format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode UTF-8 from this byte.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk =
                        self.bytes.get(start..end).ok_or_else(|| self.error("truncated UTF-8"))?;
                    let text =
                        std::str::from_utf8(chunk).map_err(|_| self.error("invalid UTF-8"))?;
                    s.push_str(text);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
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
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses a value of type `T` from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(T::from_owned(value)?)
}

/// Parses a value of type `T` from a reader.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v: Vec<(String, Vec<f32>)> =
            vec![("dense.w".into(), vec![1.0, -2.5, 0.0]), ("dense.b".into(), vec![])];
        let text = to_string(&v).unwrap();
        let back: Vec<(String, Vec<f32>)> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_parseable_and_indented() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::U64(1)),
            ("b".to_string(), Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  "));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ slash \u{1F600}".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn numbers_keep_their_kind() {
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-5").unwrap(), -5);
        assert_eq!(from_str::<f32>("0.25").unwrap(), 0.25);
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
    }

    #[test]
    fn float_render_round_trips() {
        for &f in &[0.1f64, 1.0, -3.25, 1e-9, 12345.678901234] {
            let mut out = String::new();
            render_f64(f, &mut out);
            assert_eq!(out.parse::<f64>().unwrap(), f, "render {f} -> {out}");
        }
    }

    #[test]
    fn number_text_is_pinned() {
        let cases: [(f64, String); 16] = [
            (0.0, "0.0".into()),
            (3.0, "3.0".into()),
            (-7.0, "-7.0".into()),
            (999_999_999_999_999.0, "999999999999999.0".into()),
            (1e15, "1000000000000000".into()),
            (-2.5e20, "-250000000000000000000".into()),
            (-0.0, "-0.0".into()),
            (f64::from_bits(1), format!("0.{}5", "0".repeat(323))),
            (f64::from(f32::from_bits(1)), format!("0.{}1401298464324817", "0".repeat(44))),
            (f64::from(0.1f32), "0.10000000149011612".into()),
            (f64::from(200.0f32 / 255.0), "0.7843137383460999".into()),
            (1e-7, "0.0000001".into()),
            (123.456, "123.456".into()),
            (f64::NAN, "null".into()),
            (f64::INFINITY, "null".into()),
            (f64::NEG_INFINITY, "null".into()),
        ];
        for (value, text) in &cases {
            assert_eq!(&to_string(value).unwrap(), text, "{value:?}");
        }
        // f32 pixels are widened to f64 before rendering.
        let pixels = vec![0.1f32, 200.0 / 255.0, 0.5, 0.0];
        let text = "[0.10000000149011612,0.7843137383460999,0.5,0.0]";
        assert_eq!(to_string(&pixels).unwrap(), text);
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&"\u{1}").unwrap(), "\"\\u0001\"");
    }

    #[test]
    fn writer_and_reader_round_trip() {
        let v = vec![1.5f32, 2.0, -0.5];
        let mut buf = Vec::new();
        to_writer(&mut buf, &v).unwrap();
        let back: Vec<f32> = from_reader(&buf[..]).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f32>("[1,").is_err());
        assert!(from_str::<f32>("nope").is_err());
        assert!(from_str::<f32>("1 2").is_err());
    }
}
