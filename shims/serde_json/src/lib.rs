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

/// Appends `f` with at most nine significant digits: its correctly
/// rounded nine-digit decimal (ties to even), trailing zeros dropped, in
/// [`render_f64`]'s plain layout, using integer arithmetic rather than
/// `core::fmt`.
///
/// Nine digits read back bitwise through `str::parse::<f64>() as f32`,
/// which is what [`from_str`] does for an `f32`. The nine-digit decimal
/// is within 5·10⁻⁹ of `f`, relative; the `f64` parse adds at most 2⁻⁵³;
/// and `f`'s `f32` rounding interval reaches at least 2⁻²⁵ ≈ 2.98·10⁻⁸ of
/// `f` on each side. So the parsed `f64` lies inside that interval and
/// rounds back to `f`.
///
/// Three cases keep [`render_f64`]'s text of the widened value: integers
/// below 1e15 (`N.0`, written here without `core::fmt`), non-finite
/// values (`null`), and magnitudes below 2⁻⁷⁶ ≈ 1.3·10⁻²³, whose scaled
/// significand does not fit a `u128`.
fn render_f32(f: f32, out: &mut String) {
    if !f.is_finite() {
        return render_f64(f64::from(f), out);
    }
    if f.is_sign_negative() {
        out.push('-');
    }
    let magnitude = f.abs();
    if magnitude == magnitude.trunc() && f64::from(magnitude) < 1e15 {
        // Exact: an integral `f32` below 1e15 fits a `u64`.
        push_ascii(decimal(magnitude as u64, &mut [0; 20]), out);
        out.push_str(".0");
    } else if let Some((digits, exp)) = nine_digits(magnitude) {
        push_scaled(digits, exp, out);
    } else {
        render_f64(f64::from(magnitude), out);
    }
}

/// `10^i` for every power of ten a `u128` holds.
const POW10: [u128; 39] = {
    let mut table = [1u128; 39];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// The nine significant digits of `x` (positive and finite), correctly
/// rounded with ties to even, as `(digits, exp)` with `x ≈ digits · 10^exp`
/// and `digits` in `[10^8, 10^9)`; `None` when `x / 10^exp` cannot be
/// formed exactly in a `u128`.
fn nine_digits(x: f32) -> Option<(u32, i32)> {
    // x = m · 2^e exactly.
    let bits = x.to_bits();
    let (m, e) = match bits >> 23 {
        0 => (bits & 0x7f_ffff, -149),
        biased => ((bits & 0x7f_ffff) | 1 << 23, biased as i32 - 150),
    };
    // floor(log10(x)) - 8 from floor(log2(x)), good to within one; the
    // loop settles it.
    let mut exp = (((31 - m.leading_zeros() as i32 + e) * 1233) >> 12) - 8;
    loop {
        // x / 10^exp = num / den, both exact.
        let num = (u128::from(m) << e.max(0)).checked_mul(*POW10.get((-exp).max(0) as usize)?)?;
        let den = 1u128
            .checked_shl(e.min(0).unsigned_abs())?
            .checked_mul(*POW10.get(exp.max(0) as usize)?)?;
        let (quotient, remainder) = if den.is_power_of_two() {
            let shift = den.trailing_zeros();
            (num >> shift, num & (den - 1))
        } else {
            (num / den, num % den)
        };
        if quotient >= POW10[9] {
            exp += 1;
        } else if quotient < POW10[8] {
            exp -= 1;
        } else {
            let up = match remainder.cmp(&(den - remainder)) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => quotient % 2 == 1,
                std::cmp::Ordering::Less => false,
            };
            let digits = quotient as u32 + u32::from(up);
            // Rounding up from 999 999 999 carries into a tenth digit.
            return Some(if digits == 1_000_000_000 {
                (100_000_000, exp + 1)
            } else {
                (digits, exp)
            });
        }
    }
}

/// Writes the decimal digits of `n` at the end of `buf` and returns them.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[start..];
        }
    }
}

/// Appends ASCII bytes.
fn push_ascii(bytes: &[u8], out: &mut String) {
    out.extend(bytes.iter().map(|&b| char::from(b)));
}

/// Appends `digits · 10^exp` (`digits` nonzero) in plain decimal notation,
/// without trailing zeros after the point: `1234·10^-6` is `0.001234`,
/// `15·10^19` is `150000000000000000000`.
fn push_scaled(mut digits: u32, mut exp: i32, out: &mut String) {
    while digits.is_multiple_of(10) {
        digits /= 10;
        exp += 1;
    }
    let mut buf = [0; 20];
    let text = decimal(u64::from(digits), &mut buf);
    let point = text.len() as i32 + exp;
    if exp >= 0 {
        push_ascii(text, out);
        out.extend(std::iter::repeat_n('0', exp as usize));
    } else if point > 0 {
        let (int, frac) = text.split_at(point as usize);
        push_ascii(int, out);
        out.push('.');
        push_ascii(frac, out);
    } else {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', point.unsigned_abs() as usize));
        push_ascii(text, out);
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
        Value::F32(f) => render_f32(*f, out),
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

/// Deepest nesting of arrays and objects the parser accepts, as in real
/// `serde_json`. Parsing recurses once per level, so without a bound a
/// small body of `[`s would overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
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
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, or errors at its
    /// opening byte past [`MAX_DEPTH`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
        let bytes = &self.bytes[start..self.pos];
        if is_float {
            if let Some(f) = plain_decimal(bytes) {
                return Ok(Value::F64(f));
            }
        }
        let text = std::str::from_utf8(bytes).map_err(|_| self.error("invalid number"))?;
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

/// `10^i` for every power of ten an `f64` holds exactly.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Reads a plain decimal `-?d+.d+` with one exact division, or `None` for
/// any other text.
///
/// It takes numbers whose digits read as an integer mantissa of at most
/// 2^53 (16 significant digits or fewer) and whose fraction has at most
/// 22 digits. Then the mantissa and `10^fraction` are both exact `f64`s,
/// and one correctly rounded division gives the correctly rounded value:
/// bitwise what `str::parse::<f64>` returns (Clinger's fast path).
fn plain_decimal(text: &[u8]) -> Option<f64> {
    let (negative, unsigned) = match text.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, text),
    };
    let (mut mantissa, mut point) = (0u64, None);
    for (i, &b) in unsigned.iter().enumerate() {
        match b {
            b'0'..=b'9' => {
                mantissa = mantissa * 10 + u64::from(b - b'0');
                if mantissa > 1 << 53 {
                    return None;
                }
            }
            b'.' if point.is_none() && i > 0 => point = Some(i),
            _ => return None,
        }
    }
    let fraction = unsigned.len() - point? - 1;
    if fraction == 0 || fraction >= EXACT_POW10.len() {
        return None;
    }
    let magnitude = mantissa as f64 / EXACT_POW10[fraction];
    Some(if negative { -magnitude } else { magnitude })
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
        // An f32 is its own nine-digit text; integers, non-finite values
        // and magnitudes too small for the integer arithmetic keep the
        // text of the widened value.
        let cases: [(f32, String); 16] = [
            (0.1, "0.100000001".into()),
            (200.0 / 255.0, "0.784313738".into()),
            (0.5, "0.5".into()),
            (-0.25, "-0.25".into()),
            (1.0 / 3.0, "0.333333343".into()),
            (1e-7, "0.000000100000001".into()),
            (0.0, "0.0".into()),
            (-0.0, "-0.0".into()),
            (3.0, "3.0".into()),
            (-16_777_216.0, "-16777216.0".into()),
            (999_999_986_991_104.0, "999999986991104.0".into()),
            (-2.5e20, "-250000005000000000000".into()),
            (f32::MAX, "340282347000000000000000000000000000000".into()),
            (f32::from_bits(1), format!("0.{}1401298464324817", "0".repeat(44))),
            (f32::NAN, "null".into()),
            (f32::NEG_INFINITY, "null".into()),
        ];
        for (value, text) in &cases {
            assert_eq!(&to_string(value).unwrap(), text, "{value:?}");
        }
        let pixels = vec![0.1f32, 200.0 / 255.0, 0.5, 0.0];
        assert_eq!(to_string(&pixels).unwrap(), "[0.100000001,0.784313738,0.5,0.0]");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&"\u{1}").unwrap(), "\"\\u0001\"");
    }

    #[test]
    fn nine_digits_are_the_correctly_rounded_scientific_digits() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200_000 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let x = f32::from_bits((state >> 32) as u32 & 0x7fff_ffff);
            if !x.is_finite() || x == 0.0 {
                continue;
            }
            // `{:.8e}` prints the exact value's nine digits, ties to even.
            let scientific = format!("{:.8e}", f64::from(x));
            let (mantissa, exp) = scientific.split_once('e').unwrap();
            let want: u32 = mantissa.replace('.', "").parse().unwrap();
            let want_exp = exp.parse::<i32>().unwrap() - 8;
            match nine_digits(x) {
                Some(got) => assert_eq!(got, (want, want_exp), "{x:e}"),
                None => assert!(x < 1e-20, "{x:e} fits a u128"),
            }
        }
    }

    #[test]
    fn plain_decimals_take_the_fast_path_only_when_exact() {
        for (text, fast) in [
            ("0.5", true),
            ("-0.0", true),
            ("000.000123", true),
            ("1234567890123.456", true),
            ("12345678901234567.89", false),
            ("900719925474099.1", true),
            ("900719925474099.2", true),
            ("-900719925474099.3", false),
            (&format!("0.{}1", "0".repeat(21)), true),
            (&format!("0.{}1", "0".repeat(22)), false),
            ("1.", false),
            ("1e5", false),
            ("1.5e5", false),
            ("1.2.3", false),
            ("--1", false),
        ] {
            let got = plain_decimal(text.as_bytes());
            assert_eq!(got.is_some(), fast, "{text}");
            if let Some(f) = got {
                assert_eq!(f.to_bits(), text.parse::<f64>().unwrap().to_bits(), "{text}");
            }
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128 levels at byte 128"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        let err = from_str::<Value>(&objects).unwrap_err().to_string();
        assert!(err.contains(&format!("at byte {}", 5 * MAX_DEPTH)), "{err}");
        // Far past the bound, the error is the same and the stack holds.
        assert!(from_str::<Value>(&"[".repeat(10_000)).is_err());
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
