//! Offline stand-in for `serde_json`.
//!
//! Renders the shim `serde`'s [`Value`] tree as JSON text and parses JSON
//! text back into it. Covers the workspace's call surface: [`to_string`],
//! [`to_string_pretty`], [`to_writer`], [`to_writer_pretty`], [`from_str`],
//! and [`from_reader`], plus [`write_f32`] and [`read_number`] for callers
//! that write or read numbers without a tree.

#![forbid(unsafe_code)]

use std::fmt;
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

fn escape_into(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
        }
    }
    out.push(b'"');
}

/// Appends `f` to `out`. Numbers are formatted straight into `out`
/// (writing to a `Vec` cannot fail), with no `String` per number.
fn render_f64(f: f64, out: &mut Vec<u8>) {
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
        out.extend_from_slice(b"null");
    }
}

/// Appends `f`'s JSON text to `out`: what [`to_string`] writes for an
/// `f32`, without a [`Value`]. Every `f32` the derive lowers is written
/// here too.
///
/// The text has at most nine significant digits: `f`'s correctly rounded
/// nine-digit decimal (ties to even), trailing zeros dropped, in
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
/// values (`null`), and magnitudes below 2⁻⁷⁶ ≈ 1.3·10⁻²³, where the
/// product below would not fit a `u128`.
///
/// Everything is read from the bits. A normal `f32` is `m · 2^e` with
/// `2²³ ≤ m < 2²⁴`: an integer when `e` plus the trailing zero bits of `m`
/// is at least 0, and below 2²³ otherwise. Such a fraction's denominator
/// is `2^-e`, so its nine digits take a product `m · 10^k` and one shift
/// by `-e`. The product is a `u64` while `10^k < 2⁴⁰` (`k ≤ 12`, every
/// fraction of at least 2⁻¹³) and a `u128` below that.
pub fn write_f32(f: f32, out: &mut Vec<u8>) {
    let bits = f.to_bits();
    let magnitude = bits & 0x7fff_ffff;
    if magnitude >= f32::INFINITY.to_bits() {
        return out.extend_from_slice(b"null");
    }
    if bits != magnitude {
        out.push(b'-');
    }
    let m = (magnitude & 0x7f_ffff) | 1 << 23;
    let e = (magnitude >> 23) as i32 - 150;
    if magnitude == 0 {
        out.extend_from_slice(b"0.0");
    } else if magnitude < (127 - 76) << 23 {
        // Subnormals and normals below 2^-76.
        render_f64(f64::from(f32::from_bits(magnitude)), out);
    } else if e + m.trailing_zeros() as i32 >= 0 {
        // An integer, below 2^128.
        let n = if e >= 0 { u128::from(m) << e } else { u128::from(m >> -e) };
        if n < POW10[15] {
            push_integer(n as u64, out);
            out.extend_from_slice(b".0");
        } else {
            // n / 10^exp has nine digits; 6 ≤ exp ≤ 31.
            let mut exp = log10_floor(23 + e) - 8;
            if n / POW10[exp as usize] >= POW10[9] {
                exp += 1;
            }
            let den = POW10[exp as usize];
            let (rest, half) = (n % den, den / 2);
            push_scaled(round_half_even((n / den) as u64, rest > half, rest == half), exp, out);
        }
    } else {
        // A fraction: m · 10^k / 2^shift has nine digits; 1 ≤ shift ≤ 99
        // and 2 ≤ k ≤ 31. With k ≤ 12 the product is below 2^64 and the
        // shift below 38. Whether k must drop by one, like the rounding,
        // depends on m, so both are computed without a branch: on pixels
        // either way is about as likely, and a mispredicted branch costs
        // more than computing the product again.
        let shift = e.unsigned_abs();
        let mut k = 8 - log10_floor(23 + e);
        let digits = if k <= 12 {
            let ten_digits = (u64::from(m) * POW10[k as usize] as u64) >> shift >= POW10[9] as u64;
            k -= i32::from(ten_digits);
            let num = u64::from(m) * POW10[k as usize] as u64;
            let (rest, half) = (num & ((1 << shift) - 1), 1 << (shift - 1));
            round_half_even(num >> shift, rest > half, rest == half)
        } else {
            k -= i32::from((u128::from(m) * POW10[k as usize]) >> shift >= POW10[9]);
            let num = u128::from(m) * POW10[k as usize];
            let (rest, half) = (num & ((1 << shift) - 1), 1 << (shift - 1));
            round_half_even((num >> shift) as u64, rest > half, rest == half)
        };
        push_scaled(digits, -k, out);
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

/// `floor(log10(2^p))` for `|p| ≤ 149`, so `floor(log10(x))` is this or
/// one more for `x` in `[2^p, 2^(p+1))`. `1233 / 4096` is `log10(2)` to
/// within 5·10⁻⁶, and no `p · log10(2)` in that range lies within 10⁻³
/// of an integer.
fn log10_floor(p: i32) -> i32 {
    (p * 1233) >> 12
}

/// `quotient`, plus one when the remainder is `above` half the divisor,
/// or exactly `half` of it and `quotient` is odd: rounding to nearest,
/// ties to even. The operators do not short-circuit, so there is no
/// branch to mispredict.
fn round_half_even(quotient: u64, above: bool, half: bool) -> u32 {
    quotient as u32 + u32::from(above | (half & (quotient % 2 == 1)))
}

/// Appends the decimal digits of `n`.
fn push_integer(mut n: u64, out: &mut Vec<u8>) {
    let mut buf = [0; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return out.extend_from_slice(&buf[start..]);
        }
    }
}

/// Appends `digits · 10^exp` in plain decimal notation, without trailing
/// zeros after the point: `123400000·10^-11` is `0.001234`,
/// `150000000·10^12` is `150000000000000000000`. `digits` has nine
/// digits, or is 10^9 where rounding carried, and `-31 ≤ exp ≤ 31`.
///
/// The text is laid out in a buffer of zeros on the stack and copied into
/// `out` once. The nine digits are the first, then [`eight_digits`] as
/// one word; the word's high zero bytes are the trailing zeros.
fn push_scaled(digits: u32, exp: i32, out: &mut Vec<u8>) {
    let (digits, exp) =
        if digits == 1_000_000_000 { (100_000_000, exp + 1) } else { (digits, exp) };
    let tail = eight_digits(digits % 100_000_000);
    // The point goes after `point` of the digits; `used` of them are left
    // once trailing zeros are dropped. The longest text is 39 digits
    // (`exp` 30) or `0.` and 22 zeros before the nine digits.
    let point = 9 + exp;
    let used = 9 - (tail.leading_zeros() / 8) as usize;
    let mut text = [b'0'; 40];
    let start = if point <= 0 { 2 + point.unsigned_abs() as usize } else { 0 };
    text[start] = b'0' + (digits / 100_000_000) as u8;
    text[start + 1..start + 9].copy_from_slice(&(tail | 0x3030_3030_3030_3030).to_le_bytes());
    let len = if exp >= 0 {
        9 + exp as usize
    } else if point <= 0 {
        text[1] = b'.';
        start + used
    } else {
        let point = point as usize;
        if used > point {
            text.copy_within(point..used, point + 1);
            text[point] = b'.';
            used + 1
        } else {
            point
        }
    };
    out.extend_from_slice(&text[..len]);
}

/// The eight decimal digits of `n < 10^8`, zero-padded, one per byte as
/// values 0–9 with the first in the lowest byte, computed a word at a
/// time: the two four-digit halves go in 32-bit lanes, which split into
/// two-digit 16-bit lanes and then one-digit bytes. `x · 5243 >> 19` is
/// `x / 100` for every `x < 10^4`, and `x · 103 >> 10` is `x / 10` for
/// every `x < 100`; no lane's product reaches the next lane, and the
/// masks drop what a higher lane's product shifts into a lower one.
fn eight_digits(n: u32) -> u64 {
    let halves = u64::from(n / 10_000) | u64::from(n % 10_000) << 32;
    let hundreds = ((halves * 5243) >> 19) & 0x0000_007f_0000_007f;
    let pairs = hundreds | (halves - hundreds * 100) << 16;
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    tens | (pairs - tens * 10) << 8
}

fn render(value: &Value, pretty: bool, indent: usize, out: &mut Vec<u8>) {
    let pad = |out: &mut Vec<u8>, n: usize| {
        if pretty {
            out.push(b'\n');
            for _ in 0..n {
                out.extend_from_slice(b"  ");
            }
        }
    };
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Value::I64(i) => {
            let _ = write!(out, "{i}");
        }
        Value::F64(f) => render_f64(*f, out),
        Value::F32(f) => write_f32(*f, out),
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.extend_from_slice(b"[]");
                return;
            }
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                pad(out, indent + 1);
                render(item, pretty, indent + 1, out);
            }
            pad(out, indent);
            out.push(b']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.extend_from_slice(b"{}");
                return;
            }
            out.push(b'{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                pad(out, indent + 1);
                escape_into(k, out);
                out.push(b':');
                if pretty {
                    out.push(b' ');
                }
                render(v, pretty, indent + 1, out);
            }
            pad(out, indent);
            out.push(b'}');
        }
    }
}

/// Renders `value` as JSON bytes: always UTF-8, and checked as such once,
/// where [`to_string`] makes them a `String`.
fn render_bytes<T: Serialize>(value: &T, pretty: bool) -> Vec<u8> {
    let mut out = Vec::new();
    render(&value.to_value(), pretty, 0, &mut out);
    out
}

fn into_string(bytes: Vec<u8>) -> Result<String> {
    String::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    into_string(render_bytes(value, false))
}

/// Serializes `value` as human-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    into_string(render_bytes(value, true))
}

/// Serializes `value` as compact JSON into `writer`.
pub fn to_writer<W: Write, T: Serialize>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(&render_bytes(value, false))?;
    Ok(())
}

/// Serializes `value` as pretty JSON into `writer`.
pub fn to_writer_pretty<W: Write, T: Serialize>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(&render_bytes(value, true))?;
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
        self.error_at(self.pos, message)
    }

    fn error_at(&self, pos: usize, message: &str) -> Error {
        Error::new(format!("{message} at byte {pos}"))
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
                        b'u' => s.push(self.parse_unicode_escape()?),
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

    /// Reads the code point of a `\\u` escape whose four hex digits start
    /// at the current byte. A UTF-16 high surrogate must be followed by a
    /// `\\u` low surrogate, and the pair is one code point, as in the text
    /// Python's `json.dumps` writes for characters beyond U+FFFF. A lone
    /// surrogate, like a digit that is not hex, is an error at the byte
    /// where its escape's digits start.
    fn parse_unicode_escape(&mut self) -> Result<char> {
        let start = self.pos;
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                let low = match self.bytes.get(self.pos..self.pos + 2) {
                    Some(b"\\u") => {
                        self.pos += 2;
                        Some(self.hex4()?)
                    }
                    _ => None,
                };
                match low {
                    Some(low @ 0xDC00..=0xDFFF) => {
                        0x1_0000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                    }
                    _ => return Err(self.error_at(start, "lone surrogate in \\u escape")),
                }
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error_at(start, "lone surrogate in \\u escape"))
    }

    /// Reads four hex digits, each `0-9`, `a-f` or `A-F`.
    fn hex4(&mut self) -> Result<u32> {
        let start = self.pos;
        let digits =
            self.bytes.get(start..start + 4).ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &digit in digits {
            let value =
                char::from(digit).to_digit(16).ok_or_else(|| self.error("bad \\u escape"))?;
            code = code * 16 + value;
        }
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let text = &self.bytes[self.pos..];
        let (value, len) = read_number(text);
        self.pos += len;
        value.ok_or_else(|| {
            let text: String = text[..len].iter().map(|&b| char::from(b)).collect();
            self.error(&format!("invalid number `{text}`"))
        })
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

/// Reads the number at the start of `bytes` as [`from_str`] reads one:
/// a `-` or a digit, then every byte in `0-9 . e E + -`. Returns the
/// number, or `None` when that text is not one, and the length of the
/// text. Text that starts with neither `-` nor a digit is no number, of
/// length 0.
///
/// One pass collects the digits of an integer `-?d+` or a plain decimal
/// `-?d+.d+` as it scans. An integer of at most 19 digits is a
/// [`Value::U64`], or a [`Value::I64`] when it is negative and fits. A
/// plain decimal of at most 19 digits whose digits read as an integer
/// mantissa of at most 2^53, with at most 22 of them after the point, is
/// one exact division: the mantissa and `10^fraction` are both exact
/// `f64`s, and one correctly rounded division gives bitwise what
/// `str::parse::<f64>` returns (Clinger's fast path). Any other text goes
/// to the standard library's parsers as it always has: an integer to
/// `u64`, then `i64`, then `f64`, anything else to `f64`.
#[inline]
pub fn read_number(bytes: &[u8]) -> (Option<Value>, usize) {
    let negative = bytes.first() == Some(&b'-');
    if !negative && !bytes.first().is_some_and(u8::is_ascii_digit) {
        return (None, 0);
    }
    // The digits before and after a point, gathered into one integer.
    let mut len = usize::from(negative);
    let mut mantissa = 0u64;
    let mut digits = |len: &mut usize| {
        let start = *len;
        while let Some(&b) = bytes.get(*len).filter(|b| b.is_ascii_digit()) {
            mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            *len += 1;
        }
        *len - start
    };
    let int = digits(&mut len);
    let fraction = (bytes.get(len) == Some(&b'.')).then(|| {
        len += 1;
        digits(&mut len)
    });
    let plain_end = len;
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(len) {
        len += 1;
    }
    // 19 digits always fit a `u64`; longer text takes the general path.
    let plain = len == plain_end && int > 0 && int + fraction.unwrap_or(0) <= 19;
    let fast = match fraction {
        _ if !plain => None,
        None if negative => 0i64.checked_sub_unsigned(mantissa).map(Value::I64),
        None => Some(Value::U64(mantissa)),
        Some(fraction) if fraction > 0 && fraction < EXACT_POW10.len() && mantissa <= 1 << 53 => {
            let magnitude = mantissa as f64 / EXACT_POW10[fraction];
            Some(Value::F64(if negative { -magnitude } else { magnitude }))
        }
        Some(_) => None,
    };
    let value = fast.or_else(|| {
        let text = std::str::from_utf8(&bytes[..len]).ok()?;
        if fraction.is_none() && len == plain_end {
            if let Ok(u) = text.parse::<u64>() {
                return Some(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Some(Value::I64(i));
            }
        }
        text.parse::<f64>().ok().map(Value::F64)
    });
    (value, len)
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
            let out = to_string(&f).unwrap();
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
    fn read_number_takes_its_text_and_reads_it_as_std_does() {
        for (text, len) in [
            ("0.5,", 3),
            ("-0.0]", 4),
            ("000.000123 ", 10),
            ("1234567890123.456}", 17),
            ("12345678901234567.89", 20),
            ("900719925474099.2", 17),
            ("-900719925474099.3", 18),
            ("0.00000000000000000000001", 25),
            ("1.", 2),
            ("-.5", 3),
            ("1e5", 3),
            ("1.5e-5,", 6),
            ("99999999999999999999", 20),
            ("-9223372036854775809", 20),
        ] {
            let (value, got_len) = read_number(text.as_bytes());
            assert_eq!(got_len, len, "{text}");
            let want = text[..len].parse::<f64>().unwrap();
            match value {
                Some(Value::F64(f)) => assert_eq!(f.to_bits(), want.to_bits(), "{text}"),
                other => panic!("{text}: {other:?}"),
            }
        }
        for (text, want) in [
            ("0", Value::U64(0)),
            ("-0", Value::I64(0)),
            ("007,", Value::U64(7)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("-9223372036854775808", Value::I64(i64::MIN)),
            ("16777217", Value::U64(16_777_217)),
        ] {
            assert_eq!(read_number(text.as_bytes()).0, Some(want), "{text}");
        }
        for (text, len) in [
            ("-", 1),
            ("-x", 1),
            ("1.2.3", 5),
            ("--1", 3),
            ("1e", 2),
            ("+1", 0),
            (".5", 0),
            ("", 0),
        ] {
            assert_eq!(read_number(text.as_bytes()), (None, len), "{text}");
        }
    }

    #[test]
    fn surrogate_pairs_are_one_code_point() {
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(from_str::<String>(r#""a\uD83D\uDE00b""#).unwrap(), "a\u{1F600}b");
        assert_eq!(from_str::<String>(r#""\u00e9\u0041""#).unwrap(), "\u{e9}A");
        for (text, byte) in [
            (r#""\ud83d""#, 3),
            (r#""\ud83dx""#, 3),
            (r#""\ud83d\n""#, 3),
            (r#""\ud83d\u0041""#, 3),
            (r#""\ud83d\ud83d""#, 3),
            (r#""ab\ude00""#, 5),
        ] {
            let err = from_str::<String>(text).unwrap_err().to_string();
            assert_eq!(err, format!("json: lone surrogate in \\u escape at byte {byte}"), "{text}");
        }
    }

    #[test]
    fn a_unicode_escape_takes_four_hex_digits_and_nothing_else() {
        for text in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, r#""\uéé""#] {
            let err = from_str::<String>(text).unwrap_err().to_string();
            assert_eq!(err, "json: bad \\u escape at byte 3", "{text}");
        }
        let err = from_str::<String>(r#""\ud83d\u+c00""#).unwrap_err().to_string();
        assert_eq!(err, "json: bad \\u escape at byte 9");
        let err = from_str::<String>(r#""\u004"#).unwrap_err().to_string();
        assert_eq!(err, "json: truncated \\u escape at byte 3");
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
