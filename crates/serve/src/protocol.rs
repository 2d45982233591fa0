//! Wire types and a minimal HTTP/1.1 framing layer.
//!
//! The server speaks just enough HTTP for curl and the load generator:
//! a request line, headers (only `Content-Length` is interpreted), and
//! an optional body. Payloads are JSON written by the `serde_json` shim,
//! so pixels and logits round-trip bitwise: the writer gives each `f32`
//! its correctly rounded nine-significant-digit decimal, which reads back
//! as the same `f32` through an `f64` parse.
//!
//! The client writes a `/predict` body with [`PredictRequest::to_body`],
//! straight from the request's fields, and the server reads it with
//! [`PredictRequest::from_body`]. A body shaped as the client writes one
//! goes straight into its pixel vector; any other body goes to the shim's
//! general parser, which builds a value tree and refuses nesting deeper
//! than 128 levels, so a body of brackets is a bad request, not a stack
//! overflow. The text and the answer are the same as the derive's either
//! way.

use crate::error::ServeError;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, Read, Write};

/// Upper bound on accepted request bodies; anything larger is a
/// [`ServeError::BadRequest`] before buffering.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on one request, status or header line, its line ending
/// included; a longer line is a [`ServeError::BadRequest`] once this
/// many bytes are buffered.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Upper bound on the header lines of one message; one more is a
/// [`ServeError::BadRequest`].
pub const MAX_HEADERS: usize = 64;

/// One inference request: a flat pixel row plus optional ground truth.
///
/// `label` lets the server maintain per-generation accuracy counters;
/// `adversarial` tags which traffic class the request belongs to (the
/// load generator sets it on perturbed inputs, mirroring a deployment
/// that routes canary attack traffic through the same endpoint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Flattened image pixels; length must equal the model input width.
    pub pixels: Vec<f32>,
    /// Optional ground-truth class for accuracy accounting.
    pub label: Option<usize>,
    /// Whether this input was adversarially perturbed upstream.
    pub adversarial: bool,
}

impl PredictRequest {
    /// Writes this request as a `/predict` body: byte for byte what
    /// `serde_json::to_string` writes for it, with no value tree, each
    /// pixel through [`serde_json::write_f32`]. The one reservation allows
    /// twelve bytes per pixel, the text and comma of any pixel in [0.1, 1]
    /// or 0; only a body of longer pixels grows the vector.
    pub fn to_body(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + 12 * self.pixels.len());
        body.extend_from_slice(b"{\"pixels\":[");
        for (i, &pixel) in self.pixels.iter().enumerate() {
            if i > 0 {
                body.push(b',');
            }
            serde_json::write_f32(pixel, &mut body);
        }
        body.extend_from_slice(b"],\"label\":");
        match self.label {
            // Writing to a `Vec` cannot fail.
            Some(label) => {
                let _ = write!(body, "{label}");
            }
            None => body.extend_from_slice(b"null"),
        }
        body.extend_from_slice(if self.adversarial {
            b",\"adversarial\":true}"
        } else {
            b",\"adversarial\":false}"
        });
        body
    }

    /// Reads a `/predict` body: exactly what
    /// `serde_json::from_str::<PredictRequest>` reads from it as text.
    ///
    /// A body in the field order the derive writes,
    /// `{"pixels":[…],"label":…,"adversarial":…}` with any JSON whitespace,
    /// a `label` of `null` or plain digits and nothing after the `}`, is
    /// read straight into the pixel vector. Each pixel is what
    /// [`serde_json::read_number`] reads, converted as `f32::from_value`
    /// converts it, so `-0` is +0.0 and `1e400` is +inf (which
    /// [`crate::Engine::submit`] then refuses); a short decimal such as
    /// the client writes is read a word at a time to the same bits (see
    /// `short_decimal`). Any other body (other key orders, extra, repeated
    /// or escaped keys, other labels, bytes that are not UTF-8, malformed
    /// text) goes to the general parser, whose error is the answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] with the general parser's message when
    /// the body is not UTF-8 or not a `PredictRequest`.
    pub fn from_body(body: &[u8]) -> Result<PredictRequest, ServeError> {
        if let Some(request) = read_canonical(body) {
            return Ok(request);
        }
        std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            .map_err(ServeError::BadRequest)
    }
}

/// Reads a body in the derive's field order, or `None` for any other
/// body; see [`PredictRequest::from_body`].
fn read_canonical(body: &[u8]) -> Option<PredictRequest> {
    let mut text = Cursor { bytes: body, pos: 0 };
    text.field(b"{\"pixels\"")?;
    text.token(b"[")?;
    let mut pixels = Vec::with_capacity(simpadv_data::IMAGE_PIXELS);
    if !text.eat(b"]") {
        loop {
            pixels.push(text.pixel()?);
            match text.next()? {
                b',' => {}
                b']' => break,
                _ => return None,
            }
        }
    }
    text.field(b",\"label\"")?;
    let label = if text.eat(b"null") {
        None
    } else {
        match text.number()? {
            Value::U64(label) => Some(usize::try_from(label).ok()?),
            _ => return None,
        }
    };
    text.field(b",\"adversarial\"")?;
    let adversarial = if text.eat(b"true") {
        true
    } else {
        text.token(b"false")?;
        false
    };
    text.token(b"}")?;
    text.skip_ws();
    (text.pos == body.len()).then_some(PredictRequest { pixels, label, adversarial })
}

/// A position in a body that [`read_canonical`] reads.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// Skips JSON whitespace, as the shim's parser does.
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and takes the next byte.
    fn next(&mut self) -> Option<u8> {
        self.skip_ws();
        let byte = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    /// Skips whitespace, then `literal` if it comes next.
    fn eat(&mut self, literal: &[u8]) -> bool {
        self.skip_ws();
        let found = self.bytes[self.pos..].starts_with(literal);
        if found {
            self.pos += literal.len();
        }
        found
    }

    /// [`Cursor::eat`], as an `Option` for `?`.
    fn token(&mut self, literal: &[u8]) -> Option<()> {
        self.eat(literal).then_some(())
    }

    /// `start` (an opening `{` or a `,`, then a quoted key), whitespace
    /// allowed between the two, then the `:`.
    fn field(&mut self, start: &[u8]) -> Option<()> {
        self.token(&start[..1])?;
        self.token(&start[1..])?;
        self.token(b":")
    }

    /// Skips whitespace and reads a number.
    fn number(&mut self) -> Option<Value> {
        self.skip_ws();
        let (value, len) = serde_json::read_number(&self.bytes[self.pos..]);
        self.pos += len;
        value
    }

    /// Skips whitespace and reads a number as a pixel: what
    /// `f32::from_value` makes of [`Cursor::number`]'s value.
    fn pixel(&mut self) -> Option<f32> {
        self.skip_ws();
        if let Some((pixel, len)) = short_decimal(&self.bytes[self.pos..]) {
            self.pos += len;
            return Some(pixel);
        }
        f32::from_value(&self.number()?).ok()
    }
}

/// `10^i` for every `i` below 16.
const POW10: [u64; 16] = {
    let mut table = [1; 16];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// Reads a short decimal at the start of `bytes`: one integer digit, a
/// `.`, one to fifteen fraction digits, then a byte that cannot continue
/// a number (none of `0-9 . e E + -`). Returns the `f32` that
/// `f32::from_value` makes of [`serde_json::read_number`]'s value for
/// that text, and the text's length. `None` for any other text, for a
/// mantissa above 2^53, and when the digits' words do not fit: fewer than
/// eight bytes after the `.`, or fewer than sixteen when the first eight
/// are all digits.
///
/// The fraction is read a word of eight bytes at a time: one check finds
/// how many of them are digits, and one conversion gives their value.
/// With at most 2^53 as the mantissa and at most fifteen fraction digits,
/// the one division is Clinger's exact fast path, which `read_number`
/// takes for this text too: the same `f64`, then the same `as f32`.
fn short_decimal(bytes: &[u8]) -> Option<(f32, usize)> {
    let [int @ b'0'..=b'9', b'.', ref fraction @ ..] = *bytes else {
        return None;
    };
    let mut mantissa = u64::from(int - b'0');
    let mut len = 0;
    for word in fraction.chunks_exact(8).take(2) {
        let values = u64::from_le_bytes(word.try_into().ok()?) ^ 0x3030_3030_3030_3030;
        // A byte is a digit when its value is below 10: its high nibble
        // is clear, and stays clear when 6 is added. A carry out of a
        // byte that is no digit can only flag bytes after it.
        let flags = (values | values.wrapping_add(0x0606_0606_0606_0606)) & 0xf0f0_f0f0_f0f0_f0f0;
        let digits = (flags.trailing_zeros() / 8) as usize;
        if digits == 8 {
            mantissa = mantissa * POW10[8] + eight_digit_value(values);
            len += 8;
            continue;
        }
        len += digits;
        if len == 0 || matches!(fraction[len], b'.' | b'e' | b'E' | b'+' | b'-') {
            return None;
        }
        if digits > 0 {
            // The digits move to the top bytes; the bytes after them drop out.
            mantissa = mantissa * POW10[digits] + eight_digit_value(values << (64 - 8 * digits));
        }
        return (mantissa <= 1 << 53)
            .then(|| ((mantissa as f64 / POW10[len] as f64) as f32, 2 + len));
    }
    None
}

/// The value of eight digits, one per byte as values 0–9, the first in
/// the lowest byte: adjacent bytes combine into two-digit 16-bit lanes,
/// those into four-digit 32-bit lanes, and those into the value.
fn eight_digit_value(digits: u64) -> u64 {
    let pairs = (digits * 10 + (digits >> 8)) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs * 100 + (pairs >> 16)) & 0x0000_ffff_0000_ffff;
    (quads * 10_000 + (quads >> 32)) & 0xffff_ffff
}

/// One inference answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Argmax class under the serving generation.
    pub prediction: usize,
    /// Raw logits, bitwise as computed (floats round-trip exactly).
    pub logits: Vec<f32>,
    /// Checkpoint generation that produced this answer.
    pub generation: u64,
}

/// Body of a `503` backpressure rejection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectBody {
    /// Always `"queue_full"`.
    pub error: String,
    /// Queue capacity at the moment of rejection (retry sizing hint).
    pub queue_capacity: u64,
}

/// Body of any non-200, non-503 error answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable failure description.
    pub error: String,
}

/// Body of a `/healthz` probe answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBody {
    /// Always `"ok"` when the listener answers at all.
    pub status: String,
    /// Currently serving checkpoint generation.
    pub generation: u64,
    /// Training method of the serving model.
    pub method: String,
}

/// Request header carrying the client's trace context (the traceparent
/// encoding of [`simpadv_trace::TraceContext`]). The server opens each
/// request span with this as its remote parent, so a traced request
/// hangs under the client's span in the assembled campaign tree.
pub const TRACEPARENT_HEADER: &str = "X-Simpadv-Traceparent";

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are not interpreted).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Raw value of [`TRACEPARENT_HEADER`], when the client sent one.
    pub traceparent: Option<String>,
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

/// Reads one HTTP request off a buffered stream.
///
/// Returns `Ok(None)` on a clean end-of-stream before any bytes (the
/// peer closed a keep-alive connection).
///
/// # Errors
///
/// [`ServeError::BadRequest`] on malformed framing, [`ServeError::Io`]
/// on socket failures.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<HttpRequest>, ServeError> {
    let line = match read_line(reader)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(ServeError::BadRequest(format!("malformed request line: {line:?}")));
    }
    let headers = read_headers(reader)?;
    let body = read_body(reader, headers.content_length)?;
    Ok(Some(HttpRequest { method, path, body, traceparent: headers.traceparent }))
}

/// Reads one HTTP response off a buffered stream (client side).
///
/// # Errors
///
/// [`ServeError::BadRequest`] on malformed framing, [`ServeError::Io`]
/// on socket failures or premature end-of-stream.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<HttpResponse, ServeError> {
    let line = read_line(reader)?
        .ok_or_else(|| ServeError::Io("connection closed before status line".to_string()))?;
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::BadRequest(format!("malformed status line: {line:?}")))?;
    if !version.starts_with("HTTP/") {
        return Err(ServeError::BadRequest(format!("malformed status line: {line:?}")));
    }
    let headers = read_headers(reader)?;
    let body = read_body(reader, headers.content_length)?;
    Ok(HttpResponse { status, body })
}

/// Writes a complete HTTP response with a JSON content type.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with_type(writer, status, reason, "application/json", body)
}

/// Writes a complete HTTP response with an explicit content type. The
/// `/metrics` exposition uses this with `text/plain; version=0.0.4`;
/// every JSON route goes through [`write_response`].
///
/// Head and body go out in one `write_all`: formatting straight into
/// an unbuffered socket would send one write per formatted piece.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response_with_type<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(96 + body.len());
    write!(
        message,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    message.extend_from_slice(body);
    writer.write_all(&message)?;
    writer.flush()
}

/// Writes a complete HTTP request with a JSON body (client side).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_request_traced(writer, method, path, None, body)
}

/// [`write_request`] with an optional [`TRACEPARENT_HEADER`] carrying
/// the caller's trace context to the server. Like the response writer,
/// it sends head and body in one `write_all`.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request_traced<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    traceparent: Option<&str>,
    body: &[u8],
) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(160 + body.len());
    write!(message, "{method} {path} HTTP/1.1\r\nHost: simpadv\r\n")?;
    if let Some(value) = traceparent {
        write!(message, "{TRACEPARENT_HEADER}: {value}\r\n")?;
    }
    write!(message, "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n", body.len())?;
    message.extend_from_slice(body);
    writer.write_all(&message)?;
    writer.flush()
}

/// Reads one CRLF-terminated line of at most [`MAX_LINE_BYTES`]; `None`
/// on immediate end-of-stream.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, ServeError> {
    let mut bytes = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut bytes)
        .map_err(|e| ServeError::Io(format!("read: {e}")))?;
    if n == 0 {
        return Ok(None);
    }
    if n == MAX_LINE_BYTES && !bytes.ends_with(b"\n") {
        return Err(ServeError::BadRequest(format!(
            "line exceeds the {MAX_LINE_BYTES}-byte limit"
        )));
    }
    let mut line = String::from_utf8(bytes)
        .map_err(|e| ServeError::BadRequest(format!("non-UTF-8 line: {e}")))?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// The interpreted subset of a header block.
struct Headers {
    content_length: usize,
    traceparent: Option<String>,
}

/// Consumes at most [`MAX_HEADERS`] header lines up to the blank
/// separator, interpreting `Content-Length` (0 when absent) and
/// [`TRACEPARENT_HEADER`].
///
/// Framing is `Content-Length` only, so anything that could make this
/// reader and another HTTP parser disagree on where the body ends is a
/// bad request: a `Content-Length` that is not all ASCII digits (RFC 9112
/// allows no sign), two `Content-Length` values that differ (identical
/// repeats are fine), and any `Transfer-Encoding`. Reading a chunked body
/// as empty would leave its chunks to be parsed as the next request on a
/// keep-alive connection.
fn read_headers<R: BufRead>(reader: &mut R) -> Result<Headers, ServeError> {
    let mut headers = Headers { content_length: 0, traceparent: None };
    let mut seen_length = false;
    for count in 0.. {
        let line = match read_line(reader)? {
            None => return Err(ServeError::BadRequest("truncated headers".to_string())),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(ServeError::BadRequest(format!("more than {MAX_HEADERS} header lines")));
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                // All digits, no sign; `parse` alone would accept `+3`.
                let len = Some(value.trim())
                    .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| {
                        ServeError::BadRequest(format!("bad content-length: {value:?}"))
                    })?;
                if seen_length && len != headers.content_length {
                    return Err(ServeError::BadRequest(format!(
                        "conflicting content-length values {} and {len}",
                        headers.content_length
                    )));
                }
                headers.content_length = len;
                seen_length = true;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(ServeError::BadRequest(format!(
                    "transfer-encoding {:?} is not supported; send a content-length",
                    value.trim()
                )));
            } else if name.eq_ignore_ascii_case(TRACEPARENT_HEADER) {
                headers.traceparent = Some(value.trim().to_string());
            }
        }
    }
    Ok(headers)
}

/// Reads exactly `len` body bytes, bounded by [`MAX_BODY_BYTES`].
fn read_body<R: Read>(reader: &mut R, len: usize) -> Result<Vec<u8>, ServeError> {
    if len > MAX_BODY_BYTES {
        return Err(ServeError::BadRequest(format!(
            "body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| ServeError::Io(format!("read body: {e}")))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_through_framing() {
        let body = serde_json::to_string(&PredictRequest {
            pixels: vec![0.25, 0.5],
            label: Some(3),
            adversarial: true,
        })
        .unwrap();
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/predict", body.as_bytes()).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let parsed = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/predict");
        let req: PredictRequest =
            serde_json::from_str(std::str::from_utf8(&parsed.body).unwrap()).unwrap();
        assert_eq!(req.label, Some(3));
        assert!(req.adversarial);
        // A second read on the drained keep-alive stream is a clean EOF.
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    /// What the general parser makes of `body`: the request, or the 400
    /// detail the server sends.
    fn general(body: &[u8]) -> Result<PredictRequest, String> {
        std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    }

    /// Checks that [`PredictRequest::from_body`] reads `body` exactly as
    /// the general parser does, pixels bit for bit, and returns whether
    /// the typed read took it.
    fn assert_reads_as_the_general_parser(body: &[u8]) -> bool {
        let context = String::from_utf8_lossy(&body[..body.len().min(160)]).into_owned();
        let got = PredictRequest::from_body(body).map_err(|e| match e {
            ServeError::BadRequest(detail) => detail,
            other => panic!("{context}: not a bad request: {other}"),
        });
        match (got, general(body)) {
            (Ok(got), Ok(want)) => {
                let bits = |r: &PredictRequest| -> Vec<u32> {
                    r.pixels.iter().map(|p| p.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{context}");
                assert_eq!(
                    (got.label, got.adversarial),
                    (want.label, want.adversarial),
                    "{context}"
                );
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{context}"),
            (got, want) => panic!("{context}: read {got:?}, the general parser {want:?}"),
        }
        read_canonical(body).is_some()
    }

    /// 300 synth-mnist requests; every tenth is perturbed by a seeded
    /// ±0.1 step, clipped to [0, 1].
    fn synth_requests() -> Vec<PredictRequest> {
        let data =
            simpadv_data::SynthDataset::Mnist.generate(&simpadv_data::SynthConfig::new(300, 2311));
        let mut state = 0x5eed_2311_u64;
        (0..300)
            .map(|i| {
                let mut pixels = data.images().row(i).into_vec();
                let adversarial = i % 10 == 9;
                if adversarial {
                    for p in &mut pixels {
                        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        let step = if state >> 63 == 0 { 0.1 } else { -0.1 };
                        *p = (*p + step).clamp(0.0, 1.0);
                    }
                }
                PredictRequest { pixels, label: Some(data.labels()[i]), adversarial }
            })
            .collect()
    }

    /// [`synth_requests`] as the client writes them.
    fn synth_bodies() -> Vec<String> {
        synth_requests().iter().map(|r| String::from_utf8(r.to_body()).unwrap()).collect()
    }

    #[test]
    fn to_body_writes_what_the_derive_writes() {
        let mut requests = synth_requests();
        requests.push(PredictRequest { pixels: Vec::new(), label: None, adversarial: false });
        requests.push(PredictRequest {
            pixels: vec![-0.0, 1e-24, f32::MAX, 1e-3, 0.099_999_994, 1.0, -2.5, f32::NAN],
            label: None,
            adversarial: false,
        });
        for mut request in requests {
            for label in [None, Some(0), Some(usize::MAX)] {
                for adversarial in [false, true] {
                    (request.label, request.adversarial) = (label, adversarial);
                    let want = serde_json::to_string(&request).unwrap();
                    assert_eq!(String::from_utf8(request.to_body()).unwrap(), want);
                }
            }
        }
    }

    #[test]
    fn client_bodies_take_the_typed_read_and_read_as_the_general_parser() {
        for body in synth_bodies() {
            assert!(assert_reads_as_the_general_parser(body.as_bytes()), "{}", &body[..80]);
        }
        // Whitespace anywhere between tokens, as a pretty printer writes.
        let pretty = serde_json::to_string_pretty(&PredictRequest {
            pixels: vec![0.5, 0.25],
            label: Some(3),
            adversarial: true,
        })
        .unwrap();
        for body in [
            &pretty,
            r#"{"pixels":[],"label":null,"adversarial":true}"#,
            " \t\r\n{ \"pixels\" :[ 0.5 , 1 ] ,\n\"label\": 007 , \"adversarial\" : false }\n ",
            r#"{"pixels":[0.25],"label":18446744073709551615,"adversarial":false}"#,
        ] {
            assert!(assert_reads_as_the_general_parser(body.as_bytes()), "{body}");
        }
    }

    #[test]
    fn edge_pixels_read_as_the_general_parser() {
        let written = [f32::from_bits(1), f32::MIN_POSITIVE, 1e-24, 2f32.powi(-76), -0.0]
            .map(|x| serde_json::to_string(&x).unwrap());
        let texts = [
            "-0.0",
            "-0",
            "0",
            "1e-30",
            "1.0e-45",
            "16777217",
            "18446744073709551616",
            "-9223372036854775809",
            "1e400",
            "-1e400",
            "0.5E-3",
            "1E+2",
            "0.30000000000000004441",
            "123456789012345678901234567890",
            "1.",
            "-.5",
        ];
        let all: Vec<&str> =
            written.iter().map(String::as_str).chain(texts).chain(SWAR_EDGES).collect();
        for text in &all {
            let body = format!(r#"{{"pixels":[{text}],"label":3,"adversarial":false}}"#);
            assert!(assert_reads_as_the_general_parser(body.as_bytes()), "{body}");
        }
        let body = format!(r#"{{"pixels":[{}],"label":null,"adversarial":true}}"#, all.join(","));
        assert!(assert_reads_as_the_general_parser(body.as_bytes()), "{body}");
        let request = PredictRequest::from_body(body.as_bytes()).unwrap();
        assert_eq!(request.pixels[5 + 1].to_bits(), 0, "-0 reads as +0.0");
        assert_eq!(request.pixels[5 + 5], 16_777_216.0, "16777217 reads as u64 as f32");
        assert_eq!(request.pixels[5 + 8], f32::INFINITY, "1e400 reads as +inf");
    }

    /// Pixel texts at the edges of [`short_decimal`]: one, eight, nine,
    /// ten, fifteen and sixteen fraction digits, a mantissa above 2^53,
    /// and texts it must leave to [`serde_json::read_number`].
    const SWAR_EDGES: [&str; 20] = [
        "0.5",
        "0.12345678",
        "0.123456789",
        "0.1234567891",
        "9.99999999",
        "9.999999999",
        "0.000000001",
        "1.0000000000",
        "0.123456789012345",
        "9.007199254740992",
        "9.999999999999999",
        "0.1234567890123456",
        "0.",
        "0.5e3",
        "0.5E-1",
        "00.5",
        "-0.0",
        "1.00",
        "1.0",
        "0.99999999",
    ];

    #[test]
    fn short_decimals_read_as_read_number_does() {
        for text in SWAR_EDGES {
            for end in ["", ",", "]", " ", "}", "x", "0", ".", "e1", "+", "-", "é", ",1.5e3"] {
                let padded = format!("{text}{end}                ");
                for bytes in [format!("{text}{end}"), padded] {
                    let bytes = bytes.as_bytes();
                    let Some((pixel, len)) = short_decimal(bytes) else { continue };
                    let (value, want_len) = serde_json::read_number(bytes);
                    let want = f32::from_value(&value.unwrap()).unwrap();
                    assert_eq!((pixel.to_bits(), len), (want.to_bits(), want_len), "{text}{end}");
                }
            }
        }
        // The fast path takes the short decimals with room for its words,
        // and nothing else.
        let taken = |text: &str| short_decimal(format!("{text},        ").as_bytes()).is_some();
        let fast: Vec<&str> = SWAR_EDGES.into_iter().filter(|t| taken(t)).collect();
        assert_eq!(
            fast,
            [
                "0.5",
                "0.12345678",
                "0.123456789",
                "0.1234567891",
                "9.99999999",
                "9.999999999",
                "0.000000001",
                "1.0000000000",
                "0.123456789012345",
                "9.007199254740992",
                "1.00",
                "1.0",
                "0.99999999",
            ]
        );
        assert!(short_decimal(b"0.5,     ").is_none(), "seven bytes after the point");
        assert!(short_decimal(b"0.5,      ").is_some(), "eight bytes after the point");
        assert!(short_decimal(b"0.12345678,      ").is_none(), "eight digits, then seven bytes");
        assert!(short_decimal(b"0.12345678,       ").is_some(), "eight digits, then eight bytes");
        // Every 9973rd bit pattern in [0, 1], written by the shim: its text
        // reads back, and takes the fast path unless it has more than
        // fifteen fraction digits.
        let mut buf = Vec::new();
        for bits in (0..=1.0f32.to_bits()).step_by(9973) {
            buf.clear();
            serde_json::write_f32(f32::from_bits(bits), &mut buf);
            let text = String::from_utf8(buf.clone()).unwrap();
            buf.extend_from_slice(b",0.5,0.5,0.5,0.5");
            let (value, want_len) = serde_json::read_number(&buf);
            let want = f32::from_value(&value.unwrap()).unwrap();
            assert_eq!(want.to_bits(), bits, "{text}");
            match short_decimal(&buf) {
                Some((pixel, len)) => {
                    assert_eq!((pixel.to_bits(), len), (bits, want_len), "{text}")
                }
                None => assert!(text.len() > 2 + 15, "{text} is short and should be taken"),
            }
        }
    }

    #[test]
    fn other_bodies_go_to_the_general_parser() {
        let pixels = "[0.5,0.25,1.0]";
        for body in [
            format!(r#"{{"label":3,"pixels":{pixels},"adversarial":false}}"#),
            format!(r#"{{"adversarial":false,"label":3,"pixels":{pixels}}}"#),
            format!(r#"{{"pixels":{pixels},"label":3,"adversarial":false,"note":"x"}}"#),
            format!(r#"{{"note":1,"pixels":{pixels},"label":3,"adversarial":false}}"#),
            format!(r#"{{"pixels":{pixels},"label":3,"adversarial":false,"pixels":[2]}}"#),
            format!(r#"{{"pixels":{pixels},"label":3,"label":4,"adversarial":false}}"#),
            format!(r#"{{"pi\u0078els":{pixels},"label":3,"adversarial":false}}"#),
            format!(r#"{{"pixels":{pixels},"label":3.0,"adversarial":false}}"#),
            format!(r#"{{"pixels":{pixels},"label":-1,"adversarial":false}}"#),
            format!(r#"{{"pixels":{pixels},"label":"3","adversarial":false}}"#),
            format!(r#"{{"pixels":{pixels},"label":3,"adversarial":0}}"#),
            format!(r#"{{"pixels":{pixels},"label":3,"adversarial":false}}x"#),
            format!(r#"{{"pixels":{pixels},"label":3,"adversarial":false}}}}"#),
            format!(r#"{{"pixels":{pixels},"label":3}}"#),
            r#"{"pixels":[0.5,],"label":3,"adversarial":false}"#.to_string(),
            r#"{"pixels":[0.5,null],"label":3,"adversarial":false}"#.to_string(),
            r#"{"pixels":[[0.5]],"label":3,"adversarial":false}"#.to_string(),
            r#"{"pixels":[1.2.3],"label":3,"adversarial":false}"#.to_string(),
            r#"{"pixels":[0.5],"label":nul,"adversarial":false}"#.to_string(),
            r#"{"pixels":[0.5],"label":null,"adversarial":truee}"#.to_string(),
            // Bodies that end less than a word after a pixel's point.
            r#"{"pixels":[0.5"#.to_string(),
            r#"{"pixels":[0.5]"#.to_string(),
            r#"{"pixels":[0.1234567"#.to_string(),
            r#"{"pixels":[0.12345678"#.to_string(),
            r#"{"pixels":[0.123456789"#.to_string(),
            r#"{"pixels":[0.5,0."#.to_string(),
            r#"{"pixels":[1.0,0.25]}"#.to_string(),
            "[".repeat(200),
            String::new(),
        ] {
            assert!(!assert_reads_as_the_general_parser(body.as_bytes()), "{body}");
        }
        assert!(!assert_reads_as_the_general_parser(b"{\"pixels\":[0.5],\"label\":\xff}"));
    }

    /// A seeded generator of `u64`s.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % bound.max(1) as u64) as usize
        }
    }

    /// `body` with one mutation: a byte flipped, the text truncated, a
    /// piece of `donor` spliced in, or a piece repeated.
    fn mutate(body: &[u8], donor: &[u8], rng: &mut Lcg) -> Vec<u8> {
        const BYTES: &[u8] = b"{}[],:\"\\ \n-+.eE0159ntfrulsa\xff\x00";
        let mut out = body.to_vec();
        let at = rng.below(out.len() + 1);
        match rng.below(4) {
            0 if !out.is_empty() => {
                let at = at.min(out.len() - 1);
                out[at] = if rng.below(4) == 0 {
                    rng.below(256) as u8
                } else {
                    BYTES[rng.below(BYTES.len())]
                };
            }
            1 => out.truncate(at),
            2 => {
                let start = rng.below(donor.len());
                let end = (start + 1 + rng.below(40)).min(donor.len());
                out.splice(at..at, donor[start..end].iter().copied());
            }
            _ => {
                let start = rng.below(out.len());
                let end = (start + 1 + rng.below(40)).min(out.len());
                let piece = out[start..end].to_vec();
                out.splice(end..end, piece);
            }
        }
        out
    }

    #[test]
    fn mutated_bodies_read_as_the_general_parser() {
        let mut rng = Lcg(2311);
        let full = synth_bodies();
        let mut short: Vec<String> = (0..20u8)
            .map(|i| {
                let pixels = (0..4).map(|j| f32::from(i * 4 + j) / 97.0).collect();
                let label = (i % 3 != 0).then_some(usize::from(i % 10));
                serde_json::to_string(&PredictRequest { pixels, label, adversarial: i % 2 == 0 })
                    .unwrap()
            })
            .collect();
        short.extend(SWAR_EDGES.chunks(4).map(|texts| {
            format!(r#"{{"pixels":[{}],"label":5,"adversarial":false}}"#, texts.join(","))
        }));
        let mut typed = 0;
        for round in 0..4000 {
            let pool = if round % 4 == 0 { &full } else { &short };
            let body = pool[rng.below(pool.len())].as_bytes();
            let donor = pool[rng.below(pool.len())].as_bytes();
            let mut mutated = mutate(body, donor, &mut rng);
            if rng.below(3) == 0 {
                mutated = mutate(&mutated, donor, &mut rng);
            }
            typed += usize::from(assert_reads_as_the_general_parser(&mutated));
        }
        // Both reads get hundreds of mutants (566 take the typed one).
        assert!((400..3600).contains(&typed), "{typed} of 4000 took the typed read");
    }

    #[test]
    fn response_round_trips_with_bitwise_floats() {
        let resp = PredictResponse {
            prediction: 7,
            logits: vec![0.1f32, -3.75e-5, 1234.5678],
            generation: 2,
        };
        let body = serde_json::to_string(&resp).unwrap();
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "OK", body.as_bytes()).unwrap();
        let parsed = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(parsed.status, 200);
        let back: PredictResponse =
            serde_json::from_str(std::str::from_utf8(&parsed.body).unwrap()).unwrap();
        assert_eq!(back, resp);
        for (a, b) in back.logits.iter().zip(resp.logits.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "logits must round-trip bitwise");
        }
    }

    #[test]
    fn traceparent_header_round_trips_and_defaults_to_none() {
        let mut wire = Vec::new();
        write_request_traced(&mut wire, "POST", "/predict", Some("00-ab-cd-01"), b"{}").unwrap();
        let parsed = read_request(&mut BufReader::new(wire.as_slice())).unwrap().unwrap();
        assert_eq!(parsed.traceparent.as_deref(), Some("00-ab-cd-01"));
        assert_eq!(parsed.body, b"{}");

        // Header name matching is case-insensitive.
        let wire = b"POST /p HTTP/1.1\r\nx-simpadv-traceparent: tp\r\nContent-Length: 0\r\n\r\n";
        let parsed = read_request(&mut BufReader::new(&wire[..])).unwrap().unwrap();
        assert_eq!(parsed.traceparent.as_deref(), Some("tp"));

        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/healthz", b"").unwrap();
        let parsed = read_request(&mut BufReader::new(wire.as_slice())).unwrap().unwrap();
        assert_eq!(parsed.traceparent, None);
    }

    /// A `Write` that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_one_write_of_unchanged_bytes() {
        let mut writes = Writes::default();
        write_request_traced(&mut writes, "POST", "/predict", Some("00-ab-cd-01"), b"{}").unwrap();
        write_request(&mut writes, "GET", "/healthz", b"").unwrap();
        write_response(&mut writes, 503, "Service Unavailable", b"{\"error\":\"x\"}").unwrap();
        write_response_with_type(&mut writes, 200, "OK", "text/plain; version=0.0.4", b"a 1\n")
            .unwrap();
        let want: [&[u8]; 4] = [
            b"POST /predict HTTP/1.1\r\nHost: simpadv\r\nX-Simpadv-Traceparent: 00-ab-cd-01\r\n\
              Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
            b"GET /healthz HTTP/1.1\r\nHost: simpadv\r\n\
              Content-Type: application/json\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
              Content-Length: 13\r\n\r\n{\"error\":\"x\"}",
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
              Content-Length: 4\r\n\r\na 1\n",
        ];
        assert_eq!(writes.0, want.map(<[u8]>::to_vec));
    }

    #[test]
    fn malformed_request_line_is_a_bad_request() {
        for wire in [&b"NOPE\r\n\r\n"[..], b"GET /\xff HTTP/1.1\r\n\r\n"] {
            let err = read_request(&mut BufReader::new(wire)).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        }
    }

    #[test]
    fn oversized_body_is_rejected_before_buffering() {
        let wire =
            format!("POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let mut reader = BufReader::new(wire.as_bytes());
        let err = read_request(&mut reader).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    /// The error `read_request` returns for a request head with `headers`.
    fn bad_head(headers: &str) -> String {
        let wire = format!("POST /predict HTTP/1.1\r\n{headers}\r\n");
        match read_request(&mut wire.as_bytes()) {
            Err(ServeError::BadRequest(detail)) => detail,
            other => panic!("{headers:?} should be a bad request, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_content_lengths_are_a_bad_request() {
        let detail = bad_head("Content-Length: 2\r\nContent-Length: 5\r\n");
        assert!(detail.contains("conflicting"), "{detail}");
        assert!(bad_head("Content-Length: 5\r\ncontent-length: 2\r\n").contains("conflicting"));
        // Identical repeats frame the body the same way either way.
        let wire = "POST /predict HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi";
        assert_eq!(read_request(&mut wire.as_bytes()).unwrap().unwrap().body, b"hi");
    }

    #[test]
    fn content_length_must_be_all_digits() {
        for value in ["+3", "-3", "3 3", "0x3", "", "3,3"] {
            let detail = bad_head(&format!("Content-Length: {value}\r\n"));
            assert!(detail.contains("bad content-length"), "{value:?}: {detail}");
        }
        let wire = "POST /predict HTTP/1.1\r\nContent-Length:  3 \r\n\r\nabc";
        assert_eq!(read_request(&mut wire.as_bytes()).unwrap().unwrap().body, b"abc");
    }

    #[test]
    fn transfer_encoding_is_a_bad_request() {
        // Read as an empty body, this chunked request's `4` chunk-size
        // line would be parsed as the next request on the connection.
        let wire =
            "POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n";
        let err = read_request(&mut wire.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, ServeError::BadRequest(d) if d.contains("transfer-encoding")),
            "{err}"
        );
        for head in [
            "transfer-encoding: identity\r\n",
            "Content-Length: 4\r\nTransfer-Encoding: chunked\r\n",
        ] {
            assert!(bad_head(head).contains("transfer-encoding"), "{head:?}");
        }
    }

    /// A bodiless request whose request line and `headers` header lines
    /// are each `line_bytes` long, CRLF included.
    fn request_wire(line_bytes: usize, headers: usize) -> String {
        let request_line = format!("GET /{} HTTP/1.1\r\n", "a".repeat(line_bytes - 16));
        let header = format!("X-Pad: {}\r\n", "b".repeat(line_bytes - 9));
        assert_eq!((request_line.len(), header.len()), (line_bytes, line_bytes));
        format!("{request_line}{}\r\n", header.repeat(headers))
    }

    #[test]
    fn request_line_over_the_cap_is_a_bad_request() {
        assert!(read_request(&mut request_wire(MAX_LINE_BYTES, 0).as_bytes()).is_ok());
        let wire = request_wire(MAX_LINE_BYTES + 1, 0);
        let err = read_request(&mut wire.as_bytes()).unwrap_err();
        assert!(matches!(&err, ServeError::BadRequest(d) if d.contains("exceeds")), "{err}");
    }

    #[test]
    fn header_line_over_the_cap_is_a_bad_request() {
        // The request line fits; its one header line does not.
        let line = format!("X-Pad: {}\r\n", "b".repeat(MAX_LINE_BYTES));
        let wire = format!("GET / HTTP/1.1\r\n{line}\r\n");
        let err = read_request(&mut wire.as_bytes()).unwrap_err();
        assert!(matches!(&err, ServeError::BadRequest(d) if d.contains("exceeds")), "{err}");
        // A short line cut off by end-of-stream is truncation, not length.
        let unterminated = "GET / HTTP/1.1\r\nX-Pad: bbb";
        let err = read_request(&mut unterminated.as_bytes()).unwrap_err();
        assert!(matches!(&err, ServeError::BadRequest(d) if d.contains("truncated")), "{err}");
    }

    #[test]
    fn too_many_headers_are_a_bad_request() {
        assert!(read_request(&mut request_wire(64, MAX_HEADERS).as_bytes()).is_ok());
        let wire = request_wire(64, MAX_HEADERS + 1);
        let err = read_request(&mut wire.as_bytes()).unwrap_err();
        assert!(matches!(&err, ServeError::BadRequest(d) if d.contains("header lines")), "{err}");
    }
}
