//! Wire types and a minimal HTTP/1.1 framing layer.
//!
//! The server speaks just enough HTTP for curl and the load generator:
//! a request line, headers (only `Content-Length` is interpreted), and
//! an optional body. Request and response payloads are the same JSON
//! value-tree the rest of the workspace uses, so pixels and logits
//! round-trip bitwise: the JSON writer gives each `f32` its correctly
//! rounded nine-significant-digit decimal, which reads back as the same
//! `f32` through an `f64` parse. The JSON reader refuses nesting deeper
//! than 128 levels, so a body of brackets is a bad request, not a stack
//! overflow.

use crate::error::ServeError;
use serde::{Deserialize, Serialize};
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
