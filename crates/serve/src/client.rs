//! A blocking HTTP client for the serve endpoints.
//!
//! This is the ONLY sanctioned way for other crates (the load
//! generator, integration tests, the CLI) to talk to the server: the
//! `clippy.toml` socket ban confines `std::net` to `crates/serve`, so
//! everything else takes a `&str` address and calls through here.
//!
//! Each thread keeps one connection open, to the last address it called,
//! with `TCP_NODELAY` set; a call to another address replaces it. A
//! fresh connection per call cost a connect, an accept and a server
//! thread spawn per request. Measured on a shared 2-vCPU host, a
//! 784-pixel `/predict` spent 0.85–1.0 ms outside the server that way
//! (perfbench `serve.http_ms`), against a batched forward of under
//! 0.07 ms; with reuse and one write per message it spends 0.33–0.45 ms.
//!
//! The one failure reuse adds is a connection the server closed while
//! it sat idle. So a request on a reused connection that fails before
//! the first byte of an answer (the write fails, or the read meets
//! end-of-stream or an error) is sent once more, on a new connection.
//! Nothing else is resent: a 503 comes back as
//! [`PredictOutcome::Rejected`], and the caller decides what to do with
//! it (the load generator and perfbench count them).

use crate::batcher::SwapReport;
use crate::error::ServeError;
use crate::protocol::{
    read_response, write_request_traced, HealthBody, HttpResponse, PredictRequest, PredictResponse,
    RejectBody,
};
use crate::stats::StatsSnapshot;
use simpadv_trace::clock::WallTimer;
use std::cell::RefCell;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

/// Outcome of a predict call that reached the server.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictOutcome {
    /// The request was answered.
    Predicted(PredictResponse),
    /// The request was shed by backpressure (HTTP 503).
    Rejected(RejectBody),
}

/// Submits one inference request.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures, [`ServeError::BadRequest`]
/// when the server answered 400, [`ServeError::ShuttingDown`] when a
/// stopping server answered 503 without a reject body,
/// [`ServeError::Persist`] never (kept in the shared error type for
/// uniformity).
pub fn predict(addr: &str, request: &PredictRequest) -> Result<PredictOutcome, ServeError> {
    let body = request.to_body();
    // When the caller is inside a traced span, the request carries its
    // context so the server-side request span hangs under it in the
    // assembled campaign tree. Uncorrelated callers add no header.
    let traceparent = simpadv_trace::current_context().map(|ctx| ctx.encode());
    let response = roundtrip(addr, "POST", "/predict", traceparent.as_deref(), &body)?;
    match response.status {
        200 => Ok(PredictOutcome::Predicted(parse_body(&response)?)),
        503 => match parse_body(&response) {
            Ok(reject) => Ok(PredictOutcome::Rejected(reject)),
            // Backpressure always carries a reject body; any other 503
            // comes from a server that is shutting down and will answer
            // nothing more on this connection.
            Err(_) => {
                drop_connection();
                Err(ServeError::ShuttingDown)
            }
        },
        status => Err(status_error(status, &response)),
    }
}

/// Probes `/healthz`.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers.
pub fn healthz(addr: &str) -> Result<HealthBody, ServeError> {
    let response = roundtrip(addr, "GET", "/healthz", None, b"")?;
    match response.status {
        200 => parse_body(&response),
        status => Err(status_error(status, &response)),
    }
}

/// Fetches the `/stats` snapshot.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers.
pub fn stats(addr: &str) -> Result<StatsSnapshot, ServeError> {
    let response = roundtrip(addr, "GET", "/stats", None, b"")?;
    match response.status {
        200 => parse_body(&response),
        status => Err(status_error(status, &response)),
    }
}

/// Fetches the `/metrics` Prometheus text exposition.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers,
/// [`ServeError::BadRequest`] on a non-UTF-8 body.
pub fn metrics(addr: &str) -> Result<String, ServeError> {
    let response = roundtrip(addr, "GET", "/metrics", None, b"")?;
    match response.status {
        200 => String::from_utf8(response.body)
            .map_err(|e| ServeError::BadRequest(format!("non-UTF-8 metrics body: {e}"))),
        status => Err(status_error(status, &response)),
    }
}

/// Triggers a checkpoint rescan via `/rescan`.
///
/// # Errors
///
/// [`ServeError::Io`] on connection failures or non-200 answers.
pub fn rescan(addr: &str) -> Result<SwapReport, ServeError> {
    let response = roundtrip(addr, "POST", "/rescan", None, b"")?;
    match response.status {
        200 => parse_body(&response),
        status => Err(status_error(status, &response)),
    }
}

/// Retries `/healthz` until the server answers or `timeout_us` of wall
/// time elapses. Useful right after spawning a server whose bound
/// address was just learned.
///
/// # Errors
///
/// [`ServeError::Io`] when the deadline passes without a healthy
/// answer.
pub fn wait_ready(addr: &str, timeout_us: u64) -> Result<HealthBody, ServeError> {
    let timer = WallTimer::start();
    let mut last;
    loop {
        match healthz(addr) {
            Ok(body) => return Ok(body),
            Err(e) => last = e.to_string(),
        }
        if timer.elapsed_us() > timeout_us {
            return Err(ServeError::Io(format!("server at {addr} not ready: {last}")));
        }
    }
}

/// An open connection and the address it was opened to.
struct Connection {
    addr: String,
    reader: BufReader<TcpStream>,
}

thread_local! {
    /// This thread's kept-alive connection, if its last call succeeded.
    static CONNECTION: RefCell<Option<Connection>> = const { RefCell::new(None) };
}

/// Closes this thread's kept-alive connection, if it has one.
fn drop_connection() {
    let _ = CONNECTION.try_with(|slot| slot.borrow_mut().take());
}

/// How an exchange failed.
enum Failure {
    /// Before any byte of an answer arrived: safe to resend on a new
    /// connection when this one was reused.
    Unanswered(ServeError),
    /// After the answer began.
    Answered(ServeError),
}

/// One request/response exchange on this thread's connection to `addr`,
/// opening one if the thread has none (or has one to another address).
/// A reused connection that fails before answering gets the request
/// once more, on a new connection; see the module docs.
fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    traceparent: Option<&str>,
    body: &[u8],
) -> Result<HttpResponse, ServeError> {
    let cached = CONNECTION.try_with(|slot| slot.borrow_mut().take()).ok().flatten();
    if let Some(mut conn) = cached.filter(|conn| conn.addr == addr) {
        match exchange(&mut conn.reader, method, path, traceparent, body) {
            Ok(response) => return Ok(keep(conn, response)),
            Err(Failure::Answered(e)) => return Err(e),
            Err(Failure::Unanswered(_)) => {}
        }
    }
    let stream =
        TcpStream::connect(addr).map_err(|e| ServeError::Io(format!("connect {addr}: {e}")))?;
    stream.set_nodelay(true).map_err(|e| ServeError::Io(format!("set_nodelay: {e}")))?;
    let mut conn = Connection { addr: addr.to_string(), reader: BufReader::new(stream) };
    match exchange(&mut conn.reader, method, path, traceparent, body) {
        Ok(response) => Ok(keep(conn, response)),
        Err(Failure::Answered(e) | Failure::Unanswered(e)) => Err(e),
    }
}

/// Writes one request on `reader`'s stream and reads the answer.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    traceparent: Option<&str>,
    body: &[u8],
) -> Result<HttpResponse, Failure> {
    write_request_traced(reader.get_mut(), method, path, traceparent, body)
        .map_err(|e| Failure::Unanswered(ServeError::Io(format!("write: {e}"))))?;
    match reader.fill_buf() {
        Ok([]) => {
            let closed = "connection closed before status line".to_string();
            return Err(Failure::Unanswered(ServeError::Io(closed)));
        }
        Ok(_) => {}
        Err(e) => return Err(Failure::Unanswered(ServeError::Io(format!("read: {e}")))),
    }
    read_response(reader).map_err(Failure::Answered)
}

/// Keeps `conn` as this thread's connection and passes `response` on.
fn keep(conn: Connection, response: HttpResponse) -> HttpResponse {
    let _ = CONNECTION.try_with(|slot| *slot.borrow_mut() = Some(conn));
    response
}

/// Deserializes a JSON body into the expected type.
fn parse_body<T: serde::Deserialize>(response: &HttpResponse) -> Result<T, ServeError> {
    let text = std::str::from_utf8(&response.body)
        .map_err(|e| ServeError::BadRequest(format!("non-UTF-8 body: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| ServeError::BadRequest(format!("unexpected body {text:?}: {e}")))
}

/// Maps an unexpected status to an error carrying the server's detail.
fn status_error(status: u16, response: &HttpResponse) -> ServeError {
    let detail = String::from_utf8_lossy(&response.body).to_string();
    match status {
        400 => ServeError::BadRequest(detail),
        _ => ServeError::Io(format!("unexpected status {status}: {detail}")),
    }
}
