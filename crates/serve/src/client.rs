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
//! Nothing else is resent.

use crate::batcher::SwapReport;
use crate::error::ServeError;
use crate::protocol::{
    read_response, write_request_traced, HealthBody, HttpResponse, PredictRequest, PredictResponse,
    RejectBody,
};
use crate::stats::StatsSnapshot;
use simpadv_resilience::BackoffPolicy;
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

/// How [`predict_with_retry`] paces itself between 503 rejections.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries) before giving up.
    pub max_attempts: u32,
    /// Capped exponential backoff with deterministic seeded jitter
    /// (the workspace-shared [`BackoffPolicy`]).
    pub backoff: BackoffPolicy,
    /// Jitter seed; give each client its own so a rejected cohort does
    /// not retry in lockstep, while any one client's schedule stays
    /// reproducible.
    pub seed: u64,
    /// Estimated per-request service time. Multiplied by the reject
    /// body's `queue_capacity` hint it approximates a full-queue drain
    /// time, which floors the wait (see [`retry_delay_us`]).
    pub slot_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, backoff: BackoffPolicy::default(), seed: 0, slot_us: 500 }
    }
}

/// The wait before 0-based retry `retry`: the seeded backoff delay,
/// floored by the server's sizing hint — a 503's `queue_capacity` times
/// [`RetryPolicy::slot_us`] approximates how long the server needs to
/// drain a full queue, so retrying sooner than that mostly buys another
/// rejection. The hint is clamped to the backoff cap so the schedule
/// stays bounded whatever the server claims.
pub fn retry_delay_us(policy: &RetryPolicy, reject: &RejectBody, retry: u32) -> u64 {
    let backoff = policy.backoff.delay_us(policy.seed, retry);
    let hint = reject.queue_capacity.saturating_mul(policy.slot_us).min(policy.backoff.cap_us);
    backoff.max(hint)
}

/// Submits one inference request, retrying bounded-many times with
/// backoff when the server sheds it with a 503.
///
/// Only backpressure rejections are retried: connection and protocol
/// failures surface immediately, because they are not the transient
/// signal the reject body explicitly encodes.
///
/// # Errors
///
/// [`ServeError::Rejected`] when every attempt was shed (carrying the
/// last hinted queue capacity); any non-503 failure is propagated
/// unchanged from [`predict`].
#[expect(
    clippy::disallowed_methods,
    reason = "client-side retry backoff sleeps on the current thread; no parallelism involved"
)]
pub fn predict_with_retry(
    addr: &str,
    request: &PredictRequest,
    policy: &RetryPolicy,
) -> Result<PredictResponse, ServeError> {
    let mut attempt = 0u32;
    loop {
        match predict(addr, request)? {
            PredictOutcome::Predicted(response) => return Ok(response),
            PredictOutcome::Rejected(reject) => {
                attempt += 1;
                if attempt >= policy.max_attempts.max(1) {
                    return Err(ServeError::Rejected { capacity: reject.queue_capacity as usize });
                }
                let delay_us = retry_delay_us(policy, &reject, attempt - 1);
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
            }
        }
    }
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
    let body = serde_json::to_string(request)
        .map_err(|e| ServeError::BadRequest(format!("encode request: {e}")))?;
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
    let response = roundtrip(addr, "GET", "/healthz", None, "")?;
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
    let response = roundtrip(addr, "GET", "/stats", None, "")?;
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
    let response = roundtrip(addr, "GET", "/metrics", None, "")?;
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
    let response = roundtrip(addr, "POST", "/rescan", None, "")?;
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
    body: &str,
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
    body: &str,
) -> Result<HttpResponse, Failure> {
    write_request_traced(reader.get_mut(), method, path, traceparent, body.as_bytes())
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

#[cfg(test)]
mod tests {
    use super::*;

    fn reject(capacity: u64) -> RejectBody {
        RejectBody { error: "queue_full".into(), queue_capacity: capacity }
    }

    #[test]
    fn retry_delays_are_deterministic_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 6,
            backoff: BackoffPolicy::new(1_000, 64_000),
            seed: 7,
            slot_us: 100,
        };
        let a: Vec<u64> = (0..8).map(|r| retry_delay_us(&policy, &reject(4), r)).collect();
        let b: Vec<u64> = (0..8).map(|r| retry_delay_us(&policy, &reject(4), r)).collect();
        assert_eq!(a, b, "same policy and seed, same schedule");
        assert!(a.iter().all(|d| *d <= 64_000), "cap bounds every delay: {a:?}");
        assert!(a[0] >= 1_000, "never below the base");
        for w in a.windows(2) {
            assert!(w[1] >= w[0], "monotone: {a:?}");
        }
    }

    #[test]
    fn queue_capacity_hint_floors_the_early_delays() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: BackoffPolicy::new(100, 1_000_000).with_jitter_permille(0),
            seed: 0,
            slot_us: 1_000,
        };
        // a 64-deep queue hints a 64ms drain, dominating the 100us backoff
        assert_eq!(retry_delay_us(&policy, &reject(64), 0), 64_000);
        // no hint: pure backoff
        assert_eq!(retry_delay_us(&policy, &reject(0), 0), 100);
        // the hint is clamped to the cap, whatever the server claims
        assert_eq!(retry_delay_us(&policy, &reject(u64::MAX), 0), 1_000_000);
        // once the exponential outgrows the hint, backoff wins again
        assert!(retry_delay_us(&policy, &reject(64), 12) > 64_000);
    }

    #[test]
    fn different_seeds_decorrelate_retry_storms() {
        let policy = |seed| RetryPolicy {
            max_attempts: 3,
            backoff: BackoffPolicy::new(10_000, 10_000_000),
            seed,
            slot_us: 0,
        };
        let a: Vec<u64> = (0..6).map(|r| retry_delay_us(&policy(1), &reject(0), r)).collect();
        let b: Vec<u64> = (0..6).map(|r| retry_delay_us(&policy(2), &reject(0), r)).collect();
        assert_ne!(a, b, "clients with different seeds must not retry in lockstep");
    }
}
