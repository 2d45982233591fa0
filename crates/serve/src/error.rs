//! Error taxonomy for the inference service.
//!
//! The variants map onto the wire protocol: [`ServeError::Rejected`] is
//! the backpressure signal (HTTP 503), [`ServeError::BadRequest`] covers
//! malformed protocol or payload input (HTTP 400), and the remaining
//! variants are server-side faults surfaced as HTTP 500 or startup
//! errors.

use simpadv_resilience::PersistError;
use std::fmt;

/// Anything that can go wrong while serving inference traffic.
#[derive(Debug)]
pub enum ServeError {
    /// The bounded request queue is full — explicit backpressure. The
    /// client should retry later; the server did not touch the request.
    Rejected {
        /// Configured queue capacity at the moment of rejection.
        capacity: usize,
    },
    /// The request was syntactically or semantically invalid (bad HTTP
    /// framing, malformed JSON, wrong pixel count, unknown route).
    BadRequest(String),
    /// A persistence-layer failure (sealed envelope, checkpoint store).
    Persist(PersistError),
    /// A socket-level failure, with the failing operation named.
    Io(String),
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// No valid model generation exists in the watched store.
    NoModel(String),
    /// The batch that took the request panicked before answering it.
    BatchPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { capacity } => {
                write!(f, "request rejected: queue full (capacity {capacity})")
            }
            ServeError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            ServeError::Persist(e) => write!(f, "persistence error: {e}"),
            ServeError::Io(detail) => write!(f, "io error: {detail}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::NoModel(detail) => write!(f, "no servable model: {detail}"),
            ServeError::BatchPanicked => write!(f, "the batch running this request panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_mode() {
        let msg = ServeError::Rejected { capacity: 8 }.to_string();
        assert!(msg.contains("queue full"), "{msg}");
        assert!(msg.contains('8'), "{msg}");
        let msg = ServeError::BadRequest("pixel count".into()).to_string();
        assert!(msg.contains("pixel count"), "{msg}");
    }
}
