//! Typed failures of the trace-analysis pipeline.
//!
//! Every consumer (`trace summarize|flame|top|diff`, `bench compare`)
//! reports malformed input through [`ObsError`] instead of panicking, so
//! a trace torn by a crash mid-write degrades into a diagnosable error.

use std::fmt;

/// Why a trace could not be parsed or analyzed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// A line in the middle of the trace is not a valid event — the
    /// trace is corrupt, not merely truncated.
    Parse {
        /// 1-based line number of the invalid line.
        line: usize,
        /// The underlying parse failure.
        message: String,
    },
    /// The *final* non-blank line is invalid — the signature of a
    /// writer killed mid-line. Distinguished from [`ObsError::Parse`] so
    /// tooling can suggest dropping the tail.
    TruncatedTail {
        /// 1-based line number of the truncated line.
        line: usize,
        /// The underlying parse failure.
        message: String,
    },
    /// The trace holds no events at all; there is nothing to analyze.
    EmptyTrace,
    /// A `span_close` did not match the innermost open span.
    UnbalancedClose {
        /// Sequence number of the offending close event.
        seq: u64,
        /// Path the close event claimed.
        path: String,
        /// Path of the span that was actually open (absent when no span
        /// was open at all).
        expected: Option<String>,
    },
    /// The trace ended with spans still open (killed mid-span).
    UnclosedSpans {
        /// Paths of the spans still open, outermost first.
        open: Vec<String>,
    },
    /// A `BENCH_*.json` artifact file ends mid-value — the signature of
    /// a writer killed between write and rename. The JSON-artifact
    /// sibling of [`ObsError::TruncatedTail`].
    TruncatedArtifact {
        /// The underlying parse failure.
        message: String,
    },
    /// A `BENCH_*.json` artifact repeats a key — a row id, a field
    /// name, or a top-level section — so one copy would silently shadow
    /// the other.
    DuplicateKey {
        /// Where the key repeats (the artifact, a section, or a row).
        within: String,
        /// The repeated key.
        key: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Parse { line, message } => {
                write!(f, "invalid trace event at line {line}: {message}")
            }
            ObsError::TruncatedTail { line, message } => write!(
                f,
                "truncated trace: final line {line} is not a complete event ({message}); \
                 the writer was likely killed mid-write"
            ),
            ObsError::EmptyTrace => write!(f, "empty trace: no events to analyze"),
            ObsError::UnbalancedClose { seq, path, expected } => match expected {
                Some(open) => write!(
                    f,
                    "unbalanced spans: close of '{path}' at seq {seq} while '{open}' is the \
                     innermost open span"
                ),
                None => {
                    write!(f, "unbalanced spans: close of '{path}' at seq {seq} with no open span")
                }
            },
            ObsError::UnclosedSpans { open } => {
                write!(
                    f,
                    "unbalanced spans: trace ended with {} span(s) still open: {}",
                    open.len(),
                    open.join(", ")
                )
            }
            ObsError::TruncatedArtifact { message } => write!(
                f,
                "truncated artifact: file ends mid-value ({message}); the writer was \
                 likely killed mid-write — regenerate the artifact"
            ),
            ObsError::DuplicateKey { within, key } => write!(
                f,
                "duplicate key '{key}' in {within}: an artifact must not repeat a row id or \
                 field name"
            ),
        }
    }
}

impl std::error::Error for ObsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_mode() {
        let e = ObsError::TruncatedTail { line: 7, message: "unexpected end".into() };
        assert!(e.to_string().contains("truncated"));
        assert!(e.to_string().contains("line 7"));
        let e =
            ObsError::UnbalancedClose { seq: 3, path: "a/b".into(), expected: Some("a/c".into()) };
        assert!(e.to_string().contains("a/b"));
        assert!(e.to_string().contains("a/c"));
        assert!(ObsError::EmptyTrace.to_string().contains("empty"));
        let e = ObsError::UnclosedSpans { open: vec!["train".into()] };
        assert!(e.to_string().contains("still open"));
        let e = ObsError::TruncatedArtifact { message: "unexpected end of input".into() };
        assert!(e.to_string().contains("truncated artifact"));
        assert!(e.to_string().contains("killed mid-write"));
        let e = ObsError::DuplicateKey { within: "row 'r' of `rows`".into(), key: "flops".into() };
        assert!(e.to_string().contains("duplicate key 'flops' in row 'r'"));
    }
}
