//! # simpadv-resilience
//!
//! Crash-safe persistence for the `simpadv` workspace.
//!
//! Training state in this reproduction is more than weights: the paper's
//! Proposed defense carries one persistent adversarial example per
//! training image across epochs, so losing a run mid-epoch loses the
//! state that *defines* the defense. This crate provides the durable-IO
//! substrate that makes such state a first-class artifact:
//!
//! * [`atomic_write`] / [`atomic_write_with_retry`] — temp file + fsync
//!   + rename, so a crash never tears an existing file;
//! * [`seal`] / [`unseal`] — a versioned envelope with a CRC32 over the
//!   payload, so damage is *detected* instead of silently resumed from;
//! * [`CheckpointStore`] — generation-numbered directory with retention
//!   and automatic fallback to the newest generation that validates;
//! * [`failpoint`] — `SIMPADV_FAILPOINTS`-driven fault injection at the
//!   named IO sites, so every crash window is testable;
//! * [`backoff`] — the capped-exponential retry schedule with
//!   seeded-deterministic jitter behind the sweep orchestrator's cell
//!   supervision, its one retry loop.
//!
//! Every other crate funnels its file creation through here (lint rule
//! R9 enforces this), which is what makes the crash-safety guarantee a
//! workspace-wide invariant rather than a local convention.
//!
//! ## Quick start
//!
//! ```
//! use simpadv_resilience::CheckpointStore;
//!
//! let dir = std::env::temp_dir().join(format!("rezdoc-{}", std::process::id()));
//! let store = CheckpointStore::open(&dir).unwrap().with_keep(2);
//! store.save(b"epoch 1 state").unwrap();
//! store.save(b"epoch 2 state").unwrap();
//! let (generation, payload) = store.load_latest_valid().unwrap().unwrap();
//! assert_eq!((generation, payload.as_slice()), (2, &b"epoch 2 state"[..]));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

mod atomic;
pub mod backoff;
mod checksum;
mod envelope;
mod error;
pub mod failpoint;
mod store;

pub use atomic::{atomic_write, atomic_write_with_retry};
pub use backoff::BackoffPolicy;
pub use checksum::crc32;
pub use envelope::{seal, unseal, MAGIC, VERSION};
pub use error::PersistError;
pub use store::{CheckpointStore, DEFAULT_KEEP};

use std::path::Path;

/// Serializes `value` to JSON and writes it sealed + atomically.
///
/// # Errors
///
/// [`PersistError::Encode`] on serialization failure, else any
/// [`atomic_write`] error.
pub fn write_sealed_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), PersistError> {
    let json = serde_json::to_string(value).map_err(|e| PersistError::Encode(e.to_string()))?;
    atomic_write(path, &seal(json.as_bytes()))
}

/// Reads a sealed JSON file written by [`write_sealed_json`].
///
/// # Errors
///
/// IO/envelope errors, or [`PersistError::Decode`] when the validated
/// payload does not parse as `T`.
pub fn read_sealed_json<T: serde::Deserialize>(path: &Path) -> Result<T, PersistError> {
    let bytes = std::fs::read(path).map_err(|e| PersistError::io("read", e))?;
    let payload = unseal(&bytes)?;
    let text = std::str::from_utf8(payload)
        .map_err(|_| PersistError::Decode("payload is not UTF-8".to_string()))?;
    serde_json::from_str(text).map_err(|e| PersistError::Decode(e.to_string()))
}

/// Serializes `value` to *plain* (unsealed) pretty JSON and writes it
/// atomically with bounded retry — the helper for human-facing artifacts
/// such as bench `results/*.json`, where external tools expect raw JSON
/// but torn files are still unacceptable.
///
/// # Errors
///
/// [`PersistError::Encode`] on serialization failure, else any
/// [`atomic_write_with_retry`] error.
pub fn write_json_atomic<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), PersistError> {
    let json =
        serde_json::to_string_pretty(value).map_err(|e| PersistError::Encode(e.to_string()))?;
    atomic_write_with_retry(path, json.as_bytes(), 3, std::time::Duration::from_millis(20))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Probe {
        name: String,
        epoch: u64,
    }

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("simpadv-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("probe.ckpt")
    }

    #[test]
    fn sealed_json_round_trip() {
        let path = tmpfile("sealed");
        let probe = Probe { name: "proposed".to_string(), epoch: 7 };
        write_sealed_json(&path, &probe).unwrap();
        let back: Probe = read_sealed_json(&path).unwrap();
        assert_eq!(back, probe);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn plain_json_artifact_is_raw_json() {
        let path = tmpfile("plain");
        let probe = Probe { name: "table1".to_string(), epoch: 1 };
        write_json_atomic(&path, &probe).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('{'), "no envelope on artifacts");
        assert!(text.contains("\"table1\""));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn sealed_json_detects_damage() {
        let path = tmpfile("damage");
        write_sealed_json(&path, &Probe { name: "x".to_string(), epoch: 0 }).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_sealed_json::<Probe>(&path).unwrap_err();
        assert!(err.is_detected_damage(), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
