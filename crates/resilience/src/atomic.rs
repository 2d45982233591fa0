//! Atomic durable file writes: temp file + fsync + rename.
//!
//! The write sequence is the classic crash-safe protocol:
//!
//! 1. create `<name>.tmp` in the *same directory* as the target
//! 2. stream the payload into it
//! 3. `fsync` the temp file (data durable before the name changes)
//! 4. `rename` over the target (atomic on POSIX filesystems)
//! 5. best-effort `fsync` of the parent directory (the rename durable)
//!
//! A crash before step 4 leaves the old target untouched; a crash after
//! leaves the new one complete. The [`crate::failpoint`] registry is
//! consulted at each boundary so tests can force every crash window.

use crate::error::PersistError;
use crate::failpoint::{self, Action};
use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Applies an armed `corrupt`/`mid-write` failpoint to the in-memory
/// payload, returning the (possibly damaged or shortened) bytes to write.
fn sabotage(payload: &[u8]) -> Result<Vec<u8>, PersistError> {
    let mut bytes = payload.to_vec();
    if let Some(Action::Flip(n)) = failpoint::hit("corrupt") {
        if !bytes.is_empty() {
            let idx = n % bytes.len();
            bytes[idx] ^= 1;
        }
    }
    match failpoint::hit("mid-write") {
        Some(Action::Error) => {
            return Err(PersistError::Injected { site: "mid-write".to_string() })
        }
        Some(Action::Short(n)) => bytes.truncate(n),
        Some(Action::Flip(_)) | None => {}
    }
    Ok(bytes)
}

/// Writes `payload` to `path` atomically and durably.
///
/// On success the file at `path` contains exactly `payload` (modulo armed
/// failpoints). On error the previous contents of `path`, if any, are
/// still intact — except after an injected `post-rename` fault, which by
/// design fires *after* the new contents became durable.
///
/// # Errors
///
/// [`PersistError::Io`] with the failing site, or
/// [`PersistError::Injected`] when a failpoint fired.
pub fn atomic_write(path: &Path, payload: &[u8]) -> Result<(), PersistError> {
    if let Some(Action::Error) = failpoint::hit("pre-write") {
        return Err(PersistError::Injected { site: "pre-write".to_string() });
    }
    let bytes = sabotage(payload)?;

    let file_name = path.file_name().ok_or_else(|| PersistError::BadHeader {
        detail: format!("{} has no file name", path.display()),
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let mut file = fs::File::create(&tmp).map_err(|e| PersistError::io("create-temp", e))?;
    file.write_all(&bytes).map_err(|e| PersistError::io("write", e))?;
    file.sync_all().map_err(|e| PersistError::io("fsync", e))?;
    drop(file);

    if let Some(Action::Error) = failpoint::hit("pre-rename") {
        return Err(PersistError::Injected { site: "pre-rename".to_string() });
    }
    fs::rename(&tmp, path).map_err(|e| PersistError::io("rename", e))?;
    if let Some(Action::Error) = failpoint::hit("post-rename") {
        return Err(PersistError::Injected { site: "post-rename".to_string() });
    }

    // Directory fsync makes the rename itself durable. Some filesystems
    // refuse to open directories for writing; that only weakens
    // durability, not atomicity, so failure here is non-fatal.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    simpadv_trace::counter("resilience/atomic_write", 1);
    Ok(())
}

/// [`atomic_write`] with bounded retry on *environmental* IO errors.
///
/// Detected-damage and injected errors are never retried (retrying
/// cannot fix them); OS-level IO errors are retried up to `attempts`
/// times total with linearly growing backoff starting at `backoff`.
///
/// # Errors
///
/// The last error once the attempt budget is exhausted.
#[expect(
    clippy::disallowed_methods,
    reason = "retry backoff sleeps on the current thread; no parallelism involved"
)]
pub fn atomic_write_with_retry(
    path: &Path,
    payload: &[u8],
    attempts: u32,
    backoff: Duration,
) -> Result<(), PersistError> {
    let attempts = attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match atomic_write(path, payload) {
            Ok(()) => return Ok(()),
            Err(e @ PersistError::Io { .. }) => {
                simpadv_trace::counter("resilience/atomic_write_retry", 1);
                last = Some(e);
                if attempt + 1 < attempts {
                    // Transient-error backoff.
                    std::thread::sleep(backoff * (attempt + 1));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(PersistError::Injected { site: "retry".to_string() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Failpoints are process-global; serialize the tests that arm them.
    pub(crate) fn fp_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let lock = LOCK.get_or_init(|| Mutex::new(()));
        lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("simpadv-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_payload_and_replaces_previous() {
        let _guard = fp_lock();
        failpoint::disarm_all();
        let dir = tmpdir("basic");
        let path = dir.join("a.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!path.with_file_name("a.json.tmp").exists(), "temp cleaned by rename");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_rename_fault_keeps_old_contents() {
        let _guard = fp_lock();
        failpoint::disarm_all();
        let dir = tmpdir("prerename");
        let path = dir.join("a.json");
        atomic_write(&path, b"old").unwrap();
        failpoint::arm("pre-rename", "error*1").unwrap();
        let err = atomic_write(&path, b"new").unwrap_err();
        assert!(matches!(err, PersistError::Injected { ref site } if site == "pre-rename"));
        assert_eq!(fs::read(&path).unwrap(), b"old", "target untouched");
        atomic_write(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_truncates_final_file() {
        let _guard = fp_lock();
        failpoint::disarm_all();
        let dir = tmpdir("short");
        let path = dir.join("a.json");
        failpoint::arm("mid-write", "short:2*1").unwrap();
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"pa", "short write reached disk silently");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fault_flips_one_byte() {
        let _guard = fp_lock();
        failpoint::disarm_all();
        let dir = tmpdir("flip");
        let path = dir.join("a.json");
        failpoint::arm("corrupt", "flip:1*1").unwrap();
        atomic_write(&path, b"abc").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a\x63c", "bit 0 of byte 1 flipped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_does_not_mask_injected_faults() {
        let _guard = fp_lock();
        failpoint::disarm_all();
        let dir = tmpdir("retry");
        let path = dir.join("a.json");
        failpoint::arm("pre-write", "error").unwrap();
        let err = atomic_write_with_retry(&path, b"x", 3, Duration::from_millis(1)).unwrap_err();
        assert!(matches!(err, PersistError::Injected { .. }), "no retry on injected faults");
        failpoint::disarm_all();
        atomic_write_with_retry(&path, b"x", 3, Duration::from_millis(1)).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"x");
        let _ = fs::remove_dir_all(&dir);
    }
}
