//! Supervised execution of one cell attempt as a child process.
//!
//! The orchestrator never trains in-process: each cell is the existing
//! CLI binary run as a child with its own checkpoint directory, so a
//! cell crash (OOM, failpoint, SIGKILL) is an exit status to classify,
//! never orchestrator state to unwind. The supervisor polls the child on
//! a coarse tick, enforcing the per-cell wall deadline (and, under
//! chaos, an injected mid-cell SIGKILL) from the outside.

use crate::error::SweepError;
use simpadv_trace::clock::WallTimer;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Supervisor poll tick. Coarse on purpose: deadlines are wall-clock
/// policy (meta-plane), so +-5ms of slack is irrelevant, and a tight
/// loop would steal CPU from the children being measured.
const POLL_TICK: Duration = Duration::from_millis(5);

/// How an attempt ended, as classified from the child's exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Exit status 0 — the report is expected to exist and validate.
    Completed,
    /// Nonzero exit code (the child itself failed or hit a failpoint).
    Exited(i32),
    /// Terminated by a signal (SIGKILL from chaos, the OOM killer, ...).
    Killed,
    /// The supervisor killed the child at the wall deadline.
    DeadlineExceeded,
}

impl CellOutcome {
    /// Human-readable failure cause for manifests and quarantine rows.
    pub fn describe(&self) -> String {
        match self {
            CellOutcome::Completed => "completed".to_string(),
            CellOutcome::Exited(code) => format!("exited with code {code}"),
            CellOutcome::Killed => "killed by signal".to_string(),
            CellOutcome::DeadlineExceeded => "cell wall deadline exceeded".to_string(),
        }
    }
}

/// How to launch a cell child: the program plus argv prefix shared by
/// every cell (the per-cell `train ...` argv is appended per attempt).
#[derive(Debug, Clone)]
pub struct ChildCommand {
    /// Binary to execute (normally the orchestrator's own executable,
    /// re-entered through its `train` verb).
    pub program: PathBuf,
    /// Arguments inserted before the per-cell ones.
    pub prefix_args: Vec<String>,
}

/// Per-attempt knobs the supervisor enforces from outside the child.
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Wall deadline for this attempt, in microseconds.
    pub deadline_us: u64,
    /// Chaos: SIGKILL the child this long after spawn (µs).
    pub kill_after_us: Option<u64>,
    /// Chaos: `SIMPADV_FAILPOINTS` value injected into the child.
    pub child_failpoints: Option<String>,
    /// Extra environment for the child, applied *after* the scrub —
    /// the orchestrator's deliberate injections (per-attempt trace file
    /// and traceparent) rather than accidental inheritance.
    pub child_env: Vec<(String, String)>,
}

/// Spawns one attempt and supervises it to completion.
///
/// The child runs with stdio detached (`/dev/null`): cell progress is
/// reported through checkpoints and the sealed report, not through a
/// pipe the orchestrator would have to drain. Orchestrator-side
/// failpoints and trace settings are scrubbed from the child's
/// environment so chaos injected into the *orchestrator* never leaks
/// into a *cell* (chaos for cells is opt-in via `child_failpoints`).
///
/// # Errors
///
/// [`SweepError::Supervise`] when the child cannot be spawned or waited
/// on at all — never when the child merely fails, which is an outcome.
#[expect(
    clippy::disallowed_methods,
    reason = "the supervisor spawns cell children and polls them on the current thread"
)]
pub fn run_cell(
    command: &ChildCommand,
    cell_args: &[String],
    supervision: &Supervision,
) -> Result<CellOutcome, SweepError> {
    let mut cmd = Command::new(&command.program);
    cmd.args(&command.prefix_args)
        .args(cell_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .env_remove("SIMPADV_FAILPOINTS")
        .env_remove("SIMPADV_TRACE")
        .env_remove("SIMPADV_TRACE_FORMAT")
        .env_remove("SIMPADV_TRACEPARENT");
    if let Some(points) = &supervision.child_failpoints {
        cmd.env("SIMPADV_FAILPOINTS", points);
    }
    for (key, value) in &supervision.child_env {
        cmd.env(key, value);
    }

    let mut child = cmd
        .spawn()
        .map_err(|e| SweepError::Supervise(format!("spawn {}: {e}", command.program.display())))?;

    // Deadlines are wall policy, so the one sanctioned wall source
    // (R10) is the right clock here; nothing it reads feeds a logical
    // field.
    let started = WallTimer::start();

    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                let code = status.code();
                return Ok(match code {
                    Some(0) => CellOutcome::Completed,
                    Some(c) => CellOutcome::Exited(c),
                    // On Unix, no exit code means a signal death; the
                    // chaos kill below also lands here.
                    None => CellOutcome::Killed,
                });
            }
            Ok(None) => {}
            Err(e) => {
                kill_and_reap(&mut child);
                return Err(SweepError::Supervise(format!("wait: {e}")));
            }
        }

        let elapsed_us = started.elapsed_us();
        if let Some(after_us) = supervision.kill_after_us {
            if elapsed_us >= after_us {
                kill_and_reap(&mut child);
                return Ok(CellOutcome::Killed);
            }
        }
        if elapsed_us >= supervision.deadline_us {
            kill_and_reap(&mut child);
            return Ok(CellOutcome::DeadlineExceeded);
        }
        std::thread::sleep(POLL_TICK);
    }
}

/// SIGKILLs the child and reaps it so no zombie outlives the attempt.
fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Blocking sleep for backoff delays. The orchestrator is a sequential
/// supervisor, not a compute path, so blocking is the correct shape.
#[expect(clippy::disallowed_methods, reason = "supervision backoff sleeps on the current thread")]
pub(crate) fn sleep_us(us: u64) {
    std::thread::sleep(Duration::from_micros(us));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/bin/sh` is the one child every CI image has; the fakecell bin
    /// covers the realistic protocol in the integration tests.
    fn sh(script: &str) -> (ChildCommand, Vec<String>) {
        (
            ChildCommand { program: PathBuf::from("/bin/sh"), prefix_args: vec!["-c".into()] },
            vec![script.to_string()],
        )
    }

    fn supervision(deadline_us: u64) -> Supervision {
        Supervision {
            deadline_us,
            kill_after_us: None,
            child_failpoints: None,
            child_env: Vec::new(),
        }
    }

    #[test]
    fn classifies_success_and_failure_exits() {
        let (cmd, args) = sh("exit 0");
        assert_eq!(
            run_cell(&cmd, &args, &supervision(10_000_000)).unwrap(),
            CellOutcome::Completed
        );
        let (cmd, args) = sh("exit 3");
        assert_eq!(
            run_cell(&cmd, &args, &supervision(10_000_000)).unwrap(),
            CellOutcome::Exited(3)
        );
    }

    #[test]
    fn deadline_kills_a_runaway_child() {
        let (cmd, args) = sh("sleep 30");
        let outcome = run_cell(&cmd, &args, &supervision(50_000)).unwrap();
        assert_eq!(outcome, CellOutcome::DeadlineExceeded);
    }

    #[test]
    fn chaos_kill_registers_as_a_signal_death() {
        let (cmd, args) = sh("sleep 30");
        let sup = Supervision {
            deadline_us: 10_000_000,
            kill_after_us: Some(20_000),
            child_failpoints: None,
            child_env: Vec::new(),
        };
        assert_eq!(run_cell(&cmd, &args, &sup).unwrap(), CellOutcome::Killed);
    }

    #[test]
    fn missing_binary_is_a_supervise_error_not_an_outcome() {
        let cmd = ChildCommand {
            program: PathBuf::from("/nonexistent/simpadv-binary"),
            prefix_args: vec![],
        };
        let err = run_cell(&cmd, &[], &supervision(1_000_000)).unwrap_err();
        assert!(matches!(err, SweepError::Supervise(_)), "{err}");
    }

    #[test]
    fn orchestrator_failpoints_are_scrubbed_from_children() {
        // The child sees no SIMPADV_FAILPOINTS unless chaos injects one.
        let (cmd, args) = sh("test -z \"$SIMPADV_FAILPOINTS\"");
        std::env::set_var("SIMPADV_FAILPOINTS", "pre-write=1");
        let outcome = run_cell(&cmd, &args, &supervision(10_000_000));
        std::env::remove_var("SIMPADV_FAILPOINTS");
        assert_eq!(outcome.unwrap(), CellOutcome::Completed);

        let (cmd, args) = sh("test \"$SIMPADV_FAILPOINTS\" = probe=1");
        let sup = Supervision {
            deadline_us: 10_000_000,
            kill_after_us: None,
            child_failpoints: Some("probe=1".into()),
            child_env: Vec::new(),
        };
        assert_eq!(run_cell(&cmd, &args, &sup).unwrap(), CellOutcome::Completed);
    }

    #[test]
    fn injected_child_env_survives_the_scrub() {
        // The scrub removes inherited trace settings...
        let (cmd, args) = sh("test -z \"$SIMPADV_TRACE\" && test -z \"$SIMPADV_TRACEPARENT\"");
        std::env::set_var("SIMPADV_TRACEPARENT", "inherited-not-wanted");
        let outcome = run_cell(&cmd, &args, &supervision(10_000_000));
        std::env::remove_var("SIMPADV_TRACEPARENT");
        assert_eq!(outcome.unwrap(), CellOutcome::Completed);

        // ...while deliberate per-attempt injections land after it.
        let (cmd, args) = sh("test \"$SIMPADV_TRACE\" = /tmp/cell.jsonl");
        let sup = Supervision {
            deadline_us: 10_000_000,
            kill_after_us: None,
            child_failpoints: None,
            child_env: vec![("SIMPADV_TRACE".into(), "/tmp/cell.jsonl".into())],
        };
        assert_eq!(run_cell(&cmd, &args, &sup).unwrap(), CellOutcome::Completed);
    }

    #[test]
    fn outcome_descriptions_name_the_cause() {
        assert!(CellOutcome::Exited(7).describe().contains('7'));
        assert!(CellOutcome::Killed.describe().contains("signal"));
        assert!(CellOutcome::DeadlineExceeded.describe().contains("deadline"));
    }
}
