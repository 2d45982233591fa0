//! # simpadv-sweep
//!
//! Supervised, crash-resilient campaign orchestration.
//!
//! The paper's claims are comparative — Proposed vs. ATDA vs. Free vs.
//! BIM across epsilons and training scales — so reproducing them means
//! running a *grid* of training cells, and a grid is only as
//! trustworthy as its weakest run. This crate makes the campaign itself
//! a durable, restartable artifact:
//!
//! * [`grid`] — the declarative trainer x epsilon x scale x threads
//!   cross product, expanded deterministically into [`grid::CellSpec`]s
//!   with stable ids;
//! * [`supervise`] — each cell runs as a supervised **child process**
//!   (the existing CLI's `train` verb) with its own checkpoint
//!   directory and wall deadline; a crash is an exit status to
//!   classify, never orchestrator state to unwind;
//! * [`manifest`] — campaign state lives in a generation-numbered,
//!   CRC-sealed manifest (via `simpadv-resilience`), saved after every
//!   cell transition, so SIGKILLing the orchestrator at any instant
//!   loses at most the in-flight child's most recent epoch;
//! * [`campaign`] — the retry state machine: failed cells back off on
//!   the shared capped-exponential schedule
//!   ([`simpadv_resilience::backoff`], seeded per cell from the
//!   campaign seed), resume from their latest valid checkpoint, and
//!   quarantine — rather than abort the campaign — once the per-cell
//!   attempt cap or campaign-wide retry budget is spent;
//! * [`report`] — the sealed per-cell completion contract, and
//! * [`chaos`] — deliberate mid-cell SIGKILL and child failpoint
//!   injection, so the recovery path is exercised by CI rather than
//!   trusted.
//!
//! The output is `BENCH_sweep.json` (a [`simpadv_obs::Artifact`]
//! tagged `sweep`): logical per-cell rows that must reproduce bitwise
//! whether or not the campaign was interrupted, plus one row per
//! quarantined cell, with retry effort and quarantine causes warn-only.

pub mod campaign;
pub mod chaos;
pub mod error;
pub mod grid;
pub mod manifest;
pub mod report;
pub mod supervise;

pub use campaign::Campaign;
pub use chaos::ChaosConfig;
pub use error::SweepError;
pub use grid::{CellSpec, GridSpec, KNOWN_METHODS};
pub use manifest::{
    CampaignConfig, CampaignManifest, CellState, CellStatus, RetryConfig, MANIFEST_VERSION,
};
pub use report::{CellReport, CELL_REPORT_VERSION};
pub use supervise::{CellOutcome, ChildCommand};

use simpadv_resilience::BackoffPolicy;

/// The [`BackoffPolicy`] a persisted [`RetryConfig`] denotes. Pure, so
/// a resumed orchestrator reconstructs the killed one's schedule
/// exactly.
pub fn backoff_for(retry: &RetryConfig) -> BackoffPolicy {
    BackoffPolicy::new(retry.base_us, retry.cap_us.max(retry.base_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_for_is_pure_and_total() {
        let retry = RetryConfig { base_us: 100, cap_us: 1_000, max_attempts: 3, budget: 5 };
        assert_eq!(backoff_for(&retry).schedule_us(7, 4), backoff_for(&retry).schedule_us(7, 4));
        // A degenerate cap (validated away at manifest build time) is
        // still clamped rather than panicking.
        let degenerate = RetryConfig { base_us: 100, cap_us: 1, max_attempts: 1, budget: 0 };
        assert_eq!(backoff_for(&degenerate).delay_us(0, 0), 100);
    }
}
