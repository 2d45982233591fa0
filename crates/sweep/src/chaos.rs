//! The campaign chaos matrix: deliberate interruption of cells.
//!
//! Chaos here targets *children*: SIGKILL a cell mid-flight, or inject
//! `SIMPADV_FAILPOINTS` into the child so its own durable-IO sites
//! fault. Chaos against the *orchestrator* (SIGKILL between manifest
//! transitions) needs no support code — the CI `sweep-chaos` job simply
//! kills the process and reruns with `--resume`; the manifest protocol
//! is what makes that survivable.
//!
//! Chaos state is intentionally **not** persisted in the manifest: a
//! resumed campaign must converge to the uninterrupted result, so the
//! kill counter lives and dies with the orchestrator process that was
//! asked to inject failures.

/// What to do to cells, and how many times.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// SIGKILL each targeted cell this long after spawn (µs).
    pub kill_cell_after_us: Option<u64>,
    /// How many attempts (across the whole campaign) to kill before
    /// chaos goes quiet and lets cells complete.
    pub kill_cell_times: u32,
    /// `SIMPADV_FAILPOINTS` spec injected into child environments.
    pub child_failpoints: Option<String>,
}

/// In-memory chaos budget tracker for one orchestrator process.
#[derive(Debug)]
pub struct ChaosState {
    config: ChaosConfig,
    kills_fired: u32,
}

impl ChaosState {
    /// Arms the tracker with a config.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosState { config, kills_fired: 0 }
    }

    /// The kill delay to apply to the next attempt, if chaos still has
    /// budget; calling this charges the budget.
    pub fn next_kill_after_us(&mut self) -> Option<u64> {
        let after = self.config.kill_cell_after_us?;
        if self.kills_fired >= self.config.kill_cell_times {
            return None;
        }
        self.kills_fired += 1;
        Some(after)
    }

    /// Failpoints to inject into the next child, if any.
    pub fn child_failpoints(&self) -> Option<&str> {
        self.config.child_failpoints.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_budget_is_charged_per_query() {
        let mut state = ChaosState::new(ChaosConfig {
            kill_cell_after_us: Some(1_000),
            kill_cell_times: 2,
            child_failpoints: None,
        });
        assert_eq!(state.next_kill_after_us(), Some(1_000));
        assert_eq!(state.next_kill_after_us(), Some(1_000));
        assert_eq!(state.next_kill_after_us(), None, "budget exhausted");
    }

    #[test]
    fn quiet_configs_never_fire() {
        let mut state = ChaosState::new(ChaosConfig::default());
        assert_eq!(state.next_kill_after_us(), None);
        assert_eq!(state.child_failpoints(), None);

        let zero_times =
            ChaosConfig { kill_cell_after_us: Some(5), kill_cell_times: 0, child_failpoints: None };
        assert_eq!(ChaosState::new(zero_times).next_kill_after_us(), None);
    }

    #[test]
    fn failpoint_injection_reaches_children() {
        let cfg = ChaosConfig {
            kill_cell_after_us: None,
            kill_cell_times: 0,
            child_failpoints: Some("pre-rename=1".into()),
        };
        assert_eq!(ChaosState::new(cfg).child_failpoints(), Some("pre-rename=1"));
    }
}
