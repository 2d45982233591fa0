//! Capped exponential backoff with seeded-deterministic jitter.
//!
//! The sweep orchestrator's cell supervision (`crates/sweep`) paces its
//! retries with this schedule, so "how long until the next attempt" is
//! a pure function of `(policy, seed, retry index)`. That purity is what
//! makes retry behaviour replayable: a resumed campaign recomputes
//! exactly the delays the killed one would have used, and property tests
//! can pin the schedule down bitwise (see `tests/backoff_props.rs`).
//!
//! The shape is the classic one: the raw delay doubles per retry, a
//! jitter fraction drawn from a [`splitmix64`] stream stretches it by at
//! most `jitter_permille`, and the cap clamps the result. Because the
//! jitter factor is bounded below 2x, the jittered sequence is still
//! monotone non-decreasing before the cap, and `min(cap, ..)` preserves
//! monotonicity after it.

/// A capped exponential backoff schedule with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, microseconds (pre-jitter).
    pub base_us: u64,
    /// Upper clamp on any single delay, microseconds (post-jitter).
    pub cap_us: u64,
    /// Maximum jitter stretch in permille of the raw delay; must stay
    /// `<= 1000` (a factor of 2) or doubling would no longer guarantee
    /// a monotone schedule.
    pub jitter_permille: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_us: 50_000, cap_us: 5_000_000, jitter_permille: 250 }
    }
}

impl BackoffPolicy {
    /// A policy with the given base and cap and the default 25% jitter.
    ///
    /// # Panics
    ///
    /// Panics when `base_us` is zero (a zero base collapses the whole
    /// schedule to busy-spinning) or `cap_us < base_us`.
    pub fn new(base_us: u64, cap_us: u64) -> Self {
        assert!(base_us > 0, "backoff base must be positive");
        assert!(cap_us >= base_us, "backoff cap below base");
        BackoffPolicy { base_us, cap_us, ..BackoffPolicy::default() }
    }

    /// Overrides the jitter stretch (permille of the raw delay).
    ///
    /// # Panics
    ///
    /// Panics when `permille > 1000`: past a 2x stretch, doubling no
    /// longer dominates the jitter and the schedule could decrease.
    pub fn with_jitter_permille(mut self, permille: u64) -> Self {
        assert!(permille <= 1000, "jitter above 1000 permille breaks monotonicity");
        self.jitter_permille = permille;
        self
    }

    /// The delay before retry number `retry` (0-based), microseconds.
    ///
    /// Deterministic in `(self, seed, retry)`; the jitter for retry `n`
    /// comes from an independent [`splitmix64`] draw so inserting or
    /// removing earlier retries never shifts later delays.
    pub fn delay_us(&self, seed: u64, retry: u32) -> u64 {
        // 2^retry, saturating: past bit 63 the cap wins anyway.
        let factor = 1u64.checked_shl(retry).unwrap_or(u64::MAX);
        let raw = self.base_us.saturating_mul(factor);
        let jitter = if self.jitter_permille == 0 {
            0
        } else {
            let draw = splitmix64(seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let permille = draw % (self.jitter_permille + 1);
            raw / 1000 * permille + (raw % 1000) * permille / 1000
        };
        raw.saturating_add(jitter).min(self.cap_us)
    }

    /// The first `retries` delays as a vector — the exact sleep sequence
    /// a supervisor honouring this policy performs.
    pub fn schedule_us(&self, seed: u64, retries: u32) -> Vec<u64> {
        (0..retries).map(|r| self.delay_us(seed, r)).collect()
    }

    /// Total time spent sleeping across the first `retries` retries,
    /// microseconds (saturating). Bounded by `retries * cap_us`, which
    /// is what makes a campaign-wide retry budget a wall-time bound too.
    pub fn total_delay_us(&self, seed: u64, retries: u32) -> u64 {
        (0..retries).fold(0u64, |acc, r| acc.saturating_add(self.delay_us(seed, r)))
    }
}

/// SplitMix64: the standard 64-bit finalizer-based generator. One draw
/// per (seed, retry) pair keeps the jitter stream stateless.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a per-task seed from a campaign seed and a stable index, so
/// every cell (or client) jitters independently but reproducibly.
pub fn derive_seed(campaign_seed: u64, index: u64) -> u64 {
    splitmix64(campaign_seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let policy = BackoffPolicy::new(10_000, 1_000_000);
        let a = policy.schedule_us(42, 12);
        let b = policy.schedule_us(42, 12);
        assert_eq!(a, b, "same seed, same schedule");
        for w in a.windows(2) {
            assert!(w[1] >= w[0], "monotone: {a:?}");
        }
        assert!(a.iter().all(|d| *d <= 1_000_000), "capped: {a:?}");
        assert!(a[0] >= 10_000, "first delay at least the base");
    }

    #[test]
    fn seeds_decorrelate_but_stay_in_envelope() {
        let policy = BackoffPolicy::new(8_000, 500_000);
        let a = policy.schedule_us(1, 8);
        let b = policy.schedule_us(2, 8);
        assert_ne!(a, b, "different seeds should jitter differently");
        for (i, d) in a.iter().enumerate() {
            let raw = 8_000u64 << i;
            assert!(*d >= raw.min(500_000), "never below the raw floor");
            assert!(*d <= (raw + raw / 4).min(500_000), "never above raw * 1.25");
        }
    }

    #[test]
    fn zero_jitter_is_pure_doubling() {
        let policy = BackoffPolicy::new(1_000, 1 << 40).with_jitter_permille(0);
        assert_eq!(policy.schedule_us(7, 5), vec![1_000, 2_000, 4_000, 8_000, 16_000]);
    }

    #[test]
    fn total_delay_is_budget_bounded() {
        let policy = BackoffPolicy::new(10_000, 200_000);
        let budget = 9u32;
        let total = policy.total_delay_us(5, budget);
        assert!(total <= u64::from(budget) * policy.cap_us);
        assert_eq!(total, policy.schedule_us(5, budget).iter().sum::<u64>());
    }

    #[test]
    fn huge_retry_indices_saturate_at_the_cap() {
        let policy = BackoffPolicy::new(1_000, 3_000_000);
        assert_eq!(policy.delay_us(0, 63), 3_000_000);
        assert_eq!(policy.delay_us(0, 64), 3_000_000);
        assert_eq!(policy.delay_us(0, u32::MAX), 3_000_000);
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(2019, 3), derive_seed(2019, 3));
        assert_ne!(derive_seed(2019, 3), derive_seed(2019, 4));
        assert_ne!(derive_seed(2019, 3), derive_seed(2020, 3));
    }
}
