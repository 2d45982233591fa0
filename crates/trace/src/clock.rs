//! The process-wide logical clock.
//!
//! Wall time varies with machine load and `--threads`; the logical clock
//! does not. It counts *work*: model forward/backward passes, a flops
//! proxy for tensor kernels, and attack gradient steps. Under the
//! runtime's determinism contract (fixed chunking, thread-independent
//! call structure) every counter here advances by exactly the same
//! amount no matter how many workers execute the work — atomic adds
//! commute, and the *number and size* of ticks is thread-invariant. Span
//! closes therefore report logical deltas that are bitwise comparable
//! across thread counts.
//!
//! A second family of counters is explicitly **non-logical** (pool
//! regions/tasks, busy nanoseconds, spawned threads): parallel dispatch
//! decisions depend on the thread count, so these land in event `meta`,
//! never in `fields`.

use std::sync::atomic::{AtomicU64, Ordering};

static FORWARD: AtomicU64 = AtomicU64::new(0);
static BACKWARD: AtomicU64 = AtomicU64::new(0);
static FLOPS: AtomicU64 = AtomicU64::new(0);
static ATTACK_STEPS: AtomicU64 = AtomicU64::new(0);
static POOL_REGIONS: AtomicU64 = AtomicU64::new(0);
static POOL_TASKS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);
static SPAWNED_THREADS: AtomicU64 = AtomicU64::new(0);

/// Records `n` model forward passes.
pub fn tick_forward(n: u64) {
    FORWARD.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` model backward passes.
pub fn tick_backward(n: u64) {
    BACKWARD.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` multiply-accumulate operations (the flops proxy).
pub fn add_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` signed-gradient attack steps.
pub fn tick_attack_steps(n: u64) {
    ATTACK_STEPS.fetch_add(n, Ordering::Relaxed);
}

/// Records one parallel region dispatching `tasks` tasks (non-logical:
/// whether a kernel parallelises depends on the thread count).
pub fn tick_pool_region(tasks: u64) {
    POOL_REGIONS.fetch_add(1, Ordering::Relaxed);
    POOL_TASKS.fetch_add(tasks, Ordering::Relaxed);
}

/// Records `ns` nanoseconds a worker spent executing a task
/// (non-logical).
pub fn add_busy_ns(ns: u64) {
    BUSY_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Records `n` worker threads spawned for a region (non-logical).
pub fn add_spawned_threads(n: u64) {
    SPAWNED_THREADS.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of every clock counter.
///
/// Spans snapshot the clock when they open and report the delta when
/// they close; [`ClockSnapshot::delta_since`] computes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockSnapshot {
    /// Model forward passes (logical).
    pub forward: u64,
    /// Model backward passes (logical).
    pub backward: u64,
    /// Multiply-accumulate proxy (logical).
    pub flops: u64,
    /// Signed-gradient attack steps (logical).
    pub attack_steps: u64,
    /// Parallel regions dispatched (non-logical).
    pub pool_regions: u64,
    /// Tasks dispatched across regions (non-logical).
    pub pool_tasks: u64,
    /// Nanoseconds of worker task execution (non-logical).
    pub busy_ns: u64,
    /// Worker threads spawned (non-logical).
    pub spawned_threads: u64,
}

impl ClockSnapshot {
    /// The counter-wise difference `self - earlier` (saturating, so a
    /// stale snapshot can never underflow).
    pub fn delta_since(&self, earlier: &ClockSnapshot) -> ClockSnapshot {
        ClockSnapshot {
            forward: self.forward.saturating_sub(earlier.forward),
            backward: self.backward.saturating_sub(earlier.backward),
            flops: self.flops.saturating_sub(earlier.flops),
            attack_steps: self.attack_steps.saturating_sub(earlier.attack_steps),
            pool_regions: self.pool_regions.saturating_sub(earlier.pool_regions),
            pool_tasks: self.pool_tasks.saturating_sub(earlier.pool_tasks),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            spawned_threads: self.spawned_threads.saturating_sub(earlier.spawned_threads),
        }
    }
}

/// Reads the current clock.
pub fn snapshot() -> ClockSnapshot {
    ClockSnapshot {
        forward: FORWARD.load(Ordering::Relaxed),
        backward: BACKWARD.load(Ordering::Relaxed),
        flops: FLOPS.load(Ordering::Relaxed),
        attack_steps: ATTACK_STEPS.load(Ordering::Relaxed),
        pool_regions: POOL_REGIONS.load(Ordering::Relaxed),
        pool_tasks: POOL_TASKS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS.load(Ordering::Relaxed),
        spawned_threads: SPAWNED_THREADS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_advance_the_snapshot() {
        let before = snapshot();
        tick_forward(3);
        tick_backward(2);
        add_flops(100);
        tick_attack_steps(5);
        tick_pool_region(4);
        add_busy_ns(1_000);
        add_spawned_threads(1);
        let delta = snapshot().delta_since(&before);
        // Other tests tick concurrently, so deltas are lower bounds.
        assert!(delta.forward >= 3);
        assert!(delta.backward >= 2);
        assert!(delta.flops >= 100);
        assert!(delta.attack_steps >= 5);
        assert!(delta.pool_regions >= 1);
        assert!(delta.pool_tasks >= 4);
        assert!(delta.busy_ns >= 1_000);
        assert!(delta.spawned_threads >= 1);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let older = ClockSnapshot { forward: 10, ..ClockSnapshot::default() };
        let newer = ClockSnapshot { forward: 4, ..ClockSnapshot::default() };
        assert_eq!(newer.delta_since(&older).forward, 0);
    }
}

/// A monotonic wall-clock stopwatch — the one sanctioned wrapper around
/// `std::time::Instant` in the workspace (lint rule R10 confines direct
/// `Instant`/`SystemTime` reads to this module).
///
/// Wall time is inherently non-logical: it varies with machine load and
/// `--threads`. Forcing every reader through this type keeps that
/// nondeterminism funneled into the same quarantine as the non-logical
/// clock counters above, so a grep for `WallTimer` finds every place a
/// wall measurement can enter the system.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    start: std::time::Instant,
}

impl WallTimer {
    /// Starts the stopwatch now.
    pub fn start() -> WallTimer {
        WallTimer { start: std::time::Instant::now() }
    }

    /// Seconds elapsed since [`WallTimer::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whole microseconds elapsed since [`WallTimer::start`].
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Whole nanoseconds elapsed since [`WallTimer::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}
