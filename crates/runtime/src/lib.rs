//! # simpadv-runtime
//!
//! Deterministic data-parallel execution substrate for the `simpadv`
//! workspace.
//!
//! The workspace's reproducibility invariant (all randomness is seeded;
//! `clippy.toml` bans the entropy RNGs) promises that a fixed seed produces bitwise-identical experiment
//! outputs. Naive parallelism breaks that promise in two ways: work gets
//! partitioned differently depending on how many workers exist, and
//! floating-point reductions happen in whatever order threads finish.
//! This crate rules both out by contract:
//!
//! 1. **Fixed chunking** — how a job is split into tasks depends only on
//!    the job itself (input length and an explicit chunk size), never on
//!    the thread count. Threads *claim* tasks dynamically, but the tasks
//!    themselves are identical for 1..N threads.
//! 2. **Ordered reduction** — task results are merged in task-index
//!    order, regardless of completion order. A floating-point
//!    accumulation over chunk results therefore runs in the same order
//!    as the serial loop over the same chunks.
//! 3. **RNG stream splitting** — stochastic per-task work derives an
//!    independent seed with [`split_seed`] keyed by a *stable* task
//!    identity (e.g. the first example index of a chunk), so streams do
//!    not depend on which thread runs the task.
//!
//! Consequently every `par_*` entry point returns results bitwise equal
//! to its serial counterpart, for any thread count.
//!
//! [`Runtime::par_chunks_with`] adds per-worker state (a model replica, a
//! scratch buffer) built once per worker rather than once per chunk. It
//! keeps the contract as long as a chunk's result does not depend on what
//! earlier chunks left in the state.
//!
//! This is also the only crate in the workspace that spawns threads
//! (the `std::thread` bans in `clippy.toml`): all other crates express
//! parallelism through a [`Runtime`] handle, obtained explicitly or via
//! [`Runtime::global`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default global thread count.
pub const THREADS_ENV: &str = "SIMPADV_THREADS";

/// Errors from the runtime's fallible entry points: a thread count from
/// a flag ([`try_set_global_threads`]) or from [`THREADS_ENV`]
/// ([`Runtime::try_from_env`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A thread count of zero was requested.
    ZeroThreads,
    /// The [`THREADS_ENV`] variable is set but not a positive integer.
    InvalidEnv(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ZeroThreads => write!(f, "thread count must be at least 1"),
            RuntimeError::InvalidEnv(v) => {
                write!(f, "{THREADS_ENV}={v:?} is not a positive integer")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Global fallback thread count; `0` means "not yet resolved".
///
/// An atomic (rather than a write-once cell) so tests can switch the
/// in-process thread count and compare runs: the determinism contract
/// makes concurrent readers safe — any observed value produces the same
/// results.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the current thread is a `run_tasks` worker. Workers asking
    /// for [`Runtime::global`] get a serial runtime, so nested data
    /// parallelism (e.g. a parallel matmul inside a parallel eval task)
    /// degrades gracefully instead of oversubscribing the machine.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling thread is already a runtime worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(std::cell::Cell::get)
}

/// Marks the current thread as a worker for a scope, restoring the
/// previous flag on drop (the caller thread doubles as worker 0 during
/// `run_tasks` but must return to its ordinary state afterwards).
struct WorkerFlagGuard {
    was: bool,
}

impl WorkerFlagGuard {
    fn enter() -> Self {
        WorkerFlagGuard { was: IN_WORKER.with(|f| f.replace(true)) }
    }
}

impl Drop for WorkerFlagGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_WORKER.with(|f| f.set(was));
    }
}

/// Number of hardware threads, with a serial fallback when unknown.
#[expect(clippy::disallowed_methods, reason = "the runtime owns thread-count discovery")]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Sets the process-wide thread count used by [`Runtime::global`].
///
/// # Panics
///
/// Panics when `threads == 0`; use [`try_set_global_threads`] for the
/// fallible form.
pub fn set_global_threads(threads: usize) {
    try_set_global_threads(threads).unwrap_or_else(|e| panic!("{e}"));
}

/// Fallible form of [`set_global_threads`].
///
/// # Errors
///
/// Returns [`RuntimeError::ZeroThreads`] when `threads == 0`.
pub fn try_set_global_threads(threads: usize) -> Result<(), RuntimeError> {
    if threads == 0 {
        return Err(RuntimeError::ZeroThreads);
    }
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
    Ok(())
}

/// A handle on a data-parallel execution policy.
///
/// Carries only a thread count: workers are scoped `std::thread`s spawned
/// per call, so a `Runtime` is trivially cheap to construct, copy, and
/// pass down a call stack. `threads == 1` means strictly serial
/// execution on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Runtime {
    /// A runtime executing on `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "{}", RuntimeError::ZeroThreads);
        Runtime { threads }
    }

    /// A strictly serial runtime (one thread, no spawning).
    pub fn serial() -> Self {
        Runtime { threads: 1 }
    }

    /// A runtime sized from the environment: [`THREADS_ENV`] when set,
    /// otherwise [`available_threads`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidEnv`] when [`THREADS_ENV`] is set
    /// but not a positive integer.
    pub fn try_from_env() -> Result<Self, RuntimeError> {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Ok(Runtime { threads: n }),
                _ => Err(RuntimeError::InvalidEnv(v)),
            },
            Err(_) => Ok(Runtime { threads: available_threads() }),
        }
    }

    /// The process-wide runtime used by library call sites.
    ///
    /// Resolution order: the last [`set_global_threads`] call, else a
    /// valid [`THREADS_ENV`] value, else [`available_threads`]. An
    /// invalid [`THREADS_ENV`] falls back to hardware parallelism here
    /// (library call sites must not abort). The CLI's `--threads` flag
    /// goes through [`try_set_global_threads`], which reports a zero
    /// count as an error.
    ///
    /// On a thread that is itself a runtime worker this returns
    /// [`Runtime::serial`]: nested parallel regions run serially rather
    /// than oversubscribing the machine. The determinism contract makes
    /// this invisible in results.
    pub fn global() -> Self {
        if in_worker() {
            return Runtime::serial();
        }
        let mut threads = GLOBAL_THREADS.load(Ordering::Relaxed);
        if threads == 0 {
            threads = Runtime::try_from_env().map_or_else(|_| available_threads(), |r| r.threads);
            // First resolution wins; a racing set_global_threads would
            // overwrite with `store`, which is fine.
            let _ =
                GLOBAL_THREADS.compare_exchange(0, threads, Ordering::Relaxed, Ordering::Relaxed);
            threads = GLOBAL_THREADS.load(Ordering::Relaxed);
        }
        Runtime { threads }
    }

    /// The worker thread count this runtime executes with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `n_tasks` indexed tasks, returning results in task order.
    ///
    /// The scheduling contract: tasks are identified by index `0..n_tasks`,
    /// claimed dynamically by up to `threads` workers, and the result
    /// vector is assembled in index order. The calling thread participates
    /// as one of the workers (only `threads - 1` threads are spawned).
    /// With `threads == 1` (or fewer than two tasks) the tasks simply run
    /// in order on the calling thread.
    ///
    /// Each worker builds its own state with `init` when it claims its
    /// first task and hands it to every task it runs, so `init` runs at
    /// most once per worker and never when there is no task. Which tasks
    /// share a state depends on the scheduling: a task's result must not
    /// depend on what earlier tasks left in it.
    ///
    /// Any panic raised by `init` or a task is propagated to the caller.
    ///
    /// Tracing: the whole region — including the serial fallback and the
    /// caller's own worker-0 share — runs with event emission suppressed
    /// (`simpadv_trace::suppress_events`), so the emitted event stream is
    /// identical no matter how the tasks were scheduled. The logical
    /// clock keeps ticking inside tasks; pool shape and per-task busy
    /// time are recorded on the non-logical side of the clock.
    #[expect(clippy::disallowed_methods, reason = "the runtime's worker pool")]
    fn run_tasks<S, R, I, F>(&self, n_tasks: usize, init: I, task: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        simpadv_trace::clock::tick_pool_region(n_tasks as u64);
        let timed = |state: &mut Option<S>, i: usize| {
            let t0 = simpadv_trace::clock::WallTimer::start();
            let r = task(state.get_or_insert_with(&init), i);
            simpadv_trace::clock::add_busy_ns(t0.elapsed_ns());
            r
        };
        if self.threads == 1 || n_tasks <= 1 {
            let _quiet = simpadv_trace::suppress_events();
            let mut state = None;
            return (0..n_tasks).map(|i| timed(&mut state, i)).collect();
        }
        let workers = self.threads.min(n_tasks);
        simpadv_trace::clock::add_spawned_threads((workers - 1) as u64);
        let next = AtomicUsize::new(0);
        let timed = &timed;
        let next = &next;
        let claim = move || {
            let mut state = None;
            let mut claimed = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                claimed.push((i, timed(&mut state, i)));
            }
            claimed
        };
        let claim = &claim;
        let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    scope.spawn(move || {
                        IN_WORKER.with(|f| f.set(true));
                        simpadv_trace::suppress_events_on_this_thread();
                        claim()
                    })
                })
                .collect();
            // The caller is worker 0, flagged like the rest so nested
            // parallel regions degrade to serial here too.
            let own = {
                let _guard = WorkerFlagGuard::enter();
                let _quiet = simpadv_trace::suppress_events();
                claim()
            };
            let mut all: Vec<Vec<(usize, R)>> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect();
            all.push(own);
            all
        });
        let mut indexed: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// Applies `f` to every item, in parallel, preserving input order.
    ///
    /// Equivalent to `items.iter().map(f).collect()` — bitwise, for any
    /// thread count — with one task per item. Use for coarse items (a
    /// batch, an eval column); for many small items prefer
    /// [`Runtime::par_chunks`].
    ///
    /// Panics raised by `f` are propagated.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_tasks(items.len(), || (), |(), i| f(&items[i]))
    }

    /// Splits `0..len` into fixed chunks of `chunk` indices (the last may
    /// be short) and applies `f` to each range in parallel, returning the
    /// per-chunk results in range order.
    ///
    /// The chunk boundaries depend only on `(len, chunk)` — never on the
    /// thread count — so downstream reductions over the returned vector
    /// are deterministic.
    ///
    /// # Panics
    ///
    /// Panics when `chunk == 0`. Panics raised by `f` are propagated.
    pub fn par_chunks<R, F>(&self, len: usize, chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        self.par_chunks_with(len, chunk, || (), |(), r| f(r))
    }

    /// [`Runtime::par_chunks`] with per-worker state: each worker builds
    /// one state with `init` when it claims its first chunk and passes it
    /// to `f` for every chunk it runs.
    ///
    /// Chunk boundaries and result order are those of
    /// [`Runtime::par_chunks`]. `init` runs once on a serial runtime, at
    /// most `min(threads, chunks)` times otherwise, and never when
    /// `len == 0`. Which chunks share a state depends on the scheduling,
    /// so for the result to stay bitwise independent of the thread count,
    /// a chunk's result must not depend on what earlier chunks left in
    /// the state. A model replica qualifies: every pass overwrites what
    /// the previous one cached.
    ///
    /// # Panics
    ///
    /// Panics when `chunk == 0`. Panics raised by `init` or `f` are
    /// propagated.
    pub fn par_chunks_with<S, R, I, F>(&self, len: usize, chunk: usize, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<usize>) -> R + Sync,
    {
        assert!(chunk > 0, "chunk size must be at least 1");
        self.run_tasks(len.div_ceil(chunk), init, |state, i| {
            f(state, i * chunk..((i + 1) * chunk).min(len))
        })
    }

    /// Runs two closures, potentially in parallel, and returns both
    /// results as `(a, b)`.
    ///
    /// Both closures run with trace-event emission suppressed on every
    /// path (serial and spawned), so the emitted stream does not depend
    /// on whether `fb` ran inline or on its own thread.
    ///
    /// Panics raised by either closure are propagated.
    #[expect(clippy::disallowed_methods, reason = "the runtime's worker pool")]
    pub fn par_join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.threads == 1 {
            let _quiet = simpadv_trace::suppress_events();
            return (fa(), fb());
        }
        simpadv_trace::clock::add_spawned_threads(1);
        std::thread::scope(|scope| {
            let hb = scope.spawn(move || {
                simpadv_trace::suppress_events_on_this_thread();
                fb()
            });
            let a = {
                let _quiet = simpadv_trace::suppress_events();
                fa()
            };
            let b = hb.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (a, b)
        })
    }
}

impl Default for Runtime {
    /// Same resolution as [`Runtime::global`].
    fn default() -> Self {
        Runtime::global()
    }
}

/// Derives an independent RNG seed for a numbered stream.
///
/// SplitMix64-style mixing of `(base, stream)`: nearby stream indices
/// (0, 1, 2, …) yield statistically unrelated seeds, so per-example or
/// per-chunk generators can be keyed by a stable index without
/// correlated draws. Pure and deterministic — safe to call from any
/// thread.
pub fn split_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_is_rejected() {
        assert_eq!(try_set_global_threads(0), Err(RuntimeError::ZeroThreads));
        assert_eq!(Runtime::new(3).threads(), 3);
    }

    #[test]
    #[should_panic(expected = "thread count must be at least 1")]
    fn new_panics_on_zero() {
        let _ = Runtime::new(0);
    }

    #[test]
    fn par_map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let rt = Runtime::new(threads);
            assert_eq!(rt.par_map(&items, |x| x * x + 1), serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let rt = Runtime::new(4);
        assert_eq!(rt.par_map(&[] as &[u8], |x| *x), Vec::<u8>::new());
        assert_eq!(rt.par_map(&[9u8], |x| *x + 1), vec![10]);
    }

    #[test]
    fn par_chunks_covers_range_in_order() {
        let rt = Runtime::new(4);
        let ranges = rt.par_chunks(10, 3, |r| r);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(rt.par_chunks(0, 3, |r| r), Vec::<Range<usize>>::new());
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn par_chunks_rejects_zero_chunk() {
        let _ = Runtime::new(2).par_chunks(10, 0, |r| r);
    }

    #[test]
    fn par_chunks_with_matches_par_chunks() {
        // A reused scratch buffer: each chunk clears it first, so its
        // result does not depend on what earlier chunks left behind.
        let sum_squares = |buf: &mut Vec<usize>, r: Range<usize>| {
            buf.clear();
            buf.extend(r.map(|i| i * i));
            buf.iter().sum::<usize>()
        };
        for len in [0, 1, 5, 23] {
            let want = Runtime::serial().par_chunks(len, 5, |r| r.map(|i| i * i).sum::<usize>());
            for threads in 1..=4 {
                let got = Runtime::new(threads).par_chunks_with(len, 5, Vec::new, sum_squares);
                assert_eq!(got, want, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn par_chunks_with_builds_at_most_one_state_per_worker() {
        let inits = |threads: usize, len: usize| {
            let count = AtomicUsize::new(0);
            let _ = Runtime::new(threads).par_chunks_with(
                len,
                3,
                || count.fetch_add(1, Ordering::Relaxed),
                |_, r| r.len(),
            );
            count.into_inner()
        };
        assert_eq!(inits(1, 13), 1);
        for threads in 2..=4 {
            let n = inits(threads, 13);
            assert!((1..=threads.min(5)).contains(&n), "threads={threads}: {n} inits");
            assert_eq!(inits(threads, 2), 1, "one chunk, one state");
        }
        assert_eq!(inits(1, 0), 0);
        assert_eq!(inits(4, 0), 0);
    }

    #[test]
    fn par_chunks_with_propagates_panics_from_init_and_f() {
        for threads in [1, 3] {
            let rt = Runtime::new(threads);
            let init = std::panic::catch_unwind(|| {
                rt.par_chunks_with(6, 2, || -> u8 { panic!("init exploded") }, |_, r| r.len())
            });
            assert!(init.is_err(), "threads={threads}");
            let task = std::panic::catch_unwind(|| {
                rt.par_chunks_with(
                    6,
                    2,
                    || 0u8,
                    |_, r| {
                        assert!(r.start != 4, "chunk {r:?} exploded");
                        r.len()
                    },
                )
            });
            assert!(task.is_err(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn par_chunks_with_rejects_zero_chunk() {
        let _ = Runtime::new(2).par_chunks_with(10, 0, || (), |(), r| r);
    }

    #[test]
    fn par_join_returns_both() {
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            let (a, b) = rt.par_join(|| 2 + 2, || "ok");
            assert_eq!((a, b), (4, "ok"));
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let rt = Runtime::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let items: Vec<usize> = (0..16).collect();
            let _ = rt.par_map(&items, |&i| {
                assert!(i != 11, "task {i} exploded");
                i
            });
        }));
        assert!(caught.is_err());
    }

    // The global thread count is process-wide state, so everything that
    // observes it lives in this one test (tests in a binary run
    // concurrently).
    #[test]
    fn global_threads_can_be_switched_and_workers_degrade_to_serial() {
        set_global_threads(3);
        assert_eq!(Runtime::global().threads(), 3);
        set_global_threads(4);
        assert_eq!(Runtime::global().threads(), 4);
        assert_eq!(Runtime::default().threads(), 4);
        // Inside a worker, the global runtime degrades to serial so
        // nested parallel regions cannot oversubscribe.
        let seen = Runtime::new(2)
            .par_map(&[0u8, 1, 2, 3], |_| (in_worker(), Runtime::global().threads()));
        assert!(seen.iter().all(|&(w, t)| w && t == 1), "{seen:?}");
        assert!(!in_worker());
    }

    #[test]
    fn split_seed_separates_streams() {
        let a = split_seed(2019, 0);
        let b = split_seed(2019, 1);
        let c = split_seed(2020, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // stable: pure function of its inputs
        assert_eq!(a, split_seed(2019, 0));
    }

    #[test]
    fn ordered_reduction_is_bitwise_stable() {
        // Sum of chunk sums in chunk order must not depend on threads.
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).sin() * 1e-3).collect();
        let sum_with = |threads: usize| -> f32 {
            Runtime::new(threads)
                .par_chunks(data.len(), 64, |r| data[r].iter().sum::<f32>())
                .into_iter()
                .sum()
        };
        let s1 = sum_with(1);
        for threads in [2, 4, 7] {
            assert_eq!(s1.to_bits(), sum_with(threads).to_bits(), "threads={threads}");
        }
    }
}
