//! `simpadv-trace`: structured tracing, metrics, and profiling hooks for
//! the adversarial-training stack.
//!
//! The crate provides one process-wide tracer with three event sources —
//! scoped [`span`]s, [`counter`]/[`gauge`] point events, and
//! [`observe`]d histograms — flowing into a pluggable [`Sink`] (JSONL,
//! pretty, in-memory). Spans carry two clocks: monotonic wall time
//! (reported as non-logical `meta`) and the deterministic logical clock
//! of [`clock`] (forward/backward passes, a flops proxy, attack steps —
//! reported as logical `fields`).
//!
//! # Determinism contract
//!
//! In deterministic mode the *logical* portion of a trace — the span
//! tree, event order, counter values, gauge values, histogram buckets —
//! is bitwise identical across `--threads` settings. Two mechanisms
//! enforce this:
//!
//! 1. worker threads (and everything executed inside a runtime parallel
//!    region, including its serial fallback) are **suppressed**: they
//!    tick the logical clock but never emit events, so the emitted
//!    stream has the same shape whether a region ran on one thread or
//!    eight;
//! 2. thread-count-dependent quantities (pool regions/tasks, busy time,
//!    spawned threads, wall time) are confined to event `meta`, which
//!    [`Event::without_meta`] strips before any determinism comparison.
//!
//! # Activation
//!
//! Tracing is off (and near-free: one relaxed atomic load) until a sink
//! is installed — programmatically via [`install_file`] /
//! [`install_memory`], or at first use through the [`TRACE_ENV`] /
//! [`TRACE_FORMAT_ENV`] environment variables.

pub mod clock;
pub mod context;
pub mod event;
pub mod histogram;
pub mod sink;
pub mod summary;

pub use clock::{snapshot, ClockSnapshot};
pub use context::{TraceContext, TRACEPARENT_ENV};
pub use event::{Event, EventKind, FieldValue};
pub use histogram::{Histogram, DEFAULT_BOUNDS};
pub use sink::{JsonlSink, MemoryHandle, MemorySink, NullSink, PrettySink, Sink, TraceFormat};
pub use summary::{SpanAggregate, Summary};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Environment variable naming the trace output file. When set (and no
/// sink was installed programmatically) the tracer opens it on first use.
pub const TRACE_ENV: &str = "SIMPADV_TRACE";

/// Environment variable selecting the trace format (`jsonl` or
/// `pretty`); defaults to JSONL.
pub const TRACE_FORMAT_ENV: &str = "SIMPADV_TRACE_FORMAT";

/// The process's place in a campaign-wide trace, when it has one.
struct TraceState {
    /// Trace id shared by every process of the campaign.
    trace_id: u128,
    /// Span id (possibly in another process) this process's top-level
    /// spans hang under; `None` for the campaign root process.
    remote_parent: Option<u64>,
}

struct State {
    sink: Box<dyn Sink>,
    seq: u64,
    stack: Vec<String>,
    /// Span ids parallel to `stack`: the id assigned to each open span,
    /// or 0 for spans opened without a campaign context.
    span_ids: Vec<u64>,
    trace: Option<TraceState>,
    histograms: BTreeMap<String, Histogram>,
}

/// Fast-path switch: emission helpers bail on one relaxed load when no
/// sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

static STATE: OnceLock<Mutex<State>> = OnceLock::new();

/// Lazily initializes the tracer, honoring [`TRACE_ENV`] on first touch.
fn state() -> &'static Mutex<State> {
    STATE.get_or_init(|| {
        let mut boxed: Box<dyn Sink> = Box::new(NullSink);
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.is_empty() {
                let format = std::env::var(TRACE_FORMAT_ENV)
                    .ok()
                    .and_then(|s| TraceFormat::parse(&s))
                    .unwrap_or_default();
                // Telemetry is best-effort: an unopenable path silently
                // leaves tracing off rather than failing the run.
                if let Ok(file) = std::fs::File::create(&path) {
                    boxed = match format {
                        TraceFormat::Jsonl => Box::new(JsonlSink::new(file)),
                        TraceFormat::Pretty => Box::new(PrettySink::new(file)),
                    };
                    ENABLED.store(true, Ordering::SeqCst);
                }
            }
        }
        Mutex::new(State {
            sink: boxed,
            seq: 0,
            stack: Vec::new(),
            span_ids: Vec::new(),
            trace: trace_state_from_env(),
            histograms: BTreeMap::new(),
        })
    })
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    state().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adopts [`TRACEPARENT_ENV`] (set by a spawning orchestrator) as this
/// process's campaign membership: its span id is the remote parent for
/// every top-level span emitted here.
fn trace_state_from_env() -> Option<TraceState> {
    TraceContext::from_env()
        .map(|ctx| TraceState { trace_id: ctx.trace_id, remote_parent: Some(ctx.span_id) })
}

/// Makes this process the root of a fresh campaign trace: top-level
/// spans carry `trace_id` with no parent link. The sweep orchestrator
/// calls this with a trace id derived from the campaign seed.
pub fn set_trace_root(trace_id: u128) {
    lock_state().trace = Some(TraceState { trace_id, remote_parent: None });
}

/// The context a propagating call should hand to the other side right
/// now: the innermost open span's identity. `None` when tracing is off,
/// no campaign context is set, or no span is open.
pub fn current_context() -> Option<TraceContext> {
    let st = lock_state();
    let trace = st.trace.as_ref()?;
    let span_id = st.span_ids.last().copied().filter(|&id| id != 0)?;
    let parent = st.span_ids[..st.span_ids.len() - 1]
        .iter()
        .rev()
        .copied()
        .find(|&id| id != 0)
        .or(trace.remote_parent);
    Some(TraceContext { trace_id: trace.trace_id, span_id, parent })
}

/// Computes the identity of a span about to open at the current `seq`.
/// `remote` (a propagated context, e.g. from a request header) overrides
/// the local parent chain.
fn next_span_context(st: &State, remote: Option<&TraceContext>) -> Option<TraceContext> {
    if let Some(r) = remote {
        let span_id = context::derive_child(r.span_id, st.seq);
        return Some(TraceContext { trace_id: r.trace_id, span_id, parent: Some(r.span_id) });
    }
    let trace = st.trace.as_ref()?;
    let parent = st.span_ids.iter().rev().copied().find(|&id| id != 0).or(trace.remote_parent);
    let base = parent.unwrap_or_else(|| context::root_parent(trace.trace_id));
    Some(TraceContext {
        trace_id: trace.trace_id,
        span_id: context::derive_child(base, st.seq),
        parent,
    })
}

/// Whether a sink is installed and events are being recorded.
pub fn enabled() -> bool {
    state();
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// Per-thread emission suppression (see the crate docs).
    static SUPPRESSED: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread's events are currently suppressed.
pub fn events_suppressed() -> bool {
    SUPPRESSED.with(Cell::get)
}

/// Restores the previous suppression state on drop.
#[must_use = "suppression ends when the guard drops"]
pub struct SuppressGuard {
    prev: bool,
}

/// Suppresses event emission on this thread until the returned guard
/// drops. The logical clock keeps ticking; only emission stops.
///
/// The runtime wraps every parallel region (including its serial
/// fallback and the caller-runs-a-share path) in this guard so the
/// emitted event stream is independent of the thread count.
pub fn suppress_events() -> SuppressGuard {
    SuppressGuard { prev: SUPPRESSED.with(|c| c.replace(true)) }
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESSED.with(|c| c.set(self.prev));
    }
}

/// Permanently suppresses emission on the calling thread. Spawned pool
/// workers call this once at startup; the thread never emits again.
pub fn suppress_events_on_this_thread() {
    SUPPRESSED.with(|c| c.set(true));
}

fn full_path(stack: &[String], leaf: &str) -> String {
    if stack.is_empty() {
        leaf.to_string()
    } else {
        format!("{}/{}", stack.join("/"), leaf)
    }
}

/// Appends one event to the sink, assigning the next sequence number.
/// `ctx` is only ever set for `SpanOpen` events.
fn record(
    st: &mut State,
    kind: EventKind,
    path: String,
    fields: Vec<(String, FieldValue)>,
    meta: Vec<(String, FieldValue)>,
    ctx: Option<TraceContext>,
) {
    let ev = Event { seq: st.seq, kind, path, fields, meta, ctx };
    st.seq += 1;
    st.sink.record(&ev);
}

/// Drains accumulated histograms into `Histogram` events (path order).
fn flush_histograms(st: &mut State) {
    let hists = std::mem::take(&mut st.histograms);
    for (path, h) in hists {
        if h.count() > 0 {
            record(st, EventKind::Histogram, path, h.to_fields(), Vec::new(), None);
        }
    }
}

/// The timing a finished span measured: wall seconds plus the logical
/// forward/backward work executed while it was open.
///
/// Always populated — even with tracing disabled — so callers (e.g.
/// `TrainReport`) can source per-epoch timing from the span clock
/// unconditionally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTiming {
    /// Monotonic wall-clock duration in seconds (non-logical).
    pub seconds: f64,
    /// Model forward passes executed during the span (logical).
    pub forward: u64,
    /// Model backward passes executed during the span (logical).
    pub backward: u64,
}

impl SpanTiming {
    /// Assembles a timing from parts.
    pub fn new(seconds: f64, forward: u64, backward: u64) -> Self {
        SpanTiming { seconds, forward, backward }
    }

    /// Total logical gradient work: forward plus backward passes.
    pub fn work(&self) -> u64 {
        self.forward + self.backward
    }
}

/// An open span. Closes (emitting a `SpanClose`) on drop, or explicitly
/// via [`SpanGuard::finish`] to recover the measured [`SpanTiming`].
pub struct SpanGuard {
    leaf: String,
    start: clock::WallTimer,
    open: ClockSnapshot,
    registered: bool,
    closed: bool,
    ctx: Option<TraceContext>,
}

/// Opens a span named `name` with the given logical fields.
///
/// Emits a `SpanOpen` event and pushes the name onto the tracer's path
/// stack (so nested events compose paths like `train/epoch/loss`) —
/// unless tracing is disabled or this thread is suppressed, in which
/// case only the timing measurement happens. Prefer the [`span!`] macro
/// for ergonomic field lists.
pub fn span(name: &str, fields: Vec<(String, FieldValue)>) -> SpanGuard {
    span_with_remote(name, fields, None)
}

/// [`span`] with an explicit remote parent — the propagation entry
/// point. The serve server opens each request span with the context its
/// client sent in `X-Simpadv-Traceparent`, so the request hangs under
/// the client's span in the assembled campaign tree regardless of which
/// process (or dispatch thread) executed it.
pub fn span_with_remote(
    name: &str,
    fields: Vec<(String, FieldValue)>,
    remote: Option<TraceContext>,
) -> SpanGuard {
    let registered = enabled() && !events_suppressed();
    let mut ctx = None;
    if registered {
        let mut st = lock_state();
        let path = full_path(&st.stack, name);
        ctx = next_span_context(&st, remote.as_ref());
        record(&mut st, EventKind::SpanOpen, path, fields, Vec::new(), ctx);
        st.stack.push(name.to_string());
        st.span_ids.push(ctx.map_or(0, |c| c.span_id));
    }
    SpanGuard {
        leaf: name.to_string(),
        start: clock::WallTimer::start(),
        open: clock::snapshot(),
        registered,
        closed: false,
        ctx,
    }
}

impl SpanGuard {
    /// Closes the span now and returns what it measured.
    pub fn finish(mut self) -> SpanTiming {
        self.close_now()
    }

    /// This span's campaign identity, if the tracer has one. The sweep
    /// orchestrator encodes an attempt span's context into the child's
    /// [`TRACEPARENT_ENV`] so the cell's trace stitches under it.
    pub fn context(&self) -> Option<TraceContext> {
        self.ctx
    }

    fn close_now(&mut self) -> SpanTiming {
        if self.closed {
            return SpanTiming::default();
        }
        self.closed = true;
        let delta = clock::snapshot().delta_since(&self.open);
        let seconds = self.start.elapsed_seconds();
        let timing = SpanTiming::new(seconds, delta.forward, delta.backward);
        if self.registered && enabled() {
            let mut st = lock_state();
            if st.stack.last().map(String::as_str) == Some(self.leaf.as_str()) {
                st.stack.pop();
                st.span_ids.pop();
            }
            let path = full_path(&st.stack, &self.leaf);
            let fields = vec![
                ("forward".to_string(), FieldValue::U64(delta.forward)),
                ("backward".to_string(), FieldValue::U64(delta.backward)),
                ("flops".to_string(), FieldValue::U64(delta.flops)),
                ("attack_steps".to_string(), FieldValue::U64(delta.attack_steps)),
            ];
            let meta = vec![
                ("wall_us".to_string(), FieldValue::U64(self.start.elapsed_us())),
                ("busy_us".to_string(), FieldValue::U64(delta.busy_ns / 1_000)),
                ("pool_regions".to_string(), FieldValue::U64(delta.pool_regions)),
                ("pool_tasks".to_string(), FieldValue::U64(delta.pool_tasks)),
                ("spawned_threads".to_string(), FieldValue::U64(delta.spawned_threads)),
            ];
            record(&mut st, EventKind::SpanClose, path, fields, meta, None);
        }
        timing
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let _ = self.close_now();
    }
}

/// Opens a [`span`] with an ergonomic `key = value` field list:
/// `span!("epoch", trainer = "proposed", index = epoch)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name, Vec::new())
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span(
            $name,
            vec![$((String::from(stringify!($k)), $crate::FieldValue::from($v))),+],
        )
    };
}

/// Emits a counter event at `path` (composed under the current span).
pub fn counter(path: &str, value: u64) {
    counter_with(path, value, &[]);
}

/// [`counter`] with extra fields after the leading `value`.
pub fn counter_with(path: &str, value: u64, extra: &[(&str, FieldValue)]) {
    if !enabled() || events_suppressed() {
        return;
    }
    let mut st = lock_state();
    let full = full_path(&st.stack, path);
    let mut fields = vec![("value".to_string(), FieldValue::U64(value))];
    fields.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    record(&mut st, EventKind::Counter, full, fields, Vec::new(), None);
}

/// Emits a gauge event at `path` (composed under the current span).
pub fn gauge(path: &str, value: f64) {
    gauge_with(path, value, &[]);
}

/// [`gauge`] with extra fields after the leading `value`.
pub fn gauge_with(path: &str, value: f64, extra: &[(&str, FieldValue)]) {
    if !enabled() || events_suppressed() {
        return;
    }
    let mut st = lock_state();
    let full = full_path(&st.stack, path);
    let mut fields = vec![("value".to_string(), FieldValue::F64(value))];
    fields.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    record(&mut st, EventKind::Gauge, full, fields, Vec::new(), None);
}

/// Adds one observation to the histogram at `path` (composed under the
/// current span, default bounds). Histograms accumulate in memory and
/// are emitted as single events on [`flush`] / [`uninstall`] /
/// [`install_sink`].
pub fn observe(path: &str, value: f64) {
    if !enabled() || events_suppressed() {
        return;
    }
    let mut st = lock_state();
    let full = full_path(&st.stack, path);
    st.histograms.entry(full).or_insert_with(Histogram::with_default_bounds).observe(value);
}

/// Installs a sink and enables tracing. Any previous sink is flushed
/// (accumulated histograms included) and replaced; the sequence counter,
/// span stack, and histogram store reset, so two runs in one process
/// produce comparable traces.
pub fn install_sink(new_sink: Box<dyn Sink>) {
    let mut st = lock_state();
    flush_histograms(&mut st);
    st.sink.flush();
    st.sink = new_sink;
    st.seq = 0;
    st.stack.clear();
    st.span_ids.clear();
    st.histograms.clear();
    // Fresh-run semantics extend to campaign membership: re-adopt
    // whatever the environment says (a spawning orchestrator sets it),
    // dropping any context a previous run set programmatically.
    st.trace = trace_state_from_env();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Installs a file-backed sink in the given format.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be created.
pub fn install_file(path: &std::path::Path, format: TraceFormat) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let boxed: Box<dyn Sink> = match format {
        TraceFormat::Jsonl => Box::new(JsonlSink::new(file)),
        TraceFormat::Pretty => Box::new(PrettySink::new(file)),
    };
    install_sink(boxed);
    Ok(())
}

/// Installs an in-memory sink (the test harness) and returns the handle
/// observing it.
pub fn install_memory() -> MemoryHandle {
    let (memory, handle) = MemorySink::new();
    install_sink(Box::new(memory));
    handle
}

/// Flushes accumulated histograms and buffered sink output without
/// disabling tracing.
pub fn flush() {
    let mut st = lock_state();
    flush_histograms(&mut st);
    st.sink.flush();
}

/// Flushes and removes the current sink, disabling tracing.
pub fn uninstall() {
    let mut st = lock_state();
    flush_histograms(&mut st);
    st.sink.flush();
    st.sink = Box::new(NullSink);
    st.stack.clear();
    st.span_ids.clear();
    st.trace = None;
    st.histograms.clear();
    ENABLED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global, so everything that installs a sink
    // lives in this single test fn (the test harness runs fns on
    // concurrent threads). Clock deltas are asserted as lower bounds
    // because sibling unit tests tick the same global clock.
    #[test]
    fn global_tracer_end_to_end() {
        let handle = install_memory();
        assert!(enabled());
        {
            let outer = span!("train", trainer = "proposed");
            clock::tick_forward(2);
            clock::tick_backward(1);
            {
                let inner = span!("epoch");
                gauge("loss", 0.5);
                counter("resets", 1);
                observe("drift", 0.25);
                let t = inner.finish();
                assert!(t.forward <= t.work());
            }
            let timing = outer.finish();
            assert!(timing.forward >= 2);
            assert!(timing.backward >= 1);
            assert!(timing.work() >= 3);
            assert!(timing.seconds >= 0.0);
        }
        uninstall();
        assert!(!enabled());
        // Emission after uninstall goes nowhere.
        gauge("ignored", 1.0);
        let events = handle.take();
        let kinds_paths: Vec<(EventKind, &str)> =
            events.iter().map(|e| (e.kind, e.path.as_str())).collect();
        assert_eq!(
            kinds_paths,
            vec![
                (EventKind::SpanOpen, "train"),
                (EventKind::SpanOpen, "train/epoch"),
                (EventKind::Gauge, "train/epoch/loss"),
                (EventKind::Counter, "train/epoch/resets"),
                (EventKind::SpanClose, "train/epoch"),
                (EventKind::SpanClose, "train"),
                (EventKind::Histogram, "train/epoch/drift"),
            ]
        );
        // Sequence numbers are dense and start at zero after install.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Span opens carry the macro's fields.
        assert_eq!(events[0].fields[0].0, "trainer");
        // Span closes put logical counters in fields, timing in meta.
        let close = &events[5];
        let field_keys: Vec<&str> = close.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(field_keys, vec!["forward", "backward", "flops", "attack_steps"]);
        let meta_keys: Vec<&str> = close.meta.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            meta_keys,
            vec!["wall_us", "busy_us", "pool_regions", "pool_tasks", "spawned_threads"]
        );
        assert!(close.without_meta().meta.is_empty());
        // Without a campaign context, no event carries a ctx.
        assert!(events.iter().all(|e| e.ctx.is_none()));

        // --- campaign context chain ---------------------------------
        let chain_ids = |events: &[Event]| -> Vec<Option<TraceContext>> {
            events.iter().filter(|e| e.kind == EventKind::SpanOpen).map(|e| e.ctx).collect()
        };
        let handle = install_memory();
        set_trace_root(7);
        {
            let outer = span!("sweep");
            let octx = outer.context().expect("root span has a context");
            assert_eq!(octx.trace_id, 7);
            assert_eq!(octx.parent, None);
            {
                let inner = span!("sweep/cell");
                let ictx = inner.context().expect("nested span has a context");
                assert_eq!(ictx.parent, Some(octx.span_id));
                assert_ne!(ictx.span_id, octx.span_id);
                // current_context names the innermost open span.
                let cur = current_context().expect("a span is open");
                assert_eq!(cur.span_id, ictx.span_id);
                assert_eq!(cur.parent, Some(octx.span_id));
                // A remote override reparents across the propagation
                // boundary instead of following the local stack.
                let remote = TraceContext { trace_id: 7, span_id: 0x99, parent: None };
                let r = span_with_remote("serve/request", Vec::new(), Some(remote));
                assert_eq!(r.context().unwrap().parent, Some(0x99));
            }
        }
        let first = handle.take();
        assert!(first.iter().filter(|e| e.kind == EventKind::SpanOpen).all(|e| e.ctx.is_some()));
        assert!(first.iter().filter(|e| e.kind == EventKind::SpanClose).all(|e| e.ctx.is_none()));
        // The id chain is a pure function of (trace id, event sequence):
        // replaying the same spans regrows the identical chain.
        let handle = install_memory();
        set_trace_root(7);
        {
            let _outer = span!("sweep");
            let _inner = span!("sweep/cell");
            let remote = TraceContext { trace_id: 7, span_id: 0x99, parent: None };
            let _r = span_with_remote("serve/request", Vec::new(), Some(remote));
        }
        let second = handle.take();
        assert_eq!(chain_ids(&first), chain_ids(&second));
        uninstall();
    }

    #[test]
    fn suppression_is_thread_local_and_nests() {
        assert!(!events_suppressed());
        {
            let _outer = suppress_events();
            assert!(events_suppressed());
            {
                let _inner = suppress_events();
                assert!(events_suppressed());
            }
            // Inner guard restores the (still suppressed) outer state.
            assert!(events_suppressed());
        }
        assert!(!events_suppressed());
        // A suppressed span still measures timing.
        let _guard = suppress_events();
        let s = span!("quiet");
        clock::tick_forward(1);
        assert!(s.finish().forward >= 1);
    }

    #[test]
    fn span_timing_work_sums_passes() {
        let t = SpanTiming::new(1.5, 4, 6);
        assert_eq!(t.work(), 10);
        assert_eq!(SpanTiming::default().work(), 0);
    }
}
