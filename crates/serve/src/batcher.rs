//! Dynamic request batching with backpressure and hot-swap.
//!
//! Requests land on a bounded queue. A single dispatcher takes the
//! oldest one plus whatever else is queued at that moment, up to
//! `batch_max`, runs ONE batched forward pass over them, and fans the
//! rows back out to the waiting callers. Dispatch is work-conserving: a
//! lone request never waits for company, and under load the requests
//! that queued during one forward form the next batch. The MLP/CNN
//! forward in eval mode is row-independent, so each row of the batched
//! logits is bitwise equal to a single-input forward — the determinism
//! suite asserts this.
//!
//! Hot-swap: the serving `(generation, Classifier)` pair sits behind a
//! mutex the dispatcher holds for the duration of one batch. A
//! [`Engine::rescan`] that finds a newer valid generation installs it
//! under that same mutex, so swaps land exactly on batch boundaries and
//! in-flight batches always finish on the generation they started on.
//! Boot and rescans share one scan ([`crate::model::newest_servable`]):
//! generations that fail to load, decode or restore are skipped (counter
//! `serve/generation_skipped`, and the engine's `skipped_generations`),
//! so the engine boots on, or keeps serving, the last valid one. Each
//! rescan starts above the generations already skipped for a reason a
//! re-read cannot change, so each of those is read and counted once.
//!
//! Backpressure: when the queue holds `queue_cap` requests,
//! [`Engine::submit`] fails fast with [`ServeError::Rejected`] — the
//! caller maps that to HTTP 503. Nothing is dropped silently.

use crate::error::ServeError;
use crate::model::newest_servable;
use crate::protocol::{PredictRequest, PredictResponse};
use crate::stats::{StatsRegistry, StatsSnapshot};
use simpadv_nn::{Classifier, GradientModel};
use simpadv_resilience::CheckpointStore;
use simpadv_tensor::Tensor;
use simpadv_trace::clock::WallTimer;
use simpadv_trace::{FieldValue, TraceContext};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Batching and backpressure knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest coalesced batch.
    pub batch_max: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { batch_max: 16, queue_cap: 64 }
    }
}

/// Outcome of one [`Engine::rescan`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SwapReport {
    /// Generation installed by this rescan, if any.
    pub installed: Option<u64>,
    /// Newer generations skipped because they failed to load, decode or
    /// restore.
    pub skipped: u64,
}

/// One response slot a submitting thread parks on.
struct ResponseSlot {
    result: Mutex<Option<Result<PredictResponse, ServeError>>>,
    ready: Condvar,
}

/// A queued request plus where to deliver its answer.
struct Pending {
    request: PredictRequest,
    timer: WallTimer,
    slot: std::sync::Arc<ResponseSlot>,
    /// Caller's trace context (from `X-Simpadv-Traceparent`), carried
    /// through coalescing so the request span opens under the remote
    /// parent even though a dispatcher thread executes it.
    remote: Option<TraceContext>,
}

/// Locks a mutex, recovering from poisoning: what the serve crate locks
/// (the engine's counters and replaceable model, the server's
/// connection map) is valid after every single update, so safe to reuse.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The batching inference engine. Shared between the listener threads
/// (submitting), the dispatcher (coalescing + forward), and the
/// checkpoint watcher (rescans).
pub struct Engine {
    cfg: BatchConfig,
    store: CheckpointStore,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    model: Mutex<(u64, Classifier)>,
    current_gen: AtomicU64,
    /// Where the next rescan starts: the serving generation, or past it
    /// the highest one skipped for good ([`crate::Scan::next_floor`]).
    scan_floor: AtomicU64,
    method: Mutex<String>,
    input_len: usize,
    stop: AtomicBool,
    stats: StatsRegistry,
    progress: Mutex<()>,
    progress_cv: Condvar,
}

impl Engine {
    /// Opens the engine on a checkpoint store, serving its newest
    /// servable generation. Newer generations that fail to load, decode
    /// or restore are skipped and counted, as a rescan skips them.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModel`] when the store holds no servable
    /// generation, [`ServeError::Persist`] on store failures.
    pub fn new(store: CheckpointStore, cfg: BatchConfig) -> Result<Self, ServeError> {
        let scan = newest_servable(&store, 0)?;
        let Some((generation, served, clf)) = scan.servable else {
            return Err(ServeError::NoModel(format!(
                "no servable generation in {}",
                store.dir().display()
            )));
        };
        let stats = StatsRegistry::new();
        stats.record_skipped_generations(scan.skipped);
        Ok(Engine {
            cfg,
            store,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            model: Mutex::new((generation, clf)),
            current_gen: AtomicU64::new(generation),
            scan_floor: AtomicU64::new(scan.next_floor),
            method: Mutex::new(served.method),
            input_len: simpadv_data::IMAGE_PIXELS,
            stop: AtomicBool::new(false),
            stats,
            progress: Mutex::new(()),
            progress_cv: Condvar::new(),
        })
    }

    /// Batching configuration this engine runs with.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Generation currently serving new batches.
    pub fn current_generation(&self) -> u64 {
        self.current_gen.load(Ordering::SeqCst)
    }

    /// Training method of the serving model (for `/healthz`).
    pub fn method(&self) -> String {
        lock(&self.method).clone()
    }

    /// Expected pixel count per request.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Statistics snapshot (latency percentiles, per-generation
    /// accuracy, occupancy).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// True once [`Engine::shutdown`] has been called.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Submits one request and blocks until its answer is ready.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the queue is at capacity (the
    /// request was NOT enqueued), [`ServeError::BadRequest`] on a wrong
    /// pixel count, [`ServeError::ShuttingDown`] during drain.
    pub fn submit(&self, request: PredictRequest) -> Result<PredictResponse, ServeError> {
        self.submit_traced(request, None)
    }

    /// [`Engine::submit`] with the caller's propagated trace context
    /// attached: the answered request's `serve/request` span opens under
    /// `remote` instead of the server's own span chain, stitching the
    /// request into the caller's campaign tree.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::submit`].
    pub fn submit_traced(
        &self,
        request: PredictRequest,
        remote: Option<TraceContext>,
    ) -> Result<PredictResponse, ServeError> {
        self.validate(&request)?;
        let slot =
            std::sync::Arc::new(ResponseSlot { result: Mutex::new(None), ready: Condvar::new() });
        {
            let mut q = lock(&self.queue);
            if self.stopping() {
                return Err(ServeError::ShuttingDown);
            }
            if q.len() >= self.cfg.queue_cap {
                drop(q);
                self.stats.record_rejected();
                self.notify_progress();
                return Err(ServeError::Rejected { capacity: self.cfg.queue_cap });
            }
            q.push_back(Pending {
                request,
                timer: WallTimer::start(),
                slot: std::sync::Arc::clone(&slot),
                remote,
            });
        }
        self.queue_cv.notify_all();
        let mut result = lock(&slot.result);
        loop {
            if let Some(outcome) = result.take() {
                return outcome;
            }
            result = match slot.ready.wait(result) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Runs batches synchronously over already-validated requests,
    /// bypassing the queue: used by tests and the determinism suite to
    /// drive the exact batch path without timing.
    ///
    /// Requests are processed in order, `batch_max` at a time, emitting
    /// the same trace events and stats the dispatcher would.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if any request fails validation (no
    /// work is done in that case).
    pub fn infer_batch(
        &self,
        requests: &[PredictRequest],
    ) -> Result<Vec<PredictResponse>, ServeError> {
        for request in requests {
            self.validate(request)?;
        }
        let mut out = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(self.cfg.batch_max.max(1)) {
            let timers: Vec<WallTimer> = chunk.iter().map(|_| WallTimer::start()).collect();
            let remotes = vec![None; chunk.len()];
            out.extend(self.forward_batch(chunk, &timers, &remotes));
        }
        Ok(out)
    }

    /// The dispatcher loop: coalesce, forward, deliver. Returns once
    /// [`Engine::shutdown`] has been called and the queue is drained.
    pub fn run_dispatch(&self) {
        loop {
            let first = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(p) = q.pop_front() {
                        break p;
                    }
                    if self.stopping() {
                        return;
                    }
                    q = match self.queue_cv.wait(q) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            };
            let batch = self.coalesce(first);
            self.dispatch(batch);
            self.notify_progress();
        }
    }

    /// Blocks until `target` requests have been answered (used by the
    /// CLI's `--requests` exit condition and by tests). Progress is
    /// signalled by the dispatcher; the periodic timeout guards against
    /// a missed wakeup.
    pub fn wait_served(&self, target: u64) {
        let mut guard = lock(&self.progress);
        while self.stats.served() < target && !self.stopping() {
            guard = match self.progress_cv.wait_timeout(guard, Duration::from_millis(50)) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Initiates shutdown: new submissions fail, the dispatcher drains
    /// the queue and exits, waiters are woken.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        self.notify_progress();
        // Fail any requests still queued after the dispatcher exits;
        // run_dispatch drains before honoring stop, so this only fires
        // for submissions that raced the flag.
        let drained: Vec<Pending> = lock(&self.queue).drain(..).collect();
        for pending in drained {
            deliver(&pending.slot, Err(ServeError::ShuttingDown));
        }
    }

    /// Rescans the checkpoint store for generations newer than the one
    /// currently serving; installs the newest one that restores at a
    /// batch boundary. Newer generations that fail to load, decode or
    /// restore are skipped and counted, each once: later rescans start
    /// above them. One that failed with an I/O error is read again.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the store cannot be listed.
    pub fn rescan(&self) -> Result<SwapReport, ServeError> {
        let scan = newest_servable(&self.store, self.scan_floor.load(Ordering::SeqCst))?;
        self.scan_floor.fetch_max(scan.next_floor, Ordering::SeqCst);
        self.stats.record_skipped_generations(scan.skipped);
        let Some((generation, served, clf)) = scan.servable else {
            return Ok(SwapReport { installed: None, skipped: scan.skipped });
        };
        *lock(&self.model) = (generation, clf);
        self.current_gen.store(generation, Ordering::SeqCst);
        *lock(&self.method) = served.method;
        self.stats.record_swapped_generation();
        simpadv_trace::counter_with(
            "serve/generation_swapped",
            1,
            &[("generation", FieldValue::U64(generation))],
        );
        Ok(SwapReport { installed: Some(generation), skipped: scan.skipped })
    }

    fn validate(&self, request: &PredictRequest) -> Result<(), ServeError> {
        if request.pixels.len() != self.input_len {
            return Err(ServeError::BadRequest(format!(
                "expected {} pixels, got {}",
                self.input_len,
                request.pixels.len()
            )));
        }
        if request.pixels.iter().any(|p| !p.is_finite()) {
            return Err(ServeError::BadRequest("pixels must be finite".to_string()));
        }
        Ok(())
    }

    /// Joins whatever is queued behind `first`, oldest first, up to
    /// `batch_max` in all, without waiting for more to arrive.
    fn coalesce(&self, first: Pending) -> Vec<Pending> {
        let mut q = lock(&self.queue);
        let more = q.len().min(self.cfg.batch_max.saturating_sub(1));
        let mut batch = Vec::with_capacity(1 + more);
        batch.push(first);
        batch.extend(q.drain(..more));
        batch
    }

    /// Runs one coalesced batch and delivers every answer.
    fn dispatch(&self, batch: Vec<Pending>) {
        let requests: Vec<PredictRequest> = batch.iter().map(|p| p.request.clone()).collect();
        let timers: Vec<WallTimer> = batch.iter().map(|p| p.timer).collect();
        let remotes: Vec<Option<TraceContext>> = batch.iter().map(|p| p.remote).collect();
        let responses = self.forward_batch(&requests, &timers, &remotes);
        for (pending, response) in batch.into_iter().zip(responses) {
            deliver(&pending.slot, Ok(response));
        }
    }

    /// One batched forward pass plus per-request accounting. The model
    /// mutex is held across the forward, so a concurrent rescan can only
    /// install a new generation between batches.
    fn forward_batch(
        &self,
        requests: &[PredictRequest],
        timers: &[WallTimer],
        remotes: &[Option<TraceContext>],
    ) -> Vec<PredictResponse> {
        let n = requests.len();
        let mut pixels = Vec::with_capacity(n * self.input_len);
        for request in requests {
            pixels.extend_from_slice(&request.pixels);
        }
        let x = Tensor::from_vec(pixels, &[n, self.input_len]);
        let mut model = lock(&self.model);
        let (generation, clf) = &mut *model;
        let generation = *generation;
        let span = simpadv_trace::span!("serve/batch", generation = generation, size = n as u64);
        let logits = clf.logits(&x);
        drop(span);
        drop(model);
        let predictions = logits.argmax_rows();
        self.stats.record_batch(n);
        simpadv_trace::observe("serve/batch_occupancy", n as f64);
        let mut out = Vec::with_capacity(n);
        for (i, request) in requests.iter().enumerate() {
            let prediction = predictions[i];
            let row = logits.row(i).into_vec();
            let correct = request.label.map(|l| l == prediction);
            // Opened via span_with_remote so a propagated client
            // context re-parents the span under the caller; without a
            // remote this is identical to the span! macro.
            let request_span = simpadv_trace::span_with_remote(
                "serve/request",
                vec![
                    ("generation".to_string(), FieldValue::U64(generation)),
                    ("adversarial".to_string(), FieldValue::Bool(request.adversarial)),
                    ("prediction".to_string(), FieldValue::U64(prediction as u64)),
                ],
                remotes.get(i).copied().flatten(),
            );
            drop(request_span);
            let mut fields: Vec<(&str, FieldValue)> = vec![
                ("generation", FieldValue::U64(generation)),
                ("adversarial", FieldValue::Bool(request.adversarial)),
            ];
            if let Some(label) = request.label {
                fields.push(("label", FieldValue::U64(label as u64)));
            }
            simpadv_trace::counter_with("serve/served", 1, &fields);
            if correct == Some(true) {
                simpadv_trace::counter_with("serve/correct", 1, &fields);
            }
            self.stats.record_request(
                generation,
                request.adversarial,
                request.label,
                prediction,
                timers[i].elapsed_us(),
            );
            out.push(PredictResponse { prediction, logits: row, generation });
        }
        out
    }

    fn notify_progress(&self) {
        drop(lock(&self.progress));
        self.progress_cv.notify_all();
    }
}

/// Places an outcome in a slot and wakes its waiter.
fn deliver(slot: &ResponseSlot, outcome: Result<PredictResponse, ServeError>) {
    let mut result = lock(&slot.result);
    *result = Some(outcome);
    drop(result);
    slot.ready.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServedModel;
    use simpadv::ModelSpec;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("simpadv-serve-batcher-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    fn publish_tiny(store: &CheckpointStore, seed: u64) -> u64 {
        let spec = ModelSpec::small_mlp();
        let clf = spec.build(seed);
        ServedModel::capture(&spec, &clf, "mnist", "test").publish(store).unwrap()
    }

    fn clean_request(seed: u64) -> PredictRequest {
        let pixels = (0..simpadv_data::IMAGE_PIXELS)
            .map(|i| (((i as u64 * 31 + seed * 7) % 255) as f32) / 255.0)
            .collect();
        PredictRequest { pixels, label: Some((seed % 10) as usize), adversarial: false }
    }

    /// A queued request numbered by its label.
    fn pending(n: usize) -> Pending {
        Pending {
            request: PredictRequest { pixels: Vec::new(), label: Some(n), adversarial: false },
            timer: WallTimer::start(),
            slot: std::sync::Arc::new(ResponseSlot {
                result: Mutex::new(None),
                ready: Condvar::new(),
            }),
            remote: None,
        }
    }

    fn numbers<'a>(batch: impl IntoIterator<Item = &'a Pending>) -> Vec<usize> {
        batch.into_iter().map(|p| p.request.label.unwrap()).collect()
    }

    #[test]
    fn coalesce_takes_what_is_queued_and_never_waits() {
        let store = temp_store("coalesce");
        publish_tiny(&store, 6);
        let engine = Engine::new(store, BatchConfig { batch_max: 4, queue_cap: 16 }).unwrap();
        // Nothing else queues or signals here, so a wait for company would
        // never end: the first request has to go alone, at once.
        assert_eq!(numbers(&engine.coalesce(pending(0))), [0]);
        for k in 1..=6 {
            lock(&engine.queue).extend((1..=k).map(pending));
            let taken = (k + 1).min(4);
            assert_eq!(numbers(&engine.coalesce(pending(0))), (0..taken).collect::<Vec<_>>());
            // The rest stay queued, in arrival order.
            let left: Vec<Pending> = lock(&engine.queue).drain(..).collect();
            assert_eq!(numbers(&left), (taken..=k).collect::<Vec<_>>(), "{k} queued");
        }
    }

    #[test]
    fn engine_refuses_to_start_without_a_model() {
        let store = temp_store("empty");
        let err = Engine::new(store, BatchConfig::default())
            .err()
            .expect("engine must refuse an empty store");
        assert!(matches!(err, ServeError::NoModel(_)), "{err}");
    }

    #[test]
    fn wrong_pixel_count_is_a_bad_request() {
        let store = temp_store("validate");
        publish_tiny(&store, 1);
        let engine = Engine::new(store, BatchConfig::default()).unwrap();
        let bad = PredictRequest { pixels: vec![0.0; 3], label: None, adversarial: false };
        let err = engine.infer_batch(&[bad]).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    }

    #[test]
    fn batched_rows_match_single_request_inference() {
        let store = temp_store("rows");
        publish_tiny(&store, 2);
        let engine = Engine::new(store, BatchConfig::default()).unwrap();
        let requests: Vec<PredictRequest> = (0..5).map(clean_request).collect();
        let batched = engine.infer_batch(&requests).unwrap();
        for (i, request) in requests.iter().enumerate() {
            let single = engine.infer_batch(std::slice::from_ref(request)).unwrap();
            assert_eq!(single[0].prediction, batched[i].prediction);
            let a: Vec<u32> = single[0].logits.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = batched[i].logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "row {i} must be bitwise identical");
        }
    }

    #[test]
    fn rescan_installs_newer_generation_and_reports_it() {
        let store = temp_store("swap");
        let dir = store.dir().to_path_buf();
        publish_tiny(&store, 3);
        let engine = Engine::new(store, BatchConfig::default()).unwrap();
        let g1 = engine.current_generation();
        let publisher = CheckpointStore::open(dir).unwrap();
        let g2 = publish_tiny(&publisher, 4);
        assert!(g2 > g1);
        let report = engine.rescan().unwrap();
        assert_eq!(report, SwapReport { installed: Some(g2), skipped: 0 });
        assert_eq!(engine.current_generation(), g2);
        // A second rescan with nothing new is a no-op.
        let report = engine.rescan().unwrap();
        assert_eq!(report, SwapReport { installed: None, skipped: 0 });
    }

    #[test]
    fn responses_carry_the_serving_generation() {
        let store = temp_store("gen-tag");
        publish_tiny(&store, 5);
        let engine = Engine::new(store, BatchConfig::default()).unwrap();
        let out = engine.infer_batch(&[clean_request(0)]).unwrap();
        assert_eq!(out[0].generation, engine.current_generation());
        let snap = engine.stats();
        assert_eq!(snap.served, 1);
        assert_eq!(snap.batch_occupancy.batches, 1);
        assert_eq!(snap.batch_occupancy.max, 1);
    }
}
