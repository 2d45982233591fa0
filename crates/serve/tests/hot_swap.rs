//! Hot-swap fault tolerance: a checkpoint generation corrupted mid-write
//! must be skipped — the server keeps serving the last valid generation,
//! the skipped-generation counter increments, and no request is dropped.
//! Boot goes through the same scan, so a bad newest generation at start
//! degrades to the last valid one instead of failing the boot.
//!
//! This binary owns the process-global tracer (memory sink) and the
//! failpoint registry; keeping it separate from other serve tests means
//! neither piece of global state can bleed across test binaries. Its
//! tests take [`trace_lock`] so they do not share the tracer either.

use serde::{Serialize, Value};
use simpadv::ModelSpec;
use simpadv_resilience::{failpoint, CheckpointStore};
use simpadv_serve::{
    client, BatchConfig, Engine, PredictRequest, ServeConfig, ServedModel, Server, SwapReport,
};
use simpadv_trace::{Event, FieldValue};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that install the process-global tracer.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The `serve/generation_skipped` counters in `events`, by generation.
fn skipped_generations(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter(|e| e.path == "serve/generation_skipped")
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match v {
                FieldValue::U64(g) if k.as_str() == "generation" => Some(*g),
                _ => None,
            })
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simpadv-serve-hotswap-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn publish(store: &CheckpointStore, seed: u64) -> u64 {
    let spec = ModelSpec::small_mlp();
    let clf = spec.build(seed);
    ServedModel::capture(&spec, &clf, "mnist", "test").publish(store).unwrap()
}

fn request(seed: u64) -> PredictRequest {
    let pixels = (0..simpadv_data::IMAGE_PIXELS)
        .map(|i| (((i as u64).wrapping_mul(37).wrapping_add(seed * 11) % 251) as f32) / 251.0)
        .collect();
    PredictRequest {
        pixels,
        label: Some((seed % 10) as usize),
        adversarial: seed.is_multiple_of(3),
    }
}

#[test]
fn corrupted_generation_is_skipped_and_serving_continues() {
    let _trace = trace_lock();
    let handle = simpadv_trace::install_memory();
    let dir = temp_dir("corrupt");
    let store = CheckpointStore::open(&dir).unwrap();
    publish(&store, 1);

    let mut cfg = ServeConfig::for_dir(&dir);
    cfg.batch = BatchConfig { batch_max: 4, queue_cap: 32 };
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();
    client::wait_ready(&addr, 5_000_000).unwrap();
    let g1 = server.engine().current_generation();

    // Baseline traffic on generation 1.
    for seed in 0..4 {
        match client::predict(&addr, &request(seed)).unwrap() {
            client::PredictOutcome::Predicted(resp) => assert_eq!(resp.generation, g1),
            client::PredictOutcome::Rejected(_) => panic!("queue cannot be full"),
        }
    }

    // A new generation lands corrupted: the `corrupt` failpoint flips a
    // payload byte inside the atomic write, so the sealed envelope's
    // CRC check fails on load — exactly a torn/corrupted mid-write.
    failpoint::arm("corrupt", "flip:40").unwrap();
    let publisher = CheckpointStore::open(&dir).unwrap();
    let g2 = publish(&publisher, 2);
    failpoint::disarm_all();

    let report = client::rescan(&addr).unwrap();
    assert_eq!(
        report,
        SwapReport { installed: None, skipped: 1 },
        "the corrupted generation {g2} must be skipped, not installed"
    );
    assert_eq!(server.engine().current_generation(), g1);
    // Store writes are atomic, so the damage cannot heal: a second
    // rescan starts above the damaged generation instead of re-reading it.
    let report = client::rescan(&addr).unwrap();
    assert_eq!(report, SwapReport { installed: None, skipped: 0 }, "generation {g2} is read once");

    // Traffic continues on the old generation with zero drops.
    for seed in 4..8 {
        match client::predict(&addr, &request(seed)).unwrap() {
            client::PredictOutcome::Predicted(resp) => assert_eq!(resp.generation, g1),
            client::PredictOutcome::Rejected(_) => panic!("no request may be shed"),
        }
    }

    // The scrape endpoint mirrors the counters seen so far: the skip,
    // the per-generation traffic split, and the summary quantiles.
    let exposition = client::metrics(&addr).unwrap();
    assert!(exposition.contains("simpadv_serve_skipped_generations_total 1"), "{exposition}");
    assert!(exposition.contains("simpadv_serve_requests_total 8"), "{exposition}");
    assert!(
        exposition.contains(&format!(
            "simpadv_serve_generation_requests_total{{generation=\"{g1}\",traffic=\"clean\"}}"
        )),
        "{exposition}"
    );
    assert!(exposition.contains("simpadv_serve_latency_us{quantile=\"0.99\"}"), "{exposition}");

    // A subsequent intact generation still swaps in.
    let g3 = publish(&publisher, 3);
    let report = client::rescan(&addr).unwrap();
    assert_eq!(report.installed, Some(g3));
    match client::predict(&addr, &request(8)).unwrap() {
        client::PredictOutcome::Predicted(resp) => assert_eq!(resp.generation, g3),
        client::PredictOutcome::Rejected(_) => panic!("no request may be shed"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.served, 9, "every submitted request must be answered");
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.skipped_generations, 1);
    assert_eq!(stats.swapped_generations, 1);

    // The monitoring plane saw the skip: exactly one
    // serve/generation_skipped counter, tagged with the generation.
    let events = handle.take();
    simpadv_trace::uninstall();
    assert_eq!(skipped_generations(&events), [g2], "one skip event, naming the damaged generation");
    let swaps = events.iter().filter(|e| e.path == "serve/generation_swapped").count();
    assert_eq!(swaps, 1, "one successful swap expected");
}

#[test]
fn boot_skips_a_newest_generation_that_does_not_restore() {
    let _trace = trace_lock();
    let handle = simpadv_trace::install_memory();
    let store = CheckpointStore::open(temp_dir("boot-misfit")).unwrap();
    let g1 = publish(&store, 1);
    // Generation 2 decodes, but the MLP's weights do not fit a CNN spec.
    let spec = ModelSpec::default_mlp();
    let mlp = ServedModel::capture(&spec, &spec.build(2), "mnist", "test");
    let g2 = ServedModel { spec: ModelSpec::small_cnn(), ..mlp }.publish(&store).unwrap();

    let engine = Engine::new(store, BatchConfig::default()).unwrap();
    assert_eq!(engine.current_generation(), g1, "boot serves the last valid generation");
    assert_eq!(engine.stats().skipped_generations, 1);
    assert_eq!(engine.infer_batch(&[request(0)]).unwrap()[0].generation, g1);
    // rescans start above the misfit boot already skipped
    assert_eq!(engine.rescan().unwrap(), SwapReport { installed: None, skipped: 0 });

    let events = handle.take();
    simpadv_trace::uninstall();
    assert_eq!(skipped_generations(&events), [g2], "one skip event, naming the misfit generation");
}

/// `model`'s payload with the last value of its first `data` array, the
/// first weight's, dropped: it parses, but that tensor's data no longer
/// fills its shape.
fn short_data_payload(model: &ServedModel) -> Vec<u8> {
    fn drop_last_data_value(value: &mut Value) -> bool {
        match value {
            Value::Object(entries) => entries.iter_mut().any(|(key, v)| match v {
                Value::Array(items) if key == "data" => items.pop().is_some(),
                _ => drop_last_data_value(v),
            }),
            Value::Array(items) => items.iter_mut().any(drop_last_data_value),
            _ => false,
        }
    }
    let mut value = model.to_value();
    assert!(drop_last_data_value(&mut value));
    serde_json::to_string(&value).unwrap().into_bytes()
}

#[test]
fn a_generation_whose_weights_do_not_fill_their_shape_is_skipped_once() {
    let _trace = trace_lock();
    let handle = simpadv_trace::install_memory();
    let dir = temp_dir("short-data");
    let store = CheckpointStore::open(&dir).unwrap();
    let g1 = publish(&store, 1);
    let spec = ModelSpec::small_mlp();
    let model = ServedModel::capture(&spec, &spec.build(2), "mnist", "test");
    let g2 = store.save(&short_data_payload(&model)).unwrap();

    let engine = Engine::new(store, BatchConfig::default()).unwrap();
    assert_eq!(engine.current_generation(), g1, "boot serves the last valid generation");
    assert_eq!(engine.stats().skipped_generations, 1);
    assert_eq!(engine.infer_batch(&[request(0)]).unwrap()[0].generation, g1);

    // The same damage after boot: a rescan skips it, the next starts above it.
    let g3 = CheckpointStore::open(&dir).unwrap().save(&short_data_payload(&model)).unwrap();
    assert_eq!(engine.rescan().unwrap(), SwapReport { installed: None, skipped: 1 });
    assert_eq!(engine.rescan().unwrap(), SwapReport { installed: None, skipped: 0 });
    assert_eq!(engine.stats().skipped_generations, 2, "each generation is counted once");
    assert_eq!(engine.current_generation(), g1);

    let events = handle.take();
    simpadv_trace::uninstall();
    assert_eq!(skipped_generations(&events), [g2, g3]);
}
