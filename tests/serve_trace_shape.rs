//! The server's logical trace stream must be shape-identical at any
//! thread count: same event kinds, paths and fields in the same order,
//! with only the quarantined wall-clock `meta` allowed to differ.
//!
//! This binary owns the process-global tracer (memory sink); no other
//! test may run in it.

use simpadv::ModelSpec;
use simpadv_data::{SynthConfig, SynthDataset};
use simpadv_runtime::set_global_threads;
use simpadv_serve::{BatchConfig, Engine, PredictRequest, ServedModel};
use simpadv_trace::{Event, EventKind, FieldValue};

/// An event's logical shape: kind, path, and fields — no seq (runs share
/// one process counter), no meta (wall clock is machine-dependent).
fn shape(e: &Event) -> (EventKind, String, Vec<(String, FieldValue)>) {
    (e.kind, e.path.clone(), e.fields.clone())
}

#[test]
fn logical_trace_stream_is_thread_invariant() {
    let handle = simpadv_trace::install_memory();
    let data = SynthDataset::Fashion.generate(&SynthConfig::new(8, 11));
    let requests: Vec<PredictRequest> = (0..data.len())
        .map(|i| PredictRequest {
            pixels: data.images().row(i).into_vec(),
            label: Some(data.labels()[i]),
            adversarial: i % 3 == 0,
        })
        .collect();

    let run = |threads: usize| {
        set_global_threads(threads);
        let dir = std::env::temp_dir().join(format!("simpadv-serve-trace-shape-{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = simpadv_resilience::CheckpointStore::open(&dir).unwrap();
        let spec = ModelSpec::small_mlp();
        ServedModel::capture(&spec, &spec.build(3), "fashion", "test").publish(&store).unwrap();
        let engine = Engine::new(store, BatchConfig { batch_max: 3, queue_cap: 16 }).unwrap();
        handle.take(); // drop startup events (store paths differ per run)
        engine.infer_batch(&requests).unwrap();
        let shapes: Vec<_> = handle.take().iter().map(shape).collect();
        shapes
    };

    let serial = run(1);
    let parallel = run(4);
    assert!(!serial.is_empty(), "the serving path must emit trace events");
    assert!(
        serial.iter().any(|(_, path, _)| path == "serve/batch"),
        "batch spans expected in {serial:?}"
    );
    assert!(
        serial.iter().any(|(_, path, _)| path == "serve/served"),
        "served counters expected in {serial:?}"
    );
    assert_eq!(serial, parallel, "logical trace stream diverged across thread counts");

    set_global_threads(1);
}
