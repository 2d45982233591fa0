//! Cross-crate telemetry determinism.
//!
//! The observability contract (DESIGN.md, "Observability") says a trace's
//! *logical* fields — the span tree, event order, counters, gauges and
//! histograms — are bitwise identical for any `--threads` value; only the
//! `meta` side-channel (wall-clock micros, pool statistics) may differ.
//! This test drives the full stack (proposed training, the Table I
//! evaluation battery, the masking audit) under an in-memory sink at 1
//! and 4 threads and compares the streams event by event.
//!
//! One test function on purpose: the tracer is process-global, so a
//! second concurrently-running test in this binary would interleave its
//! events into the stream under comparison.

use simpadv::train::{ProposedTrainer, Trainer};
use simpadv::{audit_masking, EvalSuite, ModelSpec, TrainConfig, TrainReport};
use simpadv_data::{SynthConfig, SynthDataset};
use simpadv_trace::{Event, EventKind, Summary};

/// One fully traced run: train the proposed defense (with a persistent-
/// example reset at epoch 2), evaluate it, audit it. Returns the emitted
/// events and the training report.
fn traced_run(threads: usize) -> (Vec<Event>, TrainReport) {
    simpadv_runtime::set_global_threads(threads);
    let handle = simpadv_trace::install_memory();

    let train = SynthDataset::Mnist.generate(&SynthConfig::new(64, 1));
    let test = SynthDataset::Mnist.generate(&SynthConfig::new(40, 2));
    let mut clf = ModelSpec::small_mlp().build(0);
    // reset_period 2 over 3 epochs: the epoch-2 reset (and its `reset`
    // counter plus post-reset drift gauges) is part of the trace
    let report = ProposedTrainer::new(0.3, 0.03, 2).train(
        &mut clf,
        &train,
        &TrainConfig::new(3, 0).with_batch_size(32),
    );
    let _ = EvalSuite::paper(0.3).run(&mut clf, &test);
    let _ = audit_masking(&mut clf, &test, 0.3, 7);

    simpadv_trace::uninstall(); // flushes pending histograms into the sink
    (handle.take(), report)
}

#[test]
fn telemetry_is_logically_identical_across_thread_counts() {
    let (serial, report_serial) = traced_run(1);
    let (parallel, report_parallel) = traced_run(4);
    simpadv_runtime::set_global_threads(1);

    // -- logical determinism: identical streams once meta is stripped --
    assert_eq!(serial.len(), parallel.len(), "event counts diverged");
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.without_meta(), b.without_meta(), "logical fields diverged at seq {}", a.seq);
    }

    // -- the stream contains every subsystem that was exercised --
    let paths: Vec<&str> = serial.iter().map(|e| e.path.as_str()).collect();
    for expected in [
        "train",
        "train/epoch",
        "train/epoch/loss",
        "train/epoch/drift_mean_linf",
        "train/epoch/drift_max_linf",
        "train/epoch/boundary_frac",
        "train/epoch/reset",
        "train/epoch/signed_step",
        "eval",
        "eval/accuracy",
        "audit",
        "audit/check",
    ] {
        assert!(paths.contains(&expected), "missing path {expected} in {paths:#?}");
    }
    // four audit checks, one counter each
    let audit_checks =
        serial.iter().filter(|e| e.kind == EventKind::Counter && e.path == "audit/check").count();
    assert_eq!(audit_checks, 4);

    // -- TrainReport regression: span-clock work is thread invariant --
    assert_eq!(report_serial.epoch_work, report_parallel.epoch_work);
    assert_eq!(report_serial.epoch_losses, report_parallel.epoch_losses);
    assert!(report_serial.mean_epoch_work() > 0.0);
    assert!(report_serial.mean_epoch_seconds() > 0.0);

    // -- JSONL round-trip and summarization --
    let jsonl: String = serial.iter().map(|e| e.to_json_line() + "\n").collect();
    let parsed = simpadv_obs::read_events(&jsonl).expect("emitted events must satisfy the schema");
    let mut summary = Summary::default();
    for event in &parsed {
        summary.fold(event);
    }
    assert_eq!(summary.events, serial.len() as u64);
    assert!(summary.spans.contains_key("train"), "spans: {:?}", summary.spans.keys());
    let epoch = &summary.spans["train/epoch"];
    assert_eq!(epoch.count, 3);
    assert!(epoch.forward > 0 && epoch.backward > 0);
    let rendered = summary.render();
    assert!(rendered.contains("train/epoch"));
    assert!(rendered.contains("events"));
}
