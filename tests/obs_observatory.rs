//! End-to-end acceptance of the performance observatory (`simpadv-obs`):
//! trace diff across thread counts on a real training run, flamegraph
//! weights reconciling with `trace summarize` totals, and the committed
//! `BENCH_table1.json` baseline gating a planted logical regression.
//!
//! The tracer-driven checks live in one test function on purpose: the
//! tracer is process-global, so a second concurrently-running traced
//! test in this binary would interleave its events into the streams
//! under comparison. The baseline-file check below touches no tracer
//! state and may run in parallel.

use simpadv::train::{ProposedTrainer, Trainer};
use simpadv::{EvalSuite, ModelSpec, TrainConfig};
use simpadv_data::{SynthConfig, SynthDataset};
use simpadv_obs::{
    build_tree, collapse, compare, diff, logical_digest, parse_artifact, parse_collapsed,
    prefix_totals, render_collapsed, DiffOptions, FlameWeight, Value, DEFAULT_WALL_THRESHOLD_PCT,
};
use simpadv_trace::{Event, Summary};

/// One fully traced tiny run: train the proposed defense, evaluate it.
fn traced_run(threads: usize) -> Vec<Event> {
    simpadv_runtime::set_global_threads(threads);
    let handle = simpadv_trace::install_memory();

    let train = SynthDataset::Mnist.generate(&SynthConfig::new(64, 1));
    let test = SynthDataset::Mnist.generate(&SynthConfig::new(40, 2));
    let mut clf = ModelSpec::small_mlp().build(0);
    let _ = ProposedTrainer::paper_defaults(0.3).train(
        &mut clf,
        &train,
        &TrainConfig::new(3, 0).with_batch_size(32),
    );
    let _ = EvalSuite::paper(0.3).run(&mut clf, &test);

    simpadv_trace::uninstall(); // flushes pending histograms into the sink
    handle.take()
}

#[test]
fn trace_diff_and_flame_reconcile_with_summarize_on_a_real_run() {
    let serial = traced_run(1);
    let parallel = traced_run(4);
    simpadv_runtime::set_global_threads(1);

    // -- `trace diff` across thread counts: zero logical differences --
    let report = diff(&serial, &parallel, &DiffOptions::default());
    assert!(
        report.logically_identical(),
        "threads 1 vs 4 diverged logically:\n{}",
        report.render()
    );

    // -- flame output is non-empty and telescopes back to the tree --
    let tree = build_tree(&serial).expect("a traced run yields a balanced span tree");
    let folded = render_collapsed(&collapse(&tree, FlameWeight::Wall));
    assert!(!folded.trim().is_empty(), "collapsed-stack output must not be empty");
    let totals = prefix_totals(&parse_collapsed(&folded).expect("own output parses"));

    // -- ...and its root weights equal `trace summarize` wall totals --
    let mut summary = Summary::default();
    for event in &serial {
        summary.fold(event);
    }
    for root in &tree.roots {
        assert_eq!(
            totals.get(&root.path.replace('/', ";")).copied(),
            Some(summary.spans[&root.path].wall_us_total),
            "flame weight for root '{}' must equal the summarize total",
            root.path
        );
    }

    // the digest of the logical projection is thread-invariant too
    assert_eq!(logical_digest(&serial), logical_digest(&parallel));
}

/// The committed baseline must self-compare clean, and the gate must
/// fail when a logical counter regresses — the executable version of
/// the CI perf-gate contract.
#[test]
fn committed_bench_baseline_gates_planted_regressions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_table1.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed baseline {path} must be readable: {e}"));
    let artifact =
        parse_artifact(&text).unwrap_or_else(|e| panic!("invalid baseline artifact: {e}"));
    assert_eq!(artifact.experiment, "table1");
    assert_eq!(artifact.schema_version, simpadv_obs::SCHEMA_VERSION);
    let trainers: Vec<&String> =
        artifact.rows.keys().filter(|id| id.starts_with("trainer/")).collect();
    assert!(!trainers.is_empty(), "baseline must carry per-trainer costs");
    assert!(
        artifact.rows.keys().any(|id| id.starts_with("accuracy/")),
        "baseline must carry final accuracies"
    );
    let gate = |cand| compare(&artifact, cand, DEFAULT_WALL_THRESHOLD_PCT);

    let clean = gate(&artifact);
    assert!(clean.passed(), "self-comparison regressed:\n{}", clean.render());

    let mut planted = artifact.clone();
    let Value::U64(flops) = artifact.rows[trainers[0]]["flops"] else { panic!("flops is a count") };
    planted.set(trainers[0], "flops", flops + 1);
    let caught = gate(&planted);
    assert!(!caught.passed(), "a planted flops regression must fail the gate");
    assert!(
        caught.regressions.iter().any(|r| r.contains("flops")),
        "the regression report must name the changed counter:\n{}",
        caught.render()
    );

    // the digest pins the trace's logical projection: corrupting it fails too
    let mut tampered = artifact.clone();
    tampered.set("trace", "digest", format!("{:016x}", 0u64));
    assert!(!gate(&tampered).passed());

    // sanity of the committed per-trainer rows themselves
    for id in trainers {
        let row = &artifact.rows[id];
        let (Value::U64(epochs), Value::U64(runs)) = (&row["epochs"], &row["runs"]) else {
            panic!("{id}: epochs and runs are counts")
        };
        assert!(epochs >= runs, "every run has at least one epoch span");
    }
}
