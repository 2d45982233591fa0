//! End-to-end acceptance for the serving subsystem: an in-process server
//! takes concurrent clean + PGD traffic while a new checkpoint
//! generation lands in the watched directory mid-run.
//!
//! Asserts the four contract points:
//! 1. every response is bitwise identical to offline single-input
//!    inference on the generation that answered it;
//! 2. the hot swap happens without a single rejected in-flight request;
//! 3. the per-generation clean/adversarial accuracy counters in the
//!    trace match an offline evaluation of the same inputs, and the
//!    `serve/batch` spans the connection threads close cover every
//!    request served;
//! 4. the benchmark artifact records latency percentiles with all
//!    wall-clock numbers outside its logical rows.
//!
//! This binary owns the process-global tracer (memory sink).

use simpadv::ModelSpec;
use simpadv_attacks::{Attack, Pgd};
use simpadv_data::{SynthConfig, SynthDataset, CLASS_COUNT};
use simpadv_nn::{Classifier, GradientModel};
use simpadv_obs::{Artifact, Value};
use simpadv_resilience::CheckpointStore;
use simpadv_runtime::Runtime;
use simpadv_serve::{
    client, BatchConfig, PredictRequest, PredictResponse, ServeConfig, ServedModel, Server,
};
use simpadv_trace::clock::WallTimer;
use simpadv_trace::{Event, EventKind, FieldValue};
use std::collections::BTreeMap;

const SAMPLES: usize = 12;
const ROUNDS: usize = 2;

fn publish(store: &CheckpointStore, clf: &Classifier, spec: &ModelSpec) -> u64 {
    ServedModel::capture(spec, clf, "mnist", "test").publish(store).unwrap()
}

fn logits_matrix(clf: &mut Classifier, x: &simpadv_tensor::Tensor) -> Vec<f32> {
    clf.logits(x).into_vec()
}

fn row_bits(matrix: &[f32], row: usize) -> Vec<u32> {
    matrix[row * CLASS_COUNT..(row + 1) * CLASS_COUNT].iter().map(|v| v.to_bits()).collect()
}

#[test]
fn hot_swap_under_concurrent_adversarial_traffic() {
    let handle = simpadv_trace::install_memory();
    let dir = std::env::temp_dir().join("simpadv-serve-e2e");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();

    let spec = ModelSpec::small_mlp();
    let mut model_g1 = spec.build(1);
    let mut model_g2 = spec.build(2);
    let g1 = publish(&store, &model_g1, &spec);

    // Fixed request pools: clean inputs and their PGD-perturbed twins
    // (crafted against generation 1 — the inputs stay fixed even after
    // the swap; only the answering generation changes).
    let data = SynthDataset::Mnist.generate(&SynthConfig::new(SAMPLES, 21));
    let labels = data.labels().to_vec();
    let eps = SynthDataset::Mnist.paper_epsilon();
    let adv = {
        let mut crafting = spec.build(1);
        Pgd::new(eps, 4, 77).perturb(&mut crafting, data.images(), &labels)
    };

    // Offline single-input references for both generations and pools.
    let clean_g1 = logits_matrix(&mut model_g1, data.images());
    let adv_g1 = logits_matrix(&mut model_g1, &adv);
    let clean_g2 = logits_matrix(&mut model_g2, data.images());
    let adv_g2 = logits_matrix(&mut model_g2, &adv);

    let mut cfg = ServeConfig::for_dir(&dir);
    cfg.batch = BatchConfig { batch_max: 4, queue_cap: 64 };
    cfg.watch_interval_us = 2_000; // the server watches the directory itself
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();
    client::wait_ready(&addr, 5_000_000).unwrap();

    // Concurrently: (a) a closed-loop client mixing clean and
    // adversarial traffic, (b) a publisher dropping generation 2 into
    // the watched directory and waiting for the watcher to install it.
    let publisher_store = CheckpointStore::open(&dir).unwrap();
    let send = |sample: usize, adversarial: bool| -> PredictResponse {
        let pixels = if adversarial {
            adv.row(sample).into_vec()
        } else {
            data.images().row(sample).into_vec()
        };
        let request = PredictRequest { pixels, label: Some(labels[sample]), adversarial };
        match client::predict(&addr, &request).unwrap() {
            client::PredictOutcome::Predicted(resp) => resp,
            client::PredictOutcome::Rejected(_) => {
                panic!("no in-flight request may be rejected during the swap")
            }
        }
    };
    let rt = Runtime::new(2);
    let (responses, g2) = rt.par_join(
        || {
            let mut responses: Vec<(usize, bool, PredictResponse)> = Vec::new();
            for round in 0..ROUNDS {
                for sample in 0..SAMPLES {
                    for adversarial in [false, true] {
                        let _ = round;
                        responses.push((sample, adversarial, send(sample, adversarial)));
                    }
                }
            }
            responses
        },
        || {
            let g2 = publish(&publisher_store, &model_g2, &spec);
            // wait for the watcher to install it
            let timer = WallTimer::start();
            loop {
                if client::healthz(&addr).unwrap().generation == g2 {
                    return g2;
                }
                assert!(timer.elapsed_us() < 10_000_000, "watcher never installed gen {g2}");
            }
        },
    );
    assert!(g2 > g1);

    // Post-swap traffic is guaranteed to land on generation 2.
    let mut all = responses;
    for adversarial in [false, true] {
        let resp = send(0, adversarial);
        assert_eq!(resp.generation, g2, "post-swap traffic must serve the new generation");
        all.push((0, adversarial, resp));
    }

    // (1) Every response matches offline inference on its generation,
    // bit for bit.
    for (sample, adversarial, resp) in &all {
        let reference = match (resp.generation == g1, *adversarial) {
            (true, false) => &clean_g1,
            (true, true) => &adv_g1,
            (false, false) => &clean_g2,
            (false, true) => &adv_g2,
        };
        assert!(resp.generation == g1 || resp.generation == g2, "unknown generation");
        let got: Vec<u32> = resp.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got,
            row_bits(reference, *sample),
            "response for sample {sample} (adversarial={adversarial}) deviated from \
             offline inference on generation {}",
            resp.generation
        );
    }

    // (2) The swap shed nothing: every submitted request was answered.
    let snapshot = server.shutdown();
    let expected_total = (ROUNDS * SAMPLES * 2 + 2) as u64;
    assert_eq!(snapshot.served, expected_total);
    assert_eq!(snapshot.rejected, 0, "hot swap must not reject in-flight requests");
    assert_eq!(snapshot.swapped_generations, 1);
    assert_eq!(snapshot.skipped_generations, 0);

    // (3) Trace counters per (generation, traffic) match an offline
    // evaluation of the same inputs.
    let mut expected: BTreeMap<(u64, bool), (u64, u64)> = BTreeMap::new(); // (served, correct)
    for (sample, adversarial, resp) in &all {
        let reference = match (resp.generation == g1, *adversarial) {
            (true, false) => &clean_g1,
            (true, true) => &adv_g1,
            (false, false) => &clean_g2,
            (false, true) => &adv_g2,
        };
        let row = &reference[sample * CLASS_COUNT..(sample + 1) * CLASS_COUNT];
        let offline_pred =
            (0..CLASS_COUNT).max_by(|a, b| row[*a].partial_cmp(&row[*b]).unwrap()).unwrap();
        assert_eq!(resp.prediction, offline_pred, "prediction must match offline argmax");
        let cell = expected.entry((resp.generation, *adversarial)).or_insert((0, 0));
        cell.0 += 1;
        if offline_pred == labels[*sample] {
            cell.1 += 1;
        }
    }
    let events = handle.take();
    let field = |event: &Event, name: &str| {
        event.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    };
    let mut traced: BTreeMap<(u64, bool), (u64, u64)> = BTreeMap::new();
    for event in &events {
        if event.path != "serve/served" && event.path != "serve/correct" {
            continue;
        }
        let Some(FieldValue::U64(generation)) = field(event, "generation") else { continue };
        let Some(FieldValue::Bool(adversarial)) = field(event, "adversarial") else { continue };
        let Some(FieldValue::U64(value)) = field(event, "value") else { continue };
        let cell = traced.entry((generation, adversarial)).or_insert((0, 0));
        if event.path == "serve/served" {
            cell.0 += value;
        } else {
            cell.1 += value;
        }
    }
    assert_eq!(traced, expected, "trace counters must match the offline evaluation");
    // Connection threads run the batches, one at a time under the model
    // lock, so each `serve/batch` span closes before the next opens; the
    // sizes of the closed batches add up to every request served.
    let (mut open_size, mut batched) = (None, 0);
    for event in events.iter().filter(|e| e.path == "serve/batch") {
        match event.kind {
            EventKind::SpanOpen => {
                assert_eq!(open_size, None, "batch spans must not overlap");
                let Some(FieldValue::U64(size)) = field(event, "size") else {
                    panic!("a batch span without a size: {event:?}")
                };
                open_size = Some(size);
            }
            EventKind::SpanClose => batched += open_size.take().expect("a close follows an open"),
            _ => {}
        }
    }
    assert_eq!(open_size, None, "every batch span closes");
    assert_eq!(batched, expected_total, "closed batches must cover every request served");
    // ... and the /stats registry agrees with the trace.
    for row in &snapshot.generations {
        let key = (row.generation, row.traffic == "adversarial");
        assert_eq!(
            (row.requests, row.correct),
            *expected.get(&key).unwrap_or(&(0, 0)),
            "stats row {row:?} disagrees with the offline evaluation"
        );
    }

    // (4) The artifact records latency percentiles, wall quarantined in
    // meta; the logical rows reproduce under self-comparison.
    let mut artifact = Artifact::new("serve");
    let scale = [
        ("requests", expected_total),
        ("clients", 1),
        ("samples", SAMPLES as u64),
        ("adv_permille", 500),
        ("batch_max", 4),
        ("queue_cap", 64),
        ("seed", 21),
    ];
    for (field, v) in scale {
        artifact.set("scale", field, v);
    }
    artifact.set("scale", "attack", "pgd");
    artifact.set("server", "served", snapshot.served);
    artifact.set("server", "skipped_generations", snapshot.skipped_generations);
    for g in &snapshot.generations {
        let row = format!("generation/{}/{}", g.generation, g.traffic);
        artifact.set(&row, "requests", g.requests);
        artifact.set(&row, "labeled", g.labeled);
        artifact.set(&row, "correct", g.correct);
    }
    artifact.set_warn("run", "throughput_rps", 0.0);
    artifact.set_warn("run", "rejected", snapshot.rejected);
    let l = &snapshot.latency_us;
    let latencies = [("p50", l.p50_us), ("p90", l.p90_us), ("p99", l.p99_us), ("max", l.max_us)];
    for (name, us) in latencies {
        artifact.set_meta(&format!("latency_{name}_us"), us);
    }
    artifact.set_meta("batch_occupancy_mean", snapshot.batch_occupancy.mean);
    artifact.set_meta("batch_occupancy_max", snapshot.batch_occupancy.max);
    assert_eq!(snapshot.latency_us.count, expected_total, "every request must be timed");
    let us = |name: &str| match artifact.meta[&format!("latency_{name}_us")] {
        Value::U64(us) => us,
        ref other => panic!("latency_{name}_us is not a count: {other:?}"),
    };
    assert!(
        us("p50") <= us("p90") && us("p90") <= us("p99") && us("p99") <= us("max"),
        "percentiles must be ordered: {:?}",
        artifact.meta
    );
    let path = dir.join("BENCH_serve.json");
    simpadv_resilience::write_json_atomic(&path, &artifact).unwrap();
    let back = simpadv_obs::parse_artifact(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(back, artifact, "artifact must round-trip exactly");
    let report = simpadv_obs::compare(&artifact, &back, simpadv_obs::DEFAULT_WALL_THRESHOLD_PCT);
    assert!(report.passed(), "self-comparison must pass: {:?}", report.regressions);
}
