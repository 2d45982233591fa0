//! Training workloads: per-trainer epoch time and robust accuracy.
//!
//! A run trains `models` independently initialised classifiers (sub-seeds
//! of the run seed) on one synthetic MNIST training set, then keeps
//! cycling through the same sub-seeds until the time budget is spent.
//! Every epoch of every round is one timing sample, normalised by the
//! host reference taken around its round (see `host`). A replayed round must
//! reproduce its first run bitwise — the determinism check. After the
//! timed window each of the `models` first-round classifiers is scored on
//! a held-out test set, clean and under BIM(10).

use crate::layers::{clocks_for, timed_mlp, PHASES};
use crate::stats::{mean, median, quantile};
use crate::{host, timed_setup, Metric, Outcome};
use simpadv::train::{BimAdvTrainer, ProposedTrainer, Trainer};
use simpadv::{evaluate_accuracy, evaluate_clean, ModelSpec, TrainConfig, TrainReport};
use simpadv_attacks::Bim;
use simpadv_data::{Dataset, SynthConfig, SynthDataset};
use simpadv_nn::Classifier;
use simpadv_runtime::split_seed;
use std::time::Instant;

/// Training perturbation budget: the paper's MNIST ε.
const TRAIN_EPSILON: f32 = 0.3;
/// Evaluation budget for the robust-accuracy metric. A third of the
/// training ε keeps accuracies mid-range at this training scale, where
/// they move with the model instead of sitting near 0.
const EVAL_EPSILON: f32 = 0.1;
/// BIM iterations of the robust-accuracy attack.
const EVAL_BIM_STEPS: usize = 10;
/// Held-out test examples per run.
const TEST_SAMPLES: usize = 500;
/// Set-up repeats; `setup_s` is their median. A set-up takes tens of
/// milliseconds, so many repeats cost little and steady the median.
const SETUP_REPEATS: usize = 25;

/// One training workload.
pub struct TrainWorkload {
    /// Builds the trainer under test.
    pub trainer: fn() -> Box<dyn Trainer>,
    /// Training examples.
    pub train_samples: usize,
    /// Epochs per round.
    pub epochs: usize,
    /// Distinct models (sub-seeds) per run; each is scored for accuracy.
    pub models: usize,
}

/// The paper's method: one persistent adversarial example per image,
/// advanced by one large signed step per epoch (ε/10, reset every 20).
pub const PROPOSED: TrainWorkload = TrainWorkload {
    trainer: || Box::new(ProposedTrainer::paper_defaults(TRAIN_EPSILON)),
    train_samples: 256,
    epochs: 12,
    models: 6,
};

/// The iterative baseline it is compared against: BIM(10)-Adv, ten
/// input-gradient passes per batch.
pub const BIM10: TrainWorkload = TrainWorkload {
    trainer: || Box::new(BimAdvTrainer::new(TRAIN_EPSILON, 10)),
    train_samples: 192,
    epochs: 12,
    models: 6,
};

/// Inputs of one run: the data and the initial models.
struct Fixture {
    train: Dataset,
    test: Dataset,
    initial: Vec<Classifier>,
}

fn build_fixture(w: &TrainWorkload, seed: u64) -> Fixture {
    let data = SynthDataset::Mnist;
    Fixture {
        train: data.generate(&SynthConfig::new(w.train_samples, split_seed(seed, 1))),
        test: data.generate(&SynthConfig::new(TEST_SAMPLES, split_seed(seed, 2))),
        initial: (0..w.models)
            .map(|k| ModelSpec::default_mlp().build(split_seed(seed, 100 + k as u64)))
            .collect(),
    }
}

/// Runs a training workload for `seconds` of training time.
pub fn run(w: &TrainWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (fixture, setup_s) = timed_setup(SETUP_REPEATS, true, || build_fixture(w, seed));
    let clocks = if trace { clocks_for(&fixture.initial[0]) } else { Vec::new() };
    let models: Vec<Classifier> = fixture
        .initial
        .iter()
        .map(|plain| if trace { timed_mlp(plain, &clocks) } else { plain.clone() })
        .collect();

    let mut outcome = Outcome::default();
    // Host-normalised epoch times (see `host`), and as measured.
    let mut epoch_s: Vec<f64> = Vec::new();
    let mut raw_epoch_s: Vec<f64> = Vec::new();
    let mut references: Vec<f64> = Vec::new();
    let mut first: Vec<(TrainReport, Classifier)> = Vec::new();
    let clock0 = simpadv_trace::snapshot();
    let start = Instant::now();
    let mut round = 0usize;
    while round < w.models || start.elapsed().as_secs_f64() < seconds {
        let k = round % w.models;
        let mut clf = models[k].clone();
        let config = TrainConfig::new(w.epochs, split_seed(seed, 200 + k as u64));
        let before = host::reference_ms();
        let report = (w.trainer)().train(&mut clf, &fixture.train, &config);
        let after = host::reference_ms();
        references.extend([before, after]);
        let scale = host::normaliser((before + after) / 2.0);
        outcome.attempted += report.epochs() as u64;
        let bad = report.epoch_losses.iter().filter(|l| !l.is_finite()).count() as u64;
        outcome.failed += bad;
        raw_epoch_s.extend(&report.epoch_seconds);
        epoch_s.extend(report.epoch_seconds.iter().map(|s| s * scale));
        if round < w.models {
            // Training must make progress on the training objective.
            if bad > 0 || report.final_loss() >= report.epoch_losses[0] {
                outcome.fail_check(&format!(
                    "model {k}: loss did not fall: {:?}",
                    report.epoch_losses
                ));
            }
            first.push((report, clf));
        } else if !same_run(&report, &first[k].0) {
            outcome.fail_check(&format!("round {round}: replay of model {k} diverged"));
        }
        round += 1;
    }
    let work = simpadv_trace::snapshot().delta_since(&clock0);
    // Read before evaluation, which runs on the same timed layers.
    let layer_ns: Vec<[u64; 4]> = clocks.iter().map(|c| c.clock.read()).collect();
    let epochs = epoch_s.len() as f64;

    let eval_start = Instant::now();
    let (mut clean, mut robust) = (Vec::new(), Vec::new());
    for (_, clf) in &mut first {
        clean.push(f64::from(evaluate_clean(clf, &fixture.test)));
        let mut attack = Bim::new(EVAL_EPSILON, EVAL_BIM_STEPS);
        robust.push(f64::from(evaluate_accuracy(clf, &fixture.test, &mut attack)));
    }
    let eval_s = eval_start.elapsed().as_secs_f64() / first.len() as f64;
    if clean.iter().any(|&a| a < 0.5) {
        outcome.fail_check(&format!("clean accuracy below 50%: {clean:?}"));
    }

    let epoch_ms: Vec<f64> = epoch_s.iter().map(|s| s * 1e3).collect();
    outcome.end_to_end = vec![
        Metric::new("op_p50_ms", median(&epoch_ms), "ms"),
        Metric::new("op_p90_ms", quantile(&epoch_ms, 0.9), "ms"),
        Metric::new("robust_acc", mean(&robust), "fraction"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    if trace {
        let (mut total_ns, mut attack_ns) = (0u64, 0u64);
        for (named, ns) in clocks.iter().zip(&layer_ns) {
            for (phase, &v) in PHASES.iter().zip(ns) {
                let name = format!("{}.{phase}_ms", named.name);
                outcome.per_layer.push(Metric::owned(name, v as f64 / 1e6 / epochs, "ms"));
            }
            total_ns += ns.iter().sum::<u64>();
            attack_ns += ns[2] + ns[3];
        }
        let layer_ms = total_ns as f64 / 1e6 / epochs;
        let epoch_mean_ms = raw_epoch_s.iter().sum::<f64>() * 1e3 / epochs;
        outcome.per_layer.extend([
            Metric::new("train.other_ms", epoch_mean_ms - layer_ms, "ms"),
            Metric::new(
                "train.attack_share",
                attack_ns as f64 / total_ns.max(1) as f64,
                "fraction",
            ),
            Metric::new("train.flops_per_epoch", work.flops as f64 / epochs, "count"),
            Metric::new(
                "train.passes_per_epoch",
                (work.forward + work.backward) as f64 / epochs,
                "count",
            ),
            Metric::new("train.attack_steps_per_epoch", work.attack_steps as f64 / epochs, "count"),
            Metric::new("train.epoch_raw_p50_ms", median(&raw_epoch_s) * 1e3, "ms"),
            Metric::new("eval.robust_ms", eval_s * 1e3, "ms"),
            Metric::new("host.reference_ms", median(&references), "ms"),
        ]);
    }
    outcome
}

/// Whether two reports describe the same training run: bitwise equal
/// losses and identical pass counts (wall times aside).
fn same_run(a: &TrainReport, b: &TrainReport) -> bool {
    let bits = |r: &TrainReport| r.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    bits(a) == bits(b)
        && a.epoch_work == b.epoch_work
        && a.forward_passes == b.forward_passes
        && a.backward_passes == b.backward_passes
}
