//! Robustness evaluation: accuracy under attack.
//!
//! Evaluation is embarrassingly parallel across test batches, so the
//! batch loops here run on the global [`Runtime`]: the test set is cut
//! into fixed [`EVAL_BATCH`]-example batches (boundaries never depend on
//! the thread count), each worker scores its batches on one model replica
//! cloned for it, and the per-batch *integer* correct counts are reduced
//! in batch order. A batch's score does not depend on the batches the
//! replica scored before (every pass overwrites its caches), so
//! accuracies are bitwise identical for 1..N threads, and the
//! forward/backward passes spent on replicas are credited back to the
//! caller's classifier so Table I cost accounting stays thread-count
//! independent.
//!
//! Every evaluation entry point runs under an `eval` trace span naming
//! the attack, and emits the resulting accuracy as an `accuracy` gauge.

use serde::{Deserialize, Serialize};
use simpadv_attacks::{Attack, Bim, Fgsm};
use simpadv_data::Dataset;
use simpadv_nn::{accuracy, Classifier, GradientModel};
use simpadv_runtime::Runtime;
use std::fmt;

/// Batch size used when generating evaluation attacks (keeps peak memory
/// flat regardless of test-set size, and fixes the parallel chunk
/// boundaries independent of the thread count).
pub(crate) const EVAL_BATCH: usize = 100;

/// Clean test accuracy of a classifier.
///
/// Batches are scored in parallel, on one model replica per worker; the
/// replicas' forward passes are credited back to `clf` (one per batch,
/// exactly what the serial loop would have counted).
pub fn evaluate_clean(clf: &mut Classifier, data: &Dataset) -> f32 {
    let _span = simpadv_trace::span!("eval", attack = "original", examples = data.len());
    let shared: &Classifier = clf;
    let counts = Runtime::global().par_chunks_with(
        data.len(),
        EVAL_BATCH,
        || shared.clone(),
        |replica, r| {
            let logits = replica.logits(&data.images().rows(r.clone()));
            let y = &data.labels()[r];
            (accuracy(&logits, y) * y.len() as f32).round() as usize
        },
    );
    let batches = counts.len() as u64;
    clf.credit_external_passes(batches, 0);
    let acc = counts.into_iter().sum::<usize>() as f32 / data.len().max(1) as f32;
    simpadv_trace::gauge("accuracy", f64::from(acc));
    acc
}

/// White-box accuracy of a classifier under an attack: adversarial
/// examples are generated against `clf` itself, batch by batch.
///
/// This form takes a caller-owned, possibly **stateful** attack and
/// therefore runs serially; prefer [`evaluate_accuracy_parallel`] when
/// the attack can be constructed per batch.
pub fn evaluate_accuracy(clf: &mut Classifier, data: &Dataset, attack: &mut dyn Attack) -> f32 {
    let _span = simpadv_trace::span!("eval", attack = attack.id(), examples = data.len());
    let mut correct = 0usize;
    for (_, x, y) in data.batches_sequential(EVAL_BATCH) {
        let adv = attack.perturb(clf, &x, &y);
        let logits = clf.logits(&adv);
        correct += (accuracy(&logits, &y) * y.len() as f32).round() as usize;
    }
    let acc = correct as f32 / data.len().max(1) as f32;
    simpadv_trace::gauge("accuracy", f64::from(acc));
    acc
}

/// White-box accuracy under a per-batch constructed attack, with the
/// batches evaluated in parallel on the global [`Runtime`].
///
/// `make_attack(first)` builds the attack for the batch whose first
/// example has index `first`; deterministic attacks (FGSM, BIM) ignore
/// the index, stochastic ones should derive their seed from it with
/// [`simpadv_runtime::split_seed`] so the random stream is keyed to data
/// position, not thread. Each worker perturbs its batches on one replica
/// of `clf`; the passes each batch spends are credited back to `clf`
/// afterwards, so the counters match the serial [`evaluate_accuracy`]
/// loop exactly.
pub fn evaluate_accuracy_parallel(
    clf: &mut Classifier,
    data: &Dataset,
    make_attack: &(dyn Fn(usize) -> Box<dyn Attack> + Sync),
) -> f32 {
    let _span = simpadv_trace::span!("eval", attack = make_attack(0).id(), examples = data.len());
    let shared: &Classifier = clf;
    let per_batch = Runtime::global().par_chunks_with(
        data.len(),
        EVAL_BATCH,
        || shared.clone(),
        |replica, r| {
            let (f0, b0) = (replica.forward_passes(), replica.backward_passes());
            let mut attack = make_attack(r.start);
            let x = data.images().rows(r.clone());
            let y = &data.labels()[r];
            let adv = attack.perturb(replica, &x, y);
            let logits = replica.logits(&adv);
            let correct = (accuracy(&logits, y) * y.len() as f32).round() as usize;
            (correct, replica.forward_passes() - f0, replica.backward_passes() - b0)
        },
    );
    let (mut correct, mut fwd, mut bwd) = (0usize, 0u64, 0u64);
    for (c, f, b) in per_batch {
        correct += c;
        fwd += f;
        bwd += b;
    }
    clf.credit_external_passes(fwd, bwd);
    let acc = correct as f32 / data.len().max(1) as f32;
    simpadv_trace::gauge("accuracy", f64::from(acc));
    acc
}

/// One row of an evaluation table: the classifier's accuracy on every
/// attack column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Column names (attack ids, `"original"` for clean accuracy).
    pub columns: Vec<String>,
    /// Accuracy per column, in `[0, 1]`.
    pub accuracies: Vec<f32>,
}

impl EvalResult {
    /// Accuracy for a named column.
    pub fn get(&self, column: &str) -> Option<f32> {
        self.columns.iter().position(|c| c == column).map(|i| self.accuracies[i])
    }
}

impl fmt::Display for EvalResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (c, a) in self.columns.iter().zip(&self.accuracies) {
            writeln!(f, "{c:>12}: {:6.2}%", a * 100.0)?;
        }
        Ok(())
    }
}

/// A reusable battery of evaluation attacks — the column set of the
/// paper's Table I: Original, FGSM, BIM(10), BIM(30).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSuite {
    epsilon: f32,
}

impl EvalSuite {
    /// The paper's evaluation battery at budget `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn paper(epsilon: f32) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid epsilon {epsilon}");
        EvalSuite { epsilon }
    }

    /// Runs the battery against a classifier.
    ///
    /// The three attack columns are all stateless, so each column runs
    /// through [`evaluate_accuracy_parallel`] — per-batch attack
    /// instances are exactly equivalent to the serial loop's reused
    /// instance, and the batch fan-out uses the global [`Runtime`].
    pub fn run(&self, clf: &mut Classifier, data: &Dataset) -> EvalResult {
        let eps = self.epsilon;
        let mut columns = vec!["original".to_string()];
        let mut accuracies = vec![evaluate_clean(clf, data)];
        type MakeAttack = Box<dyn Fn(usize) -> Box<dyn Attack> + Sync>;
        let specs: Vec<(String, MakeAttack)> = vec![
            (Fgsm::new(eps).id(), Box::new(move |_| Box::new(Fgsm::new(eps)))),
            (Bim::new(eps, 10).id(), Box::new(move |_| Box::new(Bim::new(eps, 10)))),
            (Bim::new(eps, 30).id(), Box::new(move |_| Box::new(Bim::new(eps, 30)))),
        ];
        for (id, make) in specs {
            columns.push(id);
            accuracies.push(evaluate_accuracy_parallel(clf, data, make.as_ref()));
        }
        EvalResult { columns, accuracies }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::model::ModelSpec;
    use crate::train::{Trainer, VanillaTrainer};
    use simpadv_data::{SynthConfig, SynthDataset};

    fn trained() -> (Classifier, Dataset) {
        let train = SynthDataset::Mnist.generate(&SynthConfig::new(200, 1));
        let test = SynthDataset::Mnist.generate(&SynthConfig::new(100, 2));
        let mut clf = ModelSpec::small_mlp().build(0);
        VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(8, 0));
        (clf, test)
    }

    #[test]
    fn clean_above_attacked_for_vanilla() {
        let (mut clf, test) = trained();
        let clean = evaluate_clean(&mut clf, &test);
        let mut fgsm = Fgsm::new(0.3);
        let attacked = evaluate_accuracy(&mut clf, &test, &mut fgsm);
        assert!(clean > 0.85, "clean accuracy {clean}");
        assert!(attacked < clean, "FGSM must hurt a vanilla model");
    }

    #[test]
    fn bim_hurts_vanilla_more_than_fgsm() {
        let (mut clf, test) = trained();
        let mut fgsm = Fgsm::new(0.3);
        let mut bim = Bim::new(0.3, 10);
        let a_fgsm = evaluate_accuracy(&mut clf, &test, &mut fgsm);
        let a_bim = evaluate_accuracy(&mut clf, &test, &mut bim);
        assert!(a_bim <= a_fgsm + 1e-6, "BIM(10) ({a_bim}) vs FGSM ({a_fgsm})");
    }

    #[test]
    fn suite_produces_paper_columns() {
        let (mut clf, test) = trained();
        let result = EvalSuite::paper(0.3).run(&mut clf, &test);
        assert_eq!(result.columns, vec!["original", "fgsm", "bim(10)", "bim(30)"]);
        assert_eq!(result.accuracies.len(), 4);
        assert!(result.get("original").unwrap() > result.get("bim(30)").unwrap());
        assert!(result.get("nonexistent").is_none());
        assert!(!result.to_string().is_empty());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (mut clf, test) = trained();
        let a = EvalSuite::paper(0.3).run(&mut clf, &test);
        let b = EvalSuite::paper(0.3).run(&mut clf, &test);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_accuracy_matches_serial_bitwise() {
        let (mut clf, test) = trained();
        let mut bim = Bim::new(0.3, 5);
        let serial = evaluate_accuracy(&mut clf, &test, &mut bim);
        // evaluate_accuracy_parallel reads the global runtime, so pin it;
        // other tests running concurrently only see a benign thread-count
        // change (results are identical by the determinism contract).
        for threads in [1, 4] {
            simpadv_runtime::set_global_threads(threads);
            let got = evaluate_accuracy_parallel(&mut clf, &test, &|_| Box::new(Bim::new(0.3, 5)));
            assert_eq!(got.to_bits(), serial.to_bits(), "threads={threads}");
        }
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn parallel_eval_credits_the_serial_pass_count() {
        let (mut clf, test) = trained();
        simpadv_runtime::set_global_threads(4);
        clf.reset_pass_counters();
        let _ = EvalSuite::paper(0.3).run(&mut clf, &test);
        let (par_f, par_b) = (clf.forward_passes(), clf.backward_passes());

        simpadv_runtime::set_global_threads(1);
        clf.reset_pass_counters();
        let _ = evaluate_clean(&mut clf, &test);
        let mut attacks: Vec<Box<dyn Attack>> = vec![
            Box::new(Fgsm::new(0.3)),
            Box::new(Bim::new(0.3, 10)),
            Box::new(Bim::new(0.3, 30)),
        ];
        for attack in attacks.iter_mut() {
            let _ = evaluate_accuracy(&mut clf, &test, attack.as_mut());
        }
        assert_eq!((par_f, par_b), (clf.forward_passes(), clf.backward_passes()));
    }
}
