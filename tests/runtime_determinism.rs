//! Cross-crate determinism: the worker thread count must never change a
//! single bit of any result. This exercises the full stack — parallel
//! tensor kernels, chunked attack crafting, the Proposed trainer's
//! persistent-example advance, and the evaluation battery — at 1 and 4
//! threads and demands bitwise equality (the seeded-randomness invariant
//! extended by the runtime's determinism contract).

use simpadv::train::{ProposedTrainer, Trainer};
use simpadv::{EvalSuite, ModelSpec, TrainConfig};
use simpadv_attacks::parallel::craft_parallel;
use simpadv_attacks::{Bim, Pgd};
use simpadv_data::{SynthConfig, SynthDataset};
use simpadv_runtime::{set_global_threads, split_seed, Runtime};
use simpadv_serve::{BatchConfig, Engine, PredictRequest, ServedModel};

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Trains the Proposed defense and runs the Table I battery with the
/// process-global runtime pinned to `threads`.
fn train_and_eval(threads: usize) -> (Vec<f32>, Vec<f32>) {
    set_global_threads(threads);
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(120, 1));
    let test = SynthDataset::Mnist.generate(&SynthConfig::new(80, 2));
    let mut clf = ModelSpec::small_mlp().build(0);
    let report =
        ProposedTrainer::paper_defaults(0.3).train(&mut clf, &train, &TrainConfig::new(4, 7));
    let result = EvalSuite::paper(0.3).run(&mut clf, &test);
    (report.epoch_losses, result.accuracies)
}

// Everything observing the global thread count lives in this one test:
// the test binary would otherwise race its own `set_global_threads`
// calls across test threads.
#[test]
fn thread_count_never_changes_results() {
    // Training loss curves and evaluation accuracies, threads = 1 vs 4.
    let (loss_serial, acc_serial) = train_and_eval(1);
    let (loss_parallel, acc_parallel) = train_and_eval(4);
    assert_eq!(loss_serial.len(), 4);
    assert_eq!(acc_serial.len(), 4); // original, fgsm, bim(10), bim(30)
    assert_eq!(bits(&loss_serial), bits(&loss_parallel), "loss curves diverged");
    assert_eq!(bits(&acc_serial), bits(&acc_parallel), "eval accuracies diverged");

    // Crafted adversarial batches with explicit runtimes, deterministic
    // and seeded-stochastic attacks alike.
    let data = SynthDataset::Fashion.generate(&SynthConfig::new(50, 3));
    let model = ModelSpec::small_mlp().build(1);
    let x = data.images().clone();
    let y = data.labels().to_vec();
    let craft = |threads: usize| {
        let rt = Runtime::new(threads);
        let bim = craft_parallel(&rt, &model, &|_| Box::new(Bim::new(0.2, 5)), &x, &y);
        let pgd = craft_parallel(
            &rt,
            &model,
            &|first| Box::new(Pgd::new(0.2, 3, split_seed(2019, first as u64))),
            &x,
            &y,
        );
        (bim, pgd)
    };
    let (bim_serial, pgd_serial) = craft(1);
    let (bim_parallel, pgd_parallel) = craft(4);
    assert_eq!(bim_serial, bim_parallel, "BIM batches diverged");
    assert_eq!(pgd_serial, pgd_parallel, "seeded PGD batches diverged");

    // Batch-coalesced inference (crates/serve): one coalesced forward
    // must be bitwise identical to N individual forwards, and both must
    // be thread-count invariant — the serving path shares the tensor
    // kernels' row-independence guarantee.
    let serve_data = SynthDataset::Mnist.generate(&SynthConfig::new(10, 9));
    let requests: Vec<PredictRequest> = (0..serve_data.len())
        .map(|i| PredictRequest {
            pixels: serve_data.images().row(i).into_vec(),
            label: Some(serve_data.labels()[i]),
            adversarial: i % 2 == 0,
        })
        .collect();
    let infer = |threads: usize| -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        set_global_threads(threads);
        let dir = std::env::temp_dir().join(format!("simpadv-batch-determinism-{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = simpadv_resilience::CheckpointStore::open(&dir).unwrap();
        let spec = ModelSpec::small_mlp();
        ServedModel::capture(&spec, &spec.build(5), "mnist", "test").publish(&store).unwrap();
        // batch_max 4 over 10 requests: coalesced chunks of 4/4/2
        let engine = Engine::new(store, BatchConfig { batch_max: 4, queue_cap: 16 }).unwrap();
        let batched: Vec<Vec<u32>> =
            engine.infer_batch(&requests).unwrap().iter().map(|r| bits(&r.logits)).collect();
        let singles: Vec<Vec<u32>> = requests
            .iter()
            .map(|r| bits(&engine.infer_batch(std::slice::from_ref(r)).unwrap()[0].logits))
            .collect();
        (batched, singles)
    };
    let (batched_serial, singles_serial) = infer(1);
    let (batched_parallel, singles_parallel) = infer(4);
    assert_eq!(batched_serial, singles_serial, "coalesced batch diverged from single forwards");
    assert_eq!(batched_serial, batched_parallel, "batched inference diverged across threads");
    assert_eq!(singles_serial, singles_parallel, "single inference diverged across threads");

    set_global_threads(1);
}
