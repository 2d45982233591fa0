//! Deep-dive diagnostics of one trained defense: the gradient-masking
//! audit, which asks whether its robustness is real or obfuscated
//! gradients.
//!
//! ```text
//! cargo run --release --example model_diagnostics
//! ```

use simpadv_suite::data::{SynthConfig, SynthDataset};
use simpadv_suite::defense::train::{ProposedTrainer, Trainer};
use simpadv_suite::defense::{audit_masking, ModelSpec, TrainConfig};

fn main() {
    let dataset = SynthDataset::Mnist;
    let eps = dataset.paper_epsilon();
    let train = dataset.generate(&SynthConfig::new(800, 1));
    let test = dataset.generate(&SynthConfig::new(200, 2));

    println!("training the proposed defense ...");
    let mut clf = ModelSpec::default_mlp().build(7);
    ProposedTrainer::paper_defaults(eps).train(
        &mut clf,
        &train,
        &TrainConfig::new(40, 0).with_lr_decay(0.96),
    );

    println!("\n{}", audit_masking(&mut clf, &test, eps, 11));
}
