//! End-to-end integration: data → training → attack → evaluation →
//! serialization, across every crate in the workspace.

use simpadv_serve::ServedModel;
use simpadv_suite::attacks::{linf_distance, Attack, Bim, Fgsm, Pgd};
use simpadv_suite::data::{SynthConfig, SynthDataset};
use simpadv_suite::defense::train::{ProposedTrainer, Trainer, VanillaTrainer};
use simpadv_suite::defense::{evaluate_accuracy, evaluate_clean, ModelSpec, TrainConfig};
use simpadv_suite::nn::GradientModel;

#[test]
fn attacks_respect_constraints_against_trained_models() {
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(200, 1));
    let mut clf = ModelSpec::small_mlp().build(0);
    VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(4, 0));

    let test = SynthDataset::Mnist.generate(&SynthConfig::new(50, 2));
    let x = test.images().rows(0..20);
    let y = test.labels()[..20].to_vec();
    let eps = 0.3;
    let mut attacks: Vec<Box<dyn Attack>> =
        vec![Box::new(Fgsm::new(eps)), Box::new(Bim::new(eps, 10)), Box::new(Pgd::new(eps, 10, 3))];
    for attack in attacks.iter_mut() {
        let adv = attack.perturb(&mut clf, &x, &y);
        assert!(linf_distance(&adv, &x) <= eps + 1e-5, "{} violates budget", attack.id());
        assert!(
            adv.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)),
            "{} leaves pixel box",
            attack.id()
        );
    }
}

#[test]
fn proposed_training_full_pipeline() {
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(400, 1));
    let test = SynthDataset::Mnist.generate(&SynthConfig::new(150, 2));
    let eps = 0.3;
    let config = TrainConfig::new(40, 0).with_lr_decay(0.95);
    let mut clf = ModelSpec::default_mlp().build(0);
    let report = ProposedTrainer::paper_defaults(eps).train(&mut clf, &train, &config);
    assert_eq!(report.epochs(), 40);
    // robustness: better than an undefended model under BIM
    let mut vanilla = ModelSpec::default_mlp().build(0);
    VanillaTrainer::new().train(&mut vanilla, &train, &config);
    let mut atk1 = Bim::new(eps, 10);
    let mut atk2 = Bim::new(eps, 10);
    let robust_def = evaluate_accuracy(&mut clf, &test, &mut atk1);
    let robust_van = evaluate_accuracy(&mut vanilla, &test, &mut atk2);
    assert!(
        robust_def > robust_van + 0.05,
        "proposed ({robust_def}) must beat vanilla ({robust_van}) under BIM"
    );
    // clean accuracy survives
    assert!(evaluate_clean(&mut clf, &test) > 0.85);
}

#[test]
fn trained_model_roundtrips_through_json() {
    let train = SynthDataset::Fashion.generate(&SynthConfig::new(200, 3));
    let mut clf = ModelSpec::small_mlp().build(1);
    VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(3, 0));

    let dir = std::env::temp_dir().join("simpadv-suite-json-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    ServedModel::capture(&ModelSpec::small_mlp(), &clf, "fashion", "vanilla")
        .save_to(&path)
        .unwrap();
    let mut restored = ServedModel::load_file(&path).unwrap().restore().unwrap();

    let probe = SynthDataset::Fashion.generate(&SynthConfig::new(30, 4));
    assert_eq!(clf.logits(probe.images()), restored.logits(probe.images()));
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let train = SynthDataset::Mnist.generate(&SynthConfig::new(150, 5));
        let test = SynthDataset::Mnist.generate(&SynthConfig::new(60, 6));
        let mut clf = ModelSpec::small_mlp().build(2);
        ProposedTrainer::paper_defaults(0.3).train(&mut clf, &train, &TrainConfig::new(4, 1));
        let mut atk = Bim::new(0.3, 5);
        evaluate_accuracy(&mut clf, &test, &mut atk)
    };
    assert_eq!(run(), run());
}

#[test]
fn gradients_flow_through_the_full_stack() {
    // input gradient of a trained classifier is nonzero and finite on real
    // data — the quantity every attack consumes
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(100, 9));
    let mut clf = ModelSpec::small_mlp().build(4);
    VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(2, 0));
    let x = train.images().rows(0..8);
    let y = train.labels()[..8].to_vec();
    let (loss, grad) = clf.loss_and_input_grad(&x, &y);
    assert!(loss.is_finite());
    assert_eq!(grad.shape(), x.shape());
    assert!(grad.as_slice().iter().all(|v| v.is_finite()));
    assert!(grad.norm_linf() > 0.0, "gradient must be nonzero");
}

#[test]
fn fashion_pipeline_works_end_to_end() {
    let train = SynthDataset::Fashion.generate(&SynthConfig::new(300, 11));
    let test = SynthDataset::Fashion.generate(&SynthConfig::new(100, 12));
    let eps = SynthDataset::Fashion.paper_epsilon();
    let mut clf = ModelSpec::small_mlp().build(5);
    ProposedTrainer::paper_defaults(eps).train(&mut clf, &train, &TrainConfig::new(10, 0));
    let clean = evaluate_clean(&mut clf, &test);
    assert!(clean > 0.6, "fashion clean accuracy {clean}");
}
