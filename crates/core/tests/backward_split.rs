//! The split backward pass against the full one.
//!
//! `Classifier` asks each layer only for the gradients its caller reads:
//! training steps call `backward_params` (no input gradient below the
//! first trained layer), attack passes call `backward_input` (no weight
//! gradients). On the default MLP and the small CNN, these tests pin
//! that every value a caller reads is bitwise what the full `backward`
//! gives, that attack passes leave the
//! parameter gradients alone, that a layer on the trait defaults still
//! trains bitwise like the plain model, and that the skipped work shows
//! on the logical flop clock.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simpadv::ModelSpec;
use simpadv_data::{SynthConfig, SynthDataset};
use simpadv_nn::{
    Classifier, Dense, GradientModel, Layer, Mode, ParamRef, Relu, Sequential, Sgd,
    SoftmaxCrossEntropy, StateDict,
};
use simpadv_tensor::{matmul_flops, Tensor};
use simpadv_trace::clock;
use std::sync::{Mutex, MutexGuard};

/// Every test holds this: the flop test reads the process-wide logical
/// clock, which any concurrently running test would also advance.
static CLOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    CLOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    assert_eq!(bits(a), bits(b), "{what}: values differ");
}

fn assert_same_weights(a: &Classifier, b: &Classifier, what: &str) {
    let (sa, sb) = (a.network().state(), b.network().state());
    assert_eq!(sa.len(), sb.len(), "{what}: state entries");
    for ((ka, ta), (kb, tb)) in sa.iter().zip(&sb) {
        assert_eq!(ka, kb);
        assert_bitwise(ta, tb, &format!("{what}: {ka}"));
    }
}

fn param_grads(clf: &mut Classifier) -> Vec<Tensor> {
    clf.network_mut().params().iter().map(|p| p.grad.clone()).collect()
}

fn models() -> Vec<(&'static str, Classifier)> {
    vec![
        ("default MLP", ModelSpec::default_mlp().build(3)),
        ("small CNN", ModelSpec::small_cnn().build(4)),
    ]
}

fn batch(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let data = SynthDataset::Mnist.generate(&SynthConfig::new(n, seed));
    (data.images().clone(), data.labels().to_vec())
}

fn optimizer() -> Sgd {
    Sgd::new(0.05).with_momentum(0.9)
}

/// The reference training step: zero the gradients, run the full
/// backward, update.
fn full_step(clf: &mut Classifier, grad_logits: &Tensor, opt: &mut Sgd) {
    let net = clf.network_mut();
    net.zero_grad();
    let _ = net.backward(grad_logits);
    opt.step(&mut net.params());
}

fn full_train_batch(clf: &mut Classifier, x: &Tensor, y: &[usize], opt: &mut Sgd) -> f32 {
    let logits = clf.forward_train(x);
    let (loss, grad) = SoftmaxCrossEntropy::new().forward(&logits, y);
    full_step(clf, &grad, opt);
    loss
}

/// The input gradient of an evaluation-mode objective through the full
/// backward, with the gradients cleared before and after.
fn full_input_grad(clf: &mut Classifier, grad_of_logits: &Tensor) -> Tensor {
    let net = clf.network_mut();
    net.zero_grad();
    let gx = net.backward(grad_of_logits);
    net.zero_grad();
    gx
}

fn eval_loss_grad(clf: &mut Classifier, x: &Tensor, y: &[usize]) -> (f32, Tensor) {
    let logits = clf.network_mut().forward(x, Mode::Eval);
    SoftmaxCrossEntropy::new().forward(&logits, y)
}

/// A custom attack objective: the logits scaled, so the gradient differs
/// from cross-entropy's.
fn half_logits(logits: &Tensor) -> Tensor {
    logits.mul_scalar(0.5)
}

#[test]
fn training_steps_match_the_full_backward_bitwise() {
    let _clock = serial();
    let (x, y) = batch(8, 11);
    for (name, mut split) in models() {
        let mut full = split.clone();
        let (mut opt_split, mut opt_full) = (optimizer(), optimizer());
        for step in 0..3 {
            let ls = split.train_batch(&x, &y, &mut opt_split);
            let lf = full_train_batch(&mut full, &x, &y, &mut opt_full);
            assert_eq!(ls.to_bits(), lf.to_bits(), "{name}: train_batch loss at step {step}");

            // the composite-loss hook (ATDA's path)
            let logits = split.forward_train(&x);
            let grad = SoftmaxCrossEntropy::new().forward(&logits, &y).1;
            split.step_from_logit_grad(&grad, &mut opt_split);
            let logits = full.forward_train(&x);
            let grad = SoftmaxCrossEntropy::new().forward(&logits, &y).1;
            full_step(&mut full, &grad, &mut opt_full);
            assert_same_weights(&split, &full, &format!("{name} after step {step}"));
        }
    }
}

#[test]
fn attack_input_gradients_match_the_full_backward_bitwise() {
    let _clock = serial();
    let (x, y) = batch(6, 12);
    for (name, mut split) in models() {
        let mut full = split.clone();
        let (loss, gx) = split.loss_and_input_grad(&x, &y);
        let (full_loss, grad) = eval_loss_grad(&mut full, &x, &y);
        assert_eq!(loss.to_bits(), full_loss.to_bits(), "{name}: attack loss");
        assert_bitwise(&gx, &full_input_grad(&mut full, &grad), name);

        let gx = split.custom_input_grad(&x, &mut half_logits);
        let logits = full.network_mut().forward(&x, Mode::Eval);
        let custom = full_input_grad(&mut full, &half_logits(&logits));
        assert_bitwise(&gx, &custom, &format!("{name} custom objective"));
    }
}

#[test]
fn attack_passes_leave_parameter_gradients_untouched() {
    let _clock = serial();
    let (x, y) = batch(6, 13);
    for (name, mut clf) in models() {
        // a training step leaves non-zero gradients in every trained layer
        let _ = clf.train_batch(&x, &y, &mut optimizer());
        let before = param_grads(&mut clf);
        assert!(before.iter().all(|g| g.norm_linf() > 0.0), "{name}: all layers trained");
        let _ = clf.loss_and_input_grad(&x, &y);
        let _ = clf.custom_input_grad(&x, &mut half_logits);
        for (i, (after, before)) in param_grads(&mut clf).iter().zip(&before).enumerate() {
            assert_bitwise(after, before, &format!("{name}: parameter {i} gradient"));
        }
    }
}

/// A wrapper that implements only the required `forward` and `backward`
/// (plus the delegating bookkeeping), the way an instrumentation shim
/// would, so both backward halves run on the trait defaults.
#[derive(Debug)]
struct DefaultsOnly(Box<dyn Layer>);

impl Layer for DefaultsOnly {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.0.forward(input, mode)
    }
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.0.backward(grad_output)
    }
    fn params(&mut self) -> Vec<ParamRef<'_>> {
        self.0.params()
    }
    fn zero_grad(&mut self) {
        self.0.zero_grad();
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(DefaultsOnly(self.0.clone_box()))
    }
    fn state(&self) -> Vec<(String, Tensor)> {
        self.0.state()
    }
    fn load_state(&mut self, state: &[(String, Tensor)]) {
        self.0.load_state(state);
    }
}

#[test]
fn a_layer_on_the_trait_defaults_trains_bitwise_like_the_plain_model() {
    let _clock = serial();
    let mut plain = ModelSpec::default_mlp().build(6);
    let mut rng = StdRng::seed_from_u64(0);
    let (px, classes) = (simpadv_data::IMAGE_PIXELS, simpadv_data::CLASS_COUNT);
    let mut net = Sequential::empty();
    net.push(Box::new(DefaultsOnly(Box::new(Dense::new(px, 128, &mut rng)))));
    net.push(Box::new(DefaultsOnly(Box::new(Relu::new()))));
    net.push(Box::new(DefaultsOnly(Box::new(Dense::new(128, classes, &mut rng)))));
    StateDict::capture(plain.network()).restore(&mut net);
    let mut wrapped = Classifier::new(net, classes);

    let (x, y) = batch(8, 14);
    let (mut opt_plain, mut opt_wrapped) = (optimizer(), optimizer());
    let mut adv = x.clone();
    for step in 0..4 {
        // an attack pass between training steps, FGSM-style
        let (lp, gp) = plain.loss_and_input_grad(&adv, &y);
        let (lw, gw) = wrapped.loss_and_input_grad(&adv, &y);
        assert_eq!(lp.to_bits(), lw.to_bits(), "attack loss at step {step}");
        assert_bitwise(&gp, &gw, &format!("attack input gradient at step {step}"));
        adv = adv.add(&gp.sign().mul_scalar(0.05)).clamp(0.0, 1.0);

        let mixture = Tensor::concat_rows(&[&x, &adv]);
        let labels = [y.as_slice(), y.as_slice()].concat();
        let lp = plain.train_batch(&mixture, &labels, &mut opt_plain);
        let lw = wrapped.train_batch(&mixture, &labels, &mut opt_wrapped);
        assert_eq!(lp.to_bits(), lw.to_bits(), "training loss at step {step}");
    }
    assert_same_weights(&plain, &wrapped, "wrapped MLP");
}

#[test]
fn cnn_training_step_skips_the_first_conv_input_gradient() {
    let _clock = serial();
    let n = 4;
    let (x, y) = batch(n, 15);
    let mut clf = ModelSpec::small_cnn().build(7);
    let mut reference = clf.clone();
    let flops = |f: &mut dyn FnMut()| {
        let before = clock::snapshot();
        f();
        clock::snapshot().delta_since(&before).flops
    };

    let forward = flops(&mut || {
        let _ = clf.logits(&x);
    });
    // Every backward GEMM costs what its forward GEMM does, so the full
    // backward ticks two forwards' worth.
    let full = flops(&mut || {
        let _ = full_train_batch(&mut reference, &x, &y, &mut optimizer());
    });
    assert_eq!(full, 3 * forward);

    // The first conv layer lowers each 28×28 image to a [9, 784] patch
    // matrix; its input gradient is Wᵀ [9, 8] @ G [8, 784] per image.
    let conv1_input_grad = n as u64 * matmul_flops(9, 8, 28 * 28);
    let train = flops(&mut || {
        let _ = clf.train_batch(&x, &y, &mut optimizer());
    });
    assert_eq!(train, full - conv1_input_grad);

    // an attack pass pays the forward plus the input gradients only
    let attack = flops(&mut || {
        let _ = clf.loss_and_input_grad(&x, &y);
    });
    assert_eq!(attack, 2 * forward);
}
