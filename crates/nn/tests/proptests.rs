//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simpadv_nn::{
    accuracy, log_softmax, softmax, Dense, Layer, Mode, Relu, Sequential, SoftmaxCrossEntropy,
};
use simpadv_tensor::Tensor;

fn logits_strategy() -> impl Strategy<Value = (Tensor, Vec<usize>)> {
    (1usize..6, 2usize..6).prop_flat_map(|(n, c)| {
        (prop::collection::vec(-8.0f32..8.0, n * c), prop::collection::vec(0usize..c, n))
            .prop_map(move |(data, labels)| (Tensor::from_vec(data, &[n, c]), labels))
    })
}

proptest! {
    #[test]
    fn softmax_rows_are_distributions((logits, _labels) in logits_strategy()) {
        let p = softmax(&logits);
        let n = logits.shape()[0];
        for i in 0..n {
            let row = p.row(i);
            prop_assert!(row.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
            prop_assert!((row.sum() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant((logits, _labels) in logits_strategy(), shift in -5.0f32..5.0) {
        let a = softmax(&logits);
        let b = softmax(&logits.add_scalar(shift));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_never_positive((logits, _labels) in logits_strategy()) {
        let lp = log_softmax(&logits);
        prop_assert!(lp.as_slice().iter().all(|&v| v <= 1e-6));
    }

    #[test]
    fn cross_entropy_nonnegative((logits, labels) in logits_strategy()) {
        let (loss, grad) = SoftmaxCrossEntropy::new().forward(&logits, &labels);
        prop_assert!(loss >= 0.0);
        prop_assert_eq!(grad.shape(), logits.shape());
        // mean-of-batch gradient rows each sum to 0 (softmax minus one-hot)
        let n = logits.shape()[0];
        for i in 0..n {
            prop_assert!(grad.row(i).sum().abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_step_on_fixed_batch_reduces_loss(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(5, 12, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(12, 3, &mut rng)),
        ]);
        let x = Tensor::rand_uniform(&mut rng, &[6, 5], -1.0, 1.0);
        let y: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let loss_fn = SoftmaxCrossEntropy::new();

        let logits = net.forward(&x, Mode::Train);
        let (l0, grad) = loss_fn.forward(&logits, &y);
        net.zero_grad();
        let _ = net.backward(&grad);
        // hand-rolled SGD step with a tiny rate: loss must not increase
        for p in net.params() {
            p.value.add_scaled(p.grad, -1e-2);
        }
        let (l1, _) = loss_fn.forward(&net.forward(&x, Mode::Train), &y);
        prop_assert!(l1 <= l0 + 1e-4, "loss rose from {l0} to {l1}");
    }

    #[test]
    fn accuracy_bounded((logits, labels) in logits_strategy()) {
        let a = accuracy(&logits, &labels);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn backward_input_grad_shape_matches(seed in 0u64..100, n in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(4, 7, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(7, 2, &mut rng)),
        ]);
        let x = Tensor::rand_uniform(&mut rng, &[n, 4], -1.0, 1.0);
        let y = net.forward(&x, Mode::Eval);
        let gx = net.backward(&Tensor::ones(y.shape()));
        prop_assert_eq!(gx.shape(), x.shape());
    }
}
