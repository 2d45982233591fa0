//! Classifier architectures used by the experiments.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simpadv_data::{CLASS_COUNT, IMAGE_PIXELS};
use simpadv_nn::{Classifier, Dense, Relu, Sequential};

/// A declarative model architecture, buildable from a seed.
///
/// Experiments construct every classifier through this type so that all
/// five training methods compare *identical* architectures, as the paper
/// requires.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// A multilayer perceptron over flattened pixels with the given hidden
    /// widths (ReLU between layers).
    Mlp {
        /// Hidden-layer widths, e.g. `[256, 128]`.
        hidden: Vec<usize>,
    },
    /// A small convolutional network: two 3×3 conv + ReLU + 2×2 max-pool
    /// stages with the given channel counts, then a dense classifier head.
    /// Every layer maps `[n, features]` rows to rows; between the
    /// convolutions each row holds one image's channel planes in NCHW
    /// order, so the head reads the last pool's rows as they are.
    ///
    /// Substantially slower than the MLP on one CPU core. No experiment
    /// or CLI verb builds it: only tests and the kernel lab's CNN
    /// attack-step row do.
    Cnn {
        /// Channels of the first conv stage.
        c1: usize,
        /// Channels of the second conv stage.
        c2: usize,
    },
}

impl ModelSpec {
    /// The default experiment backbone: a 784–128–10 MLP, sized so a full
    /// Table I run (including BIM(30)-Adv's 31 gradient-pass pairs per
    /// batch) fits a single CPU core.
    pub fn default_mlp() -> Self {
        ModelSpec::Mlp { hidden: vec![128] }
    }

    /// A smaller MLP for quick tests.
    pub fn small_mlp() -> Self {
        ModelSpec::Mlp { hidden: vec![64] }
    }

    /// A small two-stage CNN (8 and 16 channels).
    pub fn small_cnn() -> Self {
        ModelSpec::Cnn { c1: 8, c2: 16 }
    }

    /// Builds a fresh classifier with weights drawn from `seed`.
    pub fn build(&self, seed: u64) -> Classifier {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            ModelSpec::Mlp { hidden } => {
                let mut net = Sequential::empty();
                let mut width = IMAGE_PIXELS;
                for &h in hidden {
                    net.push(Box::new(Dense::new(width, h, &mut rng)));
                    net.push(Box::new(Relu::new()));
                    width = h;
                }
                net.push(Box::new(Dense::new(width, CLASS_COUNT, &mut rng)));
                Classifier::new(net, CLASS_COUNT)
            }
            ModelSpec::Cnn { c1, c2 } => {
                use simpadv_nn::{Conv2d, MaxPool2d};
                let side = simpadv_data::IMAGE_SIDE;
                let mut net = Sequential::empty();
                net.push(Box::new(Conv2d::new(1, *c1, 3, 1, 1, side, side, &mut rng)));
                net.push(Box::new(Relu::new()));
                net.push(Box::new(MaxPool2d::new(*c1, 2, 2, side, side)));
                net.push(Box::new(Conv2d::new(*c1, *c2, 3, 1, 1, side / 2, side / 2, &mut rng)));
                net.push(Box::new(Relu::new()));
                net.push(Box::new(MaxPool2d::new(*c2, 2, 2, side / 2, side / 2)));
                let head_in = (side / 4) * (side / 4) * c2;
                net.push(Box::new(Dense::new(head_in, CLASS_COUNT, &mut rng)));
                Classifier::new(net, CLASS_COUNT)
            }
        }
    }

    /// A short identifier for reports.
    pub fn id(&self) -> String {
        match self {
            ModelSpec::Mlp { hidden } => {
                let widths: Vec<String> = hidden.iter().map(|h| h.to_string()).collect();
                format!("mlp[{}]", widths.join(","))
            }
            ModelSpec::Cnn { c1, c2 } => format!("cnn[{c1},{c2}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_nn::GradientModel;
    use simpadv_tensor::Tensor;

    #[test]
    fn build_is_deterministic_per_seed() {
        let mut a = ModelSpec::default_mlp().build(3);
        let mut b = ModelSpec::default_mlp().build(3);
        let x = Tensor::full(&[2, IMAGE_PIXELS], 0.5);
        assert_eq!(a.logits(&x), b.logits(&x));
        let mut c = ModelSpec::default_mlp().build(4);
        assert_ne!(a.logits(&x), c.logits(&x));
    }

    #[test]
    fn output_width_matches_classes() {
        let mut m = ModelSpec::small_mlp().build(0);
        let x = Tensor::zeros(&[3, IMAGE_PIXELS]);
        assert_eq!(m.logits(&x).shape(), &[3, CLASS_COUNT]);
        assert_eq!(m.num_classes(), CLASS_COUNT);
    }

    #[test]
    fn id_encodes_architecture() {
        assert_eq!(ModelSpec::default_mlp().id(), "mlp[128]");
        assert_eq!(ModelSpec::Mlp { hidden: vec![256, 128] }.id(), "mlp[256,128]");
        assert_eq!(ModelSpec::small_mlp().id(), "mlp[64]");
    }

    #[test]
    fn serde_roundtrip() {
        for s in [ModelSpec::default_mlp(), ModelSpec::small_cnn()] {
            let json = serde_json::to_string(&s).unwrap();
            let back: ModelSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(s, back);
        }
    }

    #[test]
    fn cnn_builds_and_classifies_shapes() {
        let mut m = ModelSpec::small_cnn().build(1);
        let x = Tensor::full(&[2, IMAGE_PIXELS], 0.5);
        let logits = m.logits(&x);
        assert_eq!(logits.shape(), &[2, CLASS_COUNT]);
        assert_eq!(ModelSpec::small_cnn().id(), "cnn[8,16]");
        let layers = ["conv2d", "relu", "maxpool2d", "conv2d", "relu", "maxpool2d", "dense"];
        assert_eq!(m.network().layer_names(), layers);
    }

    #[test]
    fn cnn_trains_on_a_tiny_batch() {
        use simpadv_nn::Sgd;
        let mut m = ModelSpec::Cnn { c1: 4, c2: 4 }.build(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&mut rng, &[8, IMAGE_PIXELS], 0.0, 1.0);
        let y: Vec<usize> = (0..8).map(|i| i % CLASS_COUNT).collect();
        let mut opt = Sgd::new(0.05);
        let l0 = m.train_batch(&x, &y, &mut opt);
        let mut l_last = l0;
        for _ in 0..10 {
            l_last = m.train_batch(&x, &y, &mut opt);
        }
        assert!(l_last < l0, "CNN loss should fall on a fixed batch: {l0} -> {l_last}");
    }
}
