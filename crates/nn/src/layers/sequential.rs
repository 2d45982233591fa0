//! The [`Sequential`] container.

use crate::layer::{Layer, Mode, ParamRef};
use simpadv_tensor::Tensor;

/// A feed-forward chain of layers.
///
/// `forward` threads the input through every layer in order; `backward`
/// threads the loss gradient through every layer in reverse, accumulating
/// parameter gradients and returning ∂loss/∂input — the quantity
/// adversarial attacks consume. `backward_input` threads it through every
/// layer's input half only; `backward_params` stops at the first layer
/// that has parameters, which computes only its parameter half, so no
/// input gradient is computed below it.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use simpadv_nn::{Dense, Layer, Mode, Relu, Sequential};
/// use simpadv_tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new(vec![
///     Box::new(Dense::new(8, 16, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(16, 2, &mut rng)),
/// ]);
/// let y = net.forward(&Tensor::zeros(&[3, 8]), Mode::Eval);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Sequential {
    /// Deep-copies every layer via [`Layer::clone_box`].
    fn clone(&self) -> Self {
        Sequential { layers: self.layers.iter().map(|l| l.clone_box()).collect() }
    }
}

impl Sequential {
    /// Creates a container from an ordered layer list.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Creates an empty container; add layers with [`Sequential::push`].
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer names, in order (useful for debugging and reports).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Layer for Sequential {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        let Some(first) = self.layers.iter_mut().position(|l| !l.params().is_empty()) else {
            return; // nothing to train
        };
        let (below, above) = self.layers.split_at_mut(first + 1);
        let mut g = grad_output.clone();
        for layer in above.iter_mut().rev() {
            g = layer.backward(&g);
        }
        below[first].backward_params(&g);
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_input(&g);
        }
        g
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn state(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            for (k, t) in layer.state() {
                out.push((format!("{i}.{k}"), t));
            }
        }
        out
    }

    /// Hands every layer the entries under its `{index}.` prefix, so a
    /// layer with parameters and no entries panics like any other
    /// missing entry.
    fn load_state(&mut self, state: &[(String, Tensor)]) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let prefix = format!("{i}.");
            let sub: Vec<(String, Tensor)> = state
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, t)| (k[prefix.len()..].to_string(), t.clone()))
                .collect();
            layer.load_state(&sub);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::testutil::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = mlp(0);
        let y = net.forward(&Tensor::zeros(&[2, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(net.layer_names(), vec!["dense", "relu", "dense"]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn gradcheck_full_network() {
        check_layer_gradients(&mut mlp(1), &[3, 4], 2e-2, 31);
    }

    #[test]
    fn gradcheck_network_with_a_parameterless_first_layer() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Sequential::new(vec![
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        check_layer_gradients(&mut net, &[3, 4], 2e-2, 32);
    }

    /// An identity layer whose backward must never run.
    #[derive(Debug, Clone)]
    struct NoBackward;
    impl Layer for NoBackward {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, _grad_output: &Tensor) -> Tensor {
            panic!("backward ran below the first trained layer")
        }
        fn name(&self) -> &'static str {
            "no-backward"
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn backward_params_stops_at_the_first_trained_layer() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new(vec![
            Box::new(NoBackward),
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        let y = net.forward(&Tensor::ones(&[2, 4]), Mode::Train);
        net.backward_params(&Tensor::ones(y.shape()));
        assert!(net.params().iter().all(|p| p.grad.norm_linf() > 0.0));
        // a network without parameters has nothing to backpropagate
        let mut head = Sequential::new(vec![Box::new(NoBackward), Box::new(Relu::new())]);
        let y = head.forward(&Tensor::ones(&[2, 4]), Mode::Train);
        head.backward_params(&y);
    }

    #[test]
    fn params_flattened_in_order() {
        let mut net = mlp(0);
        let p = net.params();
        assert_eq!(p.len(), 4); // two dense layers × (weight, bias)
        assert_eq!(p[0].value.shape(), &[4, 8]);
        assert_eq!(p[3].value.shape(), &[3]);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut net = mlp(0);
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward(&x, Mode::Train);
        let _ = net.backward(&Tensor::ones(y.shape()));
        assert!(net.params().iter().any(|p| p.grad.norm_linf() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.norm_linf() == 0.0));
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut a = mlp(0);
        let mut b = mlp(99);
        b.load_state(&a.state());
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&mut rng, &[2, 4], -1.0, 1.0);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    #[should_panic(expected = "state entry 'weight' missing")]
    fn load_state_panics_when_a_layer_has_no_entries() {
        let state: Vec<(String, Tensor)> =
            mlp(0).state().into_iter().filter(|(k, _)| !k.starts_with("2.")).collect();
        mlp(1).load_state(&state);
    }

    #[test]
    fn push_builds_incrementally() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::empty();
        assert!(net.is_empty());
        net.push(Box::new(Dense::new(2, 2, &mut rng)));
        net.push(Box::new(Relu::new()));
        assert_eq!(net.len(), 2);
        let y = net.forward(&Tensor::zeros(&[1, 2]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 2]);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::empty();
        let x = Tensor::arange(4).reshape(&[2, 2]);
        assert_eq!(net.forward(&x, Mode::Eval), x);
        assert_eq!(net.backward(&x), x);
    }
}
