//! The [`Layer`] trait: the contract every network building block fulfils.

use simpadv_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Every layer in this crate computes the same function in both modes.
/// [`crate::Classifier`] tags its training passes `Train` and its
/// evaluation and attack passes `Eval`, so a layer that wraps another
/// (an instrumentation shim, say) can tell the two apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// A training step's forward pass.
    Train,
    /// An evaluation or attack forward pass.
    Eval,
}

/// A mutable view of one trainable parameter and its gradient accumulator.
///
/// Layers hand these out in a *stable order* so the optimizer can keep
/// per-parameter state (momentum) keyed by position.
#[derive(Debug)]
pub struct ParamRef<'a> {
    /// The parameter values, updated in place by the optimizer.
    pub value: &'a mut Tensor,
    /// The accumulated gradient for this parameter.
    pub grad: &'a mut Tensor,
}

/// A differentiable network building block.
///
/// The contract:
///
/// 1. `forward` consumes an input batch, caches whatever the backward pass
///    needs, and returns the output batch.
/// 2. `backward` must be called after a matching `forward`; it receives
///    ∂loss/∂output, **accumulates** ∂loss/∂parameters into the layer's
///    gradient buffers, and returns ∂loss/∂input.
/// 3. `params` exposes parameters and gradients in a stable order.
///
/// `backward` has two halves, and callers ask only for the half they
/// read:
///
/// * [`Layer::backward_params`] accumulates ∂loss/∂parameters and skips
///   ∂loss/∂input. Training steps call it on the lowest trained layer,
///   whose input gradient nobody reads.
/// * [`Layer::backward_input`] returns ∂loss/∂input and leaves parameter
///   gradients untouched. Attack passes call it on every layer.
/// * [`Layer::backward`] does both; every layer above the lowest trained
///   one gets it during training, and "free" adversarial training reads
///   both halves.
///
/// Both halves default to the full `backward`, so a layer that implements
/// only `forward` and `backward` stays correct but gains nothing: its
/// `backward_input` also accumulates parameter gradients, which every
/// training entry point clears before it accumulates its own. Layers
/// with parameters override both halves and write `backward` as "params
/// half, then input half", so the two paths run the same kernel calls.
///
/// `backward` after `forward(Mode::Eval)` is permitted and must produce the
/// gradients of the *evaluation* function — attacks differentiate the
/// deterministic inference network.
///
/// Layers are `Send + Sync` (they hold plain tensors and scalars) so
/// model replicas can cross `simpadv-runtime` worker boundaries,
/// and [`Layer::clone_box`] produces those replicas from behind the trait
/// object.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Runs the layer on `input`, caching state for `backward`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates `grad_output` (∂loss/∂output), accumulating parameter
    /// gradients and returning ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward` or with a
    /// gradient whose shape does not match the last forward output.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// The parameter half of [`Layer::backward`]: accumulates
    /// ∂loss/∂parameters and does not compute ∂loss/∂input.
    ///
    /// Defaults to the full `backward`, discarding the input gradient.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) {
        let _ = self.backward(grad_output);
    }

    /// The input half of [`Layer::backward`]: returns ∂loss/∂input and,
    /// in every layer that overrides it, leaves parameter gradients
    /// untouched.
    ///
    /// Defaults to the full `backward`, which also accumulates parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_input(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward(grad_output)
    }

    /// Trainable parameters in a stable order. Defaults to none.
    fn params(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    /// Clears accumulated parameter gradients. Defaults to a no-op.
    fn zero_grad(&mut self) {
        // layers without parameters have nothing to clear
    }

    /// A short human-readable layer name (e.g. `"dense"`).
    fn name(&self) -> &'static str;

    /// An independent deep copy of this layer behind a fresh box.
    ///
    /// Replicas carry the full layer state (parameters, gradients and
    /// caches) and share nothing with the original; data-parallel code
    /// clones a model per worker and discards the replicas afterwards.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Number of trainable scalars in this layer.
    fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Serializable state: the named parameter tensors. Defaults to none.
    fn state(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }

    /// Restores state saved by [`Layer::state`].
    ///
    /// # Panics
    ///
    /// Implementations may panic when a required entry is missing or has a
    /// mismatched shape.
    fn load_state(&mut self, state: &[(String, Tensor)]) {
        let _ = state;
    }
}

/// Looks up a named tensor in a state list, cloning it.
///
/// # Panics
///
/// Panics when the entry is missing — state dictionaries are produced by
/// [`Layer::state`] and must be complete.
pub(crate) fn expect_state(state: &[(String, Tensor)], key: &str) -> Tensor {
    state
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, t)| t.clone())
        .unwrap_or_else(|| panic!("state entry '{key}' missing"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Identity;
    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            grad_output.clone()
        }
        fn name(&self) -> &'static str {
            "identity"
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn default_impls_are_empty() {
        let mut l = Identity;
        assert!(l.params().is_empty());
        assert_eq!(l.param_count(), 0);
        assert!(l.state().is_empty());
        l.zero_grad(); // no-op
        l.load_state(&[]); // no-op

        // both backward halves default to the full backward
        let g = Tensor::ones(&[2]);
        assert_eq!(l.backward_input(&g), g);
        l.backward_params(&g);
    }

    #[test]
    fn mode_is_copy_eq() {
        let m = Mode::Train;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(Mode::Train, Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn expect_state_panics_on_missing() {
        expect_state(&[], "w");
    }
}
