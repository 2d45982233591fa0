//! The ReLU activation layer.

use crate::layer::{Layer, Mode};
use simpadv_tensor::Tensor;

/// Rectified linear unit: `max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(input.clone());
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("relu backward before forward");
        assert_eq!(grad_output.shape(), input.shape(), "relu backward shape mismatch");
        grad_output.zip_map(input, |g, x| if x > 0.0 { g } else { 0.0 })
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_layer_gradients;

    #[test]
    fn relu_forward_values() {
        let mut l = Relu::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradcheck() {
        check_layer_gradients(&mut Relu::new(), &[3, 5], 1e-2, 1);
    }

    #[test]
    fn relu_has_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
    }
}
