//! Fully connected (affine) layer.

use crate::init::he_uniform;
use crate::layer::{expect_state, Layer, Mode, ParamRef};
use rand::Rng;
use simpadv_tensor::Tensor;

/// A fully connected layer computing `y = x W + b`.
///
/// Shapes: input `[n, in_features]`, weight `[in_features, out_features]`,
/// bias `[out_features]`, output `[n, out_features]`.
///
/// The input gradient `g Wᵀ` multiplies by a `Wᵀ` packed once per weight
/// version: the first [`Layer::backward_input`] after the weights change
/// packs it, and [`Layer::params`] and [`Layer::load_state`], the only
/// ways to change the weights, drop it. `g.matmul(&Wᵀ)` runs the same
/// kernel on the same operands as `g.matmul_nt(&W)`, which packs `Wᵀ`
/// on every call, so the gradient is bitwise the same; a BIM(10) craft
/// packs once instead of ten times.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use simpadv_nn::{Dense, Layer, Mode};
/// use simpadv_tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, &mut rng);
/// let y = layer.forward(&Tensor::ones(&[4, 3]), Mode::Eval);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// `weightᵀ`, packed for the input gradient; `None` until the first
    /// `backward_input` after the weights last changed.
    packed_weight_t: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0, "dense dims must be positive");
        Dense {
            weight: he_uniform(rng, &[in_features, out_features], in_features),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            packed_weight_t: None,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Immutable access to the weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The input of the last forward, checked against the shape of the
    /// `grad_output` a backward half received.
    fn cached_input_for(&self, grad_output: &Tensor) -> &Tensor {
        let input = self.cached_input.as_ref().expect("dense backward called before forward");
        assert_eq!(
            grad_output.shape(),
            &[input.shape()[0], self.out_features()],
            "dense backward shape mismatch"
        );
        input
    }
}

impl Layer for Dense {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(input.rank(), 2, "dense expects [n, d] input, got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_features(),
            "dense input width {} != {}",
            input.shape()[1],
            self.in_features()
        );
        self.cached_input = Some(input.clone());
        input.matmul(&self.weight).add(&self.bias)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_params(grad_output);
        self.backward_input(grad_output)
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        // dW += xᵀ g, db += Σ_batch g
        let grad_weight = self.cached_input_for(grad_output).matmul_tn(grad_output);
        self.grad_weight.add_assign(&grad_weight);
        self.grad_bias.add_assign(&grad_output.sum_axis(0));
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> Tensor {
        // dx = g Wᵀ, once the cached input confirms the forward and shape
        let _ = self.cached_input_for(grad_output);
        let weight_t = self.packed_weight_t.get_or_insert_with(|| self.weight.transpose());
        grad_output.matmul(weight_t)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        // The caller may change the weights: repack on the next backward.
        self.packed_weight_t = None;
        vec![
            ParamRef { value: &mut self.weight, grad: &mut self.grad_weight },
            ParamRef { value: &mut self.bias, grad: &mut self.grad_bias },
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn state(&self) -> Vec<(String, Tensor)> {
        vec![("weight".into(), self.weight.clone()), ("bias".into(), self.bias.clone())]
    }

    fn load_state(&mut self, state: &[(String, Tensor)]) {
        let w = expect_state(state, "weight");
        let b = expect_state(state, "bias");
        assert_eq!(w.shape(), self.weight.shape(), "dense weight shape mismatch on load");
        assert_eq!(b.shape(), self.bias.shape(), "dense bias shape mismatch on load");
        self.weight = w;
        self.bias = b;
        self.packed_weight_t = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(7);
        Dense::new(3, 2, &mut rng)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer();
        let y = l.forward(&Tensor::zeros(&[5, 3]), Mode::Eval);
        assert_eq!(y.shape(), &[5, 2]);
        // zero input → output equals bias (zero)
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Dense::new(2, 2, &mut rng);
        l.load_state(&[
            ("weight".into(), Tensor::ones(&[2, 2])),
            ("bias".into(), Tensor::zeros(&[2])),
        ]);
        let y = l.forward(&Tensor::from_vec(vec![1.0, 2.0], &[1, 2]), Mode::Eval);
        assert_eq!(y.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn backward_accumulates_and_returns_input_grad() {
        let mut l = layer();
        let x = Tensor::ones(&[2, 3]);
        let _ = l.forward(&x, Mode::Train);
        let g = Tensor::ones(&[2, 2]);
        let gx = l.backward(&g);
        assert_eq!(gx.shape(), &[2, 3]);
        // db = sum over batch of g = [2, 2]
        assert_eq!(l.grad_bias.as_slice(), &[2.0, 2.0]);
        // second backward accumulates
        let _ = l.forward(&x, Mode::Train);
        let _ = l.backward(&g);
        assert_eq!(l.grad_bias.as_slice(), &[4.0, 4.0]);
        l.zero_grad();
        assert_eq!(l.grad_bias.sum(), 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        crate::testutil::check_layer_gradients(&mut layer(), &[4, 3], 1e-2, 0xBEEF);
    }

    #[test]
    fn params_order_is_stable() {
        let mut l = layer();
        let p = l.params();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].value.shape(), &[3, 2]);
        assert_eq!(p[1].value.shape(), &[2]);
        assert_eq!(l.param_count(), 8);
    }

    #[test]
    fn state_roundtrip() {
        let mut a = layer();
        let mut rng = StdRng::seed_from_u64(99);
        let mut b = Dense::new(3, 2, &mut rng);
        b.load_state(&a.state());
        let x = Tensor::rand_uniform(&mut rng, &[2, 3], -1.0, 1.0);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    fn packed_weight_t_follows_every_weight_change() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Dense::new(5, 4, &mut rng);
        let x = Tensor::rand_uniform(&mut rng, &[3, 5], 0.0, 1.0);
        let g = Tensor::rand_uniform(&mut rng, &[3, 4], -1.0, 1.0);
        let input_grad = |l: &mut Dense| {
            let _ = l.forward(&x, Mode::Eval);
            l.backward_input(&g)
        };
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let old = input_grad(&mut l); // packs Wᵀ
        assert_eq!(bits(&old), bits(&g.matmul_nt(l.weight())));
        let mut before_step = l.clone();

        // An SGD step through `params()` changes the weights.
        let _ = l.forward(&x, Mode::Train);
        l.backward_params(&g);
        crate::Sgd::new(0.5).step(&mut l.params());
        let new = input_grad(&mut l);
        assert_eq!(bits(&new), bits(&g.matmul_nt(l.weight())));
        assert_ne!(new, old);
        // A clone taken before the step keeps the old weights' gradient.
        assert_eq!(bits(&input_grad(&mut before_step)), bits(&old));

        // `load_state` swaps in other weights.
        l.load_state(&Dense::new(5, 4, &mut rng).state());
        assert_eq!(bits(&input_grad(&mut l)), bits(&g.matmul_nt(l.weight())));
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn forward_validates_width() {
        layer().forward(&Tensor::zeros(&[1, 4]), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        layer().backward(&Tensor::zeros(&[1, 2]));
    }
}
