//! 2-D convolution via `im2col` lowering.

use crate::init::he_uniform;
use crate::layer::{expect_state, Layer, Mode, ParamRef};
use rand::Rng;
use simpadv_tensor::{col2im, im2col, Conv2dGeometry, Tensor};

/// A 2-D convolution layer over `[n, c_in, h, w]` inputs.
///
/// The weight is stored flattened as `[c_out, c_in * k_h * k_w]` so the
/// forward pass is a single matrix multiplication against the `im2col`
/// patch matrix; the backward pass reuses the cached patches.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use simpadv_nn::{Conv2d, Layer, Mode};
/// use simpadv_tensor::Tensor;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // 1 input channel, 4 output channels, 3x3 kernel, stride 1, padding 1
/// let mut conv = Conv2d::new(1, 4, 3, 1, 1, 28, 28, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 1, 28, 28]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 4, 28, 28]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor, // [c_out, c_in*kh*kw]
    bias: Tensor,   // [c_out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    c_in: usize,
    c_out: usize,
    geom: Conv2dGeometry,
    cached_cols: Option<Tensor>,
    cached_batch: usize,
}

impl Conv2d {
    /// Creates a square-kernel convolution with He-uniform weights.
    ///
    /// `in_h`/`in_w` fix the expected input spatial size (the networks in
    /// this project operate on fixed-size images, which lets the layer
    /// validate shapes early and precompute its geometry).
    ///
    /// # Panics
    ///
    /// Panics on zero channel counts or a kernel that does not fit.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut R,
    ) -> Self {
        assert!(c_in > 0 && c_out > 0, "conv channels must be positive");
        let geom = Conv2dGeometry::new(in_h, in_w, kernel, kernel, stride, padding);
        let fan_in = c_in * kernel * kernel;
        Conv2d {
            weight: he_uniform(rng, &[c_out, fan_in], fan_in),
            bias: Tensor::zeros(&[c_out]),
            grad_weight: Tensor::zeros(&[c_out, fan_in]),
            grad_bias: Tensor::zeros(&[c_out]),
            c_in,
            c_out,
            geom,
            cached_cols: None,
            cached_batch: 0,
        }
    }

    /// Output spatial size `(out_h, out_w)`.
    pub fn output_size(&self) -> (usize, usize) {
        (self.geom.out_h(), self.geom.out_w())
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.c_out
    }

    /// Lowers `grad_output` to patch-row form: `[n, c_out, oh, ow]` ->
    /// `[n*oh*ow, c_out]`, the layout both backward halves multiply in.
    fn grad_cols(&self, grad_output: &Tensor) -> Tensor {
        assert!(self.cached_cols.is_some(), "conv backward before forward");
        let n = self.cached_batch;
        let (oh, ow) = (self.geom.out_h(), self.geom.out_w());
        assert_eq!(grad_output.shape(), &[n, self.c_out, oh, ow], "conv backward shape mismatch");
        grad_output.permute(&[0, 2, 3, 1]).reshape(&[n * oh * ow, self.c_out])
    }

    /// The parameter half: dW += g_colsᵀ @ cols, db += Σ g_cols.
    fn accumulate_param_grads(&mut self, g_cols: &Tensor) {
        let cols = self.cached_cols.as_ref().expect("conv backward before forward");
        let grad_weight = g_cols.matmul_tn(cols);
        self.grad_weight.add_assign(&grad_weight);
        self.grad_bias.add_assign(&g_cols.sum_axis(0));
    }

    /// The input half: d_cols = g_cols @ W, scattered back to image space.
    fn input_grad(&self, g_cols: &Tensor) -> Tensor {
        let d_cols = g_cols.matmul(&self.weight);
        col2im(&d_cols, self.cached_batch, self.c_in, &self.geom)
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(input.rank(), 4, "conv expects [n, c, h, w], got {:?}", input.shape());
        assert_eq!(input.shape()[1], self.c_in, "conv channel mismatch");
        let n = input.shape()[0];
        let cols = im2col(input, self.c_in, &self.geom); // [n*oh*ow, cin*k*k]
        let y_cols = cols.matmul_nt(&self.weight).add(&self.bias); // [n*oh*ow, c_out]
        self.cached_cols = Some(cols);
        self.cached_batch = n;
        let (oh, ow) = (self.geom.out_h(), self.geom.out_w());
        // [n, oh, ow, c_out] -> [n, c_out, oh, ow]
        y_cols.reshape(&[n, oh, ow, self.c_out]).permute(&[0, 3, 1, 2])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g_cols = self.grad_cols(grad_output);
        self.accumulate_param_grads(&g_cols);
        self.input_grad(&g_cols)
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        let g_cols = self.grad_cols(grad_output);
        self.accumulate_param_grads(&g_cols);
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> Tensor {
        let g_cols = self.grad_cols(grad_output);
        self.input_grad(&g_cols)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
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
        "conv2d"
    }

    fn state(&self) -> Vec<(String, Tensor)> {
        vec![("weight".into(), self.weight.clone()), ("bias".into(), self.bias.clone())]
    }

    fn load_state(&mut self, state: &[(String, Tensor)]) {
        let w = expect_state(state, "weight");
        let b = expect_state(state, "bias");
        assert_eq!(w.shape(), self.weight.shape(), "conv weight shape mismatch on load");
        assert_eq!(b.shape(), self.bias.shape(), "conv bias shape mismatch on load");
        self.weight = w;
        self.bias = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 8, 8, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[4, 2, 8, 8]), Mode::Eval);
        assert_eq!(y.shape(), &[4, 3, 8, 8]);
        assert_eq!(conv.output_size(), (8, 8));
        assert_eq!(conv.out_channels(), 3);
    }

    #[test]
    fn stride_reduces_resolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 2, 2, 2, 0, 8, 8, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 8, 8]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn averaging_kernel_computes_local_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 3, 3, &mut rng);
        // set kernel to 1/4 everywhere, bias 0
        conv.weight.fill(0.25);
        conv.bias.fill(0.0);
        let x = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let y = conv.forward(&x, Mode::Eval);
        // top-left 2x2 block mean = (0+1+3+4)/4
        assert!((y.at(&[0, 0, 0, 0]) - 2.0).abs() < 1e-6);
        assert!((y.at(&[0, 0, 1, 1]) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_with_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 4, 4, &mut rng);
        check_layer_gradients(&mut conv, &[2, 2, 4, 4], 2e-2, 0xC0FFEE);
    }

    #[test]
    fn gradcheck_with_stride() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 2, 2, 2, 0, 4, 4, &mut rng);
        check_layer_gradients(&mut conv, &[2, 1, 4, 4], 2e-2, 0xFACE);
    }

    #[test]
    fn state_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Conv2d::new(1, 2, 3, 1, 1, 5, 5, &mut rng);
        let mut b = Conv2d::new(1, 2, 3, 1, 1, 5, 5, &mut rng);
        b.load_state(&a.state());
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 5, 5], -1.0, 1.0);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn forward_validates_channels() {
        let mut rng = StdRng::seed_from_u64(0);
        Conv2d::new(2, 2, 3, 1, 1, 4, 4, &mut rng)
            .forward(&Tensor::zeros(&[1, 3, 4, 4]), Mode::Eval);
    }
}
