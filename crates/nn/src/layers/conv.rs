//! 2-D convolution over NCHW image rows, one `W · cols` product per image.

use crate::init::he_uniform;
use crate::layer::{expect_state, Layer, Mode, ParamRef};
use rand::Rng;
use simpadv_tensor::{col2im, im2col, map_images, Conv2dGeometry, Tensor};

/// A 2-D convolution layer over `[n, c_in · h · w]` rows, each one image
/// in NCHW order.
///
/// The weight is stored flattened as `[c_out, c_in * k_h * k_w]`. Each
/// image's forward pass is one matrix product `W · cols` with its
/// `im2col` patch matrix, followed by the bias: the product is already
/// the image's `[c_out, oh · ow]` output, so it is the image's NCHW row
/// of the `[n, c_out · oh · ow]` output as computed. The backward pass
/// reuses the cached patch matrices.
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
/// let y = conv.forward(&Tensor::zeros(&[2, 28 * 28]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 4 * 28 * 28]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor, // [c_out, c_in*kh*kw]
    bias: Tensor,   // [c_out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    c_in: usize,
    geom: Conv2dGeometry,
    cached_cols: Option<Vec<Tensor>>, // one [c_in*kh*kw, oh*ow] patch matrix per image
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
            geom,
            cached_cols: None,
        }
    }

    /// `(c_out, oh · ow)`: the shape of one image's output.
    fn out_plane(&self) -> (usize, usize) {
        (self.weight.shape()[0], self.geom.out_h() * self.geom.out_w())
    }

    /// Floats in one image's patch matrix.
    fn lowered(&self) -> usize {
        let (taps, pixels) = self.geom.lowered_shape(self.c_in);
        taps * pixels
    }

    /// The last forward's patch matrices, once `grad_output` is checked
    /// to have that forward's output shape.
    fn cached(&self, grad_output: &Tensor) -> &[Tensor] {
        let cols = self.cached_cols.as_deref().expect("conv backward before forward");
        let (c_out, pixels) = self.out_plane();
        assert_eq!(
            grad_output.shape(),
            &[cols.len(), c_out * pixels],
            "conv backward shape mismatch"
        );
        cols
    }

    /// Image `b`'s row of `grad_output` as its `[c_out, oh · ow]` matrix.
    fn grad_image(&self, grad_output: &Tensor, b: usize) -> Tensor {
        let (c_out, pixels) = self.out_plane();
        Tensor::from_vec(grad_output.row(b).into_vec(), &[c_out, pixels])
    }

    /// The parameter half, per image: dW += G · colsᵀ and db += G's row
    /// sums, added in image order.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) {
        let cols = self.cached(grad_output);
        let grads = map_images(cols.len(), self.lowered(), |b| {
            let g = self.grad_image(grad_output, b);
            (g.matmul_nt(&cols[b]), g.sum_axis(1))
        });
        for (grad_weight, grad_bias) in &grads {
            self.grad_weight.add_assign(grad_weight);
            self.grad_bias.add_assign(grad_bias);
        }
    }

    /// The input half, per image: d_cols = Wᵀ · G, scattered back to the
    /// image's row.
    fn input_grad(&self, grad_output: &Tensor) -> Tensor {
        let n = self.cached(grad_output).len();
        let images = map_images(n, self.lowered(), |b| {
            let d_cols = self.weight.matmul_tn(&self.grad_image(grad_output, b));
            col2im(&d_cols, self.c_in, &self.geom)
        });
        Tensor::from_vec(images.concat(), &[n, self.c_in * self.geom.in_h() * self.geom.in_w()])
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let width = self.c_in * self.geom.in_h() * self.geom.in_w();
        assert!(
            input.rank() == 2 && input.shape()[1] == width,
            "conv expects [n, {width}] image rows, got {:?}",
            input.shape()
        );
        let n = input.shape()[0];
        let (c_out, pixels) = self.out_plane();
        // The bias of each output channel at each of its pixels, added
        // after the product.
        let bias: Vec<f32> =
            self.bias.as_slice().iter().flat_map(|&b| std::iter::repeat_n(b, pixels)).collect();
        let bias = Tensor::from_vec(bias, &[c_out, pixels]);
        let images = map_images(n, self.lowered(), |b| {
            let cols = im2col(&input.as_slice()[b * width..(b + 1) * width], self.c_in, &self.geom);
            let mut y = self.weight.matmul(&cols);
            y.add_assign(&bias);
            (cols, y)
        });
        let (cols, outputs): (Vec<Tensor>, Vec<Tensor>) = images.into_iter().unzip();
        self.cached_cols = Some(cols);
        let rows: Vec<&[f32]> = outputs.iter().map(Tensor::as_slice).collect();
        Tensor::from_vec(rows.concat(), &[n, c_out * pixels])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.accumulate_param_grads(grad_output);
        self.input_grad(grad_output)
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.accumulate_param_grads(grad_output);
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> Tensor {
        self.input_grad(grad_output)
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
        let y = conv.forward(&Tensor::zeros(&[4, 2 * 8 * 8]), Mode::Eval);
        assert_eq!(y.shape(), &[4, 3 * 8 * 8]);
    }

    #[test]
    fn stride_reduces_resolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 2, 2, 2, 0, 8, 8, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[1, 8 * 8]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 2 * 4 * 4]);
    }

    #[test]
    fn averaging_kernel_computes_local_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 3, 3, &mut rng);
        // set kernel to 1/4 everywhere, bias 0
        conv.weight.fill(0.25);
        conv.bias.fill(0.0);
        let x = Tensor::arange(9).reshape(&[1, 9]);
        let y = conv.forward(&x, Mode::Eval);
        // top-left 2x2 block mean = (0+1+3+4)/4, bottom-right (4+5+7+8)/4
        assert!((y.at(&[0, 0]) - 2.0).abs() < 1e-6);
        assert!((y.at(&[0, 3]) - 6.0).abs() < 1e-6);
    }

    /// The convolution written out directly: output `(b, co, oy, ox)` sums
    /// its in-bounds taps in `(channel, ky, kx)` order from `+0.0`, then
    /// adds the bias.
    fn direct_conv(conv: &Conv2d, x: &Tensor, kernel: usize, padding: usize) -> Vec<f32> {
        let (c_in, g) = (conv.c_in, conv.geom);
        let (h, w, oh, ow) = (g.in_h(), g.in_w(), g.out_h(), g.out_w());
        let (c_out, n) = (conv.weight.shape()[0], x.shape()[0]);
        let (wt, xs) = (conv.weight.as_slice(), x.as_slice());
        let mut out = Vec::new();
        for b in 0..n {
            for co in 0..c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ch in 0..c_in {
                            for ky in 0..kernel {
                                for kx in 0..kernel {
                                    let (iy, ix) = (oy + ky, ox + kx);
                                    if iy < padding || ix < padding {
                                        continue;
                                    }
                                    let (iy, ix) = (iy - padding, ix - padding);
                                    if iy >= h || ix >= w {
                                        continue;
                                    }
                                    let tap = (ch * kernel + ky) * kernel + kx;
                                    acc += wt[co * c_in * kernel * kernel + tap]
                                        * xs[((b * c_in + ch) * h + iy) * w + ix];
                                }
                            }
                        }
                        out.push(acc + conv.bias.as_slice()[co]);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_is_bitwise_the_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(5);
        // the small CNN's two convolutions: 1→8 at 28×28 and 8→16 at 14×14
        for (c_in, c_out, side) in [(1, 8, 28), (8, 16, 14)] {
            let mut conv = Conv2d::new(c_in, c_out, 3, 1, 1, side, side, &mut rng);
            conv.bias = Tensor::rand_uniform(&mut rng, &[c_out], -0.5, 0.5);
            // about a third of the pixels exactly zero, as in synthetic
            // images and ReLU outputs
            let x = Tensor::rand_uniform(&mut rng, &[3, c_in * side * side], -0.5, 1.0)
                .map(|v| v.max(0.0));
            assert!(x.as_slice().contains(&0.0));
            let y = conv.forward(&x, Mode::Eval);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(y.as_slice()), bits(&direct_conv(&conv, &x, 3, 1)), "{c_in}->{c_out}");
        }
    }

    #[test]
    fn gradcheck_with_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 4, 4, &mut rng);
        check_layer_gradients(&mut conv, &[2, 2 * 4 * 4], 2e-2, 0xC0FFEE);
    }

    #[test]
    fn gradcheck_with_stride() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 2, 2, 2, 0, 4, 4, &mut rng);
        check_layer_gradients(&mut conv, &[2, 4 * 4], 2e-2, 0xFACE);
    }

    #[test]
    fn state_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Conv2d::new(1, 2, 3, 1, 1, 5, 5, &mut rng);
        let mut b = Conv2d::new(1, 2, 3, 1, 1, 5, 5, &mut rng);
        b.load_state(&a.state());
        let x = Tensor::rand_uniform(&mut rng, &[1, 5 * 5], -1.0, 1.0);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    #[should_panic(expected = "conv expects [n, 32] image rows")]
    fn forward_validates_the_row_width() {
        let mut rng = StdRng::seed_from_u64(0);
        Conv2d::new(2, 2, 3, 1, 1, 4, 4, &mut rng)
            .forward(&Tensor::zeros(&[1, 3 * 4 * 4]), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "conv expects [n, 16] image rows")]
    fn forward_rejects_image_tensors() {
        let mut rng = StdRng::seed_from_u64(0);
        Conv2d::new(1, 2, 3, 1, 1, 4, 4, &mut rng)
            .forward(&Tensor::zeros(&[1, 1, 4, 4]), Mode::Eval);
    }
}
