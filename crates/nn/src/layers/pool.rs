//! Spatial max pooling.

use crate::layer::{Layer, Mode};
use simpadv_tensor::Tensor;

/// Max pooling over non-overlapping (or strided) square windows of each
/// channel plane, on `[n, channels · h · w]` rows that each hold one image
/// in NCHW order.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    in_h: usize,
    in_w: usize,
    cached_argmax: Option<Vec<usize>>, // flat source index per output element
}

impl MaxPool2d {
    /// Creates a max-pool layer over `channels` planes of `in_h`×`in_w`
    /// pixels, with `kernel`×`kernel` windows moved by `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero, or the window is larger
    /// than the input.
    pub fn new(channels: usize, kernel: usize, stride: usize, in_h: usize, in_w: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "pool kernel and stride must be positive");
        assert!(in_h >= kernel && in_w >= kernel, "pool window larger than input");
        MaxPool2d { channels, kernel, stride, in_h, in_w, cached_argmax: None }
    }

    fn out_hw(&self) -> (usize, usize) {
        ((self.in_h - self.kernel) / self.stride + 1, (self.in_w - self.kernel) / self.stride + 1)
    }
}

impl Layer for MaxPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (c, h, w) = (self.channels, self.in_h, self.in_w);
        assert!(
            input.rank() == 2 && input.shape()[1] == c * h * w,
            "maxpool expects [n, {}] image rows, got {:?}",
            c * h * w,
            input.shape()
        );
        let n = input.shape()[0];
        let (oh, ow) = self.out_hw();
        let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
        let mut arg = vec![0usize; n * c * oh * ow];
        let data = input.as_slice();
        for b in 0..n {
            for ch in 0..c {
                let plane = (b * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let dst = ((b * c + ch) * oh + oy) * ow + ox;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let src =
                                    plane + (oy * self.stride + ky) * w + ox * self.stride + kx;
                                if data[src] > out[dst] {
                                    out[dst] = data[src];
                                    arg[dst] = src;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.cached_argmax = Some(arg);
        Tensor::from_vec(out, &[n, c * oh * ow])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let arg = self.cached_argmax.as_ref().expect("maxpool backward before forward");
        let (oh, ow) = self.out_hw();
        let out_width = self.channels * oh * ow;
        let n = arg.len() / out_width;
        assert_eq!(grad_output.shape(), &[n, out_width], "maxpool backward shape mismatch");
        let mut gin = Tensor::zeros(&[n, self.channels * self.in_h * self.in_w]);
        let gslice = gin.as_mut_slice();
        for (dst, &src) in arg.iter().enumerate() {
            gslice[src] += grad_output.as_slice()[dst];
        }
        gin
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_layer_gradients_with_input;

    #[test]
    fn maxpool_forward_values() {
        let mut l = MaxPool2d::new(1, 2, 2, 4, 4);
        let x = Tensor::arange(16).reshape(&[1, 16]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 4]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut l = MaxPool2d::new(1, 2, 2, 4, 4);
        let x = Tensor::arange(16).reshape(&[1, 16]);
        let _ = l.forward(&x, Mode::Eval);
        let g = l.backward(&Tensor::ones(&[1, 4]));
        // gradient lands only on the 4 max positions
        assert_eq!(g.shape(), &[1, 16]);
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.at(&[0, 5]), 1.0); // value 5 was a window max
        assert_eq!(g.at(&[0, 0]), 0.0);
    }

    #[test]
    fn maxpool_gradcheck() {
        // well-separated values keep finite differences away from argmax
        // switches
        let x = well_separated(&[2, 2 * 4 * 4], 0x51EE7);
        check_layer_gradients_with_input(&mut MaxPool2d::new(2, 2, 2, 4, 4), &x, 1e-2, 7);
    }

    /// A tensor whose entries are a shuffled arithmetic progression with
    /// gap 0.1 — far larger than the finite-difference step.
    fn well_separated(shape: &[usize], seed: u64) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let len: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let order = simpadv_tensor::shuffled_indices(&mut rng, len);
        let data: Vec<f32> = order.iter().map(|&i| i as f32 * 0.1 - (len as f32) * 0.05).collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn overlapping_windows_supported() {
        let mut l = MaxPool2d::new(1, 2, 1, 3, 3);
        let y = l.forward(&Tensor::arange(9).reshape(&[1, 9]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 4]);
        assert_eq!(y.as_slice(), &[4.0, 5.0, 7.0, 8.0]);
        let x = well_separated(&[1, 4 * 4], 0xABCD);
        check_layer_gradients_with_input(&mut MaxPool2d::new(1, 2, 1, 4, 4), &x, 1e-2, 9);
    }

    #[test]
    #[should_panic(expected = "kernel and stride")]
    fn zero_kernel_rejected() {
        MaxPool2d::new(1, 0, 1, 3, 3);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn oversized_window_rejected() {
        MaxPool2d::new(1, 5, 1, 3, 3);
    }

    #[test]
    #[should_panic(expected = "maxpool expects [n, 18] image rows")]
    fn forward_validates_the_row_width() {
        MaxPool2d::new(2, 2, 2, 3, 3).forward(&Tensor::zeros(&[1, 9]), Mode::Eval);
    }
}
