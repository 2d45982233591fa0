//! Convolution lowering: per-image `im2col` / `col2im` and output-geometry
//! math.
//!
//! `simpadv-nn`'s `Conv2d` layer computes each image's convolution as one
//! matrix product `W · cols` over the image's patch matrix, whose rows are
//! kernel taps and whose columns are output pixels. The product is already
//! the image's `[c_out, oh·ow]` output in NCHW order. The adjoint
//! (`col2im`) scatters a patch-matrix gradient back into the image's
//! gradient, which is what the convolution's input gradient needs.

use crate::tensor::Tensor;
use simpadv_runtime::Runtime;

/// Lowered floats below which a batch's per-image work stays serial.
const PAR_ELEM_THRESHOLD: usize = 1 << 18;

/// Fixed fan-out of the per-image loops; chunk boundaries depend only on
/// the batch size, per the simpadv-runtime determinism contract.
const BATCH_CHUNKS: usize = 16;

/// `f(b)` for every image `b` of an `n`-image batch whose patch matrices
/// hold `lowered` floats per image, in image order. A batch that lowers
/// to at least 2^18 floats runs on the global runtime in fixed chunks of
/// images; a smaller one runs serially. Each result depends on its own
/// image only, so the results are bitwise the same at any thread count.
pub fn map_images<R, F>(n: usize, lowered: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let rt = Runtime::global();
    if rt.threads() > 1 && n > 1 && n * lowered >= PAR_ELEM_THRESHOLD {
        let chunks =
            rt.par_chunks(n, n.div_ceil(BATCH_CHUNKS), |images| images.map(&f).collect::<Vec<R>>());
        return chunks.into_iter().flatten().collect();
    }
    (0..n).map(f).collect()
}

/// Geometry of a 2-D convolution: input/kernel sizes, stride and padding.
///
/// # Example
///
/// ```
/// use simpadv_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(28, 28, 3, 3, 1, 1);
/// assert_eq!((g.out_h(), g.out_w()), (28, 28)); // "same" padding
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    in_h: usize,
    in_w: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (after padding) does not fit in the input or the
    /// stride is zero.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * padding >= k_h && in_w + 2 * padding >= k_w,
            "kernel {k_h}x{k_w} larger than padded input {}x{}",
            in_h + 2 * padding,
            in_w + 2 * padding
        );
        Conv2dGeometry { in_h, in_w, k_h, k_w, stride, padding }
    }

    /// Input height.
    pub fn in_h(&self) -> usize {
        self.in_h
    }

    /// Input width.
    pub fn in_w(&self) -> usize {
        self.in_w
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.k_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.k_w) / self.stride + 1
    }

    /// Shape `[taps, pixels]` of the patch matrix [`im2col`] produces for
    /// one `channels`-channel image: `channels · k_h · k_w` kernel taps by
    /// `out_h · out_w` output pixels.
    pub fn lowered_shape(&self, channels: usize) -> (usize, usize) {
        (channels * self.k_h * self.k_w, self.out_h() * self.out_w())
    }

    /// Logical bytes [`im2col`] moves lowering an `n`-image,
    /// `channels`-channel batch: each image read once and its patch
    /// matrix written once, at 4 bytes per `f32`. The lowering is pure
    /// data movement, so this — not a flop count — is the scoreboard's
    /// throughput basis.
    pub fn im2col_bytes(&self, n: usize, channels: usize) -> u64 {
        let (taps, pixels) = self.lowered_shape(channels);
        4 * (n as u64) * ((channels * self.in_h * self.in_w + taps * pixels) as u64)
    }
}

/// Lowers one image, `channels` planes of `in_h · in_w` pixels in NCHW
/// order, into its patch matrix.
///
/// The result has shape `[channels · k_h · k_w, out_h · out_w]`: one row
/// per kernel tap in `(channel, ky, kx)` order, one column per output
/// pixel in raster order, zero where a tap falls in the padding. A
/// convolution with weight `[c_out, channels · k_h · k_w]` is then
/// `weight.matmul(&cols)`, the image's `[c_out, out_h · out_w]` output.
///
/// # Panics
///
/// Panics if `image` does not hold `channels · in_h · in_w` values.
pub fn im2col(image: &[f32], channels: usize, geom: &Conv2dGeometry) -> Tensor {
    let (h, w) = (geom.in_h, geom.in_w);
    assert_eq!(image.len(), channels * h * w, "im2col expects one {channels}x{h}x{w} image");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (taps, pixels) = geom.lowered_shape(channels);
    let pad = geom.padding as isize;
    let mut out = vec![0.0f32; taps * pixels];
    for ch in 0..channels {
        for ky in 0..geom.k_h {
            for kx in 0..geom.k_w {
                let row = ((ch * geom.k_h + ky) * geom.k_w + kx) * pixels;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue; // stays zero (zero padding)
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[row + oy * ow + ox] = image[(ch * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[taps, pixels])
}

/// Adjoint of [`im2col`]: scatters one image's patch-matrix gradient back
/// into its `channels · in_h · in_w` image gradient, summing overlapping
/// contributions. Each image pixel adds its contributions from `+0.0` in
/// output-pixel raster order, and within an output pixel in `(channel,
/// ky, kx)` tap order.
///
/// # Panics
///
/// Panics if `cols` does not have the shape [`im2col`] produces for
/// `(channels, geom)`.
pub fn col2im(cols: &Tensor, channels: usize, geom: &Conv2dGeometry) -> Vec<f32> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (h, w) = (geom.in_h, geom.in_w);
    let (taps, pixels) = geom.lowered_shape(channels);
    assert_eq!(
        cols.shape(),
        &[taps, pixels],
        "col2im shape mismatch: expected [{taps}, {pixels}], got {:?}",
        cols.shape()
    );
    let data = cols.as_slice();
    let pad = geom.padding as isize;
    let mut out = vec![0.0f32; channels * h * w];
    for oy in 0..oh {
        for ox in 0..ow {
            let pixel = oy * ow + ox;
            for ch in 0..channels {
                for ky in 0..geom.k_h {
                    let iy = (oy * geom.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..geom.k_w {
                        let ix = (ox * geom.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let tap = (ch * geom.k_h + ky) * geom.k_w + kx;
                        out[(ch * h + iy as usize) * w + ix as usize] += data[tap * pixels + pixel];
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(28, 28, 3, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (28, 28));
    }

    #[test]
    fn geometry_valid_padding_and_stride() {
        let g = Conv2dGeometry::new(28, 28, 5, 5, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (24, 24));
        let g2 = Conv2dGeometry::new(28, 28, 2, 2, 2, 0);
        assert_eq!((g2.out_h(), g2.out_w()), (14, 14));
    }

    #[test]
    fn lowered_shape_matches_im2col_output() {
        let g = Conv2dGeometry::new(6, 6, 3, 3, 1, 1);
        let image = vec![1.0; 3 * 6 * 6];
        let cols = im2col(&image, 3, &g);
        let (taps, pixels) = g.lowered_shape(3);
        assert_eq!(cols.shape(), &[taps, pixels]);
        // bytes: each image read once + its lowering written once
        let expected = 4 * 2 * (image.len() as u64 + (taps * pixels) as u64);
        assert_eq!(g.im2col_bytes(2, 3), expected);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn geometry_rejects_zero_stride() {
        Conv2dGeometry::new(8, 8, 3, 3, 0, 0);
    }

    #[test]
    #[should_panic(expected = "larger than")]
    fn geometry_rejects_oversized_kernel() {
        Conv2dGeometry::new(2, 2, 5, 5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "one 1x3x3 image")]
    fn im2col_checks_the_image_size() {
        im2col(&[0.0; 8], 1, &Conv2dGeometry::new(3, 3, 2, 2, 1, 0));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: the patch matrix is the image.
        let x = Tensor::arange(8);
        let g = Conv2dGeometry::new(2, 2, 1, 1, 1, 0);
        let cols = im2col(x.as_slice(), 2, &g);
        assert_eq!(cols.shape(), &[2, 4]);
        // row t holds tap t (here channel t) at every pixel
        assert_eq!(cols.row(0).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(cols.row(1).as_slice(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn im2col_extracts_patches() {
        // single channel 3x3 image, 2x2 kernel, stride 1, no padding
        let x = Tensor::arange(9);
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 0);
        let cols = im2col(x.as_slice(), 1, &g);
        assert_eq!(cols.shape(), &[4, 4]);
        // column p is output pixel p's patch
        let patch = |p: usize| (0..4).map(|t| cols.at(&[t, p])).collect::<Vec<f32>>();
        assert_eq!(patch(0), [0.0, 1.0, 3.0, 4.0]);
        assert_eq!(patch(3), [4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_zero_padding_borders() {
        let g = Conv2dGeometry::new(2, 2, 3, 3, 1, 1);
        let cols = im2col(&[1.0; 4], 1, &g);
        assert_eq!(cols.shape(), &[9, 4]);
        // top-left output pixel: only bottom-right 2x2 of kernel hits image
        let patch: Vec<f32> = (0..9).map(|t| cols.at(&[t, 0])).collect();
        assert_eq!(patch.iter().sum::<f32>(), 4.0);
        assert_eq!(patch[0], 0.0); // padded corner
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y
        let x = Tensor::arange(18).map(|v| (v * 0.37).sin());
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 1);
        let cols = im2col(x.as_slice(), 2, &g);
        let y = cols.map(|v| (v + 1.0) * 0.5 + 0.1);
        let back = col2im(&y, 2, &g);
        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(&back).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_counts_overlaps() {
        // all-ones columns scattered back count how many patches cover a pixel
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 0);
        let img = col2im(&Tensor::ones(&[4, 4]), 1, &g);
        // centre pixel is covered by all 4 patches, corners by exactly 1
        assert_eq!(img[4], 4.0);
        assert_eq!(img[0], 1.0);
    }
}
