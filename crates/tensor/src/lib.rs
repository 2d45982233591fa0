//! # simpadv-tensor
//!
//! A small, dependency-light dense tensor library for `f32` data, built for
//! the `simpadv` reproduction of *"Using Intuition from Empirical Properties
//! to Simplify Adversarial Training Defense"* (Liu et al., 2019).
//!
//! The library provides exactly what CPU-scale neural-network training and
//! gradient-based adversarial attacks need:
//!
//! * row-major contiguous [`Tensor`]s of arbitrary rank,
//! * NumPy-style broadcasting for element-wise arithmetic,
//! * 2-D matrix multiplication (with transpose variants) for dense layers,
//! * per-image `im2col`/`col2im` lowering for convolution layers,
//! * axis and global reductions (`sum`, `mean`, `max`, `argmax`, ...),
//! * a seeded uniform constructor and a Box–Muller normal sampler.
//!
//! Everything is deterministic under a caller-provided RNG; the crate never
//! touches a global random source.
//!
//! ## Example
//!
//! ```
//! use simpadv_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! let row_sums = c.sum_axis(1);
//! assert_eq!(row_sums.as_slice(), &[3.0, 7.0]);
//! ```
//!
//! ## Error handling
//!
//! Each operation has one form. One whose shape contract is broken panics
//! with a message naming the operation and the shapes (`shape mismatch in
//! matmul: [2, 3] vs [4, 2]`), and documents the conditions under
//! `# Panics`. Shapes from outside the process arrive through `Tensor`'s
//! `Deserialize`, which refuses a `data` whose length is not its shape's
//! element count: a decoder returns that as a typed error, so no op is
//! handed a tensor it would index out of bounds.

mod conv;
mod linalg;
mod ops;
mod reduce;
mod rng;
mod shape;
mod tensor;

pub use conv::{col2im, im2col, map_images, Conv2dGeometry};
pub use linalg::{matmul_bytes, matmul_flops};
pub use rng::{shuffled_indices, NormalSampler};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;
