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
//! * `im2col`/`col2im` lowering for convolution layers,
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
//! Shape-sensitive operations have two flavours: a panicking method (the
//! ergonomic default, used pervasively in hot paths) and a fallible `try_*`
//! variant returning [`TensorError`] for call sites that process untrusted
//! shapes. Panicking methods document their panic conditions.

mod conv;
mod error;
mod linalg;
mod ops;
mod reduce;
mod rng;
mod shape;
mod tensor;

pub use conv::{col2im, im2col, Conv2dGeometry};
pub use error::TensorError;
pub use linalg::{matmul_bytes, matmul_flops};
pub use rng::{shuffled_indices, NormalSampler};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;

/// Convenient result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
