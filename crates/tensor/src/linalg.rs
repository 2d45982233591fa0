//! Dense linear algebra: matrix multiplication variants, dot and outer
//! products.
//!
//! All three matmul variants run one kernel, [`gemm_rows`]: an `i-k-j`
//! loop over a strided left operand and a row-major `[k, n]` right
//! operand. `matmul` reads its left operand with strides `(k, 1)`,
//! `matmul_tn` reads it transposed in place with strides `(1, m)`, and
//! `matmul_nt` packs `rhsᵀ` once per call. The kernel skips a left
//! operand element that is zero; ReLU-masked gradients are about half
//! zeros, so the skip saves real work on the backward and attack paths.
//!
//! **Accumulation order.** Output element `(i, j)` starts at `+0.0` and
//! adds `a[i][p] * b[p][j]` in increasing `p` in one accumulator, for
//! every variant. Skipping a zero `a[i][p]` drops an addend of `±0.0`,
//! which leaves the sum unchanged for finite operands, so the result is
//! bitwise that of a scalar dot product in increasing `p`. The order
//! depends on neither the row block an output row falls in nor the other
//! rows of the operand: products above [`PAR_WORK_THRESHOLD`] are
//! row-blocked across the global [`Runtime`] and concatenated in row
//! order, so results are bitwise equal for any thread count, and row `i`
//! of a batched product equals the product of row `i` alone.

use crate::error::TensorError;
use crate::tensor::Tensor;
use simpadv_runtime::Runtime;
use std::ops::Range;

/// Work size (`m * k * n` multiply-accumulates) below which the matmul
/// kernels stay serial: thread spawn overhead beats the parallel win for
/// small products.
const PAR_WORK_THRESHOLD: usize = 1 << 21;

/// Fixed fan-out of the row-blocked kernels. Chunk boundaries depend only
/// on the row count — never on the thread count — per the simpadv-runtime
/// determinism contract.
const KERNEL_CHUNKS: usize = 16;

/// Logical multiply-accumulate count of an `[m, k] x [k, n]` product —
/// the exact amount every matmul variant ticks into the trace clock.
/// Shape introspection for the kernel microbenchmark lab: the scoreboard
/// derives GFLOP/s from this, never from a measured counter.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    (m as u64) * (k as u64) * (n as u64)
}

/// Logical bytes an `[m, k] x [k, n]` product moves: both operands read
/// once, the output written once, at 4 bytes per `f32`. A lower bound
/// (cache re-reads are not modeled), used for the scoreboard's bytes/s.
pub fn matmul_bytes(m: usize, k: usize, n: usize) -> u64 {
    4 * ((m as u64) * (k as u64) + (k as u64) * (n as u64) + (m as u64) * (n as u64))
}

/// Rows `rows` of `A @ b`, where `A[i][p] = a[i * rs + p * cs]` and
/// `b: [k, n]` is row-major, in `i-k-j` order: the one accumulation loop
/// behind every matmul variant (see the module docs for its order).
fn gemm_rows(
    a: &[f32],
    (rs, cs): (usize, usize),
    b: &[f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    for (row_idx, i) in rows.enumerate() {
        let orow = &mut out[row_idx * n..(row_idx + 1) * n];
        for p in 0..k {
            let av = a[i * rs + p * cs];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Ticks the product's flops and computes `A @ b` (see [`gemm_rows`]),
/// row-blocked across the global runtime above [`PAR_WORK_THRESHOLD`].
fn gemm(a: &[f32], strides: (usize, usize), b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    simpadv_trace::clock::add_flops(matmul_flops(m, k, n));
    let rt = Runtime::global();
    if rt.threads() > 1 && m > 1 && m.saturating_mul(k).saturating_mul(n) >= PAR_WORK_THRESHOLD {
        let chunk = m.div_ceil(KERNEL_CHUNKS).max(1);
        let blocks = rt.par_chunks(m, chunk, |rows| gemm_rows(a, strides, b, rows, k, n));
        return Tensor::from_vec(blocks.concat(), &[m, n]);
    }
    Tensor::from_vec(gemm_rows(a, strides, b, 0..m, k, n), &[m, n])
}

impl Tensor {
    /// Matrix product `self @ rhs` of two rank-2 tensors.
    ///
    /// Shapes: `[m, k] @ [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D operands and
    /// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    pub fn try_matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2(self, "matmul")?;
        check_rank2(rhs, "matmul")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "matmul",
            });
        }
        Ok(gemm(self.as_slice(), (k, 1), rhs.as_slice(), m, k, n))
    }

    /// `selfᵀ @ rhs` without materializing the transpose.
    ///
    /// Shapes: `[k, m]ᵀ @ [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension
    /// disagrees.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul_tn(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::matmul_tn`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D operands and
    /// [`TensorError::ShapeMismatch`] when the shared dimension disagrees.
    pub fn try_matmul_tn(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2(self, "matmul_tn")?;
        check_rank2(rhs, "matmul_tn")?;
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "matmul_tn",
            });
        }
        Ok(gemm(self.as_slice(), (1, m), rhs.as_slice(), m, k, n))
    }

    /// `self @ rhsᵀ`; `rhsᵀ` is packed once per call so the product runs
    /// the shared row kernel.
    ///
    /// Shapes: `[m, k] @ [n, k]ᵀ -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the shared dimension
    /// disagrees.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        self.try_matmul_nt(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Tensor::matmul_nt`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D operands and
    /// [`TensorError::ShapeMismatch`] when the shared dimension disagrees.
    pub fn try_matmul_nt(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        check_rank2(self, "matmul_nt")?;
        check_rank2(rhs, "matmul_nt")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
                op: "matmul_nt",
            });
        }
        Ok(gemm(self.as_slice(), (k, 1), rhs.transpose().as_slice(), m, k, n))
    }

    /// Inner (dot) product of two 1-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 1 or lengths differ.
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot expects rank-1 tensors");
        assert_eq!(rhs.rank(), 1, "dot expects rank-1 tensors");
        assert_eq!(self.len(), rhs.len(), "dot length mismatch");
        self.as_slice().iter().zip(rhs.as_slice()).map(|(&a, &b)| a * b).sum()
    }

    /// Outer product of two 1-D tensors: `[m] ⊗ [n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 1.
    pub fn outer(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 1, "outer expects rank-1 tensors");
        assert_eq!(rhs.rank(), 1, "outer expects rank-1 tensors");
        let (m, n) = (self.len(), rhs.len());
        let mut out = Vec::with_capacity(m * n);
        for &a in self.as_slice() {
            for &b in rhs.as_slice() {
                out.push(a * b);
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// The Frobenius (l2) norm of the tensor.
    pub fn norm_l2(&self) -> f32 {
        self.as_slice().iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// The l∞ (maximum absolute value) norm of the tensor; 0 when empty.
    pub fn norm_linf(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, got: t.rank(), op });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::ones(&[4, 5]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[3, 5]);
        assert!(c.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn try_matmul_errors() {
        let a = Tensor::ones(&[2, 3]);
        assert!(a.try_matmul(&Tensor::ones(&[4, 2])).is_err());
        assert!(a.try_matmul(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::arange(6).reshape(&[3, 2]);
        let b = Tensor::arange(12).reshape(&[3, 4]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let b = Tensor::arange(12).reshape(&[4, 3]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    /// Serializes the tests that set the global thread count or read
    /// flop deltas off the process-global trace clock.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A `[r, c]` operand with exact `0.0` and `-0.0` entries, like a
    /// ReLU-masked gradient.
    fn masked(seed: u64, r: usize, c: usize) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = Tensor::rand_uniform(&mut rng, &[r, c], -1.0, 1.0);
        dense.map(|v| if v.abs() < 0.4 { 0.0f32.copysign(v) } else { v })
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `a @ b` as each variant computes it: `matmul`, `matmul_tn` on
    /// `aᵀ`, `matmul_nt` on `bᵀ`.
    fn variants(a: &Tensor, b: &Tensor) -> [Tensor; 3] {
        [a.matmul(b), a.transpose().matmul_tn(b), a.matmul_nt(&b.transpose())]
    }

    #[test]
    fn every_variant_sums_in_increasing_p_bitwise() {
        let _g = global_lock();
        for (m, k, n, seed) in [(1, 1, 1, 1), (5, 9, 3, 2), (16, 128, 784, 3)] {
            let (a, b) = (masked(seed, m, k), masked(seed + 10, k, n));
            // one scalar accumulator per element, from +0.0, increasing p
            let (sa, sb) = (a.as_slice(), b.as_slice());
            let reference: Vec<u32> = (0..m * n)
                .map(|ij| {
                    let (i, j) = (ij / n, ij % n);
                    (0..k).fold(0.0f32, |acc, p| acc + sa[i * k + p] * sb[p * n + j]).to_bits()
                })
                .collect();
            for (v, c) in variants(&a, &b).iter().enumerate() {
                assert_eq!(bits(c), reference, "variant {v} at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn row_i_of_a_product_is_the_product_of_row_i_alone() {
        // serve's batched ≡ single contract, with the batch row-blocked
        let _g = global_lock();
        simpadv_runtime::set_global_threads(4);
        let (a, b) = (masked(4, 64, 128), masked(5, 128, 784));
        let batched = variants(&a, &b);
        for i in 0..64 {
            let single = variants(&a.rows(i..i + 1), &b);
            for (v, (one, all)) in single.iter().zip(&batched).enumerate() {
                assert_eq!(bits(one), bits(&all.rows(i..i + 1)), "variant {v}, row {i}");
            }
        }
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn parallel_kernels_match_serial_bitwise() {
        // The Dense input gradient δ·Wᵀ at batch 64 crosses the threshold.
        const { assert!(64 * 128 * 784 >= PAR_WORK_THRESHOLD) };
        let _g = global_lock();
        let (a, b) = (masked(6, 64, 128), masked(7, 128, 784));
        simpadv_runtime::set_global_threads(1);
        let serial = variants(&a, &b);
        for threads in [2, 4] {
            simpadv_runtime::set_global_threads(threads);
            for (v, (par, ser)) in variants(&a, &b).iter().zip(&serial).enumerate() {
                assert_eq!(bits(par), bits(ser), "variant {v}, threads={threads}");
            }
        }
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn dot_and_outer() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[3, 3]);
        assert_eq!(o.at(&[2, 0]), 12.0);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_slice(&[3.0, -4.0]);
        assert_eq!(t.norm_l2(), 5.0);
        assert_eq!(t.norm_linf(), 4.0);
        assert_eq!(Tensor::default().norm_linf(), 0.0);
    }

    #[test]
    fn flop_formula_matches_the_clock_tick() {
        use simpadv_trace::clock;
        let _g = global_lock();
        let a = Tensor::ones(&[3, 5]);
        let b = Tensor::ones(&[5, 7]);
        let before = clock::snapshot();
        let _ = a.matmul(&b);
        let delta = clock::snapshot().delta_since(&before);
        assert_eq!(delta.flops, matmul_flops(3, 5, 7));
        assert_eq!(matmul_flops(3, 5, 7), 105);
    }

    #[test]
    fn byte_formula_counts_operands_and_output_once() {
        // [2, 3] x [3, 4]: 6 + 12 + 8 floats at 4 bytes each
        assert_eq!(matmul_bytes(2, 3, 4), 4 * 26);
        assert_eq!(matmul_bytes(0, 3, 4), 4 * 12);
    }
}
