//! Dense linear algebra: matrix multiplication variants, dot and outer
//! products.
//!
//! All three matmul variants run one kernel, [`gemm_rows`], over a
//! strided left operand and a row-major `[k, n]` right operand. `matmul`
//! reads its left operand with strides `(k, 1)`, `matmul_tn` reads it
//! transposed in place with strides `(1, m)`, and `matmul_nt` packs
//! `rhsᵀ` once per call.
//!
//! **Gather, then strip.** For each output row `i`, the kernel first
//! gathers the nonzero pairs `(p, a[i][p])` of the left operand's row, in
//! increasing `p` and without a branch. It then fills the row in strips
//! of 64 columns on a CPU with AVX2 and of 32 elsewhere (see
//! [`gemm_rows_dispatch`]), with the remainder in 32- (AVX2 only), 16-,
//! 8- and 4-wide strips. A strip keeps one accumulator per column in
//! registers while it walks the gathered pairs, and stores its columns
//! once at the end. The last one to three columns of a row at least 4
//! wide run in a 4-wide strip that ends at column `n`; rows narrower
//! than 4 run 1-wide strips. Zeros are common: synthetic images are
//! about 40 % zeros and ReLU-masked gradients about half, so the skip
//! saves real work on every path.
//!
//! **Accumulation order.** Output element `(i, j)` starts at `+0.0` and
//! adds `a[i][p] * b[p][j]` in increasing `p` in one accumulator, for
//! every variant. A strip only decides which columns share a pass over
//! the gathered pairs; each column still sees the same additions in the
//! same order, so the strip widths cannot change a bit, and a column the
//! last 4-wide strip computes again is written with the same bits again.
//! No product is fused with its addition (Rust never contracts `a * b +
//! c` into an FMA). Skipping a zero `a[i][p]` drops an addend of `±0.0`,
//! which leaves the sum unchanged for finite operands, so the result is
//! bitwise that of a scalar dot product in increasing `p`. A NaN in `a`
//! is gathered and propagates; an infinite `b[p][j]` under a zero
//! `a[i][p]` is skipped. The order depends on neither the row block an
//! output row falls in nor the other rows of the operand: products above
//! [`PAR_WORK_THRESHOLD`] are row-blocked across the global [`Runtime`]
//! and concatenated in row order, so results are bitwise equal for any
//! thread count, and row `i` of a batched product equals the product of
//! row `i` alone.

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
/// `b: [k, n]` is row-major: the one accumulation loop behind every
/// matmul variant. Each output row gathers its nonzero `(p, A[i][p])`
/// pairs once, then fills its columns in register strips at most `W`
/// wide (see the module docs for the accumulation order). `W` is 32 or
/// 64; it is inlined into each caller so that the strips compile to the
/// caller's target features.
#[inline(always)]
fn gemm_rows<const W: usize>(
    a: &[f32],
    (rs, cs): (usize, usize),
    b: &[f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    // The current row's nonzeros, in increasing `p`: the offset of `b`'s
    // row `p`, and `A[i][p]`.
    let mut offsets = vec![0usize; k];
    let mut values = vec![0.0f32; k];
    // Fills `$orow[$j..$j + $w]` in `$w` accumulators that each start at
    // `+0.0` and add the first `$nz` gathered pairs in order.
    macro_rules! strip {
        ($w:expr, $orow:ident, $j:ident, $nz:ident) => {{
            let mut acc = [0.0f32; $w];
            for (&off, &av) in offsets[..$nz].iter().zip(&values[..$nz]) {
                for (s, &bv) in acc.iter_mut().zip(&b[off + $j..][..$w]) {
                    *s += av * bv;
                }
            }
            $orow[$j..$j + $w].copy_from_slice(&acc);
            $j += $w;
        }};
    }
    for (row_idx, i) in rows.enumerate() {
        // Branch-free gather: every slot is written, and only a nonzero
        // advances the count past it.
        let mut nz = 0;
        for p in 0..k {
            let av = a[i * rs + p * cs];
            offsets[nz] = p * n;
            values[nz] = av;
            nz += usize::from(av != 0.0);
        }
        let orow = &mut out[row_idx * n..(row_idx + 1) * n];
        let mut j = 0;
        while j + W <= n {
            strip!(W, orow, j, nz);
        }
        if W > 32 && j + 32 <= n {
            strip!(32, orow, j, nz);
        }
        if j + 16 <= n {
            strip!(16, orow, j, nz);
        }
        if j + 8 <= n {
            strip!(8, orow, j, nz);
        }
        if j + 4 <= n {
            strip!(4, orow, j, nz);
        }
        if j < n && n >= 4 {
            // The last one to three columns in one 4-wide strip ending at
            // `n`: the columns it computes again get the same bits again.
            j = n - 4;
            strip!(4, orow, j, nz);
        }
        while j < n {
            strip!(1, orow, j, nz);
        }
    }
    out
}

/// [`gemm_rows`] as this CPU runs it fastest: with 64-wide strips in
/// eight 256-bit accumulators where AVX2 is present, and with the
/// portable 32-wide strips (eight 128-bit SSE2 accumulators on x86_64)
/// everywhere else. Under Miri, whose feature detection reports only the
/// features the target enables at compile time, that is the portable
/// build. Both builds add the same products in the same order with a
/// separate multiply and add, so they return the same bits.
fn gemm_rows_dispatch(
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_rows_avx2` requires only the `avx2` target
        // feature, and `is_x86_feature_detected!` just found it on the
        // CPU running this code.
        #[expect(unsafe_code, reason = "calls the AVX2 build of gemm_rows after detecting AVX2")]
        return unsafe { gemm_rows_avx2(a, strides, b, rows, k, n) };
    }
    gemm_rows::<32>(a, strides, b, rows, k, n)
}

/// [`gemm_rows`] with 64-wide strips, compiled for AVX2 and nothing
/// more. The strips keep a separate multiply and add, which round twice
/// where a fused `mul_add` would round once, so `fma` has nothing to
/// speed up without changing the bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2(
    a: &[f32],
    strides: (usize, usize),
    b: &[f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
) -> Vec<f32> {
    gemm_rows::<64>(a, strides, b, rows, k, n)
}

/// Ticks the product's flops and computes `A @ b` (see [`gemm_rows`]),
/// row-blocked across the global runtime above [`PAR_WORK_THRESHOLD`].
fn gemm(a: &[f32], strides: (usize, usize), b: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    simpadv_trace::clock::add_flops(matmul_flops(m, k, n));
    let rt = Runtime::global();
    if rt.threads() > 1 && m > 1 && m.saturating_mul(k).saturating_mul(n) >= PAR_WORK_THRESHOLD {
        let chunk = m.div_ceil(KERNEL_CHUNKS).max(1);
        let blocks = rt.par_chunks(m, chunk, |rows| gemm_rows_dispatch(a, strides, b, rows, k, n));
        return Tensor::from_vec(blocks.concat(), &[m, n]);
    }
    Tensor::from_vec(gemm_rows_dispatch(a, strides, b, 0..m, k, n), &[m, n])
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
        assert_rank2(self, rhs, "matmul");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert!(k == k2, "shape mismatch in matmul: {:?} vs {:?}", self.shape(), rhs.shape());
        gemm(self.as_slice(), (k, 1), rhs.as_slice(), m, k, n)
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
        assert_rank2(self, rhs, "matmul_tn");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert!(k == k2, "shape mismatch in matmul_tn: {:?} vs {:?}", self.shape(), rhs.shape());
        gemm(self.as_slice(), (1, m), rhs.as_slice(), m, k, n)
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
        assert_rank2(self, rhs, "matmul_nt");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        assert!(k == k2, "shape mismatch in matmul_nt: {:?} vs {:?}", self.shape(), rhs.shape());
        gemm(self.as_slice(), (k, 1), rhs.transpose().as_slice(), m, k, n)
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

    /// The l∞ (maximum absolute value) norm of the tensor; 0 when empty.
    pub fn norm_linf(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

/// The first check every matmul variant makes: both operands rank 2.
fn assert_rank2(lhs: &Tensor, rhs: &Tensor, op: &str) {
    for t in [lhs, rhs] {
        assert!(t.rank() == 2, "{op} expects rank 2, got rank {}", t.rank());
    }
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
    #[should_panic(expected = "shape mismatch in matmul: [2, 3] vs [4, 2]")]
    fn matmul_checks_the_inner_dimension() {
        let _ = Tensor::ones(&[2, 3]).matmul(&Tensor::ones(&[4, 2]));
    }

    #[test]
    #[should_panic(expected = "matmul expects rank 2, got rank 1")]
    fn matmul_checks_the_rank() {
        let _ = Tensor::ones(&[2, 3]).matmul(&Tensor::ones(&[3]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch in matmul_tn: [3, 2] vs [4, 2]")]
    fn matmul_tn_checks_the_shared_dimension() {
        let _ = Tensor::ones(&[3, 2]).matmul_tn(&Tensor::ones(&[4, 2]));
    }

    #[test]
    #[should_panic(expected = "matmul_nt expects rank 2, got rank 3")]
    fn matmul_nt_checks_the_rank() {
        let _ = Tensor::ones(&[2, 3]).matmul_nt(&Tensor::ones(&[1, 2, 3]));
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

    /// Serializes the tests that set the global thread count.
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

    /// The bits of `a @ b` from the portable 32-wide build of
    /// [`gemm_rows`], called directly, with `a` read row-major (as
    /// `matmul` and `matmul_nt` read it) and transposed in place (as
    /// `matmul_tn` reads it). The variants run [`gemm_rows_dispatch`],
    /// which is the AVX2 build on a host with AVX2, so comparing the two
    /// checks one build against the other. Under Miri and on hosts
    /// without AVX2 the dispatched arm is this same portable build
    /// (std's feature detection under Miri reports only the features
    /// enabled at compile time).
    fn portable(a: &Tensor, b: &Tensor) -> [Vec<u32>; 2] {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let at = a.transpose();
        [
            gemm_rows::<32>(a.as_slice(), (k, 1), b.as_slice(), 0..m, k, n),
            gemm_rows::<32>(at.as_slice(), (1, m), b.as_slice(), 0..m, k, n),
        ]
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    /// Asserts that every variant through the dispatched kernel, and the
    /// portable build in both layouts, return the bits `want`.
    fn assert_bits(a: &Tensor, b: &Tensor, want: &[u32], ctx: &str) {
        for (v, c) in variants(a, b).iter().enumerate() {
            assert_eq!(bits(c), want, "dispatched variant {v}, {ctx}");
        }
        for (l, p) in portable(a, b).iter().enumerate() {
            assert_eq!(p, want, "portable layout {l}, {ctx}");
        }
    }

    /// The bits of `a @ b` as a scalar dot product computes them: one
    /// accumulator per element, from `+0.0`, adding every `p` in order.
    fn reference(a: &Tensor, b: &Tensor) -> Vec<u32> {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let (sa, sb) = (a.as_slice(), b.as_slice());
        (0..m * n)
            .map(|ij| {
                let (i, j) = (ij / n, ij % n);
                (0..k).fold(0.0f32, |acc, p| acc + sa[i * k + p] * sb[p * n + j]).to_bits()
            })
            .collect()
    }

    #[test]
    fn every_variant_sums_in_increasing_p_bitwise() {
        let _g = global_lock();
        for (m, k, n, seed) in [(1, 1, 1, 1), (5, 9, 3, 2), (16, 128, 784, 3)] {
            let (a, b) = (masked(seed, m, k), masked(seed + 10, k, n));
            assert_bits(&a, &b, &reference(&a, &b), &format!("{m}x{k}x{n}"));
        }
    }

    /// The output widths the sweeps run: every remainder of the 64-,
    /// 32-, 16-, 8-, 4- and 1-wide strips, and the Dense input width.
    fn widths() -> impl Iterator<Item = usize> {
        (1..=130).chain([784])
    }

    #[test]
    fn every_strip_width_matches_the_scalar_reference_bitwise() {
        // Small m·k so the Miri job stays in budget; the row-blocked path
        // is covered by `parallel_kernels_match_serial_bitwise`.
        let _g = global_lock();
        let k = 7;
        let signed_zeros: Vec<f32> = (0..k).map(|p| if p % 2 == 0 { 0.0 } else { -0.0 }).collect();
        let zero_row = Tensor::from_vec(signed_zeros, &[1, k]);
        let dense_row = masked(1, 1, k).map(|v| if v == 0.0 { 0.5 } else { v });
        let a = Tensor::concat_rows(&[&zero_row, &dense_row, &masked(2, 2, k)]);
        assert!(a.rows(2..4).as_slice().iter().any(|v| v.to_bits() == (-0.0f32).to_bits()));
        for threads in [1, 4] {
            simpadv_runtime::set_global_threads(threads);
            for n in widths() {
                let b = masked(n as u64, k, n);
                assert_bits(&a, &b, &reference(&a, &b), &format!("n={n}, threads={threads}"));
            }
        }
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn a_nan_propagates_and_an_infinity_under_a_zero_is_skipped() {
        let _g = global_lock();
        // Row 0 multiplies b's infinite rows by 0.0 and -0.0; row 1 holds a NaN.
        let a = Tensor::from_vec(vec![1.0, 0.0, -0.0, f32::NAN, 1.0, 1.0], &[2, 3]);
        for threads in [1, 4] {
            simpadv_runtime::set_global_threads(threads);
            for n in widths() {
                let finite: Vec<f32> = (1..=n).map(|j| j as f32 * 0.25).collect();
                let b = Tensor::concat_rows(&[
                    &Tensor::from_vec(finite.clone(), &[1, n]),
                    &Tensor::full(&[1, n], f32::INFINITY),
                    &Tensor::full(&[1, n], f32::NEG_INFINITY),
                ]);
                let ctx = format!("n={n}, threads={threads}");
                let [want, _] = portable(&a, &b);
                let (row0, row1) = want.split_at(n);
                assert!(row0.iter().zip(&finite).all(|(&w, f)| w == f.to_bits()), "{ctx}");
                assert!(row1.iter().all(|&w| f32::from_bits(w).is_nan()), "{ctx}");
                assert_bits(&a, &b, &want, &ctx);
            }
        }
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn row_i_of_a_product_is_the_product_of_row_i_alone() {
        // serve's batched ≡ single contract, with the batch row-blocked
        let _g = global_lock();
        simpadv_runtime::set_global_threads(4);
        let (a, b) = (masked(4, 64, 128), masked(5, 128, 784));
        let batched = reference(&a, &b);
        assert_bits(&a, &b, &batched, "batch of 64");
        for (i, row) in batched.chunks(784).enumerate() {
            assert_bits(&a.rows(i..i + 1), &b, row, &format!("row {i}"));
        }
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn parallel_kernels_match_serial_bitwise() {
        // The Dense input gradient δ·Wᵀ at batch 64 crosses the threshold.
        const { assert!(64 * 128 * 784 >= PAR_WORK_THRESHOLD) };
        let _g = global_lock();
        let (a, b) = (masked(6, 64, 128), masked(7, 128, 784));
        let want = reference(&a, &b);
        for threads in [1, 2, 4] {
            simpadv_runtime::set_global_threads(threads);
            assert_bits(&a, &b, &want, &format!("threads={threads}"));
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
        assert_eq!(t.norm_linf(), 4.0);
        assert_eq!(Tensor::default().norm_linf(), 0.0);
    }

    #[test]
    fn byte_formula_counts_operands_and_output_once() {
        // [2, 3] x [3, 4]: 6 + 12 + 8 floats at 4 bytes each
        assert_eq!(matmul_bytes(2, 3, 4), 4 * 26);
        assert_eq!(matmul_bytes(0, 3, 4), 4 * 12);
    }
}
