//! Property-based tests for the tensor algebra.

use proptest::prelude::*;
use simpadv_tensor::{broadcast_shapes, col2im, im2col, Conv2dGeometry, Tensor};

fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_with_shape(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    prop::collection::vec(-10.0f32..10.0, len).prop_map(move |data| Tensor::from_vec(data, &shape))
}

fn small_tensor() -> impl Strategy<Value = Tensor> {
    small_shape().prop_flat_map(tensor_with_shape)
}

proptest! {
    #[test]
    fn reshape_preserves_data(t in small_tensor()) {
        let flat = t.reshape(&[t.len()]);
        prop_assert_eq!(flat.as_slice(), t.as_slice());
        let back = flat.reshape(t.shape());
        prop_assert_eq!(back, t);
    }

    #[test]
    fn add_commutes(shape in small_shape(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &shape, -1.0, 1.0);
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn sub_is_add_neg(t in small_tensor()) {
        let z = t.sub(&t);
        prop_assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let d = t.add(&t.neg());
        prop_assert!(d.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clamp_is_idempotent_and_bounded(t in small_tensor(), lo in -5.0f32..0.0, width in 0.0f32..5.0) {
        let hi = lo + width;
        let c = t.clamp(lo, hi);
        prop_assert!(c.as_slice().iter().all(|&v| (lo..=hi).contains(&v)));
        prop_assert_eq!(c.clamp(lo, hi), c);
    }

    #[test]
    fn sign_values_in_set(t in small_tensor()) {
        prop_assert!(t.sign().as_slice().iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
    }

    #[test]
    fn transpose_is_involution(r in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Tensor::rand_uniform(&mut rng, &[r, c], -1.0, 1.0);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_noop(r in 1usize..5, c in 1usize..5, seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Tensor::rand_uniform(&mut rng, &[r, c], -1.0, 1.0);
        prop_assert_eq!(m.matmul(&Tensor::eye(c)), m.clone());
        prop_assert_eq!(Tensor::eye(r).matmul(&m), m);
    }

    #[test]
    fn matmul_transpose_variants_agree(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // exact 0.0 and -0.0 entries exercise the kernel's zero-skip
        let mut operand = |r, c| Tensor::rand_uniform(&mut rng, &[r, c], -1.0, 1.0)
            .map(|v| if v.abs() < 0.4 { 0.0f32.copysign(v) } else { v });
        let (a, b) = (operand(m, k), operand(k, n));
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let c = bits(a.matmul(&b));
        prop_assert_eq!(bits(a.transpose().matmul_tn(&b)), c.clone());
        prop_assert_eq!(bits(a.matmul_nt(&b.transpose())), c);
    }

    #[test]
    fn sum_axis_totals_match_global(t in small_tensor(), axis_pick in 0usize..3) {
        let axis = axis_pick % t.rank();
        let reduced = t.sum_axis(axis);
        prop_assert!((reduced.sum() - t.sum()).abs() < 1e-3 * (1.0 + t.sum().abs()));
    }

    #[test]
    fn broadcast_shapes_symmetric(a in small_shape(), b in small_shape()) {
        let ab = broadcast_shapes(&a, &b);
        let ba = broadcast_shapes(&b, &a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "broadcast not symmetric"),
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        h in 2usize..6,
        w in 2usize..6,
        k in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Conv2dGeometry::new(h, w, k, k, 1, pad);
        let x = Tensor::rand_uniform(&mut rng, &[2, 1, h, w], -1.0, 1.0);
        let cols = im2col(&x, 1, &g);
        let y = Tensor::rand_uniform(&mut rng, cols.shape(), -1.0, 1.0);
        let back = col2im(&y, 2, 1, &g);
        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn gather_rows_roundtrip(n in 1usize..6, d in 1usize..5, seed in 0u64..500) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(&mut rng, &[n, d], -1.0, 1.0);
        let idx: Vec<usize> = (0..n).collect();
        prop_assert_eq!(t.gather_rows(&idx), t);
    }
}
