//! Element-wise arithmetic, broadcasting binary operations and operator
//! overloads for [`Tensor`].

use crate::shape::{broadcast_shapes, broadcast_strides};
use crate::tensor::Tensor;
use std::ops::{Add, Div, Mul, Neg, Sub};

impl Tensor {
    // ------------------------------------------------------------------
    // Unary maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.as_slice().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(data, self.shape())
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Element-wise sign: -1, 0 or +1.
    ///
    /// Unlike [`f32::signum`], the sign of `0.0` is `0.0` — this matches the
    /// `sign(∇)` convention used by FGSM/BIM, where a zero gradient must not
    /// perturb the pixel.
    pub fn sign(&self) -> Tensor {
        self.map(|v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Element-wise integer power.
    pub fn powi(&self, n: i32) -> Tensor {
        self.map(|v| v.powi(n))
    }

    /// Element-wise clamp into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
        self.map(|v| v.clamp(lo, hi))
    }

    /// In-place clamp into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
        self.map_in_place(|v| v.clamp(lo, hi));
    }

    // ------------------------------------------------------------------
    // Scalar arithmetic
    // ------------------------------------------------------------------

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// In-place `self += s * other` (the optimizer/attack hot path).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += s * b;
        }
    }

    /// In-place element-wise scale: `self *= s`.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|v| v * s);
    }

    // ------------------------------------------------------------------
    // Binary element-wise ops with broadcasting
    // ------------------------------------------------------------------

    /// Applies `f` element-wise over the broadcast of `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        // Fast path: identical shapes.
        if self.shape() == other.shape() {
            let data =
                self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| f(a, b)).collect();
            return Tensor::from_vec(data, self.shape());
        }
        // Fast path: one shape is a suffix of the other (a bias row, a
        // rank-0 scalar). Pairing every row of the larger operand with the
        // smaller one visits the elements in the strided loop's order.
        if self.rank() > other.rank() && self.shape().ends_with(other.shape()) {
            let data = zip_rows(self.as_slice(), other.as_slice(), &f);
            return Tensor::from_vec(data, self.shape());
        }
        if other.rank() > self.rank() && other.shape().ends_with(self.shape()) {
            let data = zip_rows(other.as_slice(), self.as_slice(), |b, a| f(a, b));
            return Tensor::from_vec(data, other.shape());
        }
        let out_shape = broadcast_shapes(self.shape(), other.shape()).unwrap_or_else(|| {
            panic!("shape mismatch in broadcast: {:?} vs {:?}", self.shape(), other.shape())
        });
        let sa = broadcast_strides(self.shape(), &out_shape);
        let sb = broadcast_strides(other.shape(), &out_shape);
        let len: usize = out_shape.iter().product();
        let mut data = Vec::with_capacity(len);
        let mut index = vec![0usize; out_shape.len()];
        let (da, db) = (self.as_slice(), other.as_slice());
        for _ in 0..len {
            let mut ia = 0;
            let mut ib = 0;
            for (axis, &i) in index.iter().enumerate() {
                ia += i * sa[axis];
                ib += i * sb[axis];
            }
            data.push(f(da[ia], db[ib]));
            for axis in (0..out_shape.len()).rev() {
                index[axis] += 1;
                if index[axis] < out_shape[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        Tensor::from_vec(data, &out_shape)
    }

    /// Element-wise addition with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise division with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics when the shapes cannot be broadcast together.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// In-place element-wise addition (no broadcasting).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// In-place element-wise multiplication (no broadcasting).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "mul_assign shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a *= b;
        }
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.map_in_place(|_| value);
    }
}

/// `f(big[i], small[i % small.len()])` for every `i`: each row of `big`
/// paired with `small`, whose shape is a suffix of `big`'s. An empty
/// `small` has an empty `big`.
fn zip_rows(big: &[f32], small: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let mut data = Vec::with_capacity(big.len());
    for row in big.chunks_exact(small.len().max(1)) {
        data.extend(row.iter().zip(small).map(|(&a, &b)| f(a, b)));
    }
    data
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $tensor_method:ident) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                Tensor::$tensor_method(self, rhs)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.zip_map(&Tensor::scalar(rhs), |a, b| $trait::$method(a, b))
            }
        }
    };
}

impl_binop!(Add, add, add);
impl_binop!(Sub, sub, sub);
impl_binop!(Mul, mul, mul);
impl_binop!(Div, div, div);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        Tensor::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x3() -> Tensor {
        Tensor::arange(6).reshape(&[2, 3])
    }

    #[test]
    fn map_and_map_in_place() {
        let t = t2x3().map(|v| v * 2.0);
        assert_eq!(t.as_slice(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        let mut u = t2x3();
        u.map_in_place(|v| v + 1.0);
        assert_eq!(u.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn sign_semantics() {
        let t = Tensor::from_slice(&[-3.0, 0.0, 5.0]);
        assert_eq!(t.sign().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_slice(&[-1.0, 0.5, 2.0]).clamp(0.0, 1.0);
        assert_eq!(t.as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "clamp")]
    fn clamp_validates_interval() {
        Tensor::zeros(&[1]).clamp(1.0, 0.0);
    }

    #[test]
    fn same_shape_binary_ops() {
        let a = t2x3();
        let b = Tensor::ones(&[2, 3]);
        assert_eq!(a.add(&b).sum(), a.sum() + 6.0);
        assert_eq!(a.sub(&a).sum(), 0.0);
        assert_eq!(a.mul(&b), a);
        assert_eq!(b.div(&b), b);
    }

    #[test]
    fn broadcasting_row_vector() {
        let a = t2x3();
        let row = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        let c = a.add(&row);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn broadcasting_column_vector() {
        let a = t2x3();
        let col = Tensor::from_vec(vec![100.0, 200.0], &[2, 1]);
        let c = a.add(&col);
        assert_eq!(c.as_slice(), &[100.0, 101.0, 102.0, 203.0, 204.0, 205.0]);
    }

    #[test]
    fn broadcasting_scalar_tensor() {
        let a = t2x3();
        let s = Tensor::scalar(1.0);
        assert_eq!(a.add(&s).sum(), a.sum() + 6.0);
    }

    /// The general strided broadcast loop, the reference the suffix
    /// fast path must match bit for bit.
    fn strided_sub(a: &Tensor, b: &Tensor) -> Tensor {
        let out_shape = broadcast_shapes(a.shape(), b.shape()).unwrap();
        let (sa, sb) =
            (broadcast_strides(a.shape(), &out_shape), broadcast_strides(b.shape(), &out_shape));
        let len: usize = out_shape.iter().product();
        let data = (0..len)
            .map(|flat| {
                let (mut rest, mut ia, mut ib) = (flat, 0, 0);
                for axis in (0..out_shape.len()).rev() {
                    let i = rest % out_shape[axis];
                    rest /= out_shape[axis];
                    ia += i * sa[axis];
                    ib += i * sb[axis];
                }
                a.as_slice()[ia] - b.as_slice()[ib]
            })
            .collect();
        Tensor::from_vec(data, &out_shape)
    }

    #[test]
    fn suffix_broadcast_matches_the_strided_loop_bitwise() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let filled = |shape: &[usize], salt: f32| {
            let n: usize = shape.iter().product();
            Tensor::from_vec((0..n).map(|i| (i as f32 * 0.37 + salt).sin()).collect(), shape)
        };
        let pairs = [
            (filled(&[4, 5], 0.1), filled(&[5], 0.2)),
            (filled(&[2, 3, 4], 0.3), filled(&[3, 4], 0.4)),
            (filled(&[3, 2], 0.5), Tensor::scalar(-0.0)),
            (filled(&[2, 2, 2], 0.6), Tensor::scalar(f32::NAN)),
            (filled(&[0, 5], 0.7), filled(&[5], 0.8)),
        ];
        for (big, small) in &pairs {
            for (a, b) in [(big, small), (small, big)] {
                let got = a.sub(b);
                let want = strided_sub(a, b);
                assert_eq!(got.shape(), want.shape(), "{:?} - {:?}", a.shape(), b.shape());
                assert_eq!(bits(&got), bits(&want), "{:?} - {:?}", a.shape(), b.shape());
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch in broadcast: [2, 3] vs [4]")]
    fn incompatible_broadcast_panics() {
        let _ = t2x3().add(&Tensor::zeros(&[4]));
    }

    #[test]
    fn add_scaled_hot_path() {
        let mut a = Tensor::ones(&[3]);
        a.add_scaled(&Tensor::from_slice(&[1.0, 2.0, 3.0]), 0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn in_place_assign_ops() {
        let mut a = Tensor::ones(&[2]);
        a.add_assign(&Tensor::from_slice(&[1.0, 2.0]));
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a.mul_assign(&Tensor::from_slice(&[2.0, 0.5]));
        assert_eq!(a.as_slice(), &[4.0, 1.5]);
        a.fill(9.0);
        assert_eq!(a.as_slice(), &[9.0, 9.0]);
    }

    #[test]
    fn operator_overloads() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::from_slice(&[2.0, 3.0]);
        assert_eq!((&a + &b).as_slice(), &[3.0, 4.0]);
        assert_eq!((&b - &a).as_slice(), &[1.0, 2.0]);
        assert_eq!((&b * &b).as_slice(), &[4.0, 9.0]);
        assert_eq!((&b / &b).as_slice(), &[1.0, 1.0]);
        assert_eq!((&b * 2.0).as_slice(), &[4.0, 6.0]);
        assert_eq!((-&b).as_slice(), &[-2.0, -3.0]);
    }

    #[test]
    fn unary_math() {
        let t = Tensor::from_slice(&[1.0, 4.0]);
        assert_eq!(t.sqrt().as_slice(), &[1.0, 2.0]);
        assert_eq!(t.powi(2).as_slice(), &[1.0, 16.0]);
        let e = Tensor::from_slice(&[0.0]).exp();
        assert_eq!(e.as_slice(), &[1.0]);
        assert!((Tensor::from_slice(&[std::f32::consts::E]).ln().item() - 1.0).abs() < 1e-6);
        assert_eq!(Tensor::from_slice(&[-2.0]).abs().as_slice(), &[2.0]);
    }
}
