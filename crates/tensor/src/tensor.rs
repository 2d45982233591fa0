//! The [`Tensor`] type: storage, constructors, shape manipulation, slicing.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A dense, row-major, contiguous tensor of `f32` values.
///
/// `Tensor` is the single data type flowing through the whole `simpadv`
/// stack: images, activations, gradients, weights and adversarial
/// perturbations are all `Tensor`s.
///
/// # Example
///
/// ```
/// use simpadv_tensor::Tensor;
///
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape(), &[2, 3]);
/// assert_eq!(x.len(), 6);
/// let y = x.map(|v| v + 1.0);
/// assert_eq!(y.sum(), 6.0);
/// ```
#[derive(Clone, PartialEq, Serialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor { data: vec![value; len], shape: shape.to_vec() }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: vec![] }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the element count of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let want: usize = shape.iter().product();
        assert!(
            data.len() == want,
            "data length {} does not match shape element count {want}",
            data.len()
        );
        Tensor { data, shape: shape.to_vec() }
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { data: data.to_vec(), shape: vec![data.len()] }
    }

    /// Identity matrix of size `n`×`n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// 1-D tensor `[0, 1, ..., n-1]` as `f32`.
    pub fn arange(n: usize) -> Self {
        Tensor { data: (0..n).map(|i| i as f32).collect(), shape: vec![n] }
    }

    /// `n` evenly spaced values from `start` to `end` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n > 0, "linspace needs at least one point");
        if n == 1 {
            return Tensor::from_slice(&[start]);
        }
        let step = (end - start) / (n - 1) as f32;
        Tensor { data: (0..n).map(|i| start + step * i as f32).collect(), shape: vec![n] }
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], lo: f32, hi: f32) -> Self {
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| rng.random_range(lo..hi)).collect();
        Tensor { data, shape: shape.to_vec() }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The dimension list.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        let flat = crate::shape::Shape::new(&self.shape).flat_index(index);
        self.data[flat]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = crate::shape::Shape::new(&self.shape).flat_index(index);
        self.data[flat] = value;
    }

    /// The single value of a scalar (rank-0 or one-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a one-element tensor, got {:?}", self.shape);
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let want: usize = shape.iter().product();
        assert!(
            want == self.len(),
            "cannot reshape {} elements into a shape of {want} elements",
            self.len()
        );
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor { data: self.data.clone(), shape: vec![self.len()] }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose expects rank 2, got {:?}", self.shape);
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; self.len()];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor { data: out, shape: vec![c, r] }
    }

    // ------------------------------------------------------------------
    // Row / batch slicing (axis 0)
    // ------------------------------------------------------------------

    /// Copies the `i`-th slice along axis 0 (keeping the remaining axes).
    ///
    /// For a `[n, d...]` tensor this returns a `[d...]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Tensor {
        assert!(self.rank() >= 1, "row() needs rank >= 1");
        let n = self.shape[0];
        assert!(i < n, "row index {i} out of bounds for axis of size {n}");
        let stride: usize = self.shape[1..].iter().product();
        let data = self.data[i * stride..(i + 1) * stride].to_vec();
        Tensor { data, shape: self.shape[1..].to_vec() }
    }

    /// Copies rows `range.start..range.end` along axis 0.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn rows(&self, range: std::ops::Range<usize>) -> Tensor {
        assert!(self.rank() >= 1, "rows() needs rank >= 1");
        let n = self.shape[0];
        assert!(
            range.start <= range.end && range.end <= n,
            "row range {range:?} out of bounds for axis of size {n}"
        );
        let stride: usize = self.shape[1..].iter().product();
        let data = self.data[range.start * stride..range.end * stride].to_vec();
        let mut shape = self.shape.clone();
        shape[0] = range.end - range.start;
        Tensor { data, shape }
    }

    /// Gathers rows along axis 0 by index, producing a new tensor with
    /// `indices.len()` rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "gather_rows() needs rank >= 1");
        let n = self.shape[0];
        let stride: usize = self.shape[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * stride);
        for &i in indices {
            assert!(i < n, "gather index {i} out of bounds for axis of size {n}");
            data.extend_from_slice(&self.data[i * stride..(i + 1) * stride]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Tensor { data, shape }
    }

    /// Overwrites the `i`-th slice along axis 0 with `value`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or `i` is out of bounds.
    pub fn set_row(&mut self, i: usize, value: &Tensor) {
        assert!(self.rank() >= 1, "set_row() needs rank >= 1");
        let n = self.shape[0];
        assert!(i < n, "row index {i} out of bounds for axis of size {n}");
        assert_eq!(value.shape(), &self.shape[1..], "set_row shape mismatch");
        let stride: usize = self.shape[1..].iter().product();
        self.data[i * stride..(i + 1) * stride].copy_from_slice(&value.data);
    }

    /// Concatenates tensors along axis 0. All inputs must agree on the
    /// remaining axes.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing shapes disagree.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows needs at least one tensor");
        let tail = &parts[0].shape[1..];
        let mut total = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "concat_rows trailing-shape mismatch");
            total += p.shape[0];
        }
        let mut data = Vec::with_capacity(total * tail.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        let mut shape = parts[0].shape.clone();
        shape[0] = total;
        Tensor { data, shape }
    }

    /// Splits along axis 0 into chunks of at most `chunk` rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` or the tensor is rank 0.
    pub fn split_rows(&self, chunk: usize) -> Vec<Tensor> {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(self.rank() >= 1, "split_rows() needs rank >= 1");
        let n = self.shape[0];
        let mut out = Vec::with_capacity(n.div_ceil(chunk));
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            out.push(self.rows(start..end));
            start = end;
        }
        out
    }

    /// Stacks rank-`r` tensors into a rank-`r+1` tensor along a new axis 0.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes disagree.
    pub fn stack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack needs at least one tensor");
        let inner = parts[0].shape.clone();
        let mut data = Vec::with_capacity(parts.len() * parts[0].len());
        for p in parts {
            assert_eq!(p.shape, inner, "stack shape mismatch");
            data.extend_from_slice(&p.data);
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&inner);
        Tensor { data, shape }
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor { data: Vec::new(), shape: vec![0] }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        const MAX: usize = 16;
        if self.len() <= MAX {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}..; {} elems]", &self.data[..MAX.min(self.len())], self.len())
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rank() == 2 {
            let (r, c) = (self.shape[0], self.shape[1]);
            for i in 0..r.min(8) {
                for j in 0..c.min(12) {
                    write!(f, "{:9.4}", self.data[i * c + j])?;
                }
                if c > 12 {
                    write!(f, " ...")?;
                }
                writeln!(f)?;
            }
            if r > 8 {
                writeln!(f, "... ({r} rows)")?;
            }
            Ok(())
        } else {
            write!(f, "{self:?}")
        }
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects an iterator of values into a 1-D tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let n = data.len();
        Tensor { data, shape: vec![n] }
    }
}

impl Deserialize for Tensor {
    /// Reads the `data` and `shape` fields that [`Serialize`] writes, and
    /// refuses a `data` whose length is not the shape's element count:
    /// every op indexes by that invariant, so a decoder must not build a
    /// tensor without it. The count is a checked product, so a shape whose
    /// count overflows `usize` is refused too.
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let data: Vec<f32> = serde::object_field(value, "data")?;
        let shape: Vec<usize> = serde::object_field(value, "shape")?;
        let Some(want) = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) else {
            return Err(serde::Error::custom(format!(
                "shape {shape:?} has an element count that overflows usize"
            )));
        };
        if data.len() != want {
            return Err(serde::Error::custom(format!(
                "data length {} does not match shape element count {want}",
                data.len()
            )));
        }
        Ok(Tensor { data, shape })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_basic() {
        assert_eq!(Tensor::zeros(&[2, 3]).len(), 6);
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2], 2.5).as_slice(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.as_slice(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::linspace(2.0, 9.0, 1).as_slice(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "data length 5 does not match shape element count 6")]
    fn from_vec_validates_length() {
        assert_eq!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).shape(), &[2, 3]);
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        let back = t.reshape(&[12]);
        assert_eq!(back.as_slice(), Tensor::arange(12).as_slice());
    }

    #[test]
    #[should_panic(expected = "cannot reshape 12 elements into a shape of 5 elements")]
    fn reshape_validates_element_count() {
        let _ = Tensor::arange(12).reshape(&[5]);
    }

    /// A tensor as [`Serialize`] writes it, with `data` and `shape` given.
    fn encoded(data: Vec<f32>, shape: &[u64]) -> Value {
        Value::Object(vec![
            ("data".to_string(), data.to_value()),
            ("shape".to_string(), Value::Array(shape.iter().map(|&d| Value::U64(d)).collect())),
        ])
    }

    #[test]
    fn decoding_refuses_data_that_does_not_fill_its_shape() {
        let t = Tensor::from_vec(vec![0.5, -0.0, f32::MIN_POSITIVE, 3.25, 1e-7, 9.0], &[2, 3]);
        let back = Tensor::from_value(&t.to_value()).unwrap();
        assert_eq!(back.shape(), t.shape());
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&t));

        let err = |v: &Value| Tensor::from_value(v).unwrap_err().to_string();
        let short = err(&encoded(vec![1.0], &[2, 3]));
        assert!(short.contains("data length 1 does not match shape element count 6"), "{short}");
        let long = err(&encoded(vec![1.0; 7], &[2, 3]));
        assert!(long.contains("data length 7 does not match shape element count 6"), "{long}");
        let huge = err(&encoded(vec![1.0; 4], &[1 << 32, 1 << 32, 2]));
        assert!(huge.contains("overflows usize"), "{huge}");
        // An empty shape is a scalar: one element.
        assert!(Tensor::from_value(&encoded(vec![2.0], &[])).is_ok());
        assert!(Tensor::from_value(&encoded(vec![], &[])).is_err());
    }

    #[test]
    fn at_and_set() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.as_slice()[5], 7.0);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn row_ops() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        assert_eq!(t.row(1).as_slice(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.rows(1..3).shape(), &[2, 4]);
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.row(0).as_slice(), t.row(2).as_slice());
        assert_eq!(g.row(1).as_slice(), t.row(0).as_slice());
    }

    #[test]
    fn set_row_overwrites() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set_row(1, &Tensor::from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(t.row(1).as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(0).as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_and_stack() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[1, 2]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.sum(), 4.0);

        let s = Tensor::stack(&[&Tensor::ones(&[2]), &Tensor::zeros(&[2])]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.sum(), 2.0);
    }

    #[test]
    fn split_rows_partitions() {
        let t = Tensor::arange(10).reshape(&[5, 2]);
        let parts = t.split_rows(2);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].shape(), &[2, 2]);
        assert_eq!(parts[2].shape(), &[1, 2]);
        assert_eq!(Tensor::concat_rows(&parts.iter().collect::<Vec<_>>()), t);
    }

    #[test]
    fn rand_constructors_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&mut r1, &[16], 0.0, 1.0);
        let b = Tensor::rand_uniform(&mut r2, &[16], 0.0, 1.0);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn debug_display_nonempty() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(!format!("{t:?}").is_empty());
        assert!(!format!("{t}").is_empty());
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big:?}").contains("100 elems"));
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tensor = (0..5).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[5]);
        assert_eq!(t.sum(), 10.0);
    }
}
