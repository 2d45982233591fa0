//! Shape arithmetic: element counts, strides, and NumPy-style broadcasting.

/// A thin helper around a dimension list.
///
/// [`crate::Tensor`] stores its shape as a `Vec<usize>`; `Shape` groups the
/// pure shape arithmetic (strides, broadcasting, flat indexing) so it can be
/// tested in isolation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dims; 1 for rank 0).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides for this shape.
    ///
    /// `strides()[k]` is the flat-index distance between consecutive
    /// elements along axis `k`.
    pub fn strides(&self) -> Vec<usize> {
        row_major_strides(&self.dims)
    }

    /// Converts a multi-index into a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any component is out of
    /// bounds.
    pub fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "multi-index rank {} does not match shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut flat = 0;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(i < d, "index {i} out of bounds for axis {axis} with size {d}");
            flat += i * strides[axis];
        }
        flat
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

/// Row-major strides for a dimension list.
pub(crate) fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Computes the broadcast shape of two dimension lists under NumPy rules.
///
/// Trailing axes are aligned; each pair of sizes must be equal or one of
/// them must be 1. Returns `None` when the shapes are incompatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Strides to iterate a tensor of shape `from` as if it had the broadcast
/// shape `to`: axes of size 1 (or missing leading axes) get stride 0.
///
/// `from` must be broadcast-compatible with `to` and `to` must have rank at
/// least `from.len()`.
pub(crate) fn broadcast_strides(from: &[usize], to: &[usize]) -> Vec<usize> {
    debug_assert!(to.len() >= from.len());
    let base = row_major_strides(from);
    let offset = to.len() - from.len();
    let mut out = vec![0usize; to.len()];
    for i in 0..from.len() {
        out[offset + i] = if from[i] == 1 { 0 } else { base[i] };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(row_major_strides(&[5]), vec![1]);
        assert_eq!(row_major_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn flat_index_matches_manual() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.flat_index(&[0, 0, 0]), 0);
        assert_eq!(s.flat_index(&[1, 2, 3]), 23);
        assert_eq!(s.flat_index(&[1, 0, 2]), 14);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_index_checks_bounds() {
        Shape::new(&[2, 2]).flat_index(&[2, 0]);
    }

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
    }

    #[test]
    fn broadcast_scalar_like() {
        assert_eq!(broadcast_shapes(&[2, 3], &[1]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[1], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4]).unwrap(), vec![4]);
    }

    #[test]
    fn broadcast_mixed_axes() {
        assert_eq!(broadcast_shapes(&[2, 1, 4], &[3, 1]).unwrap(), vec![2, 3, 4]);
        assert_eq!(broadcast_shapes(&[8, 1], &[1, 5]).unwrap(), vec![8, 5]);
    }

    #[test]
    fn broadcast_incompatible() {
        assert_eq!(broadcast_shapes(&[2, 3], &[4]), None);
        assert_eq!(broadcast_shapes(&[2], &[3]), None);
    }

    #[test]
    fn broadcast_strides_zeroes_expanded_axes() {
        assert_eq!(broadcast_strides(&[3, 1], &[2, 3, 4]), vec![0, 1, 0]);
        assert_eq!(broadcast_strides(&[4], &[2, 3, 4]), vec![0, 0, 1]);
        assert_eq!(broadcast_strides(&[2, 3, 4], &[2, 3, 4]), vec![12, 4, 1]);
    }

    #[test]
    fn shape_len_and_rank() {
        let s = Shape::new(&[2, 0, 4]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.rank(), 3);
        let t = Shape::from(vec![7]);
        assert_eq!(t.len(), 7);
    }
}
