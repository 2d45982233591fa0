//! In-memory datasets and minibatch iteration.

use rand::Rng;
use simpadv_tensor::{shuffled_indices, Tensor};

/// A labelled image dataset held in memory.
///
/// Images are stored flattened as `[n, pixels]` — the layout the MLP
/// classifiers and l∞ attacks consume directly. [`Dataset::images_nchw`]
/// reshapes to `[n, 1, side, side]` for convolutional backbones.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from flattened images and labels.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[n, d]`, the label count differs from
    /// `n`, or any label is `>= num_classes`.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.rank(), 2, "dataset images must be [n, d]");
        assert_eq!(images.shape()[0], labels.len(), "image/label count mismatch");
        assert!(num_classes > 0, "need at least one class");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range for {num_classes} classes"
        );
        Dataset { images, labels, num_classes }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The flattened image tensor `[n, d]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// Images reshaped to `[n, 1, side, side]` for convolutional networks.
    ///
    /// # Panics
    ///
    /// Panics if the pixel count is not a perfect square.
    pub fn images_nchw(&self) -> Tensor {
        let d = self.images.shape()[1];
        let side = (d as f32).sqrt().round() as usize;
        assert_eq!(side * side, d, "pixel count {d} is not square");
        self.images.reshape(&[self.len(), 1, side, side])
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Returns the subset at the given example indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let images = self.images.gather_rows(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset { images, labels, num_classes: self.num_classes }
    }

    /// Iterates over minibatches in a fresh random order drawn from `rng`.
    ///
    /// The final batch may be smaller than `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches<R: Rng + ?Sized>(&self, batch_size: usize, rng: &mut R) -> BatchIter<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        BatchIter { dataset: self, order: shuffled_indices(rng, self.len()), batch_size, cursor: 0 }
    }

    /// Iterates over minibatches in dataset order (no shuffling) —
    /// used for evaluation and for trainers that maintain per-example
    /// state aligned with dataset indices.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches_sequential(&self, batch_size: usize) -> BatchIter<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        BatchIter { dataset: self, order: (0..self.len()).collect(), batch_size, cursor: 0 }
    }
}

/// Iterator over `(indices, images, labels)` minibatches.
///
/// The yielded `indices` identify which dataset rows form the batch, so
/// trainers with per-example state (the proposed method's persistent
/// adversarial examples) can write results back.
#[derive(Debug)]
pub struct BatchIter<'a> {
    dataset: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for BatchIter<'_> {
    type Item = (Vec<usize>, Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let idx: Vec<usize> = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        let images = self.dataset.images.gather_rows(&idx);
        let labels = idx.iter().map(|&i| self.dataset.labels[i]).collect();
        Some((idx, images, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let images = Tensor::arange(n * 4).reshape(&[n, 4]);
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(images, labels, 3)
    }

    #[test]
    fn construction_validates() {
        assert_eq!(toy(9).len(), 9);
        assert!(!toy(1).is_empty());
        assert_eq!(toy(9).num_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        Dataset::new(Tensor::zeros(&[2, 4]), vec![0, 5], 3);
    }

    #[test]
    fn subset_gathers_rows_and_labels() {
        let d = toy(6);
        let s = d.subset(&[5, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[2, 0]);
        assert_eq!(s.images().row(0), d.images().row(5));
    }

    #[test]
    fn batches_cover_everything_once() {
        let d = toy(10);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 10];
        let mut total = 0;
        for (idx, images, labels) in d.batches(3, &mut rng) {
            assert_eq!(images.shape()[0], labels.len());
            assert!(images.shape()[0] <= 3);
            for &i in &idx {
                assert!(!seen[i], "index {i} repeated");
                seen[i] = true;
            }
            total += idx.len();
        }
        assert_eq!(total, 10);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sequential_batches_preserve_order() {
        let d = toy(7);
        let firsts: Vec<usize> = d.batches_sequential(2).map(|(idx, _, _)| idx[0]).collect();
        assert_eq!(firsts, vec![0, 2, 4, 6]);
    }

    #[test]
    fn batch_rows_match_indices() {
        let d = toy(9);
        let mut rng = StdRng::seed_from_u64(4);
        for (idx, images, labels) in d.batches(4, &mut rng) {
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(images.row(k), d.images().row(i));
                assert_eq!(labels[k], d.labels()[i]);
            }
        }
    }

    #[test]
    fn images_nchw_reshapes() {
        let images = Tensor::zeros(&[3, 16]);
        let d = Dataset::new(images, vec![0, 1, 2], 3);
        assert_eq!(d.images_nchw().shape(), &[3, 1, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let d = toy(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = d.batches(0, &mut rng);
    }
}
