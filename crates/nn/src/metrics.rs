//! Classification accuracy.

use simpadv_tensor::Tensor;

/// Fraction of rows whose argmax prediction equals the label.
///
/// # Panics
///
/// Panics if `logits` is not `[n, c]` or `labels.len() != n`.
///
/// # Example
///
/// ```
/// use simpadv_nn::accuracy;
/// use simpadv_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2]);
/// assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.rank(), 2, "accuracy expects [n, c] logits");
    assert_eq!(logits.shape()[0], labels.len(), "label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&Tensor::zeros(&[0, 2]), &[]), 0.0);
    }
}
