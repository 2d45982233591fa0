//! Targeted single-step attacks.

use crate::attack::Attack;
use crate::projection::step_and_project;
use simpadv_nn::GradientModel;
use simpadv_tensor::Tensor;

/// Least-likely-class FGSM (Kurakin et al., 2016): step **down** the loss
/// gradient of the model's least-likely predicted class,
///
/// `x' = clip(x − ε · sign(∇ₓ L(C(x), y_LL)))`.
///
/// Because it never consults the true label, it is immune to the *label
/// leaking* artifact that inflates FGSM-Adv's apparent robustness — a
/// useful extra evaluation column beyond the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeastLikelyFgsm {
    epsilon: f32,
}

impl LeastLikelyFgsm {
    /// Creates the attack with budget `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn new(epsilon: f32) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid epsilon {epsilon}");
        LeastLikelyFgsm { epsilon }
    }

    /// The model's least-likely class per row.
    fn least_likely(logits: &Tensor) -> Vec<usize> {
        let (n, c) = (logits.shape()[0], logits.shape()[1]);
        let s = logits.as_slice();
        (0..n)
            .map(|i| {
                let row = &s[i * c..(i + 1) * c];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v < row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

impl Attack for LeastLikelyFgsm {
    fn perturb(&mut self, model: &mut dyn GradientModel, x: &Tensor, _y: &[usize]) -> Tensor {
        let logits = model.logits(x);
        let targets = Self::least_likely(&logits);
        let (_, grad) = model.loss_and_input_grad(x, &targets);
        // descend: make the least-likely class more likely
        step_and_project(x, &grad, x, -self.epsilon, self.epsilon)
    }

    fn epsilon(&self) -> f32 {
        self.epsilon
    }

    fn id(&self) -> String {
        "ll-fgsm".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::testmodel::{centred_batch, linear_model};
    use crate::projection::{linf_distance, reference};
    use simpadv_nn::GradientModel;

    #[test]
    fn respects_budget_and_box() {
        let mut m = linear_model();
        let (x, y) = centred_batch(3);
        let adv = LeastLikelyFgsm::new(0.2).perturb(&mut m, &x, &y);
        assert!(linf_distance(&adv, &x) <= 0.2 + 1e-6);
        assert!(adv.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn pushes_probability_toward_least_likely_class() {
        let mut m = linear_model();
        let (x, y) = centred_batch(2);
        let logits0 = m.logits(&x);
        let ll = LeastLikelyFgsm::least_likely(&logits0);
        let adv = LeastLikelyFgsm::new(0.2).perturb(&mut m, &x, &y);
        let logits1 = m.logits(&adv);
        for (i, &target) in ll.iter().enumerate() {
            let before = logits0.at(&[i, target]);
            let after = logits1.at(&[i, target]);
            assert!(after > before, "row {i}: target logit {before} -> {after}");
        }
    }

    #[test]
    fn matches_the_multi_pass_update_bitwise() {
        let (mut m, x, y) = crate::attack::testmodel::mlp_and_batch(5);
        let targets = LeastLikelyFgsm::least_likely(&m.logits(&x));
        let (_, grad) = m.loss_and_input_grad(&x, &targets);
        let want = reference::descend(&x, &grad, &x, 0.2, 0.2);
        let got = LeastLikelyFgsm::new(0.2).perturb(&mut m, &x, &y);
        assert_eq!(reference::bits(&got), reference::bits(&want));
    }

    #[test]
    fn least_likely_picks_argmin() {
        let logits = Tensor::from_vec(vec![0.1, -2.0, 1.0, 3.0, 0.0, -1.0], &[2, 3]);
        assert_eq!(LeastLikelyFgsm::least_likely(&logits), vec![1, 2]);
    }

    #[test]
    fn id_is_stable() {
        assert_eq!(LeastLikelyFgsm::new(0.1).id(), "ll-fgsm");
    }
}
