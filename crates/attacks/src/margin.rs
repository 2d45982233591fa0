//! A Carlini–Wagner-style margin attack (extension).
//!
//! Instead of ascending the cross-entropy, [`MarginPgd`] descends the C&W
//! margin `f(x) = Z(x)_y − max_{j≠y} Z(x)_j` with signed l∞ steps. The
//! margin objective keeps a useful gradient even when softmax saturates
//! (where cross-entropy gradients vanish), so it often breaks models whose
//! apparent robustness is just confident logits — a stronger evaluation
//! than the paper's BIM battery.

use crate::attack::Attack;
use crate::projection::step_and_project;
use simpadv_nn::GradientModel;
use simpadv_tensor::Tensor;

/// PGD on the C&W margin loss, with l∞ projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginPgd {
    epsilon: f32,
    iterations: usize,
    step: f32,
}

impl MarginPgd {
    /// Creates the attack with budget `epsilon` and `iterations` steps of
    /// size `epsilon / iterations * 2`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative/non-finite or `iterations == 0`.
    pub fn new(epsilon: f32, iterations: usize) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid epsilon {epsilon}");
        assert!(iterations > 0, "margin-pgd needs at least one iteration");
        MarginPgd { epsilon, iterations, step: 2.0 * epsilon / iterations as f32 }
    }

    /// Number of iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// ∂(margin)/∂logits for a batch: +1 at the true class, −1 at the
    /// runner-up (the strongest *other* class). We *descend* the margin,
    /// so the attack step uses the negated sign of the input gradient of
    /// this quantity... equivalently, steps along `sign(∇ₓ(−margin))`.
    fn margin_grad(logits: &Tensor, y: &[usize]) -> Tensor {
        let (n, c) = (logits.shape()[0], logits.shape()[1]);
        let s = logits.as_slice();
        let mut g = vec![0.0f32; n * c];
        for (i, &label) in y.iter().enumerate() {
            let row = &s[i * c..(i + 1) * c];
            let mut runner = usize::MAX;
            for j in 0..c {
                if j == label {
                    continue;
                }
                if runner == usize::MAX || row[j] > row[runner] {
                    runner = j;
                }
            }
            // gradient of (runner-up − true): descending the margin
            g[i * c + label] = -1.0 / n as f32;
            g[i * c + runner] = 1.0 / n as f32;
        }
        Tensor::from_vec(g, &[n, c])
    }
}

impl Attack for MarginPgd {
    fn perturb(&mut self, model: &mut dyn GradientModel, x: &Tensor, y: &[usize]) -> Tensor {
        let mut cur = x.clone();
        for _ in 0..self.iterations {
            let labels = y.to_vec();
            let grad_x =
                model.custom_input_grad(&cur, &mut |logits| Self::margin_grad(logits, &labels));
            cur = step_and_project(&cur, &grad_x, x, self.step, self.epsilon);
        }
        cur
    }

    fn epsilon(&self) -> f32 {
        self.epsilon
    }

    fn id(&self) -> String {
        format!("margin-pgd({})", self.iterations)
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
        let adv = MarginPgd::new(0.2, 8).perturb(&mut m, &x, &y);
        assert!(linf_distance(&adv, &x) <= 0.2 + 1e-6);
        assert!(adv.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn reduces_the_true_class_margin() {
        let mut m = linear_model();
        let (x, y) = centred_batch(2);
        let margin = |m: &mut dyn GradientModel, x: &Tensor| -> f32 {
            let logits = m.logits(x);
            let mut total = 0.0;
            for (i, &label) in y.iter().enumerate() {
                let row = logits.row(i);
                let other: f32 = row
                    .as_slice()
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != label)
                    .map(|(_, &v)| v)
                    .fold(f32::NEG_INFINITY, f32::max);
                total += row.as_slice()[label] - other;
            }
            total
        };
        let before = margin(&mut m, &x);
        let adv = MarginPgd::new(0.25, 6).perturb(&mut m, &x, &y);
        let after = margin(&mut m, &adv);
        assert!(after < before, "margin should shrink: {before} -> {after}");
    }

    #[test]
    fn matches_the_multi_pass_update_bitwise() {
        let (mut m, x, y) = crate::attack::testmodel::mlp_and_batch(5);
        let (eps, iterations) = (0.2, 3);
        let mut cur = x.clone();
        for _ in 0..iterations {
            let grad = m.custom_input_grad(&cur, &mut |l| MarginPgd::margin_grad(l, &y));
            cur = reference::ascend(&cur, &grad, &x, 2.0 * eps / iterations as f32, eps);
        }
        let got = MarginPgd::new(eps, iterations).perturb(&mut m, &x, &y);
        assert_eq!(reference::bits(&got), reference::bits(&cur));
    }

    #[test]
    fn margin_grad_structure() {
        let logits = Tensor::from_vec(vec![3.0, 1.0, 2.0], &[1, 3]);
        let g = MarginPgd::margin_grad(&logits, &[0]);
        // true class 0 gets -1, runner-up (class 2) gets +1
        assert_eq!(g.as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn id_reports_iterations() {
        assert_eq!(MarginPgd::new(0.1, 12).id(), "margin-pgd(12)");
    }
}
