//! The momentum iterative method.

use crate::attack::Attack;
use crate::projection::step_and_project;
use simpadv_nn::GradientModel;
use simpadv_tensor::Tensor;

/// MIM (Dong et al., 2018): iterative signed steps along an
/// l1-normalized, exponentially accumulated gradient direction.
///
/// `g_{t+1} = μ g_t + ∇ₓL / ‖∇ₓL‖₁`, `x_{t+1} = clip(x_t + εₛ sign(g_{t+1}))`
///
/// Momentum stabilizes the update direction across iterations, typically
/// transferring better and escaping poor local structure — included as an
/// extension beyond the paper's BIM evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mim {
    epsilon: f32,
    iterations: usize,
    step: f32,
    decay: f32,
}

impl Mim {
    /// Creates a MIM attack with budget `epsilon`, `iterations` steps,
    /// step `epsilon / iterations` and momentum decay `decay`
    /// (conventionally 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative/non-finite, `iterations == 0`, or
    /// `decay` is negative.
    pub fn new(epsilon: f32, iterations: usize, decay: f32) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid epsilon {epsilon}");
        assert!(iterations > 0, "mim needs at least one iteration");
        assert!(decay >= 0.0, "decay must be non-negative");
        Mim { epsilon, iterations, step: epsilon / iterations as f32, decay }
    }

    /// Number of iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl Attack for Mim {
    fn perturb(&mut self, model: &mut dyn GradientModel, x: &Tensor, y: &[usize]) -> Tensor {
        let mut cur = x.clone();
        let mut momentum = Tensor::zeros(x.shape());
        for _ in 0..self.iterations {
            let (_, grad) = model.loss_and_input_grad(&cur, y);
            let l1 = grad.abs().sum().max(1e-12);
            momentum = momentum.mul_scalar(self.decay).add(&grad.mul_scalar(1.0 / l1));
            cur = step_and_project(&cur, &momentum, x, self.step, self.epsilon);
        }
        cur
    }

    fn epsilon(&self) -> f32 {
        self.epsilon
    }

    fn id(&self) -> String {
        format!("mim({})", self.iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::testmodel::{centred_batch, linear_model};
    use crate::bim::Bim;
    use crate::projection::{linf_distance, reference};
    use simpadv_nn::GradientModel;

    #[test]
    fn stays_within_budget_and_box() {
        let mut m = linear_model();
        let (x, y) = centred_batch(3);
        let adv = Mim::new(0.25, 10, 1.0).perturb(&mut m, &x, &y);
        assert!(linf_distance(&adv, &x) <= 0.25 + 1e-6);
        assert!(adv.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn increases_loss() {
        let mut m = linear_model();
        let (x, y) = centred_batch(4);
        let adv = Mim::new(0.2, 5, 1.0).perturb(&mut m, &x, &y);
        let (l0, _) = m.loss_and_input_grad(&x, &y);
        let (l1, _) = m.loss_and_input_grad(&adv, &y);
        assert!(l1 > l0);
    }

    #[test]
    fn zero_decay_matches_bim_on_linear_model() {
        // with μ=0 the momentum is just the normalized gradient, whose sign
        // equals the gradient sign — identical trajectory to BIM
        let mut m = linear_model();
        let (x, y) = centred_batch(2);
        let a = Mim::new(0.2, 4, 0.0).perturb(&mut m, &x, &y);
        let b = Bim::new(0.2, 4).perturb(&mut m, &x, &y);
        assert_eq!(a, b);
    }

    #[test]
    fn matches_the_multi_pass_update_bitwise() {
        let (mut m, x, y) = crate::attack::testmodel::mlp_and_batch(5);
        let (eps, iterations, decay) = (0.2, 4, 0.9);
        let mut cur = x.clone();
        let mut momentum = Tensor::zeros(x.shape());
        for _ in 0..iterations {
            let (_, grad) = m.loss_and_input_grad(&cur, &y);
            let l1 = grad.abs().sum().max(1e-12);
            momentum = momentum.mul_scalar(decay).add(&grad.mul_scalar(1.0 / l1));
            cur = reference::ascend(&cur, &momentum, &x, eps / iterations as f32, eps);
        }
        let got = Mim::new(eps, iterations, decay).perturb(&mut m, &x, &y);
        assert_eq!(reference::bits(&got), reference::bits(&cur));
    }

    #[test]
    fn id_reports_iterations() {
        assert_eq!(Mim::new(0.1, 7, 1.0).id(), "mim(7)");
    }
}
