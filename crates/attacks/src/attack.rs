//! The [`Attack`] trait.

use simpadv_nn::GradientModel;
use simpadv_tensor::Tensor;

/// A white-box adversarial example generator.
///
/// Implementations receive mutable access to the model because computing
/// input gradients requires forward/backward passes through its layers;
/// the model's *parameters* are never modified.
pub trait Attack: std::fmt::Debug {
    /// Produces adversarial examples for the batch `(x, y)`.
    ///
    /// The result has the shape of `x`, lies within the attack's l∞ budget
    /// of `x`, and stays inside the valid pixel range `[0, 1]`.
    fn perturb(&mut self, model: &mut dyn GradientModel, x: &Tensor, y: &[usize]) -> Tensor;

    /// The attack's total l∞ budget ε.
    fn epsilon(&self) -> f32;

    /// A short identifier such as `"fgsm"` or `"bim(10)"`, used in report
    /// tables.
    fn id(&self) -> String;
}

#[cfg(test)]
pub(crate) mod testmodel {
    //! A tiny closed-form model for attack unit tests: a fixed linear
    //! classifier whose input gradients are known exactly.

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simpadv_nn::{Classifier, Dense, Sequential};
    use simpadv_tensor::Tensor;

    /// A deterministic 2-class linear model on 4 features.
    pub fn linear_model() -> Classifier {
        let mut rng = StdRng::seed_from_u64(0);
        let mut dense = Dense::new(4, 2, &mut rng);
        // logits = [s, -s] with s = x0 + x1 - x2 - x3: gradient of the
        // class-0 loss w.r.t. x is analytically sign-known.
        {
            use simpadv_nn::Layer;
            let state = vec![
                (
                    "weight".to_string(),
                    Tensor::from_vec(vec![1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0], &[4, 2]),
                ),
                ("bias".to_string(), Tensor::zeros(&[2])),
            ];
            dense.load_state(&state);
        }
        Classifier::new(Sequential::new(vec![Box::new(dense)]), 2)
    }

    /// A small seeded ReLU MLP (6 → 8 → 3) and a `rows`-row batch of
    /// uniform pixels in `[0, 1]` with labels cycling through the classes.
    pub fn mlp_and_batch(rows: usize) -> (Classifier, Tensor, Vec<usize>) {
        use simpadv_nn::Relu;
        let mut rng = StdRng::seed_from_u64(11);
        let net = Sequential::new(vec![
            Box::new(Dense::new(6, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        let x = Tensor::rand_uniform(&mut rng, &[rows, 6], 0.0, 1.0);
        let y = (0..rows).map(|i| i % 3).collect();
        (Classifier::new(net, 3), x, y)
    }

    /// A batch centred in the pixel range so ε-balls do not clip at 0/1.
    pub fn centred_batch(n: usize) -> (Tensor, Vec<usize>) {
        let x = Tensor::full(&[n, 4], 0.5);
        let y = (0..n).map(|i| i % 2).collect();
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::testmodel::*;
    use simpadv_nn::GradientModel;

    #[test]
    fn test_model_has_known_gradients() {
        let mut m = linear_model();
        let (x, _) = centred_batch(2);
        let (_, g) = m.loss_and_input_grad(&x, &[0, 0]);
        // loss of class 0 decreases with x0, x1; increases with x2, x3
        assert!(g.as_slice()[0] < 0.0);
        assert!(g.as_slice()[1] < 0.0);
        assert!(g.as_slice()[2] > 0.0);
        assert!(g.as_slice()[3] > 0.0);
    }
}
