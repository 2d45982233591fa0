//! Property-based tests: every attack must respect the l∞ budget and the
//! pixel box for arbitrary inputs, budgets and models.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simpadv_attacks::{
    linf_distance, project_ball, signed_step, Attack, Bim, Fgsm, LeastLikelyFgsm, MarginPgd, Mim,
    Pgd, RandomNoise,
};
use simpadv_nn::{Classifier, Dense, Relu, Sequential};
use simpadv_tensor::Tensor;

fn random_classifier(seed: u64, dim: usize, classes: usize) -> Classifier {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Sequential::new(vec![
        Box::new(Dense::new(dim, 12, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(12, classes, &mut rng)),
    ]);
    Classifier::new(net, classes)
}

fn batch(seed: u64, n: usize, dim: usize, classes: usize) -> (Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::rand_uniform(&mut rng, &[n, dim], 0.0, 1.0);
    let y = (0..n).map(|i| i % classes).collect();
    (x, y)
}

fn assert_valid(adv: &Tensor, x: &Tensor, eps: f32) {
    assert!(linf_distance(adv, x) <= eps + 1e-5, "budget violated");
    assert!(
        adv.as_slice().iter().all(|&v| (-1e-6..=1.0 + 1e-6).contains(&v)),
        "pixel box violated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fgsm_respects_constraints(seed in 0u64..500, eps in 0.0f32..0.5) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = Fgsm::new(eps).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    #[test]
    fn bim_respects_constraints(seed in 0u64..500, eps in 0.0f32..0.5, iters in 1usize..8) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = Bim::new(eps, iters).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    #[test]
    fn bim_with_oversized_step_respects_constraints(seed in 0u64..500, eps in 0.01f32..0.3) {
        // the proposed method's regime: step larger than ε/N
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = Bim::new(eps, 5).with_step(eps).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    #[test]
    fn pgd_respects_constraints(seed in 0u64..500, eps in 0.0f32..0.5, iters in 1usize..8) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = Pgd::new(eps, iters, seed).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    #[test]
    fn mim_respects_constraints(seed in 0u64..500, eps in 0.0f32..0.5, iters in 1usize..8) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = Mim::new(eps, iters, 1.0).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    #[test]
    fn noise_respects_constraints(seed in 0u64..500, eps in 0.0f32..0.5) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = RandomNoise::new(eps, seed).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    #[test]
    fn bim_iterates_all_respect_constraints(seed in 0u64..200, eps in 0.01f32..0.4) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 3, 6, 3);
        for it in Bim::new(eps, 6).iterates(&mut m, &x, &y) {
            assert_valid(&it, &x, eps);
        }
    }

    #[test]
    fn least_likely_fgsm_respects_constraints(seed in 0u64..500, eps in 0.0f32..0.5) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = LeastLikelyFgsm::new(eps).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    #[test]
    fn margin_pgd_respects_constraints(seed in 0u64..500, eps in 0.0f32..0.5, iters in 1usize..6) {
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 1, 4, 6, 3);
        let adv = MarginPgd::new(eps, iters).perturb(&mut m, &x, &y);
        assert_valid(&adv, &x, eps);
    }

    // ---- projection primitives: the geometry every attack rests on ----

    #[test]
    fn project_ball_lands_in_ball_and_box(seed in 0u64..1000, eps in 0.0f32..0.5) {
        // Start far outside both the ball and the [0, 1] box.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[4, 6], -2.0, 3.0);
        let origin = Tensor::rand_uniform(&mut rng, &[4, 6], 0.0, 1.0);
        let p = project_ball(&x, &origin, eps);
        prop_assert!(linf_distance(&p, &origin) <= eps + 1e-6, "ball violated");
        prop_assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)), "box violated");
    }

    #[test]
    fn project_ball_zero_eps_collapses_to_origin(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[3, 5], -2.0, 3.0);
        let origin = Tensor::rand_uniform(&mut rng, &[3, 5], 0.0, 1.0);
        let p = project_ball(&x, &origin, 0.0);
        for (a, b) in p.as_slice().iter().zip(origin.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-6, "eps = 0 projection must return the origin");
        }
    }

    #[test]
    fn project_ball_is_idempotent(seed in 0u64..1000, eps in 0.0f32..0.5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[3, 5], -2.0, 3.0);
        let origin = Tensor::rand_uniform(&mut rng, &[3, 5], 0.0, 1.0);
        let once = project_ball(&x, &origin, eps);
        let twice = project_ball(&once, &origin, eps);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-6, "projection must be idempotent");
        }
    }

    #[test]
    fn project_ball_fixes_interior_points(seed in 0u64..1000, eps in 0.05f32..0.5) {
        // A point already inside ball ∩ box must come back unchanged.
        let mut rng = StdRng::seed_from_u64(seed);
        let origin = Tensor::rand_uniform(&mut rng, &[3, 5], 0.3, 0.7);
        let noise = Tensor::rand_uniform(&mut rng, &[3, 5], -1.0, 1.0).mul_scalar(eps * 0.5);
        let x = origin.add(&noise).clamp(0.0, 1.0);
        let p = project_ball(&x, &origin, eps);
        for (a, b) in p.as_slice().iter().zip(x.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-6, "interior point moved by projection");
        }
    }

    #[test]
    fn signed_step_respects_ball_and_box(
        seed in 0u64..500,
        step in 0.0f32..0.4,
        eps in 0.0f32..0.4,
    ) {
        let mut m = random_classifier(seed, 6, 3);
        let (origin, y) = batch(seed + 1, 4, 6, 3);
        // The carried state may sit anywhere in the previous ball — or, after
        // a budget change, outside the current one.
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let carried = Tensor::rand_uniform(&mut rng, &[4, 6], -0.5, 1.5);
        let adv = signed_step(&mut m, &carried, &origin, &y, step, eps);
        assert_valid(&adv, &origin, eps);
    }

    #[test]
    fn signed_step_zero_eps_returns_clean(seed in 0u64..500, step in 0.0f32..0.4) {
        let mut m = random_classifier(seed, 6, 3);
        let (origin, y) = batch(seed + 1, 4, 6, 3);
        let adv = signed_step(&mut m, &origin, &origin, &y, step, 0.0);
        for (a, b) in adv.as_slice().iter().zip(origin.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-6, "eps = 0 must leave the clean image");
        }
    }

    #[test]
    fn attacks_never_decrease_loss_below_clean_minus_tolerance(seed in 0u64..100) {
        use simpadv_nn::GradientModel;
        // gradient attacks on a smooth model: adversarial loss >= clean loss
        let mut m = random_classifier(seed, 6, 3);
        let (x, y) = batch(seed + 3, 4, 6, 3);
        let (l0, _) = m.loss_and_input_grad(&x, &y);
        let adv = Bim::new(0.1, 4).perturb(&mut m, &x, &y);
        let (l1, _) = m.loss_and_input_grad(&adv, &y);
        prop_assert!(l1 >= l0 - 1e-4, "BIM reduced the loss: {l0} -> {l1}");
    }
}
