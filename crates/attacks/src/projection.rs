//! l∞-ball projection and signed gradient steps — the shared geometry of
//! every attack in this crate.

use simpadv_nn::GradientModel;
use simpadv_tensor::Tensor;

/// Projects `x` onto the intersection of the l∞ ball of radius `eps`
/// around `origin` and the valid pixel box `[0, 1]`.
///
/// This is the `clip` of the paper's BIM definition.
///
/// # Panics
///
/// Panics if shapes differ or `eps` is negative.
pub fn project_ball(x: &Tensor, origin: &Tensor, eps: f32) -> Tensor {
    assert_eq!(x.shape(), origin.shape(), "project_ball shape mismatch");
    assert!(eps >= 0.0, "epsilon must be non-negative");
    let data = x.as_slice().iter().zip(origin.as_slice()).map(|(&v, &o)| clip(v, o, eps)).collect();
    Tensor::from_vec(data, x.shape())
}

/// One pixel of [`project_ball`]: `v` clipped to `[o − ε, o + ε]`, with
/// both bounds first clamped into `[0, 1]`. `f32::max` and `f32::min`
/// return the bound when `v` is NaN.
fn clip(v: f32, o: f32, eps: f32) -> f32 {
    let lo = (o + -eps).clamp(0.0, 1.0);
    let hi = (o + eps).clamp(0.0, 1.0);
    v.max(lo).min(hi)
}

/// `x + step · sign(direction)`, projected onto the `eps`-ball around
/// `origin` and `[0, 1]` in the same pass: the update of every signed
/// l∞ attack. A negative `step` descends. `sign` maps `±0.0` and NaN to
/// `0.0`, so such a pixel only moves by the projection.
///
/// # Panics
///
/// Panics if shapes differ or `eps` is negative.
pub(crate) fn step_and_project(
    x: &Tensor,
    direction: &Tensor,
    origin: &Tensor,
    step: f32,
    eps: f32,
) -> Tensor {
    assert_eq!(x.shape(), direction.shape(), "step_and_project direction shape mismatch");
    assert_eq!(x.shape(), origin.shape(), "step_and_project origin shape mismatch");
    assert!(eps >= 0.0, "epsilon must be non-negative");
    let data = x
        .as_slice()
        .iter()
        .zip(direction.as_slice())
        .zip(origin.as_slice())
        .map(|((&v, &d), &o)| clip(v + sign(d) * step, o, eps))
        .collect();
    Tensor::from_vec(data, x.shape())
}

/// [`Tensor::sign`] of one element: `±1.0`, or `0.0` for `±0.0` and NaN.
fn sign(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Logical bytes one [`project_ball`] call moves over `elems` pixels:
/// `x` and `origin` read, the projected batch written, at 4 bytes per
/// `f32` (the derived bound tensors are not counted — they are
/// implementation detail, not kernel interface). Shape introspection
/// for the kernel microbenchmark lab.
pub fn project_ball_bytes(elems: usize) -> u64 {
    4 * 3 * elems as u64
}

/// Logical bytes one [`signed_step`] call moves over `elems` pixels:
/// `x`, `origin` and the input gradient read, the stepped batch
/// written. The model passes behind the gradient are accounted
/// separately through the trace clock's forward/backward counters.
pub fn signed_step_bytes(elems: usize) -> u64 {
    4 * 4 * elems as u64
}

/// The l∞ distance between two tensors.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn linf_distance(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "linf_distance shape mismatch");
    a.sub(b).norm_linf()
}

/// One signed-gradient ascent step from `x` (the core of FGSM and of each
/// BIM iteration):
///
/// `x' = clip(x + step · sign(∇ₓ L(C(x), y)))`
///
/// projected onto the `eps`-ball around `origin` and `[0, 1]`. Exposed as a
/// free function because the paper's proposed trainer performs exactly one
/// such step per epoch from a *persistent* starting point.
///
/// # Panics
///
/// Panics on shape mismatches or a negative budget.
pub fn signed_step(
    model: &mut dyn GradientModel,
    x: &Tensor,
    origin: &Tensor,
    y: &[usize],
    step: f32,
    eps: f32,
) -> Tensor {
    assert!(step >= 0.0, "step must be non-negative");
    simpadv_trace::clock::tick_attack_steps(1);
    let (_, grad) = model.loss_and_input_grad(x, y);
    step_and_project(x, &grad, origin, step, eps)
}

/// The multi-pass step and projection every attack ran before the
/// one-pass [`step_and_project`]: the bitwise reference its tests hold
/// it to.
#[cfg(test)]
pub(crate) mod reference {
    use simpadv_tensor::Tensor;

    /// `max(x, lo)` then `min(·, hi)`, one temporary per operation.
    pub fn project_ball(x: &Tensor, origin: &Tensor, eps: f32) -> Tensor {
        let lo = origin.add_scalar(-eps).clamp(0.0, 1.0);
        let hi = origin.add_scalar(eps).clamp(0.0, 1.0);
        x.zip_map(&lo, f32::max).zip_map(&hi, f32::min)
    }

    /// `x + step · sign(d)`, projected.
    pub fn ascend(x: &Tensor, d: &Tensor, origin: &Tensor, step: f32, eps: f32) -> Tensor {
        project_ball(&x.add(&d.sign().mul_scalar(step)), origin, eps)
    }

    /// `x − step · sign(d)`, projected: least-likely-class FGSM's form.
    pub fn descend(x: &Tensor, d: &Tensor, origin: &Tensor, step: f32, eps: f32) -> Tensor {
        project_ball(&x.sub(&d.sign().mul_scalar(step)), origin, eps)
    }

    /// The bit patterns of a tensor's elements, so `NaN` and `±0.0`
    /// compare exactly.
    pub fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, bits};
    use super::*;
    use crate::attack::testmodel::{centred_batch, linear_model};

    #[test]
    fn one_pass_forms_match_the_multi_pass_reference_bitwise() {
        let inf = f32::INFINITY;
        let pixels = [0.0, -0.0, 1.0, 0.5, 0.02, 0.98, 0.3, 0.7, f32::NAN];
        let directions = [0.0, -0.0, f32::NAN, inf, -inf, 1e-38, -2.5, 3.0];
        let origins = [0.0, 1.0, 0.05, 0.95, 0.299, 0.701, 0.5];
        let mut cells = Vec::new();
        for &p in &pixels {
            for &d in &directions {
                for &o in &origins {
                    cells.push((p, d, o));
                }
            }
        }
        let column = |f: fn(&(f32, f32, f32)) -> f32| {
            Tensor::from_vec(cells.iter().map(f).collect(), &[cells.len()])
        };
        let (x, d, o) = (column(|c| c.0), column(|c| c.1), column(|c| c.2));
        for eps in [0.0, 0.1, 0.3] {
            assert_eq!(
                bits(&project_ball(&x, &o, eps)),
                bits(&reference::project_ball(&x, &o, eps))
            );
            for step in [0.0, 0.03, 0.3] {
                let up = step_and_project(&x, &d, &o, step, eps);
                assert_eq!(
                    bits(&up),
                    bits(&reference::ascend(&x, &d, &o, step, eps)),
                    "{step} {eps}"
                );
                let down = step_and_project(&x, &d, &o, -step, eps);
                assert_eq!(bits(&down), bits(&reference::descend(&x, &d, &o, step, eps)));
            }
        }
    }

    #[test]
    fn signed_step_matches_the_multi_pass_reference() {
        let (mut m, x, y) = crate::attack::testmodel::mlp_and_batch(5);
        let origin = x.map(|v| (v - 0.05).max(0.0));
        let (_, grad) = m.loss_and_input_grad(&x, &y);
        let want = reference::ascend(&x, &grad, &origin, 0.03, 0.1);
        assert_eq!(bits(&signed_step(&mut m, &x, &origin, &y, 0.03, 0.1)), bits(&want));
    }

    #[test]
    fn projection_is_identity_inside_ball() {
        let origin = Tensor::full(&[4], 0.5);
        let x = Tensor::from_slice(&[0.45, 0.5, 0.55, 0.52]);
        assert_eq!(project_ball(&x, &origin, 0.1), x);
    }

    #[test]
    fn projection_clips_to_ball_and_box() {
        let origin = Tensor::from_slice(&[0.05, 0.5, 0.95]);
        let x = Tensor::from_slice(&[-0.5, 0.9, 1.5]);
        let p = project_ball(&x, &origin, 0.2);
        // coordinate 0: ball floor is -0.15, box floor 0 → 0
        assert_eq!(p.as_slice()[0], 0.0);
        // coordinate 1: ball ceiling 0.7
        assert!((p.as_slice()[1] - 0.7).abs() < 1e-6);
        // coordinate 2: ball ceiling 1.15, box ceiling 1 → 1
        assert_eq!(p.as_slice()[2], 1.0);
    }

    #[test]
    fn projection_is_idempotent() {
        let origin = Tensor::full(&[8], 0.4);
        let x = Tensor::linspace(-1.0, 2.0, 8);
        let p1 = project_ball(&x, &origin, 0.3);
        let p2 = project_ball(&p1, &origin, 0.3);
        assert_eq!(p1, p2);
    }

    #[test]
    fn linf_distance_values() {
        let a = Tensor::from_slice(&[0.0, 1.0]);
        let b = Tensor::from_slice(&[0.25, 0.5]);
        assert_eq!(linf_distance(&a, &b), 0.5);
        assert_eq!(linf_distance(&a, &a), 0.0);
    }

    #[test]
    fn signed_step_moves_against_the_model() {
        let mut m = linear_model();
        let (x, y) = centred_batch(2);
        let x1 = signed_step(&mut m, &x, &x, &y, 0.05, 0.1);
        // the step increases the loss
        use simpadv_nn::GradientModel;
        let (l0, _) = m.loss_and_input_grad(&x, &y);
        let (l1, _) = m.loss_and_input_grad(&x1, &y);
        assert!(l1 > l0, "loss should rise: {l0} -> {l1}");
        // and respects the ball
        assert!(linf_distance(&x1, &x) <= 0.05 + 1e-6);
    }

    #[test]
    fn signed_step_respects_total_budget() {
        let mut m = linear_model();
        let (x, y) = centred_batch(1);
        let mut cur = x.clone();
        for _ in 0..10 {
            cur = signed_step(&mut m, &cur, &x, &y, 0.05, 0.08);
        }
        assert!(linf_distance(&cur, &x) <= 0.08 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_epsilon_rejected() {
        let x = Tensor::zeros(&[2]);
        project_ball(&x, &x, -0.1);
    }

    #[test]
    fn byte_formulas_count_tensor_traffic() {
        // project_ball: x + origin read, output written
        assert_eq!(project_ball_bytes(784), 3 * 4 * 784);
        // signed_step: x + origin + gradient read, output written
        assert_eq!(signed_step_bytes(784), 4 * 4 * 784);
        assert_eq!(project_ball_bytes(0), 0);
    }
}
