//! He-uniform weight initialization, the one scheme every layer uses.

use rand::Rng;
use simpadv_tensor::Tensor;

/// Samples He/Kaiming-uniform weights, the standard choice for the ReLU
/// networks in this project: `U(-a, a)` with `a = sqrt(6 / fan_in)`.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub(crate) fn he_uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], fan_in: usize) -> Tensor {
    assert!(fan_in > 0, "he init needs nonzero fan_in");
    let a = (6.0 / fan_in as f32).sqrt();
    Tensor::rand_uniform(rng, shape, -a, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense};
    use crate::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The weights a layer was built with, as bits.
    fn weight_bits(layer: &dyn Layer) -> Vec<u32> {
        let state = layer.state();
        let (_, weight) = state.iter().find(|(k, _)| k == "weight").expect("a weight entry");
        weight.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `U(-a, a)` with `a = sqrt(6 / fan_in)`, drawn directly.
    fn reference(rng: &mut StdRng, shape: &[usize], fan_in: usize) -> Vec<u32> {
        let a = (6.0 / fan_in as f32).sqrt();
        let t = Tensor::rand_uniform(rng, shape, -a, a);
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn layers_draw_he_uniform_weights_bitwise() {
        // Dense: weight [in, out], fan_in = in
        let (mut built, mut direct) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
        let dense = Dense::new(5, 3, &mut built);
        assert_eq!(weight_bits(&dense), reference(&mut direct, &[5, 3], 5));
        assert_eq!(built.state(), direct.state(), "dense left the rng elsewhere");

        // Conv2d: weight [c_out, c_in·k·k], fan_in = c_in·k·k
        let (mut built, mut direct) = (StdRng::seed_from_u64(12), StdRng::seed_from_u64(12));
        let conv = Conv2d::new(2, 4, 3, 1, 1, 6, 6, &mut built);
        assert_eq!(weight_bits(&conv), reference(&mut direct, &[4, 18], 18));
        assert_eq!(built.state(), direct.state(), "conv left the rng elsewhere");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(he_uniform(&mut r1, &[16], 4), he_uniform(&mut r2, &[16], 4));
    }

    #[test]
    #[should_panic(expected = "fan_in")]
    fn he_rejects_zero_fan() {
        let mut rng = StdRng::seed_from_u64(0);
        he_uniform(&mut rng, &[1], 0);
    }
}
