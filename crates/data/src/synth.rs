//! Dataset synthesis: jittered rendering of glyph templates.

use crate::dataset::Dataset;
use crate::fashion::draw_garment;
use crate::glyphs::draw_digit;
use crate::raster::{Canvas, Transform};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use simpadv_tensor::Tensor;

/// Image side length in pixels (matches MNIST).
pub const IMAGE_SIDE: usize = 28;
/// Flattened pixel count per image.
pub const IMAGE_PIXELS: usize = IMAGE_SIDE * IMAGE_SIDE;
/// Number of classes in both synthetic tasks.
pub const CLASS_COUNT: usize = 10;

/// Which synthetic task to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SynthDataset {
    /// Digit glyphs — the MNIST stand-in (ε = 0.3 in the paper).
    Mnist,
    /// Garment silhouettes — the Fashion-MNIST stand-in (ε = 0.2); contains
    /// deliberately confusable classes.
    Fashion,
}

impl SynthDataset {
    /// A short identifier used in reports (`"mnist"` / `"fashion"`).
    pub fn id(self) -> &'static str {
        match self {
            SynthDataset::Mnist => "mnist",
            SynthDataset::Fashion => "fashion",
        }
    }

    /// The paper's total perturbation budget ε for this dataset.
    pub fn paper_epsilon(self) -> f32 {
        match self {
            SynthDataset::Mnist => 0.3,
            SynthDataset::Fashion => 0.2,
        }
    }

    /// Generates a dataset according to `config`.
    pub fn generate(self, config: &SynthConfig) -> Dataset {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.samples;
        let mut pixels = Vec::with_capacity(n * IMAGE_PIXELS);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // balanced classes, deterministic order; the loader shuffles
            let class = i % CLASS_COUNT;
            let canvas = self.render_sample(class, config, &mut rng);
            pixels.extend_from_slice(canvas.pixels());
            labels.push(class);
        }
        Dataset::new(Tensor::from_vec(pixels, &[n, IMAGE_PIXELS]), labels, CLASS_COUNT)
    }

    fn render_sample(self, class: usize, config: &SynthConfig, rng: &mut StdRng) -> Canvas {
        let j = config.jitter;
        let tf = Transform {
            rotation: rng.random_range(-0.14f32..0.14) * j, // ±8° at full jitter
            scale_x: 1.0 + rng.random_range(-0.1f32..0.08) * j,
            scale_y: 1.0 + rng.random_range(-0.1f32..0.08) * j,
            dx: rng.random_range(-0.05f32..0.05) * j,
            dy: rng.random_range(-0.05f32..0.05) * j,
        };
        let thickness = 3.0 + rng.random_range(-0.6f32..0.8) * j;
        let mut canvas = Canvas::new(IMAGE_SIDE);
        match self {
            SynthDataset::Mnist => draw_digit(&mut canvas, class, &tf, thickness),
            SynthDataset::Fashion => draw_garment(&mut canvas, class, &tf, thickness),
        }
        canvas.blur();
        // MNIST-like contrast: push stroke interiors to saturation and the
        // background to black, leaving a thin soft transition band. Robust
        // separability at the paper's ε (0.3/0.2) depends on this — real
        // MNIST pixels are near-binary too.
        canvas.sharpen(0.2, 4.0);
        canvas.add_noise(rng, config.noise_sigma);
        canvas
    }
}

/// Generation parameters.
///
/// # Example
///
/// ```
/// use simpadv_data::{SynthConfig, SynthDataset};
///
/// let cfg = SynthConfig::new(50, 1).with_noise(0.02).with_jitter(0.5);
/// let data = SynthDataset::Fashion.generate(&cfg);
/// assert_eq!(data.len(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of images to generate.
    pub samples: usize,
    /// RNG seed; equal seeds give identical datasets.
    pub seed: u64,
    /// Standard deviation of additive Gaussian pixel noise.
    pub noise_sigma: f32,
    /// Jitter amplitude in `[0, 1]`: 0 renders clean templates, 1 applies
    /// the full rotation/scale/translation/thickness variation.
    pub jitter: f32,
}

impl SynthConfig {
    /// A config with the default noise (0.03) and full jitter.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn new(samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "need at least one sample");
        SynthConfig { samples, seed, noise_sigma: 0.03, jitter: 1.0 }
    }

    /// Overrides the noise level.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_noise(mut self, sigma: f32) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        self.noise_sigma = sigma;
        self
    }

    /// Overrides the jitter amplitude.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= jitter <= 1`.
    pub fn with_jitter(mut self, jitter: f32) -> Self {
        assert!((0.0..=1.0).contains(&jitter), "jitter {jitter} not in [0, 1]");
        self.jitter = jitter;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::new(40, 123);
        let a = SynthDataset::Mnist.generate(&cfg);
        let b = SynthDataset::Mnist.generate(&cfg);
        assert_eq!(a.images(), b.images());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthDataset::Mnist.generate(&SynthConfig::new(40, 1));
        let b = SynthDataset::Mnist.generate(&SynthConfig::new(40, 2));
        assert_ne!(a.images(), b.images());
    }

    #[test]
    fn classes_are_balanced() {
        let d = SynthDataset::Fashion.generate(&SynthConfig::new(100, 5));
        let mut counts = [0usize; 10];
        for &l in d.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn pixels_in_unit_interval() {
        let d = SynthDataset::Mnist.generate(&SynthConfig::new(30, 9));
        assert!(d.images().as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn within_class_variation_exists() {
        let d = SynthDataset::Mnist.generate(&SynthConfig::new(30, 9));
        // rows 0 and 10 are both class 0 but jittered differently
        assert_eq!(d.labels()[0], d.labels()[10]);
        assert_ne!(d.images().row(0), d.images().row(10));
    }

    #[test]
    fn zero_jitter_zero_noise_gives_clean_templates() {
        let cfg = SynthConfig::new(20, 3).with_noise(0.0).with_jitter(0.0);
        let d = SynthDataset::Mnist.generate(&cfg);
        // two renders of the same class are now identical
        assert_eq!(d.images().row(0), d.images().row(10));
    }

    #[test]
    fn epsilon_and_ids_match_paper() {
        assert_eq!(SynthDataset::Mnist.paper_epsilon(), 0.3);
        assert_eq!(SynthDataset::Fashion.paper_epsilon(), 0.2);
        assert_eq!(SynthDataset::Mnist.id(), "mnist");
        assert_eq!(SynthDataset::Fashion.id(), "fashion");
    }
}
