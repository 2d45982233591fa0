//! A tiny software rasterizer for 28×28 grayscale glyphs.
//!
//! All shapes are expressed as point lists in a unit coordinate system
//! (`[0, 1]²`, origin top-left). A [`Transform`] (rotate/scale/translate
//! about the glyph centre) is applied to the points, which are then mapped
//! to pixel coordinates. Strokes are rendered with an analytic
//! distance-to-segment coverage function, so thin strokes stay smooth —
//! important for a dataset whose classifiers must be attackable with small
//! l∞ perturbations rather than defeated by aliasing artifacts.

use rand::Rng;
use simpadv_tensor::NormalSampler;

/// An affine jitter applied to glyph control points: rotation and
/// anisotropic scale about the glyph centre `(0.5, 0.5)`, then translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transform {
    /// Rotation in radians (counter-clockwise).
    pub rotation: f32,
    /// Horizontal scale factor.
    pub scale_x: f32,
    /// Vertical scale factor.
    pub scale_y: f32,
    /// Horizontal translation in unit coordinates.
    pub dx: f32,
    /// Vertical translation in unit coordinates.
    pub dy: f32,
}

impl Default for Transform {
    /// The identity transform.
    fn default() -> Self {
        Transform { rotation: 0.0, scale_x: 1.0, scale_y: 1.0, dx: 0.0, dy: 0.0 }
    }
}

impl Transform {
    /// The identity transform.
    pub fn identity() -> Self {
        Self::default()
    }

    /// Applies the transform to a unit-space point.
    pub fn apply(&self, p: (f32, f32)) -> (f32, f32) {
        let (cx, cy) = (0.5, 0.5);
        let (x, y) = (p.0 - cx, p.1 - cy);
        let (x, y) = (x * self.scale_x, y * self.scale_y);
        let (s, c) = self.rotation.sin_cos();
        let (x, y) = (c * x - s * y, s * x + c * y);
        (x + cx + self.dx, y + cy + self.dy)
    }
}

/// Generates `n + 1` points along an elliptical arc from angle `a0` to `a1`
/// (radians), centred at `(cx, cy)` with radii `(rx, ry)`, in unit
/// coordinates.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn arc_points(
    cx: f32,
    cy: f32,
    rx: f32,
    ry: f32,
    a0: f32,
    a1: f32,
    n: usize,
) -> Vec<(f32, f32)> {
    assert!(n > 0, "arc needs at least one segment");
    (0..=n)
        .map(|i| {
            let t = a0 + (a1 - a0) * i as f32 / n as f32;
            (cx + rx * t.cos(), cy + ry * t.sin())
        })
        .collect()
}

/// A grayscale drawing surface with intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Canvas {
    side: usize,
    pixels: Vec<f32>,
}

impl Canvas {
    /// Creates a black square canvas of `side`×`side` pixels.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`.
    pub fn new(side: usize) -> Self {
        assert!(side > 0, "canvas side must be positive");
        Canvas { side, pixels: vec![0.0; side * side] }
    }

    /// Canvas side length in pixels.
    pub fn side(&self) -> usize {
        self.side
    }

    /// The pixel buffer (row-major).
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    fn to_px(&self, p: (f32, f32)) -> (f32, f32) {
        // map unit space into the canvas with a 2-pixel margin
        let m = 2.0;
        let s = self.side as f32 - 2.0 * m;
        (m + p.0 * s, m + p.1 * s)
    }

    /// Strokes a polyline given in unit coordinates, after applying `tf`.
    /// `thickness` is in pixels; `intensity` is the peak value, blended
    /// with `max`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given or `thickness <= 0`.
    pub fn stroke_polyline(
        &mut self,
        points: &[(f32, f32)],
        tf: &Transform,
        thickness: f32,
        intensity: f32,
    ) {
        assert!(points.len() >= 2, "polyline needs at least two points");
        assert!(thickness > 0.0, "thickness must be positive");
        let px: Vec<(f32, f32)> = points.iter().map(|&p| self.to_px(tf.apply(p))).collect();
        for seg in px.windows(2) {
            self.stroke_segment(seg[0], seg[1], thickness, intensity);
        }
    }

    fn stroke_segment(&mut self, a: (f32, f32), b: (f32, f32), thickness: f32, intensity: f32) {
        let r = thickness * 0.5;
        let pad = r + 1.5;
        let x0 = (a.0.min(b.0) - pad).floor().max(0.0) as usize;
        let x1 = (a.0.max(b.0) + pad).ceil().min((self.side - 1) as f32) as usize;
        let y0 = (a.1.min(b.1) - pad).floor().max(0.0) as usize;
        let y1 = (a.1.max(b.1) + pad).ceil().min((self.side - 1) as f32) as usize;
        let (abx, aby) = (b.0 - a.0, b.1 - a.1);
        let len2 = abx * abx + aby * aby;
        for y in y0..=y1 {
            for x in x0..=x1 {
                let (pxc, pyc) = (x as f32 + 0.5, y as f32 + 0.5);
                let t = if len2 > 0.0 {
                    (((pxc - a.0) * abx + (pyc - a.1) * aby) / len2).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let (qx, qy) = (a.0 + t * abx, a.1 + t * aby);
                let d = ((pxc - qx).powi(2) + (pyc - qy).powi(2)).sqrt();
                // 1 inside the core, smooth 1-pixel falloff at the rim
                let cover = (r + 0.5 - d).clamp(0.0, 1.0);
                if cover > 0.0 {
                    let idx = y * self.side + x;
                    self.pixels[idx] = self.pixels[idx].max(cover * intensity);
                }
            }
        }
    }

    /// Fills a polygon (even-odd rule) given in unit coordinates, after
    /// applying `tf`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than three points are given.
    pub fn fill_polygon(&mut self, points: &[(f32, f32)], tf: &Transform, intensity: f32) {
        assert!(points.len() >= 3, "polygon needs at least three points");
        let px: Vec<(f32, f32)> = points.iter().map(|&p| self.to_px(tf.apply(p))).collect();
        let y_min = px.iter().map(|p| p.1).fold(f32::INFINITY, f32::min).floor().max(0.0) as usize;
        let y_max = px
            .iter()
            .map(|p| p.1)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min((self.side - 1) as f32) as usize;
        for y in y_min..=y_max {
            let yc = y as f32 + 0.5;
            // gather x-crossings of scanline yc
            let mut xs: Vec<f32> = Vec::new();
            for i in 0..px.len() {
                let (a, b) = (px[i], px[(i + 1) % px.len()]);
                if (a.1 <= yc && b.1 > yc) || (b.1 <= yc && a.1 > yc) {
                    let t = (yc - a.1) / (b.1 - a.1);
                    xs.push(a.0 + t * (b.0 - a.0));
                }
            }
            xs.sort_by(f32::total_cmp);
            for pair in xs.chunks(2) {
                if pair.len() < 2 {
                    continue;
                }
                let x0 = pair[0].ceil().max(0.0) as usize;
                let x1 = pair[1].floor().min((self.side - 1) as f32) as usize;
                for x in x0..=x1 {
                    let idx = y * self.side + x;
                    self.pixels[idx] = self.pixels[idx].max(intensity);
                }
            }
        }
    }

    /// One pass of a 3×3 binomial blur (kernel `[1 2 1]⊗[1 2 1]/16`),
    /// zero-padded at the borders.
    pub fn blur(&mut self) {
        let s = self.side;
        let get = |p: &[f32], x: isize, y: isize| -> f32 {
            if x < 0 || y < 0 || x >= s as isize || y >= s as isize {
                0.0
            } else {
                p[y as usize * s + x as usize]
            }
        };
        let src = self.pixels.clone();
        for y in 0..s as isize {
            for x in 0..s as isize {
                let mut acc = 0.0;
                for (dy, wy) in [(-1, 1.0), (0, 2.0), (1, 1.0)] {
                    for (dx, wx) in [(-1, 1.0), (0, 2.0), (1, 1.0)] {
                        acc += wx * wy * get(&src, x + dx, y + dy);
                    }
                }
                self.pixels[y as usize * s + x as usize] = acc / 16.0;
            }
        }
    }

    /// Contrast gain: `v ↦ clamp((v - floor) * gain)`. Pushes stroke
    /// interiors toward 1 and the background toward 0, as in scanned
    /// handwriting datasets.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not positive.
    pub fn sharpen(&mut self, floor: f32, gain: f32) {
        assert!(gain > 0.0, "gain must be positive");
        for p in &mut self.pixels {
            *p = ((*p - floor) * gain).clamp(0.0, 1.0);
        }
    }

    /// Adds i.i.d. Gaussian pixel noise and clamps back into `[0, 1]`.
    pub fn add_noise<R: Rng + ?Sized>(&mut self, rng: &mut R, sigma: f32) {
        if sigma <= 0.0 {
            return;
        }
        let mut sampler = NormalSampler::new(0.0, sigma);
        for p in &mut self.pixels {
            *p = (*p + sampler.sample(rng)).clamp(0.0, 1.0);
        }
    }

    /// Mean intensity (fraction of ink).
    pub fn ink(&self) -> f32 {
        self.pixels.iter().sum::<f32>() / self.pixels.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_canvas_is_black() {
        let c = Canvas::new(28);
        assert_eq!(c.side(), 28);
        assert_eq!(c.ink(), 0.0);
    }

    #[test]
    fn stroke_leaves_ink_along_the_line() {
        let mut c = Canvas::new(28);
        c.stroke_polyline(&[(0.1, 0.5), (0.9, 0.5)], &Transform::identity(), 2.0, 1.0);
        assert!(c.ink() > 0.01);
        // centre of the line is fully covered
        let mid = 14 * 28 + 14;
        assert!(c.pixels()[mid] > 0.9, "centre pixel {}", c.pixels()[mid]);
        // far corner untouched
        assert_eq!(c.pixels()[0], 0.0);
    }

    #[test]
    fn thicker_strokes_leave_more_ink() {
        let mut thin = Canvas::new(28);
        thin.stroke_polyline(&[(0.1, 0.5), (0.9, 0.5)], &Transform::identity(), 1.0, 1.0);
        let mut thick = Canvas::new(28);
        thick.stroke_polyline(&[(0.1, 0.5), (0.9, 0.5)], &Transform::identity(), 4.0, 1.0);
        assert!(thick.ink() > 2.0 * thin.ink());
    }

    #[test]
    fn rotation_moves_ink() {
        let tf = Transform { rotation: std::f32::consts::FRAC_PI_2, ..Transform::identity() };
        let mut c = Canvas::new(28);
        c.stroke_polyline(&[(0.1, 0.5), (0.9, 0.5)], &tf, 2.0, 1.0);
        // a horizontal line rotated 90° becomes vertical: column 14 inked
        let col_mid = 7 * 28 + 14;
        assert!(c.pixels()[col_mid] > 0.5);
        let row_edge = 14 * 28 + 4;
        assert!(c.pixels()[row_edge] < 0.5);
    }

    #[test]
    fn translation_shifts_ink() {
        let tf = Transform { dx: 0.3, ..Transform::identity() };
        let mut c = Canvas::new(28);
        c.stroke_polyline(&[(0.1, 0.5), (0.3, 0.5)], &tf, 2.0, 1.0);
        // untranslated start (x≈0.1) must be empty
        let orig = 14 * 28 + 4;
        assert_eq!(c.pixels()[orig], 0.0);
    }

    #[test]
    fn fill_polygon_interior_and_exterior() {
        let mut c = Canvas::new(28);
        let square = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)];
        c.fill_polygon(&square, &Transform::identity(), 1.0);
        assert!(c.pixels()[14 * 28 + 14] == 1.0);
        assert_eq!(c.pixels()[2 * 28 + 2], 0.0);
    }

    #[test]
    fn blur_preserves_mass_in_interior() {
        let mut c = Canvas::new(28);
        c.fill_polygon(
            &[(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)],
            &Transform::identity(),
            1.0,
        );
        let before = c.ink();
        c.blur();
        let after = c.ink();
        assert!((before - after).abs() / before < 0.05);
        // blur spreads: the hard edge softens
        assert!(c.pixels().iter().any(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let mut a = Canvas::new(28);
        let mut b = Canvas::new(28);
        a.add_noise(&mut r1, 0.1);
        b.add_noise(&mut r2, 0.1);
        assert_eq!(a, b);
        assert!(a.pixels().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let mut c = Canvas::new(28);
        c.add_noise(&mut r1, 0.0); // no-op
        assert_eq!(c.ink(), 0.0);
    }

    #[test]
    fn arc_points_endpoints() {
        let pts = arc_points(0.5, 0.5, 0.2, 0.2, 0.0, std::f32::consts::PI, 8);
        assert_eq!(pts.len(), 9);
        assert!((pts[0].0 - 0.7).abs() < 1e-6);
        assert!((pts[8].0 - 0.3).abs() < 1e-5);
    }

    #[test]
    fn transform_identity_is_noop() {
        let p = (0.3, 0.8);
        let q = Transform::identity().apply(p);
        assert!((p.0 - q.0).abs() < 1e-6 && (p.1 - q.1).abs() < 1e-6);
    }

    #[test]
    fn transform_rotation_about_centre() {
        let tf = Transform { rotation: std::f32::consts::PI, ..Transform::identity() };
        let q = tf.apply((0.0, 0.5));
        assert!((q.0 - 1.0).abs() < 1e-6 && (q.1 - 0.5).abs() < 1e-6);
    }
}
