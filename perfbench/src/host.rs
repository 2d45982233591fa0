//! Host-speed reference for compute-bound timings.
//!
//! Shared sandboxes change speed by tens of percent from one minute to
//! the next (other tenants load the same cores), which moves every
//! compute-bound time in a run together. Such a time is therefore
//! reported *normalised*: scaled by [`NOMINAL_MS`] over the time the
//! [`reference_ms`] kernel took on the same host at the same moment. The
//! kernel is the benchmark's own code, a plain triple loop with the shape
//! of the model's first Dense layer on one batch, so no change to the
//! repository moves it; a change that speeds the repository up moves the
//! normalised times exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// What the reference kernel takes on the host the benchmark was tuned
/// on, in its usual state (a 2-vCPU Xeon VM at 2.1 GHz). Normalised times
/// read as milliseconds on that host.
pub const NOMINAL_MS: f64 = 4.0;

const ROWS: usize = 64;
const INNER: usize = 784;
const COLS: usize = 128;

/// Milliseconds one reference kernel takes now: the median of three
/// repeats of a 64×784×128 f32 matrix product, four times over.
pub fn reference_ms() -> f64 {
    let a: Vec<f32> = (0..ROWS * INNER).map(|i| (i % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..INNER * COLS).map(|i| (i % 5) as f32 * 0.25).collect();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut c = vec![0f32; ROWS * COLS];
            for _ in 0..4 {
                for i in 0..ROWS {
                    for k in 0..INNER {
                        let av = black_box(a[i * INNER + k]);
                        let row = &b[k * COLS..(k + 1) * COLS];
                        for (out, bv) in c[i * COLS..(i + 1) * COLS].iter_mut().zip(row) {
                            *out += av * bv;
                        }
                    }
                }
            }
            black_box(&c);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// The factor that turns a time measured while the reference took
/// `reference_ms` into a normalised time.
pub fn normaliser(reference_ms: f64) -> f64 {
    NOMINAL_MS / reference_ms
}
