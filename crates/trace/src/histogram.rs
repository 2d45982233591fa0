//! Fixed-boundary histograms.
//!
//! Observations accumulate in memory (per metric path, inside the
//! tracer) and are emitted as a single [`crate::EventKind::Histogram`]
//! event at flush time. Bucket boundaries are fixed at construction, so
//! bucket counts — like every other logical field — are deterministic
//! across thread counts as long as the observation stream is.

use crate::event::FieldValue;

/// Default bucket upper bounds, tuned for the quantities this workspace
/// observes (losses, accuracies, l∞ drifts — mostly `[0, 1]`-ish with an
/// occasional larger loss).
pub const DEFAULT_BOUNDS: &[f64] = &[0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0];

/// A histogram with inclusive upper-bound buckets.
///
/// A value `v` lands in the first bucket whose bound satisfies
/// `v <= bound`; values above the last bound land in the overflow
/// bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket at the end.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, not strictly increasing, or contains
    /// a non-finite value.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(bounds.iter().all(|b| b.is_finite()), "histogram bounds must be finite");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A histogram with [`DEFAULT_BOUNDS`].
    pub fn with_default_bounds() -> Self {
        Histogram::new(DEFAULT_BOUNDS)
    }

    /// Index of the bucket `v` falls into (`bounds.len()` = overflow).
    fn bucket_index(&self, v: f64) -> usize {
        self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len())
    }

    /// Records one observation. Non-finite values count toward `count`
    /// and the overflow bucket but are excluded from `sum`/`min`/`max`.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            let i = self.bucket_index(v);
            self.buckets[i] += 1;
        } else {
            let last = self.buckets.len() - 1;
            self.buckets[last] += 1;
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite observations (in observation order, so the float
    /// accumulation itself is deterministic).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket counts (bounds order, then the overflow bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Lowers the histogram into event fields: `count`, `sum`, `min`,
    /// `max` (the latter two only when non-empty), then one
    /// `le_<bound>` count per bucket and a trailing `gt_<last>` overflow
    /// count.
    pub fn to_fields(&self) -> Vec<(String, FieldValue)> {
        let mut fields = vec![
            ("count".to_string(), FieldValue::U64(self.count)),
            ("sum".to_string(), FieldValue::F64(self.sum)),
        ];
        if self.min.is_finite() {
            fields.push(("min".to_string(), FieldValue::F64(self.min)));
            fields.push(("max".to_string(), FieldValue::F64(self.max)));
        }
        for (b, n) in self.bounds.iter().zip(&self.buckets) {
            fields.push((format!("le_{b}"), FieldValue::U64(*n)));
        }
        let last = self.bounds[self.bounds.len() - 1];
        fields.push((format!("gt_{last}"), FieldValue::U64(self.buckets[self.bounds.len()])));
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_inclusive_upper_bound() {
        let mut h = Histogram::new(&[0.1, 0.5, 1.0]);
        h.observe(0.05); // <= 0.1
        h.observe(0.1); // == 0.1, inclusive -> first bucket
        h.observe(0.3); // <= 0.5
        h.observe(1.0); // == 1.0 -> third bucket
        h.observe(2.0); // overflow
        h.observe(-1.0); // below everything -> first bucket
        assert_eq!(h.buckets(), &[3, 1, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 2.45).abs() < 1e-12);
    }

    #[test]
    fn non_finite_observations_go_to_overflow_without_poisoning_sum() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets(), &[1, 2]);
        assert!((h.sum() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn to_fields_has_stable_schema() {
        let mut h = Histogram::new(&[0.5, 1.0]);
        h.observe(0.25);
        let keys: Vec<String> = h.to_fields().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["count", "sum", "min", "max", "le_0.5", "le_1", "gt_1"]);
        // empty histogram drops min/max
        let keys: Vec<String> =
            Histogram::new(&[0.5, 1.0]).to_fields().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["count", "sum", "le_0.5", "le_1", "gt_1"]);
    }

    #[test]
    fn default_bounds_are_valid() {
        let h = Histogram::with_default_bounds();
        assert_eq!(h.buckets().len(), DEFAULT_BOUNDS.len() + 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[1.0, 0.5]);
    }
}
