//! Server-side statistics: latency percentiles, batch occupancy, and
//! per-generation clean-vs-adversarial accuracy counters.
//!
//! Wall-clock quantities (latencies, throughput) live here and in the
//! benchmark artifact's `meta` section — never in the logical trace
//! stream, whose events must be identical across thread counts and
//! machines. Logical quantities (request/correct counts per generation
//! and traffic class) are mirrored into `crates/trace` counters by the
//! batch engine.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning (a panicked holder cannot
/// corrupt these monotonic counters in a way worth propagating).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Debug, Default, Clone)]
struct ClassCounts {
    requests: u64,
    labeled: u64,
    correct: u64,
}

/// How many of the newest request latencies the percentiles read:
/// 2 MiB of samples, about half a minute of closed-loop load-generator
/// traffic on a 2-vCPU host. Count and max cover the whole lifetime.
const LATENCY_WINDOW: usize = 1 << 18;

#[derive(Debug, Default)]
struct StatsInner {
    per_gen: BTreeMap<(u64, bool), ClassCounts>,
    /// The newest [`LATENCY_WINDOW`] latencies, a ring: the request
    /// answered `n`-th (from 0) lands in slot `n % LATENCY_WINDOW`.
    latencies_us: Vec<u64>,
    latency_max_us: u64,
    batches: u64,
    batch_rows: u64,
    batch_max: u64,
    served: u64,
    rejected: u64,
    skipped_generations: u64,
    swapped_generations: u64,
}

/// Thread-safe registry the batch engine reports into.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    inner: Mutex<StatsInner>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Records one completed request.
    pub fn record_request(
        &self,
        generation: u64,
        adversarial: bool,
        label: Option<usize>,
        prediction: usize,
        latency_us: u64,
    ) {
        let mut inner = lock(&self.inner);
        let slot = (inner.served % LATENCY_WINDOW as u64) as usize;
        match inner.latencies_us.get_mut(slot) {
            Some(oldest) => *oldest = latency_us,
            None => inner.latencies_us.push(latency_us),
        }
        inner.latency_max_us = inner.latency_max_us.max(latency_us);
        inner.served += 1;
        let counts = inner.per_gen.entry((generation, adversarial)).or_default();
        counts.requests += 1;
        if let Some(label) = label {
            counts.labeled += 1;
            if label == prediction {
                counts.correct += 1;
            }
        }
    }

    /// Records the occupancy of one dispatched batch.
    pub fn record_batch(&self, occupancy: usize) {
        let mut inner = lock(&self.inner);
        inner.batches += 1;
        inner.batch_rows += occupancy as u64;
        inner.batch_max = inner.batch_max.max(occupancy as u64);
    }

    /// Records one backpressure rejection.
    pub fn record_rejected(&self) {
        lock(&self.inner).rejected += 1;
    }

    /// Records generations skipped because they failed to load, decode
    /// or restore.
    pub fn record_skipped_generations(&self, count: u64) {
        lock(&self.inner).skipped_generations += count;
    }

    /// Records one successful hot swap.
    pub fn record_swapped_generation(&self) {
        lock(&self.inner).swapped_generations += 1;
    }

    /// Number of requests answered so far.
    pub fn served(&self) -> u64 {
        lock(&self.inner).served
    }

    /// Takes a consistent snapshot with derived percentiles. The latency
    /// window is copied under the lock and sorted after it is released,
    /// so a scrape holds up a batch runner for a copy, not a sort.
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = lock(&self.inner);
        let mut generations: Vec<GenerationClassStats> = Vec::new();
        for ((generation, adversarial), counts) in &inner.per_gen {
            generations.push(GenerationClassStats {
                generation: *generation,
                traffic: if *adversarial { "adversarial" } else { "clean" }.to_string(),
                requests: counts.requests,
                labeled: counts.labeled,
                correct: counts.correct,
            });
        }
        let window = inner.latencies_us.clone();
        let batch_occupancy = OccupancySummary {
            batches: inner.batches,
            mean: if inner.batches == 0 {
                0.0
            } else {
                inner.batch_rows as f64 / inner.batches as f64
            },
            max: inner.batch_max,
        };
        let (served, latency_max_us) = (inner.served, inner.latency_max_us);
        let (rejected, skipped_generations, swapped_generations) =
            (inner.rejected, inner.skipped_generations, inner.swapped_generations);
        drop(inner);
        StatsSnapshot {
            served,
            rejected,
            skipped_generations,
            swapped_generations,
            generations,
            latency_us: LatencySummary::new(window, served, latency_max_us),
            batch_occupancy,
        }
    }
}

/// Accuracy counters for one (generation, traffic-class) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationClassStats {
    /// Checkpoint generation that answered these requests.
    pub generation: u64,
    /// `"clean"` or `"adversarial"`.
    pub traffic: String,
    /// Requests answered.
    pub requests: u64,
    /// Requests that carried a ground-truth label.
    pub labeled: u64,
    /// Labeled requests predicted correctly.
    pub correct: u64,
}

/// Request latencies (wall-clock; lives in `meta` sections only): count
/// and max over every answered request, percentiles over the newest
/// [`LATENCY_WINDOW`] of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Requests answered.
    pub count: u64,
    /// 50th percentile, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Worst observed, microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes `count` requests whose worst latency was `max_us`,
    /// reading the percentiles from `window`, the newest samples.
    fn new(mut window: Vec<u64>, count: u64, max_us: u64) -> Self {
        window.sort_unstable();
        LatencySummary {
            count,
            p50_us: percentile(&window, 0.50),
            p90_us: percentile(&window, 0.90),
            p99_us: percentile(&window, 0.99),
            max_us,
        }
    }
}

/// Batch-occupancy summary: how full the coalesced batches ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancySummary {
    /// Number of dispatched batches.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean: f64,
    /// Largest batch dispatched.
    pub max: u64,
}

/// Nearest-rank percentile over a pre-sorted sample vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A point-in-time view of the registry, served on `/stats` and folded
/// into `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests answered.
    pub served: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Generations skipped as unreadable during rescans.
    pub skipped_generations: u64,
    /// Successful hot swaps since startup.
    pub swapped_generations: u64,
    /// Per-(generation, traffic) accuracy counters.
    pub generations: Vec<GenerationClassStats>,
    /// Request latency percentiles (wall-clock).
    pub latency_us: LatencySummary,
    /// Batch fullness.
    pub batch_occupancy: OccupancySummary,
}

impl StatsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), served on `GET /metrics`.
    ///
    /// Counters mirror the JSON `/stats` fields one-to-one; the
    /// per-(generation, traffic) cells become labeled series so a
    /// scraper can graph clean-vs-adversarial accuracy across hot
    /// swaps without parsing JSON. Latency quantiles are exported as a
    /// pre-aggregated `summary` — they are wall-clock numbers and stay
    /// out of the logical trace stream just like the JSON form.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter("simpadv_serve_requests_total", "Requests answered.", self.served);
        counter(
            "simpadv_serve_rejected_total",
            "Requests shed by queue backpressure.",
            self.rejected,
        );
        counter(
            "simpadv_serve_skipped_generations_total",
            "Checkpoint generations skipped as unreadable.",
            self.skipped_generations,
        );
        counter(
            "simpadv_serve_swapped_generations_total",
            "Successful checkpoint hot swaps.",
            self.swapped_generations,
        );

        for (name, help, pick) in [
            (
                "simpadv_serve_generation_requests_total",
                "Requests answered per (generation, traffic) cell.",
                &(|g: &GenerationClassStats| g.requests) as &dyn Fn(&GenerationClassStats) -> u64,
            ),
            (
                "simpadv_serve_generation_labeled_total",
                "Labeled requests per (generation, traffic) cell.",
                &|g: &GenerationClassStats| g.labeled,
            ),
            (
                "simpadv_serve_generation_correct_total",
                "Correctly predicted labeled requests per (generation, traffic) cell.",
                &|g: &GenerationClassStats| g.correct,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for g in &self.generations {
                let _ = writeln!(
                    out,
                    "{name}{{generation=\"{}\",traffic=\"{}\"}} {}",
                    g.generation,
                    g.traffic,
                    pick(g)
                );
            }
        }

        let lat = &self.latency_us;
        let _ = writeln!(
            out,
            "# HELP simpadv_serve_latency_us Request latency, microseconds (wall-clock)."
        );
        let _ = writeln!(out, "# TYPE simpadv_serve_latency_us summary");
        for (q, v) in [("0.5", lat.p50_us), ("0.9", lat.p90_us), ("0.99", lat.p99_us)] {
            let _ = writeln!(out, "simpadv_serve_latency_us{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "simpadv_serve_latency_us_count {}", lat.count);
        let _ = writeln!(
            out,
            "# HELP simpadv_serve_latency_us_max Worst observed request latency, microseconds."
        );
        let _ = writeln!(out, "# TYPE simpadv_serve_latency_us_max gauge");
        let _ = writeln!(out, "simpadv_serve_latency_us_max {}", lat.max_us);

        let occ = &self.batch_occupancy;
        let _ = writeln!(out, "# HELP simpadv_serve_batches_total Batches dispatched.");
        let _ = writeln!(out, "# TYPE simpadv_serve_batches_total counter");
        let _ = writeln!(out, "simpadv_serve_batches_total {}", occ.batches);
        let _ = writeln!(
            out,
            "# HELP simpadv_serve_batch_occupancy_mean Mean requests per dispatched batch."
        );
        let _ = writeln!(out, "# TYPE simpadv_serve_batch_occupancy_mean gauge");
        let _ = writeln!(out, "simpadv_serve_batch_occupancy_mean {}", occ.mean);
        let _ = writeln!(out, "# HELP simpadv_serve_batch_occupancy_max Largest batch dispatched.");
        let _ = writeln!(out, "# TYPE simpadv_serve_batch_occupancy_max gauge");
        let _ = writeln!(out, "simpadv_serve_batch_occupancy_max {}", occ.max);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_hit_known_ranks() {
        let reg = StatsRegistry::new();
        for latency in (1..=100).rev() {
            reg.record_request(1, false, None, 0, latency);
        }
        let s = reg.snapshot().latency_us;
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 51);
        assert_eq!(s.p90_us, 90);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
    }

    #[test]
    fn past_the_window_count_and_max_cover_the_lifetime_and_percentiles_the_newest() {
        let reg = StatsRegistry::new();
        // a slow start the window has since forgotten
        for _ in 0..1000 {
            reg.record_request(1, false, None, 0, 1_000_000);
        }
        for _ in 0..LATENCY_WINDOW {
            reg.record_request(1, false, None, 0, 7);
        }
        let s = reg.snapshot().latency_us;
        assert_eq!(s.count, LATENCY_WINDOW as u64 + 1000);
        assert_eq!(s.max_us, 1_000_000);
        assert_eq!((s.p50_us, s.p90_us, s.p99_us), (7, 7, 7));
        assert_eq!(lock(&reg.inner).latencies_us.len(), LATENCY_WINDOW);
    }

    #[test]
    fn occupancy_keeps_batches_mean_and_max() {
        let reg = StatsRegistry::new();
        for rows in [1, 4, 2] {
            reg.record_batch(rows);
        }
        let occ = reg.snapshot().batch_occupancy;
        assert_eq!((occ.batches, occ.mean, occ.max), (3, 7.0 / 3.0, 4));
    }

    #[test]
    fn empty_registry_snapshot_is_zeroed() {
        let s = StatsRegistry::new().snapshot();
        assert_eq!(s.served, 0);
        assert_eq!(s.latency_us.count, 0);
        assert_eq!(s.batch_occupancy.batches, 0);
        assert!(s.generations.is_empty());
    }

    #[test]
    fn per_generation_accuracy_buckets_split_by_traffic() {
        let reg = StatsRegistry::new();
        reg.record_request(3, false, Some(1), 1, 10);
        reg.record_request(3, false, Some(2), 1, 20);
        reg.record_request(3, true, Some(1), 1, 30);
        reg.record_request(4, true, None, 0, 40);
        let snap = reg.snapshot();
        assert_eq!(snap.served, 4);
        assert_eq!(snap.generations.len(), 3);
        let clean3 = &snap.generations[0];
        assert_eq!((clean3.generation, clean3.traffic.as_str()), (3, "clean"));
        assert_eq!((clean3.requests, clean3.labeled, clean3.correct), (2, 2, 1));
        let adv4 = &snap.generations[2];
        assert_eq!((adv4.generation, adv4.traffic.as_str()), (4, "adversarial"));
        assert_eq!((adv4.requests, adv4.labeled, adv4.correct), (1, 0, 0));
    }

    #[test]
    fn prometheus_exposition_lists_every_series() {
        let reg = StatsRegistry::new();
        reg.record_request(3, false, Some(1), 1, 10);
        reg.record_request(3, true, Some(2), 1, 30);
        reg.record_batch(2);
        reg.record_rejected();
        reg.record_swapped_generation();
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("simpadv_serve_requests_total 2"), "{text}");
        assert!(text.contains("simpadv_serve_rejected_total 1"), "{text}");
        assert!(text.contains("simpadv_serve_swapped_generations_total 1"), "{text}");
        assert!(
            text.contains(
                "simpadv_serve_generation_requests_total{generation=\"3\",traffic=\"clean\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "simpadv_serve_generation_correct_total{generation=\"3\",traffic=\"adversarial\"} 0"
            ),
            "{text}"
        );
        assert!(text.contains("simpadv_serve_latency_us{quantile=\"0.99\"} 30"), "{text}");
        assert!(text.contains("simpadv_serve_latency_us_count 2"), "{text}");
        assert!(text.contains("simpadv_serve_batches_total 1"), "{text}");
        assert!(text.contains("simpadv_serve_batch_occupancy_mean 2"), "{text}");
        // Every non-comment line is `name[{labels}] value` — the 0.0.4
        // text format a scraper expects.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed series line: {line}");
        }
    }

    #[test]
    fn empty_snapshot_renders_valid_exposition() {
        let text = StatsRegistry::new().snapshot().to_prometheus();
        assert!(text.contains("simpadv_serve_requests_total 0"), "{text}");
        assert!(text.contains("# TYPE simpadv_serve_latency_us summary"), "{text}");
        assert!(!text.contains("generation=\""), "no per-generation series yet: {text}");
    }

    #[test]
    fn serde_round_trip_preserves_snapshot() {
        let reg = StatsRegistry::new();
        reg.record_request(1, true, Some(0), 0, 5);
        reg.record_batch(1);
        let snap = reg.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);
    }
}
