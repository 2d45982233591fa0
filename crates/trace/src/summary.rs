//! Folding trace events into per-span aggregate timings — the engine
//! behind the CLI's `trace summarize` subcommand.
//!
//! Parsing is not done here: `simpadv_obs::read_events` is the one
//! strict JSONL reader, and its error names the offending line and tells
//! a torn final line from a bad interior one. [`Summary::fold`] then
//! takes the parsed events one at a time.

use crate::event::{Event, EventKind, FieldValue};
use std::collections::BTreeMap;

/// Aggregate statistics for one span path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanAggregate {
    /// Completed spans at this path.
    pub count: u64,
    /// Total wall microseconds across closes (from `meta.wall_us`).
    pub wall_us_total: u64,
    /// Largest single close.
    pub wall_us_max: u64,
    /// Total logical forward passes.
    pub forward: u64,
    /// Total logical backward passes.
    pub backward: u64,
    /// Total flops proxy.
    pub flops: u64,
    /// Total attack steps.
    pub attack_steps: u64,
}

impl SpanAggregate {
    /// Mean wall microseconds per close (0 when empty).
    pub fn wall_us_mean(&self) -> u64 {
        self.wall_us_total.checked_div(self.count).unwrap_or(0)
    }
}

/// Everything `trace summarize` reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Total events parsed.
    pub events: u64,
    /// Per-span aggregates keyed by span path.
    pub spans: BTreeMap<String, SpanAggregate>,
    /// Counter totals keyed by path (sum of `fields.value`).
    pub counters: BTreeMap<String, u64>,
    /// Gauge observation counts and last values keyed by path.
    pub gauges: BTreeMap<String, (u64, f64)>,
    /// Histogram flushes: observation count and sum keyed by path.
    pub histograms: BTreeMap<String, (u64, f64)>,
}

fn field_u64(event: &Event, key: &str) -> u64 {
    event
        .fields
        .iter()
        .chain(&event.meta)
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::U64(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

fn field_f64(event: &Event, key: &str) -> Option<f64> {
    event.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        FieldValue::F64(n) => Some(*n),
        FieldValue::U64(n) => Some(*n as f64),
        _ => None,
    })
}

impl Summary {
    /// Folds one event into the aggregates.
    pub fn fold(&mut self, event: &Event) {
        self.events += 1;
        match event.kind {
            EventKind::SpanOpen => {}
            EventKind::SpanClose => {
                let agg = self.spans.entry(event.path.clone()).or_default();
                agg.count += 1;
                let wall = field_u64(event, "wall_us");
                agg.wall_us_total += wall;
                agg.wall_us_max = agg.wall_us_max.max(wall);
                agg.forward += field_u64(event, "forward");
                agg.backward += field_u64(event, "backward");
                agg.flops += field_u64(event, "flops");
                agg.attack_steps += field_u64(event, "attack_steps");
            }
            EventKind::Counter => {
                *self.counters.entry(event.path.clone()).or_insert(0) += field_u64(event, "value");
            }
            EventKind::Gauge => {
                let entry = self.gauges.entry(event.path.clone()).or_insert((0, 0.0));
                entry.0 += 1;
                if let Some(v) = field_f64(event, "value") {
                    entry.1 = v;
                }
            }
            EventKind::Histogram => {
                let count = field_u64(event, "count");
                let sum = field_f64(event, "sum").unwrap_or(0.0);
                let entry = self.histograms.entry(event.path.clone()).or_insert((0, 0.0));
                entry.0 += count;
                entry.1 += sum;
            }
        }
    }

    /// Renders the per-span aggregate table (plus counter/gauge/histogram
    /// sections when present) as the CLI prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} events\n\n", self.events));
        out.push_str(&format!(
            "{:<40} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10}\n",
            "span", "count", "total_ms", "mean_ms", "max_ms", "forward", "backward"
        ));
        for (path, agg) in &self.spans {
            out.push_str(&format!(
                "{:<40} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>10} {:>10}\n",
                path,
                agg.count,
                agg.wall_us_total as f64 / 1e3,
                agg.wall_us_mean() as f64 / 1e3,
                agg.wall_us_max as f64 / 1e3,
                agg.forward,
                agg.backward,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (path, total) in &self.counters {
                out.push_str(&format!("  {path} = {total}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges (observations, last value)\n");
            for (path, (n, last)) in &self.gauges {
                out.push_str(&format!("  {path}: {n} obs, last {last:.6}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\nhistograms (count, sum)\n");
            for (path, (n, sum)) in &self.histograms {
                out.push_str(&format!("  {path}: {n} obs, sum {sum:.6}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, kind: EventKind, path: &str, fields: &[(&str, FieldValue)]) -> Event {
        let meta = if kind == EventKind::SpanClose {
            vec![("wall_us".to_string(), FieldValue::U64(1000 * (seq + 1)))]
        } else {
            Vec::new()
        };
        Event {
            seq,
            kind,
            path: path.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            meta,
            ctx: None,
        }
    }

    #[test]
    fn folds_span_closes_into_aggregates() {
        let events = [
            event(0, EventKind::SpanOpen, "train", &[]),
            event(1, EventKind::SpanClose, "train/epoch", &[("forward", FieldValue::U64(4))]),
            event(2, EventKind::SpanClose, "train/epoch", &[("forward", FieldValue::U64(6))]),
            event(3, EventKind::Counter, "train/reset", &[("value", FieldValue::U64(1))]),
            event(4, EventKind::Gauge, "eval/accuracy", &[("value", FieldValue::F64(0.75))]),
            event(
                5,
                EventKind::Histogram,
                "loss",
                &[("count", FieldValue::U64(3)), ("sum", FieldValue::F64(1.5))],
            ),
        ];
        let mut s = Summary::default();
        for e in &events {
            s.fold(e);
        }
        assert_eq!(s.events, 6);
        let agg = &s.spans["train/epoch"];
        assert_eq!(agg.count, 2);
        assert_eq!(agg.forward, 10);
        assert_eq!(agg.wall_us_total, 2000 + 3000);
        assert_eq!(agg.wall_us_max, 3000);
        assert_eq!(agg.wall_us_mean(), 2500);
        assert_eq!(s.counters["train/reset"], 1);
        assert_eq!(s.gauges["eval/accuracy"], (1, 0.75));
        assert_eq!(s.histograms["loss"], (3, 1.5));
        let table = s.render();
        assert!(table.contains("train/epoch"));
        assert!(table.contains("eval/accuracy"));
    }
}
