//! `BENCH_<experiment>.json` schema v2: one artifact type, one parser
//! and one comparison for every producer (the regeneration binaries'
//! `--baseline` mode, the kernel lab, the serve load generator and the
//! campaign aggregate).
//!
//! An artifact has three sections of different weight:
//!
//! * `rows` — **logical**: row id → field → value. Every value is a pure
//!   function of the workload and the seeds, so it must reproduce bit for
//!   bit on any machine at any `--threads`; [`compare`] fails on any
//!   difference, including a missing or extra row or field.
//! * `warn` — **warn-only**, same shape: wall per epoch or per iteration,
//!   thread conditions, repeat identity, serve throughput and rejections,
//!   sweep retries and quarantine causes. [`compare`] warns when a number
//!   drifts beyond the wall threshold and when any other value differs.
//! * `meta` — free-form and never compared: the wall caveat, wall
//!   min/max spreads, latency percentiles, attempt counts.
//!
//! The scale and the trace's `{events, digest}` are rows like any other.
//! Two artifacts of different `experiment` tags simply fail to match.

use crate::error::ObsError;
use serde::{Serialize, Value};
use simpadv_trace::Event;
use std::collections::BTreeMap;

/// Artifact schema version; bump on any layout change.
pub const SCHEMA_VERSION: u64 = 2;

/// Default `--wall-threshold`: warn-only numbers drifting by more than
/// this percentage are annotated.
pub const DEFAULT_WALL_THRESHOLD_PCT: f64 = 25.0;

/// The wall-clock caveat every producer records in `meta` (the reference
/// container pins the workspace to a single CPU, so wall numbers are
/// indicative only — see DESIGN.md §4 on the measurement environment).
pub const WALL_NOTE: &str = "wall statistics are machine-dependent; the reference container \
     runs on 1 CPU, so gate on the logical counters and treat wall numbers as indicative";

/// One row: field name → value.
pub type Fields = BTreeMap<String, Value>;

/// One section: row id → fields.
pub type Rows = BTreeMap<String, Fields>;

/// A `BENCH_<experiment>.json` artifact. Keyed maps make a duplicated
/// row id or field name unrepresentable; [`parse_artifact`] rejects a
/// file that spells one.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Always [`SCHEMA_VERSION`] when built here.
    pub schema_version: u64,
    /// Experiment tag (`table1`, `kernels`, `serve`, `sweep`, ...).
    pub experiment: String,
    /// Logical rows: any difference is a regression.
    pub rows: Rows,
    /// Warn-only rows: differences are annotated, never failed.
    pub warn: Rows,
    /// Free-form run record, never compared.
    pub meta: Fields,
}

impl Artifact {
    /// An empty artifact for `experiment`, carrying [`WALL_NOTE`].
    pub fn new(experiment: &str) -> Artifact {
        let mut artifact = Artifact {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            rows: Rows::new(),
            warn: Rows::new(),
            meta: Fields::new(),
        };
        artifact.set_meta("note", WALL_NOTE);
        artifact
    }

    /// Sets a logical field.
    pub fn set(&mut self, row: &str, field: &str, value: impl Serialize) {
        self.rows.entry(row.to_string()).or_default().insert(field.to_string(), value.to_value());
    }

    /// Sets a warn-only field.
    pub fn set_warn(&mut self, row: &str, field: &str, value: impl Serialize) {
        self.warn.entry(row.to_string()).or_default().insert(field.to_string(), value.to_value());
    }

    /// Records a free-form `meta` entry.
    pub fn set_meta(&mut self, key: &str, value: impl Serialize) {
        self.meta.insert(key.to_string(), value.to_value());
    }

    /// Sets the `trace` row: the event count and [`logical_digest`].
    pub fn set_trace(&mut self, events: &[Event]) {
        self.set("trace", "events", events.len() as u64);
        self.set("trace", "digest", logical_digest(events));
    }
}

fn object(fields: &Fields) -> Value {
    Value::Object(fields.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
}

fn section(rows: &Rows) -> Value {
    Value::Object(rows.iter().map(|(id, fields)| (id.clone(), object(fields))).collect())
}

impl Serialize for Artifact {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema_version".to_string(), Value::U64(self.schema_version)),
            ("experiment".to_string(), Value::String(self.experiment.clone())),
            ("rows".to_string(), section(&self.rows)),
            ("warn".to_string(), section(&self.warn)),
            ("meta".to_string(), object(&self.meta)),
        ])
    }
}

/// FNV-1a (64-bit) over the JSONL rendering of every event's logical
/// projection ([`Event::without_meta`]), newline-separated. Stable
/// across machines and thread counts whenever the logical stream is.
pub fn logical_digest(events: &[Event]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for ev in events {
        for byte in ev.without_meta().to_json_line().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    format!("{h:016x}")
}

/// Parses a `BENCH_*.json` artifact with truncation-aware errors — the
/// artifact-file sibling of [`crate::read_events`]'s torn-tail handling.
///
/// A text that is a strict *prefix* of valid JSON (structure still open
/// at end of input, or the file is empty) is the signature of a writer
/// killed between write and rename, and maps to
/// [`ObsError::TruncatedArtifact`]. A repeated key in the top level, a
/// section or a row is [`ObsError::DuplicateKey`]: a file could
/// otherwise hide a wrong row behind a right one. Any other failure is
/// [`ObsError::Parse`] at the line where parsing stopped making sense.
///
/// # Errors
///
/// [`ObsError::TruncatedArtifact`], [`ObsError::DuplicateKey`] or
/// [`ObsError::Parse`] as above.
pub fn parse_artifact(text: &str) -> Result<Artifact, ObsError> {
    let value: Value = serde_json::from_str(text).map_err(|e| {
        let message = e.to_string();
        if looks_truncated(text) {
            ObsError::TruncatedArtifact { message }
        } else {
            ObsError::Parse { line: line_of_failure(text, &message), message }
        }
    })?;
    let top = fields_of(&value, "the artifact")?;
    let field = |name: &str| {
        let missing = || malformed(format!("missing `{name}`: not a schema v2 artifact"));
        top.get(name).ok_or_else(missing)
    };
    let (Value::U64(schema_version), Value::String(experiment)) =
        (field("schema_version")?, field("experiment")?)
    else {
        return Err(malformed("`schema_version` must be an integer, `experiment` a string"));
    };
    let rows_of = |name: &str| -> Result<Rows, ObsError> {
        let mut rows = Rows::new();
        for (id, fields) in fields_of(field(name)?, &format!("section `{name}`"))? {
            let row = fields_of(&fields, &format!("row '{id}' of `{name}`"))?;
            rows.insert(id, row);
        }
        Ok(rows)
    };
    Ok(Artifact {
        schema_version: *schema_version,
        experiment: experiment.clone(),
        rows: rows_of("rows")?,
        warn: rows_of("warn")?,
        meta: fields_of(field("meta")?, "`meta`")?,
    })
}

fn malformed(message: impl Into<String>) -> ObsError {
    ObsError::Parse { line: 1, message: message.into() }
}

/// The entries of a JSON object, refusing a repeated key.
fn fields_of(value: &Value, within: &str) -> Result<Fields, ObsError> {
    let Value::Object(entries) = value else {
        return Err(malformed(format!("{within} must be an object")));
    };
    let mut fields = Fields::new();
    for (key, v) in entries {
        if fields.insert(key.clone(), v.clone()).is_some() {
            return Err(ObsError::DuplicateKey { within: within.to_string(), key: key.clone() });
        }
    }
    Ok(fields)
}

/// Whether `text` could be the prefix of a valid JSON document: input
/// ran out with a string or bracket structure still open, or before any
/// value at all. A mismatched closer or trailing garbage means corrupt,
/// not truncated.
fn looks_truncated(text: &str) -> bool {
    let mut stack: Vec<u8> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for &b in text.as_bytes() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => stack.push(b),
            // the guard pops unconditionally: a matching closer falls
            // through to the no-op arm with its bracket consumed
            b'}' if stack.pop() != Some(b'{') => return false,
            b']' if stack.pop() != Some(b'[') => return false,
            _ => {}
        }
    }
    in_string || !stack.is_empty() || text.trim().is_empty()
}

/// Best-effort line number for a parse failure: the shim reports `at
/// byte N`, which this converts to a 1-based line.
fn line_of_failure(text: &str, message: &str) -> usize {
    let byte = message
        .rsplit_once("at byte ")
        .and_then(|(_, n)| n.trim().parse::<usize>().ok())
        .unwrap_or(0);
    1 + text.as_bytes().iter().take(byte).filter(|b| **b == b'\n').count()
}

/// The perf gate's verdict: hard logical regressions vs advisory drift.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// Logical mismatches — any entry fails the gate.
    pub regressions: Vec<String>,
    /// Advisory annotations from the warn-only section.
    pub warnings: Vec<String>,
}

impl CompareReport {
    /// Whether the candidate passes the gate.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the report as `bench compare` prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            out.push_str("logical content: matches the baseline\n");
        } else {
            out.push_str(&format!("logical regressions: {}\n", self.regressions.len()));
            for r in &self.regressions {
                out.push_str(&format!("  FAIL {r}\n"));
            }
        }
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        out
    }
}

/// Compares a candidate artifact against a baseline.
///
/// A differing schema version or experiment tag, and any difference in
/// `rows` — a value (floats by bits), a missing or extra row, a missing
/// or extra field — is a regression. In `warn`, a number drifting by
/// more than `wall_threshold_pct` percent (any change from zero counts)
/// and any other differing, missing or extra value is a warning.
/// `meta` is never read.
pub fn compare(
    baseline: &Artifact,
    candidate: &Artifact,
    wall_threshold_pct: f64,
) -> CompareReport {
    let mut report = CompareReport::default();
    if baseline.schema_version != candidate.schema_version {
        report.regressions.push(format!(
            "schema version {} vs {}",
            baseline.schema_version, candidate.schema_version
        ));
    }
    if baseline.experiment != candidate.experiment {
        report
            .regressions
            .push(format!("experiment '{}' vs '{}'", baseline.experiment, candidate.experiment));
    }
    diff_rows(&baseline.rows, &candidate.rows, &mut report.regressions, |b, c| {
        (!same(b, c)).then(|| format!("{} -> {}", show(b), show(c)))
    });
    diff_rows(&baseline.warn, &candidate.warn, &mut report.warnings, |b, c| {
        match (as_f64(b), as_f64(c)) {
            (Some(x), Some(y)) => {
                let pct = if x == y { 0.0 } else { (y - x).abs() / x.abs() * 100.0 };
                let sign = if y >= x { "+" } else { "-" };
                (pct > wall_threshold_pct).then(|| format!("{x} -> {y} ({sign}{pct:.0}%)"))
            }
            _ => (!same(b, c)).then(|| format!("{} -> {}", show(b), show(c))),
        }
    });
    report
}

/// Walks two sections row by row and field by field, pushing one line
/// per missing or extra entry and per pair `differs` describes.
fn diff_rows(
    base: &Rows,
    cand: &Rows,
    out: &mut Vec<String>,
    differs: impl Fn(&Value, &Value) -> Option<String>,
) {
    for (id, b) in base {
        let Some(c) = cand.get(id) else {
            out.push(format!("row '{id}' missing from candidate"));
            continue;
        };
        for (field, bv) in b {
            match c.get(field) {
                None => out.push(format!("row '{id}' field '{field}' missing from candidate")),
                Some(cv) => {
                    if let Some(what) = differs(bv, cv) {
                        out.push(format!("row '{id}' field '{field}': {what}"));
                    }
                }
            }
        }
        for field in c.keys().filter(|f| !b.contains_key(*f)) {
            out.push(format!("row '{id}' field '{field}' absent from baseline"));
        }
    }
    for id in cand.keys().filter(|id| !base.contains_key(*id)) {
        out.push(format!("row '{id}' absent from baseline"));
    }
}

/// Exact equality, floats compared by bits.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
        }
        _ => a == b,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn show(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_trace::{EventKind, FieldValue};

    fn events(flops: u64) -> Vec<Event> {
        let close = |seq, path: &str| Event {
            seq,
            kind: EventKind::SpanClose,
            path: path.into(),
            fields: vec![("flops".into(), FieldValue::U64(flops))],
            meta: vec![("wall_us".into(), FieldValue::U64(seq * 1000))],
            ctx: None,
        };
        let open = |seq, path: &str| Event { kind: EventKind::SpanOpen, ..close(seq, path) };
        vec![open(0, "train"), open(1, "train/epoch"), close(2, "train/epoch"), close(3, "train")]
    }

    fn table1() -> Artifact {
        let mut a = Artifact::new("table1");
        for (field, v) in [("train_samples", 200u64), ("test_samples", 100), ("epochs", 6)] {
            a.set("scale", field, v);
        }
        for (field, v) in
            [("runs", 2u64), ("epochs", 12), ("forward", 204), ("flops", 2_195_251_200)]
        {
            a.set("trainer/proposed", field, v);
        }
        a.set("accuracy/mnist/Proposed", "original", 0.9900000095367432);
        a.set("accuracy/mnist/Proposed", "fgsm", 0.0);
        a.set_trace(&events(100));
        a.set_warn("run", "threads", 1u64);
        a.set_warn("run", "repeats_logically_identical", true);
        a.set_warn("run", "wall_per_epoch_s", 0.166);
        a.set_meta("repeat", 1u64);
        a
    }

    fn kernels() -> Artifact {
        let mut a = Artifact::new("kernels");
        a.set("matmul/64x784x128", "group", "matmul");
        a.set("matmul/64x784x128", "shape", vec![64u64, 784, 128]);
        a.set("matmul/64x784x128", "flops", 6_422_528u64);
        a.set("matmul/64x784x128", "bytes", 634_880u64);
        a.set_trace(&events(7));
        a.set_warn("run", "threads", 1u64);
        a.set_warn("matmul/64x784x128", "wall_per_iter_s", 1e-4);
        a
    }

    fn serve() -> Artifact {
        let mut a = Artifact::new("serve");
        a.set("scale", "attack", "pgd");
        a.set("server", "served", 100u64);
        for (traffic, requests, correct) in [("clean", 90u64, 81u64), ("adversarial", 10, 6)] {
            a.set(&format!("generation/1/{traffic}"), "requests", requests);
            a.set(&format!("generation/1/{traffic}"), "correct", correct);
        }
        a.set_warn("run", "throughput_rps", 66.7);
        a.set_warn("run", "rejected", 0u64);
        a.set_meta("latency_p99_us", 5_000u64);
        a
    }

    fn sweep() -> Artifact {
        let mut a = Artifact::new("sweep");
        a.set("campaign", "completed", 1u64);
        a.set("cell/c002-proposed-e300m-s32-t1", "final_loss", 1.1);
        a.set("cell/c002-proposed-e300m-s32-t1", "accuracies", vec![0.88, 0.7]);
        a.set("quarantine/c003-proposed-e300m-s32-t2", "method", "proposed");
        a.set_warn("quarantine/c003-proposed-e300m-s32-t2", "cause", "exited with code 3");
        a.set_warn("run", "retries_spent", 0u64);
        a.set_meta("attempts_total", 7u64);
        a
    }

    /// A gate scenario: the baseline, the mutation that makes the
    /// candidate, and lines the rendered verdict must contain. The gate
    /// must fail exactly when one of them is a `FAIL` line and warn
    /// exactly when one of them is a `warning:` line.
    type Case = (&'static str, fn() -> Artifact, fn(&mut Artifact), &'static [&'static str]);

    const CASES: &[Case] = &[
        ("self table1", table1, |_| {}, &[]),
        ("self kernels", kernels, |_| {}, &[]),
        ("self serve", serve, |_| {}, &[]),
        ("self sweep", sweep, |_| {}, &[]),
        (
            "trainer flops+1",
            table1,
            |a| a.set("trainer/proposed", "flops", 2_195_251_201u64),
            &["FAIL row 'trainer/proposed' field 'flops': 2195251200 -> 2195251201"],
        ),
        (
            "kernel flops+1",
            kernels,
            |a| a.set("matmul/64x784x128", "flops", 6_422_529u64),
            &["FAIL row 'matmul/64x784x128' field 'flops': 6422528 -> 6422529"],
        ),
        (
            "serve correct count",
            serve,
            |a| a.set("generation/1/adversarial", "correct", 2u64),
            &["FAIL row 'generation/1/adversarial' field 'correct': 6 -> 2"],
        ),
        (
            "sweep cell accuracy",
            sweep,
            |a| a.set("cell/c002-proposed-e300m-s32-t1", "accuracies", vec![0.88, 0.2]),
            &["FAIL row 'cell/c002-proposed-e300m-s32-t1' field 'accuracies': [0.88,0.7] -> "],
        ),
        (
            "accuracy by bits",
            table1,
            |a| a.set("accuracy/mnist/Proposed", "fgsm", -0.0),
            &["FAIL row 'accuracy/mnist/Proposed' field 'fgsm': 0.0 -> -0.0"],
        ),
        (
            "event count and digest",
            table1,
            |a| a.set_trace(&events(101)[1..]),
            &["FAIL row 'trace' field 'events': 4 -> 3", "FAIL row 'trace' field 'digest'"],
        ),
        (
            "missing and extra row",
            table1,
            |a| {
                a.rows.remove("trainer/proposed");
                a.set("trainer/atda", "runs", 2u64);
            },
            &[
                "FAIL row 'trainer/proposed' missing from candidate",
                "FAIL row 'trainer/atda' absent from baseline",
            ],
        ),
        (
            "missing and extra field",
            kernels,
            |a| {
                let row = a.rows.get_mut("matmul/64x784x128").expect("fixture row");
                row.remove("bytes");
                row.insert("forward".into(), Value::U64(0));
            },
            &[
                "FAIL row 'matmul/64x784x128' field 'bytes' missing from candidate",
                "FAIL row 'matmul/64x784x128' field 'forward' absent from baseline",
            ],
        ),
        (
            "schema and experiment mismatch",
            table1,
            |a| {
                a.schema_version = 1;
                a.experiment = "fig1".into();
            },
            &["FAIL schema version 2 vs 1", "FAIL experiment 'table1' vs 'fig1'"],
        ),
        (
            "kernels vs table1",
            kernels,
            |a| *a = table1(),
            &[
                "FAIL experiment 'kernels' vs 'table1'",
                "FAIL row 'matmul/64x784x128' missing from candidate",
                "warning: row 'run' field 'wall_per_epoch_s' absent from baseline",
            ],
        ),
        (
            "quarantined id set changes",
            sweep,
            |a| {
                a.rows.remove("quarantine/c003-proposed-e300m-s32-t2");
                a.set("quarantine/c001-vanilla-e300m-s32-t2", "method", "vanilla");
            },
            &[
                "FAIL row 'quarantine/c003-proposed-e300m-s32-t2' missing from candidate",
                "FAIL row 'quarantine/c001-vanilla-e300m-s32-t2' absent from baseline",
            ],
        ),
        (
            "wall per epoch and repeat identity warn",
            table1,
            |a| {
                a.set_warn("run", "wall_per_epoch_s", 0.332);
                a.set_warn("run", "repeats_logically_identical", false);
                a.set_meta("repeat", 5u64);
            },
            &[
                "warning: row 'run' field 'wall_per_epoch_s': 0.166 -> 0.332 (+100%)",
                "warning: row 'run' field 'repeats_logically_identical': true -> false",
            ],
        ),
        (
            "wall per iteration and threads warn",
            kernels,
            |a| {
                a.set_warn("matmul/64x784x128", "wall_per_iter_s", 3e-4);
                a.set_warn("run", "threads", 4u64);
            },
            &[
                "warning: row 'matmul/64x784x128' field 'wall_per_iter_s'",
                "warning: row 'run' field 'threads': 1 -> 4 (+300%)",
            ],
        ),
        (
            "serve throughput and rejections warn",
            serve,
            |a| {
                a.set_warn("run", "throughput_rps", 10.0);
                a.set_warn("run", "rejected", 3u64);
                a.set_meta("latency_p99_us", 500_000u64);
            },
            &[
                "warning: row 'run' field 'throughput_rps': 66.7 -> 10 (-85%)",
                "warning: row 'run' field 'rejected': 0 -> 3",
            ],
        ),
        (
            "sweep retries and quarantine cause warn",
            sweep,
            |a| {
                a.set_warn("run", "retries_spent", 3u64);
                a.set_warn("quarantine/c003-proposed-e300m-s32-t2", "cause", "killed by signal");
                a.set_meta("attempts_total", 10u64);
            },
            &[
                "warning: row 'run' field 'retries_spent': 0 -> 3",
                "field 'cause': \"exited with code 3\" -> \"killed by signal\"",
            ],
        ),
    ];

    #[test]
    fn the_gate_fails_logical_changes_and_warns_on_drift() {
        for (name, base, mutate, expect) in CASES {
            let base = base();
            let mut cand = base.clone();
            mutate(&mut cand);
            let report = compare(&base, &cand, DEFAULT_WALL_THRESHOLD_PCT);
            let text = report.render();
            let expects = |prefix| expect.iter().any(|line| line.starts_with(prefix));
            assert_eq!(report.passed(), !expects("FAIL "), "{name}:\n{text}");
            assert_eq!(report.warnings.is_empty(), !expects("warning: "), "{name}:\n{text}");
            for line in *expect {
                assert!(text.contains(line), "{name}: no `{line}` in\n{text}");
            }
        }
    }

    #[test]
    fn drift_within_the_threshold_is_silent() {
        let base = kernels();
        let mut cand = base.clone();
        cand.set_warn("matmul/64x784x128", "wall_per_iter_s", 1.2e-4);
        assert!(compare(&base, &cand, DEFAULT_WALL_THRESHOLD_PCT).warnings.is_empty());
        assert_eq!(compare(&base, &cand, 10.0).warnings.len(), 1);
    }

    #[test]
    fn json_round_trip_is_exact() {
        for artifact in [table1(), kernels(), serve(), sweep()] {
            let text = serde_json::to_string_pretty(&artifact).expect("serializable");
            assert_eq!(parse_artifact(&text).expect("own output parses"), artifact);
        }
    }

    #[test]
    fn truncated_artifacts_get_the_typed_error() {
        let full = serde_json::to_string_pretty(&sweep()).expect("serializable");
        // Every strict prefix that dies mid-structure is truncation,
        // not corruption (mirrors a writer killed mid-write).
        for cut in [full.len() - 2, full.len() / 2, 10, 1, 0] {
            let err = parse_artifact(&full[..cut]).unwrap_err();
            assert!(matches!(err, ObsError::TruncatedArtifact { .. }), "{cut} bytes: {err}");
        }
    }

    #[test]
    fn corrupt_artifacts_are_parse_errors_with_a_line() {
        // Balanced but invalid: a mismatched closer.
        let err = parse_artifact("{\"a\": ]}").unwrap_err();
        assert!(matches!(err, ObsError::Parse { .. }), "{err}");
        // Trailing garbage after a complete value.
        let err = parse_artifact("{}\ngarbage").unwrap_err();
        assert!(matches!(err, ObsError::Parse { line: 2, .. }), "{err}");
        // Valid JSON of the wrong shape, e.g. a schema v1 file.
        let err = parse_artifact(r#"{"schema_version": 1, "experiment": "x", "trainers": []}"#);
        assert!(matches!(err, Err(ObsError::Parse { .. })));
    }

    #[test]
    fn a_repeated_row_or_field_is_a_typed_error() {
        let text = serde_json::to_string_pretty(&kernels()).expect("serializable");
        // wrong copy first, right copy second: neither may win silently
        let row = "\"matmul/64x784x128\": {";
        let planted = text.replacen(row, &format!("{row}\"flops\": 1}},\n{row}"), 1);
        let err = parse_artifact(&planted).unwrap_err();
        assert!(
            matches!(&err, ObsError::DuplicateKey { key, .. } if key == "matmul/64x784x128"),
            "{err}"
        );
        let planted = text.replacen(row, &format!("{row}\"flops\": 1, "), 1);
        let err = parse_artifact(&planted).unwrap_err();
        assert!(matches!(&err, ObsError::DuplicateKey { key, .. } if key == "flops"), "{err}");
        let planted = text.replacen("\"warn\": {", "\"rows\": {},\n  \"warn\": {", 1);
        assert!(matches!(parse_artifact(&planted), Err(ObsError::DuplicateKey { .. })));
    }

    #[test]
    fn digest_ignores_meta_but_tracks_logical_change() {
        let a = events(100);
        let mut wall_shift = a.clone();
        wall_shift[3].meta = vec![("wall_us".into(), FieldValue::U64(9))];
        assert_eq!(logical_digest(&a), logical_digest(&wall_shift));
        assert_ne!(logical_digest(&a), logical_digest(&events(101)));
    }
}
