//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads:
//!
//! * `train-proposed` — the paper's single-step method;
//! * `train-bim10` — the BIM(10)-Adv iterative baseline;
//! * `serve-closed` — the repository's closed-loop serve traffic against
//!   the inference server.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones ([`END_TO_END`]); with `--trace 1` the run
//! attributes its time to layers and prints [`PER_LAYER`] instead.
//! See `perfbench/README.md` for what each metric means.

mod host;
mod layers;
mod serve;
mod stats;
mod train;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metric names and units, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 4] =
    [("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("robust_acc", "fraction"), ("setup_s", "s")];

/// Per-layer metric names and units, printed by every `--trace 1` run; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("layer0_dense.train_fwd_ms", "ms"),
    ("layer0_dense.train_bwd_ms", "ms"),
    ("layer0_dense.attack_fwd_ms", "ms"),
    ("layer0_dense.attack_bwd_ms", "ms"),
    ("layer1_relu.train_fwd_ms", "ms"),
    ("layer1_relu.train_bwd_ms", "ms"),
    ("layer1_relu.attack_fwd_ms", "ms"),
    ("layer1_relu.attack_bwd_ms", "ms"),
    ("layer2_dense.train_fwd_ms", "ms"),
    ("layer2_dense.train_bwd_ms", "ms"),
    ("layer2_dense.attack_fwd_ms", "ms"),
    ("layer2_dense.attack_bwd_ms", "ms"),
    ("train.other_ms", "ms"),
    ("train.attack_share", "fraction"),
    ("train.flops_per_epoch", "count"),
    ("train.passes_per_epoch", "count"),
    ("train.attack_steps_per_epoch", "count"),
    ("train.epoch_raw_p50_ms", "ms"),
    ("eval.robust_ms", "ms"),
    ("serve.forward_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.throughput_rps", "1/s"),
    ("serve.batch_size", "count"),
    ("serve.rejected", "count"),
    ("host.reference_ms", "ms"),
];

/// One measured value.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with a static name.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_string(), value, unit }
    }

    /// A metric with a computed name.
    pub fn owned(name: String, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a workload run reports.
pub struct Outcome {
    correct: bool,
    /// Operations attempted: epochs or requests.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Every [`END_TO_END`] metric.
    pub end_to_end: Vec<Metric>,
    /// The [`PER_LAYER`] metrics this workload exercises (traced runs).
    pub per_layer: Vec<Metric>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }
}

impl Outcome {
    /// Records a failed output check.
    pub fn fail_check(&mut self, why: &str) {
        eprintln!("check failed: {why}");
        self.correct = false;
    }
}

/// Runs `setup` `repeats` times and returns the last result with the
/// median duration in seconds. With `normalise`, the median is scaled by
/// the median of host references taken just before each repeat (see
/// [`host`]). Earlier results are dropped before the next repeat starts.
pub fn timed_setup<T>(repeats: usize, normalise: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let (mut times, mut references) = (Vec::with_capacity(repeats), Vec::with_capacity(repeats));
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        if normalise {
            references.push(host::reference_ms());
        }
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    let scale = if normalise { host::normaliser(stats::median(&references)) } else { 1.0 };
    (last.expect("at least one set-up"), stats::median(&times) * scale)
}

/// Scratch space for the run, inside the working directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload train-proposed|train-bim10|serve-closed \
--seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => parsed.seconds = s,
                _ => return Err("--seconds needs a positive number".to_string()),
            },
            "--trace" => match value.as_str() {
                "0" => parsed.trace = false,
                "1" => parsed.trace = true,
                _ => return Err("--trace needs 0 or 1".to_string()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// The result line: `metrics` holds exactly the names in `names`, taking
/// each value from `measured` (0 where the workload has no such layer).
fn result_json(outcome: &Outcome, names: &[(&str, &str)], measured: &[Metric]) -> String {
    for m in measured {
        assert!(names.iter().any(|(n, _)| *n == m.name), "metric {} is not declared", m.name);
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let found = measured.iter().find(|m| m.name == *name);
        let value = found.map_or(0.0, |m| m.value);
        assert!(value.is_finite(), "metric {name} is not finite");
        if let Some(m) = found {
            assert_eq!(m.unit, *unit, "metric {name} unit");
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: results and timings then do not depend on how
    // many cores the machine lends the run.
    simpadv_runtime::set_global_threads(1);
    let outcome = match args.workload.as_str() {
        "train-proposed" => train::run(&train::PROPOSED, args.seed, args.seconds, args.trace),
        "train-bim10" => train::run(&train::BIM10, args.seed, args.seconds, args.trace),
        "serve-closed" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(work_dir());
    let line = if args.trace {
        result_json(&outcome, &PER_LAYER, &outcome.per_layer)
    } else {
        result_json(&outcome, &END_TO_END, &outcome.end_to_end)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
