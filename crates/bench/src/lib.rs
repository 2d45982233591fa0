//! # simpadv-bench
//!
//! Benchmark and regeneration harness for the `simpadv` reproduction.
//!
//! * **Regeneration binaries** — one per paper exhibit:
//!   `cargo run --release -p simpadv-bench --bin fig1` (and `fig2`,
//!   `table1`). Each prints the paper-shaped series/rows and writes a JSON
//!   artifact next to the repository's `results/` directory. Pass `--full`
//!   for the larger workload, `--smoke` for a seconds-scale sanity run,
//!   and `--trace FILE` to capture a structured event trace of the run
//!   (summarize it with `simpadv-cli trace summarize FILE`).
//! * **Benchmark artifacts** — `--baseline` makes a regeneration binary
//!   write `BENCH_<experiment>.json` (per-trainer clock counters and
//!   accuracies, see [`baseline`]); the [`kernels`] lab writes
//!   `BENCH_kernels.json`, every hot kernel at the shapes the
//!   experiments run; the `serve` binary writes `BENCH_serve.json`. All
//!   three emit the one schema of `simpadv_obs::artifact`, gated by
//!   `simpadv-cli bench compare`.

use simpadv::experiments::ExperimentScale;
use simpadv_trace::TraceFormat;

pub mod baseline;
pub mod kernels;

/// Reads a just-written `BENCH_*.json` back through
/// `simpadv_obs::parse_artifact`, so a torn write (writer killed
/// mid-write, disk full) surfaces at the writer as the typed
/// `TruncatedArtifact` error — mirroring `simpadv_obs::read_events`'s
/// torn-tail handling — instead of as a failure in a later `bench
/// compare` against the committed baseline.
///
/// # Errors
///
/// The read-back I/O error, or the typed truncation/parse error from
/// `parse_artifact`, each prefixed with the artifact path.
pub fn verify_artifact(
    path: &std::path::Path,
) -> Result<simpadv_obs::Artifact, Box<dyn std::error::Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read back {}: {e}", path.display()))?;
    let artifact = simpadv_obs::parse_artifact(&text)
        .map_err(|e| format!("artifact {} failed read-back validation: {e}", path.display()))?;
    Ok(artifact)
}

/// Median/min/max over repeat wall measurements (seconds): the median
/// goes to an artifact's warn-only section, the spread to its `meta`.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct WallStats {
    /// Median across repeats.
    pub median_s: f64,
    /// Fastest repeat.
    pub min_s: f64,
    /// Slowest repeat.
    pub max_s: f64,
}

impl WallStats {
    /// Builds the stats from per-repeat samples (zeroes when empty).
    pub fn from_samples(samples: &[f64]) -> WallStats {
        if samples.is_empty() {
            return WallStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median_s =
            if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 };
        WallStats { median_s, min_s: sorted[0], max_s: sorted[sorted.len() - 1] }
    }
}

/// The common CLI of the regeneration binaries: workload scale, thread
/// override, trace destination, and crash-safe checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchOpts {
    /// Experiment workload (`--smoke` / `--quick` / `--full`).
    pub scale: ExperimentScale,
    /// `--threads N` override; `None` keeps the runtime default
    /// (`SIMPADV_THREADS`, else all cores). Results are bitwise identical
    /// either way — the flag only changes wall-clock.
    pub threads: Option<usize>,
    /// `--trace FILE` destination for the run's event trace.
    pub trace: Option<std::path::PathBuf>,
    /// `--trace-format jsonl|pretty` (default jsonl).
    pub trace_format: TraceFormat,
    /// `--checkpoint-dir DIR` root for training snapshots; every training
    /// run inside the binary gets its own numbered subdirectory (in call
    /// order, which is deterministic), so `--resume` after a crash pairs
    /// each run with its own checkpoints.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// `--checkpoint-every N` epochs between snapshots (default 1).
    pub checkpoint_every: usize,
    /// `--resume`: continue each training run from its newest valid
    /// snapshot; bitwise identical to an uninterrupted run.
    pub resume: bool,
    /// `--baseline`: run under an in-memory trace and emit a
    /// `BENCH_<experiment>.json` benchmark-baseline artifact at the
    /// repository root (see [`baseline`]).
    pub baseline: bool,
    /// `--repeat N` (default 1, baseline mode only): repetitions behind
    /// the artifact's wall median/min/max statistics.
    pub repeat: usize,
}

impl BenchOpts {
    /// Parses the shared flags of the regeneration binaries.
    ///
    /// Recognized: `--full`, `--smoke`, `--quick` (default: quick),
    /// `--threads N`, `--trace FILE`, `--trace-format jsonl|pretty`,
    /// `--checkpoint-dir DIR`, `--checkpoint-every N`, `--resume`,
    /// `--baseline` and `--repeat N`. Unknown flags or missing/invalid
    /// values abort with a usage message.
    pub fn from_args(args: &[String]) -> Self {
        let mut opts = BenchOpts {
            scale: ExperimentScale::quick(),
            threads: None,
            trace: None,
            trace_format: TraceFormat::Jsonl,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            baseline: false,
            repeat: 1,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => opts.scale = ExperimentScale::full(),
                "--smoke" => opts.scale = ExperimentScale::smoke(),
                "--quick" => opts.scale = ExperimentScale::quick(),
                "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => opts.threads = Some(n),
                    _ => {
                        eprintln!("--threads needs a positive integer value");
                        std::process::exit(2);
                    }
                },
                "--trace" => match it.next() {
                    Some(path) => opts.trace = Some(std::path::PathBuf::from(path)),
                    None => {
                        eprintln!("--trace needs a file path value");
                        std::process::exit(2);
                    }
                },
                "--trace-format" => match it.next().and_then(|v| TraceFormat::parse(v)) {
                    Some(f) => opts.trace_format = f,
                    None => {
                        eprintln!("--trace-format needs jsonl or pretty");
                        std::process::exit(2);
                    }
                },
                "--checkpoint-dir" => match it.next() {
                    Some(dir) => opts.checkpoint_dir = Some(std::path::PathBuf::from(dir)),
                    None => {
                        eprintln!("--checkpoint-dir needs a directory value");
                        std::process::exit(2);
                    }
                },
                "--checkpoint-every" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => opts.checkpoint_every = n,
                    _ => {
                        eprintln!("--checkpoint-every needs a positive integer value");
                        std::process::exit(2);
                    }
                },
                "--resume" => opts.resume = true,
                "--baseline" => opts.baseline = true,
                "--repeat" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => opts.repeat = n,
                    _ => {
                        eprintln!("--repeat needs a positive integer value");
                        std::process::exit(2);
                    }
                },
                other => {
                    eprintln!(
                        "unknown flag {other}; use --smoke | --quick | --full | --threads N \
                         | --trace FILE | --trace-format jsonl|pretty | --checkpoint-dir DIR \
                         | --checkpoint-every N | --resume | --baseline | --repeat N"
                    );
                    std::process::exit(2);
                }
            }
        }
        if opts.resume && opts.checkpoint_dir.is_none() {
            eprintln!("--resume requires --checkpoint-dir");
            std::process::exit(2);
        }
        if opts.repeat > 1 && !opts.baseline {
            eprintln!("--repeat only makes sense with --baseline");
            std::process::exit(2);
        }
        if opts.baseline && opts.trace_format == TraceFormat::Pretty {
            eprintln!("--baseline records traces in jsonl; --trace-format pretty is unsupported");
            std::process::exit(2);
        }
        opts
    }

    /// Applies the options to the process: sets the global thread count
    /// (when overridden), installs the trace sink (when requested) and the
    /// ambient checkpoint policy (when `--checkpoint-dir` was given) that
    /// every `Trainer::train` call inside the binary picks up.
    /// Pair with [`BenchOpts::finish`] before exiting.
    pub fn apply(&self) {
        if let Some(n) = self.threads {
            simpadv_runtime::set_global_threads(n);
        }
        if let Some(path) = &self.trace {
            // In baseline mode the runner records through an in-memory
            // sink and writes the jsonl dump itself (atomically).
            if self.baseline {
                return self.apply_policy();
            }
            if let Err(e) = simpadv_trace::install_file(path, self.trace_format) {
                eprintln!("cannot open trace file {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        self.apply_policy();
    }

    fn apply_policy(&self) {
        simpadv::train::set_checkpoint_policy(self.checkpoint_dir.as_ref().map(|dir| {
            simpadv::train::CheckpointPolicy {
                dir: dir.clone(),
                every: self.checkpoint_every,
                resume: self.resume,
            }
        }));
    }

    /// Flushes and removes the trace sink installed by
    /// [`BenchOpts::apply`]; a no-op when `--trace` was not given. Also
    /// clears the ambient checkpoint policy.
    pub fn finish(&self) {
        if self.trace.is_some() {
            simpadv_trace::uninstall();
        }
        if self.checkpoint_dir.is_some() {
            simpadv::train::set_checkpoint_policy(None);
        }
    }
}

/// Writes a JSON artifact under `results/`, creating the directory.
///
/// The write is atomic (temp file + rename via `simpadv-resilience`) with
/// a bounded retry on transient I/O errors, so a crash mid-regeneration
/// never leaves a truncated artifact behind.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_artifact<T: serde::Serialize>(
    name: &str,
    value: &T,
) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    simpadv_resilience::write_json_atomic(&path, value)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Serializes every test in this binary that reads the process-global
    /// logical clock or installs or removes the process-global trace sink.
    pub(crate) fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn verify_artifact_reports_truncation_as_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("simpadv-bench-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_torn.json");
        let whole = serde_json::to_string_pretty(&simpadv_obs::Artifact::new("kernels"))
            .expect("serializable");

        // a strict prefix of a valid artifact: the mid-write kill signature
        std::fs::write(&path, &whole[..whole.len() / 2]).expect("plant torn file");
        let err = verify_artifact(&path).unwrap_err().to_string();
        assert!(err.contains("truncated artifact"), "{err}");
        assert!(err.contains("BENCH_torn.json"), "names the file: {err}");

        // an intact artifact reads back clean
        std::fs::write(&path, &whole).expect("plant whole file");
        assert_eq!(verify_artifact(&path).expect("intact artifact").experiment, "kernels");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_stats_median_min_max() {
        let s = WallStats::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median_s, s.min_s, s.max_s), (2.0, 1.0, 3.0));
        assert_eq!(WallStats::from_samples(&[4.0, 2.0]).median_s, 3.0);
        assert_eq!(WallStats::from_samples(&[]), WallStats::default());
    }

    #[test]
    fn default_scale_is_quick() {
        let opts = BenchOpts::from_args(&[]);
        assert_eq!(opts.scale.train_samples, ExperimentScale::quick().train_samples);
        assert_eq!(opts.threads, None);
        assert_eq!(opts.trace, None);
        assert_eq!(opts.trace_format, TraceFormat::Jsonl);
    }

    #[test]
    fn full_flag_selects_full() {
        let opts = BenchOpts::from_args(&argv("--full"));
        assert_eq!(opts.scale.train_samples, ExperimentScale::full().train_samples);
    }

    #[test]
    fn smoke_flag_selects_smoke() {
        let opts = BenchOpts::from_args(&argv("--smoke"));
        assert_eq!(opts.scale.train_samples, ExperimentScale::smoke().train_samples);
    }

    #[test]
    fn threads_flag_is_parsed_alongside_scale() {
        let opts = BenchOpts::from_args(&argv("--smoke --threads 4"));
        assert_eq!(opts.scale.train_samples, ExperimentScale::smoke().train_samples);
        assert_eq!(opts.threads, Some(4));
        let opts = BenchOpts::from_args(&argv("--threads 2 --full"));
        assert_eq!(opts.threads, Some(2));
    }

    #[test]
    fn trace_flags_are_parsed() {
        let _trace = trace_lock();
        let opts = BenchOpts::from_args(&argv("--trace out.jsonl --trace-format pretty"));
        assert_eq!(opts.trace.as_deref(), Some(std::path::Path::new("out.jsonl")));
        assert_eq!(opts.trace_format, TraceFormat::Pretty);
        // finish without apply (or without --trace at all) is a no-op
        BenchOpts::from_args(&[]).finish();
    }

    #[test]
    fn apply_without_overrides_is_a_no_op() {
        let opts = BenchOpts::from_args(&[]);
        opts.apply();
        opts.finish();
    }

    #[test]
    fn checkpoint_flags_are_parsed() {
        let opts = BenchOpts::from_args(&argv("--smoke --checkpoint-dir ckpts"));
        assert_eq!(opts.checkpoint_dir.as_deref(), Some(std::path::Path::new("ckpts")));
        assert_eq!(opts.checkpoint_every, 1);
        assert!(!opts.resume);
        let opts =
            BenchOpts::from_args(&argv("--checkpoint-dir ckpts --checkpoint-every 5 --resume"));
        assert_eq!(opts.checkpoint_every, 5);
        assert!(opts.resume);
    }

    #[test]
    fn apply_installs_and_finish_clears_the_ambient_policy() {
        let dir = std::env::temp_dir().join("simpadv-bench-policy-test");
        let opts = BenchOpts::from_args(&argv(&format!("--checkpoint-dir {}", dir.display())));
        opts.apply();
        opts.finish();
        // after finish, plain train calls must not checkpoint: the policy
        // is global, so leaving it set would leak into other tests
        assert!(!dir.join("000-vanilla").exists());
    }
}
