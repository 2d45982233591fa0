//! A scriptable stand-in for the CLI `train` child, used by the sweep
//! crate's integration tests (`CARGO_BIN_EXE_fakecell`).
//!
//! It speaks exactly the child protocol the orchestrator relies on —
//! parse a `train ...` argv, persist state under `--checkpoint-dir`,
//! and write a sealed [`CellReport`] to `--report` before exiting 0 —
//! while letting tests script failures through extra leading flags
//! (passed via `ChildCommand::prefix_args`):
//!
//! * `--fakecell-fail-times N` — exit 3 for the first `N` attempts of
//!   this cell (the attempt counter is durable, in the checkpoint dir,
//!   so retries see it);
//! * `--fakecell-hang-us N` — sleep before doing anything, so deadline
//!   and chaos-kill paths can be exercised.
//!
//! The report is a pure function of the `train` argv — never of the
//! attempt number — mirroring the real trainer's determinism contract:
//! a cell that crashed and retried must produce a bitwise-identical
//! report.

use simpadv_sweep::report::{CellReport, CELL_REPORT_VERSION};
use simpadv_sweep::SweepError;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[expect(clippy::disallowed_methods, reason = "the exit code is the child protocol's result")]
fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            // The orchestrator nulls our stderr; the exit code is the
            // only channel it reads.
            let _ = e;
            std::process::exit(2);
        }
    }
}

#[expect(clippy::disallowed_methods, reason = "simulates a hung cell with a plain sleep")]
fn run(args: Vec<String>) -> Result<i32, SweepError> {
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "train" {
            continue;
        }
        let Some(key) = arg.strip_prefix("--") else {
            return Err(SweepError::Config(format!("unexpected positional '{arg}'")));
        };
        let value =
            it.next().ok_or_else(|| SweepError::Config(format!("--{key} needs a value")))?;
        opts.insert(key.to_string(), value);
    }

    let get = |key: &str| -> Result<&String, SweepError> {
        opts.get(key).ok_or_else(|| SweepError::Config(format!("missing --{key}")))
    };
    let parse_u64 = |key: &str| -> Result<u64, SweepError> {
        get(key)?
            .parse::<u64>()
            .map_err(|_| SweepError::Config(format!("--{key} is not an integer")))
    };

    if let Some(hang) = opts.get("fakecell-hang-us") {
        let us = hang
            .parse::<u64>()
            .map_err(|_| SweepError::Config("--fakecell-hang-us is not an integer".into()))?;
        std::thread::sleep(std::time::Duration::from_micros(us));
    }

    // Durable attempt counter: lives next to the checkpoints so the
    // orchestrator's per-cell directory carries it across retries.
    let ckpt_dir = PathBuf::from(get("checkpoint-dir")?);
    std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| SweepError::Config(format!("create {}: {e}", ckpt_dir.display())))?;
    let counter_path = ckpt_dir.join("fakecell-attempts");
    let prior: u64 = std::fs::read_to_string(&counter_path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    simpadv_resilience::atomic_write(&counter_path, format!("{}", prior + 1).as_bytes())?;

    if let Some(fail_times) = opts.get("fakecell-fail-times") {
        let n = fail_times
            .parse::<u64>()
            .map_err(|_| SweepError::Config("--fakecell-fail-times is not an integer".into()))?;
        if prior < n {
            return Ok(3);
        }
    }

    let seed = parse_u64("seed")?;
    let samples = parse_u64("samples")?;
    let eps = get("eps")?
        .parse::<f32>()
        .map_err(|_| SweepError::Config("--eps is not a number".into()))?;
    // Deterministic pseudo-results from the argv alone (see module docs).
    let blend = ((seed % 997) as f32) / 997.0;
    let report = CellReport {
        schema_version: CELL_REPORT_VERSION,
        dataset: get("dataset")?.clone(),
        method_id: get("method")?.clone(),
        eps,
        epochs: parse_u64("epochs")?,
        samples,
        test_samples: parse_u64("test-samples")?,
        seed,
        final_loss: 2.0 - blend,
        columns: vec!["clean".to_string(), "fgsm".to_string()],
        accuracies: vec![0.5 + blend / 2.0, (0.9 - eps).max(0.0) * blend],
    };
    report.save(&PathBuf::from(get("report")?))?;
    Ok(0)
}
