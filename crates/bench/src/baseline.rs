//! `--baseline` mode: runs the experiment under an in-memory trace and
//! emits the `BENCH_<experiment>.json` artifact the CI perf gate
//! compares against (see `simpadv_obs::baseline` for the schema and the
//! comparison itself).
//!
//! The runner deliberately does **not** wrap the experiment in an extra
//! span: the recorded stream must have the exact shape a plain traced
//! run produces, so `trace diff` between a baseline dump and a normal
//! `--trace` capture stays empty.

use crate::BenchOpts;
use simpadv_obs::baseline as obs;
use simpadv_trace::Event;
use std::error::Error;
use std::path::PathBuf;

fn scale_info(opts: &BenchOpts) -> obs::ScaleInfo {
    obs::ScaleInfo {
        train_samples: opts.scale.train_samples as u64,
        test_samples: opts.scale.test_samples as u64,
        epochs: opts.scale.epochs as u64,
        seed: opts.scale.seed,
    }
}

fn build_artifact(
    opts: &BenchOpts,
    experiment: &str,
    accuracies: Vec<(String, f64)>,
    streams: &[Vec<Event>],
) -> Result<obs::BenchArtifact, Box<dyn Error>> {
    let tree = simpadv_obs::build_tree(&streams[0])?;
    let mut epoch_walls = Vec::new();
    let mut total_walls = Vec::new();
    for stream in streams {
        let t = simpadv_obs::build_tree(stream)?;
        let epochs = obs::epoch_walls_s(&t);
        if !epochs.is_empty() {
            epoch_walls.push(epochs.iter().sum::<f64>() / epochs.len() as f64);
        }
        total_walls.push(obs::total_wall_s(&t));
    }
    Ok(obs::BenchArtifact {
        schema_version: obs::BENCH_SCHEMA_VERSION,
        experiment: experiment.to_string(),
        scale: scale_info(opts),
        trainers: obs::trainer_costs(&tree),
        accuracies,
        events: streams[0].len() as u64,
        trace_digest: obs::logical_digest(&streams[0]),
        meta: obs::BenchMeta {
            threads: opts.threads.unwrap_or(0) as u64,
            threads_available: simpadv_runtime::available_threads() as u64,
            repeat: streams.len() as u64,
            wall_per_epoch_s: obs::WallStats::from_samples(&epoch_walls),
            wall_total_s: obs::WallStats::from_samples(&total_walls),
            repeats_logically_identical: obs::repeats_logically_identical(streams),
            note: obs::WALL_NOTE.to_string(),
        },
    })
}

fn dump_jsonl(path: &std::path::Path, events: &[Event]) -> Result<(), Box<dyn Error>> {
    let mut text = String::new();
    for ev in events {
        text.push_str(&ev.to_json_line());
        text.push('\n');
    }
    simpadv_resilience::atomic_write(path, text.as_bytes())?;
    Ok(())
}

/// Runs `run` once (or `--repeat` times under `--baseline`) and, in
/// baseline mode, writes `BENCH_<experiment>.json` to the current
/// directory (the repository root, by convention) and the repeat-0
/// trace to `--trace FILE` when given. Returns the first run's result
/// and the artifact path, if one was written.
///
/// `accuracies` projects the experiment result onto the named scalar
/// series the perf gate pins down.
///
/// # Errors
///
/// Returns trace-reconstruction and I/O errors from artifact
/// production; plain (non-baseline) runs never fail here.
pub fn run_with_baseline<T>(
    opts: &BenchOpts,
    experiment: &str,
    accuracies: impl Fn(&T) -> Vec<(String, f64)>,
    mut run: impl FnMut() -> T,
) -> Result<(T, Option<PathBuf>), Box<dyn Error>> {
    if !opts.baseline {
        return Ok((run(), None));
    }
    let mut streams: Vec<Vec<Event>> = Vec::with_capacity(opts.repeat);
    let mut first: Option<T> = None;
    for _ in 0..opts.repeat {
        let handle = simpadv_trace::install_memory();
        let result = run();
        simpadv_trace::flush();
        streams.push(handle.take());
        if first.is_none() {
            first = Some(result);
        }
    }
    simpadv_trace::uninstall();
    let Some(result) = first else {
        return Err("baseline mode needs --repeat >= 1".into());
    };

    let artifact = build_artifact(opts, experiment, accuracies(&result), &streams)?;
    if let Some(path) = &opts.trace {
        dump_jsonl(path, &streams[0])?;
    }
    let out = PathBuf::from(format!("BENCH_{experiment}.json"));
    simpadv_resilience::write_json_atomic(&out, &artifact)?;
    let _: obs::BenchArtifact = crate::verify_artifact(&out)?;
    Ok((result, Some(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_trace::span;

    fn baseline_opts(dir: &std::path::Path) -> BenchOpts {
        let mut opts = BenchOpts::from_args(&["--smoke".to_string()]);
        opts.baseline = true;
        opts.trace = Some(dir.join("trace.jsonl"));
        opts
    }

    fn tiny_traced_workload() -> u64 {
        let _t = span!("train", trainer = "proposed", epochs = 1_u64);
        {
            let _e = span!("epoch", index = 0_u64);
            simpadv_trace::clock::tick_forward(3);
        }
        42
    }

    #[test]
    fn non_baseline_runs_pass_through() {
        let opts = BenchOpts::from_args(&[]);
        let (v, path) =
            run_with_baseline(&opts, "unit", |_| Vec::new(), || 7_u64).expect("plain run");
        assert_eq!(v, 7);
        assert!(path.is_none());
    }

    #[test]
    fn baseline_mode_writes_artifact_and_trace_dump() {
        let _trace = crate::tests::trace_lock();
        let dir = std::env::temp_dir().join("simpadv-bench-baseline-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut opts = baseline_opts(&dir);
        opts.repeat = 2;
        // the artifact lands in the cwd (the package root under `cargo
        // test`); read it and clean it up
        let out = run_with_baseline(
            &opts,
            "unittest",
            |v| vec![("answer".into(), *v as f64)],
            tiny_traced_workload,
        );
        let (v, path) = out.expect("baseline run");
        assert_eq!(v, 42);
        let path = path.expect("artifact written");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        std::fs::remove_file(&path).expect("artifact cleanup");
        let artifact: obs::BenchArtifact = serde_json::from_str(&text).expect("valid artifact");
        assert_eq!(artifact.experiment, "unittest");
        assert_eq!(artifact.meta.repeat, 2);
        assert!(artifact.meta.repeats_logically_identical);
        assert_eq!(artifact.trainers.len(), 1);
        assert_eq!(artifact.trainers[0].forward, 3);
        assert_eq!(artifact.accuracies, vec![("answer".to_string(), 42.0)]);

        let dump = std::fs::read_to_string(dir.join("trace.jsonl")).expect("dump readable");
        let events = simpadv_obs::read_events(&dump).expect("dump parses");
        assert_eq!(events.len() as u64, artifact.events);
        assert_eq!(obs::logical_digest(&events), artifact.trace_digest);
    }
}
