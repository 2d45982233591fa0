//! `--baseline` mode: runs the experiment under an in-memory trace and
//! emits the `BENCH_<experiment>.json` artifact the CI perf gate
//! compares against (see `simpadv_obs::artifact` for the schema and the
//! comparison itself).
//!
//! The runner deliberately does **not** wrap the experiment in an extra
//! span: the recorded stream must have the exact shape a plain traced
//! run produces, so `trace diff` between a baseline dump and a normal
//! `--trace` capture stays empty.

use crate::{BenchOpts, WallStats};
use simpadv_obs::{diff, Artifact, DiffOptions, SpanTree};
use simpadv_trace::{Event, FieldValue};
use std::error::Error;
use std::path::PathBuf;

/// Sums the logical cost of every `train` span into one `trainer/<id>`
/// row per `trainer` field (spans without one group under `unknown`):
/// runs, nested epoch spans, and the clock counters.
fn set_trainer_rows(artifact: &mut Artifact, tree: &SpanTree) {
    const FIELDS: [&str; 6] = ["runs", "epochs", "forward", "backward", "flops", "attack_steps"];
    let mut costs: std::collections::BTreeMap<String, [u64; 6]> = Default::default();
    tree.walk(&mut |node| {
        if node.name != "train" {
            return;
        }
        let id = node.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Str(s) if k == "trainer" => Some(s.clone()),
            _ => None,
        });
        let epochs = node.children.iter().filter(|c| c.name == "epoch").count() as u64;
        let t = &node.total;
        let add = [1, epochs, t.forward, t.backward, t.flops, t.attack_steps];
        let cost = costs.entry(id.unwrap_or_else(|| "unknown".to_string())).or_default();
        for (sum, n) in cost.iter_mut().zip(add) {
            *sum += n;
        }
    });
    for (id, cost) in costs {
        for (field, n) in FIELDS.into_iter().zip(cost) {
            artifact.set(&format!("trainer/{id}"), field, n);
        }
    }
}

/// Wall seconds of every `epoch` span in the tree.
fn epoch_walls_s(tree: &SpanTree) -> Vec<f64> {
    let mut out = Vec::new();
    tree.walk(&mut |node| {
        if node.name == "epoch" {
            out.push(node.total.wall_us as f64 / 1e6);
        }
    });
    out
}

/// Whether every stream in `repeats` is logically identical to the
/// first (vacuously true below two repeats).
fn repeats_logically_identical(repeats: &[Vec<Event>]) -> bool {
    repeats
        .iter()
        .skip(1)
        .all(|r| diff(&repeats[0], r, &DiffOptions::default()).logically_identical())
}

/// Builds the training artifact: scale, per-trainer cost and accuracy
/// rows plus the trace row (logical); thread conditions, repeat
/// identity and median wall per epoch (warn-only); repeat count and the
/// wall spreads (meta).
///
/// An accuracy named `a/b/c` lands in row `accuracy/a/b`, field `c`.
fn build_artifact(
    opts: &BenchOpts,
    experiment: &str,
    accuracies: Vec<(String, f64)>,
    streams: &[Vec<Event>],
) -> Result<Artifact, Box<dyn Error>> {
    let mut artifact = Artifact::new(experiment);
    let scale = &opts.scale;
    artifact.set("scale", "train_samples", scale.train_samples as u64);
    artifact.set("scale", "test_samples", scale.test_samples as u64);
    artifact.set("scale", "epochs", scale.epochs as u64);
    artifact.set("scale", "seed", scale.seed);
    set_trainer_rows(&mut artifact, &simpadv_obs::build_tree(&streams[0])?);
    for (name, value) in accuracies {
        let (row, field) = match name.rsplit_once('/') {
            Some((row, field)) => (format!("accuracy/{row}"), field),
            None => ("accuracy".to_string(), name.as_str()),
        };
        artifact.set(&row, field, value);
    }
    artifact.set_trace(&streams[0]);

    let mut epoch_walls = Vec::new();
    let mut total_walls = Vec::new();
    for stream in streams {
        let tree = simpadv_obs::build_tree(stream)?;
        let epochs = epoch_walls_s(&tree);
        if !epochs.is_empty() {
            epoch_walls.push(epochs.iter().sum::<f64>() / epochs.len() as f64);
        }
        total_walls.push(tree.roots.iter().map(|r| r.total.wall_us as f64 / 1e6).sum());
    }
    let wall_per_epoch = WallStats::from_samples(&epoch_walls);
    artifact.set_warn("run", "threads", opts.threads.unwrap_or(0) as u64);
    artifact.set_warn("run", "threads_available", simpadv_runtime::available_threads() as u64);
    artifact.set_warn("run", "repeats_logically_identical", repeats_logically_identical(streams));
    artifact.set_warn("run", "wall_per_epoch_s", wall_per_epoch.median_s);
    artifact.set_meta("repeat", streams.len() as u64);
    artifact.set_meta("wall_per_epoch_s", wall_per_epoch);
    artifact.set_meta("wall_total_s", WallStats::from_samples(&total_walls));
    Ok(artifact)
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
    crate::verify_artifact(&out)?;
    Ok((result, Some(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
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
            |v| vec![("answer".into(), *v as f64), ("mnist/proposed/original".into(), 0.5)],
            tiny_traced_workload,
        );
        let (v, path) = out.expect("baseline run");
        assert_eq!(v, 42);
        let path = path.expect("artifact written");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        std::fs::remove_file(&path).expect("artifact cleanup");
        let a = simpadv_obs::parse_artifact(&text).expect("valid artifact");
        assert_eq!(a.experiment, "unittest");
        assert_eq!(a.meta["repeat"], Value::U64(2));
        assert_eq!(a.warn["run"]["repeats_logically_identical"], Value::Bool(true));
        assert_eq!(a.rows.keys().filter(|id| id.starts_with("trainer/")).count(), 1);
        let proposed = &a.rows["trainer/proposed"];
        for (field, n) in [("runs", 1), ("epochs", 1), ("forward", 3), ("attack_steps", 0)] {
            assert_eq!(proposed[field], Value::U64(n), "{field}");
        }
        assert_eq!(a.rows["accuracy"]["answer"], Value::F64(42.0));
        assert_eq!(a.rows["accuracy/mnist/proposed"]["original"], Value::F64(0.5));

        let dump = std::fs::read_to_string(dir.join("trace.jsonl")).expect("dump readable");
        let events = simpadv_obs::read_events(&dump).expect("dump parses");
        assert_eq!(a.rows["trace"]["events"], Value::U64(events.len() as u64));
        assert_eq!(a.rows["trace"]["digest"], Value::String(simpadv_obs::logical_digest(&events)));
    }

    #[test]
    fn repeat_identity_check_spots_divergence() {
        let close = |forward| Event {
            seq: 0,
            kind: simpadv_trace::EventKind::SpanClose,
            path: "train".into(),
            fields: vec![("forward".into(), FieldValue::U64(forward))],
            meta: Vec::new(),
            ctx: None,
        };
        let (a, b) = (vec![close(8)], vec![close(9)]);
        assert!(repeats_logically_identical(&[a.clone(), a.clone()]));
        assert!(!repeats_logically_identical(&[a, b]));
    }
}
