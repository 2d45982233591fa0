//! End-to-end campaign chaos matrix, driven through the real
//! `simpadv-cli` binary: healthy campaigns, chaos-killed cells, a
//! simulated orchestrator death with `--resume`, and quarantine exit
//! codes. The invariant under test everywhere: the aggregate's logical
//! rows are bitwise identical no matter how the campaign was
//! interrupted.

use simpadv_obs::{Artifact, Value};
use simpadv_sweep::manifest::ManifestStore;
use simpadv_sweep::CellStatus;
use std::path::{Path, PathBuf};

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_simpadv-cli")
}

/// Runs the CLI binary, returning (success, combined stdout+stderr).
#[expect(clippy::disallowed_methods, reason = "end-to-end test drives the CLI binary")]
fn run_cli(args: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(cli()).args(args).output().expect("spawn simpadv-cli");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("simpadv-cli-sweep-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared tiny grid: 2 cells (vanilla at two training scales).
fn grid_args(dir: &Path, out: &Path) -> Vec<String> {
    [
        "sweep",
        "--dir",
        dir.to_str().unwrap(),
        "--methods",
        "vanilla",
        "--eps",
        "0.3",
        "--samples-list",
        "16,24",
        "--threads-list",
        "1",
        "--epochs",
        "1",
        "--test-samples",
        "16",
        "--seed",
        "2019",
        "--out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn load_artifact(path: &Path) -> Artifact {
    let text = std::fs::read_to_string(path).unwrap();
    simpadv_obs::parse_artifact(&text).unwrap()
}

/// The ids of an aggregate's rows under `prefix` (`cell/`, `quarantine/`).
fn row_ids<'a>(artifact: &'a Artifact, prefix: &'a str) -> Vec<&'a str> {
    artifact.rows.keys().filter_map(|id| id.strip_prefix(prefix)).collect()
}

fn run_campaign(args: &[String]) -> (bool, String) {
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    run_cli(&refs)
}

/// A SIGKILL delay, in µs, that lands while a cell attempt is still
/// running at any host speed: a quarter of the mean per-cell wall time
/// the uninterrupted `reference` campaign measured.
fn kill_after_us(reference: &Artifact) -> String {
    let Value::F64(wall_total_s) = reference.meta["wall_total_s"] else {
        panic!("the aggregate records its wall time in seconds")
    };
    let Value::U64(cells) = reference.rows["campaign"]["completed"] else {
        panic!("the aggregate counts its completed cells")
    };
    ((wall_total_s / cells as f64 / 4.0 * 1e6) as u64).max(1).to_string()
}

#[test]
fn healthy_campaign_completes_and_self_compares() {
    let dir = tmpdir("healthy");
    let out = dir.join("BENCH_sweep.json");
    let (ok, log) = run_campaign(&grid_args(&dir, &out));
    assert!(ok, "campaign failed:\n{log}");
    assert!(log.contains("campaign done: 2 completed, 0 quarantined"), "{log}");

    let artifact = load_artifact(&out);
    assert_eq!(artifact.experiment, "sweep");
    assert_eq!(artifact.rows["campaign"]["completed"], Value::U64(2));
    assert_eq!(artifact.meta["attempts_total"], Value::U64(2), "one attempt per healthy cell");

    // the written aggregate self-compares clean through the perf gate
    let (ok, log) = run_cli(&["bench", "compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(ok, "self-compare failed:\n{log}");
}

#[test]
fn chaos_killed_cells_converge_to_the_uninterrupted_result() {
    let ref_dir = tmpdir("chaos-ref");
    let ref_out = ref_dir.join("BENCH_sweep.json");
    let (ok, log) = run_campaign(&grid_args(&ref_dir, &ref_out));
    assert!(ok, "reference campaign failed:\n{log}");
    let reference = load_artifact(&ref_out);

    let chaos_dir = tmpdir("chaos-kill");
    let chaos_out = chaos_dir.join("BENCH_sweep.json");
    let mut args = grid_args(&chaos_dir, &chaos_out);
    // SIGKILL the first cell attempt a quarter of the way through; the
    // retry reruns the cell (from the killed attempt's last checkpoint,
    // if it left one) and must land on the same report.
    let kill_after = kill_after_us(&reference);
    args.extend(
        ["--chaos-kill-cell-after-us", &kill_after, "--chaos-kill-cell-times", "1"]
            .map(str::to_string),
    );
    let (ok, log) = run_campaign(&args);
    assert!(ok, "chaos campaign failed:\n{log}");

    let interrupted = load_artifact(&chaos_out);
    assert_eq!(interrupted.rows, reference.rows, "chaos must not change logical rows");
    let retries = &interrupted.warn["run"]["retries_spent"];
    assert!(matches!(retries, Value::U64(n) if *n >= 1), "the kill must have cost a retry");

    // cross-compare through the CLI gate: logical pass (retries only warn)
    let (ok, log) =
        run_cli(&["bench", "compare", ref_out.to_str().unwrap(), chaos_out.to_str().unwrap()]);
    assert!(ok, "cross-compare failed:\n{log}");
    assert!(log.contains("warning: row 'run' field 'retries_spent'"), "{log}");
}

#[test]
fn orchestrator_death_resumes_to_the_identical_aggregate() {
    let dir = tmpdir("resume");
    let out = dir.join("BENCH_sweep.json");
    let (ok, log) = run_campaign(&grid_args(&dir, &out));
    assert!(ok, "initial campaign failed:\n{log}");
    let reference = load_artifact(&out);

    // Simulate the orchestrator dying mid-cell: rewind the manifest so
    // the last cell is Running (its attempt already charged, exactly as
    // the save-before-spawn protocol leaves it) and drop its report.
    let store = ManifestStore::open(&dir).unwrap();
    let (_, mut manifest) = store.load_latest().unwrap().unwrap();
    let last = manifest.cells.len() - 1;
    manifest.cells[last].status = CellStatus::Running;
    let report = dir.join("cells").join(&manifest.cells[last].spec.id).join("report.json");
    std::fs::remove_file(&report).unwrap();
    store.save(&manifest).unwrap();
    std::fs::remove_file(&out).unwrap();

    let resumed_out = dir.join("BENCH_sweep_resumed.json");
    let (ok, log) = run_cli(&[
        "sweep",
        "--dir",
        dir.to_str().unwrap(),
        "--resume",
        "latest",
        "--out",
        resumed_out.to_str().unwrap(),
    ]);
    assert!(ok, "resume failed:\n{log}");
    assert!(log.contains("folded 1 in-flight cell"), "{log}");

    let resumed = load_artifact(&resumed_out);
    assert_eq!(resumed.rows, reference.rows, "resume must reproduce the aggregate bitwise");
    assert_eq!(resumed.rows["campaign"]["completed"], Value::U64(2));
    assert!(row_ids(&resumed, "quarantine/").is_empty());
}

#[test]
fn all_cells_quarantined_fails_the_exit_code_but_writes_the_aggregate() {
    let dir = tmpdir("quarantine");
    let out = dir.join("BENCH_sweep.json");
    let mut args = grid_args(&dir, &out);
    // A child binary that always fails: every cell burns its single
    // attempt and is quarantined; the campaign itself still finishes.
    args.extend(
        ["--bin", "/bin/false", "--max-attempts", "1", "--retry-budget", "0"].map(str::to_string),
    );
    let (ok, log) = run_campaign(&args);
    assert!(!ok, "quarantined campaign must exit non-zero:\n{log}");
    assert!(log.contains("2 cell(s) quarantined"), "{log}");

    let artifact = load_artifact(&out);
    assert_eq!(artifact.rows["campaign"]["completed"], Value::U64(0));
    let quarantined = row_ids(&artifact, "quarantine/");
    assert_eq!(quarantined.len(), 2);
    for id in quarantined {
        let Value::String(cause) = &artifact.warn[&format!("quarantine/{id}")]["cause"] else {
            panic!("{id}: the cause is text")
        };
        assert!(cause.contains("attempt cap"), "{cause}");
        assert!(cause.contains("exited with code 1"), "{cause}");
    }
}
