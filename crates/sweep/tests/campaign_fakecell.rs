//! End-to-end exercises of the campaign retry state machine against the
//! `fakecell` child (a scriptable stand-in that speaks the real child
//! protocol: durable attempt counter, sealed report, exit codes).

use simpadv_obs::{compare, Artifact, Value, DEFAULT_WALL_THRESHOLD_PCT};
use simpadv_sweep::manifest::{CampaignConfig, ManifestStore, MANIFEST_VERSION};
use simpadv_sweep::supervise::ChildCommand;
use simpadv_sweep::{Campaign, CellStatus, ChaosConfig, GridSpec, RetryConfig, SweepError};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simpadv-sweep-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn grid(methods: &[&str], samples: &[u64]) -> GridSpec {
    GridSpec {
        dataset: "mnist".into(),
        epochs: 1,
        seed: 2019,
        test_samples: 20,
        methods: methods.iter().map(|m| m.to_string()).collect(),
        epsilons: vec![0.3],
        samples: samples.to_vec(),
        threads: vec![1],
    }
}

fn config(grid_spec: GridSpec, retry: RetryConfig) -> CampaignConfig {
    CampaignConfig {
        schema_version: MANIFEST_VERSION,
        grid: grid_spec,
        retry,
        cell_deadline_us: 20_000_000,
    }
}

/// Fast-backoff retry config so failure tests stay quick.
fn quick_retry(max_attempts: u32, budget: u32) -> RetryConfig {
    RetryConfig { base_us: 200, cap_us: 2_000, max_attempts, budget }
}

fn fakecell(prefix: &[&str]) -> ChildCommand {
    ChildCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_fakecell")),
        prefix_args: prefix.iter().map(|a| a.to_string()).collect(),
    }
}

fn run_campaign(
    dir: &Path,
    cfg: CampaignConfig,
    child: &ChildCommand,
    chaos: ChaosConfig,
) -> Artifact {
    let mut campaign = Campaign::start(dir, cfg).unwrap();
    let mut progress = Vec::new();
    campaign.run(child, chaos, &dir.join("BENCH_sweep.json"), &mut progress).unwrap()
}

fn count(value: &Value) -> u64 {
    match value {
        Value::U64(n) => *n,
        other => panic!("not a count: {other:?}"),
    }
}

fn completed(artifact: &Artifact) -> u64 {
    count(&artifact.rows["campaign"]["completed"])
}

fn retries(artifact: &Artifact) -> u64 {
    count(&artifact.warn["run"]["retries_spent"])
}

fn attempts(artifact: &Artifact) -> u64 {
    count(&artifact.meta["attempts_total"])
}

/// The causes of every quarantined cell, in cell order.
fn quarantine_causes(artifact: &Artifact) -> Vec<String> {
    let ids = artifact.rows.keys().filter(|id| id.starts_with("quarantine/"));
    ids.map(|id| match &artifact.warn[id]["cause"] {
        Value::String(cause) => cause.clone(),
        other => panic!("{id}: cause is not text: {other:?}"),
    })
    .collect()
}

#[test]
fn healthy_campaign_completes_every_cell() {
    let dir = tmpdir("healthy");
    let cfg = config(grid(&["vanilla", "proposed"], &[16, 32]), quick_retry(3, 8));
    let artifact = run_campaign(&dir, cfg, &fakecell(&[]), ChaosConfig::default());

    assert_eq!(completed(&artifact), 4);
    assert!(quarantine_causes(&artifact).is_empty());
    assert_eq!(attempts(&artifact), 4, "one attempt per healthy cell");
    assert_eq!(retries(&artifact), 0);
    let first = artifact.rows.keys().find(|id| id.starts_with("cell/"));
    assert_eq!(first.map(String::as_str), Some("cell/c000-vanilla-e300m-s16-t1"));
    // The artifact landed on disk as plain JSON.
    let text = std::fs::read_to_string(dir.join("BENCH_sweep.json")).unwrap();
    assert!(text.contains("\"experiment\": \"sweep\""));
    // The manifest reached a terminal generation.
    let (_, manifest) = ManifestStore::open(&dir).unwrap().load_latest().unwrap().unwrap();
    assert!(manifest.is_finished());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashing_cells_are_retried_and_produce_identical_results() {
    // Reference: no failures injected.
    let ref_dir = tmpdir("retry-ref");
    let reference = run_campaign(
        &ref_dir,
        config(grid(&["vanilla"], &[16, 32]), quick_retry(4, 8)),
        &fakecell(&[]),
        ChaosConfig::default(),
    );

    // Same grid, but every cell crashes twice before succeeding.
    let dir = tmpdir("retry");
    let artifact = run_campaign(
        &dir,
        config(grid(&["vanilla"], &[16, 32]), quick_retry(4, 8)),
        &fakecell(&["--fakecell-fail-times", "2"]),
        ChaosConfig::default(),
    );

    assert_eq!(completed(&artifact), 2);
    assert_eq!(retries(&artifact), 4, "two retries per cell");
    assert_eq!(attempts(&artifact), 6);
    // The logical rows (scale and cells) are bitwise identical to the
    // crash-free run; only retries, attempts and wall differ.
    assert_eq!(artifact.rows, reference.rows);
    let report = compare(&reference, &artifact, DEFAULT_WALL_THRESHOLD_PCT);
    assert!(report.passed(), "{:?}", report.regressions);
    assert!(report.warnings.iter().any(|w| w.contains("retries")), "{:?}", report.warnings);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attempt_cap_quarantines_without_killing_the_campaign() {
    let dir = tmpdir("quarantine");
    // Both cells fail forever; the campaign must still terminate with
    // both quarantined rather than erroring out.
    let artifact = run_campaign(
        &dir,
        config(grid(&["vanilla"], &[16, 32]), quick_retry(2, 8)),
        &fakecell(&["--fakecell-fail-times", "99"]),
        ChaosConfig::default(),
    );
    assert_eq!(completed(&artifact), 0);
    let causes = quarantine_causes(&artifact);
    assert_eq!(causes.len(), 2);
    assert!(causes[0].contains("attempt cap"), "{}", causes[0]);
    assert!(causes[0].contains("exited with code 3"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_budget_bounds_total_retries() {
    let dir = tmpdir("budget");
    // Budget of 1 retry across the campaign: the first failing cell
    // consumes it; the second is quarantined without another retry.
    let artifact = run_campaign(
        &dir,
        config(grid(&["vanilla"], &[16, 32]), quick_retry(10, 1)),
        &fakecell(&["--fakecell-fail-times", "99"]),
        ChaosConfig::default(),
    );
    assert_eq!(retries(&artifact), 1);
    let causes = quarantine_causes(&artifact);
    assert_eq!(causes.len(), 2);
    assert!(causes.iter().any(|c| c.contains("budget exhausted")), "{causes:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_overrun_is_a_classified_failure() {
    let dir = tmpdir("deadline");
    let mut cfg = config(grid(&["vanilla"], &[16]), quick_retry(1, 0));
    cfg.cell_deadline_us = 30_000;
    let artifact = run_campaign(
        &dir,
        cfg,
        &fakecell(&["--fakecell-hang-us", "20000000"]),
        ChaosConfig::default(),
    );
    let causes = quarantine_causes(&artifact);
    assert_eq!(causes.len(), 1);
    assert!(causes[0].contains("deadline"), "{}", causes[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_kill_mid_cell_is_retried_to_the_same_result() {
    let ref_dir = tmpdir("chaos-ref");
    let reference = run_campaign(
        &ref_dir,
        config(grid(&["vanilla"], &[16]), quick_retry(4, 8)),
        &fakecell(&[]),
        ChaosConfig::default(),
    );

    let dir = tmpdir("chaos");
    let artifact = run_campaign(
        &dir,
        config(grid(&["vanilla"], &[16]), quick_retry(4, 8)),
        // The child hangs long enough for the chaos SIGKILL to land
        // twice; the third attempt runs unharassed and completes.
        &fakecell(&["--fakecell-hang-us", "300000"]),
        ChaosConfig {
            kill_cell_after_us: Some(30_000),
            kill_cell_times: 2,
            child_failpoints: None,
        },
    );
    assert_eq!(completed(&artifact), 1);
    assert_eq!(retries(&artifact), 2);
    assert_eq!(artifact.rows, reference.rows, "kills must not change results");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orchestrator_death_mid_cell_resumes_exactly() {
    let dir = tmpdir("resume");
    let cfg = config(grid(&["vanilla", "proposed"], &[16]), quick_retry(4, 8));

    // Simulate an orchestrator killed mid-campaign: cell 0 done, cell 1
    // charged and Running when the process died. Build that manifest
    // history through the real store, including the child's completed
    // report for cell 0.
    {
        let mut campaign = Campaign::start(&dir, cfg.clone()).unwrap();
        let mut progress = Vec::new();
        campaign
            .run(
                &fakecell(&[]),
                ChaosConfig::default(),
                &dir.join("BENCH_sweep_pre.json"),
                &mut progress,
            )
            .unwrap();
        // Rewind the terminal manifest into the mid-flight shape the
        // crash would have left: cell 1 Running with one attempt
        // charged and its report deleted (the child never finished).
        let store = ManifestStore::open(&dir).unwrap();
        let (_, mut manifest) = store.load_latest().unwrap().unwrap();
        manifest.cells[1].status = CellStatus::Running;
        manifest.cells[1].attempts = 1;
        let report = dir.join("cells").join(&manifest.cells[1].spec.id).join("report.json");
        std::fs::remove_file(&report).unwrap();
        store.save(&manifest).unwrap();
    }

    let mut campaign = Campaign::resume(&dir).unwrap();
    assert_eq!(campaign.manifest().count(CellStatus::Running), 1);
    let mut progress = Vec::new();
    let artifact = campaign
        .run(&fakecell(&[]), ChaosConfig::default(), &dir.join("BENCH_sweep.json"), &mut progress)
        .unwrap();

    assert_eq!(completed(&artifact), 2);
    assert!(quarantine_causes(&artifact).is_empty());
    // The interrupted attempt was already charged; the resumed run
    // spawned exactly one more child for cell 1.
    assert_eq!(attempts(&artifact), 3);
    assert_eq!(retries(&artifact), 1);
    let log = String::from_utf8(progress).unwrap();
    assert!(log.contains("folded 1 in-flight cell"), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn start_refuses_to_clobber_and_resume_needs_a_manifest() {
    let dir = tmpdir("guards");
    let cfg = config(grid(&["vanilla"], &[16]), quick_retry(2, 2));
    let _ = Campaign::start(&dir, cfg.clone()).unwrap();
    let Err(err) = Campaign::start(&dir, cfg) else { panic!("second start must fail") };
    assert!(matches!(&err, SweepError::Config(m) if m.contains("--resume")), "{err}");

    let empty = tmpdir("guards-empty");
    let Err(err) = Campaign::resume(&empty) else { panic!("resume of empty dir must fail") };
    assert!(matches!(err, SweepError::NothingToResume(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn completed_cell_with_damaged_report_is_not_trusted() {
    // Exit 0 is not completion: the sealed report must validate. A
    // child whose report was torn (simulated by corrupting it between
    // attempts via failpoint-style damage) forces a retry, and the
    // retried attempt rewrites a valid report.
    let dir = tmpdir("torn-report");
    let cfg = config(grid(&["vanilla"], &[16]), quick_retry(3, 4));
    let mut campaign = Campaign::start(&dir, cfg).unwrap();

    // First, run a child that "completes" but whose report we damage
    // cannot be arranged mid-run without racing the supervisor; instead
    // verify the validation path directly: a healthy run, then corrupt
    // the report and confirm a fresh aggregate attempt rejects it.
    let mut progress = Vec::new();
    campaign
        .run(&fakecell(&[]), ChaosConfig::default(), &dir.join("BENCH_sweep.json"), &mut progress)
        .unwrap();
    let report = dir.join("cells").join("c000-vanilla-e300m-s16-t1").join("report.json");
    let mut bytes = std::fs::read(&report).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&report, &bytes).unwrap();

    let mut campaign = Campaign::resume(&dir).unwrap();
    let err = campaign
        .run(&fakecell(&[]), ChaosConfig::default(), &dir.join("BENCH_sweep.json"), &mut progress)
        .unwrap_err();
    assert!(matches!(err, SweepError::Persist(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
