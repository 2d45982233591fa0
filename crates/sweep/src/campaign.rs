//! The campaign driver: expand, supervise, retry, quarantine, aggregate.
//!
//! ## Retry state machine
//!
//! ```text
//!   Pending --spawn (attempts += 1, save)--> Running
//!   Running --exit 0 + valid report (save)--> Done
//!   Running --crash/kill/deadline (save)--> Pending'   (retry path)
//!   Pending' --attempts or budget exhausted (save)--> Quarantined
//!   Pending' --backoff sleep, then spawn--> Running
//! ```
//!
//! Every arrow that changes the manifest saves a new sealed generation
//! *before* the driver acts on it, so an orchestrator SIGKILL between
//! any two arrows is recoverable: `--resume` reloads the newest valid
//! generation and re-enters the machine at the same cell. The one
//! ambiguous state is `Running`-on-load — the driver died with a child
//! in flight. The attempt was charged at spawn time, and the child's
//! work is not lost (it checkpoints every epoch and the next attempt
//! resumes from its latest valid generation), so resume simply folds
//! `Running` back to the retry path.
//!
//! ## Why the aggregate is bitwise reproducible
//!
//! Cell training is bitwise deterministic given (dataset, method, eps,
//! samples, seed) — that is the workspace's core determinism contract —
//! and checkpoint resume restores the accumulated report state, so a
//! cell that crashed at any point and re-ran produces the identical
//! sealed report. The aggregate's logical rows are a pure function of
//! those reports; retries and quarantine causes are warn-only, attempts
//! and wall time live in `meta`.

use crate::backoff_for;
use crate::chaos::{ChaosConfig, ChaosState};
use crate::error::SweepError;
use crate::manifest::{CampaignConfig, CampaignManifest, CellStatus, ManifestStore};
use crate::report::CellReport;
use crate::supervise::{run_cell, CellOutcome, ChildCommand, Supervision};
use simpadv_obs::Artifact;
use simpadv_resilience::backoff::derive_seed;
use simpadv_trace::clock::WallTimer;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A campaign bound to its durable home directory.
pub struct Campaign {
    dir: PathBuf,
    store: ManifestStore,
    manifest: CampaignManifest,
    trace_dir: Option<PathBuf>,
}

/// Where a cell's durable files live: `<dir>/cells/<id>/`.
fn cell_dir(campaign_dir: &Path, cell_id: &str) -> PathBuf {
    campaign_dir.join("cells").join(cell_id)
}

impl Campaign {
    /// Creates a fresh campaign: validates the config, writes manifest
    /// generation 1, and refuses to clobber an existing campaign.
    ///
    /// # Errors
    ///
    /// [`SweepError::Config`] when `dir` already holds a valid manifest
    /// (resume instead) or the config is invalid; persistence errors
    /// otherwise.
    pub fn start(dir: &Path, config: CampaignConfig) -> Result<Campaign, SweepError> {
        let store = ManifestStore::open(dir)?;
        if store.load_latest()?.is_some() {
            return Err(SweepError::Config(format!(
                "{} already holds a campaign; rerun with --resume to continue it",
                dir.display()
            )));
        }
        let manifest = CampaignManifest::new(config)?;
        store.save(&manifest)?;
        Ok(Campaign { dir: dir.to_path_buf(), store, manifest, trace_dir: None })
    }

    /// Reopens a campaign from its newest valid manifest generation.
    ///
    /// # Errors
    ///
    /// [`SweepError::NothingToResume`] when no valid generation exists.
    pub fn resume(dir: &Path) -> Result<Campaign, SweepError> {
        let store = ManifestStore::open(dir)?;
        let Some((_, manifest)) = store.load_latest()? else {
            return Err(SweepError::NothingToResume(dir.display().to_string()));
        };
        Ok(Campaign { dir: dir.to_path_buf(), store, manifest, trace_dir: None })
    }

    /// Enables cross-process campaign tracing: each cell attempt writes
    /// its own JSONL trace under `dir`, stitched to the orchestrator's
    /// trace through the attempt span's context (injected into the
    /// child's environment as `SIMPADV_TRACEPARENT`). The caller is
    /// expected to have installed the orchestrator's own sink in the
    /// same directory.
    pub fn set_trace_dir(&mut self, dir: &Path) {
        self.trace_dir = Some(dir.to_path_buf());
    }

    /// Read access to the current manifest (tests, status display).
    pub fn manifest(&self) -> &CampaignManifest {
        &self.manifest
    }

    /// Drives every cell to a terminal status, then writes the
    /// aggregate to `out`. Returns the final artifact.
    ///
    /// `command` launches cell children; `progress` receives one line
    /// per transition (the CLI passes stderr; tests pass a sink).
    ///
    /// # Errors
    ///
    /// Persistence and spawn failures abort the run (safely: the
    /// manifest reflects the last completed transition). Cell failures
    /// never do.
    pub fn run(
        &mut self,
        command: &ChildCommand,
        chaos: ChaosConfig,
        out: &Path,
        progress: &mut dyn Write,
    ) -> Result<Artifact, SweepError> {
        // With a trace directory, the campaign is the root of a
        // cross-process trace whose id is a pure function of the grid
        // seed — a resumed orchestrator regrows the same trace id, so
        // its spans land in the same campaign tree.
        if self.trace_dir.is_some() {
            simpadv_trace::set_trace_root(simpadv_trace::context::derive_trace_id(
                "sweep",
                self.manifest.config.grid.seed,
            ));
        }
        let _campaign_span = simpadv_trace::span!(
            "sweep",
            cells = self.manifest.cells.len() as u64,
            budget = u64::from(self.manifest.config.retry.budget)
        );
        let wall = WallTimer::start();
        let mut chaos = ChaosState::new(chaos);

        // Running-on-load = the previous orchestrator died mid-cell.
        // The attempt was charged at spawn; fold back into the retry
        // path and let the quarantine gate below arbitrate.
        let mut interrupted = 0u32;
        for cell in &mut self.manifest.cells {
            if cell.status == CellStatus::Running {
                cell.status = CellStatus::Pending;
                cell.last_error
                    .get_or_insert_with(|| "orchestrator died while cell was running".to_string());
                interrupted += 1;
            }
        }
        if interrupted > 0 {
            self.store.save(&self.manifest)?;
            let _ = writeln!(progress, "resume: folded {interrupted} in-flight cell(s) back");
        }

        while let Some(i) = self.manifest.cells.iter().position(|c| c.status == CellStatus::Pending)
        {
            self.drive_cell(i, command, &mut chaos, progress)?;
        }

        let artifact = self.aggregate(wall.elapsed_seconds())?;
        simpadv_resilience::write_json_atomic(out, &artifact)?;
        let _ = writeln!(
            progress,
            "campaign done: {} completed, {} quarantined -> {}",
            self.manifest.count(CellStatus::Done),
            self.manifest.count(CellStatus::Quarantined),
            out.display()
        );
        Ok(artifact)
    }

    /// Runs one cell to a terminal status through the retry machine.
    fn drive_cell(
        &mut self,
        i: usize,
        command: &ChildCommand,
        chaos: &mut ChaosState,
        progress: &mut dyn Write,
    ) -> Result<(), SweepError> {
        let (cell_id, cell_index) =
            (self.manifest.cells[i].spec.id.clone(), self.manifest.cells[i].spec.index);
        let _cell_span = simpadv_trace::span!("sweep/cell", index = cell_index);
        let retry = self.manifest.config.retry.clone();
        let policy = backoff_for(&retry);
        let backoff_seed = derive_seed(self.manifest.config.grid.seed, cell_index);

        loop {
            let attempts = self.manifest.cells[i].attempts;
            // Quarantine gate: per-cell attempt cap, then the shared
            // campaign budget (first attempts are free; only re-attempts
            // draw from it).
            if attempts >= retry.max_attempts {
                return self.quarantine(i, "attempt cap reached", progress);
            }
            if attempts > 0 {
                if self.manifest.retries_spent >= retry.budget {
                    return self.quarantine(i, "campaign retry budget exhausted", progress);
                }
                self.manifest.retries_spent += 1;
                simpadv_trace::counter("sweep/retries", 1);
                let delay_us = policy.delay_us(backoff_seed, attempts - 1);
                let _ = writeln!(
                    progress,
                    "cell {cell_id}: retry {attempts} after {delay_us}us backoff"
                );
                crate::supervise::sleep_us(delay_us);
            }

            // Transition: -> Running. Saved BEFORE the spawn so a crash
            // during the child leaves the attempt visibly charged.
            self.manifest.cells[i].status = CellStatus::Running;
            self.manifest.cells[i].attempts += 1;
            self.store.save(&self.manifest)?;
            simpadv_trace::counter("sweep/spawns", 1);

            let attempt = self.manifest.cells[i].attempts;
            // Attempt numbers are charged-at-spawn and never reused, so
            // the per-attempt trace file name is collision-free even
            // across orchestrator crashes and resumes.
            let trace_file = self.trace_dir.as_ref().map(|d| {
                let name = format!("{cell_id}.attempt{attempt:03}.jsonl");
                let path = d.join(&name);
                (name, path)
            });
            // The trace_file field is the collector's orphan detector:
            // an attempt span naming a trace that no stitched events
            // arrived from is a cell that died before its first flush.
            let attempt_span = match &trace_file {
                Some((name, _)) => simpadv_trace::span!(
                    "sweep/attempt",
                    n = u64::from(attempt),
                    trace_file = name.as_str()
                ),
                None => simpadv_trace::span!("sweep/attempt", n = u64::from(attempt)),
            };
            let outcome = {
                let spec = &self.manifest.cells[i].spec;
                let dir = cell_dir(&self.dir, &spec.id);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| SweepError::Supervise(format!("create {}: {e}", dir.display())))?;
                let mut child_env = Vec::new();
                if let (Some((_, path)), Some(ctx)) = (&trace_file, attempt_span.context()) {
                    child_env.push(("SIMPADV_TRACE".to_string(), path.display().to_string()));
                    child_env.push(("SIMPADV_TRACE_FORMAT".to_string(), "jsonl".to_string()));
                    child_env.push(("SIMPADV_TRACEPARENT".to_string(), ctx.encode()));
                }
                let supervision = Supervision {
                    deadline_us: self.manifest.config.cell_deadline_us,
                    kill_after_us: chaos.next_kill_after_us(),
                    child_failpoints: chaos.child_failpoints().map(str::to_string),
                    child_env,
                };
                run_cell(command, &self.cell_args(i), &supervision)?
            };
            drop(attempt_span);

            let report_path = cell_dir(&self.dir, &cell_id).join("report.json");
            // Exit 0 alone is not completion: the report must exist and
            // validate (CRC + schema). A child killed between its last
            // checkpoint and the report rename exits 0-less anyway, but
            // a torn/damaged report with a clean exit is still a retry.
            let failure = match outcome {
                CellOutcome::Completed => match CellReport::load(&report_path) {
                    Ok(_) => None,
                    Err(e) => Some(format!("exit 0 but report invalid: {e}")),
                },
                other => Some(other.describe()),
            };

            match failure {
                None => {
                    self.manifest.cells[i].status = CellStatus::Done;
                    self.manifest.cells[i].last_error = None;
                    self.store.save(&self.manifest)?;
                    simpadv_trace::counter("sweep/completed", 1);
                    let _ = writeln!(progress, "cell {cell_id}: done (attempt {attempt})");
                    return Ok(());
                }
                Some(cause) => {
                    self.manifest.cells[i].status = CellStatus::Pending;
                    self.manifest.cells[i].last_error = Some(cause.clone());
                    self.store.save(&self.manifest)?;
                    let _ = writeln!(progress, "cell {cell_id}: attempt {attempt} failed: {cause}");
                }
            }
        }
    }

    /// Transition: -> Quarantined. Never fatal to the campaign.
    fn quarantine(
        &mut self,
        i: usize,
        gate: &str,
        progress: &mut dyn Write,
    ) -> Result<(), SweepError> {
        let cause = match &self.manifest.cells[i].last_error {
            Some(e) => format!("{gate}; last failure: {e}"),
            None => gate.to_string(),
        };
        self.manifest.cells[i].status = CellStatus::Quarantined;
        self.manifest.cells[i].last_error = Some(cause.clone());
        self.store.save(&self.manifest)?;
        simpadv_trace::counter("sweep/quarantined", 1);
        let _ =
            writeln!(progress, "cell {}: quarantined ({cause})", self.manifest.cells[i].spec.id);
        Ok(())
    }

    /// The child argv for one cell attempt: the CLI `train` verb with a
    /// per-cell checkpoint directory, `--resume latest` so a retried
    /// attempt continues from the crashed one's newest valid
    /// checkpoint, and `--report` as the completion contract.
    fn cell_args(&self, i: usize) -> Vec<String> {
        let spec = &self.manifest.cells[i].spec;
        let grid = &self.manifest.config.grid;
        let dir = cell_dir(&self.dir, &spec.id);
        vec![
            "train".to_string(),
            "--dataset".to_string(),
            grid.dataset.clone(),
            "--method".to_string(),
            spec.method.clone(),
            "--eps".to_string(),
            format!("{}", spec.eps),
            "--epochs".to_string(),
            grid.epochs.to_string(),
            "--samples".to_string(),
            spec.samples.to_string(),
            "--test-samples".to_string(),
            grid.test_samples.to_string(),
            "--seed".to_string(),
            grid.seed.to_string(),
            "--threads".to_string(),
            spec.threads.to_string(),
            "--checkpoint-dir".to_string(),
            dir.join("ckpts").display().to_string(),
            "--checkpoint-every".to_string(),
            "1".to_string(),
            "--resume".to_string(),
            "latest".to_string(),
            "--report".to_string(),
            dir.join("report.json").display().to_string(),
        ]
    }

    /// Builds the aggregate from the terminal manifest + cell reports:
    /// the grid scale, one `cell/<id>` row per completed cell and one
    /// `quarantine/<id>` row per quarantined cell (logical), retries
    /// spent and quarantine causes (warn-only), attempts and wall (meta).
    fn aggregate(&self, wall_total_s: f64) -> Result<Artifact, SweepError> {
        let grid = &self.manifest.config.grid;
        let mut artifact = Artifact::new("sweep");
        artifact.set("scale", "dataset", &grid.dataset);
        artifact.set("scale", "epochs", grid.epochs);
        artifact.set("scale", "seed", grid.seed);
        artifact.set("scale", "test_samples", grid.test_samples);
        artifact.set("scale", "methods", &grid.methods);
        let epsilons: Vec<f64> = grid.epsilons.iter().map(|e| f64::from(*e)).collect();
        artifact.set("scale", "epsilons", epsilons);
        artifact.set("scale", "samples", &grid.samples);
        artifact.set("scale", "threads", &grid.threads);
        let mut completed = 0u64;
        for cell in &self.manifest.cells {
            let id = &cell.spec.id;
            match cell.status {
                CellStatus::Done => {
                    let report = CellReport::load(&cell_dir(&self.dir, id).join("report.json"))?;
                    let row = format!("cell/{id}");
                    artifact.set(&row, "method", &cell.spec.method);
                    artifact.set(&row, "eps", f64::from(report.eps));
                    artifact.set(&row, "samples", report.samples);
                    artifact.set(&row, "threads", cell.spec.threads);
                    artifact.set(&row, "final_loss", f64::from(report.final_loss));
                    artifact.set(&row, "columns", &report.columns);
                    let accuracies: Vec<f64> =
                        report.accuracies.iter().map(|a| f64::from(*a)).collect();
                    artifact.set(&row, "accuracies", accuracies);
                    completed += 1;
                }
                CellStatus::Quarantined => {
                    let row = format!("quarantine/{id}");
                    artifact.set(&row, "method", &cell.spec.method);
                    let cause = cell.last_error.as_deref().unwrap_or("retry allowance exhausted");
                    artifact.set_warn(&row, "cause", cause);
                }
                CellStatus::Pending | CellStatus::Running => {
                    return Err(SweepError::Config(format!(
                        "cell {id} is not terminal; aggregate called too early"
                    )));
                }
            }
        }
        artifact.set("campaign", "completed", completed);
        artifact.set_warn("run", "retries_spent", u64::from(self.manifest.retries_spent));
        let attempts_total: u64 = self.manifest.cells.iter().map(|c| u64::from(c.attempts)).sum();
        artifact.set_meta("attempts_total", attempts_total);
        artifact.set_meta("wall_total_s", wall_total_s);
        Ok(artifact)
    }
}
