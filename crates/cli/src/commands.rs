//! Subcommand implementations.

use crate::args::{Args, ParseError};
use simpadv::train::{
    AtdaTrainer, BimAdvTrainer, CheckpointSession, FgsmAdvTrainer, FreeAdvTrainer, ProposedTrainer,
    Trainer, VanillaTrainer,
};
use simpadv::{EvalSuite, ModelSpec, TrainConfig};
use simpadv_attacks::{Attack, Bim, Fgsm, LeastLikelyFgsm, Mim, Pgd, RandomNoise};
use simpadv_data::{ascii_image, SynthConfig, SynthDataset};
use simpadv_resilience::PersistError;
use simpadv_serve::{ServeError, ServedModel};
use std::error::Error;
use std::fmt;
use std::io::Write;

/// A CLI failure: bad arguments or a failing operation.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError(e.0)
    }
}

impl From<Box<dyn Error>> for CliError {
    fn from(e: Box<dyn Error>) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<PersistError> for CliError {
    fn from(e: PersistError) -> Self {
        CliError(e.to_string())
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        match e {
            // a model file's persistence error reads as the bare cause
            ServeError::Persist(e) => e.into(),
            e => CliError(e.to_string()),
        }
    }
}

impl From<simpadv_obs::ObsError> for CliError {
    fn from(e: simpadv_obs::ObsError) -> Self {
        CliError(e.to_string())
    }
}

/// Usage text printed by `help` and on argument errors.
pub const USAGE: &str = "\
simpadv — simplified adversarial training (Liu et al., 2019 reproduction)

USAGE: simpadv-cli <command> [--option value ...]

COMMANDS
  generate  --dataset mnist|fashion [--samples N] [--seed S] [--preview K]
  train     --dataset mnist|fashion [--method M] [--eps E] [--epochs N]
            [--samples N] [--seed S] [--out FILE] [--checkpoint-dir DIR]
            [--checkpoint-every N] [--resume latest] [--report FILE]
            [--test-samples N]
            methods: vanilla fgsm atda proposed free bim10 bim30
            with --checkpoint-dir, a full training snapshot is written
            every N epochs (default 1); --resume latest continues from
            the newest valid snapshot, bitwise identical to an
            uninterrupted run; --eps overrides the dataset's paper
            epsilon; --report evaluates on a held-out set (--test-samples,
            default 200) and writes a sealed cell report — the completion
            contract sweep cells are judged by
  evaluate  --model FILE --dataset mnist|fashion [--samples N] [--seed S]
  attack    --model FILE --dataset mnist|fashion [--attack A] [--index I]
            attacks: noise fgsm llfgsm bim10 bim30 pgd10 mim10
  serve     --model-dir DIR [--addr HOST:PORT] [--batch-max N]
            [--queue-cap N] [--watch-interval-us N] [--requests N]
            [--addr-file FILE]
            batched inference over HTTP with hot-swap: serves the newest
            valid generation in DIR, running whatever is queued (up to
            --batch-max N) as one forward pass without waiting for more,
            keeping connections alive, shedding load with 503 when the
            queue is full, and atomically swapping in new checkpoint
            generations as they appear; --requests N exits after N
            answers (absent or 0: serve until killed), --addr-file
            writes the bound address (useful with an ephemeral port 0)
  sweep     --dir DIR [--resume latest] [--dataset mnist|fashion]
            [--methods M,..] [--eps E,..] [--samples-list N,..]
            [--threads-list N,..] [--epochs N] [--seed S]
            [--test-samples N] [--cell-deadline-us N] [--retry-base-us N]
            [--retry-cap-us N] [--max-attempts N] [--retry-budget N]
            [--out FILE] [--bin FILE] [--trace-dir DIR]
            [--chaos-kill-cell-after-us N]
            [--chaos-kill-cell-times N] [--chaos-child-failpoints SPEC]
            run a campaign: the method x eps x samples x threads grid
            expands into cells, each a supervised child `train` process
            with its own checkpoint dir and wall deadline; crashed cells
            retry with capped exponential backoff (seeded jitter),
            resuming from their latest valid checkpoint, until the
            per-cell attempt cap or campaign retry budget quarantines
            them (non-fatal, but reflected in the exit code); campaign
            state is a CRC-sealed generation-numbered manifest saved on
            every transition, so after SIGKILL `sweep --dir D --resume
            latest` continues exactly (grid flags are then ignored);
            writes the BENCH_sweep.json aggregate (default --out), whose
            logical rows are bitwise identical however often the
            campaign was interrupted; chaos flags deliberately kill
            cells or inject child failpoints to prove that;
            --trace-dir enables cross-process campaign tracing: the
            orchestrator's own trace lands in DIR as
            orchestrator.NNN.jsonl (one file per incarnation) and every
            cell attempt writes its own JSONL trace there, stitched
            into one campaign tree by `trace assemble`
  sweep trace DIR [--weight wall|flops|work|attack-steps] [--out FILE]
            assemble a campaign's --trace-dir directory and render the
            unified campaign flamegraph (collapsed-stack), with an
            orphan/salvage summary
  trace assemble DIR [--out FILE] [--project raw|logical]
            stitch the per-process JSONL traces a `sweep --trace-dir`
            campaign left behind into one rooted campaign span tree:
            cell traces graft under their attempt spans via remote
            parent links, cells killed before their first flush appear
            as explicit synthetic orphan nodes, and torn tails are
            salvaged; --project logical applies the attempt-merging
            projection under which a chaos-interrupted and resumed
            campaign is byte-identical to an uninterrupted one
  trace summarize FILE
            fold a JSONL trace into per-span aggregate timings
  trace flame FILE [--weight wall|flops|work|attack-steps] [--out FILE]
            emit an inferno-compatible collapsed-stack flamegraph
  trace top FILE [--by self-wall|total-wall|self-work|total-work|
            self-flops|total-flops] [--limit N]
            rank span paths by self/total cost attribution
  trace diff A B [--wall-threshold PCT]
            compare two traces: logical content must be identical
            (non-zero exit otherwise); wall drift beyond the threshold
            (default 25%) is only warned about
  bench compare BASELINE CANDIDATE [--wall-threshold PCT]
            compare two BENCH_<experiment>.json artifacts (schema v2,
            any producer): a differing experiment tag or any logical
            row difference exits non-zero; warn-only numbers drifting
            beyond the threshold (default 25%) and other warn-only
            changes only warn (the CI perf gate); truncated artifacts
            and repeated row ids or field names get typed errors
  bench compare --all DIR
            self-gate every BENCH_*.json in DIR through the same
            comparison: each artifact must parse and compare clean
            against itself; prints a per-artifact pass/fail table and
            exits non-zero if any fails
  bench kernels [--scale smoke|quick|full] [--target-us N] [--repeat N]
            [--warmup N] [--out FILE] [--flame-dir DIR]
            run the kernel microbenchmark lab: every hot kernel at real
            experiment shapes; logical counters are gateable, wall
            numbers land in meta
  help

GLOBAL OPTIONS
  --threads N  worker threads for training/evaluation (default: the
               SIMPADV_THREADS environment variable, else all cores);
               results are bitwise identical for any N
  --trace FILE          write a structured event trace of the run
  --trace-format F      jsonl (default) or pretty; the SIMPADV_TRACE /
                        SIMPADV_TRACE_FORMAT environment variables are
                        the equivalent ambient switches
";

/// Dispatches a parsed command line, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, bad options or I/O failures.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    apply_threads(args)?;
    if !matches!(args.command.as_str(), "trace" | "bench" | "sweep") {
        args.expect_no_positionals()?;
    }
    let tracing = apply_trace(args)?;
    let result = match args.command.as_str() {
        "generate" => cmd_generate(args, out),
        "train" => cmd_train(args, out),
        "evaluate" => cmd_evaluate(args, out),
        "attack" => cmd_attack(args, out),
        "serve" => cmd_serve(args, out),
        "sweep" => cmd_sweep(args, out),
        "trace" => cmd_trace(args, out),
        "bench" => cmd_bench(args, out),
        "help" => writeln!(out, "{USAGE}").map_err(CliError::from),
        other => Err(CliError(format!("unknown command '{other}'\n\n{USAGE}"))),
    };
    if tracing {
        // flush the trace even when the command failed
        simpadv_trace::uninstall();
    }
    result
}

/// Applies the global `--threads` option: sets the process-wide worker
/// count every subcommand's training/evaluation runs with. Absent, the
/// runtime falls back to `SIMPADV_THREADS`, then to all cores.
fn apply_threads(args: &Args) -> Result<(), CliError> {
    if let Ok(v) = args.require("threads") {
        let n: usize =
            v.parse().map_err(|_| CliError(format!("option --threads: cannot parse '{v}'")))?;
        simpadv_runtime::try_set_global_threads(n).map_err(|e| CliError(e.to_string()))?;
    }
    Ok(())
}

/// Applies the global `--trace` / `--trace-format` options: installs a
/// file sink for the duration of the dispatched command. Returns whether
/// a sink was installed (so [`run`] knows to flush and remove it).
fn apply_trace(args: &Args) -> Result<bool, CliError> {
    let Ok(path) = args.require("trace") else {
        return Ok(false);
    };
    let name = args.get_or("trace-format", "jsonl");
    let format = simpadv_trace::TraceFormat::parse(name)
        .ok_or_else(|| CliError(format!("unknown trace format '{name}' (jsonl|pretty)")))?;
    simpadv_trace::install_file(std::path::Path::new(path), format)
        .map_err(|e| CliError(format!("cannot open trace file {path}: {e}")))?;
    Ok(true)
}

fn parse_dataset(args: &Args) -> Result<SynthDataset, CliError> {
    match args.require("dataset")? {
        "mnist" => Ok(SynthDataset::Mnist),
        "fashion" => Ok(SynthDataset::Fashion),
        other => Err(CliError(format!("unknown dataset '{other}' (mnist|fashion)"))),
    }
}

fn parse_method(name: &str, eps: f32) -> Result<(Box<dyn Trainer>, &'static str), CliError> {
    Ok(match name {
        "vanilla" => (Box::new(VanillaTrainer::new()), "vanilla"),
        "fgsm" => (Box::new(FgsmAdvTrainer::new(eps)), "fgsm-adv"),
        "atda" => (Box::new(AtdaTrainer::new(eps)), "atda"),
        "proposed" => (Box::new(ProposedTrainer::paper_defaults(eps)), "proposed"),
        "free" => (Box::new(FreeAdvTrainer::new(eps, 4)), "free(4)-adv"),
        "bim10" => (Box::new(BimAdvTrainer::new(eps, 10)), "bim(10)-adv"),
        "bim30" => (Box::new(BimAdvTrainer::new(eps, 30)), "bim(30)-adv"),
        other => return Err(CliError(format!("unknown method '{other}'"))),
    })
}

fn parse_attack(name: &str, eps: f32, seed: u64) -> Result<Box<dyn Attack>, CliError> {
    Ok(match name {
        "noise" => Box::new(RandomNoise::new(eps, seed)),
        "fgsm" => Box::new(Fgsm::new(eps)),
        "llfgsm" => Box::new(LeastLikelyFgsm::new(eps)),
        "bim10" => Box::new(Bim::new(eps, 10)),
        "bim30" => Box::new(Bim::new(eps, 30)),
        "pgd10" => Box::new(Pgd::new(eps, 10, seed)),
        "mim10" => Box::new(Mim::new(eps, 10, 1.0)),
        other => return Err(CliError(format!("unknown attack '{other}'"))),
    })
}

fn cmd_generate<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&[
        "dataset",
        "samples",
        "seed",
        "preview",
        "threads",
        "trace",
        "trace-format",
    ])?;
    let dataset = parse_dataset(args)?;
    let samples = args.get_num("samples", 100usize)?;
    let seed = args.get_num("seed", 1u64)?;
    let preview = args.get_num("preview", 0usize)?;
    let data = dataset.generate(&SynthConfig::new(samples, seed));
    writeln!(
        out,
        "generated {} '{}' images ({} classes, mean intensity {:.3})",
        data.len(),
        dataset.id(),
        data.num_classes(),
        data.images().mean()
    )?;
    for i in 0..preview.min(data.len()) {
        writeln!(out, "label {}:", data.labels()[i])?;
        writeln!(out, "{}", ascii_image(&data.images().row(i)))?;
    }
    Ok(())
}

fn cmd_train<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&[
        "dataset",
        "method",
        "eps",
        "epochs",
        "samples",
        "seed",
        "out",
        "lr",
        "checkpoint-dir",
        "checkpoint-every",
        "resume",
        "report",
        "test-samples",
        "threads",
        "trace",
        "trace-format",
    ])?;
    let dataset = parse_dataset(args)?;
    let eps = parse_eps(args, dataset.paper_epsilon())?;
    let method = args.get_or("method", "proposed").to_string();
    let epochs = args.get_num("epochs", 40usize)?;
    let samples = args.get_num("samples", 1000usize)?;
    let seed = args.get_num("seed", 1u64)?;
    let lr = args.get_num("lr", 0.1f32)?;
    let (mut trainer, method_id) = parse_method(&method, eps)?;
    let mut session = parse_checkpointing(args)?;

    let train = dataset.generate(&SynthConfig::new(samples, seed));
    let spec = ModelSpec::default_mlp();
    let mut clf = spec.build(seed);
    let config = TrainConfig::new(epochs, seed).with_learning_rate(lr).with_lr_decay(0.97);
    writeln!(out, "training {method_id} on {} ({samples} images, {epochs} epochs)", dataset.id())?;
    let report = trainer.train_resumable(&mut clf, &train, &config, &mut session)?;
    writeln!(
        out,
        "final loss {:.4}, {:.3}s/epoch, {:.0} gradient passes/epoch",
        report.final_loss(),
        report.mean_epoch_seconds(),
        report.mean_gradient_passes()
    )?;
    if let Ok(path) = args.require("out") {
        ServedModel::capture(&spec, &clf, dataset.id(), method_id).save_to(path)?;
        writeln!(out, "wrote {path}")?;
    }
    if let Ok(path) = args.require("report") {
        // The sealed cell report is the sweep orchestrator's completion
        // contract: evaluation on a held-out set (disjoint seed), then
        // one atomic, CRC-sealed write. Everything in it is logical, so
        // a retried/resumed cell reproduces the file bit for bit.
        let test_samples = args.get_num("test-samples", 200usize)?;
        let test = dataset.generate(&SynthConfig::new(test_samples, seed + 1));
        let eval = EvalSuite::paper(eps).run(&mut clf, &test);
        let cell = simpadv_sweep::CellReport {
            schema_version: simpadv_sweep::CELL_REPORT_VERSION,
            dataset: dataset.id().to_string(),
            method_id: method.clone(),
            eps,
            epochs: epochs as u64,
            samples: samples as u64,
            test_samples: test_samples as u64,
            seed,
            final_loss: report.final_loss(),
            columns: eval.columns.clone(),
            accuracies: eval.accuracies.clone(),
        };
        cell.save(std::path::Path::new(path)).map_err(|e| CliError(e.to_string()))?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

/// Parses the optional `--eps` override; absent, the dataset's paper
/// epsilon applies.
fn parse_eps(args: &Args, default: f32) -> Result<f32, CliError> {
    match args.require("eps") {
        Err(_) => Ok(default),
        Ok(v) => {
            let eps: f32 =
                v.parse().map_err(|_| CliError(format!("option --eps: cannot parse '{v}'")))?;
            if !eps.is_finite() || eps < 0.0 {
                return Err(CliError(format!("option --eps: {eps} must be finite and >= 0")));
            }
            Ok(eps)
        }
    }
}

/// Builds the train command's [`CheckpointSession`] from
/// `--checkpoint-dir DIR`, `--checkpoint-every N` and `--resume latest`.
fn parse_checkpointing(args: &Args) -> Result<CheckpointSession, CliError> {
    let resume = match args.require("resume") {
        Ok("latest") => true,
        Ok(other) => {
            return Err(CliError(format!("unknown --resume mode '{other}' (expected: latest)")))
        }
        Err(_) => false,
    };
    match args.require("checkpoint-dir") {
        Ok(dir) => {
            let every = args.get_num("checkpoint-every", 1usize)?;
            Ok(CheckpointSession::new(dir, every)?.with_resume(resume))
        }
        Err(_) if resume => Err(CliError("--resume requires --checkpoint-dir".into())),
        Err(_) => Ok(CheckpointSession::disabled()),
    }
}

fn cmd_evaluate<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["model", "dataset", "samples", "seed", "threads", "trace", "trace-format"])?;
    let dataset = parse_dataset(args)?;
    let saved = ServedModel::load_file(args.require("model")?)?;
    let mut clf = saved.restore()?;
    let samples = args.get_num("samples", 400usize)?;
    let seed = args.get_num("seed", 2u64)?;
    let test = dataset.generate(&SynthConfig::new(samples, seed));
    writeln!(
        out,
        "evaluating {} model (trained with {}) on {} x {}",
        saved.spec.id(),
        saved.method,
        dataset.id(),
        samples
    )?;
    let result = EvalSuite::paper(dataset.paper_epsilon()).run(&mut clf, &test);
    writeln!(out, "{result}")?;
    Ok(())
}

fn cmd_attack<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&[
        "model",
        "dataset",
        "attack",
        "index",
        "seed",
        "threads",
        "trace",
        "trace-format",
    ])?;
    let dataset = parse_dataset(args)?;
    let saved = ServedModel::load_file(args.require("model")?)?;
    let mut clf = saved.restore()?;
    let seed = args.get_num("seed", 3u64)?;
    let index = args.get_num("index", 0usize)?;
    let eps = dataset.paper_epsilon();
    let mut attack = parse_attack(args.get_or("attack", "bim10"), eps, seed)?;

    let data = dataset.generate(&SynthConfig::new(index + 1, seed));
    let x = data.images().rows(index..index + 1);
    let y = vec![data.labels()[index]];
    let adv = attack.perturb(&mut clf, &x, &y);
    let pred_clean = clf.predict(&x)[0];
    let pred_adv = clf.predict(&adv)[0];
    writeln!(out, "true label {}, clean prediction {pred_clean}", y[0])?;
    writeln!(out, "{}", ascii_image(&x.row(0)))?;
    writeln!(
        out,
        "{} (eps {eps}): prediction {pred_adv} ({})",
        attack.id(),
        if pred_adv == y[0] { "still correct" } else { "FOOLED" }
    )?;
    writeln!(out, "{}", ascii_image(&adv.row(0)))?;
    Ok(())
}

/// `serve` — the batched adversarial-aware inference server
/// (`crates/serve`) behind a checkpoint directory.
fn cmd_serve<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&[
        "model-dir",
        "addr",
        "batch-max",
        "queue-cap",
        "watch-interval-us",
        "requests",
        "addr-file",
        "threads",
        "trace",
        "trace-format",
    ])?;
    let model_dir = args.require("model-dir")?;
    let cfg = simpadv_serve::ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:0").to_string(),
        model_dir: std::path::PathBuf::from(model_dir),
        batch: simpadv_serve::BatchConfig {
            batch_max: args.get_num("batch-max", 16usize)?,
            queue_cap: args.get_num("queue-cap", 64usize)?,
        },
        watch_interval_us: args.get_num("watch-interval-us", 200_000u64)?,
    };
    if cfg.batch.batch_max == 0 || cfg.batch.queue_cap == 0 {
        return Err(CliError("--batch-max and --queue-cap must be positive".into()));
    }
    let requests = args.get_num("requests", 0u64)?;
    let server = simpadv_serve::Server::start(cfg).map_err(|e| CliError(e.to_string()))?;
    let bound = server.local_addr();
    writeln!(
        out,
        "serving generation {} ({}) on http://{bound} — POST /predict, GET /healthz, \
         GET /stats, POST /rescan",
        server.engine().current_generation(),
        server.engine().method(),
    )?;
    out.flush()?;
    if let Ok(path) = args.require("addr-file") {
        simpadv_resilience::atomic_write(std::path::Path::new(path), bound.as_bytes())?;
    }
    if requests == 0 {
        // Serve until the process is killed.
        server.wait_served(u64::MAX);
        return Ok(());
    }
    server.wait_served(requests);
    let stats = server.shutdown();
    writeln!(
        out,
        "served {} request(s), {} rejected, {} hot swap(s); shutting down",
        stats.served, stats.rejected, stats.swapped_generations
    )?;
    Ok(())
}

/// `sweep` — the crash-resilient campaign orchestrator
/// (`crates/sweep`): expands a declarative grid into supervised `train`
/// child processes with retry/backoff, quarantine, and a sealed
/// resumable manifest, then writes the `BENCH_sweep.json` aggregate.
fn cmd_sweep<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    match args.positional(0) {
        Some("trace") => return cmd_sweep_trace(args, out),
        Some(other) => {
            return Err(CliError(format!("unknown sweep action '{other}' (trace)")));
        }
        None => {}
    }
    args.expect_only(&[
        "dir",
        "resume",
        "dataset",
        "methods",
        "eps",
        "samples-list",
        "threads-list",
        "epochs",
        "seed",
        "test-samples",
        "cell-deadline-us",
        "retry-base-us",
        "retry-cap-us",
        "max-attempts",
        "retry-budget",
        "out",
        "bin",
        "trace-dir",
        "chaos-kill-cell-after-us",
        "chaos-kill-cell-times",
        "chaos-child-failpoints",
        "threads",
        "trace",
        "trace-format",
    ])?;
    let trace_dir = args.require("trace-dir").ok().map(std::path::PathBuf::from);
    if trace_dir.is_some() && args.require("trace").is_ok() {
        // Both install a process-global sink; the campaign trace owns it.
        return Err(CliError("--trace-dir and --trace are mutually exclusive".into()));
    }
    let dir = std::path::PathBuf::from(args.require("dir")?);
    let resume = match args.require("resume") {
        Ok("latest") => true,
        Ok(other) => {
            return Err(CliError(format!("unknown --resume mode '{other}' (expected: latest)")))
        }
        Err(_) => false,
    };
    let mut campaign = if resume {
        // Grid and retry policy come from the manifest; grid flags on a
        // resume invocation are ignored by design.
        simpadv_sweep::Campaign::resume(&dir).map_err(|e| CliError(e.to_string()))?
    } else {
        let dataset = args.get_or("dataset", "mnist").to_string();
        let default_eps = match dataset.as_str() {
            "fashion" => SynthDataset::Fashion.paper_epsilon(),
            _ => SynthDataset::Mnist.paper_epsilon(),
        };
        let epsilons = match args.require("eps") {
            Ok(list) => simpadv_sweep::grid::parse_f32_list(list).map_err(CliError)?,
            Err(_) => vec![default_eps],
        };
        let defaults = simpadv_sweep::RetryConfig::default();
        let config = simpadv_sweep::CampaignConfig {
            schema_version: simpadv_sweep::MANIFEST_VERSION,
            grid: simpadv_sweep::GridSpec {
                dataset,
                epochs: args.get_num("epochs", 4u64)?,
                seed: args.get_num("seed", 2019u64)?,
                test_samples: args.get_num("test-samples", 100u64)?,
                methods: simpadv_sweep::grid::parse_method_list(
                    args.get_or("methods", "vanilla,proposed"),
                )
                .map_err(CliError)?,
                epsilons,
                samples: simpadv_sweep::grid::parse_u64_list(args.get_or("samples-list", "200"))
                    .map_err(CliError)?,
                threads: simpadv_sweep::grid::parse_u64_list(args.get_or("threads-list", "1"))
                    .map_err(CliError)?,
            },
            retry: simpadv_sweep::RetryConfig {
                base_us: args.get_num("retry-base-us", defaults.base_us)?,
                cap_us: args.get_num("retry-cap-us", defaults.cap_us)?,
                max_attempts: args.get_num("max-attempts", defaults.max_attempts)?,
                budget: args.get_num("retry-budget", defaults.budget)?,
            },
            cell_deadline_us: args.get_num("cell-deadline-us", 600_000_000u64)?,
        };
        simpadv_sweep::Campaign::start(&dir, config).map_err(|e| CliError(e.to_string()))?
    };

    let program = match args.require("bin") {
        Ok(path) => std::path::PathBuf::from(path),
        Err(_) => std::env::current_exe()
            .map_err(|e| CliError(format!("cannot locate own executable for cells: {e}")))?,
    };
    let command = simpadv_sweep::ChildCommand { program, prefix_args: Vec::new() };
    let kill_after_us = args.get_num("chaos-kill-cell-after-us", 0u64)?;
    let chaos = simpadv_sweep::ChaosConfig {
        kill_cell_after_us: (kill_after_us > 0).then_some(kill_after_us),
        kill_cell_times: args.get_num("chaos-kill-cell-times", 1u32)?,
        child_failpoints: args.require("chaos-child-failpoints").ok().map(str::to_string),
    };
    let out_path = std::path::PathBuf::from(args.get_or("out", "BENCH_sweep.json"));
    if let Some(tdir) = &trace_dir {
        std::fs::create_dir_all(tdir)
            .map_err(|e| CliError(format!("cannot create trace dir {}: {e}", tdir.display())))?;
        // One orchestrator trace per incarnation: a resumed campaign
        // takes the next free slot, so lexicographic file order is
        // incarnation order for the collector.
        let slot = orchestrator_trace_path(tdir)?;
        simpadv_trace::install_file(&slot, simpadv_trace::TraceFormat::Jsonl)
            .map_err(|e| CliError(format!("cannot open trace file {}: {e}", slot.display())))?;
        campaign.set_trace_dir(tdir);
    }
    let ran = campaign.run(&command, chaos, &out_path, out);
    if trace_dir.is_some() {
        // Flush and drop the orchestrator sink whatever the outcome —
        // a partial trace is still assemblable (crashed spans and all).
        simpadv_trace::uninstall();
    }
    let artifact = ran.map_err(|e| CliError(e.to_string()))?;
    match artifact.rows.keys().filter(|id| id.starts_with("quarantine/")).count() {
        0 => Ok(()),
        // Quarantine is not fatal to the campaign, but the exit code
        // must reflect that the aggregate is incomplete.
        n => Err(CliError(format!("sweep: {n} cell(s) quarantined"))),
    }
}

/// The first free `orchestrator.NNN.jsonl` slot in a campaign trace
/// directory, starting at 001.
fn orchestrator_trace_path(dir: &std::path::Path) -> Result<std::path::PathBuf, CliError> {
    for n in 1..=999u32 {
        let path = dir.join(format!("orchestrator.{n:03}.jsonl"));
        if !path.exists() {
            return Ok(path);
        }
    }
    Err(CliError(format!("{}: no free orchestrator trace slot (999 incarnations?)", dir.display())))
}

/// Reads every `*.jsonl` in a campaign trace directory into the
/// `(file name, content)` pairs [`simpadv_obs::assemble`] stitches.
/// File names (not paths) are the keys, because the orchestrator's
/// `trace_file` anchor fields record bare names.
fn read_trace_dir(dir: &str) -> Result<Vec<(String, String)>, CliError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError(format!("cannot read trace dir {dir}: {e}")))?;
    let mut inputs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CliError(format!("cannot list {dir}: {e}")))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(".jsonl") || !path.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError(format!("cannot read trace file {}: {e}", path.display())))?;
        inputs.push((name.to_string(), text));
    }
    if inputs.is_empty() {
        return Err(CliError(format!("no .jsonl trace files in {dir}")));
    }
    Ok(inputs)
}

/// Prints the assembly's stitching summary: inputs consumed, spans
/// auto-closed as crashed, orphan attempts, and salvaged torn tails.
fn write_assembly_summary<W: Write>(
    assembly: &simpadv_obs::Assembly,
    out: &mut W,
) -> Result<(), CliError> {
    writeln!(
        out,
        "assembled {} file(s): {} event(s), {} crashed span(s), {} orphan(s), {} salvaged",
        assembly.files.len(),
        assembly.events.len(),
        assembly.crashed_spans,
        assembly.orphans.len(),
        assembly.salvaged.len(),
    )?;
    for name in &assembly.orphans {
        writeln!(out, "  orphan attempt (died before first flush): {name}")?;
    }
    for name in &assembly.salvaged {
        writeln!(out, "  salvaged torn tail: {name}")?;
    }
    Ok(())
}

/// `sweep trace DIR` — assemble a campaign's `--trace-dir` directory
/// and render the unified campaign flamegraph.
fn cmd_sweep_trace<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&["threads", "trace", "trace-format", "weight", "out"])?;
    let dir =
        args.positional(1).ok_or_else(|| CliError("sweep trace needs a DIR argument".into()))?;
    if args.positional(2).is_some() {
        return Err(CliError("sweep trace takes exactly one DIR".into()));
    }
    let assembly = simpadv_obs::assemble(&read_trace_dir(dir)?)?;
    write_assembly_summary(&assembly, out)?;
    let tree = simpadv_obs::build_tree(&assembly.events)?;
    let name = args.get_or("weight", "wall");
    let weight = simpadv_obs::FlameWeight::parse(name).ok_or_else(|| {
        CliError(format!("unknown weight '{name}' (wall|flops|work|attack-steps)"))
    })?;
    let text = simpadv_obs::render_collapsed(&simpadv_obs::collapse(&tree, weight));
    if let Ok(dest) = args.require("out") {
        simpadv_resilience::atomic_write(std::path::Path::new(dest), text.as_bytes())
            .map_err(|e| CliError(format!("cannot write {dest}: {e}")))?;
        writeln!(out, "wrote {dest}")?;
    } else {
        write!(out, "{text}")?;
    }
    Ok(())
}

/// Reads and strictly parses a JSONL trace, mapping I/O and schema
/// problems (including a torn final line) to [`CliError`].
fn read_trace_events(path: &str) -> Result<Vec<simpadv_trace::Event>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read trace file {path}: {e}")))?;
    Ok(simpadv_obs::read_events(&text)?)
}

/// The single positional FILE of `trace summarize|flame|top`.
fn one_file<'a>(args: &'a Args, action: &str) -> Result<&'a str, CliError> {
    let path = args
        .positional(1)
        .ok_or_else(|| CliError(format!("trace {action} needs a FILE argument")))?;
    if args.positional(2).is_some() {
        return Err(CliError(format!("trace {action} takes exactly one FILE")));
    }
    Ok(path)
}

fn cmd_trace<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(&[
        "threads",
        "trace",
        "trace-format",
        "weight",
        "out",
        "by",
        "limit",
        "wall-threshold",
        "project",
    ])?;
    match args.positional(0) {
        Some("assemble") => {
            let dir = args
                .positional(1)
                .ok_or_else(|| CliError("trace assemble needs a DIR argument".into()))?;
            if args.positional(2).is_some() {
                return Err(CliError("trace assemble takes exactly one DIR".into()));
            }
            let assembly = simpadv_obs::assemble(&read_trace_dir(dir)?)?;
            write_assembly_summary(&assembly, out)?;
            let events = match args.get_or("project", "raw") {
                "raw" => assembly.events,
                // The logical projection: attempt spans merged away,
                // checkpoint scaffolding dropped, meta stripped — the
                // form in which chaos+resume equals uninterrupted.
                "logical" => simpadv_obs::normalize(&assembly.events)?,
                other => {
                    return Err(CliError(format!("unknown projection '{other}' (raw|logical)")))
                }
            };
            let mut text = String::new();
            for event in &events {
                text.push_str(&event.to_json_line());
                text.push('\n');
            }
            if let Ok(dest) = args.require("out") {
                simpadv_resilience::atomic_write(std::path::Path::new(dest), text.as_bytes())
                    .map_err(|e| CliError(format!("cannot write {dest}: {e}")))?;
                writeln!(out, "wrote {dest} ({} events)", events.len())?;
            } else {
                write!(out, "{text}")?;
            }
            Ok(())
        }
        Some("summarize") => {
            let events = read_trace_events(one_file(args, "summarize")?)?;
            let mut summary = simpadv_trace::Summary::default();
            for event in &events {
                summary.fold(event);
            }
            write!(out, "{}", summary.render())?;
            Ok(())
        }
        Some("flame") => {
            let path = one_file(args, "flame")?;
            let tree = simpadv_obs::build_tree(&read_trace_events(path)?)?;
            let name = args.get_or("weight", "wall");
            let weight = simpadv_obs::FlameWeight::parse(name).ok_or_else(|| {
                CliError(format!("unknown weight '{name}' (wall|flops|work|attack-steps)"))
            })?;
            let text = simpadv_obs::render_collapsed(&simpadv_obs::collapse(&tree, weight));
            if let Ok(dest) = args.require("out") {
                simpadv_resilience::atomic_write(std::path::Path::new(dest), text.as_bytes())
                    .map_err(|e| CliError(format!("cannot write {dest}: {e}")))?;
                writeln!(out, "wrote {dest}")?;
            } else {
                write!(out, "{text}")?;
            }
            Ok(())
        }
        Some("top") => {
            let path = one_file(args, "top")?;
            let tree = simpadv_obs::build_tree(&read_trace_events(path)?)?;
            let name = args.get_or("by", "self-wall");
            let by = simpadv_obs::TopBy::parse(name).ok_or_else(|| {
                CliError(format!(
                    "unknown ranking '{name}' (self-wall|total-wall|self-work|total-work\
                     |self-flops|total-flops)"
                ))
            })?;
            let limit = args.get_num("limit", 20usize)?;
            write!(out, "{}", simpadv_obs::render_top(&simpadv_obs::hot_spots(&tree, by, limit)))?;
            Ok(())
        }
        Some("diff") => {
            let (Some(path_a), Some(path_b)) = (args.positional(1), args.positional(2)) else {
                return Err(CliError("trace diff needs two FILE arguments".into()));
            };
            if args.positional(3).is_some() {
                return Err(CliError("trace diff takes exactly two FILEs".into()));
            }
            let (a, b) = (read_trace_events(path_a)?, read_trace_events(path_b)?);
            let opts = simpadv_obs::DiffOptions {
                wall_threshold_pct: args.get_num("wall-threshold", 25.0f64)?,
                ..simpadv_obs::DiffOptions::default()
            };
            let report = simpadv_obs::diff(&a, &b, &opts);
            write!(out, "{}", report.render())?;
            if report.logically_identical() {
                Ok(())
            } else {
                Err(CliError(format!(
                    "trace diff: {} logical difference(s) between {path_a} and {path_b}",
                    report.logical_total
                )))
            }
        }
        Some(other) => Err(CliError(format!(
            "unknown trace action '{other}' (assemble|summarize|flame|top|diff)"
        ))),
        None => Err(CliError("usage: trace assemble|summarize|flame|top|diff ...".into())),
    }
}

fn cmd_bench<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    // each action accepts the global options plus only its own
    match args.positional(0) {
        Some("compare") => {
            args.expect_only(&["threads", "trace", "trace-format", "wall-threshold", "all"])?;
            cmd_bench_compare(args, out)
        }
        Some("kernels") => {
            args.expect_only(&[
                "threads",
                "trace",
                "trace-format",
                "scale",
                "target-us",
                "repeat",
                "warmup",
                "out",
                "flame-dir",
            ])?;
            cmd_bench_kernels(args, out)
        }
        Some(other) => Err(CliError(format!("unknown bench action '{other}' (compare|kernels)"))),
        None => Err(CliError("usage: bench compare BASELINE CANDIDATE | bench kernels".into())),
    }
}

/// `bench compare A B` and `bench compare --all DIR`: both gate through
/// [`gate`].
fn cmd_bench_compare<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let threshold = args.get_num("wall-threshold", simpadv_obs::DEFAULT_WALL_THRESHOLD_PCT)?;
    if let Ok(dir) = args.require("all") {
        if args.positional(1).is_some() {
            return Err(CliError("bench compare --all DIR takes no positional files".into()));
        }
        return cmd_bench_compare_all(dir, threshold, out);
    }
    let (Some(base_path), Some(cand_path)) = (args.positional(1), args.positional(2)) else {
        return Err(CliError("bench compare needs BASELINE and CANDIDATE files".into()));
    };
    if args.positional(3).is_some() {
        return Err(CliError("bench compare takes exactly two files".into()));
    }
    let report = gate(base_path.as_ref(), cand_path.as_ref(), threshold)?;
    write!(out, "{}", report.render())?;
    if report.passed() {
        Ok(())
    } else {
        Err(CliError(format!(
            "bench compare: {} logical regression(s) vs {base_path}",
            report.regressions.len()
        )))
    }
}

/// Reads both artifacts through `parse_artifact` — so a file torn by a
/// writer killed mid-write, or one repeating a row id or field name,
/// is a typed error rather than a verdict — and compares them.
fn gate(
    base: &std::path::Path,
    cand: &std::path::Path,
    wall_threshold_pct: f64,
) -> Result<simpadv_obs::CompareReport, CliError> {
    let read = |path: &std::path::Path| -> Result<simpadv_obs::Artifact, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read artifact {}: {e}", path.display())))?;
        simpadv_obs::parse_artifact(&text)
            .map_err(|e| CliError(format!("invalid bench artifact {}: {e}", path.display())))
    };
    Ok(simpadv_obs::compare(&read(base)?, &read(cand)?, wall_threshold_pct))
}

/// `bench compare --all DIR` — self-gate every `BENCH_*.json` in a
/// directory: each artifact must parse and compare clean against
/// itself. This is how CI catches a committed baseline torn by a killed
/// writer, drifted to an old schema, or repeating a row, without
/// needing a second artifact.
fn cmd_bench_compare_all<W: Write>(
    dir: &str,
    wall_threshold_pct: f64,
    out: &mut W,
) -> Result<(), CliError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError(format!("cannot read artifact dir {dir}: {e}")))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CliError(format!("cannot list {dir}: {e}")))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("BENCH_") && name.ends_with(".json") && path.is_file() {
            names.push(name.to_string());
        }
    }
    if names.is_empty() {
        return Err(CliError(format!("no BENCH_*.json artifacts in {dir}")));
    }
    names.sort();
    let width = names.iter().map(String::len).max().unwrap_or(0).max(8);
    writeln!(out, "{:width$}  result", "artifact")?;
    let mut failures = 0usize;
    for name in &names {
        let path = std::path::Path::new(dir).join(name);
        match gate(&path, &path, wall_threshold_pct) {
            Ok(report) if report.passed() => writeln!(out, "{name:width$}  PASS")?,
            Ok(report) => {
                failures += 1;
                writeln!(out, "{name:width$}  FAIL: {}", report.regressions.join("; "))?;
            }
            Err(reason) => {
                failures += 1;
                writeln!(out, "{name:width$}  FAIL: {reason}")?;
            }
        }
    }
    if failures == 0 {
        writeln!(out, "{} artifact(s), all pass", names.len())?;
        Ok(())
    } else {
        Err(CliError(format!(
            "bench compare --all: {failures} of {} artifact(s) failed the self-gate",
            names.len()
        )))
    }
}

/// `bench kernels` — run the kernel microbenchmark lab (see
/// `simpadv_bench::kernels`) and write the scoreboard artifact.
fn cmd_bench_kernels<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    if args.positional(1).is_some() {
        return Err(CliError("bench kernels takes no positional arguments".into()));
    }
    if args.require("trace").is_ok() {
        return Err(CliError(
            "bench kernels records its own in-memory trace; --trace is unsupported".into(),
        ));
    }
    use simpadv_bench::kernels::KernelsOpts;
    let mut opts = KernelsOpts::default();
    opts.target_iter_wall_us = match args.get_or("scale", "quick") {
        "smoke" => 20_000,
        "quick" => 100_000,
        "full" => 500_000,
        other => return Err(CliError(format!("unknown scale '{other}' (smoke|quick|full)"))),
    };
    opts.target_iter_wall_us = args.get_num("target-us", opts.target_iter_wall_us)?;
    opts.repeat = args.get_num("repeat", opts.repeat)?;
    opts.warmup = args.get_num("warmup", opts.warmup)?;
    opts.out = std::path::PathBuf::from(args.get_or("out", "BENCH_kernels.json"));
    if let Ok(dir) = args.require("flame-dir") {
        opts.flame_dir = Some(std::path::PathBuf::from(dir));
    }
    // --threads was already applied process-wide by `run`; record it in
    // the artifact's run conditions.
    if let Ok(v) = args.require("threads") {
        opts.threads = v.parse().ok();
    }
    let (artifact, events) = simpadv_bench::kernels::run_sweep(&opts);
    write!(out, "{}", simpadv_bench::kernels::render_table(&artifact))?;
    simpadv_bench::kernels::write_outputs(&opts, &artifact, &events)
        .map_err(|e| CliError(format!("cannot write kernel scoreboard: {e}")))?;
    writeln!(out, "wrote {}", opts.out.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        let args =
            Args::parse(line.split_whitespace().map(str::to_string)).map_err(CliError::from)?;
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_line("help").unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("proposed"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let err = run_line("frobnicate").unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn generate_with_preview() {
        let text = run_line("generate --dataset mnist --samples 12 --preview 2").unwrap();
        assert!(text.contains("generated 12 'mnist' images"));
        assert!(text.contains("label 0:"));
        assert!(text.contains('#'));
    }

    #[test]
    fn generate_rejects_unknown_dataset_and_option() {
        assert!(run_line("generate --dataset imagenet").is_err());
        assert!(run_line("generate --dataset mnist --bogus 1").is_err());
    }

    #[test]
    fn train_evaluate_attack_roundtrip() {
        let dir = std::env::temp_dir().join("simpadv-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.json");
        let model = model.to_str().unwrap();

        let text = run_line(&format!(
            "train --dataset mnist --method vanilla --epochs 2 --samples 80 --out {model}"
        ))
        .unwrap();
        assert!(text.contains("training vanilla"));
        assert!(text.contains("wrote"));

        let text =
            run_line(&format!("evaluate --model {model} --dataset mnist --samples 40")).unwrap();
        assert!(text.contains("original"));
        assert!(text.contains("bim(30)"));

        let text =
            run_line(&format!("attack --model {model} --dataset mnist --attack fgsm --index 1"))
                .unwrap();
        assert!(text.contains("true label 1"));
        assert!(text.contains("fgsm"));
    }

    #[test]
    fn train_rejects_unknown_method() {
        assert!(run_line("train --dataset mnist --method magic").is_err());
    }

    #[test]
    fn threads_option_is_accepted_and_validated() {
        let text = run_line("generate --dataset mnist --samples 4 --threads 2").unwrap();
        assert!(text.contains("generated 4"));
        assert!(run_line("generate --dataset mnist --threads 0").is_err());
        assert!(run_line("generate --dataset mnist --threads lots").is_err());
        assert!(USAGE.contains("--threads"));
        // leave the process-wide default as other tests expect it
        simpadv_runtime::set_global_threads(1);
    }

    #[test]
    fn trace_option_writes_a_summarizable_trace() {
        // the only CLI test that installs a trace sink: the tracer is
        // process-global, so concurrently running tests may interleave
        // events into this trace — assert only on robust properties
        let dir = std::env::temp_dir().join("simpadv-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("out.jsonl");
        let trace = trace.to_str().unwrap();

        let text = run_line(&format!(
            "train --dataset mnist --method proposed --epochs 2 --samples 48 --trace {trace}"
        ))
        .unwrap();
        assert!(text.contains("training proposed"));

        let text = run_line(&format!("trace summarize {trace}")).unwrap();
        assert!(text.contains("events"));
        assert!(text.contains("epoch"), "summary should show the epoch span:\n{text}");
    }

    #[test]
    fn trace_command_rejects_bad_invocations() {
        assert!(run_line("trace summarize /nonexistent/trace.jsonl").is_err());
        assert!(run_line("trace summarize").is_err());
        assert!(run_line("trace frobnicate x.jsonl").is_err());
        assert!(run_line("trace summarize a.jsonl b.jsonl").is_err());
        // a bad format is rejected before any sink is installed
        let path = std::env::temp_dir().join("simpadv-cli-trace-badfmt.jsonl");
        let err = run_line(&format!(
            "generate --dataset mnist --samples 4 --trace {} --trace-format nope",
            path.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("unknown trace format"));
        // --trace-format without --trace is inert
        assert!(run_line("generate --dataset mnist --samples 4 --trace-format nope").is_ok());
    }

    #[test]
    fn stray_positionals_are_rejected_per_command() {
        assert!(run_line("generate mnist --dataset mnist --samples 4").is_err());
    }

    #[test]
    fn checkpointed_train_resumes_to_identical_model() {
        let dir = std::env::temp_dir().join("simpadv-cli-resume-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpts");
        let ckpt = ckpt.to_str().unwrap().to_string();
        let straight = dir.join("straight.ckpt");
        let resumed = dir.join("resumed.ckpt");

        // uninterrupted 4-epoch run
        run_line(&format!(
            "train --dataset mnist --method vanilla --epochs 4 --samples 60 --out {}",
            straight.display()
        ))
        .unwrap();
        // 2 epochs with checkpointing, then a fresh process-equivalent
        // invocation resuming to 4
        run_line(&format!(
            "train --dataset mnist --method vanilla --epochs 2 --samples 60 \
             --checkpoint-dir {ckpt} --checkpoint-every 1"
        ))
        .unwrap();
        run_line(&format!(
            "train --dataset mnist --method vanilla --epochs 4 --samples 60 \
             --checkpoint-dir {ckpt} --resume latest --out {}",
            resumed.display()
        ))
        .unwrap();
        let a = ServedModel::load_file(&straight).unwrap();
        let b = ServedModel::load_file(&resumed).unwrap();
        assert_eq!(a.state, b.state, "resumed weights must match the straight run bitwise");
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        assert!(run_line("train --dataset mnist --epochs 1 --samples 16 --resume latest")
            .unwrap_err()
            .to_string()
            .contains("--checkpoint-dir"));
        let dir = std::env::temp_dir().join("simpadv-cli-resume-flags");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(run_line(&format!(
            "train --dataset mnist --epochs 1 --samples 16 \
             --checkpoint-dir {} --resume everything",
            dir.display()
        ))
        .unwrap_err()
        .to_string()
        .contains("unknown --resume mode"));
    }

    fn trace_line(
        seq: u64,
        kind: simpadv_trace::EventKind,
        path: &str,
        flops: u64,
        wall: u64,
    ) -> String {
        use simpadv_trace::{EventKind, FieldValue};
        let (fields, meta) = if kind == EventKind::SpanClose {
            (
                vec![("flops".to_string(), FieldValue::U64(flops))],
                vec![("wall_us".to_string(), FieldValue::U64(wall))],
            )
        } else {
            (Vec::new(), Vec::new())
        };
        simpadv_trace::Event { seq, kind, path: path.to_string(), fields, meta, ctx: None }
            .to_json_line()
    }

    /// A balanced two-epoch trace: train(6000us) > 2x epoch(2000+3000us).
    fn balanced_trace() -> String {
        use simpadv_trace::EventKind::{SpanClose, SpanOpen};
        [
            trace_line(0, SpanOpen, "train", 0, 0),
            trace_line(1, SpanOpen, "train/epoch", 0, 0),
            trace_line(2, SpanClose, "train/epoch", 100, 2000),
            trace_line(3, SpanOpen, "train/epoch", 0, 0),
            trace_line(4, SpanClose, "train/epoch", 200, 3000),
            trace_line(5, SpanClose, "train", 300, 6000),
        ]
        .join("\n")
    }

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("simpadv-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn trace_tools_degrade_into_typed_errors_not_panics() {
        let empty = write_temp("empty.jsonl", "");
        let truncated = write_temp(
            "truncated.jsonl",
            &format!("{}\n{{\"seq\":1,\"ki", balanced_trace().lines().next().unwrap()),
        );
        let unbalanced = write_temp(
            "unbalanced.jsonl",
            &trace_line(0, simpadv_trace::EventKind::SpanOpen, "train", 0, 0),
        );

        // empty: summarize and diff are fine, tree builders refuse
        assert!(run_line(&format!("trace summarize {empty}")).unwrap().contains("0 events"));
        assert!(run_line(&format!("trace diff {empty} {empty}")).is_ok());
        for action in ["flame", "top"] {
            let err = run_line(&format!("trace {action} {empty}")).unwrap_err();
            assert!(err.to_string().contains("empty"), "{action}: {err}");
        }

        // torn final line: every tool reports it, none panics
        for cmd in [
            format!("trace summarize {truncated}"),
            format!("trace flame {truncated}"),
            format!("trace top {truncated}"),
            format!("trace diff {truncated} {truncated}"),
        ] {
            let err = run_line(&cmd).unwrap_err();
            assert!(err.to_string().contains("truncated"), "{cmd}: {err}");
        }

        // unbalanced span pairs: flat folds tolerate, tree builders refuse
        assert!(run_line(&format!("trace summarize {unbalanced}")).is_ok());
        assert!(run_line(&format!("trace diff {unbalanced} {unbalanced}")).is_ok());
        let err = run_line(&format!("trace flame {unbalanced}")).unwrap_err();
        assert!(err.to_string().contains("still open"), "{err}");
    }

    #[test]
    fn flame_root_weights_match_summarize_totals() {
        let trace = write_temp("balanced.jsonl", &balanced_trace());
        let folded = run_line(&format!("trace flame {trace}")).unwrap();
        assert!(!folded.trim().is_empty());
        let totals = simpadv_obs::prefix_totals(&simpadv_obs::parse_collapsed(&folded).unwrap());
        assert_eq!(totals["train"], 6000);
        assert_eq!(totals["train;epoch"], 5000);

        let summary = run_line(&format!("trace summarize {trace}")).unwrap();
        assert!(summary.contains("6.000"), "train total_ms:\n{summary}");
        assert!(summary.contains("5.000"), "train/epoch total_ms:\n{summary}");

        // the hot-spot table ranks epoch above train on self wall
        let top = run_line(&format!("trace top {trace} --by self-wall --limit 1")).unwrap();
        assert!(top.contains("train/epoch"));
        // weight and ranking names are validated
        assert!(run_line(&format!("trace flame {trace} --weight bogus")).is_err());
        assert!(run_line(&format!("trace top {trace} --by bogus")).is_err());
    }

    #[test]
    fn trace_diff_gates_on_logical_content_only() {
        let a = write_temp("diff-a.jsonl", &balanced_trace());
        // wall drift only: passes with warnings at most
        let b = write_temp("diff-b.jsonl", &balanced_trace().replace("6000", "9000"));
        assert!(run_line(&format!("trace diff {a} {b}")).is_ok());
        let relaxed = run_line(&format!("trace diff {a} {b} --wall-threshold 1000")).unwrap();
        assert!(relaxed.contains("within threshold"));
        // logical flops change: non-zero exit naming the count
        let c =
            write_temp("diff-c.jsonl", &balanced_trace().replace("\"flops\":300", "\"flops\":301"));
        let err = run_line(&format!("trace diff {a} {c}")).unwrap_err();
        assert!(err.to_string().contains("1 logical difference"), "{err}");
    }

    /// A tiny v2 artifact with one trainer row, pretty-printed.
    fn tiny_artifact(experiment: &str, flops: u64) -> String {
        let mut a = simpadv_obs::Artifact::new(experiment);
        a.set("trainer/proposed", "flops", flops);
        a.set("trace", "events", 6u64);
        a.set_warn("run", "wall_per_epoch_s", 0.5);
        serde_json::to_string_pretty(&a).unwrap()
    }

    #[test]
    fn bench_compare_gates_on_planted_logical_regression() {
        let base = write_temp("bench-base.json", &tiny_artifact("table1", 800));
        let text = run_line(&format!("bench compare {base} {base}")).unwrap();
        assert!(text.contains("matches the baseline"), "{text}");

        // plant a logical flops regression in the candidate
        let cand = write_temp("bench-cand.json", &tiny_artifact("table1", 801));
        let err = run_line(&format!("bench compare {base} {cand}")).unwrap_err();
        assert!(err.to_string().contains("1 logical regression"), "{err}");
        // another experiment's artifact never matches
        let other = write_temp("bench-other.json", &tiny_artifact("kernels", 800));
        assert!(run_line(&format!("bench compare {base} {other}")).is_err());
        assert!(run_line(&format!("bench compare {base} bogus.json")).is_err());
        assert!(run_line("bench compare only-one.json").is_err());
        assert!(run_line("bench frobnicate").is_err());
    }

    #[test]
    fn bench_actions_accept_only_their_own_flags() {
        let base = write_temp("bench-flags.json", &tiny_artifact("table1", 800));
        for line in [
            format!("bench compare {base} {base} --repeat 3 --scale full --flame-dir /nonexistent"),
            "bench kernels --all .".to_string(),
            "bench kernels --wall-threshold 5".to_string(),
        ] {
            let err = run_line(&line).unwrap_err().to_string();
            assert!(err.contains("unknown option"), "{line}: {err}");
        }
        assert!(run_line(&format!("bench compare {base} {base} --wall-threshold 5")).is_ok());
    }

    #[test]
    fn bench_compare_rejects_a_duplicated_row_in_committed_artifacts() {
        // wrong copy first, right copy second, of a trainer row and a
        // kernel row: a gate that kept either copy silently would pass
        for (file, row) in
            [("BENCH_table1.json", "trainer/proposed"), ("BENCH_kernels.json", "matmul/64x784x128")]
        {
            let text = std::fs::read_to_string(format!("../../{file}")).unwrap();
            let committed = write_temp(&format!("dup-base-{file}"), &text);
            let key = format!("\"{row}\": {{");
            let planted = text.replacen(&key, &format!("{key}\"flops\": 1}},\n{key}"), 1);
            assert!(planted != text, "{file} has no row {row}");
            let planted = write_temp(&format!("dup-cand-{file}"), &planted);
            assert!(run_line(&format!("bench compare {committed} {committed}")).is_ok());
            let err = run_line(&format!("bench compare {committed} {planted}")).unwrap_err();
            assert!(err.to_string().contains(&format!("duplicate key '{row}'")), "{err}");
        }
    }

    #[test]
    fn serve_flags_are_validated_before_binding() {
        // --model-dir is mandatory
        assert!(run_line("serve").unwrap_err().to_string().contains("model-dir"));
        // zero-sized batch or queue is rejected up front
        let dir = std::env::temp_dir().join("simpadv-cli-serve-flags");
        std::fs::create_dir_all(&dir).unwrap();
        let err =
            run_line(&format!("serve --model-dir {} --batch-max 0", dir.display())).unwrap_err();
        assert!(err.to_string().contains("--batch-max"), "{err}");
        // an empty store refuses to serve with a typed error
        let empty = std::env::temp_dir().join("simpadv-cli-serve-empty");
        let _ = std::fs::remove_dir_all(&empty);
        let err = run_line(&format!("serve --model-dir {}", empty.display())).unwrap_err();
        assert!(err.to_string().contains("no servable model"), "{err}");
        assert!(USAGE.contains("serve"));
    }

    #[test]
    fn bench_kernels_verb_writes_a_comparable_scoreboard() {
        let dir = std::env::temp_dir().join("simpadv-cli-kernels-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_kernels.json");
        let table = run_line(&format!(
            "bench kernels --target-us 200 --repeat 1 --warmup 0 --out {}",
            out.display()
        ))
        .unwrap();
        assert!(table.contains("matmul/64x784x128"), "{table}");
        assert!(table.contains("GFLOP/s"), "{table}");
        let text = std::fs::read_to_string(&out).unwrap();
        let artifact = simpadv_obs::parse_artifact(&text).unwrap();
        assert_eq!(artifact.experiment, "kernels");
        assert!(artifact.rows.contains_key("matmul/64x784x128"));
        // the written artifact self-compares clean through the CLI
        assert!(run_line(&format!("bench compare {} {}", out.display(), out.display())).is_ok());
        // bad flags are rejected
        assert!(run_line("bench kernels --scale bogus").is_err());
        assert!(run_line("bench kernels extra").is_err());
        // a relative path here would leave a stray trace file in the
        // crate directory: the sink installs before the verb rejects it
        let rejected = dir.join("rejected.jsonl");
        assert!(run_line(&format!("bench kernels --trace {}", rejected.display())).is_err());
    }

    #[test]
    fn sweep_grid_methods_match_parse_method() {
        // The sweep grid validates methods against KNOWN_METHODS and
        // then hands them to this CLI's `train` verb; the two lists
        // drifting apart would quarantine every cell of a campaign.
        for name in simpadv_sweep::KNOWN_METHODS {
            assert!(parse_method(name, 0.3).is_ok(), "sweep method '{name}' must train");
        }
        assert!(parse_method("magic", 0.3).is_err());
    }

    #[test]
    fn train_report_writes_a_sealed_cell_report() {
        let dir = std::env::temp_dir().join("simpadv-cli-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");

        let text = run_line(&format!(
            "train --dataset mnist --method vanilla --eps 0.25 --epochs 1 --samples 32 \
             --test-samples 16 --report {}",
            report.display()
        ))
        .unwrap();
        assert!(text.contains("wrote"), "{text}");
        let cell = simpadv_sweep::CellReport::load(&report).unwrap();
        assert_eq!(cell.schema_version, simpadv_sweep::CELL_REPORT_VERSION);
        assert_eq!(cell.method_id, "vanilla");
        assert_eq!(cell.eps, 0.25);
        assert_eq!(cell.test_samples, 16);
        assert_eq!(cell.columns[0], "original");
        assert_eq!(cell.columns.len(), cell.accuracies.len());
        assert!(cell.final_loss.is_finite());
    }

    #[test]
    fn train_eps_override_is_validated() {
        assert!(run_line("train --dataset mnist --epochs 1 --samples 16 --eps nope")
            .unwrap_err()
            .to_string()
            .contains("--eps"));
        assert!(run_line("train --dataset mnist --epochs 1 --samples 16 --eps -0.1")
            .unwrap_err()
            .to_string()
            .contains("--eps"));
    }

    #[test]
    fn sweep_flags_are_validated_before_any_child_spawns() {
        // missing campaign dir
        assert!(run_line("sweep").unwrap_err().to_string().contains("dir"));
        let dir = std::env::temp_dir().join("simpadv-cli-sweep-flags");
        let _ = std::fs::remove_dir_all(&dir);
        // bad resume mode
        let err =
            run_line(&format!("sweep --dir {} --resume everything", dir.display())).unwrap_err();
        assert!(err.to_string().contains("unknown --resume mode"), "{err}");
        // unknown method fails before a manifest is written
        let err = run_line(&format!("sweep --dir {} --methods magic", dir.display())).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // resuming a dir with no campaign is a typed error
        let err = run_line(&format!("sweep --dir {} --resume latest", dir.display())).unwrap_err();
        assert!(err.to_string().contains("no valid campaign manifest"), "{err}");
        assert!(USAGE.contains("sweep"));
    }

    #[test]
    fn sweep_start_refuses_to_clobber_an_existing_campaign() {
        let dir = std::env::temp_dir().join("simpadv-cli-sweep-clobber");
        let _ = std::fs::remove_dir_all(&dir);
        let config = simpadv_sweep::CampaignConfig {
            schema_version: simpadv_sweep::MANIFEST_VERSION,
            grid: simpadv_sweep::GridSpec {
                dataset: "mnist".into(),
                epochs: 1,
                seed: 2019,
                test_samples: 16,
                methods: vec!["vanilla".into()],
                epsilons: vec![0.3],
                samples: vec![16],
                threads: vec![1],
            },
            retry: simpadv_sweep::RetryConfig::default(),
            cell_deadline_us: 60_000_000,
        };
        simpadv_sweep::Campaign::start(&dir, config).unwrap();
        let err = run_line(&format!("sweep --dir {}", dir.display())).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn bench_compare_reports_truncated_artifacts_as_typed_errors() {
        let full = tiny_artifact("sweep", 1);
        let whole = write_temp("trunc-whole.json", &full);
        // a strict prefix — the signature of a writer killed mid-write
        let torn = write_temp("trunc-torn.json", &full[..full.len() / 2]);
        for order in
            [format!("bench compare {torn} {whole}"), format!("bench compare {whole} {torn}")]
        {
            let err = run_line(&order).unwrap_err().to_string();
            assert!(err.contains("truncated artifact"), "{order}: {err}");
            assert!(err.contains("killed mid-write"), "{order}: {err}");
        }
        let empty = write_temp("trunc-empty.json", "");
        let err = run_line(&format!("bench compare {empty} {whole}")).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    /// Writes a two-process toy campaign trace dir: an orchestrator
    /// incarnation whose attempt span anchors `c000.attempt001.jsonl`,
    /// and that cell trace rooted at the attempt's remote context.
    fn toy_campaign_dir(name: &str) -> String {
        use simpadv_trace::EventKind::{SpanClose, SpanOpen};
        use simpadv_trace::{Event, FieldValue, TraceContext};
        let dir = std::env::temp_dir().join(format!("simpadv-cli-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cx = |span, parent| Some(TraceContext { trace_id: 7, span_id: span, parent });
        let u = |k: &str, v: u64| (k.to_string(), FieldValue::U64(v));
        let s = |k: &str, v: &str| (k.to_string(), FieldValue::Str(v.to_string()));
        let ev = |seq, kind, path: &str, fields, wall: u64, ctx| {
            let meta = if kind == SpanClose { vec![u("wall_us", wall)] } else { Vec::new() };
            Event { seq, kind, path: path.to_string(), fields, meta, ctx }.to_json_line()
        };
        let orch = [
            ev(0, SpanOpen, "sweep", vec![u("cells", 1)], 0, cx(1, None)),
            ev(1, SpanOpen, "sweep/sweep/cell", vec![u("index", 0)], 0, cx(2, Some(1))),
            ev(
                2,
                SpanOpen,
                "sweep/sweep/cell/sweep/attempt",
                vec![u("n", 1), s("trace_file", "c000.attempt001.jsonl")],
                0,
                cx(3, Some(2)),
            ),
            ev(3, SpanClose, "sweep/sweep/cell/sweep/attempt", vec![], 50, None),
            ev(4, SpanClose, "sweep/sweep/cell", vec![], 60, None),
            ev(5, SpanClose, "sweep", vec![], 70, None),
        ]
        .join("\n");
        let cell = [
            ev(0, SpanOpen, "train", vec![s("trainer", "vanilla")], 0, cx(9, Some(3))),
            ev(1, SpanOpen, "train/epoch", vec![u("index", 0)], 0, cx(10, Some(9))),
            ev(2, SpanClose, "train/epoch", vec![u("forward", 4), u("flops", 100)], 20, None),
            ev(3, SpanClose, "train", vec![u("forward", 4), u("flops", 100)], 30, None),
        ]
        .join("\n");
        std::fs::write(dir.join("orchestrator.001.jsonl"), orch).unwrap();
        std::fs::write(dir.join("c000.attempt001.jsonl"), cell).unwrap();
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn trace_assemble_stitches_a_toy_campaign_dir() {
        let dir = toy_campaign_dir("assemble-test");
        let text = run_line(&format!("trace assemble {dir}")).unwrap();
        assert!(text.contains("assembled 2 file(s)"), "{text}");
        assert!(text.contains("\"path\":\"campaign\""), "campaign root:\n{text}");
        assert!(
            text.contains("campaign/sweep/sweep/cell/sweep/attempt/train"),
            "cell grafted under its attempt span:\n{text}"
        );

        // the logical projection merges the attempt scaffolding away
        // and strips meta
        let logical = run_line(&format!("trace assemble {dir} --project logical")).unwrap();
        assert!(logical.contains("\"path\":\"campaign\""), "{logical}");
        assert!(!logical.contains("wall_us"), "meta must be stripped:\n{logical}");

        // --out writes the stream instead of printing it
        let dest = std::path::Path::new(&dir).join("assembled.jsonl");
        let text = run_line(&format!("trace assemble {dir} --out {}", dest.display())).unwrap();
        assert!(text.contains("wrote"), "{text}");
        let written = std::fs::read_to_string(&dest).unwrap();
        assert!(simpadv_obs::read_events(&written).is_ok(), "written stream must re-parse");

        // bad invocations are typed errors
        assert!(run_line("trace assemble").is_err());
        assert!(run_line("trace assemble /nonexistent/dir").is_err());
        assert!(run_line(&format!("trace assemble {dir} extra")).is_err());
        let err = run_line(&format!("trace assemble {dir} --project bogus")).unwrap_err();
        assert!(err.to_string().contains("raw|logical"), "{err}");
    }

    #[test]
    fn sweep_trace_renders_the_campaign_flamegraph() {
        let dir = toy_campaign_dir("sweep-trace-test");
        let text = run_line(&format!("sweep trace {dir}")).unwrap();
        assert!(text.contains("assembled 2 file(s)"), "{text}");
        assert!(
            text.contains("campaign;sweep;sweep/cell;sweep/attempt;train"),
            "collapsed campaign stack:\n{text}"
        );
        assert!(run_line("sweep trace").is_err());
        assert!(run_line(&format!("sweep trace {dir} extra")).is_err());
        let err = run_line("sweep frobnicate").unwrap_err();
        assert!(err.to_string().contains("unknown sweep action"), "{err}");
    }

    #[test]
    fn sweep_trace_dir_is_exclusive_with_trace_and_slots_advance() {
        let dir = std::env::temp_dir().join("simpadv-cli-trace-dir-flags");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_line(&format!(
            "sweep --dir {} --trace-dir {} --trace {}",
            dir.join("campaign").display(),
            dir.join("traces").display(),
            dir.join("t.jsonl").display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");

        // incarnation slots: first free NNN, starting 001
        assert_eq!(orchestrator_trace_path(&dir).unwrap(), dir.join("orchestrator.001.jsonl"));
        std::fs::write(dir.join("orchestrator.001.jsonl"), "").unwrap();
        assert_eq!(orchestrator_trace_path(&dir).unwrap(), dir.join("orchestrator.002.jsonl"));
    }

    #[test]
    fn bench_compare_all_self_gates_every_artifact() {
        let dir = std::env::temp_dir().join("simpadv-cli-compare-all");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sweep_json = tiny_artifact("sweep", 1);
        std::fs::write(dir.join("BENCH_sweep.json"), &sweep_json).unwrap();
        std::fs::write(dir.join("BENCH_kernels.json"), tiny_artifact("kernels", 2)).unwrap();
        std::fs::write(dir.join("unrelated.json"), "not an artifact").unwrap();

        let text = run_line(&format!("bench compare --all {}", dir.display())).unwrap();
        for name in ["BENCH_sweep.json", "BENCH_kernels.json"] {
            let row = text.lines().find(|l| l.starts_with(name));
            assert!(row.is_some_and(|l| l.ends_with("PASS")), "{name}:\n{text}");
        }
        assert!(text.contains("all pass"), "{text}");
        assert!(!text.contains("unrelated"), "only BENCH_*.json is gated:\n{text}");

        // a torn artifact flips its row to FAIL and the exit to error
        std::fs::write(dir.join("BENCH_torn.json"), &sweep_json[..sweep_json.len() / 2]).unwrap();
        let err = run_line(&format!("bench compare --all {}", dir.display())).unwrap_err();
        assert!(err.to_string().contains("1 of 3"), "{err}");

        // empty directories and stray positionals are typed errors
        let empty = std::env::temp_dir().join("simpadv-cli-compare-all-empty");
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).unwrap();
        let err = run_line(&format!("bench compare --all {}", empty.display())).unwrap_err();
        assert!(err.to_string().contains("no BENCH_*.json"), "{err}");
        let err = run_line(&format!("bench compare a.json --all {}", dir.display())).unwrap_err();
        assert!(err.to_string().contains("no positional"), "{err}");
    }

    #[test]
    fn all_attack_names_parse() {
        for name in ["noise", "fgsm", "llfgsm", "bim10", "bim30", "pgd10", "mim10"] {
            assert!(parse_attack(name, 0.3, 1).is_ok(), "{name}");
        }
        for unknown in ["nope", "fgml2", "pgdl2"] {
            assert!(parse_attack(unknown, 0.3, 1).is_err(), "{unknown}");
        }
    }
}
