//! The kernel microbenchmark lab: `bench kernels`.
//!
//! A registry of the workspace's hot kernels at the shapes the real
//! experiments run them — the default-MLP matmuls at batch 64, their
//! `matmul_tn`/`matmul_nt` gradient forms (plus the input gradient of
//! one craft chunk), the CNN's im2col lowering tiles and the forward
//! GEMMs over them, the BIM/PGD craft-chunk attack steps, and the serve
//! path's batched forward — swept two ways:
//!
//! 1. **Logical sweep** (gateable): one iteration per workload under
//!    an in-memory trace. Per-iteration forward/backward/flop/attack
//!    counters come off the [`simpadv_trace::clock`] snapshot delta and
//!    logical bytes from shape arithmetic, so the resulting rows are
//!    bitwise identical across machines and `--threads` settings.
//! 2. **Wall sweep** (informational): warmup, a calibrated iteration
//!    count aimed at a per-workload wall budget (see `calibrate.rs`),
//!    and median/min/max seconds-per-iteration over `--repeat` runs,
//!    from which GFLOP/s and GB/s are derived. All of it lands in the
//!    artifact's `meta` and can only ever warn in the perf gate — this
//!    project benchmarks on one CPU, wall numbers are weather.
//!
//! The sweep emits `BENCH_kernels.json`
//! ([`simpadv_obs::KernelsArtifact`]) plus, with `--flame-dir`,
//! collapsed-stack flamegraphs of the logical sweep in both wall and
//! flop weights.

mod calibrate;

use simpadv::ModelSpec;
use simpadv_obs::baseline::{logical_digest, WallStats};
use simpadv_obs::{FlameWeight, KernelRow, KernelWallRow, KernelsArtifact, KernelsMeta};
use simpadv_tensor::{im2col, matmul_bytes, Conv2dGeometry, Tensor};
use simpadv_trace::{clock, span, Event};
use std::error::Error;
use std::path::PathBuf;

/// The craft-chunk width BIM/PGD attacks batch over (mirrors
/// `crates/attacks`' internal chunking).
const CRAFT_CHUNK: usize = 16;

/// Serve's default `batch_max`, the shape of the hot batched forward.
const SERVE_BATCH: usize = 16;

/// One registered microbenchmark: a named, shaped kernel invocation
/// plus its logical byte traffic.
pub struct Workload {
    /// Workload id, e.g. `matmul/64x784x128`.
    pub name: String,
    /// Registry group (`matmul`, `conv`, `attack`, `serve`).
    pub group: &'static str,
    /// Shape parameters, recorded verbatim in the artifact row.
    pub shape: Vec<u64>,
    /// Logical bytes one iteration reads + writes (shape arithmetic).
    pub bytes: u64,
    run: Box<dyn FnMut()>,
}

impl Workload {
    fn new(
        name: impl Into<String>,
        group: &'static str,
        shape: &[u64],
        bytes: u64,
        run: impl FnMut() + 'static,
    ) -> Workload {
        Workload { name: name.into(), group, shape: shape.to_vec(), bytes, run: Box::new(run) }
    }

    /// Runs one iteration of the kernel.
    pub fn run_once(&mut self) {
        (self.run)()
    }
}

/// Deterministic pseudo-data in `[0, 1)`, one exact zero per thousand
/// elements. The matmul kernels skip zero left-operand elements, so their
/// wall cost depends on sparsity: these near-dense operands time the
/// dense worst case, not the ReLU-masked (about half zero) gradients
/// that training feeds the input-gradient products. Logical rows do not
/// depend on the data.
fn pattern(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt * 97)) % 1000) as f32)
        .map(|v| v / 1000.0)
        .collect()
}

fn tensor(shape: &[usize], salt: u64) -> Tensor {
    Tensor::from_vec(pattern(shape.iter().product(), salt), shape)
}

fn labels(n: usize) -> Vec<usize> {
    (0..n).map(|i| i % simpadv_data::CLASS_COUNT).collect()
}

/// Builds the workload registry: every hot kernel at the shapes the
/// experiments actually run. Registry order is the artifact row order.
pub fn registry() -> Vec<Workload> {
    let px = simpadv_data::IMAGE_PIXELS; // 784
    let classes = simpadv_data::CLASS_COUNT; // 10
    let hidden = 128usize; // ModelSpec::default_mlp
    let batch = 64usize; // TrainConfig::default batch_size
    let mut workloads = Vec::new();

    // -- matmul group: the default MLP's forward and gradient GEMMs.
    let (x, w1) = (tensor(&[batch, px], 1), tensor(&[px, hidden], 2));
    workloads.push(Workload::new(
        format!("matmul/{batch}x{px}x{hidden}"),
        "matmul",
        &[batch as u64, px as u64, hidden as u64],
        matmul_bytes(batch, px, hidden),
        move || {
            let _ = x.matmul(&w1);
        },
    ));
    let (h, w2) = (tensor(&[batch, hidden], 3), tensor(&[hidden, classes], 4));
    workloads.push(Workload::new(
        format!("matmul/{batch}x{hidden}x{classes}"),
        "matmul",
        &[batch as u64, hidden as u64, classes as u64],
        matmul_bytes(batch, hidden, classes),
        move || {
            let _ = h.matmul(&w2);
        },
    ));
    // Weight gradient dW = xᵀ·δ — matmul_tn at [m=784, k=64, n=128].
    let (xg, delta) = (tensor(&[batch, px], 5), tensor(&[batch, hidden], 6));
    workloads.push(Workload::new(
        format!("matmul_tn/{px}x{batch}x{hidden}"),
        "matmul",
        &[px as u64, batch as u64, hidden as u64],
        matmul_bytes(px, batch, hidden),
        move || {
            let _ = xg.matmul_tn(&delta);
        },
    ));
    // Input gradient dx = δ·Wᵀ — matmul_nt at [m=64, k=128, n=784].
    let (dg, wg) = (tensor(&[batch, hidden], 7), tensor(&[px, hidden], 8));
    workloads.push(Workload::new(
        format!("matmul_nt/{batch}x{hidden}x{px}"),
        "matmul",
        &[batch as u64, hidden as u64, px as u64],
        matmul_bytes(batch, hidden, px),
        move || {
            let _ = dg.matmul_nt(&wg);
        },
    ));
    // The same input gradient for one BIM/PGD craft chunk.
    let (dc, wc) = (tensor(&[CRAFT_CHUNK, hidden], 15), tensor(&[px, hidden], 16));
    workloads.push(Workload::new(
        format!("matmul_nt/{CRAFT_CHUNK}x{hidden}x{px}"),
        "matmul",
        &[CRAFT_CHUNK as u64, hidden as u64, px as u64],
        matmul_bytes(CRAFT_CHUNK, hidden, px),
        move || {
            let _ = dc.matmul_nt(&wc);
        },
    ));

    // -- conv group: the small CNN's im2col lowering tiles (3×3, s1, p1)
    // and the forward GEMMs over them, cols·Wᵀ.
    let conv_batch = 4usize;
    for (channels, side, c_out, salt) in [(1usize, 28usize, 8usize, 9u64), (8, 14, 16, 10)] {
        let geom = Conv2dGeometry::new(side, side, 3, 3, 1, 1);
        let input = tensor(&[conv_batch, channels, side, side], salt);
        let bytes = geom.im2col_bytes(conv_batch, channels);
        workloads.push(Workload::new(
            format!("conv/im2col/{conv_batch}x{channels}x{side}x{side}k3"),
            "conv",
            &[conv_batch as u64, channels as u64, side as u64, side as u64, 3, 1, 1],
            bytes,
            move || {
                let _ = im2col(&input, channels, &geom);
            },
        ));
        let (rows, taps) = geom.lowered_shape(conv_batch, channels);
        let (cols, weight) = (tensor(&[rows, taps], salt + 8), tensor(&[c_out, taps], salt + 9));
        workloads.push(Workload::new(
            format!("matmul_nt/{rows}x{taps}x{c_out}"),
            "conv",
            &[rows as u64, taps as u64, c_out as u64],
            matmul_bytes(rows, taps, c_out),
            move || {
                let _ = cols.matmul_nt(&weight);
            },
        ));
    }

    // -- attack group: one BIM/PGD craft chunk against the default MLP.
    let elems = CRAFT_CHUNK * px;
    let mut clf = ModelSpec::default_mlp().build(7);
    let (ax, aorigin, ay) =
        (tensor(&[CRAFT_CHUNK, px], 11), tensor(&[CRAFT_CHUNK, px], 11), labels(CRAFT_CHUNK));
    workloads.push(Workload::new(
        format!("attack/signed_step/{CRAFT_CHUNK}x{px}"),
        "attack",
        &[CRAFT_CHUNK as u64, px as u64],
        simpadv_attacks::signed_step_bytes(elems),
        move || {
            let _ = simpadv_attacks::signed_step(&mut clf, &ax, &aorigin, &ay, 0.01, 0.1);
        },
    ));
    let (bx, borigin) = (tensor(&[CRAFT_CHUNK, px], 12), tensor(&[CRAFT_CHUNK, px], 13));
    workloads.push(Workload::new(
        format!("attack/project_ball/{CRAFT_CHUNK}x{px}"),
        "attack",
        &[CRAFT_CHUNK as u64, px as u64],
        simpadv_attacks::project_ball_bytes(elems),
        move || {
            let _ = simpadv_attacks::project_ball(&bx, &borigin, 0.1);
        },
    ));

    // -- serve group: the batched forward behind one dispatch.
    let mut served = ModelSpec::default_mlp().build(7);
    let sx = tensor(&[SERVE_BATCH, px], 14);
    workloads.push(Workload::new(
        format!("serve/predict/{SERVE_BATCH}x{px}"),
        "serve",
        &[SERVE_BATCH as u64, px as u64],
        4 * (SERVE_BATCH * px + SERVE_BATCH * classes) as u64,
        move || {
            let _ = served.predict(&sx);
        },
    ));
    workloads
}

/// CLI options of the `kernels` binary and the `bench kernels` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelsOpts {
    /// Wall budget each calibrated timing loop aims for, microseconds
    /// (`--smoke` 20 ms, `--quick` 100 ms, `--full` 500 ms, or
    /// `--target-us N`). Only affects `meta` precision — the logical
    /// rows are scale-independent.
    pub target_iter_wall_us: u64,
    /// `--threads N` runtime override (logical rows are identical
    /// regardless).
    pub threads: Option<usize>,
    /// `--repeat N` timed repeats behind the wall statistics.
    pub repeat: usize,
    /// `--warmup N` untimed iterations before calibration.
    pub warmup: u64,
    /// `--out FILE` artifact destination.
    pub out: PathBuf,
    /// `--flame-dir DIR` for collapsed-stack flamegraphs (optional).
    pub flame_dir: Option<PathBuf>,
}

impl Default for KernelsOpts {
    fn default() -> Self {
        KernelsOpts {
            target_iter_wall_us: 100_000,
            threads: None,
            repeat: 3,
            warmup: 2,
            out: PathBuf::from("BENCH_kernels.json"),
            flame_dir: None,
        }
    }
}

impl KernelsOpts {
    /// Parses the kernel lab's flags; unknown flags or bad values abort
    /// with a usage message (mirroring [`crate::BenchOpts::from_args`]).
    pub fn from_args(args: &[String]) -> Self {
        let mut opts = KernelsOpts::default();
        let mut it = args.iter();
        let bad = |msg: &str| -> ! {
            eprintln!("{msg}");
            std::process::exit(2);
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => opts.target_iter_wall_us = 20_000,
                "--quick" => opts.target_iter_wall_us = 100_000,
                "--full" => opts.target_iter_wall_us = 500_000,
                "--target-us" => match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(n)) if n > 0 => opts.target_iter_wall_us = n,
                    _ => bad("--target-us needs a positive integer value"),
                },
                "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => opts.threads = Some(n),
                    _ => bad("--threads needs a positive integer value"),
                },
                "--repeat" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => opts.repeat = n,
                    _ => bad("--repeat needs a positive integer value"),
                },
                "--warmup" => match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(n)) => opts.warmup = n,
                    _ => bad("--warmup needs a non-negative integer value"),
                },
                "--out" => match it.next() {
                    Some(path) => opts.out = PathBuf::from(path),
                    None => bad("--out needs a file path value"),
                },
                "--flame-dir" => match it.next() {
                    Some(dir) => opts.flame_dir = Some(PathBuf::from(dir)),
                    None => bad("--flame-dir needs a directory value"),
                },
                other => bad(&format!(
                    "unknown flag {other}; use --smoke | --quick | --full | --target-us N \
                     | --threads N | --repeat N | --warmup N | --out FILE | --flame-dir DIR"
                )),
            }
        }
        opts
    }
}

/// The logical sweep: one traced iteration per workload, clock-delta
/// counters per row, plus the captured event stream. Deterministic —
/// same rows and digest on any machine at any thread count.
fn logical_sweep(workloads: &mut [Workload]) -> (Vec<KernelRow>, Vec<Event>) {
    let handle = simpadv_trace::install_memory();
    let mut rows = Vec::with_capacity(workloads.len());
    {
        let _sweep = span!("kernels");
        for w in workloads.iter_mut() {
            let before = clock::snapshot();
            {
                let _k = span!(&w.name);
                w.run_once();
            }
            let d = clock::snapshot().delta_since(&before);
            rows.push(KernelRow {
                name: w.name.clone(),
                group: w.group.to_string(),
                shape: w.shape.clone(),
                forward: d.forward,
                backward: d.backward,
                flops: d.flops,
                attack_steps: d.attack_steps,
                bytes: w.bytes,
            });
        }
    }
    simpadv_trace::flush();
    let events = handle.take();
    simpadv_trace::uninstall();
    (rows, events)
}

/// The wall sweep: warmup, calibration, `repeat` timed loops per
/// workload. Runs strictly after the trace sink is gone, so calibrated
/// iteration counts can never leak events into the logical stream.
fn wall_sweep(
    workloads: &mut [Workload],
    rows: &[KernelRow],
    opts: &KernelsOpts,
) -> Vec<KernelWallRow> {
    let target_s = opts.target_iter_wall_us as f64 / 1e6;
    let mut out = Vec::with_capacity(workloads.len());
    for (w, row) in workloads.iter_mut().zip(rows) {
        for _ in 0..opts.warmup {
            w.run_once();
        }
        let iters = calibrate::calibrate_iters(&mut *w.run, target_s);
        let samples: Vec<f64> =
            (0..opts.repeat).map(|_| calibrate::time_iters(&mut *w.run, iters)).collect();
        let stats = WallStats::from_samples(&samples);
        let median = stats.median_s;
        out.push(KernelWallRow {
            name: w.name.clone(),
            iters,
            wall_per_iter_s: stats,
            gflops: if median > 0.0 { row.flops as f64 / median / 1e9 } else { 0.0 },
            gbytes_per_s: if median > 0.0 { row.bytes as f64 / median / 1e9 } else { 0.0 },
        });
    }
    out
}

/// Runs the full sweep and assembles the scoreboard artifact plus the
/// logical sweep's event stream (for flamegraph output).
pub fn run_sweep(opts: &KernelsOpts) -> (KernelsArtifact, Vec<Event>) {
    if let Some(n) = opts.threads {
        simpadv_runtime::set_global_threads(n);
    }
    let mut workloads = registry();
    let (rows, events) = logical_sweep(&mut workloads);
    let wall = wall_sweep(&mut workloads, &rows, opts);
    let artifact = KernelsArtifact {
        schema_version: simpadv_obs::KERNELS_SCHEMA_VERSION,
        experiment: simpadv_obs::KERNELS_EXPERIMENT.to_string(),
        workloads: rows,
        events: events.len() as u64,
        trace_digest: logical_digest(&events),
        meta: KernelsMeta {
            threads: opts.threads.unwrap_or(0) as u64,
            threads_available: simpadv_runtime::available_threads() as u64,
            repeat: opts.repeat as u64,
            warmup: opts.warmup,
            target_iter_wall_us: opts.target_iter_wall_us,
            wall,
            note: KernelsArtifact::wall_note(),
        },
    };
    (artifact, events)
}

/// Writes the artifact (atomically) and, when `--flame-dir` was given,
/// the logical sweep's collapsed-stack flamegraphs in wall and flop
/// weights (`kernels_wall.collapsed`, `kernels_flops.collapsed`).
///
/// # Errors
///
/// Returns I/O and trace-reconstruction errors.
pub fn write_outputs(
    opts: &KernelsOpts,
    artifact: &KernelsArtifact,
    events: &[Event],
) -> Result<(), Box<dyn Error>> {
    simpadv_resilience::write_json_atomic(&opts.out, artifact)?;
    let _: KernelsArtifact = crate::verify_artifact(&opts.out)?;
    if let Some(dir) = &opts.flame_dir {
        std::fs::create_dir_all(dir)?;
        let tree = simpadv_obs::build_tree(events)?;
        for (weight, stem) in
            [(FlameWeight::Wall, "kernels_wall"), (FlameWeight::Flops, "kernels_flops")]
        {
            let stacks = simpadv_obs::collapse(&tree, weight);
            let text = simpadv_obs::render_collapsed(&stacks);
            simpadv_resilience::atomic_write(
                &dir.join(format!("{stem}.collapsed")),
                text.as_bytes(),
            )?;
        }
    }
    Ok(())
}

/// Renders the human-facing scoreboard table: logical columns first,
/// wall columns clearly bracketed as meta.
pub fn render_table(artifact: &KernelsArtifact) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>4} {:>4} {:>12} {:>12} | {:>12} {:>9} {:>9}",
        "workload", "group", "fwd", "bwd", "flops", "bytes", "wall/iter(s)", "GFLOP/s", "GB/s"
    );
    for row in &artifact.workloads {
        let wall = artifact.meta.wall.iter().find(|w| w.name == row.name);
        let (wps, gf, gb) = wall
            .map(|w| (w.wall_per_iter_s.median_s, w.gflops, w.gbytes_per_s))
            .unwrap_or((0.0, 0.0, 0.0));
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>4} {:>4} {:>12} {:>12} | {:>12.3e} {:>9.2} {:>9.2}",
            row.name, row.group, row.forward, row.backward, row.flops, row.bytes, wps, gf, gb
        );
    }
    let _ = writeln!(out, "({})", artifact.meta.note);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_tensor::matmul_flops;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn registry_covers_every_kernel_group() {
        let reg = registry();
        for group in ["matmul", "conv", "attack", "serve"] {
            assert!(reg.iter().any(|w| w.group == group), "missing group {group}");
        }
        // names are unique — they key both artifact tables
        let mut names: Vec<&str> = reg.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn opts_parse_scales_and_overrides() {
        assert_eq!(KernelsOpts::from_args(&[]).target_iter_wall_us, 100_000);
        assert_eq!(KernelsOpts::from_args(&argv("--smoke")).target_iter_wall_us, 20_000);
        assert_eq!(KernelsOpts::from_args(&argv("--full")).target_iter_wall_us, 500_000);
        let opts = KernelsOpts::from_args(&argv(
            "--target-us 5000 --threads 2 --repeat 5 --warmup 0 --out k.json --flame-dir fl",
        ));
        assert_eq!(opts.target_iter_wall_us, 5_000);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.repeat, 5);
        assert_eq!(opts.warmup, 0);
        assert_eq!(opts.out, PathBuf::from("k.json"));
        assert_eq!(opts.flame_dir.as_deref(), Some(std::path::Path::new("fl")));
    }

    #[test]
    fn logical_sweep_rows_match_the_shape_formulas() {
        let _trace = crate::tests::trace_lock();
        let mut workloads = registry();
        let (rows, events) = logical_sweep(&mut workloads);
        assert_eq!(rows.len(), workloads.len());
        assert!(!events.is_empty());

        let mm = rows.iter().find(|r| r.name.starts_with("matmul/64x784x")).expect("matmul row");
        assert_eq!(mm.flops, matmul_flops(64, 784, 128));
        assert_eq!((mm.forward, mm.backward, mm.attack_steps), (0, 0, 0));

        // the small CNN's first conv forward: 4·28·28 patches × 9 taps × 8 filters
        let conv = rows.iter().find(|r| r.name == "matmul_nt/3136x9x8").expect("conv GEMM row");
        assert_eq!((conv.group.as_str(), conv.flops), ("conv", matmul_flops(3136, 9, 8)));

        let step = rows.iter().find(|r| r.group == "attack" && r.name.contains("signed_step"));
        let step = step.expect("signed_step row");
        assert_eq!((step.forward, step.backward, step.attack_steps), (1, 1, 1));
        assert!(step.flops > 0, "the gradient passes tick flops");

        let ball = rows.iter().find(|r| r.name.contains("project_ball")).expect("project_ball row");
        assert_eq!((ball.forward, ball.backward, ball.flops, ball.attack_steps), (0, 0, 0, 0));
        assert_eq!(ball.bytes, simpadv_attacks::project_ball_bytes(16 * 784));

        let serve = rows.iter().find(|r| r.group == "serve").expect("serve row");
        assert_eq!(serve.forward, 1);
        assert_eq!(serve.flops, matmul_flops(16, 784, 128) + matmul_flops(16, 128, 10));
    }

    #[test]
    fn logical_sweep_is_reproducible() {
        let _trace = crate::tests::trace_lock();
        // Same rows, same digest, run to run — the property the
        // threads-1-vs-4 CI check rests on.
        let (rows_a, events_a) = logical_sweep(&mut registry());
        let (rows_b, events_b) = logical_sweep(&mut registry());
        assert_eq!(rows_a, rows_b);
        assert_eq!(logical_digest(&events_a), logical_digest(&events_b));
    }

    #[test]
    fn sweep_trace_has_one_span_per_workload() {
        let _trace = crate::tests::trace_lock();
        let mut workloads = registry();
        let n = workloads.len();
        let (_, events) = logical_sweep(&mut workloads);
        let tree = simpadv_obs::build_tree(&events).expect("balanced sweep trace");
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "kernels");
        assert_eq!(tree.roots[0].children.len(), n);
        // and it collapses into flamegraph stacks with logical weight
        let stacks = simpadv_obs::collapse(&tree, FlameWeight::Flops);
        assert!(stacks.iter().any(|(s, w)| s.contains("matmul") && *w > 0), "{stacks:?}");
    }

    #[test]
    fn full_run_produces_a_self_consistent_artifact() {
        let _trace = crate::tests::trace_lock();
        let opts = KernelsOpts {
            target_iter_wall_us: 200, // keep the test fast
            repeat: 2,
            warmup: 1,
            ..KernelsOpts::default()
        };
        let (artifact, events) = run_sweep(&opts);
        assert_eq!(artifact.schema_version, simpadv_obs::KERNELS_SCHEMA_VERSION);
        assert_eq!(artifact.experiment, simpadv_obs::KERNELS_EXPERIMENT);
        assert_eq!(artifact.events, events.len() as u64);
        assert_eq!(artifact.workloads.len(), artifact.meta.wall.len());
        for wall in &artifact.meta.wall {
            assert!(wall.iters >= 1);
            assert!(wall.wall_per_iter_s.median_s >= 0.0);
        }
        // identity comparison passes the gate cleanly
        let report = simpadv_obs::compare_kernels(
            &artifact,
            &artifact,
            &simpadv_obs::CompareOptions::default(),
        );
        assert!(report.passed(), "{:?}", report.regressions);
        // the table renders every workload and the wall caveat
        let table = render_table(&artifact);
        for row in &artifact.workloads {
            assert!(table.contains(&row.name), "missing {} in:\n{table}", row.name);
        }
        assert!(table.contains(&artifact.meta.note));
    }
}
