//! The kernel microbenchmark lab: `bench kernels`.
//!
//! A registry of the workspace's hot kernels at the shapes the real
//! experiments run them — the default-MLP matmuls at batch 64, their
//! `matmul_tn`/`matmul_nt` gradient forms (plus the input gradient of
//! one craft chunk), the four large ones again on operands as sparse as
//! training's (`/masked`), the CNN's per-image im2col lowering tiles and
//! the per-image `W·cols` products over them, the BIM/PGD craft-chunk
//! attack steps against the MLP and the CNN, one training
//! step on a clean+adversarial mixture, one whole BIM(10)-Adv and one
//! Proposed training batch (craft plus step), and the serve path's
//! batched forward and request codec — swept two ways:
//!
//! 1. **Logical sweep** (gateable): one iteration per workload under
//!    an in-memory trace. Per-iteration forward/backward/flop/attack
//!    counters come off the [`simpadv_trace::clock`] snapshot delta and
//!    logical bytes from shape arithmetic, so the resulting rows are
//!    bitwise identical across machines and `--threads` settings.
//! 2. **Wall sweep** (informational): warmup, a calibrated iteration
//!    count aimed at a per-workload wall budget (see `calibrate.rs`),
//!    and median/min/max seconds-per-iteration over `--repeat` runs,
//!    from which the scoreboard derives GFLOP/s and GB/s. None of it is
//!    logical: the median lands in the artifact's warn-only section and
//!    the rest in `meta`, so it can only ever warn in the perf gate —
//!    this project benchmarks on one CPU, wall numbers are weather.
//!
//! The sweep emits `BENCH_kernels.json` (a [`simpadv_obs::Artifact`]
//! tagged `kernels`: one logical row per workload, the median wall per
//! iteration warn-only, calibration details in `meta`) plus, with
//! `--flame-dir`, collapsed-stack flamegraphs of the logical sweep in
//! both wall and flop weights.

mod calibrate;

use crate::WallStats;
use serde::{Serialize, Value};
use simpadv::ModelSpec;
use simpadv_attacks::parallel::signed_step_parallel;
use simpadv_attacks::{Attack, Bim};
use simpadv_obs::{Artifact, FlameWeight};
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
    /// Registry group (`matmul`, `conv`, `attack`, `train`, `serve`).
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

/// Zeros per thousand elements of a synthetic image batch (about 41 %).
const IMAGE_ZEROS_PER_MILLE: u64 = 410;

/// Zeros per thousand elements of a ReLU-masked gradient (about half).
const DELTA_ZEROS_PER_MILLE: u64 = 500;

/// Id suffix of the matmul rows whose operands run at training sparsity.
const MASKED_SUFFIX: &str = "/masked";

/// Deterministic pseudo-data in `[0, 1)`, one exact zero per thousand
/// elements. The matmul kernels skip zero left-operand elements, so their
/// wall cost depends on sparsity: these near-dense operands time the
/// dense worst case, and [`masked`] operands the sparsity training feeds
/// them. Logical rows do not depend on the data.
fn pattern(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt * 97)) % 1000) as f32)
        .map(|v| v / 1000.0)
        .collect()
}

fn tensor(shape: &[usize], salt: u64) -> Tensor {
    Tensor::from_vec(pattern(shape.iter().product(), salt), shape)
}

/// [`tensor`] with about `zeros_per_mille` elements in every thousand set
/// to exact zero, chosen by a SplitMix64 hash of the element index: no
/// pattern a branch predictor could learn, like a ReLU mask.
fn masked(shape: &[usize], salt: u64, zeros_per_mille: u64) -> Tensor {
    let mut data = pattern(shape.iter().product(), salt);
    for (i, v) in data.iter_mut().enumerate() {
        if simpadv_runtime::split_seed(salt, i as u64) % 1000 < zeros_per_mille {
            *v = 0.0;
        }
    }
    Tensor::from_vec(data, shape)
}

/// A matmul-group workload `{op}/{m}x{k}x{n}`: `run(&lhs, &rhs)`, an
/// `[m, k] x [k, n]` product in whichever operand layout `run` takes.
fn product(
    op: &str,
    [m, k, n]: [usize; 3],
    run: fn(&Tensor, &Tensor) -> Tensor,
    lhs: Tensor,
    rhs: Tensor,
) -> Workload {
    Workload::new(
        format!("{op}/{m}x{k}x{n}"),
        "matmul",
        &[m as u64, k as u64, n as u64],
        matmul_bytes(m, k, n),
        move || {
            let _ = run(&lhs, &rhs);
        },
    )
}

fn labels(n: usize) -> Vec<usize> {
    (0..n).map(|i| i % simpadv_data::CLASS_COUNT).collect()
}

/// Logical bytes of one training step of a one-hidden-layer MLP on
/// `rows` inputs: the GEMMs it runs — the forward's two, layer 2's weight
/// and input gradients, layer 0's weight gradient — each counted as
/// [`matmul_bytes`] counts a product.
fn train_step_bytes(rows: usize, px: usize, hidden: usize, classes: usize) -> u64 {
    matmul_bytes(rows, px, hidden)
        + matmul_bytes(rows, hidden, classes)
        + matmul_bytes(hidden, rows, classes)
        + matmul_bytes(rows, classes, hidden)
        + matmul_bytes(px, rows, hidden)
}

/// Logical bytes of one signed attack step on `rows` inputs of the same
/// MLP: the forward's two GEMMs, the input gradient's two (no weight
/// gradients), and the step's own traffic.
fn attack_step_bytes(rows: usize, px: usize, hidden: usize, classes: usize) -> u64 {
    matmul_bytes(rows, px, hidden)
        + matmul_bytes(rows, hidden, classes)
        + matmul_bytes(rows, classes, hidden)
        + matmul_bytes(rows, hidden, px)
        + simpadv_attacks::signed_step_bytes(rows * px)
}

/// Builds the workload registry: every hot kernel at the shapes the
/// experiments actually run. Registry order is the artifact row order.
pub fn registry() -> Vec<Workload> {
    let px = simpadv_data::IMAGE_PIXELS; // 784
    let classes = simpadv_data::CLASS_COUNT; // 10
    let hidden = 128usize; // ModelSpec::default_mlp
    let batch = 64usize; // TrainConfig::default batch_size
    let mut workloads = Vec::new();

    // -- matmul group: the default MLP's forward and gradient GEMMs on
    // near-dense operands, the dense worst case for the zero skip.
    let (fwd, dw, dx) = ([batch, px, hidden], [px, batch, hidden], [batch, hidden, px]);
    let dx_chunk = [CRAFT_CHUNK, hidden, px];
    workloads.extend([
        // Forward x·W₁ and h·W₂.
        product("matmul", fwd, Tensor::matmul, tensor(&[batch, px], 1), tensor(&[px, hidden], 2)),
        product(
            "matmul",
            [batch, hidden, classes],
            Tensor::matmul,
            tensor(&[batch, hidden], 3),
            tensor(&[hidden, classes], 4),
        ),
        // Weight gradient dW = xᵀ·δ.
        product(
            "matmul_tn",
            dw,
            Tensor::matmul_tn,
            tensor(&[batch, px], 5),
            tensor(&[batch, hidden], 6),
        ),
        // Input gradient dx = δ·Wᵀ, at batch 64 and for one BIM/PGD craft chunk.
        product(
            "matmul_nt",
            dx,
            Tensor::matmul_nt,
            tensor(&[batch, hidden], 7),
            tensor(&[px, hidden], 8),
        ),
        product(
            "matmul_nt",
            dx_chunk,
            Tensor::matmul_nt,
            tensor(&[CRAFT_CHUNK, hidden], 15),
            tensor(&[px, hidden], 16),
        ),
    ]);
    // The four large products again at the sparsity training feeds them:
    // images on the left of the forward and the weight gradient, and
    // ReLU-masked δ on the left of the input gradient.
    let (image, delta) = (IMAGE_ZEROS_PER_MILLE, DELTA_ZEROS_PER_MILLE);
    workloads.extend(
        [
            product(
                "matmul",
                fwd,
                Tensor::matmul,
                masked(&[batch, px], 1, image),
                tensor(&[px, hidden], 2),
            ),
            product(
                "matmul_tn",
                dw,
                Tensor::matmul_tn,
                masked(&[batch, px], 5, image),
                masked(&[batch, hidden], 6, delta),
            ),
            product(
                "matmul_nt",
                dx,
                Tensor::matmul_nt,
                masked(&[batch, hidden], 7, delta),
                tensor(&[px, hidden], 8),
            ),
            product(
                "matmul_nt",
                dx_chunk,
                Tensor::matmul_nt,
                masked(&[CRAFT_CHUNK, hidden], 15, delta),
                tensor(&[px, hidden], 16),
            ),
        ]
        .map(|w| Workload { name: format!("{}{MASKED_SUFFIX}", w.name), ..w }),
    );

    // -- conv group: the small CNN's im2col lowering tiles (3×3, s1, p1),
    // image by image as `Conv2d` lowers a batch, and the per-image
    // product W·cols that `Conv2d` runs over each patch matrix.
    let conv_batch = 4usize;
    for (channels, side, c_out, salt) in [(1usize, 28usize, 8usize, 9u64), (8, 14, 16, 10)] {
        let geom = Conv2dGeometry::new(side, side, 3, 3, 1, 1);
        let input = tensor(&[conv_batch, channels * side * side], salt);
        let bytes = geom.im2col_bytes(conv_batch, channels);
        workloads.push(Workload::new(
            format!("conv/im2col/{conv_batch}x{channels}x{side}x{side}k3"),
            "conv",
            &[conv_batch as u64, channels as u64, side as u64, side as u64, 3, 1, 1],
            bytes,
            move || {
                for image in input.as_slice().chunks_exact(channels * side * side) {
                    let _ = im2col(image, channels, &geom);
                }
            },
        ));
        let (taps, pixels) = geom.lowered_shape(channels);
        let (weight, cols) = (tensor(&[c_out, taps], salt + 9), tensor(&[taps, pixels], salt + 8));
        workloads.push(Workload::new(
            format!("matmul/{c_out}x{taps}x{pixels}"),
            "conv",
            &[c_out as u64, taps as u64, pixels as u64],
            matmul_bytes(c_out, taps, pixels),
            move || {
                let _ = weight.matmul(&cols);
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
    // The same craft chunk against the small CNN, whose attack pass runs
    // both convolutions forward and back.
    let mut cnn = ModelSpec::small_cnn().build(7);
    let (cx, corigin, cy) =
        (tensor(&[CRAFT_CHUNK, px], 11), tensor(&[CRAFT_CHUNK, px], 11), labels(CRAFT_CHUNK));
    workloads.push(Workload::new(
        format!("attack/signed_step/{CRAFT_CHUNK}x{px}/cnn"),
        "attack",
        &[CRAFT_CHUNK as u64, px as u64],
        simpadv_attacks::signed_step_bytes(elems),
        move || {
            let _ = simpadv_attacks::signed_step(&mut cnn, &cx, &corigin, &cy, 0.01, 0.1);
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

    // -- train group: one optimizer step of the default MLP on a batch of
    // 64 clean rows plus their 64 FGSM-style perturbations — the
    // clean+adversarial mixture every adversarial trainer steps on per
    // batch. The backward computes layer 0's weight gradient but not its
    // input gradient. The tiny learning rate keeps the model near its
    // initialization over the calibrated wall loop, so every timed
    // iteration sees the same ReLU sparsity; the update arithmetic is the
    // trainers' SGD with momentum.
    let mut stepped = ModelSpec::default_mlp().build(7);
    let mut opt = simpadv_nn::Sgd::new(1e-4).with_momentum(0.9);
    let clean = tensor(&[batch, px], 17);
    let push = tensor(&[batch, px], 18).add_scalar(-0.5).sign().mul_scalar(0.1);
    let adv = clean.add(&push).clamp(0.0, 1.0);
    let mixture = Tensor::concat_rows(&[&clean, &adv]);
    let mixture_labels = [labels(batch), labels(batch)].concat();
    let rows = 2 * batch;
    workloads.push(Workload::new(
        format!("train/step/{rows}x{px}"),
        "train",
        &[rows as u64, px as u64],
        train_step_bytes(rows, px, hidden, classes),
        move || {
            let _ = stepped.train_batch(&mixture, &mixture_labels, &mut opt);
        },
    ));

    // One training batch of each claimed path, crafting included: BIM(10)
    // at ε = 0.3 on the 64 rows (the BIM(10)-Adv trainer's serial craft),
    // or one 0.03 signed step over four 16-row chunks (the Proposed
    // trainer's), then the `train/step` update on the 128-row mixture.
    // The update gives every iteration a new weight version, as training
    // does, so each one pays the replica clone and the `Wᵀ` pack the
    // craft needs.
    let (eps, bim_iterations, proposed_step) = (0.3, 10, 0.03);
    let mut bim_clf = ModelSpec::default_mlp().build(7);
    let mut bim_opt = simpadv_nn::Sgd::new(1e-4).with_momentum(0.9);
    let (bim_x, bim_y) = (tensor(&[batch, px], 19), labels(batch));
    let bim_mixture_y = bim_y.repeat(2);
    workloads.push(Workload::new(
        format!("train/bim{bim_iterations}_batch/{batch}x{px}"),
        "train",
        &[batch as u64, px as u64],
        bim_iterations as u64 * attack_step_bytes(batch, px, hidden, classes)
            + train_step_bytes(rows, px, hidden, classes),
        move || {
            let adv = Bim::new(eps, bim_iterations).perturb(&mut bim_clf, &bim_x, &bim_y);
            let mixture = Tensor::concat_rows(&[&bim_x, &adv]);
            let _ = bim_clf.train_batch(&mixture, &bim_mixture_y, &mut bim_opt);
        },
    ));
    let mut proposed_clf = ModelSpec::default_mlp().build(7);
    let mut proposed_opt = simpadv_nn::Sgd::new(1e-4).with_momentum(0.9);
    let origin = tensor(&[batch, px], 20);
    let carried =
        origin.add(&tensor(&[batch, px], 21).add_scalar(-0.5).mul_scalar(0.2)).clamp(0.0, 1.0);
    let proposed_y = labels(batch);
    let proposed_mixture_y = proposed_y.repeat(2);
    workloads.push(Workload::new(
        format!("train/proposed_batch/{batch}x{px}"),
        "train",
        &[batch as u64, px as u64],
        (batch / CRAFT_CHUNK) as u64 * attack_step_bytes(CRAFT_CHUNK, px, hidden, classes)
            + train_step_bytes(rows, px, hidden, classes),
        move || {
            let adv = signed_step_parallel(
                &simpadv_runtime::Runtime::global(),
                &proposed_clf,
                &carried,
                &origin,
                &proposed_y,
                proposed_step,
                eps,
            );
            let mixture = Tensor::concat_rows(&[&origin, &adv]);
            let _ = proposed_clf.train_batch(&mixture, &proposed_mixture_y, &mut proposed_opt);
        },
    ));

    // -- serve group: the batched forward behind one dispatch, and the
    // request codec around it.
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
    // The `/predict` codec: one 784-pixel request body encoded as the
    // client encodes it and read back as the server reads it, each once
    // per request. Its bytes count the text both ways, so a change to the
    // wire text changes the row.
    let image =
        simpadv_data::SynthDataset::Mnist.generate(&simpadv_data::SynthConfig::new(1, 2019));
    let codec_request = simpadv_serve::PredictRequest {
        pixels: image.images().row(0).into_vec(),
        label: Some(image.labels()[0]),
        adversarial: false,
    };
    let encoded_len = codec_request.to_body().len();
    workloads.push(Workload::new(
        format!("serve/json/predict_request/{px}"),
        "serve",
        &[px as u64],
        2 * encoded_len as u64,
        move || {
            let _ = simpadv_serve::PredictRequest::from_body(&codec_request.to_body());
        },
    ));
    workloads
}

/// Options of the `simpadv-cli bench kernels` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelsOpts {
    /// Wall budget each calibrated timing loop aims for, microseconds
    /// (`--scale smoke` 20 ms, `quick` 100 ms, `full` 500 ms, or
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

/// The logical sweep: one traced iteration per workload, whose
/// clock-delta counters and logical bytes become the workload's row,
/// plus the captured event stream and its `trace` row. Deterministic —
/// same rows and digest on any machine at any thread count.
fn logical_sweep(workloads: &mut [Workload]) -> (Artifact, Vec<Event>) {
    let mut artifact = Artifact::new("kernels");
    let handle = simpadv_trace::install_memory();
    {
        let _sweep = span!("kernels");
        for w in workloads.iter_mut() {
            let before = clock::snapshot();
            {
                let _k = span!(&w.name);
                w.run_once();
            }
            let d = clock::snapshot().delta_since(&before);
            let id = w.name.as_str();
            artifact.set(id, "group", w.group);
            artifact.set(id, "shape", &w.shape);
            artifact.set(id, "forward", d.forward);
            artifact.set(id, "backward", d.backward);
            artifact.set(id, "flops", d.flops);
            artifact.set(id, "attack_steps", d.attack_steps);
            artifact.set(id, "bytes", w.bytes);
        }
    }
    simpadv_trace::flush();
    let events = handle.take();
    simpadv_trace::uninstall();
    artifact.set_trace(&events);
    (artifact, events)
}

/// The wall sweep: warmup, calibration, `repeat` timed loops per
/// workload; the median wall per iteration goes to the warn-only
/// section, iteration counts and spreads to `meta`. Runs strictly after
/// the trace sink is gone, so calibrated iteration counts can never leak
/// events into the logical stream.
fn wall_sweep(workloads: &mut [Workload], opts: &KernelsOpts, artifact: &mut Artifact) {
    #[derive(Serialize)]
    struct Calibrated {
        iters: u64,
        wall_per_iter_s: WallStats,
    }
    let target_s = opts.target_iter_wall_us as f64 / 1e6;
    let mut wall = Vec::with_capacity(workloads.len());
    for w in workloads.iter_mut() {
        for _ in 0..opts.warmup {
            w.run_once();
        }
        let iters = calibrate::calibrate_iters(&mut *w.run, target_s);
        let samples: Vec<f64> =
            (0..opts.repeat).map(|_| calibrate::time_iters(&mut *w.run, iters)).collect();
        let stats = WallStats::from_samples(&samples);
        artifact.set_warn(&w.name, "wall_per_iter_s", stats.median_s);
        wall.push((w.name.clone(), Calibrated { iters, wall_per_iter_s: stats }.to_value()));
    }
    artifact.set_meta("wall", Value::Object(wall));
}

/// Runs the full sweep and assembles the scoreboard artifact plus the
/// logical sweep's event stream (for flamegraph output).
pub fn run_sweep(opts: &KernelsOpts) -> (Artifact, Vec<Event>) {
    if let Some(n) = opts.threads {
        simpadv_runtime::set_global_threads(n);
    }
    let mut workloads = registry();
    let (mut artifact, events) = logical_sweep(&mut workloads);
    wall_sweep(&mut workloads, opts, &mut artifact);
    artifact.set_warn("run", "threads", opts.threads.unwrap_or(0) as u64);
    artifact.set_warn("run", "threads_available", simpadv_runtime::available_threads() as u64);
    artifact.set_meta("repeat", opts.repeat as u64);
    artifact.set_meta("warmup", opts.warmup);
    artifact.set_meta("target_iter_wall_us", opts.target_iter_wall_us);
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
    artifact: &Artifact,
    events: &[Event],
) -> Result<(), Box<dyn Error>> {
    simpadv_resilience::write_json_atomic(&opts.out, artifact)?;
    crate::verify_artifact(&opts.out)?;
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
/// then the median wall per iteration and the rates derived from it.
pub fn render_table(artifact: &Artifact) -> String {
    use std::fmt::Write as _;
    let count = |row: &simpadv_obs::Fields, field: &str| match row.get(field) {
        Some(Value::U64(n)) => *n,
        _ => 0,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>4} {:>4} {:>12} {:>12} | {:>12} {:>9} {:>9}",
        "workload", "group", "fwd", "bwd", "flops", "bytes", "wall/iter(s)", "GFLOP/s", "GB/s"
    );
    for (name, row) in artifact.rows.iter().filter(|(name, _)| *name != "trace") {
        let group = match row.get("group") {
            Some(Value::String(g)) => g.as_str(),
            _ => "",
        };
        let wps = match artifact.warn.get(name).and_then(|w| w.get("wall_per_iter_s")) {
            Some(Value::F64(s)) => *s,
            _ => 0.0,
        };
        let rate = |n: u64| if wps > 0.0 { n as f64 / wps / 1e9 } else { 0.0 };
        let (flops, bytes) = (count(row, "flops"), count(row, "bytes"));
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>4} {:>4} {:>12} {:>12} | {:>12.3e} {:>9.2} {:>9.2}",
            name,
            group,
            count(row, "forward"),
            count(row, "backward"),
            flops,
            bytes,
            wps,
            rate(flops),
            rate(bytes)
        );
    }
    let _ = writeln!(out, "({})", simpadv_obs::WALL_NOTE);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_tensor::matmul_flops;

    #[test]
    fn registry_covers_every_kernel_group() {
        let reg = registry();
        for group in ["matmul", "conv", "attack", "train", "serve"] {
            assert!(reg.iter().any(|w| w.group == group), "missing group {group}");
        }
        // names are unique — they key both artifact tables
        let mut names: Vec<&str> = reg.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn logical_sweep_rows_match_the_shape_formulas() {
        let _trace = crate::tests::trace_lock();
        let mut workloads = registry();
        let (artifact, events) = logical_sweep(&mut workloads);
        assert_eq!(artifact.rows.len(), workloads.len() + 1, "one row per workload + trace");
        assert_eq!(artifact.rows["trace"]["events"], Value::U64(events.len() as u64));
        let u = |n: u64| Value::U64(n);
        let counters = |name: &str| {
            let row = &artifact.rows[name];
            ["forward", "backward", "flops", "attack_steps"].map(|f| row[f].clone())
        };

        let mm = counters("matmul/64x784x128");
        assert_eq!(mm, [u(0), u(0), u(matmul_flops(64, 784, 128)), u(0)]);

        // a masked twin differs from its near-dense row in operand data only
        let twins: Vec<&str> =
            artifact.rows.keys().filter_map(|id| id.strip_suffix(MASKED_SUFFIX)).collect();
        assert_eq!(
            twins,
            [
                "matmul/64x784x128",
                "matmul_nt/16x128x784",
                "matmul_nt/64x128x784",
                "matmul_tn/784x64x128"
            ]
        );
        for id in twins {
            assert_eq!(artifact.rows[&format!("{id}{MASKED_SUFFIX}")], artifact.rows[id], "{id}");
        }

        // the small CNN's lowering tiles move data only; its convolutions
        // are one W [c_out, taps] · cols [taps, pixels] product per image
        for (id, channels, side) in
            [("conv/im2col/4x1x28x28k3", 1u64, 28u64), ("conv/im2col/4x8x14x14k3", 8, 14)]
        {
            assert_eq!(counters(id), [u(0), u(0), u(0), u(0)]);
            let (input, lowered) = (4 * channels * side * side, 4 * channels * 9 * side * side);
            assert_eq!(artifact.rows[id]["bytes"], u(4 * (input + lowered)), "{id}");
        }
        for (id, [m, k, n]) in
            [("matmul/8x9x784", [8, 9, 784]), ("matmul/16x72x196", [16, 72, 196])]
        {
            assert_eq!(artifact.rows[id]["group"], Value::String("conv".into()));
            assert_eq!(counters(id), [u(0), u(0), u(matmul_flops(m, k, n)), u(0)]);
            assert_eq!(artifact.rows[id]["bytes"], u(matmul_bytes(m, k, n)));
        }

        // one craft chunk: the forward plus the input gradient, no weight
        // gradients — 2·(16·784·128 + 16·128·10)
        let step = counters("attack/signed_step/16x784");
        assert_eq!(step, [u(1), u(1), u(3_252_224), u(1)]);
        // and against the small CNN: both convolutions and the head,
        // forward and input gradient — 2·16·(8·9·784 + 16·72·196 + 784·10)
        let cnn_image = matmul_flops(8, 9, 784) + matmul_flops(16, 72, 196) + 784 * 10;
        let cnn_step = counters("attack/signed_step/16x784/cnn");
        assert_eq!(cnn_step, [u(1), u(1), u(2 * 16 * cnn_image), u(1)]);
        assert_eq!(2 * 16 * cnn_image, 9_282_560);
        let cnn_bytes = &artifact.rows["attack/signed_step/16x784/cnn"]["bytes"];
        assert_eq!(cnn_bytes, &artifact.rows["attack/signed_step/16x784"]["bytes"]);

        // one training step on 64 clean + 64 adversarial rows: the forward,
        // layer 2's weight and input gradients, layer 0's weight gradient
        // (its input gradient is never computed)
        let train = counters("train/step/128x784");
        let forward = matmul_flops(128, 784, 128) + matmul_flops(128, 128, 10);
        let layer2 = matmul_flops(128, 128, 10) + matmul_flops(128, 10, 128);
        assert_eq!(forward + layer2 + matmul_flops(784, 128, 128), 26_181_632);
        assert_eq!(train, [u(1), u(1), u(26_181_632), u(0)]);
        assert_eq!(artifact.rows["train/step/128x784"]["group"], Value::String("train".into()));

        // one BIM(10)-Adv batch: ten 64-row attack steps, then that step;
        // one Proposed batch: four 16-row steps, as many flops as one
        // 64-row step, then the same training step
        let attack_step = 2 * (matmul_flops(64, 784, 128) + matmul_flops(64, 128, 10));
        assert_eq!(4 * 3_252_224, attack_step);
        let bim = counters("train/bim10_batch/64x784");
        assert_eq!(bim, [u(11), u(11), u(10 * attack_step + 26_181_632), u(10)]);
        let proposed = counters("train/proposed_batch/64x784");
        assert_eq!(proposed, [u(5), u(5), u(attack_step + 26_181_632), u(4)]);

        let ball = "attack/project_ball/16x784";
        assert_eq!(counters(ball), [u(0), u(0), u(0), u(0)]);
        assert_eq!(artifact.rows[ball]["bytes"], u(simpadv_attacks::project_ball_bytes(16 * 784)));

        let serve = counters("serve/predict/16x784");
        let flops = matmul_flops(16, 784, 128) + matmul_flops(16, 128, 10);
        assert_eq!([&serve[0], &serve[2]], [&u(1), &u(flops)]);

        // the request codec runs no model; its bytes are the body's text
        // written and read back
        let codec = "serve/json/predict_request/784";
        assert_eq!(counters(codec), [u(0), u(0), u(0), u(0)]);
        let Value::U64(bytes) = artifact.rows[codec]["bytes"] else { panic!("bytes is a count") };
        assert!(bytes % 2 == 0 && bytes > 2 * 784 * 2, "{bytes} bytes");
    }

    #[test]
    fn masked_operands_run_at_training_sparsity() {
        for (zeros, salt) in [(IMAGE_ZEROS_PER_MILLE, 1), (DELTA_ZEROS_PER_MILLE, 7)] {
            let t = masked(&[64, 784], salt, zeros);
            let fraction =
                t.as_slice().iter().filter(|&&v| v == 0.0).count() as f64 / t.len() as f64;
            let want = zeros as f64 / 1000.0;
            assert!((fraction - want).abs() < 0.02, "{fraction} zeros, want about {want}");
            assert_eq!(masked(&[64, 784], salt, zeros), t, "the mask is deterministic");
        }
    }

    #[test]
    fn logical_sweep_is_reproducible() {
        let _trace = crate::tests::trace_lock();
        // Same rows, same digest, run to run — the property the
        // threads-1-vs-4 CI check rests on.
        let (a, _) = logical_sweep(&mut registry());
        let (b, _) = logical_sweep(&mut registry());
        assert_eq!(a.rows, b.rows);
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
        assert_eq!(artifact.schema_version, simpadv_obs::SCHEMA_VERSION);
        assert_eq!(artifact.experiment, "kernels");
        assert_eq!(artifact.rows["trace"]["events"], Value::U64(events.len() as u64));
        let Value::Object(wall) = &artifact.meta["wall"] else { panic!("meta.wall is a map") };
        assert_eq!(wall.len(), artifact.rows.len() - 1);
        for (name, calibrated) in wall {
            assert!(matches!(calibrated.get("iters"), Some(Value::U64(n)) if *n >= 1), "{name}");
            assert!(matches!(artifact.warn[name]["wall_per_iter_s"], Value::F64(s) if s >= 0.0));
        }
        // identity comparison passes the gate cleanly
        let report = simpadv_obs::compare(&artifact, &artifact, 25.0);
        assert!(report.passed(), "{:?}", report.regressions);
        // the table renders every workload and the wall caveat
        let table = render_table(&artifact);
        for (name, _) in wall {
            assert!(table.contains(name.as_str()), "missing {name} in:\n{table}");
        }
        assert!(table.contains(simpadv_obs::WALL_NOTE));
    }
}
