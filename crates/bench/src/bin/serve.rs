//! `bench serve`: closed-loop load generator for the inference server.
//!
//! Starts an in-process [`simpadv_serve::Server`] over a checkpoint
//! directory, then drives it with N closed-loop clients (each keeps
//! exactly one request in flight) mixing clean and adversarially
//! perturbed traffic at a configurable fraction. Every answered request
//! is checked bitwise against offline single-input inference on the same
//! generation — the serving path must not change a single logit bit.
//!
//! Emits `BENCH_serve.json` (`simpadv_obs::artifact`, tagged `serve`):
//! the load scale and per-generation clean-vs-adversarial accuracy
//! counters as logical rows, throughput and backpressure rejections
//! warn-only, latency percentiles and batch occupancy in `meta`.

use simpadv_attacks::{parallel::craft_parallel, Attack, Bim, Pgd};
use simpadv_data::{SynthConfig, SynthDataset, CLASS_COUNT};
use simpadv_nn::GradientModel;
use simpadv_obs::Artifact;
use simpadv_runtime::{split_seed, Runtime};
use simpadv_serve::{client, newest_servable, BatchConfig, PredictRequest, ServeConfig, Server};
use simpadv_trace::clock::WallTimer;

/// Parsed command line of the load generator.
struct ServeBenchOpts {
    model_dir: std::path::PathBuf,
    requests: usize,
    clients: usize,
    adv_permille: u64,
    attack: String,
    samples: usize,
    dataset: SynthDataset,
    batch_max: usize,
    queue_cap: Option<usize>,
    threads: Option<usize>,
    trace: Option<std::path::PathBuf>,
    seed: u64,
    out: std::path::PathBuf,
}

const USAGE: &str = "usage: serve --model-dir DIR [--requests N] [--clients N] \
[--adv-fraction F] [--attack pgd|bim] [--samples N] [--dataset mnist|fashion] \
[--batch-max N] [--queue-cap N] [--threads N] [--trace FILE] \
[--seed N] [--out FILE]";

fn next_usize(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    match it.next().map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => Ok(n),
        _ => Err(format!("{flag} needs a non-negative integer value")),
    }
}

fn parse_args(args: &[String]) -> Result<ServeBenchOpts, String> {
    let mut opts = ServeBenchOpts {
        model_dir: std::path::PathBuf::new(),
        requests: 200,
        clients: 4,
        adv_permille: 100,
        attack: "pgd".to_string(),
        samples: 64,
        dataset: SynthDataset::Mnist,
        batch_max: 16,
        queue_cap: None,
        threads: None,
        trace: None,
        seed: 2019,
        out: std::path::PathBuf::from("BENCH_serve.json"),
    };
    let mut have_dir = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model-dir" => match it.next() {
                Some(dir) => {
                    opts.model_dir = std::path::PathBuf::from(dir);
                    have_dir = true;
                }
                None => return Err(USAGE.to_string()),
            },
            "--requests" => opts.requests = next_usize(&mut it, "--requests")?,
            "--clients" => opts.clients = next_usize(&mut it, "--clients")?,
            "--adv-fraction" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(f)) if (0.0..=1.0).contains(&f) => {
                    opts.adv_permille = (f * 1000.0).round() as u64;
                }
                _ => return Err("--adv-fraction needs a value in [0, 1]".to_string()),
            },
            "--attack" => match it.next().map(String::as_str) {
                Some(name @ ("pgd" | "bim")) => opts.attack = name.to_string(),
                _ => return Err("--attack needs pgd or bim".to_string()),
            },
            "--samples" => opts.samples = next_usize(&mut it, "--samples")?,
            "--dataset" => match it.next().map(String::as_str) {
                Some("mnist") => opts.dataset = SynthDataset::Mnist,
                Some("fashion") => opts.dataset = SynthDataset::Fashion,
                _ => return Err("--dataset needs mnist or fashion".to_string()),
            },
            "--batch-max" => opts.batch_max = next_usize(&mut it, "--batch-max")?,
            "--queue-cap" => opts.queue_cap = Some(next_usize(&mut it, "--queue-cap")?),
            "--threads" => opts.threads = Some(next_usize(&mut it, "--threads")?),
            "--trace" => match it.next() {
                Some(path) => opts.trace = Some(std::path::PathBuf::from(path)),
                None => return Err(USAGE.to_string()),
            },
            "--seed" => opts.seed = next_usize(&mut it, "--seed")? as u64,
            "--out" => match it.next() {
                Some(path) => opts.out = std::path::PathBuf::from(path),
                None => return Err(USAGE.to_string()),
            },
            _ => return Err(USAGE.to_string()),
        }
    }
    if !have_dir {
        return Err(format!(
            "--model-dir is required (a checkpoint directory with at least one generation)\n{USAGE}"
        ));
    }
    if opts.requests == 0 || opts.clients == 0 || opts.samples == 0 || opts.batch_max == 0 {
        return Err("--requests, --clients, --samples and --batch-max must be positive".to_string());
    }
    Ok(opts)
}

/// Deterministic adversarial schedule: request `i` is adversarial iff
/// the cumulative adversarial quota increases at `i`, which spreads the
/// fraction evenly over the run instead of front-loading it.
fn is_adversarial(i: usize, permille: u64) -> bool {
    let i = i as u64;
    ((i + 1) * permille) / 1000 > (i * permille) / 1000
}

#[expect(
    clippy::disallowed_methods,
    reason = "bench binary entry point; the exit code is the gate's interface to CI"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Some(n) = opts.threads {
        simpadv_runtime::set_global_threads(n);
    }
    if let Some(path) = &opts.trace {
        if let Err(e) = simpadv_trace::install_file(path, simpadv_trace::TraceFormat::Jsonl) {
            eprintln!("cannot open trace file {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    // Offline reference: the same generation the server will serve.
    let store = match simpadv_resilience::CheckpointStore::open(&opts.model_dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open {}: {e}", opts.model_dir.display());
            std::process::exit(1);
        }
    };
    let (generation, mut offline) = match newest_servable(&store, 0) {
        Ok(scan) => match scan.servable {
            Some((generation, _, clf)) => (generation, clf),
            None => {
                eprintln!("no servable model in {}", opts.model_dir.display());
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("cannot scan {}: {e}", opts.model_dir.display());
            std::process::exit(1);
        }
    };

    // Request pool: `samples` clean inputs plus their perturbed twins,
    // crafted once up front against the serving generation.
    let pool = opts.dataset.generate(&SynthConfig::new(opts.samples, opts.seed));
    let labels = pool.labels().to_vec();
    let eps = opts.dataset.paper_epsilon();
    let seed = opts.seed;
    let make_attack: Box<dyn Fn(usize) -> Box<dyn Attack> + Sync> = match opts.attack.as_str() {
        "bim" => Box::new(move |_| Box::new(Bim::new(eps, 4))),
        _ => Box::new(move |first| Box::new(Pgd::new(eps, 4, split_seed(seed, first as u64)))),
    };
    let rt = Runtime::global();
    let adv_pool = craft_parallel(&rt, &offline, make_attack.as_ref(), pool.images(), &labels);

    // Offline single-input expectations, one batched forward per pool;
    // row-independent kernels make this bitwise equal to row-at-a-time.
    let clean_logits = offline.logits(pool.images()).into_vec();
    let adv_logits = offline.logits(&adv_pool).into_vec();

    let mut cfg = ServeConfig::for_dir(&opts.model_dir);
    cfg.batch = BatchConfig {
        batch_max: opts.batch_max,
        queue_cap: opts.queue_cap.unwrap_or_else(|| opts.clients.max(64)),
    };
    let queue_cap = cfg.batch.queue_cap;
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr();
    if let Err(e) = client::wait_ready(&addr, 10_000_000) {
        eprintln!("{e}");
        std::process::exit(1);
    }

    // Closed loop: client c owns requests i with i % clients == c and
    // keeps exactly one in flight, so offered load adapts to capacity.
    let client_ids: Vec<usize> = (0..opts.clients).collect();
    let permille = opts.adv_permille;
    let requests = opts.requests;
    let clients = opts.clients;
    let samples = opts.samples;
    let clean_pixels = pool.images().as_slice();
    let adv_pixels = adv_pool.as_slice();
    let pixel_len = pool.images().shape()[1];
    let loop_rt = Runtime::new(opts.clients);
    let wall = WallTimer::start();
    let per_client: Vec<(u64, u64, u64)> = loop_rt.par_map(&client_ids, |&c| {
        let mut answered = 0u64;
        let mut rejected = 0u64;
        let mut mismatches = 0u64;
        let mut i = c;
        while i < requests {
            let adversarial = is_adversarial(i, permille);
            let sample = i % samples;
            let src = if adversarial { adv_pixels } else { clean_pixels };
            let expected = if adversarial { &adv_logits } else { &clean_logits };
            let request = PredictRequest {
                pixels: src[sample * pixel_len..(sample + 1) * pixel_len].to_vec(),
                label: Some(labels[sample]),
                adversarial,
            };
            match client::predict(&addr, &request) {
                Ok(client::PredictOutcome::Predicted(resp)) => {
                    answered += 1;
                    let want = &expected[sample * CLASS_COUNT..(sample + 1) * CLASS_COUNT];
                    let exact = resp.generation == generation
                        && resp.logits.len() == want.len()
                        && resp.logits.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
                    if !exact {
                        mismatches += 1;
                    }
                }
                Ok(client::PredictOutcome::Rejected(_)) => rejected += 1,
                Err(e) => {
                    eprintln!("client {c}: request {i} failed: {e}");
                    mismatches += 1;
                }
            }
            i += clients;
        }
        (answered, rejected, mismatches)
    });
    let wall_total_s = wall.elapsed_seconds();
    let snapshot = server.shutdown();

    let answered: u64 = per_client.iter().map(|r| r.0).sum();
    let client_rejected: u64 = per_client.iter().map(|r| r.1).sum();
    let mismatches: u64 = per_client.iter().map(|r| r.2).sum();

    let throughput_rps =
        if wall_total_s > 0.0 { snapshot.served as f64 / wall_total_s } else { 0.0 };
    let mut artifact = Artifact::new("serve");
    artifact.set("scale", "requests", opts.requests as u64);
    artifact.set("scale", "clients", opts.clients as u64);
    artifact.set("scale", "samples", opts.samples as u64);
    artifact.set("scale", "adv_permille", opts.adv_permille);
    artifact.set("scale", "attack", &opts.attack);
    artifact.set("scale", "batch_max", opts.batch_max as u64);
    artifact.set("scale", "queue_cap", queue_cap as u64);
    artifact.set("scale", "seed", opts.seed);
    artifact.set("server", "served", snapshot.served);
    artifact.set("server", "skipped_generations", snapshot.skipped_generations);
    for g in &snapshot.generations {
        let row = format!("generation/{}/{}", g.generation, g.traffic);
        artifact.set(&row, "requests", g.requests);
        artifact.set(&row, "labeled", g.labeled);
        artifact.set(&row, "correct", g.correct);
    }
    artifact.set_warn("run", "throughput_rps", throughput_rps);
    artifact.set_warn("run", "rejected", snapshot.rejected);
    artifact.set_meta("threads", rt.threads() as u64);
    artifact.set_meta("wall_total_s", wall_total_s);
    artifact.set_meta("latency_p50_us", snapshot.latency_us.p50_us);
    artifact.set_meta("latency_p90_us", snapshot.latency_us.p90_us);
    artifact.set_meta("latency_p99_us", snapshot.latency_us.p99_us);
    artifact.set_meta("latency_max_us", snapshot.latency_us.max_us);
    artifact.set_meta("batch_occupancy_mean", snapshot.batch_occupancy.mean);
    artifact.set_meta("batch_occupancy_max", snapshot.batch_occupancy.max);
    if let Err(e) = simpadv_resilience::write_json_atomic(&opts.out, &artifact) {
        eprintln!("cannot write {}: {e}", opts.out.display());
        std::process::exit(1);
    }
    if let Err(e) = simpadv_bench::verify_artifact(&opts.out) {
        eprintln!("{e}");
        std::process::exit(1);
    }

    println!(
        "serve bench: generation {generation}, {} served / {} rejected, \
         {:.1} rps, p50 {} us, p99 {} us, mean batch {:.2}",
        snapshot.served,
        snapshot.rejected.max(client_rejected),
        throughput_rps,
        snapshot.latency_us.p50_us,
        snapshot.latency_us.p99_us,
        snapshot.batch_occupancy.mean,
    );
    for g in &snapshot.generations {
        println!(
            "  gen {} {:<11} {:>5} requests, accuracy {}/{}",
            g.generation, g.traffic, g.requests, g.correct, g.labeled
        );
    }
    println!("artifact: {}", opts.out.display());

    if opts.trace.is_some() {
        simpadv_trace::uninstall();
    }
    if mismatches > 0 {
        eprintln!("{mismatches} responses deviated bitwise from offline inference");
        std::process::exit(1);
    }
    if snapshot.served == 0 || answered == 0 {
        eprintln!("no requests were served");
        std::process::exit(1);
    }
}
