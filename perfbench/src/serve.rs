//! Serving workload: the repository's own serve traffic, for a fixed time.
//!
//! The traffic is what the repository's load generator sends by default
//! and what its serve smoke check drives (`crates/bench/src/bin/serve.rs`,
//! DESIGN.md §11): [`CLIENTS`] closed-loop clients, each keeping one
//! request in flight, against the server's default batching; one request
//! in ten is adversarial, PGD-crafted with that generator's iteration
//! count and spread evenly over the run by the same quota rule.
//!
//! [`GENERATIONS`] models trained with the paper's method (trained before
//! the timed set-up) are served in turn by an in-process
//! `simpadv_serve::Server`: the first is published before the server
//! starts, and each later one is published and hot-swapped in at its share
//! of the time budget. An adversarial request is crafted against the
//! generation live when it is sent, and every request carries its label,
//! so the answers give robust accuracy averaged over the generations.
//! Every answer is checked bitwise against offline inference by the
//! generation that answered it.

use crate::stats::{median, quantile};
use crate::{timed_setup, Metric, Outcome};
use simpadv::train::{ProposedTrainer, Trainer};
use simpadv::{ModelSpec, TrainConfig};
use simpadv_attacks::{parallel::craft_parallel, Attack, Pgd};
use simpadv_data::{SynthConfig, SynthDataset, CLASS_COUNT, IMAGE_PIXELS};
use simpadv_nn::{Classifier, GradientModel};
use simpadv_resilience::CheckpointStore;
use simpadv_runtime::{split_seed, Runtime};
use simpadv_serve::client::{self, PredictOutcome};
use simpadv_serve::{PredictRequest, ServeConfig, ServedModel, Server};
use simpadv_tensor::Tensor;
use simpadv_trace::{EventKind, FieldValue, MemoryHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients: the load generator's default `--clients`.
const CLIENTS: usize = 4;
/// Adversarial requests per thousand: the load generator's default
/// `--adv-fraction` of 0.10.
const ADV_PERMILLE: usize = 100;
/// PGD iterations of the adversarial traffic, as the load generator crafts it.
const PGD_STEPS: usize = 4;
/// Budget of the adversarial traffic. The load generator uses the paper's
/// ε (0.3), which takes robust accuracy of these small models to near 0;
/// a third of it keeps accuracy mid-range, as in the training workloads.
const TRAFFIC_EPSILON: f32 = 0.1;
/// Training budget of the served models: the paper's MNIST ε.
const TRAIN_EPSILON: f32 = 0.3;
/// Models served in turn, each for an equal share of the time budget.
/// Robust accuracy varies from model to model; eight keep its mean steady.
const GENERATIONS: usize = 8;
/// Distinct inputs; clean and adversarial requests each cycle through them.
const POOL: usize = 300;
/// How often a traced run drains the server's trace events.
const DRAIN_EVERY: Duration = Duration::from_millis(100);

/// Set-up repeats; `setup_s` is their median. It is not host-normalised:
/// a set-up takes about a second, long enough to average out the host's
/// speed bursts, which the millisecond reference kernel catches instead.
const SETUP_REPEATS: usize = 5;

/// The models to serve, the checkpoint directory and server serving
/// them, and the traffic each will get.
struct Deployment {
    models: Vec<ServedModel>,
    store: CheckpointStore,
    dir: PathBuf,
    server: Option<Server>,
    /// Generation number of each model published so far, in order.
    generations: Mutex<Vec<u64>>,
    labels: Vec<usize>,
    clean: Vec<f32>,
    /// `adversarial[s]`: the pool crafted against model `s`.
    adversarial: Vec<Vec<f32>>,
    /// `clean_logits[m]`: model `m` on the clean pool.
    clean_logits: Vec<Vec<f32>>,
    /// `adversarial_logits[m][s]`: model `m` on the pool crafted against `s`.
    adversarial_logits: Vec<Vec<Vec<f32>>>,
}

impl Deployment {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("the server runs until the deployment drops")
    }

    fn published(&self) -> Vec<u64> {
        self.generations.lock().expect("no thread panics holding the generation list").clone()
    }

    /// The logits offline inference gives for `item` on model `m`: clean,
    /// or crafted against model `target`.
    fn expected(&self, m: usize, item: usize, adversarial: Option<usize>) -> &[f32] {
        let logits = match adversarial {
            Some(target) => &self.adversarial_logits[m][target],
            None => &self.clean_logits[m],
        };
        &logits[item * CLASS_COUNT..(item + 1) * CLASS_COUNT]
    }

    /// Publishes the next model and hot-swaps it in.
    fn swap_next(&self) {
        // Only the swapping task publishes, and the server cannot answer
        // from the new generation before the rescan below, so the list
        // need not stay locked while the checkpoint is written.
        let next = &self.models[self.published().len()];
        let generation = next.publish(&self.store).expect("publish the next model");
        self.generations
            .lock()
            .expect("no thread panics holding the generation list")
            .push(generation);
        let report = self.server().rescan().expect("rescan the checkpoint directory");
        assert_eq!(report.installed, Some(generation), "the hot swap installs the new model");
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Crafts the traffic against every model, publishes the first and
/// starts a server on it.
fn deploy(models: &[ServedModel], seed: u64, attempt: usize) -> Deployment {
    let dir = crate::work_dir().join(format!("serve-{}-{attempt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open the checkpoint directory");
    let mut offline: Vec<Classifier> =
        models.iter().map(|m| m.restore().expect("restore a served model")).collect();

    let pool = SynthDataset::Mnist.generate(&SynthConfig::new(POOL, split_seed(seed, 2)));
    let labels = pool.labels().to_vec();
    let adversarial: Vec<Tensor> = offline
        .iter()
        .enumerate()
        .map(|(s, clf)| {
            let attack_seed = split_seed(seed, 300 + s as u64);
            let make_attack = move |first: usize| {
                Box::new(Pgd::new(TRAFFIC_EPSILON, PGD_STEPS, split_seed(attack_seed, first as u64)))
                    as Box<dyn Attack>
            };
            craft_parallel(&Runtime::global(), clf, &make_attack, pool.images(), &labels)
        })
        .collect();
    let clean_logits = offline.iter_mut().map(|clf| clf.logits(pool.images()).into_vec()).collect();
    let adversarial_logits = offline
        .iter_mut()
        .map(|clf| adversarial.iter().map(|adv| clf.logits(adv).into_vec()).collect())
        .collect();

    let first = models[0].publish(&store).expect("publish the first model");
    let server = Server::start(ServeConfig::for_dir(&dir)).expect("start the server");
    client::wait_ready(&server.local_addr(), 10_000_000).expect("server becomes ready");
    Deployment {
        models: models.to_vec(),
        store,
        dir,
        server: Some(server),
        generations: Mutex::new(vec![first]),
        labels,
        clean: pool.images().as_slice().to_vec(),
        adversarial: adversarial.into_iter().map(Tensor::into_vec).collect(),
        clean_logits,
        adversarial_logits,
    }
}

/// What one request measured.
struct Sample {
    adversarial: bool,
    /// Send to answer, microseconds.
    latency_us: f64,
    answer: Answer,
}

enum Answer {
    /// `on_target`: answered by the model live when it was sent (a request
    /// racing a hot swap may be answered by the next one).
    Answered {
        correct: bool,
        exact: bool,
        on_target: bool,
    },
    Rejected,
    Error,
}

/// The load generator's quota rule: request `i` is adversarial iff the
/// cumulative adversarial quota increases at `i`.
fn is_adversarial(i: usize) -> bool {
    (i + 1) * ADV_PERMILLE / 1000 > i * ADV_PERMILLE / 1000
}

/// Sends request `i` and records what happened.
fn send(d: &Deployment, addr: &str, i: usize) -> Sample {
    let adversarial = is_adversarial(i);
    // Adversarial requests are numbered among themselves, so they too
    // cycle through the whole pool.
    let item = if adversarial { i * ADV_PERMILLE / 1000 } else { i } % POOL;
    let target = d.published().len() - 1;
    let pixels = if adversarial { &d.adversarial[target] } else { &d.clean };
    let request = PredictRequest {
        pixels: pixels[item * IMAGE_PIXELS..(item + 1) * IMAGE_PIXELS].to_vec(),
        label: Some(d.labels[item]),
        adversarial,
    };
    let sent = Instant::now();
    let result = client::predict(addr, &request);
    let latency_us = sent.elapsed().as_secs_f64() * 1e6;
    let answer = match result {
        Ok(PredictOutcome::Predicted(resp)) => {
            let answered_by = d.published().iter().position(|&g| g == resp.generation);
            let want = answered_by.map(|m| d.expected(m, item, adversarial.then_some(target)));
            Answer::Answered {
                correct: Some(resp.prediction) == request.label,
                exact: want.is_some_and(|want| {
                    resp.logits.len() == want.len()
                        && resp.logits.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
                }),
                on_target: answered_by == Some(target),
            }
        }
        Ok(PredictOutcome::Rejected(_)) => Answer::Rejected,
        Err(e) => {
            eprintln!("request {i} failed: {e}");
            Answer::Error
        }
    };
    Sample { adversarial, latency_us, answer }
}

/// Blocks the calling thread until `deadline`: a timed wait on a
/// condition variable nothing signals. (The repository's lint wall keeps
/// the standard thread module inside the runtime crate; the threads here
/// come from [`Runtime`].)
fn sleep_until(deadline: Instant) {
    let lock = Mutex::new(());
    let never = Condvar::new();
    let mut guard = lock.lock().expect("a fresh mutex is not poisoned");
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        guard = never.wait_timeout(guard, left).expect("a fresh mutex is not poisoned").0;
    }
}

/// The batched forward times, in milliseconds, among trace events.
fn forward_ms(events: Vec<simpadv_trace::Event>) -> impl Iterator<Item = f64> {
    events
        .into_iter()
        .filter(|e| e.kind == EventKind::SpanClose && e.path.ends_with("serve/batch"))
        .filter_map(|e| match e.meta.iter().find(|(k, _)| k == "wall_us") {
            Some((_, FieldValue::U64(us))) => Some(*us as f64 / 1e3),
            _ => None,
        })
}

/// Runs the closed loop for `seconds`, hot-swapping in the next model at
/// each share of the time, and collects one sample per request, plus the
/// server's batched forward times when `memory` holds its trace.
///
/// [`CLIENTS`] client tasks and one swap task run side by side, one per
/// runtime worker. The swap task also drains `memory` as it goes, so a
/// traced run holds only a moment's events at a time.
fn drive(d: &Deployment, seconds: f64, memory: Option<&MemoryHandle>) -> (Vec<Sample>, Vec<f64>) {
    let addr = d.server().local_addr();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let tasks: Vec<usize> = (0..=CLIENTS).collect();
    let per_task = Runtime::new(tasks.len()).par_map(&tasks, |&task| {
        let (mut samples, mut forward) = (Vec::new(), Vec::new());
        if task == CLIENTS {
            for g in 1..=GENERATIONS {
                let share_end = start + Duration::from_secs_f64(seconds * g as f64 / GENERATIONS as f64);
                while Instant::now() < share_end {
                    sleep_until(share_end.min(Instant::now() + DRAIN_EVERY));
                    if let Some(m) = memory {
                        forward.extend(forward_ms(m.take()));
                    }
                }
                if g < GENERATIONS {
                    d.swap_next();
                }
            }
            return (samples, forward);
        }
        while Instant::now() < end {
            samples.push(send(d, &addr, next.fetch_add(1, Ordering::Relaxed)));
        }
        (samples, forward)
    });
    let (samples, forward): (Vec<_>, Vec<_>) = per_task.into_iter().unzip();
    (samples.into_iter().flatten().collect(), forward.into_iter().flatten().collect())
}

/// Trains the models to serve with the paper's method, one per
/// generation, each from its own sub-seed.
fn train_models(seed: u64) -> Vec<ServedModel> {
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(256, split_seed(seed, 1)));
    let spec = ModelSpec::default_mlp();
    (0..GENERATIONS as u64)
        .map(|g| {
            let mut clf = spec.build(split_seed(seed, 100 + g));
            let config = TrainConfig::new(12, split_seed(seed, 200 + g));
            ProposedTrainer::paper_defaults(TRAIN_EPSILON).train(&mut clf, &train, &config);
            ServedModel::capture(&spec, &clf, "mnist", "proposed")
        })
        .collect()
}

/// Runs the serving workload for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let models = train_models(seed);
    let mut attempt = 0;
    let (deployment, setup_s) = timed_setup(SETUP_REPEATS, false, || {
        attempt += 1;
        deploy(&models, seed, attempt)
    });
    let memory = trace.then(simpadv_trace::install_memory);
    let (samples, mut forward) = drive(&deployment, seconds, memory.as_ref());
    if let Some(m) = memory {
        simpadv_trace::uninstall();
        forward.extend(forward_ms(m.take()));
    }
    let server_stats = deployment.server().stats();

    let mut outcome = Outcome { attempted: samples.len() as u64, ..Outcome::default() };
    let (mut rejected, mut errors, mut mismatches) = (0u64, 0u64, 0u64);
    // Per traffic class (clean, adversarial): answers, correct answers,
    // and both again counting only answers from the targeted model.
    let (mut answered, mut right) = ([0u64; 2], [0u64; 2]);
    let (mut on_target, mut right_on_target) = ([0u64; 2], [0u64; 2]);
    for s in &samples {
        let class = usize::from(s.adversarial);
        match s.answer {
            Answer::Answered { correct, exact, on_target: hit } => {
                answered[class] += 1;
                right[class] += u64::from(correct);
                on_target[class] += u64::from(hit);
                right_on_target[class] += u64::from(hit && correct);
                mismatches += u64::from(!exact);
            }
            Answer::Rejected => rejected += 1,
            Answer::Error => errors += 1,
        }
    }
    outcome.failed = rejected + errors + mismatches;
    if mismatches > 0 || errors > 0 {
        outcome.fail_check(&format!(
            "{mismatches} answers differ from offline inference, {errors} requests failed"
        ));
    }
    if deployment.published().len() != GENERATIONS {
        outcome.fail_check(&format!("served {} generations", deployment.published().len()));
    }
    for class in [0, 1] {
        let (labeled, correct) = server_stats
            .generations
            .iter()
            .filter(|g| usize::from(g.traffic == "adversarial") == class)
            .fold((0, 0), |(l, c), g| (l + g.labeled, c + g.correct));
        if (labeled, correct) != (answered[class], right[class]) {
            outcome.fail_check("server accuracy counters disagree with the answers");
        }
    }
    let accuracy = |c: usize| right_on_target[c] as f64 / on_target[c].max(1) as f64;
    if accuracy(0) < 0.5 {
        outcome.fail_check(&format!("clean accuracy {} below 50%", accuracy(0)));
    }
    let latency_ms: Vec<f64> = samples.iter().map(|s| s.latency_us / 1e3).collect();
    outcome.end_to_end = vec![
        Metric::new("op_p50_ms", median(&latency_ms), "ms"),
        Metric::new("op_p90_ms", quantile(&latency_ms, 0.9), "ms"),
        Metric::new("robust_acc", accuracy(1), "fraction"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    if trace {
        let server_ms = server_stats.latency_us.p50_us as f64 / 1e3;
        outcome.per_layer = vec![
            Metric::new("serve.forward_ms", median(&forward), "ms"),
            Metric::new("serve.queue_ms", server_ms - median(&forward), "ms"),
            Metric::new("serve.http_ms", median(&latency_ms) - server_ms, "ms"),
            Metric::new("serve.throughput_rps", samples.len() as f64 / seconds, "1/s"),
            Metric::new("serve.batch_size", server_stats.batch_occupancy.mean, "count"),
            Metric::new("serve.rejected", rejected as f64, "count"),
            Metric::new("host.reference_ms", crate::host::reference_ms(), "ms"),
        ];
    }
    outcome
}
