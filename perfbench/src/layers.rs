//! Per-layer attribution for the training workloads.
//!
//! [`timed_mlp`] rebuilds a classifier with every layer wrapped in a
//! [`Timed`] shim that times each `forward`/`backward` call into a shared
//! [`LayerClock`]. Calls are split by the mode of the forward pass that
//! opened them: train-mode passes are the optimizer step, eval-mode
//! passes are adversarial crafting (the input gradient of FGSM/BIM and
//! the proposed method's signed step). The shim delegates everything
//! else, so a wrapped model trains bitwise like the plain one; model
//! replicas made by the parallel attack paths share their original's
//! clock.

use simpadv_nn::{Classifier, Dense, Layer, Mode, ParamRef, Relu, Sequential, StateDict};
use simpadv_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The four call kinds a layer's time is split into.
pub const PHASES: [&str; 4] = ["train_fwd", "train_bwd", "attack_fwd", "attack_bwd"];

/// Accumulated nanoseconds per phase for one layer.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: [AtomicU64; 4],
}

impl LayerClock {
    fn add(&self, phase: usize, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // A statistic only: it publishes no other data.
        self.ns[phase].fetch_add(ns, Ordering::Relaxed);
    }

    /// Nanoseconds recorded so far, per phase (in [`PHASES`] order).
    pub fn read(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.ns[i].load(Ordering::Relaxed))
    }
}

/// One layer of the model plus the clock it reports to.
#[derive(Debug)]
struct Timed {
    inner: Box<dyn Layer>,
    clock: Arc<LayerClock>,
    /// Mode of the last forward, which decides what the next backward is.
    last_mode: Mode,
}

impl Layer for Timed {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let start = Instant::now();
        let out = self.inner.forward(input, mode);
        self.last_mode = mode;
        self.clock.add(if mode == Mode::Train { 0 } else { 2 }, start);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let start = Instant::now();
        let out = self.inner.backward(grad_output);
        self.clock.add(if self.last_mode == Mode::Train { 1 } else { 3 }, start);
        out
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        self.inner.params()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Timed {
            inner: self.inner.clone_box(),
            clock: Arc::clone(&self.clock),
            last_mode: self.last_mode,
        })
    }

    fn state(&self) -> Vec<(String, Tensor)> {
        self.inner.state()
    }

    fn load_state(&mut self, state: &[(String, Tensor)]) {
        self.inner.load_state(state);
    }
}

/// A named layer clock, e.g. `layer0_dense`.
pub struct NamedClock {
    /// `layer{index}_{name}`.
    pub name: String,
    /// The clock its calls accumulate into.
    pub clock: Arc<LayerClock>,
}

/// One fresh clock per layer of `model`, named after the layers.
pub fn clocks_for(model: &Classifier) -> Vec<NamedClock> {
    let names = model.network().layer_names();
    names
        .iter()
        .enumerate()
        .map(|(index, name)| NamedClock {
            name: format!("layer{index}_{name}"),
            clock: Arc::new(LayerClock::default()),
        })
        .collect()
}

/// Rebuilds `plain` (the default 784-128-10 MLP) as the same network with
/// layer `i` timed into `clocks[i]`, carrying over its weights exactly.
pub fn timed_mlp(plain: &Classifier, clocks: &[NamedClock]) -> Classifier {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let hidden = 128;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Dense::new(simpadv_data::IMAGE_PIXELS, hidden, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(hidden, simpadv_data::CLASS_COUNT, &mut rng)),
    ];
    assert_eq!(
        plain.network().layer_names(),
        layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
        "timed_mlp expects the default MLP topology"
    );
    assert_eq!(clocks.len(), layers.len(), "one clock per layer");
    let mut net = Sequential::empty();
    for (inner, named) in layers.into_iter().zip(clocks) {
        net.push(Box::new(Timed { inner, clock: Arc::clone(&named.clock), last_mode: Mode::Eval }));
    }
    StateDict::capture(plain.network()).restore(&mut net);
    Classifier::new(net, simpadv_data::CLASS_COUNT)
}
