//! Deterministic data-parallel batch crafting.
//!
//! Crafting an adversarial batch is embarrassingly parallel across
//! examples — each row's perturbation depends only on that row — but a
//! naive split would tie the numerics to the worker count. The functions
//! here instead define **chunked crafting semantics**: the batch is cut
//! into fixed chunks of [`CRAFT_CHUNK`] examples (independent of the
//! thread count), each worker perturbs its chunks on its own model
//! replica, and the chunks are reassembled in order. A replica is cloned
//! once per worker per call, not once per chunk: a chunk's result does not
//! depend on the chunks the replica ran before, because every pass
//! overwrites the replica's caches and the weights never change. The
//! crafted batch is therefore bitwise identical for 1..N threads.
//!
//! Chunked crafting differs from whole-batch crafting only through the
//! mean-loss normalization (gradients are averaged over the chunk rather
//! than the batch); the signed-gradient attacks of this crate take
//! `sign(∇ₓ)`, which is invariant to that positive scaling, so chunked
//! and whole-batch crafting agree in practice as well. The chunked form
//! is the canonical one wherever a `Runtime` is in play.
//!
//! Stochastic attacks get their reproducibility from seed splitting: key
//! each chunk's RNG stream off the chunk's *first example index* via
//! [`simpadv_runtime::split_seed`], which is stable no matter how many
//! threads claim the chunks:
//!
//! ```
//! use simpadv_attacks::{parallel::craft_parallel, Pgd};
//! use simpadv_runtime::{split_seed, Runtime};
//! # use rand::{rngs::StdRng, SeedableRng};
//! # use simpadv_nn::{Classifier, Dense, Sequential};
//! # use simpadv_tensor::Tensor;
//! # let mut rng = StdRng::seed_from_u64(0);
//! # let net = Sequential::new(vec![Box::new(Dense::new(4, 2, &mut rng))]);
//! # let model = Classifier::new(net, 2);
//! # let x = Tensor::full(&[5, 4], 0.5);
//! # let y = vec![0, 1, 0, 1, 0];
//! let rt = Runtime::new(2);
//! let base_seed = 2019;
//! let adv = craft_parallel(
//!     &rt,
//!     &model,
//!     &|first| Box::new(Pgd::new(0.1, 4, split_seed(base_seed, first as u64))),
//!     &x,
//!     &y,
//! );
//! # assert_eq!(adv.shape(), x.shape());
//! ```

use crate::attack::Attack;
use crate::projection::signed_step;
use simpadv_nn::GradientModel;
use simpadv_runtime::Runtime;
use simpadv_tensor::Tensor;

/// Examples per crafting chunk.
///
/// Fixed — never derived from the thread count — so chunk boundaries,
/// per-chunk gradient normalization, and per-chunk RNG streams are
/// identical for any parallelism.
pub const CRAFT_CHUNK: usize = 16;

/// Crafts an adversarial batch in parallel over fixed example chunks.
///
/// `make_attack(first)` builds the attack instance for the chunk whose
/// first example has batch index `first`; deterministic attacks (FGSM,
/// BIM) ignore the index, stochastic ones should derive their seed from
/// it with [`simpadv_runtime::split_seed`] (see the module docs). Each
/// worker clones `model` once and perturbs all its chunks on that
/// replica, so the caller's model — and its pass counters — are
/// untouched; credit the work explicitly via
/// `Classifier::credit_external_passes` where cost accounting matters.
///
/// # Panics
///
/// Panics if the batch size of `x` differs from `y.len()`.
pub fn craft_parallel<M>(
    rt: &Runtime,
    model: &M,
    make_attack: &(dyn Fn(usize) -> Box<dyn Attack> + Sync),
    x: &Tensor,
    y: &[usize],
) -> Tensor
where
    M: GradientModel + Clone + Send + Sync,
{
    assert_eq!(x.shape()[0], y.len(), "craft_parallel batch-size mismatch");
    if y.is_empty() {
        return x.clone();
    }
    let _span =
        simpadv_trace::span!("craft", batch = y.len(), chunks = y.len().div_ceil(CRAFT_CHUNK));
    let parts = rt.par_chunks_with(
        y.len(),
        CRAFT_CHUNK,
        || model.clone(),
        |replica, r| make_attack(r.start).perturb(replica, &x.rows(r.clone()), &y[r]),
    );
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::concat_rows(&refs)
}

/// Chunk-parallel form of [`signed_step`]: advances every example of a
/// persistent adversarial batch by one signed-gradient step.
///
/// This is the hot operation of the paper's Proposed trainer (one step
/// per batch per epoch from a carried starting point). Chunks of
/// [`CRAFT_CHUNK`] examples advance on one model replica per worker, as
/// in [`craft_parallel`], and reassemble in order; for
/// `y.len() <= CRAFT_CHUNK` this is exactly one chunk and hence identical
/// to the serial [`signed_step`].
///
/// # Panics
///
/// Panics if batch sizes disagree, or on the shape/budget violations
/// [`signed_step`] rejects.
pub fn signed_step_parallel<M>(
    rt: &Runtime,
    model: &M,
    x: &Tensor,
    origin: &Tensor,
    y: &[usize],
    step: f32,
    eps: f32,
) -> Tensor
where
    M: GradientModel + Clone + Send + Sync,
{
    assert_eq!(x.shape()[0], y.len(), "signed_step_parallel batch-size mismatch");
    assert_eq!(x.shape(), origin.shape(), "signed_step_parallel origin-shape mismatch");
    if y.is_empty() {
        return x.clone();
    }
    let _span = simpadv_trace::span!(
        "signed_step",
        batch = y.len(),
        chunks = y.len().div_ceil(CRAFT_CHUNK)
    );
    let parts = rt.par_chunks_with(
        y.len(),
        CRAFT_CHUNK,
        || model.clone(),
        |replica, r| {
            signed_step(replica, &x.rows(r.clone()), &origin.rows(r.clone()), &y[r], step, eps)
        },
    );
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::concat_rows(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::testmodel::{centred_batch, linear_model, mlp_and_batch};
    use crate::projection::linf_distance;
    use crate::{Bim, Fgsm, Pgd};
    use simpadv_nn::Classifier;
    use simpadv_runtime::split_seed;

    #[test]
    fn crafted_batches_are_thread_count_invariant() {
        let model = linear_model();
        let (x, y) = centred_batch(37); // crosses chunk boundaries unevenly
        let craft = |threads: usize| {
            let rt = Runtime::new(threads);
            craft_parallel(&rt, &model, &|_| Box::new(Bim::new(0.1, 5)), &x, &y)
        };
        let serial = craft(1);
        for threads in [2, 4, 7] {
            assert_eq!(craft(threads), serial, "threads={threads}");
        }
        assert!(linf_distance(&serial, &x) <= 0.1 + 1e-6);
    }

    #[test]
    fn seeded_stochastic_crafting_is_thread_count_invariant() {
        let model = linear_model();
        let (x, y) = centred_batch(23);
        let craft = |threads: usize| {
            let rt = Runtime::new(threads);
            craft_parallel(
                &rt,
                &model,
                &|first| Box::new(Pgd::new(0.1, 3, split_seed(7, first as u64))),
                &x,
                &y,
            )
        };
        let serial = craft(1);
        for threads in [2, 4] {
            assert_eq!(craft(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn single_chunk_matches_whole_batch_attack() {
        let model = linear_model();
        let (x, y) = centred_batch(CRAFT_CHUNK); // exactly one chunk
        let rt = Runtime::new(4);
        let par = craft_parallel(&rt, &model, &|_| Box::new(Fgsm::new(0.08)), &x, &y);
        let mut replica = model.clone();
        let whole = Fgsm::new(0.08).perturb(&mut replica, &x, &y);
        assert_eq!(par, whole);
    }

    #[test]
    fn signed_step_parallel_matches_serial_signed_step() {
        let model = linear_model();
        let (x, y) = centred_batch(CRAFT_CHUNK); // one chunk: bitwise-equal case
        let rt = Runtime::new(4);
        let par = signed_step_parallel(&rt, &model, &x, &x, &y, 0.05, 0.1);
        let mut replica = model.clone();
        let serial = signed_step(&mut replica, &x, &x, &y, 0.05, 0.1);
        assert_eq!(par, serial);

        // and across thread counts on a multi-chunk batch
        let (x, y) = centred_batch(41);
        let one = signed_step_parallel(&Runtime::new(1), &model, &x, &x, &y, 0.05, 0.1);
        let four = signed_step_parallel(&Runtime::new(4), &model, &x, &x, &y, 0.05, 0.1);
        assert_eq!(one, four);
        assert!(linf_distance(&one, &x) <= 0.1 + 1e-6);
    }

    /// What the parallel entry points computed before replicas were kept
    /// per worker: every chunk on a fresh clone of the model, in order.
    fn fresh_replica_per_chunk(
        model: &Classifier,
        len: usize,
        per_chunk: impl Fn(&mut Classifier, std::ops::Range<usize>) -> Tensor,
    ) -> Tensor {
        let parts: Vec<Tensor> = (0..len)
            .step_by(CRAFT_CHUNK)
            .map(|start| per_chunk(&mut model.clone(), start..(start + CRAFT_CHUNK).min(len)))
            .collect();
        Tensor::concat_rows(&parts.iter().collect::<Vec<_>>())
    }

    #[test]
    fn per_worker_replicas_match_a_fresh_replica_per_chunk() {
        // The replica's cached activations and packed `Wᵀ` carry over from
        // chunk to chunk of a worker.
        let (model, x, y) = mlp_and_batch(37);
        let origin = x.map(|v| (v + 0.05).min(1.0));
        let bim = fresh_replica_per_chunk(&model, y.len(), |m, r| {
            Bim::new(0.1, 5).perturb(m, &x.rows(r.clone()), &y[r])
        });
        let pgd = fresh_replica_per_chunk(&model, y.len(), |m, r| {
            Pgd::new(0.1, 3, split_seed(7, r.start as u64)).perturb(m, &x.rows(r.clone()), &y[r])
        });
        let step = fresh_replica_per_chunk(&model, y.len(), |m, r| {
            signed_step(m, &x.rows(r.clone()), &origin.rows(r.clone()), &y[r], 0.03, 0.1)
        });
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            let got = craft_parallel(&rt, &model, &|_| Box::new(Bim::new(0.1, 5)), &x, &y);
            assert_eq!(got, bim, "bim, threads={threads}");
            let make_pgd = |first: usize| -> Box<dyn Attack> {
                Box::new(Pgd::new(0.1, 3, split_seed(7, first as u64)))
            };
            assert_eq!(craft_parallel(&rt, &model, &make_pgd, &x, &y), pgd, "pgd, {threads}");
            let got = signed_step_parallel(&rt, &model, &x, &origin, &y, 0.03, 0.1);
            assert_eq!(got, step, "signed step, threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let model = linear_model();
        let (x, _) = centred_batch(1);
        let empty = x.rows(0..0);
        let rt = Runtime::new(4);
        let out = craft_parallel(&rt, &model, &|_| Box::new(Fgsm::new(0.1)), &empty, &[]);
        assert_eq!(out.shape(), empty.shape());
        let out = signed_step_parallel(&rt, &model, &empty, &empty, &[], 0.05, 0.1);
        assert_eq!(out.shape(), empty.shape());
    }
}
