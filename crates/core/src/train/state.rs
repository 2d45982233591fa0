//! Resumable training state: the full snapshot a trainer needs to
//! continue a run *bitwise identically* after a crash.
//!
//! The paper's proposed defense is defined by state that outlives any
//! single batch — one persistent adversarial example per training image,
//! advanced every epoch and reset on a schedule — so a checkpoint that
//! only stored weights would silently change the method on resume.
//! [`TrainState`] therefore captures everything the epoch loop consumes:
//! model tensors, optimizer buffers, the shuffling RNG's exact stream
//! position, the accumulated report, and the trainer's auxiliary state.
//!
//! Snapshots are serialized to JSON (the workspace's shim renders `f32`
//! round-trippably, so this is lossless) and stored through
//! [`simpadv_resilience::CheckpointStore`], giving atomicity, checksums
//! and fallback to the newest valid generation for free.

use crate::config::TrainConfig;
use crate::report::TrainReport;
use serde::{Deserialize, Serialize};
use simpadv_data::Dataset;
use simpadv_nn::{OptimState, StateDict};
use simpadv_resilience::{crc32, CheckpointStore, PersistError};
use simpadv_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Version of the [`TrainState`] schema inside the envelope payload.
pub const TRAIN_STATE_VERSION: u32 = 1;

/// Trainer-specific state that must survive a crash, keyed by method.
///
/// Stateless trainers (vanilla, FGSM-Adv, BIM-Adv) use [`TrainerAux::None`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainerAux {
    /// No auxiliary state.
    None,
    /// The proposed method: persistent adversarial images (row-aligned
    /// with the dataset) and the epoch of the last schedule reset.
    Proposed {
        /// Carried adversarial examples.
        adv: Tensor,
        /// Epoch at which the examples were last reset to clean.
        last_reset_epoch: usize,
    },
    /// Free adversarial training: the per-example perturbation buffer.
    Free {
        /// Carried perturbations δ, row-aligned with the dataset.
        delta: Tensor,
    },
    /// ATDA: per-class logit centers (exponential moving averages).
    Atda {
        /// `[classes, logit_dim]` center matrix.
        centers: Tensor,
    },
}

impl TrainerAux {
    /// The tensors this aux state carries, with names for diagnostics.
    fn tensors(&self) -> Vec<(&'static str, &Tensor)> {
        match self {
            TrainerAux::None => Vec::new(),
            TrainerAux::Proposed { adv, .. } => vec![("aux.adv", adv)],
            TrainerAux::Free { delta } => vec![("aux.delta", delta)],
            TrainerAux::Atda { centers } => vec![("aux.centers", centers)],
        }
    }
}

/// A complete, serializable snapshot of a training run between epochs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainState {
    /// Schema version ([`TRAIN_STATE_VERSION`]).
    pub version: u32,
    /// Id of the trainer that produced the snapshot.
    pub trainer_id: String,
    /// The run's hyper-parameters (resume may extend `epochs` only).
    pub config: TrainConfig,
    /// First epoch the resumed run still has to execute.
    pub next_epoch: usize,
    /// The shuffling RNG's internal state (4 words for the workspace's
    /// xoshiro256++ generator), captured at the epoch boundary.
    pub rng: Vec<u64>,
    /// CRC32 of the training set (images + labels) the run was on.
    pub data_crc: u32,
    /// Model tensors.
    pub model: StateDict,
    /// SGD's momentum buffers.
    pub optim: OptimState,
    /// Report accumulated so far (losses, timings, pass counts).
    pub report: TrainReport,
    /// Trainer-specific persistent state.
    pub aux: TrainerAux,
}

impl TrainState {
    /// Rejects snapshots holding NaN/Inf in the model or aux tensors —
    /// persisting a diverged run would poison every later resume.
    ///
    /// # Errors
    ///
    /// [`PersistError::NonFinite`] naming the offending tensor.
    pub fn validate_finite(&self) -> Result<(), PersistError> {
        self.model.validate_finite()?;
        for (name, tensor) in self.aux.tensors() {
            if tensor.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(PersistError::NonFinite { name: name.to_string() });
            }
        }
        Ok(())
    }

    /// Checks that this snapshot belongs to the run being resumed: same
    /// trainer, same hyper-parameters (the epoch budget may grow), same
    /// dataset, supported schema, intact RNG state.
    ///
    /// # Errors
    ///
    /// [`PersistError::Version`] or [`PersistError::Mismatch`] describing
    /// the first disagreement.
    pub fn check_resumable(
        &self,
        trainer_id: &str,
        config: &TrainConfig,
        data_crc: u32,
    ) -> Result<(), PersistError> {
        if self.version != TRAIN_STATE_VERSION {
            return Err(PersistError::Version {
                found: self.version,
                supported: TRAIN_STATE_VERSION,
            });
        }
        if self.trainer_id != trainer_id {
            return Err(PersistError::Mismatch {
                what: "trainer".to_string(),
                detail: format!("checkpoint is {:?}, run is {trainer_id:?}", self.trainer_id),
            });
        }
        let mut normalized = self.config;
        normalized.epochs = config.epochs;
        if normalized != *config {
            return Err(PersistError::Mismatch {
                what: "config".to_string(),
                detail: format!("checkpoint {:?} vs run {config:?}", self.config),
            });
        }
        if config.epochs < self.next_epoch {
            return Err(PersistError::Mismatch {
                what: "epochs".to_string(),
                detail: format!(
                    "checkpoint already at epoch {}, run only asks for {}",
                    self.next_epoch, config.epochs
                ),
            });
        }
        if self.data_crc != data_crc {
            return Err(PersistError::Mismatch {
                what: "data".to_string(),
                detail: format!(
                    "checkpoint dataset crc {:#010x}, run dataset crc {data_crc:#010x}",
                    self.data_crc
                ),
            });
        }
        if self.rng.len() != 4 {
            return Err(PersistError::Mismatch {
                what: "rng".to_string(),
                detail: format!("expected 4 state words, found {}", self.rng.len()),
            });
        }
        Ok(())
    }

    /// The RNG state as the fixed-size array the generator wants.
    ///
    /// # Panics
    ///
    /// Panics when the state does not hold exactly 4 words; call
    /// [`TrainState::check_resumable`] first.
    pub fn rng_words(&self) -> [u64; 4] {
        assert_eq!(self.rng.len(), 4, "rng state must hold 4 words");
        [self.rng[0], self.rng[1], self.rng[2], self.rng[3]]
    }
}

/// CRC32 fingerprint of a dataset (images then labels), used to refuse
/// resuming a checkpoint onto different data.
pub fn dataset_crc(data: &Dataset) -> u32 {
    let images = data.images().as_slice();
    let labels = data.labels();
    let mut bytes = Vec::with_capacity(images.len() * 4 + labels.len() * 8);
    for v in images {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for &label in labels {
        bytes.extend_from_slice(&(label as u64).to_le_bytes());
    }
    crc32(&bytes)
}

/// Checkpointing context for one training run: where snapshots go, how
/// often they are taken, and whether the run should first try to resume.
///
/// A disabled session ([`CheckpointSession::disabled`]) makes the whole
/// mechanism a no-op — the epoch loop never touches the filesystem.
#[derive(Debug)]
pub struct CheckpointSession {
    store: Option<CheckpointStore>,
    every: usize,
    resume: bool,
}

impl CheckpointSession {
    /// A session that neither saves nor resumes.
    pub fn disabled() -> Self {
        CheckpointSession { store: None, every: 0, resume: false }
    }

    /// Opens (creating if needed) `dir` for snapshots every `every`
    /// epochs. `every == 0` disables periodic saves but still writes the
    /// final-epoch snapshot.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Result<Self, PersistError> {
        Ok(CheckpointSession { store: Some(CheckpointStore::open(dir)?), every, resume: false })
    }

    /// Requests that the run first try to resume from the newest valid
    /// generation in the directory (fresh start when the store is empty).
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Whether this session checkpoints at all.
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// Whether the epoch that just finished (0-based `epoch` out of
    /// `total`) should be snapshotted: every `every`-th epoch and always
    /// the last one.
    pub(crate) fn should_save(&self, epoch: usize, total: usize) -> bool {
        if self.store.is_none() {
            return false;
        }
        epoch + 1 == total || (self.every > 0 && (epoch + 1).is_multiple_of(self.every))
    }

    /// Loads the newest valid snapshot when resume was requested.
    ///
    /// # Errors
    ///
    /// Store/scan errors, [`PersistError::NoValidGeneration`] when the
    /// directory holds only damaged files, or [`PersistError::Decode`]
    /// when a validated payload is not a [`TrainState`].
    pub(crate) fn load_for_resume(&self) -> Result<Option<TrainState>, PersistError> {
        let store = match (&self.store, self.resume) {
            (Some(store), true) => store,
            _ => return Ok(None),
        };
        let (generation, payload) = match store.load_latest_valid()? {
            Some(found) => found,
            None => return Ok(None),
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|_| PersistError::Decode("snapshot is not UTF-8".to_string()))?;
        let state: TrainState =
            serde_json::from_str(text).map_err(|e| PersistError::Decode(e.to_string()))?;
        simpadv_trace::counter_with(
            "checkpoint_resumed",
            1,
            &[
                ("generation", simpadv_trace::FieldValue::U64(generation)),
                ("next_epoch", simpadv_trace::FieldValue::from(state.next_epoch)),
            ],
        );
        Ok(Some(state))
    }

    /// Serializes and saves one snapshot as a new generation.
    ///
    /// # Errors
    ///
    /// [`PersistError::Encode`] or any write-path error.
    pub(crate) fn save(&self, state: &TrainState) -> Result<(), PersistError> {
        let store = match &self.store {
            Some(store) => store,
            None => return Ok(()),
        };
        let json = serde_json::to_string(state).map_err(|e| PersistError::Encode(e.to_string()))?;
        store.save(json.as_bytes())?;
        Ok(())
    }
}

/// Process-wide checkpoint policy for harnesses (the bench regeneration
/// binaries) whose many training calls all go through `Trainer::train`:
/// each call gets its own subdirectory `NNN-<trainer-id>` under
/// the policy root, numbered in call order. Because the binaries are
/// deterministic, the numbering replays identically on restart, which is
/// what lets `--resume` find the right directory per training.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Root directory; each training call creates a subdirectory.
    pub dir: PathBuf,
    /// Snapshot period in epochs (0 = final snapshot only).
    pub every: usize,
    /// Resume each training from its subdirectory when possible.
    pub resume: bool,
}

fn policy_cell() -> &'static Mutex<Option<CheckpointPolicy>> {
    static CELL: OnceLock<Mutex<Option<CheckpointPolicy>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

static POLICY_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `None`, removes) the ambient checkpoint policy and
/// resets the per-call sequence counter.
pub fn set_checkpoint_policy(policy: Option<CheckpointPolicy>) {
    let mut cell = policy_cell().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *cell = policy;
    POLICY_SEQ.store(0, Ordering::SeqCst);
}

/// Sanitizes a trainer id into a directory-name-safe slug.
fn slug(id: &str) -> String {
    id.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect()
}

/// Builds the session for one `train()` call under the ambient policy —
/// disabled when no policy is installed.
///
/// # Errors
///
/// [`PersistError::Io`] when the per-call subdirectory cannot be created.
pub(crate) fn session_from_policy(trainer_id: &str) -> Result<CheckpointSession, PersistError> {
    let policy = {
        let cell = policy_cell().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        cell.clone()
    };
    let Some(policy) = policy else {
        return Ok(CheckpointSession::disabled());
    };
    let seq = POLICY_SEQ.fetch_add(1, Ordering::SeqCst);
    let dir: &Path = &policy.dir;
    let session =
        CheckpointSession::new(dir.join(format!("{seq:03}-{}", slug(trainer_id))), policy.every)?;
    Ok(session.with_resume(policy.resume))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_data::{SynthConfig, SynthDataset};

    fn probe_state() -> TrainState {
        TrainState {
            version: TRAIN_STATE_VERSION,
            trainer_id: "probe".to_string(),
            config: TrainConfig::new(4, 7),
            next_epoch: 2,
            rng: vec![1, 2, 3, 4],
            data_crc: 0xABCD,
            model: StateDict { entries: vec![("w".to_string(), Tensor::ones(&[2, 2]))] },
            optim: OptimState::default(),
            report: TrainReport::new("probe"),
            aux: TrainerAux::Proposed { adv: Tensor::zeros(&[2, 4]), last_reset_epoch: 0 },
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let state = probe_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: TrainState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn non_finite_aux_is_rejected() {
        let mut state = probe_state();
        assert!(state.validate_finite().is_ok());
        if let TrainerAux::Proposed { adv, .. } = &mut state.aux {
            adv.as_mut_slice()[3] = f32::NAN;
        }
        let err = state.validate_finite().unwrap_err();
        assert!(matches!(err, PersistError::NonFinite { ref name } if name == "aux.adv"));
    }

    #[test]
    fn resume_validation_catches_mismatches() {
        let state = probe_state();
        let config = TrainConfig::new(8, 7); // extending epochs is fine
        assert!(state.check_resumable("probe", &config, 0xABCD).is_ok());
        assert!(state.check_resumable("other", &config, 0xABCD).is_err());
        assert!(state.check_resumable("probe", &config, 0xDEAD).is_err());
        let different = TrainConfig::new(8, 8); // different seed
        assert!(state.check_resumable("probe", &different, 0xABCD).is_err());
        let shrunk = TrainConfig::new(1, 7); // fewer epochs than next_epoch
        assert!(state.check_resumable("probe", &shrunk, 0xABCD).is_err());
    }

    #[test]
    fn dataset_crc_distinguishes_datasets() {
        let a = SynthDataset::Mnist.generate(&SynthConfig::new(16, 1));
        let b = SynthDataset::Mnist.generate(&SynthConfig::new(16, 2));
        assert_eq!(dataset_crc(&a), dataset_crc(&a));
        assert_ne!(dataset_crc(&a), dataset_crc(&b));
    }

    #[test]
    fn save_cadence_includes_final_epoch() {
        let session = CheckpointSession::disabled();
        assert!(!session.should_save(9, 10), "disabled never saves");
        let dir = std::env::temp_dir().join(format!("simpadv-session-{}", std::process::id()));
        let session = CheckpointSession::new(&dir, 4).unwrap();
        assert!(!session.should_save(0, 10));
        assert!(session.should_save(3, 10), "every 4th epoch");
        assert!(session.should_save(9, 10), "final epoch always");
        let final_only = CheckpointSession::new(&dir, 0).unwrap();
        assert!(!final_only.should_save(3, 10));
        assert!(final_only.should_save(9, 10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ambient_policy_numbers_calls_in_order() {
        let root = std::env::temp_dir().join(format!("simpadv-policy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        set_checkpoint_policy(Some(CheckpointPolicy {
            dir: root.clone(),
            every: 2,
            resume: false,
        }));
        let s0 = session_from_policy("proposed").unwrap();
        let s1 = session_from_policy("bim(10)-adv").unwrap();
        assert!(s0.is_enabled() && s1.is_enabled());
        assert!(root.join("000-proposed").is_dir());
        assert!(root.join("001-bim_10_-adv").is_dir());
        set_checkpoint_policy(None);
        assert!(!session_from_policy("proposed").unwrap().is_enabled());
        let _ = std::fs::remove_dir_all(&root);
    }
}
