//! Model checkpoints: architecture spec + weights in one JSON document.
//!
//! On disk a model is a sealed envelope (see [`simpadv_resilience`]):
//! a checksummed, versioned header line followed by the JSON payload,
//! written atomically. [`SavedModel::load_from`] still accepts the plain
//! JSON files older builds produced.

use serde::{Deserialize, Serialize};
use simpadv::ModelSpec;
use simpadv_nn::{Classifier, StateDict};
use simpadv_resilience::PersistError;
use std::io::{Read, Write};
use std::path::Path;

/// A self-describing model file: rebuilding needs no out-of-band
/// architecture knowledge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SavedModel {
    /// The architecture.
    pub spec: ModelSpec,
    /// All named tensors.
    pub state: StateDict,
    /// The dataset id the model was trained on (informational).
    pub trained_on: String,
    /// The training method id (informational).
    pub method: String,
}

impl SavedModel {
    /// Captures a trained classifier.
    pub fn capture(
        spec: &ModelSpec,
        clf: &Classifier,
        trained_on: impl Into<String>,
        method: impl Into<String>,
    ) -> Self {
        SavedModel {
            spec: spec.clone(),
            state: StateDict::capture(clf.network()),
            trained_on: trained_on.into(),
            method: method.into(),
        }
    }

    /// Rebuilds the classifier (seed only shapes the throwaway init).
    ///
    /// # Panics
    ///
    /// Panics if the state does not fit the spec's network, which
    /// [`SavedModel::load`] and [`SavedModel::load_from`] rule out.
    pub fn restore(&self) -> Classifier {
        let mut clf = self.spec.build(0);
        self.state.restore(clf.network_mut());
        clf
    }

    /// Writes the checkpoint as plain JSON to an arbitrary writer.
    ///
    /// Prefer [`SavedModel::save_to`] for files — it adds the checksum
    /// envelope and the atomic temp-file/rename protocol.
    ///
    /// # Errors
    ///
    /// [`PersistError::NonFinite`] for NaN/infinite weights,
    /// [`PersistError::Encode`] for serialization failures.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), PersistError> {
        self.state.validate_finite()?;
        serde_json::to_writer(writer, self).map_err(|e| PersistError::Encode(e.to_string()))
    }

    /// Reads a plain-JSON checkpoint from an arbitrary reader.
    ///
    /// # Errors
    ///
    /// [`PersistError::Decode`] for malformed input,
    /// [`PersistError::NonFinite`] for corrupted weights,
    /// [`PersistError::StateMismatch`] for weights that do not fit the
    /// spec.
    pub fn load<R: Read>(reader: R) -> Result<Self, PersistError> {
        let saved: SavedModel =
            serde_json::from_reader(reader).map_err(|e| PersistError::Decode(e.to_string()))?;
        saved.validate()?;
        Ok(saved)
    }

    /// The checks every load runs: finite weights that fit the spec.
    fn validate(&self) -> Result<(), PersistError> {
        self.state.validate_finite()?;
        self.state.validate_fits(self.spec.build(0).network())
    }

    /// Writes the checkpoint to `path` as a sealed envelope — atomic
    /// write, checksummed header, damage detectable on load.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] from validation, sealing or the write.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        self.state.validate_finite()?;
        simpadv_resilience::write_sealed_json(path.as_ref(), self)
    }

    /// Reads a checkpoint from `path`: sealed envelopes are verified
    /// against their checksum; files without an envelope header fall back
    /// to the legacy plain-JSON format.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`]; notably [`PersistError::Corrupt`] /
    /// [`PersistError::Truncated`] for damaged sealed files and
    /// [`PersistError::StateMismatch`] for weights that do not fit the
    /// spec.
    pub fn load_from(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let saved: SavedModel = match simpadv_resilience::read_sealed_json(path) {
            Ok(saved) => saved,
            // No envelope at all → legacy plain-JSON model file. Damage
            // to a *sealed* file surfaces as Corrupt/Truncated/Version
            // and is NOT retried as plain JSON.
            Err(PersistError::BadHeader { .. }) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| PersistError::io(&path.display().to_string(), e))?;
                serde_json::from_str(&text).map_err(|e| PersistError::Decode(e.to_string()))?
            }
            Err(e) => return Err(e),
        };
        saved.validate()?;
        Ok(saved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv::train::{Trainer, VanillaTrainer};
    use simpadv::TrainConfig;
    use simpadv_data::{SynthConfig, SynthDataset};
    use simpadv_nn::GradientModel;

    fn trained() -> (ModelSpec, Classifier) {
        let train = SynthDataset::Mnist.generate(&SynthConfig::new(100, 1));
        let spec = ModelSpec::small_mlp();
        let mut clf = spec.build(3);
        VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(2, 0));
        (spec, clf)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let train = SynthDataset::Mnist.generate(&SynthConfig::new(100, 1));
        let (spec, mut clf) = trained();

        let saved = SavedModel::capture(&spec, &clf, "mnist", "vanilla");
        let mut buf = Vec::new();
        saved.save(&mut buf).unwrap();
        let loaded = SavedModel::load(buf.as_slice()).unwrap();
        assert_eq!(loaded, saved);
        let mut restored = loaded.restore();
        assert_eq!(clf.logits(train.images()), restored.logits(train.images()));
        assert_eq!(loaded.trained_on, "mnist");
        assert_eq!(loaded.method, "vanilla");
    }

    #[test]
    fn corrupt_checkpoint_is_an_error() {
        assert!(matches!(SavedModel::load(&b"{broken"[..]), Err(PersistError::Decode(_))));
    }

    #[test]
    fn sealed_file_roundtrip_and_damage_detection() {
        let dir = std::env::temp_dir().join("simpadv-cli-sealed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let (spec, clf) = trained();
        let saved = SavedModel::capture(&spec, &clf, "mnist", "vanilla");
        saved.save_to(&path).unwrap();
        assert_eq!(SavedModel::load_from(&path).unwrap(), saved);

        // flip one payload byte: the envelope checksum must catch it
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let damaged = dir.join("model-damaged.ckpt");
        simpadv_resilience::atomic_write(&damaged, &bytes).unwrap();
        assert!(SavedModel::load_from(&damaged).unwrap_err().is_detected_damage());
    }

    #[test]
    fn legacy_plain_json_still_loads() {
        let dir = std::env::temp_dir().join("simpadv-cli-legacy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        let (spec, clf) = trained();
        let saved = SavedModel::capture(&spec, &clf, "mnist", "vanilla");
        let json = serde_json::to_string(&saved).unwrap();
        simpadv_resilience::atomic_write(&path, json.as_bytes()).unwrap();
        assert_eq!(SavedModel::load_from(&path).unwrap(), saved);
    }

    #[test]
    fn weights_that_do_not_fit_the_spec_refuse_to_load() {
        let (spec, clf) = trained();
        let saved = SavedModel::capture(&spec, &clf, "mnist", "vanilla");
        let wrong_spec = SavedModel { spec: ModelSpec::default_mlp(), ..saved.clone() };
        let mut buf = Vec::new();
        wrong_spec.save(&mut buf).unwrap();
        match SavedModel::load(buf.as_slice()) {
            Err(PersistError::StateMismatch { name, .. }) => assert_eq!(name, "0.weight"),
            other => panic!("expected a state mismatch, got {other:?}"),
        }

        let dir = std::env::temp_dir().join("simpadv-cli-misfit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let mut truncated = saved;
        truncated.state.entries.pop();
        truncated.save_to(&path).unwrap();
        match SavedModel::load_from(&path) {
            Err(PersistError::StateMismatch { name, .. }) => assert_eq!(name, "2.bias"),
            other => panic!("expected a state mismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_weights_refuse_to_save() {
        let (spec, clf) = trained();
        let mut saved = SavedModel::capture(&spec, &clf, "mnist", "vanilla");
        if let Some((_, t)) = saved.state.entries.first_mut() {
            let mut v = t.as_slice().to_vec();
            v[0] = f32::NAN;
            *t = simpadv_tensor::Tensor::from_vec(v, t.shape());
        }
        assert!(matches!(saved.save(&mut Vec::new()), Err(PersistError::NonFinite { .. })));
    }
}
