//! The model file, and the scan for the newest servable generation.
//!
//! [`ServedModel`] (`{spec, state, trained_on, method}`) is the one
//! model-file type. `simpadv-cli train --out` writes it as a standalone
//! sealed file ([`ServedModel::save_to`]) that `evaluate` and `attack`
//! read back ([`ServedModel::load_file`]); [`ServedModel::publish`] writes
//! it as the next generation of a [`CheckpointStore`].
//!
//! A store generation may hold either of two payload shapes, and
//! [`ServedModel::decode`] accepts both: the model itself, or the
//! `TrainState` JSON that `train --checkpoint-dir` streams into the store
//! (recognizable by its `trainer_id` field). The CLI always trains the
//! default MLP topology, so that rebuild uses [`ModelSpec::default_mlp`].
//!
//! Every read ends in [`ServedModel::restore`], which runs the finite and
//! fit checks once. [`newest_servable`] is the one scan for the generation
//! to serve: the engine's boot, its hot-swap rescans and the load
//! generator's offline reference all go through it.

use crate::error::ServeError;
use serde::{Deserialize, Serialize, Value};
use simpadv::train::TrainState;
use simpadv::ModelSpec;
use simpadv_nn::{Classifier, StateDict};
use simpadv_resilience::{unseal, write_sealed_json, CheckpointStore, PersistError};
use simpadv_trace::FieldValue;
use std::path::Path;

/// A trained model in servable form: topology spec plus captured
/// weights, rebuildable with no out-of-band architecture knowledge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServedModel {
    /// Network topology, rebuildable via [`ModelSpec::build`].
    pub spec: ModelSpec,
    /// Trained weights.
    pub state: StateDict,
    /// Dataset the model was trained on (informational).
    pub trained_on: String,
    /// Training method id (informational; shown in `/healthz`).
    pub method: String,
}

impl ServedModel {
    /// Captures a trained classifier.
    pub fn capture(spec: &ModelSpec, clf: &Classifier, trained_on: &str, method: &str) -> Self {
        ServedModel {
            spec: spec.clone(),
            state: StateDict::capture(clf.network()),
            trained_on: trained_on.to_string(),
            method: method.to_string(),
        }
    }

    /// Rebuilds the classifier this model describes.
    ///
    /// The seed only shapes the pre-restore initialization, which the
    /// restored state overwrites entirely: the state must hold exactly
    /// the spec's entries, with its shapes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the stored weights contain NaN/Inf or
    /// do not fit the spec's network.
    pub fn restore(&self) -> Result<Classifier, ServeError> {
        self.state.validate_finite()?;
        let mut clf = self.spec.build(0);
        self.state.validate_fits(clf.network())?;
        self.state.restore(clf.network_mut());
        Ok(clf)
    }

    /// Serializes to the plain-JSON payload stored inside a checkpoint
    /// generation (the store adds the sealed envelope itself).
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when encoding fails.
    pub fn to_payload(&self) -> Result<Vec<u8>, ServeError> {
        Ok(serde_json::to_string(self)
            .map_err(|e| ServeError::Persist(PersistError::Encode(e.to_string())))?
            .into_bytes())
    }

    /// Publishes this model as the next generation of `store`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the weights are non-finite or the
    /// write fails.
    pub fn publish(&self, store: &CheckpointStore) -> Result<u64, ServeError> {
        self.state.validate_finite()?;
        Ok(store.save(&self.to_payload()?)?)
    }

    /// Writes this model to `path` as a standalone sealed file: atomic
    /// write, checksummed header, damage detectable on load.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the weights are non-finite or the
    /// write fails.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        self.state.validate_finite()?;
        Ok(write_sealed_json(path.as_ref(), self)?)
    }

    /// Reads a standalone model file written by [`ServedModel::save_to`].
    /// A file without an envelope header is read as the legacy plain-JSON
    /// format older builds wrote.
    ///
    /// Nothing is checked against the spec here: [`ServedModel::restore`]
    /// runs those checks.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`]: notably [`PersistError::Corrupt`] /
    /// [`PersistError::Truncated`] for a damaged sealed file and
    /// [`PersistError::Decode`] for one that is not a model.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, ServeError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| PersistError::io("read", e))?;
        let payload = match unseal(&bytes) {
            Ok(payload) => payload,
            // Damage to a *sealed* file surfaces as Corrupt/Truncated/
            // Version and is not retried as plain JSON.
            Err(PersistError::BadHeader { .. }) => &bytes,
            Err(e) => return Err(e.into()),
        };
        let text = std::str::from_utf8(payload)
            .map_err(|_| PersistError::Decode("payload is not UTF-8".into()))?;
        Ok(serde_json::from_str(text).map_err(|e| PersistError::Decode(e.to_string()))?)
    }

    /// Decodes a checkpoint-generation payload in either supported
    /// shape, parsing it once: a `TrainState` when it has a `trainer_id`
    /// field, the model itself otherwise.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] with a decode detail when the payload is
    /// not JSON or does not match the shape its fields name.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let decode_err = |detail: String| ServeError::Persist(PersistError::Decode(detail));
        let text =
            std::str::from_utf8(payload).map_err(|_| decode_err("payload is not UTF-8".into()))?;
        let value: Value = serde_json::from_str(text)
            .map_err(|e| decode_err(format!("payload is not JSON: {e}")))?;
        if value.get("trainer_id").is_none() {
            return ServedModel::from_value(&value).map_err(|e| {
                decode_err(format!("payload is neither a saved model nor a train state: {e}"))
            });
        }
        let state = TrainState::from_value(&value)
            .map_err(|e| decode_err(format!("payload is not a train state: {e}")))?;
        Ok(ServedModel {
            spec: ModelSpec::default_mlp(),
            state: state.model,
            trained_on: "checkpoint".to_string(),
            method: state.trainer_id,
        })
    }
}

/// What one [`newest_servable`] scan found.
pub struct Scan {
    /// The newest servable generation above the floor: its number, its
    /// model and the classifier restored from it.
    pub servable: Option<(u64, ServedModel, Classifier)>,
    /// Generations above it that failed to load, decode or restore.
    pub skipped: u64,
    /// The floor for the next scan: the servable generation (or the old
    /// floor), raised past the skipped generations just above it that
    /// no later read can change. A skipped generation that failed with
    /// an I/O error stays above it, to be read again.
    pub next_floor: u64,
}

/// Scans `store` newest first for the newest generation above `floor`
/// that loads, decodes *and* restores.
///
/// Each generation skipped on the way emits a `serve/generation_skipped`
/// counter tagged with its number, so the monitoring plane sees silent
/// fallbacks; the caller records [`Scan::skipped`] in its stats. Store
/// writes are atomic, so a generation that is damaged, does not decode
/// or does not restore stays that way; a caller that scans again from
/// [`Scan::next_floor`] reads and counts each such generation once.
///
/// # Errors
///
/// [`ServeError::Persist`] when the store cannot be listed.
pub fn newest_servable(store: &CheckpointStore, floor: u64) -> Result<Scan, ServeError> {
    let mut skipped = 0;
    // The highest generation skipped for good with no I/O failure below
    // it: every generation between the servable one and it is settled.
    let mut settled = None;
    for generation in store.generations()?.into_iter().rev().take_while(|g| *g > floor) {
        let loaded = store.load(generation).map_err(ServeError::from).and_then(|payload| {
            let model = ServedModel::decode(&payload)?;
            let clf = model.restore()?;
            Ok((model, clf))
        });
        match loaded {
            Ok((model, clf)) => {
                let next_floor = settled.unwrap_or(generation);
                return Ok(Scan { servable: Some((generation, model, clf)), skipped, next_floor });
            }
            Err(e) => {
                skipped += 1;
                simpadv_trace::counter_with(
                    "serve/generation_skipped",
                    1,
                    &[("generation", FieldValue::U64(generation))],
                );
                if matches!(e, ServeError::Persist(PersistError::Io { .. })) {
                    settled = None;
                } else {
                    settled = settled.or(Some(generation));
                }
            }
        }
    }
    Ok(Scan { servable: None, skipped, next_floor: settled.unwrap_or(floor) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_nn::GradientModel;

    fn tiny_model() -> (ModelSpec, Classifier) {
        let spec = ModelSpec::small_mlp();
        let clf = spec.build(7);
        (spec, clf)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("simpadv-serve-model-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn logits_bits(clf: &mut Classifier) -> Vec<u32> {
        let x = simpadv_tensor::Tensor::linspace(0.0, 1.0, simpadv_data::IMAGE_PIXELS)
            .reshape(&[1, simpadv_data::IMAGE_PIXELS]);
        clf.logits(&x).as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn payload_round_trips_bitwise() {
        let (spec, clf) = tiny_model();
        let model = ServedModel::capture(&spec, &clf, "mnist", "proposed");
        let decoded = ServedModel::decode(&model.to_payload().unwrap()).unwrap();
        assert_eq!(model, decoded);
    }

    #[test]
    fn restored_classifier_matches_original_logits() {
        let (spec, mut clf) = tiny_model();
        let model = ServedModel::capture(&spec, &clf, "mnist", "proposed");
        let mut restored = model.restore().unwrap();
        assert_eq!(logits_bits(&mut clf), logits_bits(&mut restored), "restore must be bitwise");
    }

    #[test]
    fn model_file_round_trips_with_its_metadata() {
        let (spec, mut clf) = tiny_model();
        let path = temp_dir("roundtrip").join("model.ckpt");
        let model = ServedModel::capture(&spec, &clf, "mnist", "vanilla");
        model.save_to(&path).unwrap();
        let loaded = ServedModel::load_file(&path).unwrap();
        assert_eq!(loaded, model);
        assert_eq!((loaded.trained_on.as_str(), loaded.method.as_str()), ("mnist", "vanilla"));
        assert_eq!(logits_bits(&mut clf), logits_bits(&mut loaded.restore().unwrap()));
    }

    /// The persistence error a failed load or restore carries.
    fn persist_err<T: std::fmt::Debug>(result: Result<T, ServeError>) -> PersistError {
        match result {
            Err(ServeError::Persist(e)) => e,
            other => panic!("expected a persistence error, got {other:?}"),
        }
    }

    #[test]
    fn damaged_and_malformed_model_files_are_typed_errors() {
        let (spec, clf) = tiny_model();
        let dir = temp_dir("damage");
        let path = dir.join("model.ckpt");
        ServedModel::capture(&spec, &clf, "mnist", "vanilla").save_to(&path).unwrap();

        // one flipped payload byte: the envelope checksum catches it,
        // and a sealed file is never retried as plain JSON
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let damaged = dir.join("model-damaged.ckpt");
        simpadv_resilience::atomic_write(&damaged, &bytes).unwrap();
        let err = persist_err(ServedModel::load_file(&damaged));
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err:?}");

        let broken = dir.join("broken.json");
        simpadv_resilience::atomic_write(&broken, b"{broken").unwrap();
        let err = persist_err(ServedModel::load_file(&broken));
        assert!(matches!(err, PersistError::Decode(_)), "{err:?}");

        let err = persist_err(ServedModel::load_file(dir.join("missing.ckpt")));
        assert!(matches!(err, PersistError::Io { .. }), "{err:?}");
    }

    #[test]
    fn legacy_plain_json_model_files_still_load() {
        let (spec, clf) = tiny_model();
        let path = temp_dir("legacy").join("legacy.json");
        let model = ServedModel::capture(&spec, &clf, "mnist", "vanilla");
        simpadv_resilience::atomic_write(&path, &model.to_payload().unwrap()).unwrap();
        assert_eq!(ServedModel::load_file(&path).unwrap(), model);
    }

    #[test]
    fn a_weight_whose_data_does_not_fill_its_shape_is_a_decode_error() {
        // The first `data` array in document order is the first weight's.
        fn cut_first_data(value: &mut Value) -> bool {
            match value {
                Value::Object(entries) => entries.iter_mut().any(|(key, v)| match v {
                    Value::Array(items) if key == "data" => {
                        items.truncate(1);
                        true
                    }
                    _ => cut_first_data(v),
                }),
                Value::Array(items) => items.iter_mut().any(cut_first_data),
                _ => false,
            }
        }
        let (spec, clf) = tiny_model();
        let mut value = ServedModel::capture(&spec, &clf, "mnist", "vanilla").to_value();
        assert!(cut_first_data(&mut value));
        let text = serde_json::to_string(&value).unwrap();
        // the legacy plain-JSON path, which no checksum guards
        let path = temp_dir("short-data").join("legacy.json");
        simpadv_resilience::atomic_write(&path, text.as_bytes()).unwrap();
        for err in [
            persist_err(ServedModel::load_file(&path)),
            persist_err(ServedModel::decode(text.as_bytes())),
        ] {
            match err {
                PersistError::Decode(detail) => assert!(
                    detail.contains("data length 1 does not match shape element count"),
                    "{detail}"
                ),
                other => panic!("expected a decode error, got {other:?}"),
            }
        }
    }

    /// The entry a failed restore names.
    fn misfit(model: &ServedModel) -> String {
        match persist_err(model.restore()) {
            PersistError::StateMismatch { name, .. } => name,
            other => panic!("expected a state mismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_state_that_does_not_fit_the_spec() {
        let spec = ModelSpec::default_mlp();
        let mlp = ServedModel::capture(&spec, &spec.build(7), "mnist", "proposed");

        // the MLP's weights under a CNN spec: the first layer's weight
        // is the dense [784, 128], where the conv layer's is [8, 9]
        let cnn = ServedModel { spec: ModelSpec::small_cnn(), ..mlp.clone() };
        assert_eq!(misfit(&cnn), "0.weight");

        // the output layer's entries dropped
        let mut truncated = mlp.clone();
        truncated.state.entries.retain(|(k, _)| !k.starts_with("2."));
        assert_eq!(misfit(&truncated), "2.weight");

        // an entry no layer has
        let mut extended = mlp.clone();
        let extra = simpadv_tensor::Tensor::zeros(&[1]);
        extended.state.entries.push(("9.weight".to_string(), extra));
        assert_eq!(misfit(&extended), "9.weight");
    }

    #[test]
    fn misfit_model_files_load_but_refuse_to_restore() {
        let (spec, clf) = tiny_model();
        let dir = temp_dir("misfit");
        let model = ServedModel::capture(&spec, &clf, "mnist", "vanilla");

        let path = dir.join("wrong-spec.ckpt");
        ServedModel { spec: ModelSpec::default_mlp(), ..model.clone() }.save_to(&path).unwrap();
        assert_eq!(misfit(&ServedModel::load_file(&path).unwrap()), "0.weight");

        let path = dir.join("truncated.ckpt");
        let mut truncated = model;
        truncated.state.entries.pop();
        truncated.save_to(&path).unwrap();
        assert_eq!(misfit(&ServedModel::load_file(&path).unwrap()), "2.bias");
    }

    #[test]
    fn non_finite_weights_refuse_to_save_and_to_restore() {
        let (spec, clf) = tiny_model();
        let mut model = ServedModel::capture(&spec, &clf, "mnist", "vanilla");
        model.state.entries[0].1.as_mut_slice()[0] = f32::NAN;
        let path = temp_dir("non-finite").join("model.ckpt");
        let err = persist_err(model.save_to(&path));
        assert!(matches!(err, PersistError::NonFinite { .. }), "{err:?}");
        assert!(!path.exists(), "nothing is written");
        let err = persist_err(model.restore());
        assert!(matches!(err, PersistError::NonFinite { .. }), "{err:?}");
    }

    /// A Proposed snapshot of a default MLP, carrying `adv` as its
    /// persistent adversarial examples.
    fn train_state(adv: simpadv_tensor::Tensor) -> TrainState {
        use simpadv::train::{TrainerAux, TRAIN_STATE_VERSION};
        use simpadv::{TrainConfig, TrainReport};
        TrainState {
            version: TRAIN_STATE_VERSION,
            trainer_id: "proposed".to_string(),
            config: TrainConfig::new(3, 5),
            next_epoch: 1,
            rng: vec![1, 2, 3, 4],
            data_crc: 7,
            model: StateDict::capture(ModelSpec::default_mlp().build(5).network()),
            optim: simpadv_nn::OptimState::default(),
            report: TrainReport::new("proposed"),
            aux: TrainerAux::Proposed { adv, last_reset_epoch: 0 },
        }
    }

    #[test]
    fn decode_builds_a_default_mlp_from_a_train_state() {
        let spec = ModelSpec::default_mlp();
        let state = train_state(simpadv_tensor::Tensor::zeros(&[2, 4]));
        let weights = state.model.clone();
        let payload = serde_json::to_string(&state).unwrap();
        let model = ServedModel::decode(payload.as_bytes()).unwrap();
        assert_eq!(model.state, weights);
        assert_eq!(model.method, "proposed");
        assert_eq!(model.spec, spec);
        model.restore().unwrap();
    }

    /// `value` as JSON with every `f32` widened to `f64` first: the
    /// text the writer gave every `f32` before it wrote nine digits.
    fn widened_text(value: &impl Serialize) -> String {
        fn widen(value: Value) -> Value {
            match value {
                Value::F32(f) => Value::F64(f64::from(f)),
                Value::Array(items) => Value::Array(items.into_iter().map(widen).collect()),
                Value::Object(entries) => {
                    Value::Object(entries.into_iter().map(|(k, v)| (k, widen(v))).collect())
                }
                other => other,
            }
        }
        serde_json::to_string(&widen(value.to_value())).unwrap()
    }

    #[test]
    fn files_in_the_widened_f32_text_load_bitwise() {
        let (spec, clf) = tiny_model();
        let model = ServedModel::capture(&spec, &clf, "mnist", "proposed");
        let text = model.to_payload().unwrap();
        let widened = widened_text(&model);
        assert!(widened.len() > text.len() * 4 / 3, "the old text is longer");
        let dir = temp_dir("widened");
        let (sealed, plain) = (dir.join("model.ckpt"), dir.join("legacy.json"));
        simpadv_resilience::atomic_write(&sealed, &simpadv_resilience::seal(widened.as_bytes()))
            .unwrap();
        simpadv_resilience::atomic_write(&plain, widened.as_bytes()).unwrap();
        for path in [sealed, plain] {
            let loaded = ServedModel::load_file(&path).unwrap();
            // The nine-digit text is one per f32 bit pattern, so equal
            // text is equal bits.
            assert_eq!(loaded.to_payload().unwrap(), text, "{}", path.display());
        }

        let n = 3 * simpadv_data::IMAGE_PIXELS;
        let adv = simpadv_tensor::Tensor::linspace(0.0, 1.0, n).reshape(&[3, n / 3]);
        let state = train_state(adv);
        let text = serde_json::to_string(&state).unwrap();
        let widened = widened_text(&state);
        let resumed: TrainState = serde_json::from_str(&widened).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), text);
        let served = ServedModel::decode(widened.as_bytes()).unwrap();
        assert_eq!(
            serde_json::to_string(&served.state).unwrap(),
            serde_json::to_string(&state.model).unwrap()
        );
    }

    #[test]
    fn decode_rejects_garbage_with_detail() {
        let err = ServedModel::decode(b"{\"neither\": true}").unwrap_err();
        assert!(err.to_string().contains("neither"), "{err}");
    }

    #[test]
    fn scan_returns_the_newest_generation_that_restores_above_the_floor() {
        let store = CheckpointStore::open(temp_dir("scan")).unwrap();
        let spec = ModelSpec::default_mlp();
        for seed in [1, 2] {
            ServedModel::capture(&spec, &spec.build(seed), "mnist", "test")
                .publish(&store)
                .unwrap();
        }
        // generation 3 decodes, but its weights do not fit its spec
        let mlp = ServedModel::capture(&spec, &spec.build(3), "mnist", "test");
        ServedModel { spec: ModelSpec::small_cnn(), ..mlp }.publish(&store).unwrap();

        let scan = newest_servable(&store, 0).unwrap();
        let (generation, model, mut clf) = scan.servable.expect("generation 2 restores");
        assert_eq!((generation, scan.skipped), (2, 1));
        assert_eq!(logits_bits(&mut model.restore().unwrap()), logits_bits(&mut clf));

        let scan = newest_servable(&store, 2).unwrap();
        assert!(scan.servable.is_none());
        assert_eq!(scan.skipped, 1);
        assert_eq!(newest_servable(&store, 3).unwrap().skipped, 0);
    }

    #[test]
    fn next_floor_passes_settled_generations_and_not_io_failures() {
        let store = CheckpointStore::open(temp_dir("floor")).unwrap().with_keep(10);
        let spec = ModelSpec::default_mlp();
        let good = ServedModel::capture(&spec, &spec.build(1), "mnist", "test");
        let misfit = ServedModel { spec: ModelSpec::small_cnn(), ..good.clone() };
        assert_eq!(good.publish(&store).unwrap(), 1);
        assert_eq!(misfit.publish(&store).unwrap(), 2);
        // a directory under generation 3's name: reading it is an I/O error
        let gen3 = store.dir().join("ckpt-00000003.ckpt");
        std::fs::create_dir(&gen3).unwrap();
        assert_eq!(misfit.publish(&store).unwrap(), 4);

        // 4 and 2 never change, but 3 may: the floor passes 2 only
        let scan = newest_servable(&store, 0).unwrap();
        assert_eq!(scan.servable.map(|(g, ..)| g), Some(1));
        assert_eq!((scan.skipped, scan.next_floor), (3, 2));
        let scan = newest_servable(&store, 2).unwrap();
        assert!(scan.servable.is_none());
        assert_eq!((scan.skipped, scan.next_floor), (2, 2));

        // generation 3 becomes readable: it is served, and the floor
        // passes the misfit above it
        std::fs::remove_dir(&gen3).unwrap();
        std::fs::copy(store.dir().join("ckpt-00000001.ckpt"), &gen3).unwrap();
        let scan = newest_servable(&store, 2).unwrap();
        assert_eq!(scan.servable.map(|(g, ..)| g), Some(3));
        assert_eq!((scan.skipped, scan.next_floor), (1, 4));
        let scan = newest_servable(&store, 4).unwrap();
        assert_eq!((scan.skipped, scan.next_floor), (0, 4));
    }
}
