//! Model persistence: JSON state dictionaries.
//!
//! A state dictionary is the flat `name -> tensor` map produced by
//! [`crate::Layer::state`]. JSON keeps checkpoints human-auditable, which
//! matters more than compactness at this project's model sizes (tens of
//! thousands of parameters). The model file that carries one is
//! `simpadv_serve::ServedModel`; training snapshots embed one too.

use serde::{Deserialize, Serialize};
use simpadv_resilience::PersistError;
use simpadv_tensor::Tensor;

/// A serializable snapshot of a network's tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDict {
    /// Named tensors in layer order.
    pub entries: Vec<(String, Tensor)>,
}

impl StateDict {
    /// Captures the state of a layer (usually a
    /// [`crate::Sequential`]).
    pub fn capture(layer: &dyn crate::Layer) -> Self {
        StateDict { entries: layer.state() }
    }

    /// Restores this state into a layer.
    ///
    /// # Panics
    ///
    /// Panics if entries are missing or shapes disagree (see
    /// [`crate::Layer::load_state`]). [`StateDict::validate_fits`] checks
    /// this without panicking.
    pub fn restore(&self, layer: &mut dyn crate::Layer) {
        layer.load_state(&self.entries);
    }

    /// Checks that this dictionary holds exactly the entries `layer`'s
    /// own [`crate::Layer::state`] has, with the same shapes, so
    /// [`StateDict::restore`] overwrites every parameter and nothing is
    /// left over.
    ///
    /// # Errors
    ///
    /// [`PersistError::StateMismatch`] naming the first entry the layer
    /// has and this dictionary lacks or shapes differently, else the
    /// first entry this dictionary has that the layer lacks or that
    /// appears twice.
    pub fn validate_fits(&self, layer: &dyn crate::Layer) -> Result<(), PersistError> {
        let expected = layer.state();
        let mismatch = |name: &str, detail: String| {
            Err(PersistError::StateMismatch { name: name.to_string(), detail })
        };
        for (name, want) in &expected {
            match self.entries.iter().find(|(k, _)| k == name) {
                None => return mismatch(name, "missing".into()),
                Some((_, t)) if t.shape() != want.shape() => {
                    return mismatch(
                        name,
                        format!("shape {:?}, the model has {:?}", t.shape(), want.shape()),
                    );
                }
                Some(_) => {}
            }
        }
        for (i, (name, _)) in self.entries.iter().enumerate() {
            if !expected.iter().any(|(k, _)| k == name) {
                return mismatch(name, "not in the model".into());
            }
            if self.entries[..i].iter().any(|(k, _)| k == name) {
                return mismatch(name, "appears twice".into());
            }
        }
        Ok(())
    }

    /// Rejects dictionaries containing NaN or infinite values.
    ///
    /// Persisting a diverged model would poison every later resume, and
    /// JSON renders non-finite floats as `null` (unreadable on load), so
    /// both the save and the restore path call this.
    ///
    /// # Errors
    ///
    /// [`PersistError::NonFinite`] naming the first offending entry.
    pub fn validate_finite(&self) -> Result<(), PersistError> {
        for (name, tensor) in &self.entries {
            if tensor.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(PersistError::NonFinite { name: name.clone() });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu, Sequential};
    use crate::{Layer, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simpadv_tensor::Tensor;

    fn net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 2, &mut rng)),
        ])
    }

    /// The first offending entry a failed fit check names.
    fn misfit(dict: &StateDict, layer: &dyn Layer) -> String {
        match dict.validate_fits(layer) {
            Err(PersistError::StateMismatch { name, .. }) => name,
            other => panic!("expected StateMismatch, got {other:?}"),
        }
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let mut a = net(1);
        let json = serde_json::to_string(&StateDict::capture(&a)).unwrap();
        let dict: StateDict = serde_json::from_str(&json).unwrap();
        let mut b = net(2);
        dict.restore(&mut b);

        let mut rng = StdRng::seed_from_u64(9);
        let probe = Tensor::rand_uniform(&mut rng, &[5, 3], -1.0, 1.0);
        assert_eq!(a.forward(&probe, Mode::Eval), b.forward(&probe, Mode::Eval));
    }

    #[test]
    fn state_dict_capture_restore() {
        let a = net(3);
        let dict = StateDict::capture(&a);
        // dense(2) + relu(0) + dense(2) named tensors
        assert_eq!(dict.entries.len(), 4);
        let mut b = net(4);
        assert!(dict.validate_fits(&b).is_ok());
        dict.restore(&mut b);
        assert_eq!(StateDict::capture(&b), dict);
    }

    #[test]
    fn validate_finite_names_the_offender() {
        let mut dict = StateDict::capture(&net(7));
        dict.entries[2].1.as_mut_slice()[0] = f32::INFINITY;
        let name = dict.entries[2].0.clone();
        match dict.validate_finite() {
            Err(PersistError::NonFinite { name: n }) => assert_eq!(n, name),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn validate_fits_names_missing_misshaped_extra_and_repeated_entries() {
        let model = net(8);
        let full = StateDict::capture(&model);

        let mut missing = full.clone();
        missing.entries.retain(|(k, _)| !k.starts_with("2."));
        assert_eq!(misfit(&missing, &model), "2.weight");

        let mut misshaped = full.clone();
        misshaped.entries[1].1 = Tensor::zeros(&[9]);
        assert_eq!(misfit(&misshaped, &model), "0.bias");

        let mut extra = full.clone();
        extra.entries.push(("9.weight".into(), Tensor::zeros(&[1])));
        assert_eq!(misfit(&extra, &model), "9.weight");

        let mut repeated = full.clone();
        repeated.entries.push(full.entries[3].clone());
        assert_eq!(misfit(&repeated, &model), "2.bias");
    }
}
