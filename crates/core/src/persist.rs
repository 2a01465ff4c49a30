//! Saving and loading trained CMSF models.
//!
//! A checkpoint stores every trainable parameter plus the frozen clustering
//! state from the master stage (assignment matrices, cluster pseudo labels),
//! so a reloaded model detects identically to the one that was saved. The
//! model must be *reconstructed with the same configuration and URG feature
//! dimensions* before loading (the checkpoint carries values, not
//! architecture).

use crate::gscm::FixedAssignment;
use crate::model::Cmsf;
use std::io;
use std::path::Path;
use uvd_tensor::{Matrix, MatrixStore};

const KEY_B_SOFT: &str = "cmsf.fixed.b_soft";
const KEY_B_HARD_T: &str = "cmsf.fixed.b_hard_t";
const KEY_PSEUDO: &str = "cmsf.fixed.pseudo";
const KEY_CLUSTER_OF: &str = "cmsf.fixed.cluster_of";
const KEY_FLAGS: &str = "cmsf.flags";

impl Cmsf {
    /// Capture the trained state into a [`MatrixStore`].
    pub fn to_store(&self) -> MatrixStore {
        let mut store = MatrixStore::new();
        store.capture_params(self.param_set());
        let mut flags = Matrix::zeros(1, 2);
        flags.set(0, 0, if self.slave_trained() { 1.0 } else { 0.0 });
        if let Some(fixed) = self.fixed_assignment() {
            flags.set(0, 1, 1.0);
            store.insert(KEY_B_SOFT, fixed.b_soft.clone());
            store.insert(KEY_B_HARD_T, fixed.b_hard_t.clone());
            store.insert(KEY_PSEUDO, Matrix::row_vec(&fixed.pseudo));
            let cluster_of: Vec<f32> = fixed.cluster_of.iter().map(|&c| c as f32).collect();
            store.insert(KEY_CLUSTER_OF, Matrix::row_vec(&cluster_of));
        }
        store.insert(KEY_FLAGS, flags);
        store
    }

    /// Restore trained state from a [`MatrixStore`] captured by
    /// [`Cmsf::to_store`]. The receiver must have been constructed with the
    /// same configuration (parameter names/shapes must match).
    ///
    /// The restore is transactional: every required key is validated (names,
    /// shapes, and the internal consistency of the fixed-assignment block)
    /// *before* any model state is touched, so a failed restore leaves the
    /// receiver exactly as it was.
    pub fn restore_from_store(&mut self, store: &MatrixStore) -> io::Result<()> {
        let bad = |msg: String| -> io::Error { io::Error::new(io::ErrorKind::InvalidData, msg) };
        // Phase 1: validate everything without mutating.
        store.validate_params(self.param_set())?;
        let flags = store
            .get(KEY_FLAGS)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "missing cmsf.flags"))?;
        if flags.shape() != (1, 2) {
            return Err(bad(format!(
                "cmsf.flags must be 1x2, got {:?}",
                flags.shape()
            )));
        }
        let slave_trained = flags.get(0, 0) > 0.5;
        let has_fixed = flags.get(0, 1) > 0.5;
        let fixed = if has_fixed {
            let get = |k: &str| {
                store
                    .get(k)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("missing {k}")))
            };
            let b_soft = get(KEY_B_SOFT)?;
            let b_hard_t = get(KEY_B_HARD_T)?;
            let pseudo = get(KEY_PSEUDO)?;
            let cluster_of = get(KEY_CLUSTER_OF)?;
            // b_soft is regions × clusters; the rest must agree with it.
            let (n, k) = b_soft.shape();
            if b_hard_t.shape() != (k, n) {
                return Err(bad(format!(
                    "{KEY_B_HARD_T} must be {k}x{n} (transpose of {KEY_B_SOFT}), got {:?}",
                    b_hard_t.shape()
                )));
            }
            if pseudo.as_slice().len() != k {
                return Err(bad(format!(
                    "{KEY_PSEUDO} must hold {k} cluster labels, got {}",
                    pseudo.as_slice().len()
                )));
            }
            if cluster_of.as_slice().len() != n {
                return Err(bad(format!(
                    "{KEY_CLUSTER_OF} must hold {n} region assignments, got {}",
                    cluster_of.as_slice().len()
                )));
            }
            Some(FixedAssignment {
                b_soft: b_soft.clone(),
                b_hard_t: b_hard_t.clone(),
                pseudo: pseudo.as_slice().to_vec(),
                cluster_of: cluster_of.as_slice().iter().map(|&v| v as u32).collect(),
            })
        } else {
            None
        };
        // Phase 2: everything checked out — mutate.
        store.restore_params(self.param_set())?;
        self.set_trained_state(fixed, slave_trained);
        Ok(())
    }

    /// Save the trained model to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.to_store().save(path)
    }

    /// Load trained state from a file into this (same-architecture) model.
    pub fn load(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let store = MatrixStore::load(path)?;
        self.restore_from_store(&store)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmsf, CmsfConfig};
    use uvd_citysim::{City, CityPreset};
    use uvd_urg::{Detector, Urg, UrgOptions};

    fn setup() -> (Urg, Vec<usize>) {
        let city = City::from_config(CityPreset::tiny(), 51);
        let urg = Urg::build(&city, UrgOptions::default());
        let train: Vec<usize> = (0..urg.labeled.len()).collect();
        (urg, train)
    }

    #[test]
    fn store_roundtrip_preserves_predictions() {
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 10;
        cfg.slave_epochs = 3;
        let mut model = Cmsf::new(&urg, cfg);
        model.fit(&urg, &train);
        let expected = model.predict(&urg);

        let store = model.to_store();
        let mut fresh = Cmsf::new(&urg, cfg);
        assert_ne!(
            fresh.predict(&urg),
            expected,
            "fresh model differs before load"
        );
        fresh.restore_from_store(&store).expect("restore");
        assert_eq!(
            fresh.predict(&urg),
            expected,
            "restored model predicts identically"
        );
    }

    #[test]
    fn file_roundtrip() {
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 5;
        cfg.slave_epochs = 2;
        let mut model = Cmsf::new(&urg, cfg);
        model.fit(&urg, &train);
        let dir = std::env::temp_dir().join("uvd_cmsf_ckpt");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.uvdt");
        model.save(&path).expect("save");
        let mut fresh = Cmsf::new(&urg, cfg);
        fresh.load(&path).expect("load");
        assert_eq!(fresh.predict(&urg), model.predict(&urg));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_into_wrong_architecture_fails() {
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 3;
        cfg.slave_epochs = 1;
        let mut model = Cmsf::new(&urg, cfg);
        model.fit(&urg, &train);
        let store = model.to_store();
        let mut other_cfg = cfg;
        other_cfg.hidden = cfg.hidden * 2;
        let mut wrong = Cmsf::new(&urg, other_cfg);
        assert!(wrong.restore_from_store(&store).is_err());
    }

    #[test]
    fn failed_restore_is_a_no_op() {
        // Regression: restore used to copy all parameters *before* checking
        // the fixed-assignment keys, so a checkpoint missing `cmsf.fixed.*`
        // left the model half-restored (trained weights, no clustering).
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 10;
        cfg.slave_epochs = 3;
        let mut trained = Cmsf::new(&urg, cfg);
        trained.fit(&urg, &train);
        let mut store = trained.to_store();
        assert!(
            store.remove("cmsf.fixed.pseudo").is_some(),
            "trained checkpoint carries the fixed-assignment block"
        );

        let mut fresh = Cmsf::new(&urg, cfg);
        let before = fresh.predict(&urg);
        assert!(
            fresh.restore_from_store(&store).is_err(),
            "truncated checkpoint must be rejected"
        );
        assert_eq!(
            fresh.predict(&urg),
            before,
            "failed restore must leave the model untouched"
        );
        assert!(
            fresh.fixed_assignment().is_none(),
            "failed restore must not install clustering state"
        );
        assert!(!fresh.slave_trained());
    }

    #[test]
    fn restore_rejects_inconsistent_fixed_shapes() {
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 5;
        cfg.slave_epochs = 2;
        let mut trained = Cmsf::new(&urg, cfg);
        trained.fit(&urg, &train);
        let mut store = trained.to_store();
        // Truncate the pseudo-label row so it disagrees with b_soft's k.
        store.insert("cmsf.fixed.pseudo", uvd_tensor::Matrix::row_vec(&[0.5]));
        let mut fresh = Cmsf::new(&urg, cfg);
        let before = fresh.predict(&urg);
        assert!(fresh.restore_from_store(&store).is_err());
        assert_eq!(fresh.predict(&urg), before);
    }

    #[test]
    fn master_only_checkpoint_roundtrips() {
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.use_gate = false; // CMSF-G: no slave stage
        cfg.master_epochs = 5;
        let mut model = Cmsf::new(&urg, cfg);
        model.fit(&urg, &train);
        let store = model.to_store();
        let mut fresh = Cmsf::new(&urg, cfg);
        fresh.restore_from_store(&store).expect("restore");
        assert_eq!(fresh.predict(&urg), model.predict(&urg));
    }
}
