//! Saving and loading trained CMSF models.
//!
//! A checkpoint stores every trainable parameter plus the frozen clustering
//! state from the master stage (the soft assignment, one cluster id per
//! region, and the cluster pseudo labels),
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
            let pseudo = get(KEY_PSEUDO)?;
            let cluster_of = get(KEY_CLUSTER_OF)?;
            // b_soft is regions × clusters; the rest must agree with it,
            // and its cluster count with the model's.
            let (n, k) = b_soft.shape();
            if self.gscm.as_ref().is_some_and(|g| g.k != k) {
                return Err(bad(format!(
                    "{KEY_B_SOFT} must have the model's K columns, got {k}"
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
            // Ids are stored as f32: each must be an integer in [0, k).
            let is_id = |v: f32| v >= 0.0 && v < k as f32 && v.fract() == 0.0;
            if let Some(v) = cluster_of.as_slice().iter().find(|&&v| !is_id(v)) {
                return Err(bad(format!(
                    "{KEY_CLUSTER_OF} holds {v}, not a cluster id in [0, {k})"
                )));
            }
            Some(FixedAssignment {
                b_soft: b_soft.clone(),
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
    use std::io;
    use uvd_citysim::{City, CityPreset};
    use uvd_tensor::Matrix;
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
        let store = trained.to_store();
        let (n, k) = (urg.n, cfg.k_clusters);
        let corruptions = [
            // A pseudo-label row that disagrees with b_soft's k.
            vec![("cmsf.fixed.pseudo", Matrix::row_vec(&[0.5]))],
            // b_soft and pseudo that agree with each other but assign one
            // cluster more than the model has.
            vec![
                ("cmsf.fixed.b_soft", Matrix::zeros(n, k + 1)),
                ("cmsf.fixed.pseudo", Matrix::zeros(1, k + 1)),
            ],
        ];
        for edits in corruptions {
            let mut store = store.clone();
            for (key, m) in edits {
                store.insert(key, m);
            }
            let mut fresh = Cmsf::new(&urg, cfg);
            let before = fresh.predict(&urg);
            assert!(fresh.restore_from_store(&store).is_err());
            assert_eq!(fresh.predict(&urg), before);
        }
    }

    #[test]
    fn restore_rejects_bad_cluster_ids() {
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 5;
        cfg.slave_epochs = 2;
        let mut trained = Cmsf::new(&urg, cfg);
        trained.fit(&urg, &train);
        let store = trained.to_store();
        let k = cfg.k_clusters as f32;
        for bad in [f32::NAN, -1.0, 0.5, k, k + 3.0, f32::INFINITY] {
            let mut ids: Vec<f32> = trained
                .fixed_assignment()
                .expect("trained model carries its assignment")
                .cluster_of
                .iter()
                .map(|&c| c as f32)
                .collect();
            ids[urg.n / 2] = bad;
            let mut corrupt = store.clone();
            corrupt.insert("cmsf.fixed.cluster_of", Matrix::row_vec(&ids));
            let mut fresh = Cmsf::new(&urg, cfg);
            let before = fresh.predict(&urg);
            let err = fresh
                .restore_from_store(&corrupt)
                .expect_err("a bad cluster id must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "id {bad}");
            assert_eq!(fresh.predict(&urg), before, "id {bad}: model untouched");
            assert!(fresh.fixed_assignment().is_none());
            assert!(!fresh.slave_trained());
        }
    }

    /// A checkpoint written before the hard assignment was held as cluster
    /// ids alone also carries it as a dense K×N mean-pooling matrix. It
    /// still loads, and predicts bitwise like the saved model.
    #[test]
    fn checkpoint_with_dense_hard_assignment_loads() {
        const DENSE_KEY: &str = "cmsf.fixed.b_hard_t";
        let (urg, train) = setup();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 10;
        cfg.slave_epochs = 3;
        let mut model = Cmsf::new(&urg, cfg);
        model.fit(&urg, &train);
        let mut store = model.to_store();
        assert!(store.get(DENSE_KEY).is_none(), "new checkpoints omit it");
        let fixed = model.fixed_assignment().expect("trained assignment");
        let mut counts = vec![0usize; fixed.k()];
        for &c in &fixed.cluster_of {
            counts[c as usize] += 1;
        }
        let mut dense = Matrix::zeros(fixed.k(), urg.n);
        for (i, &c) in fixed.cluster_of.iter().enumerate() {
            dense.set(c as usize, i, 1.0 / counts[c as usize] as f32);
        }
        store.insert(DENSE_KEY, dense);
        let mut fresh = Cmsf::new(&urg, cfg);
        fresh.restore_from_store(&store).expect("restore");
        let bits = |p: Vec<f32>| p.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(fresh.predict(&urg)), bits(model.predict(&urg)));
        assert_eq!(
            fresh.fixed_assignment().map(|f| &f.cluster_of),
            Some(&fixed.cluster_of)
        );
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
