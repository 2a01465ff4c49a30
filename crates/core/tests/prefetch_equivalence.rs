//! Prefetched mini-batch training is bitwise identical to the serial batch
//! loop.
//!
//! The prefetch pipeline only overlaps *when* a batch is sampled and induced
//! with the previous batch's tape work — every batch's sampler seed is a
//! pure function of `(cfg.seed, batch_no)` and batches are consumed strictly
//! in shuffle order, so parameters see the exact same update sequence. These
//! tests pin that contract for both CMSF stages by training twin models with
//! prefetch off (the serial reference) and on, and comparing stage losses
//! and full prediction vectors to the bit.

use cmsf::{Cmsf, CmsfConfig};
use std::sync::OnceLock;
use uvd_citysim::{City, CityPreset};
use uvd_urg::{Urg, UrgOptions};

fn shared_urg() -> &'static Urg {
    static URG: OnceLock<Urg> = OnceLock::new();
    URG.get_or_init(|| {
        let city = City::from_config(CityPreset::tiny(), 21);
        Urg::build(&city, UrgOptions::default())
    })
}

fn minibatch_cfg(prefetch: usize) -> CmsfConfig {
    let mut cfg = CmsfConfig::fast_test();
    cfg.batch_size = 8;
    cfg.sample_fanout = 4;
    cfg.master_epochs = 6;
    cfg.slave_epochs = 3;
    cfg.prefetch = prefetch;
    cfg
}

/// Run both stages and return `(master_loss, slave_loss, predictions)`.
fn train_both_stages(urg: &Urg, cfg: CmsfConfig) -> (f32, f32, Vec<f32>) {
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut model = Cmsf::new(urg, cfg);
    let master = model.train_master(urg, &train).expect("master trains");
    let slave = model.train_slave(urg, &train).expect("slave trains");
    (master, slave, model.predict_proba(urg))
}

#[test]
fn prefetched_training_is_bitwise_identical_to_serial() {
    let urg = shared_urg();
    let (m0, s0, p0) = train_both_stages(urg, minibatch_cfg(0));
    for depth in [1usize, 2, 4] {
        let (m, s, p) = train_both_stages(urg, minibatch_cfg(depth));
        assert_eq!(
            m.to_bits(),
            m0.to_bits(),
            "master loss drifted at prefetch={depth}: {m} vs {m0}"
        );
        assert_eq!(
            s.to_bits(),
            s0.to_bits(),
            "slave loss drifted at prefetch={depth}: {s} vs {s0}"
        );
        assert_eq!(p, p0, "predictions drifted at prefetch={depth}");
    }
}
