//! Golden pins on CMSF training output.
//!
//! `prefetch_equivalence` and `minibatch_equivalence` compare two training
//! paths inside one build, so a change that moves both sides the same way
//! passes them. These constants were recorded from earlier builds instead:
//! any change to the training loop, the batch partition, the sampler, the
//! optimizer order or the tape engine that moves a single bit of a stage
//! loss, a parameter or a region score fails here. Every fit runs on the
//! deterministic tier, whose kernels are bitwise identical at any thread
//! count and on every ISA tier.
//!
//! - `full_batch_fit_is_pinned` and `minibatch_fit_is_pinned` were recorded
//!   before the full-batch and mini-batch loops were folded into one.
//! - `replayed_fold_matches_define_by_run_pin` was recorded from the
//!   define-by-run engine that preceded Plan/Workspace replay, driven
//!   through the same recorded tapes. It is a pin, not a comparison with a
//!   fresh recording each epoch: a fresh master tape would recompute GSCM's
//!   hard assignment `B̃`, which replay holds at its record-time value
//!   (DESIGN.md §3), so the two folds legitimately differ.

use cmsf::{Cmsf, CmsfConfig};
use uvd_citysim::{City, CityPreset};
use uvd_tensor::par;
use uvd_urg::{Urg, UrgOptions};

/// 64-bit FNV-1a over the bit patterns of `xs`.
fn fnv1a_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(master loss bits, slave loss bits, FNV-1a of the prediction bits)`.
fn fit(batch_size: usize) -> (u32, u32, u64) {
    let city = City::from_config(CityPreset::tiny(), 21);
    let urg = Urg::build(&city, UrgOptions::default());
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut cfg = CmsfConfig::fast_test();
    cfg.batch_size = batch_size;
    cfg.sample_fanout = 4;
    cfg.prefetch = 2;
    cfg.master_epochs = 6;
    cfg.slave_epochs = 3;
    let mut model = Cmsf::new(&urg, cfg);
    let master = model.train_master(&urg, &train).expect("master trains");
    let slave = model.train_slave(&urg, &train).expect("slave trains");
    let scores = model.predict_proba(&urg);
    (master.to_bits(), slave.to_bits(), fnv1a_f32(&scores))
}

#[test]
fn full_batch_fit_is_pinned() {
    let (master, slave, scores) = fit(0);
    assert_eq!(master, 0x3f09_b9ae, "master loss bits 0x{master:08x}");
    assert_eq!(slave, 0x3f04_efc9, "slave loss bits 0x{slave:08x}");
    assert_eq!(scores, 0xb5d1_bc26_bf27_366a, "scores FNV 0x{scores:016x}");
}

#[test]
fn minibatch_fit_is_pinned() {
    let (master, slave, scores) = fit(8);
    assert_eq!(master, 0x3e3c_c673, "master loss bits 0x{master:08x}");
    assert_eq!(slave, 0x3e05_f6cc, "slave loss bits 0x{slave:08x}");
    assert_eq!(scores, 0x77ff_50da_973a_65ff, "scores FNV 0x{scores:016x}");
}

/// FNV-1a of every parameter's bits (in `ParamSet` order) and of the
/// prediction bits, after a 4+3-epoch full-batch fold on tiny city 11.
fn replayed_fold() -> (u64, u64) {
    par::serial_scope(|| {
        let city = City::from_config(CityPreset::tiny(), 11);
        let urg = Urg::build(&city, UrgOptions::default());
        let train: Vec<usize> = (0..urg.labeled.len()).collect();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 4;
        cfg.slave_epochs = 3;
        let mut model = Cmsf::new(&urg, cfg);
        model.train_master(&urg, &train).expect("master trains");
        model.train_slave(&urg, &train).expect("slave trains");
        let params: Vec<f32> = model
            .param_set()
            .iter()
            .flat_map(|p| p.value().as_slice().to_vec())
            .collect();
        (fnv1a_f32(&params), fnv1a_f32(&model.predict_proba(&urg)))
    })
}

#[test]
fn replayed_fold_matches_define_by_run_pin() {
    let (params, scores) = replayed_fold();
    assert_eq!(params, 0x8933_3411_2cab_48be, "params FNV 0x{params:016x}");
    assert_eq!(scores, 0x5401_18a8_b2ad_b4d2, "scores FNV 0x{scores:016x}");
}
