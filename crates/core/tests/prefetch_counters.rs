//! The prefetch counters account for every prepared mini-batch.
//!
//! `batch.prefetch.{hit,miss}` are process-global counters. This test lives
//! in its own test binary so that no sibling test training mini-batch
//! models in parallel threads can bump them between its before and after
//! readings.

use cmsf::{Cmsf, CmsfConfig};
use uvd_citysim::{City, CityPreset};
use uvd_urg::{Urg, UrgOptions};

fn minibatch_cfg(prefetch: usize) -> CmsfConfig {
    let mut cfg = CmsfConfig::fast_test();
    cfg.batch_size = 8;
    cfg.sample_fanout = 4;
    cfg.master_epochs = 6;
    cfg.slave_epochs = 3;
    cfg.prefetch = prefetch;
    cfg
}

/// The prefetch counters account for every epoch-0 batch of both stages:
/// each prepared batch is either a hit (ready in the queue) or a miss (the
/// trainer waited), never dropped or double-counted.
#[test]
fn prefetch_counters_cover_every_batch() {
    let city = City::from_config(CityPreset::tiny(), 21);
    let urg = &Urg::build(&city, UrgOptions::default());
    let cfg = minibatch_cfg(2);
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let n_batches = train.len().div_ceil(cfg.batch_size);
    assert!(n_batches >= 2, "test needs a multi-batch split");

    uvd_obs::set_memory();
    let counter = |name: &str| {
        uvd_obs::counter_summary()
            .into_iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    let (hit0, miss0) = (
        counter("batch.prefetch.hit"),
        counter("batch.prefetch.miss"),
    );
    let mut model = Cmsf::new(urg, cfg);
    model.train_master(urg, &train).expect("master trains");
    model.train_slave(urg, &train).expect("slave trains");
    let hits = counter("batch.prefetch.hit") - hit0;
    let misses = counter("batch.prefetch.miss") - miss0;
    uvd_obs::disable();
    assert_eq!(
        hits + misses,
        2 * n_batches as u64,
        "both recording epochs must consume every batch through the pipeline"
    );
}
