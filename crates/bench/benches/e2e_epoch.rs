//! End-to-end CMSF epoch cost on the tiny city: one full-batch master epoch
//! and one slave epoch (the quantities Table III reports per method). Each
//! iteration records a fresh tape and steps it once, so this times the
//! rebuild-per-epoch cost, not the record-once/replay training loop.

use cmsf::{Cmsf, CmsfConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use uvd_citysim::{City, CityPreset};
use uvd_tensor::{Adam, Graph};
use uvd_urg::{Urg, UrgOptions};

fn bench_epochs(c: &mut Criterion) {
    let city = City::from_config(CityPreset::tiny(), 5);
    let urg = Urg::build(&city, UrgOptions::default());
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut cfg = CmsfConfig::fast_test();
    cfg.master_epochs = 3;
    cfg.slave_epochs = 2;
    let mut model = Cmsf::new(&urg, cfg);
    let (rows, targets, weights) = model.bce_vectors(&urg, &train);

    c.bench_function("cmsf_master_epoch_tiny", |b| {
        let mut opt = Adam::new(1e-4);
        b.iter(|| {
            let mut g = Graph::new();
            let loss = model.record_master_tape(&mut g, &urg, &rows, &targets, &weights);
            black_box(model.step(&mut g, loss, &mut opt));
        });
    });

    model.train_master(&urg, &train).expect("master trains");
    let fixed = model.fixed_assignment().expect("after master").clone();
    let (c1, c0) = fixed.partition();
    c.bench_function("cmsf_slave_epoch_tiny", |b| {
        let mut opt = Adam::new(1e-4);
        b.iter(|| {
            let mut g = Graph::new();
            let loss = model
                .record_slave_tape(&mut g, &urg, &fixed, &c1, &c0, &rows, &targets, &weights)
                .expect("slave tape records");
            black_box(model.step(&mut g, loss, &mut opt));
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_epochs
}
criterion_main!(benches);
