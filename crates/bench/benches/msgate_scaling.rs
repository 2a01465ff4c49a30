//! Empirical check of the MS-Gate complexity (paper eq. 27):
//! T = O(K d + |V| K + |V| K d + |V| d |F|) — linear in |V|.

use cmsf::{FixedAssignment, MsGate};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uvd_nn::{Activation, Mlp};
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{Graph, Matrix};

fn bench_msgate(c: &mut Criterion) {
    let d = 64usize;
    let k = 16usize;
    let mut group = c.benchmark_group("msgate_fwd_bwd");
    for n in [400usize, 900, 1600] {
        let mut rng = seeded_rng(13);
        let classifier = Mlp::new("clf", &[d, 16, 1], Activation::Tanh, &mut rng);
        let gate = MsGate::new("gate", d, k, 16, &classifier, &mut rng);
        let h = normal_matrix(k, d, 0.0, 1.0, &mut rng);
        let x = normal_matrix(n, d, 0.0, 1.0, &mut rng);
        let mut b_soft = Matrix::filled(n, k, 1.0 / k as f32);
        for i in 0..n {
            b_soft.set(i, i % k, 0.6);
        }
        let fixed = FixedAssignment {
            b_soft,
            pseudo: (0..k).map(|j| if j % 4 == 0 { 1.0 } else { 0.0 }).collect(),
            cluster_of: (0..n).map(|i| (i % k) as u32).collect(),
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                let mut g = Graph::new();
                let hn = g.constant(h.clone());
                let xn = g.constant(x.clone());
                let probs = gate.inclusion_probs(&mut g, hn);
                let q = gate.context(&mut g, &fixed, probs);
                let f = gate.filter(&mut g, q);
                let logits = gate.gated_forward(&mut g, &classifier, xn, f);
                let sq = g.mul(logits, logits);
                let loss = g.sum_all(sq);
                g.backward(loss);
                black_box(g.scalar(loss))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_msgate
}
criterion_main!(benches);
