//! Finite-difference gradient checks for every autodiff op.
//!
//! Each check builds a scalar loss from a set of input matrices, runs
//! `backward`, and compares every input gradient against a central
//! difference. Inputs are kept away from kinks (ReLU at 0, pooling ties) so
//! the numerical derivative is valid.

use std::sync::Arc;
use uvd_tensor::conv::{ConvMeta, PoolMeta};
use uvd_tensor::graph::CsrPair;
use uvd_tensor::init::{normal_matrix, seeded_rng, uniform_matrix};
use uvd_tensor::{Csr, EdgeIndex, Graph, Matrix, NodeId};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Check d(loss)/d(inputs[i]) for all inputs against central differences.
fn gradcheck(inputs: &[Matrix], build: impl Fn(&mut Graph, &[NodeId]) -> NodeId) {
    // Analytic gradients.
    let mut g = Graph::new();
    // Inputs are grad-tracking variables: plain constants are pruned from
    // the backward pass and would report no gradient.
    let ids: Vec<NodeId> = inputs.iter().map(|m| g.variable(m.clone())).collect();
    let loss = build(&mut g, &ids);
    assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
    g.backward(loss);
    let analytic: Vec<Matrix> = ids
        .iter()
        .map(|&id| {
            g.grad(id)
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(g.value(id).rows(), g.value(id).cols()))
        })
        .collect();

    // Numeric gradients.
    for (pi, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let eval = |delta: f32| -> f32 {
                let mut g = Graph::new();
                let ids: Vec<NodeId> = inputs
                    .iter()
                    .enumerate()
                    .map(|(j, m)| {
                        let mut m = m.clone();
                        if j == pi {
                            m.as_mut_slice()[e] += delta;
                        }
                        g.constant(m)
                    })
                    .collect();
                let loss = build(&mut g, &ids);
                g.scalar(loss)
            };
            let numeric = (eval(EPS) - eval(-EPS)) / (2.0 * EPS);
            let a = analytic[pi].as_slice()[e];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() / denom < TOL,
                "input {pi} elem {e}: analytic {a} vs numeric {numeric}"
            );
        }
    }
}

fn rng_mats(seed: u64, shapes: &[(usize, usize)]) -> Vec<Matrix> {
    let mut rng = seeded_rng(seed);
    shapes
        .iter()
        .map(|&(r, c)| normal_matrix(r, c, 0.0, 1.0, &mut rng))
        .collect()
}

#[test]
fn grad_matmul() {
    let m = rng_mats(1, &[(3, 4), (4, 2)]);
    gradcheck(&m, |g, ids| {
        let y = g.matmul(ids[0], ids[1]);
        g.sum_all(y)
    });
}

#[test]
fn grad_elementwise_add_sub_mul() {
    let m = rng_mats(2, &[(3, 3), (3, 3), (3, 3)]);
    gradcheck(&m, |g, ids| {
        let a = g.add(ids[0], ids[1]);
        let b = g.sub(a, ids[2]);
        let c = g.mul(b, ids[0]);
        g.mean_all(c)
    });
}

#[test]
fn grad_row_and_col_broadcasts() {
    let m = rng_mats(3, &[(4, 3), (1, 3), (4, 1)]);
    gradcheck(&m, |g, ids| {
        let a = g.add_row(ids[0], ids[1]);
        let b = g.mul_row(a, ids[1]);
        let c = g.mul_col(b, ids[2]);
        g.sum_all(c)
    });
}

#[test]
fn grad_scale_add_scalar() {
    let m = rng_mats(4, &[(2, 5)]);
    gradcheck(&m, |g, ids| {
        let a = g.scale(ids[0], -2.5);
        let b = g.add_scalar(a, 0.3);
        let c = g.mul(b, b);
        g.sum_all(c)
    });
}

#[test]
fn grad_leaky_relu_away_from_kink() {
    let mut rng = seeded_rng(5);
    // Keep |x| > 0.1 so the finite difference never crosses the kink.
    let mut m = uniform_matrix(3, 4, 0.1, 1.0, &mut rng);
    for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
        if i % 2 == 0 {
            *x = -*x;
        }
    }
    gradcheck(&[m], |g, ids| {
        let a = g.leaky_relu(ids[0], 0.2);
        g.sum_all(a)
    });
}

#[test]
fn grad_sigmoid_tanh_exp_ln() {
    let mut rng = seeded_rng(6);
    let m = uniform_matrix(2, 3, 0.2, 1.5, &mut rng);
    gradcheck(&[m], |g, ids| {
        let s = g.sigmoid(ids[0]);
        let t = g.tanh(s);
        let e = g.exp(t);
        let l = g.ln_eps(e, 1e-6);
        g.sum_all(l)
    });
}

#[test]
fn grad_softmax_rows_with_temperature() {
    let m = rng_mats(7, &[(3, 5), (3, 5)]);
    gradcheck(&m, |g, ids| {
        let s = g.softmax_rows(ids[0], 0.7);
        let y = g.mul(s, ids[1]);
        g.sum_all(y)
    });
}

#[test]
fn grad_concat_slice_transpose() {
    let m = rng_mats(8, &[(3, 2), (3, 3)]);
    gradcheck(&m, |g, ids| {
        let c = g.concat_cols(ids[0], ids[1]);
        let s = g.slice_cols(c, 1, 4);
        let t = g.transpose(s);
        let y = g.mul(t, t);
        g.sum_all(y)
    });
}

#[test]
fn grad_row_sum() {
    let m = rng_mats(9, &[(4, 3)]);
    gradcheck(&m, |g, ids| {
        let r = g.row_sum(ids[0]);
        let y = g.mul(r, r);
        g.sum_all(y)
    });
}

#[test]
fn grad_gather_rows() {
    let m = rng_mats(10, &[(5, 3)]);
    let idx = Arc::new(vec![0u32, 2, 2, 4]);
    gradcheck(&m, move |g, ids| {
        let y = g.gather_rows(ids[0], idx.clone());
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_spmm() {
    let m = rng_mats(11, &[(4, 3)]);
    let csr = Csr::from_coo(
        4,
        4,
        vec![
            (0, 1, 0.5),
            (1, 0, 1.5),
            (2, 2, -1.0),
            (3, 1, 2.0),
            (3, 3, 0.3),
        ],
    );
    let pair = CsrPair::new(csr);
    gradcheck(&m, move |g, ids| {
        let y = g.spmm(pair.clone(), ids[0]);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_edge_softmax_and_aggregate() {
    // Small graph with varied in-degrees, including an isolated node.
    let edges = Arc::new(EdgeIndex::from_pairs(
        4,
        vec![(0, 1), (2, 1), (3, 1), (1, 0), (0, 2)],
    ));
    let scores = rng_mats(12, &[(5, 1)]).pop().unwrap();
    let h = rng_mats(13, &[(4, 3)]).pop().unwrap();
    gradcheck(&[scores, h], move |g, ids| {
        let alpha = g.edge_softmax(ids[0], edges.clone());
        let out = g.edge_aggregate(alpha, ids[1], edges.clone());
        let sq = g.mul(out, out);
        g.sum_all(sq)
    });
}

#[test]
fn grad_fused_edge_attention() {
    // Cross head (separate h_dst / h_src), varied in-degrees, an isolated
    // node (3) and a single-edge node (0); all four operands checked.
    let edges = Arc::new(EdgeIndex::from_pairs(
        5,
        vec![(1, 0), (0, 1), (2, 1), (4, 1), (1, 2), (2, 2), (4, 4)],
    ));
    let m = rng_mats(21, &[(5, 3), (5, 3), (3, 1), (3, 1)]);
    gradcheck(&m, move |g, ids| {
        let alpha = g.edge_attention(ids[0], ids[1], ids[2], ids[3], 0.2, edges.clone());
        let out = g.edge_aggregate(alpha, ids[1], edges.clone());
        let out = g.tanh(out);
        let sq = g.mul(out, out);
        g.sum_all(sq)
    });
}

#[test]
fn grad_gated_matmul() {
    let mut rng = seeded_rng(14);
    let x = normal_matrix(3, 4, 0.0, 1.0, &mut rng);
    let w = normal_matrix(4, 2, 0.0, 1.0, &mut rng);
    let f = uniform_matrix(3, 8, 0.1, 0.9, &mut rng);
    gradcheck(&[x, w, f], |g, ids| {
        let z = g.gated_matmul(ids[0], ids[1], ids[2]);
        let sq = g.mul(z, z);
        g.sum_all(sq)
    });
}

#[test]
fn gated_matmul_with_unit_filter_equals_matmul() {
    let mut rng = seeded_rng(15);
    let x = normal_matrix(5, 3, 0.0, 1.0, &mut rng);
    let w = normal_matrix(3, 4, 0.0, 1.0, &mut rng);
    let f = Matrix::filled(5, 12, 1.0);
    let mut g = Graph::new();
    let (xi, wi, fi) = (g.constant(x.clone()), g.constant(w.clone()), g.constant(f));
    let z = g.gated_matmul(xi, wi, fi);
    let reference = x.matmul(&w);
    for (a, b) in g.value(z).as_slice().iter().zip(reference.as_slice()) {
        assert!((a - b).abs() < 1e-5);
    }
}

#[test]
fn grad_sub_outer() {
    let m = rng_mats(16, &[(3, 1), (4, 1)]);
    gradcheck(&m, |g, ids| {
        let d = g.sub_outer(ids[0], ids[1]);
        let one = g.add_scalar(d, -1.0);
        let sq = g.mul(one, one);
        g.sum_all(sq)
    });
}

#[test]
fn grad_bce_with_logits() {
    let m = rng_mats(17, &[(6, 1)]);
    let targets = Arc::new(vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    let weights = Arc::new(vec![1.0, 1.0, 0.0, 2.0, 1.0, 0.5]);
    gradcheck(&m, move |g, ids| {
        g.bce_with_logits(ids[0], targets.clone(), weights.clone())
    });
}

#[test]
fn grad_conv2d_with_bias() {
    let meta = ConvMeta {
        c_in: 2,
        h_in: 4,
        w_in: 4,
        c_out: 3,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let mut rng = seeded_rng(18);
    let x = normal_matrix(2, meta.in_len(), 0.0, 1.0, &mut rng);
    let (kr, kc) = meta.kernel_shape();
    let k = normal_matrix(kr, kc, 0.0, 0.5, &mut rng);
    let b = normal_matrix(1, meta.c_out, 0.0, 0.5, &mut rng);
    gradcheck(&[x, k, b], move |g, ids| {
        let y = g.conv2d(ids[0], ids[1], meta);
        let y = g.add_chan_bias(y, ids[2], meta.c_out, meta.h_out() * meta.w_out());
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_max_pool2_without_ties() {
    let meta = PoolMeta {
        channels: 2,
        h_in: 4,
        w_in: 4,
    };
    // Distinct values guarantee a unique argmax per window.
    let data: Vec<f32> = (0..meta.in_len())
        .map(|i| (i as f32 * 0.618).sin() * 3.0)
        .collect();
    let x = Matrix::from_vec(1, meta.in_len(), data);
    gradcheck(&[x], move |g, ids| {
        let y = g.max_pool2(ids[0], meta);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_mse() {
    let m = rng_mats(19, &[(3, 3), (3, 3)]);
    gradcheck(&m, |g, ids| g.mse(ids[0], ids[1]));
}

#[test]
fn grad_composite_attention_block() {
    // A miniature MAGA-like block: linear -> edge attention -> nonlinearity.
    let edges = Arc::new(EdgeIndex::from_pairs(
        3,
        vec![(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (1, 2)],
    ));
    let src = Arc::new(edges.src().to_vec());
    let dst = Arc::new(edges.dst().to_vec());
    let m = rng_mats(20, &[(3, 4), (4, 3), (3, 1), (3, 1)]);
    gradcheck(&m, move |g, ids| {
        let h = g.matmul(ids[0], ids[1]);
        let sl = g.matmul(h, ids[2]);
        let sr = g.matmul(h, ids[3]);
        let sl_e = g.gather_rows(sl, dst.clone());
        let sr_e = g.gather_rows(sr, src.clone());
        let s = g.add(sl_e, sr_e);
        let s = g.leaky_relu(s, 0.2);
        let alpha = g.edge_softmax(s, edges.clone());
        let out = g.edge_aggregate(alpha, h, edges.clone());
        let out = g.tanh(out);
        let sq = g.mul(out, out);
        g.sum_all(sq)
    });
}
