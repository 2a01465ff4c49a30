//! Serial vs parallel kernel equivalence and determinism.
//!
//! Two layers of guarantees from the `par` runtime are checked here:
//!
//! 1. **Equivalence** (proptest): every parallelized kernel run above its
//!    work threshold with several threads matches the serial result within
//!    1e-5 elementwise.
//! 2. **Determinism** (fixed inputs): for a fixed thread configuration, two
//!    parallel runs are *bit-identical*; and for the row-partitioned kernels
//!    (matmul family, spmm, edge softmax) the parallel result is
//!    bit-identical to the serial one at any thread count, because each
//!    output element keeps its serial reduction order.
//!
//! Matrix sizes are chosen so the estimated work clears
//! [`par::MIN_PAR_WORK`]; with smaller inputs the dispatcher would quietly
//! take the serial path and these tests would vacuously pass.

use proptest::prelude::*;
use rand::RngCore;
use std::sync::Arc;
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{oracle, par};
use uvd_tensor::{Csr, EdgeIndex, FusedAct, Graph, Matrix};

/// 48×48×48 matmul: 110_592 estimated ops, above `MIN_PAR_WORK` (65_536).
const N: usize = 48;

fn rand_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn assert_close(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!((x - y).abs() <= 1e-5, "{what}[{i}]: {x} vs {y}");
    }
}

/// A fixed sparse matrix with ~8 nnz per row so `nnz * n >= MIN_PAR_WORK`.
fn fixed_csr(rows: usize, cols: usize, seed: u64) -> Csr {
    let mut rng = seeded_rng(seed);
    let mut coo = Vec::new();
    for r in 0..rows {
        for _ in 0..8 {
            let c = (rng.next_u64() % cols as u64) as u32;
            coo.push((r as u32, c, (rng.next_u64() % 7) as f32 * 0.25 - 0.75));
        }
    }
    Csr::from_coo(rows, cols, coo)
}

/// A fixed edge index with `n_nodes * deg` edges, varied in-degrees.
fn fixed_edges(n_nodes: usize, deg: usize, seed: u64) -> Arc<EdgeIndex> {
    let mut rng = seeded_rng(seed);
    let mut pairs = Vec::new();
    for d in 0..n_nodes {
        // Ragged: node d receives between 1 and 2*deg-1 edges.
        let k = 1 + (rng.next_u64() as usize) % (2 * deg - 1);
        for _ in 0..k {
            let s = (rng.next_u64() % n_nodes as u64) as u32;
            pairs.push((s, d as u32));
        }
    }
    Arc::new(EdgeIndex::from_pairs(n_nodes, pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel matmul family matches serial within 1e-5.
    #[test]
    fn matmul_family_parallel_matches_serial(a in rand_matrix(N, N), b in rand_matrix(N, N)) {
        let serial = par::serial_scope(|| (a.matmul(&b), a.matmul_tn(&b), a.matmul_nt(&b)));
        let par4 = par::with_threads(4, || (a.matmul(&b), a.matmul_tn(&b), a.matmul_nt(&b)));
        assert_close(&serial.0, &par4.0, "matmul");
        assert_close(&serial.1, &par4.1, "matmul_tn");
        assert_close(&serial.2, &par4.2, "matmul_nt");
    }

    /// Packed register-tiled kernels are **bit-identical** to the frozen
    /// naive reference kernels, across shapes that are not multiples of the
    /// microkernel tiles and reductions crossing both the naive `K_TILE`
    /// (64) and the packed `KC` (256) blocking — serial and multi-threaded.
    #[test]
    fn packed_matmul_family_bitwise_matches_naive(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..40,
        seed in 0u64..1024,
    ) {
        let mut rng = seeded_rng(seed);
        let a = normal_matrix(m, k, 0.0, 1.0, &mut rng);
        let b = normal_matrix(k, n, 0.0, 1.0, &mut rng);
        let at = normal_matrix(k, m, 0.0, 1.0, &mut rng);
        let bt = normal_matrix(n, k, 0.0, 1.0, &mut rng);
        let naive = (
            oracle::naive_matmul(&a, &b),
            oracle::naive_matmul_tn(&at, &b),
            oracle::naive_matmul_nt(&a, &bt),
        );
        let serial = par::serial_scope(|| (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt)));
        let par3 = par::with_threads(3, || (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt)));
        prop_assert_eq!(naive.0.as_slice(), serial.0.as_slice(), "matmul serial");
        prop_assert_eq!(naive.1.as_slice(), serial.1.as_slice(), "matmul_tn serial");
        prop_assert_eq!(naive.2.as_slice(), serial.2.as_slice(), "matmul_nt serial");
        prop_assert_eq!(naive.0.as_slice(), par3.0.as_slice(), "matmul 3-thread");
        prop_assert_eq!(naive.1.as_slice(), par3.1.as_slice(), "matmul_tn 3-thread");
        prop_assert_eq!(naive.2.as_slice(), par3.2.as_slice(), "matmul_nt 3-thread");
    }

    /// Parallel spmm and sym_normalized match serial within 1e-5.
    #[test]
    fn sparse_parallel_matches_serial(x in rand_matrix(256, 32), seed in 0u64..1024) {
        let a = fixed_csr(256, 256, seed);
        let serial = par::serial_scope(|| a.sym_normalized().spmm(&x));
        let par4 = par::with_threads(4, || a.sym_normalized().spmm(&x));
        assert_close(&serial, &par4, "sym_normalized+spmm");
    }

    /// Parallel edge softmax + aggregation match serial within 1e-5.
    #[test]
    fn edge_ops_parallel_match_serial(seed in 0u64..1024) {
        let edges = fixed_edges(1024, 8, seed);
        let mut rng = seeded_rng(seed ^ 0xE0E0);
        let scores = normal_matrix(edges.n_edges(), 1, 0.0, 1.0, &mut rng);
        let h = normal_matrix(edges.n_nodes(), 16, 0.0, 1.0, &mut rng);
        let run = || {
            let mut g = Graph::new();
            let s = g.constant(scores.clone());
            let hn = g.constant(h.clone());
            let alpha = g.edge_softmax(s, edges.clone());
            let out = g.edge_aggregate(alpha, hn, edges.clone());
            (g.value(alpha).clone(), g.value(out).clone())
        };
        let serial = par::serial_scope(run);
        let par4 = par::with_threads(4, run);
        assert_close(&serial.0, &par4.0, "edge_softmax");
        assert_close(&serial.1, &par4.1, "edge_aggregate");
    }
}

#[test]
fn matmul_parallel_is_bit_deterministic() {
    let mut rng = seeded_rng(7);
    let a = normal_matrix(N, N, 0.0, 1.0, &mut rng);
    let b = normal_matrix(N, N, 0.0, 1.0, &mut rng);
    let serial = par::serial_scope(|| a.matmul(&b));
    let run1 = par::with_threads(4, || a.matmul(&b));
    let run2 = par::with_threads(4, || a.matmul(&b));
    assert_eq!(run1.as_slice(), run2.as_slice(), "two parallel runs differ");
    // Row partitioning keeps the per-element k-order: serial == parallel
    // bitwise, at any thread count.
    assert_eq!(serial.as_slice(), run1.as_slice(), "serial vs parallel");
    let run3 = par::with_threads(3, || a.matmul(&b));
    assert_eq!(serial.as_slice(), run3.as_slice(), "3-thread run differs");
}

/// Thin products skip packing for the unpacked path — `n == 1` (GAT score
/// projections and their `tn` weight gradient, d→1 heads) and `k == 1`
/// (the projections' `nt` input gradient) — and must still match the
/// frozen naive kernels bitwise, serial and at 2 and 7 threads. The large
/// shapes clear `MIN_PAR_WORK`, so the thread runs really partition.
#[test]
fn thin_matmul_family_bitwise_matches_naive() {
    let shapes = [
        (1, 1, 1),
        (13, 7, 1),
        (37, 300, 1),
        (5000, 16, 1),
        (16, 5000, 1),
        (9, 1, 13),
        (5000, 1, 24),
        (1, 1, 40),
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = seeded_rng(100 + i as u64);
        let a = normal_matrix(m, k, 0.0, 1.0, &mut rng);
        let b = normal_matrix(k, n, 0.0, 1.0, &mut rng);
        let at = normal_matrix(k, m, 0.0, 1.0, &mut rng);
        let bt = normal_matrix(n, k, 0.0, 1.0, &mut rng);
        let naive = [
            oracle::naive_matmul(&a, &b),
            oracle::naive_matmul_tn(&at, &b),
            oracle::naive_matmul_nt(&a, &bt),
        ];
        // `nt` writes every element: start it from NaN, not zeros.
        let run = || {
            let mut nt = Matrix::filled(m, n, f32::NAN);
            a.matmul_nt_to(&bt, nt.as_mut_slice());
            [a.matmul(&b), at.matmul_tn(&b), nt]
        };
        for (label, got) in [
            ("serial", par::serial_scope(run)),
            ("2 threads", par::with_threads(2, run)),
            ("7 threads", par::with_threads(7, run)),
        ] {
            for (form, (want, got)) in ["nn", "tn", "nt"].iter().zip(naive.iter().zip(&got)) {
                assert_eq!(
                    want.as_slice(),
                    got.as_slice(),
                    "{form} {m}x{k}x{n} {label}"
                );
            }
        }
    }
}

#[test]
fn spmm_parallel_is_bit_deterministic() {
    let a = fixed_csr(512, 512, 11);
    let mut rng = seeded_rng(13);
    let x = normal_matrix(512, 32, 0.0, 1.0, &mut rng);
    let serial = par::serial_scope(|| a.spmm(&x));
    let run1 = par::with_threads(4, || a.spmm(&x));
    let run2 = par::with_threads(4, || a.spmm(&x));
    assert_eq!(run1.as_slice(), run2.as_slice(), "two parallel runs differ");
    assert_eq!(serial.as_slice(), run1.as_slice(), "serial vs parallel");
}

#[test]
fn edge_softmax_parallel_is_bit_deterministic() {
    let edges = fixed_edges(2048, 8, 17);
    let mut rng = seeded_rng(19);
    let scores = normal_matrix(edges.n_edges(), 1, 0.0, 2.0, &mut rng);
    let run = || {
        let mut g = Graph::new();
        let s = g.constant(scores.clone());
        let alpha = g.edge_softmax(s, edges.clone());
        g.value(alpha).clone()
    };
    let serial = par::serial_scope(run);
    let run1 = par::with_threads(4, run);
    let run2 = par::with_threads(4, run);
    assert_eq!(run1.as_slice(), run2.as_slice(), "two parallel runs differ");
    assert_eq!(serial.as_slice(), run1.as_slice(), "serial vs parallel");
}

#[test]
fn fused_matmul_bias_act_bitwise_matches_unfused() {
    use uvd_tensor::ParamRef;
    let cases = [
        FusedAct::Identity,
        FusedAct::LeakyRelu(0.0),
        FusedAct::LeakyRelu(0.2),
        FusedAct::Tanh,
        FusedAct::Sigmoid,
    ];
    let mut rng = seeded_rng(29);
    let x = normal_matrix(17, 9, 0.0, 1.0, &mut rng);
    let wv = normal_matrix(9, 5, 0.0, 0.5, &mut rng);
    let bv = normal_matrix(1, 5, 0.0, 0.5, &mut rng);
    for act in cases {
        let run = |fused: bool| {
            let w = ParamRef::new("w", wv.clone());
            let b = ParamRef::new("b", bv.clone());
            let mut g = Graph::new();
            let xn = g.constant(x.clone());
            let wn = g.param(&w);
            let bn = g.param(&b);
            let y = if fused {
                g.matmul_bias_act(xn, wn, bn, act)
            } else {
                let z = g.matmul(xn, wn);
                let z = g.add_row(z, bn);
                match act {
                    FusedAct::Identity => z,
                    FusedAct::LeakyRelu(s) => g.leaky_relu(z, s),
                    FusedAct::Tanh => g.tanh(z),
                    FusedAct::Sigmoid => g.sigmoid(z),
                }
            };
            let loss = g.mean_all(y);
            g.backward(loss);
            (
                g.value(y).clone(),
                g.grad(wn).unwrap().clone(),
                g.grad(bn).unwrap().clone(),
            )
        };
        let (yf, dwf, dbf) = run(true);
        let (yu, dwu, dbu) = run(false);
        assert_eq!(yf.as_slice(), yu.as_slice(), "{act:?}: forward");
        assert_eq!(dwf.as_slice(), dwu.as_slice(), "{act:?}: dW");
        assert_eq!(dbf.as_slice(), dbu.as_slice(), "{act:?}: db");
    }
}

#[test]
fn conv_backward_deterministic_for_fixed_threads() {
    use uvd_tensor::ConvMeta;
    let meta = ConvMeta {
        c_in: 2,
        h_in: 16,
        w_in: 16,
        c_out: 3,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let mut rng = seeded_rng(23);
    let x = normal_matrix(8, meta.in_len(), 0.0, 1.0, &mut rng);
    let (co, klen) = meta.kernel_shape();
    let kernel = normal_matrix(co, klen, 0.0, 0.5, &mut rng);
    let run = || {
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let kn = g.variable(kernel.clone());
        let y = g.conv2d(xn, kn, meta);
        let loss = g.mean_all(y);
        g.backward(loss);
        g.grad(kn).unwrap().clone()
    };
    // The kernel gradient reduces ordered per-chunk partials: bit-stable for
    // a fixed thread count (the chunk layout is a function of the count).
    let run1 = par::with_threads(4, run);
    let run2 = par::with_threads(4, run);
    assert_eq!(run1.as_slice(), run2.as_slice(), "two parallel runs differ");
}
