//! Replay-with-new-inputs differential contract (the `uvd-serve` hot path).
//!
//! A resident scoring service records one inference Plan and then replays it
//! for every request tick after overwriting input leaves with
//! [`Graph::set_value`]. That pattern leans on the workspace pack-stamp
//! protocol (`crates/tensor/src/gemm.rs`): const leaves pack their GEMM
//! panels once (`PERSISTENT`), `set_value` must knock the stamp back to
//! `NEVER` on **both** pack slots (`packs` for RHS/B panels, `packs_a` for
//! conv-kernel LHS panels), and the next execution must repack from the new
//! bytes.
//!
//! Every test here states the same theorem: *N back-to-back replays with
//! different inputs are bitwise-equal to N fresh graphs built from those
//! inputs*. A stale pack — a panel surviving a `set_value` — shows up as a
//! bitwise diff on the first replay, because the GEMM kernels consume only
//! the packed panels, never the raw leaf buffer.
//!
//! Audit note (satellite of ISSUE 8): the invalidation protocol was audited
//! for the replay-with-new-inputs pattern and found sound — `set_value`
//! resets both `packs[id]` and `packs_a[id]` to `NEVER`, `Plan::replay`
//! bumps the workspace epoch so non-const operands repack exactly once per
//! replay, and record-time executions after a `set_value` observe the
//! `NEVER` stamp and repack immediately. These tests pin that behavior so a
//! future pack-cache change cannot silently reintroduce stale reuse.
//!
//! The last case states the training-side theorem: a toy GAT+GCN tape
//! replayed across Adam steps is bitwise-equal, forward and backward, to the
//! same computation freshly recorded each epoch, and its losses and
//! parameter gradients are pinned to bits recorded from the pre-replay
//! define-by-run engine before that engine was deleted.

use std::sync::Arc;
use uvd_tensor::fastmath::with_fast_math;
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{
    par, Adam, ConvMeta, Csr, CsrPair, EdgeIndex, FusedAct, Graph, Matrix, NodeId, ParamRef,
    ParamSet,
};

fn assert_bitwise(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

// ---------------------------------------------------------------------------
// Plain matmul with a const-leaf RHS (the packed-B path).
// ---------------------------------------------------------------------------

fn fresh_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let mut g = Graph::inference();
    let an = g.constant(a.clone());
    let bn = g.constant(b.clone());
    let c = g.matmul(an, bn);
    g.value(c).as_slice().to_vec()
}

#[test]
fn matmul_rhs_set_value_replays_match_fresh_graphs() {
    let mut rng = seeded_rng(3);
    let a1 = normal_matrix(33, 47, 0.0, 1.0, &mut rng);
    let b1 = normal_matrix(47, 29, 0.0, 1.0, &mut rng);
    let b2 = normal_matrix(47, 29, 0.0, 1.0, &mut rng);
    let b3 = normal_matrix(47, 29, 0.0, 1.0, &mut rng);

    let mut g = Graph::inference();
    let an = g.constant(a1.clone());
    let bn = g.constant(b1.clone());
    let c = g.matmul(an, bn);
    assert_bitwise(g.value(c).as_slice(), &fresh_matmul(&a1, &b1), "record");

    // Two back-to-back replays with different inputs …
    g.set_value(bn, &b2);
    g.replay();
    assert_bitwise(g.value(c).as_slice(), &fresh_matmul(&a1, &b2), "replay b2");
    g.set_value(bn, &b3);
    g.replay();
    assert_bitwise(g.value(c).as_slice(), &fresh_matmul(&a1, &b3), "replay b3");

    // … an idempotent replay with no new inputs …
    g.replay();
    assert_bitwise(
        g.value(c).as_slice(),
        &fresh_matmul(&a1, &b3),
        "replay again",
    );

    // … and a return to the original value (a PERSISTENT pack of b1 still
    // cached anywhere would now accidentally be "right" — the b2/b3 steps
    // above are what catch that; this step catches stamp-direction bugs).
    g.set_value(bn, &b1);
    g.replay();
    assert_bitwise(g.value(c).as_slice(), &fresh_matmul(&a1, &b1), "back to b1");
}

#[test]
fn record_time_exec_after_set_value_repacks() {
    // set_value between two recorded consumers of the same leaf: the second
    // record-time execution must not reuse the PERSISTENT pack of the first.
    let mut rng = seeded_rng(5);
    let a = normal_matrix(8, 12, 0.0, 1.0, &mut rng);
    let b1 = normal_matrix(12, 16, 0.0, 1.0, &mut rng);
    let b2 = normal_matrix(12, 16, 0.0, 1.0, &mut rng);

    let mut g = Graph::inference();
    let an = g.constant(a.clone());
    let bn = g.constant(b1.clone());
    let _c1 = g.matmul(an, bn); // packs bn as PERSISTENT from b1's bytes
    g.set_value(bn, &b2); // stamp must drop to NEVER
    let c2 = g.matmul(an, bn); // record-time exec: must repack from b2
    assert_bitwise(
        g.value(c2).as_slice(),
        &fresh_matmul(&a, &b2),
        "record after set_value",
    );
}

// ---------------------------------------------------------------------------
// Fused MatMulBiasAct with both operands replayed (serve classifier shape).
// ---------------------------------------------------------------------------

fn fresh_mba(a: &Matrix, b: &Matrix, bias: &Matrix) -> Vec<f32> {
    let mut g = Graph::inference();
    let an = g.constant(a.clone());
    let bn = g.constant(b.clone());
    let biasn = g.constant(bias.clone());
    let c = g.matmul_bias_act(an, bn, biasn, FusedAct::Tanh);
    g.value(c).as_slice().to_vec()
}

#[test]
fn matmul_bias_act_set_value_replays_match_fresh_graphs() {
    let mut rng = seeded_rng(11);
    let b = normal_matrix(21, 13, 0.0, 1.0, &mut rng);
    let bias = normal_matrix(1, 13, 0.0, 1.0, &mut rng);
    let xs: Vec<Matrix> = (0..3)
        .map(|_| normal_matrix(17, 21, 0.0, 1.0, &mut rng))
        .collect();
    let ws: Vec<Matrix> = (0..3)
        .map(|_| normal_matrix(21, 13, 0.0, 1.0, &mut rng))
        .collect();

    let mut g = Graph::inference();
    let an = g.constant(xs[0].clone());
    let bn = g.constant(b.clone());
    let biasn = g.constant(bias.clone());
    let c = g.matmul_bias_act(an, bn, biasn, FusedAct::Tanh);
    assert_bitwise(
        g.value(c).as_slice(),
        &fresh_mba(&xs[0], &b, &bias),
        "record",
    );

    // Vary the LHS only (the per-request activation rows in serve).
    for (i, x) in xs.iter().enumerate() {
        g.set_value(an, x);
        g.replay();
        assert_bitwise(
            g.value(c).as_slice(),
            &fresh_mba(x, &b, &bias),
            &format!("replay lhs {i}"),
        );
    }
    // Vary the packed RHS too (a hot-swapped weight).
    for (i, w) in ws.iter().enumerate() {
        g.set_value(bn, w);
        g.replay();
        assert_bitwise(
            g.value(c).as_slice(),
            &fresh_mba(&xs[2], w, &bias),
            &format!("replay rhs {i}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Conv2d: the kernel is a packed LHS (`packs_a`), the image a plain input.
// ---------------------------------------------------------------------------

const META: ConvMeta = ConvMeta {
    c_in: 2,
    h_in: 9,
    w_in: 7,
    c_out: 3,
    k: 3,
    stride: 1,
    pad: 1,
};

fn fresh_conv(x: &Matrix, kernel: &Matrix) -> Vec<f32> {
    let mut g = Graph::inference();
    let xn = g.constant(x.clone());
    let kn = g.constant(kernel.clone());
    let c = g.conv2d(xn, kn, META);
    g.value(c).as_slice().to_vec()
}

#[test]
fn conv2d_kernel_set_value_invalidates_packs_a() {
    let mut rng = seeded_rng(17);
    let x1 = normal_matrix(5, META.in_len(), 0.0, 1.0, &mut rng);
    let x2 = normal_matrix(5, META.in_len(), 0.0, 1.0, &mut rng);
    let (kr, kc) = META.kernel_shape();
    let k1 = normal_matrix(kr, kc, 0.0, 1.0, &mut rng);
    let k2 = normal_matrix(kr, kc, 0.0, 1.0, &mut rng);

    let mut g = Graph::inference();
    let xn = g.constant(x1.clone());
    let kn = g.constant(k1.clone());
    let c = g.conv2d(xn, kn, META);
    assert_bitwise(g.value(c).as_slice(), &fresh_conv(&x1, &k1), "record");

    // New kernel bytes: the PERSISTENT packs_a panel must be dropped.
    g.set_value(kn, &k2);
    g.replay();
    assert_bitwise(g.value(c).as_slice(), &fresh_conv(&x1, &k2), "replay k2");

    // New image with the same kernel: only the im2col side changes.
    g.set_value(xn, &x2);
    g.replay();
    assert_bitwise(g.value(c).as_slice(), &fresh_conv(&x2, &k2), "replay x2");

    // Both at once, back to the originals.
    g.set_value(xn, &x1);
    g.set_value(kn, &k1);
    g.replay();
    assert_bitwise(g.value(c).as_slice(), &fresh_conv(&x1, &k1), "replay x1k1");
}

// ---------------------------------------------------------------------------
// The serve tick itself: gated matmul + sigmoid over per-request rows.
// ---------------------------------------------------------------------------

fn fresh_gated(x: &Matrix, w: &Matrix, f: &Matrix) -> Vec<f32> {
    let mut g = Graph::inference();
    let xn = g.constant(x.clone());
    let wn = g.constant(w.clone());
    let fn_ = g.constant(f.clone());
    let z = g.gated_matmul(xn, wn, fn_);
    let p = g.sigmoid(z);
    g.value(p).as_slice().to_vec()
}

#[test]
fn gated_matmul_batch_replays_match_fresh_graphs() {
    let (batch, d, h) = (6, 19, 5);
    let mut rng = seeded_rng(23);
    let w = normal_matrix(d, h, 0.0, 1.0, &mut rng);

    // Record at zeroed leaves — exactly how the serve batch plan records
    // before the first request arrives.
    let mut g = Graph::inference();
    let xn = g.constant(Matrix::zeros(batch, d));
    let wn = g.constant(w.clone());
    let fn_ = g.constant(Matrix::zeros(batch, d * h));
    let z = g.gated_matmul(xn, wn, fn_);
    let p = g.sigmoid(z);

    for tick in 0..4 {
        let x = normal_matrix(batch, d, 0.0, 1.0, &mut rng);
        let f = normal_matrix(batch, d * h, 0.0, 1.0, &mut rng);
        g.set_value(xn, &x);
        g.set_value(fn_, &f);
        g.replay();
        assert_bitwise(
            g.value(p).as_slice(),
            &fresh_gated(&x, &w, &f),
            &format!("tick {tick}"),
        );
    }
}

// ---------------------------------------------------------------------------
// A head-shaped chain: the replayed leaf feeds a matmul as RHS *and* a
// fused matmul as LHS (the GSCM collection / fuse shape in the serve head).
// ---------------------------------------------------------------------------

fn fresh_head(bt: &Matrix, xt: &Matrix, w: &Matrix, bias: &Matrix) -> Vec<f32> {
    let mut g = Graph::inference();
    let btn = g.constant(bt.clone());
    let xtn = g.constant(xt.clone());
    let wn = g.constant(w.clone());
    let biasn = g.constant(bias.clone());
    let pooled = g.matmul(btn, xtn); // xt as packed RHS
    let act = g.tanh(pooled);
    let mixed = g.matmul_bias_act(act, wn, biasn, FusedAct::LeakyRelu(0.2));
    let back = g.matmul(xtn, wn); // xt as LHS of a packed-RHS matmul
    let joined = g.matmul(btn, back);
    let out = g.add(mixed, joined);
    g.value(out).as_slice().to_vec()
}

#[test]
fn head_chain_set_value_replays_match_fresh_graphs() {
    let (k, n, d) = (4, 31, 15);
    let mut rng = seeded_rng(31);
    let bt = normal_matrix(k, n, 0.0, 1.0, &mut rng);
    let w = normal_matrix(d, d, 0.0, 1.0, &mut rng);
    let bias = normal_matrix(1, d, 0.0, 1.0, &mut rng);
    let xts: Vec<Matrix> = (0..3)
        .map(|_| normal_matrix(n, d, 0.0, 1.0, &mut rng))
        .collect();

    let mut g = Graph::inference();
    let btn = g.constant(bt.clone());
    let xtn = g.constant(xts[0].clone());
    let wn = g.constant(w.clone());
    let biasn = g.constant(bias.clone());
    let pooled = g.matmul(btn, xtn);
    let act = g.tanh(pooled);
    let mixed = g.matmul_bias_act(act, wn, biasn, FusedAct::LeakyRelu(0.2));
    let back = g.matmul(xtn, wn);
    let joined = g.matmul(btn, back);
    let out = g.add(mixed, joined);
    assert_bitwise(
        g.value(out).as_slice(),
        &fresh_head(&bt, &xts[0], &w, &bias),
        "record",
    );

    for (i, xt) in xts.iter().enumerate().skip(1) {
        g.set_value(xtn, xt);
        g.replay();
        assert_bitwise(
            g.value(out).as_slice(),
            &fresh_head(&bt, xt, &w, &bias),
            &format!("replay xt {i}"),
        );
    }
    // And back to the first input after the pack slots cycled.
    g.set_value(xtn, &xts[0]);
    g.replay();
    assert_bitwise(
        g.value(out).as_slice(),
        &fresh_head(&bt, &xts[0], &w, &bias),
        "back to xt 0",
    );
}

// ---------------------------------------------------------------------------
// Training: a replayed GAT+GCN tape against a fresh recording every epoch.
// ---------------------------------------------------------------------------

/// Inputs of the toy GAT+GCN tape: a 12-node ring with one chord per node,
/// constant features, three trainable weights.
struct Toy {
    x: Matrix,
    w1: ParamRef,
    w_att: ParamRef,
    w2: ParamRef,
    edges: Arc<EdgeIndex>,
    csr: Arc<CsrPair>,
    rows: Arc<Vec<u32>>,
    targets: Arc<Vec<f32>>,
    weights: Arc<Vec<f32>>,
}

impl Toy {
    fn new() -> Toy {
        let (n, d, h) = (12usize, 6usize, 4usize);
        let mut rng = seeded_rng(3);
        let x = normal_matrix(n, d, 0.0, 1.0, &mut rng);
        let w1 = ParamRef::new("w1", normal_matrix(d, h, 0.0, 0.4, &mut rng));
        let w_att = ParamRef::new("w_att", normal_matrix(h, 1, 0.0, 0.4, &mut rng));
        let w2 = ParamRef::new("w2", normal_matrix(h, 1, 0.0, 0.4, &mut rng));
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| {
                let nn = n as u32;
                [(i, (i + 1) % nn), (i, (i + 5) % nn)]
            })
            .collect();
        let edges = Arc::new(EdgeIndex::from_pairs(n, pairs.clone()));
        let csr = CsrPair::new(Csr::from_coo(
            n,
            n,
            pairs
                .iter()
                .map(|&(s, t)| (t, s, 1.0 / 3.0))
                .collect::<Vec<_>>(),
        ));
        Toy {
            x,
            w1,
            w_att,
            w2,
            edges,
            csr,
            rows: Arc::new((0..n as u32).collect()),
            targets: Arc::new((0..n).map(|i| (i % 2) as f32).collect()),
            weights: Arc::new(vec![1.0; n]),
        }
    }

    /// Record GAT-style attention plus one GCN hop onto `g`, reading the
    /// current parameter values. Returns `(feature leaf, loss)`.
    fn record(&self, g: &mut Graph) -> (NodeId, NodeId) {
        let xc = g.constant(self.x.clone());
        let w1n = g.param(&self.w1);
        let h0 = g.matmul(xc, w1n);
        let h0 = g.tanh(h0);
        let wa = g.param(&self.w_att);
        let score = g.matmul(h0, wa);
        let s_dst = g.gather_rows(score, Arc::new(self.edges.dst().to_vec()));
        let s_src = g.gather_rows(score, Arc::new(self.edges.src().to_vec()));
        let s = g.add(s_dst, s_src);
        let s = g.leaky_relu(s, 0.2);
        let alpha = g.edge_softmax(s, self.edges.clone());
        let h_att = g.edge_aggregate(alpha, h0, self.edges.clone());
        let h_gcn = g.spmm(self.csr.clone(), h_att);
        let w2n = g.param(&self.w2);
        let logits = g.matmul(h_gcn, w2n);
        let picked = g.gather_rows(logits, self.rows.clone());
        let loss = g.bce_with_logits(picked, self.targets.clone(), self.weights.clone());
        (xc, loss)
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Fold the bytes of `words` into a running 64-bit FNV-1a hash.
fn fnv1a(h: &mut u64, words: &[u32]) {
    for w in words {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn replayed_training_tape_matches_fresh_recordings_and_pin() {
    with_fast_math(false, || {
        par::serial_scope(|| {
            let toy = Toy::new();
            let mut set = ParamSet::new();
            set.track(toy.w1.clone());
            set.track(toy.w_att.clone());
            set.track(toy.w2.clone());

            let mut g = Graph::new();
            let (xc, loss) = toy.record(&mut g);
            let mut opt = Adam::new(0.05);
            let mut pin = 0xcbf2_9ce4_8422_2325u64;
            for epoch in 0..4 {
                if epoch > 0 {
                    g.replay();
                }
                let mut fresh = Graph::new();
                let (_, fresh_loss) = toy.record(&mut fresh);
                assert_eq!(fresh.len(), g.len());
                for i in 0..g.len() {
                    assert_eq!(
                        bits(g.value(g.node(i))),
                        bits(fresh.value(fresh.node(i))),
                        "epoch {epoch}: forward value of node {i} diverged"
                    );
                }

                g.backward(loss);
                fresh.backward(fresh_loss);
                set.zero_grads();
                fresh.write_grads();
                let fresh_grads: Vec<Vec<u32>> = set.iter().map(|p| bits(&p.grad())).collect();
                set.zero_grads();
                g.write_grads();
                let grads: Vec<Vec<u32>> = set.iter().map(|p| bits(&p.grad())).collect();
                assert_eq!(grads, fresh_grads, "epoch {epoch}: param grads diverged");
                for i in 0..g.len() {
                    if let Some(grad) = g.grad(g.node(i)) {
                        let fresh_grad = fresh.grad(fresh.node(i)).expect("fresh grad present");
                        assert_eq!(bits(grad), bits(fresh_grad), "epoch {epoch}: grad {i}");
                    }
                }
                assert!(g.grad(xc).is_none(), "constant features must be pruned");

                fnv1a(&mut pin, &bits(g.value(loss)));
                for grad in &grads {
                    fnv1a(&mut pin, grad);
                }
                opt.step(&set);
            }
            // Recorded from the define-by-run engine that preceded
            // Plan/Workspace replay (fresh buffers per op, re-recorded every
            // epoch), on the same tape and schedule.
            assert_eq!(pin, 0xbb68_b41c_7119_f833, "loss/grad FNV 0x{pin:016x}");
        });
    });
}
