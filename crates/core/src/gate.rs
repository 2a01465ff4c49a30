//! Contextual Master-Slave Gate (MS-Gate, paper Section V-B).
//!
//! A pseudo-label predictor estimates each cluster's UV inclusion
//! probability (eq. 17) under a PU rank loss (eq. 18); the region context
//! vector is the soft membership row gated by those probabilities (eq. 19);
//! a sigmoid parameter filter derived from the context (eq. 20) elementwise
//! moderates every parameter of the master classifier (eq. 21), yielding a
//! region-specific slave predictor (eq. 22).

use crate::gscm::FixedAssignment;
use std::sync::Arc;
use uvd_nn::{Activation, Linear, Mlp};
use uvd_tensor::{Graph, Matrix, NodeId, ParamSet, Rng64};

/// The MS-Gate module.
pub struct MsGate {
    /// Pseudo-label predictor `M^p` — an LR classifier on cluster
    /// representations (paper implementation note).
    pseudo_predictor: Linear,
    /// Context transform `W_q` (eq. 19).
    w_q: Linear,
    /// Filter transform `W_f` (eq. 20).
    w_f: Linear,
    /// Number of scalars in the gated classifier.
    filter_len: usize,
}

impl MsGate {
    /// `cluster_dim`: width of cluster representations; `k`: number of
    /// clusters; `ctx_dim`: context width; `classifier`: the master
    /// classifier whose parameters the filter must cover (2-layer MLP).
    pub fn new(
        name: &str,
        cluster_dim: usize,
        k: usize,
        ctx_dim: usize,
        classifier: &Mlp,
        rng: &mut Rng64,
    ) -> Self {
        assert_eq!(
            classifier.layers.len(),
            2,
            "MS-Gate expects a 2-layer MLP classifier"
        );
        let filter_len = classifier.num_scalars();
        let w_f = Linear::new(&format!("{name}.w_f"), ctx_dim, filter_len, rng);
        // Near-identity start: a +4 bias puts the sigmoid filter at ≈0.98,
        // so the freshly derived slaves coincide with the trained master at
        // the beginning of the slave stage and specialize from there instead
        // of first destroying the master's calibration.
        if let Some(b) = &w_f.b {
            for v in b.value_mut().as_mut_slice() {
                *v = 4.0;
            }
        }
        MsGate {
            pseudo_predictor: Linear::new(&format!("{name}.mp"), cluster_dim, 1, rng),
            w_q: Linear::new(&format!("{name}.w_q"), k, ctx_dim, rng),
            w_f,
            filter_len,
        }
    }

    pub fn filter_len(&self) -> usize {
        self.filter_len
    }

    /// eq. 17: inclusion probability per cluster from `h'` (K×d) → (K×1).
    pub fn inclusion_probs(&self, g: &mut Graph, h_prime: NodeId) -> NodeId {
        let z = self.pseudo_predictor.forward(g, h_prime);
        g.sigmoid(z)
    }

    /// eq. 18: PU rank loss between positive clusters `c1` and unlabeled
    /// clusters `c0`. Degenerates to zero when either side is empty (e.g.
    /// every cluster contains a known UV).
    pub fn rank_loss(&self, g: &mut Graph, probs: NodeId, c1: &[u32], c0: &[u32]) -> NodeId {
        if c1.is_empty() || c0.is_empty() {
            return g.constant(Matrix::zeros(1, 1));
        }
        let y1 = g.gather_rows(probs, Arc::new(c1.to_vec()));
        let y0 = g.gather_rows(probs, Arc::new(c0.to_vec()));
        let d = g.sub_outer(y1, y0); // |C1|×|C0|: ŷ_i - ŷ_j
        let neg = g_neg(g, d);
        let one_minus = g.add_scalar(neg, 1.0); // 1 - (ŷ_i - ŷ_j)
        let sq = g.mul(one_minus, one_minus);
        // Eq. 18 sums over C1×C0; we take the mean so the λ balancing weight
        // is independent of K (the pair count varies quadratically with the
        // cluster count, which would otherwise re-scale λ across sweeps).
        g.mean_all(sq)
    }

    /// eq. 19: region context `q_i = σ(W_q (B_{i,*} ∘ Ŷ^h))`.
    pub fn context(&self, g: &mut Graph, fixed: &FixedAssignment, probs: NodeId) -> NodeId {
        let b = g.constant(fixed.b_soft.clone()); // N×K, frozen membership
        let probs_row = g.transpose(probs); // 1×K
        let gated = g.mul_row(b, probs_row); // B ∘ Ŷ^h per row
        let q = self.w_q.forward(g, gated);
        Activation::LeakyRelu(0.2).apply(g, q)
    }

    /// eq. 20: sigmoid parameter filter `F = sigmoid(W_f q)` (N×|Φ_m|).
    pub fn filter(&self, g: &mut Graph, q: NodeId) -> NodeId {
        let f = self.w_f.forward(g, q);
        g.sigmoid(f)
    }

    /// eqs. 21–22: run the master classifier with per-region gated
    /// parameters. `x` is N×d, `f` is N×|Φ_m|; returns N×1 logits.
    ///
    /// The filter layout over the flattened classifier parameters is
    /// `[W1 | b1 | W2 | b2]`, matching `Mlp::num_scalars` ordering.
    pub fn gated_forward(&self, g: &mut Graph, classifier: &Mlp, x: NodeId, f: NodeId) -> NodeId {
        assert_eq!(classifier.layers.len(), 2);
        let l1 = &classifier.layers[0];
        let l2 = &classifier.layers[1];
        let (d, h) = l1.w.shape();
        let (h2, o) = l2.w.shape();
        assert_eq!(h, h2);
        assert_eq!(g.value(f).cols(), self.filter_len, "filter width mismatch");

        let mut off = 0usize;
        let f_w1 = g.slice_cols(f, off, off + d * h);
        off += d * h;
        let f_b1 = g.slice_cols(f, off, off + h);
        off += h;
        let f_w2 = g.slice_cols(f, off, off + h * o);
        off += h * o;
        let f_b2 = g.slice_cols(f, off, off + o);

        let w1 = g.param(&l1.w);
        let b1 = g.param(l1.b.as_ref().expect("classifier layer 1 has bias"));
        let w2 = g.param(&l2.w);
        let b2 = g.param(l2.b.as_ref().expect("classifier layer 2 has bias"));

        // Layer 1 with gated weights and gated bias.
        let z1 = g.gated_matmul(x, w1, f_w1);
        let b1_eff = g.mul_row(f_b1, b1); // F_{b1} ∘ b1, broadcast per region
        let z1 = g.add(z1, b1_eff);
        let a1 = classifier.hidden_activation.apply(g, z1);

        // Layer 2.
        let z2 = g.gated_matmul(a1, w2, f_w2);
        let b2_eff = g.mul_row(f_b2, b2);
        g.add(z2, b2_eff)
    }

    pub fn collect_params(&self, set: &mut ParamSet) {
        self.pseudo_predictor.collect_params(set);
        self.w_q.collect_params(set);
        self.w_f.collect_params(set);
    }
}

/// Negate a node (helper — `scale(x, -1)`).
fn g_neg(g: &mut Graph, x: NodeId) -> NodeId {
    g.scale(x, -1.0)
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended in these tests: they assert
    // exact constants and bit-reproducible results, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;
    use uvd_tensor::init::{normal_matrix, seeded_rng};

    fn fixed(n: usize, k: usize) -> FixedAssignment {
        let mut b_soft = Matrix::filled(n, k, 1.0 / k as f32);
        // Make memberships slightly uneven.
        for i in 0..n {
            b_soft.set(i, i % k, 0.5);
        }
        FixedAssignment {
            b_soft,
            pseudo: vec![1.0, 0.0, 0.0],
            cluster_of: (0..n).map(|i| (i % k) as u32).collect(),
        }
    }

    fn make_gate(rng: &mut uvd_tensor::Rng64) -> (MsGate, Mlp) {
        let classifier = Mlp::new("clf", &[6, 4, 1], Activation::Tanh, rng);
        let gate = MsGate::new("gate", 6, 3, 5, &classifier, rng);
        (gate, classifier)
    }

    #[test]
    fn filter_len_matches_classifier() {
        let mut rng = seeded_rng(1);
        let (gate, clf) = make_gate(&mut rng);
        assert_eq!(gate.filter_len(), clf.num_scalars());
        assert_eq!(gate.filter_len(), 6 * 4 + 4 + 4 + 1);
    }

    #[test]
    fn rank_loss_prefers_separated_probs() {
        let mut rng = seeded_rng(2);
        let (gate, _) = make_gate(&mut rng);
        let mut g = Graph::new();
        let good = g.constant(Matrix::col_vec(&[0.9, 0.1, 0.2]));
        let bad = g.constant(Matrix::col_vec(&[0.1, 0.9, 0.8]));
        let lg = gate.rank_loss(&mut g, good, &[0], &[1, 2]);
        let lb = gate.rank_loss(&mut g, bad, &[0], &[1, 2]);
        assert!(g.scalar(lg) < g.scalar(lb));
    }

    #[test]
    fn rank_loss_empty_partition_is_zero() {
        let mut rng = seeded_rng(3);
        let (gate, _) = make_gate(&mut rng);
        let mut g = Graph::new();
        let p = g.constant(Matrix::col_vec(&[0.5, 0.5]));
        let l = gate.rank_loss(&mut g, p, &[], &[0, 1]);
        assert_eq!(g.scalar(l), 0.0);
        let l2 = gate.rank_loss(&mut g, p, &[0, 1], &[]);
        assert_eq!(g.scalar(l2), 0.0);
    }

    #[test]
    fn gated_forward_with_unit_filter_matches_master() {
        // If the filter were all ones, the slave equals the master. We can't
        // force the sigmoid to 1 exactly, so instead check the algebra by
        // feeding a constant all-ones filter node directly.
        let mut rng = seeded_rng(4);
        let (gate, clf) = make_gate(&mut rng);
        let x = normal_matrix(5, 6, 0.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let ones = g.constant(Matrix::filled(5, gate.filter_len(), 1.0));
        let slave = gate.gated_forward(&mut g, &clf, xn, ones);
        let master = clf.forward(&mut g, xn);
        for (a, b) in g
            .value(slave)
            .as_slice()
            .iter()
            .zip(g.value(master).as_slice())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn context_and_filter_shapes() {
        let mut rng = seeded_rng(5);
        let (gate, clf) = make_gate(&mut rng);
        let fx = fixed(7, 3);
        let mut g = Graph::new();
        let h = g.constant(normal_matrix(3, 6, 0.0, 1.0, &mut rng));
        let probs = gate.inclusion_probs(&mut g, h);
        assert_eq!(g.value(probs).shape(), (3, 1));
        let q = gate.context(&mut g, &fx, probs);
        assert_eq!(g.value(q).shape(), (7, 5));
        let f = gate.filter(&mut g, q);
        assert_eq!(g.value(f).shape(), (7, gate.filter_len()));
        // Filter entries in (0,1) — sigmoid range.
        assert!(g.value(f).as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
        let x = g.constant(normal_matrix(7, 6, 0.0, 1.0, &mut rng));
        let logits = gate.gated_forward(&mut g, &clf, x, f);
        assert_eq!(g.value(logits).shape(), (7, 1));
    }

    #[test]
    fn different_contexts_give_different_slaves() {
        // Two regions with different cluster memberships must get different
        // predictions for identical inputs — the point of MS-Gate.
        let mut rng = seeded_rng(6);
        let (gate, clf) = make_gate(&mut rng);
        let mut fx = fixed(2, 3);
        // Region 0 strongly in positive cluster 0; region 1 in cluster 1.
        fx.b_soft = Matrix::from_rows(&[&[0.9, 0.05, 0.05], &[0.05, 0.9, 0.05]]);
        let mut g = Graph::new();
        let h = g.constant(normal_matrix(3, 6, 0.0, 1.0, &mut rng));
        let probs = gate.inclusion_probs(&mut g, h);
        let q = gate.context(&mut g, &fx, probs);
        let f = gate.filter(&mut g, q);
        let x = g.constant(Matrix::from_rows(&[
            &[1.0, -0.5, 0.3, 0.0, 0.2, -1.0],
            &[1.0, -0.5, 0.3, 0.0, 0.2, -1.0],
        ]));
        let logits = gate.gated_forward(&mut g, &clf, x, f);
        let v = g.value(logits);
        assert!(
            (v.get(0, 0) - v.get(1, 0)).abs() > 1e-6,
            "identical inputs with different contexts should differ"
        );
    }
}
