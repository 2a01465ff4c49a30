//! Graph attention primitives: single heads (intra- and cross-modal),
//! multi-head wrappers, and the learned two-way fusion used for the paper's
//! AGG(·,·) operator.

use crate::layers::Activation;
use std::sync::Arc;
use uvd_tensor::init::glorot_uniform;
use uvd_tensor::{EdgeIndex, Graph, NodeId, ParamRef, ParamSet, Rng64};

/// One graph attention head.
///
/// For intra-modal attention (paper eqs. 1–3) destination and source share
/// the transformation `W`; for cross-modal attention (eqs. 5–7) they use
/// separate `W'` matrices and the aggregated messages come from the *source*
/// modality. Scores follow the standard GAT decomposition
/// `a^T [h_i ⊕ h_j] = a_dst^T h_i + a_src^T h_j` with LeakyReLU, computed
/// with the softmax over each destination's edges in one fused
/// `edge_attention` node.
#[derive(Clone, Debug)]
pub struct GraphAttentionHead {
    w_dst: ParamRef,
    /// `None` means the source shares `w_dst` (intra-modal).
    w_src: Option<ParamRef>,
    a_dst: ParamRef,
    a_src: ParamRef,
    pub negative_slope: f32,
    pub activation: Activation,
}

impl GraphAttentionHead {
    /// Intra-modal head: shared transformation for both endpoints.
    pub fn new_intra(name: &str, in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        GraphAttentionHead {
            w_dst: ParamRef::new(format!("{name}.w"), glorot_uniform(in_dim, out_dim, rng)),
            w_src: None,
            a_dst: ParamRef::new(format!("{name}.a_dst"), glorot_uniform(out_dim, 1, rng)),
            a_src: ParamRef::new(format!("{name}.a_src"), glorot_uniform(out_dim, 1, rng)),
            negative_slope: 0.2,
            activation: Activation::LeakyRelu(0.2),
        }
    }

    /// Cross-modal head: destination modality has `in_dst` dims, source
    /// modality `in_src`; messages are transformed source features.
    pub fn new_cross(
        name: &str,
        in_dst: usize,
        in_src: usize,
        out_dim: usize,
        rng: &mut Rng64,
    ) -> Self {
        GraphAttentionHead {
            w_dst: ParamRef::new(
                format!("{name}.w_dst"),
                glorot_uniform(in_dst, out_dim, rng),
            ),
            w_src: Some(ParamRef::new(
                format!("{name}.w_src"),
                glorot_uniform(in_src, out_dim, rng),
            )),
            a_dst: ParamRef::new(format!("{name}.a_dst"), glorot_uniform(out_dim, 1, rng)),
            a_src: ParamRef::new(format!("{name}.a_src"), glorot_uniform(out_dim, 1, rng)),
            negative_slope: 0.2,
            activation: Activation::LeakyRelu(0.2),
        }
    }

    pub fn out_dim(&self) -> usize {
        self.w_dst.shape().1
    }

    /// Forward pass. `x_dst` provides the attending (center) features,
    /// `x_src` the attended (neighbour) features; for intra-modal attention
    /// pass the same node twice.
    pub fn forward(
        &self,
        g: &mut Graph,
        x_dst: NodeId,
        x_src: NodeId,
        edges: &Arc<EdgeIndex>,
    ) -> NodeId {
        let w_dst = g.param(&self.w_dst);
        let h_dst = g.matmul(x_dst, w_dst);
        let h_src = match &self.w_src {
            Some(w_src) => {
                let w = g.param(w_src);
                g.matmul(x_src, w)
            }
            None if x_src == x_dst => h_dst,
            None => g.matmul(x_src, w_dst),
        };
        let a_dst = g.param(&self.a_dst);
        let a_src = g.param(&self.a_src);
        let alpha = g.edge_attention(
            h_dst,
            h_src,
            a_dst,
            a_src,
            self.negative_slope,
            edges.clone(),
        );
        let agg = g.edge_aggregate(alpha, h_src, edges.clone());
        self.activation.apply(g, agg)
    }

    pub fn collect_params(&self, set: &mut ParamSet) {
        set.track(self.w_dst.clone());
        if let Some(w) = &self.w_src {
            set.track(w.clone());
        }
        set.track(self.a_dst.clone());
        set.track(self.a_src.clone());
    }
}

/// Multi-head attention: heads run independently and outputs are
/// concatenated (standard GAT convention), so the output dimensionality is
/// `heads * out_dim`.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    pub heads: Vec<GraphAttentionHead>,
}

impl MultiHeadAttention {
    pub fn new_intra(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        n_heads: usize,
        rng: &mut Rng64,
    ) -> Self {
        let heads = (0..n_heads)
            .map(|h| GraphAttentionHead::new_intra(&format!("{name}.h{h}"), in_dim, out_dim, rng))
            .collect();
        MultiHeadAttention { heads }
    }

    pub fn new_cross(
        name: &str,
        in_dst: usize,
        in_src: usize,
        out_dim: usize,
        n_heads: usize,
        rng: &mut Rng64,
    ) -> Self {
        let heads = (0..n_heads)
            .map(|h| {
                GraphAttentionHead::new_cross(&format!("{name}.h{h}"), in_dst, in_src, out_dim, rng)
            })
            .collect();
        MultiHeadAttention { heads }
    }

    pub fn out_dim(&self) -> usize {
        self.heads.iter().map(|h| h.out_dim()).sum()
    }

    pub fn forward(
        &self,
        g: &mut Graph,
        x_dst: NodeId,
        x_src: NodeId,
        edges: &Arc<EdgeIndex>,
    ) -> NodeId {
        let mut out: Option<NodeId> = None;
        for head in &self.heads {
            let h = head.forward(g, x_dst, x_src, edges);
            out = Some(match out {
                None => h,
                Some(prev) => g.concat_cols(prev, h),
            });
        }
        out.expect("at least one head")
    }

    pub fn collect_params(&self, set: &mut ParamSet) {
        for h in &self.heads {
            h.collect_params(set);
        }
    }
}

/// Learned two-way fusion implementing the paper's `AGG(x, y)` options:
/// summation, concatenation, or a per-row attention gate
/// `softmax([x·a₁, y·a₂])` weighting the two inputs (requires equal dims for
/// `Sum`/`Attention`).
#[derive(Clone, Debug)]
pub enum FusionAgg {
    Sum,
    Concat,
    Attention { a1: ParamRef, a2: ParamRef },
}

/// Which fusion to build (configuration-level mirror of [`FusionAgg`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggMode {
    Sum,
    Concat,
    Attention,
}

impl FusionAgg {
    pub fn new(name: &str, mode: AggMode, dim: usize, rng: &mut Rng64) -> Self {
        match mode {
            AggMode::Sum => FusionAgg::Sum,
            AggMode::Concat => FusionAgg::Concat,
            AggMode::Attention => FusionAgg::Attention {
                a1: ParamRef::new(format!("{name}.a1"), glorot_uniform(dim, 1, rng)),
                a2: ParamRef::new(format!("{name}.a2"), glorot_uniform(dim, 1, rng)),
            },
        }
    }

    /// Output dimensionality given input dimensionality `dim`.
    pub fn out_dim(&self, dim: usize) -> usize {
        match self {
            FusionAgg::Concat => 2 * dim,
            _ => dim,
        }
    }

    pub fn forward(&self, g: &mut Graph, x: NodeId, y: NodeId) -> NodeId {
        match self {
            FusionAgg::Sum => g.add(x, y),
            FusionAgg::Concat => g.concat_cols(x, y),
            FusionAgg::Attention { a1, a2 } => {
                let a1 = g.param(a1);
                let a2 = g.param(a2);
                let s1 = g.matmul(x, a1); // N×1
                let s2 = g.matmul(y, a2); // N×1
                let s = g.concat_cols(s1, s2); // N×2
                let w = g.softmax_rows(s, 1.0);
                let w1 = g.slice_cols(w, 0, 1);
                let w2 = g.slice_cols(w, 1, 2);
                let xg = g.mul_col(x, w1);
                let yg = g.mul_col(y, w2);
                g.add(xg, yg)
            }
        }
    }

    pub fn collect_params(&self, set: &mut ParamSet) {
        if let FusionAgg::Attention { a1, a2 } = self {
            set.track(a1.clone());
            set.track(a2.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_tensor::init::{normal_matrix, seeded_rng};
    use uvd_tensor::Matrix;

    fn small_edges() -> Arc<EdgeIndex> {
        // 4 nodes, bidirectional path + self-loops.
        let mut pairs = vec![(0u32, 1u32), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)];
        for i in 0..4 {
            pairs.push((i, i));
        }
        Arc::new(EdgeIndex::from_pairs(4, pairs))
    }

    #[test]
    fn intra_head_shapes_and_backward() {
        let mut rng = seeded_rng(1);
        let head = GraphAttentionHead::new_intra("h", 5, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(normal_matrix(4, 5, 0.0, 1.0, &mut rng));
        let edges = small_edges();
        let out = head.forward(&mut g, x, x, &edges);
        assert_eq!(g.value(out).shape(), (4, 3));
        let sq = g.mul(out, out);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads();
        let mut set = ParamSet::new();
        head.collect_params(&mut set);
        assert!(
            set.grad_norm() > 0.0,
            "gradients must reach attention params"
        );
    }

    #[test]
    fn cross_head_different_dims() {
        let mut rng = seeded_rng(2);
        let head = GraphAttentionHead::new_cross("c", 6, 4, 3, &mut rng);
        let mut g = Graph::new();
        let xp = g.constant(normal_matrix(4, 6, 0.0, 1.0, &mut rng));
        let xi = g.constant(normal_matrix(4, 4, 0.0, 1.0, &mut rng));
        let edges = small_edges();
        let out = head.forward(&mut g, xp, xi, &edges);
        assert_eq!(g.value(out).shape(), (4, 3));
    }

    #[test]
    fn multi_head_concatenates() {
        let mut rng = seeded_rng(3);
        let mh = MultiHeadAttention::new_intra("m", 5, 3, 2, &mut rng);
        assert_eq!(mh.out_dim(), 6);
        let mut g = Graph::new();
        let x = g.constant(normal_matrix(4, 5, 0.0, 1.0, &mut rng));
        let out = mh.forward(&mut g, x, x, &small_edges());
        assert_eq!(g.value(out).shape(), (4, 6));
    }

    #[test]
    fn fusion_sum_and_concat() {
        let mut rng = seeded_rng(4);
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = g.constant(Matrix::from_rows(&[&[3.0, 4.0]]));
        let sum = FusionAgg::new("f", AggMode::Sum, 2, &mut rng).forward(&mut g, x, y);
        assert_eq!(g.value(sum).as_slice(), &[4.0, 6.0]);
        let cat = FusionAgg::new("f", AggMode::Concat, 2, &mut rng).forward(&mut g, x, y);
        assert_eq!(g.value(cat).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fusion_attention_is_convex_combination() {
        let mut rng = seeded_rng(5);
        let f = FusionAgg::new("f", AggMode::Attention, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[&[1.0, 0.0]]));
        let y = g.constant(Matrix::from_rows(&[&[0.0, 1.0]]));
        let out = f.forward(&mut g, x, y);
        let v = g.value(out);
        // Each output element within [0,1]; elements sum to 1 here because
        // inputs are the two unit basis vectors.
        let s = v.get(0, 0) + v.get(0, 1);
        assert!((s - 1.0).abs() < 1e-5);
    }

    /// A head records its parameters, the projection(s), one fused
    /// attention node, the aggregate and the activation: 7 nodes intra, 9
    /// cross (a second weight and projection). The seven-node score chain
    /// it replaced recorded 13 and 15.
    #[test]
    fn head_records_one_attention_node() {
        let mut rng = seeded_rng(7);
        let edges = small_edges();
        let intra = GraphAttentionHead::new_intra("h", 5, 3, &mut rng);
        let cross = GraphAttentionHead::new_cross("c", 5, 4, 3, &mut rng);
        let mut g = Graph::new();
        let xp = g.constant(normal_matrix(4, 5, 0.0, 1.0, &mut rng));
        let xi = g.constant(normal_matrix(4, 4, 0.0, 1.0, &mut rng));
        let before = g.len();
        intra.forward(&mut g, xp, xp, &edges);
        assert_eq!(g.len() - before, 7, "intra head nodes");
        let before = g.len();
        cross.forward(&mut g, xp, xi, &edges);
        assert_eq!(g.len() - before, 9, "cross head nodes");
    }

    #[test]
    fn isolated_node_keeps_self_loop_signal() {
        // A node with only a self-loop must aggregate its own features.
        let mut rng = seeded_rng(6);
        let head = GraphAttentionHead::new_intra("h", 2, 2, &mut rng);
        let edges = Arc::new(EdgeIndex::from_pairs(
            2,
            vec![(0, 0), (1, 1), (0, 1), (1, 0)],
        ));
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let out = head.forward(&mut g, x, x, &edges);
        // No NaNs and finite values.
        assert!(!g.value(out).has_non_finite());
    }
}
