//! Global Semantic Clustering Module (GSCM, paper Section V-A-2).
//!
//! Regions are softly assigned to K latent clusters (eq. 9, temperature
//! softmax), cluster representations are collected through the *binarized*
//! assignment (eq. 10), related by a learnable complete-graph convolution
//! (eq. 11), and shared back to regions through the *soft* assignment
//! (eq. 12). In the slave stage the assignment is frozen (Algorithm 2) and
//! passed in as [`FixedAssignment`].

use std::sync::Arc;
use uvd_nn::{Activation, Linear};
use uvd_tensor::init::glorot_uniform;
use uvd_tensor::{Csr, CsrPair, Graph, Matrix, NodeId, ParamRef, ParamSet, Rng64};

/// How regions→clusters collection (eq. 10) is performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectionMode {
    /// The paper's binarized assignment `B̃`, mean-pooled per cluster
    /// (default; see the stability note on `cluster_mean`).
    HardMean,
    /// Soft collection through `B` itself (design-choice ablation): every
    /// region contributes to every cluster with its membership weight,
    /// scaled by `K/N` to keep cluster magnitudes comparable to mean
    /// pooling. Differentiable through the assignment.
    Soft,
}

/// Frozen clustering state carried from the master stage into the slave
/// stage (membership + cluster pseudo labels, eq. 16).
#[derive(Clone, Debug)]
pub struct FixedAssignment {
    /// Soft assignment `B` (N×K).
    pub b_soft: Matrix,
    /// Cluster pseudo labels `y^h` (eq. 16), derived from *training* labels.
    pub pseudo: Vec<f32>,
    /// Hard cluster id per region, in `[0, K)`: the binarized assignment
    /// `B̃`, i.e. the row argmax of `b_soft` when it was frozen.
    pub cluster_of: Vec<u32>,
}

impl FixedAssignment {
    pub fn k(&self) -> usize {
        self.pseudo.len()
    }

    /// Restrict the frozen assignment to an induced node subset (ascending
    /// global region ids), for mini-batch slave training. `b_soft` rows and
    /// `cluster_of` are gathered verbatim, so the batch's cluster means run
    /// over `cluster ∩ batch` (clusters with no member in the batch collect
    /// nothing). `pseudo` is per-cluster global state and is carried
    /// unchanged.
    pub fn induced(&self, nodes: &[u32]) -> FixedAssignment {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
        FixedAssignment {
            b_soft: self.b_soft.gather_rows(nodes),
            pseudo: self.pseudo.clone(),
            cluster_of: nodes.iter().map(|&i| self.cluster_of[i as usize]).collect(),
        }
    }

    /// Clusters containing at least one known UV (`C₁`) and the rest (`C₀`).
    pub fn partition(&self) -> (Vec<u32>, Vec<u32>) {
        let mut c1 = Vec::new();
        let mut c0 = Vec::new();
        for (j, &p) in self.pseudo.iter().enumerate() {
            if p > 0.5 {
                c1.push(j as u32);
            } else {
                c0.push(j as u32);
            }
        }
        (c1, c0)
    }

    /// How the regions spread over the clusters, as span fields: occupied
    /// (non-empty) clusters, the largest cluster's share of the regions,
    /// `|C₁|`, `|C₀|` and the occupied clusters in `C₀`.
    pub fn occupancy(&self) -> [(&'static str, f64); 5] {
        let counts = member_counts(self.k(), &self.cluster_of);
        let (c1, c0) = self.partition();
        let occupied = |js: &[u32]| js.iter().filter(|&&j| counts[j as usize] > 0).count() as f64;
        let largest = counts.iter().copied().max().unwrap_or(0) as f64;
        let share = largest / self.cluster_of.len().max(1) as f64;
        [
            ("occupied", occupied(&c1) + occupied(&c0)),
            ("largest_share", share),
            ("c1", c1.len() as f64),
            ("c0", c0.len() as f64),
            ("c0_occupied", occupied(&c0)),
        ]
    }
}

/// Number of regions per cluster.
fn member_counts(k: usize, cluster_of: &[u32]) -> Vec<usize> {
    let mut counts = vec![0usize; k];
    for &j in cluster_of {
        counts[j as usize] += 1;
    }
    counts
}

/// The mean-pooling `B̃ᵀ` of `cluster_of` as a K×N sparse matrix: row `j`
/// holds `1/|cluster_j|` at its member columns, in ascending region order
/// (an empty cluster's row is empty).
///
/// Eq. 10 of the paper is a raw sum over cluster members; at hundreds of
/// regions per cluster the summed representations are ~|cluster|× larger
/// than region representations, saturating downstream activations and
/// collapsing eq. 13's fusion. The per-cluster `1/|cluster|` scale is
/// absorbable by `W_h` in exact arithmetic, so mean pooling is
/// mathematically equivalent up to reparameterization while keeping f32
/// training stable (see DESIGN.md §3).
fn cluster_mean(k: usize, cluster_of: &[u32]) -> Arc<CsrPair> {
    let counts = member_counts(k, cluster_of);
    let coo = cluster_of
        .iter()
        .enumerate()
        .map(|(i, &j)| (j, i as u32, 1.0 / counts[j as usize] as f32))
        .collect();
    CsrPair::new(Csr::from_coo(k, cluster_of.len(), coo))
}

/// Output of a GSCM forward pass.
pub struct GscmOut {
    /// Updated cluster representations `h'` (K×d).
    pub h_prime: NodeId,
    /// Global-aware region representation `x̃^g` (N×d).
    pub x_global: NodeId,
}

/// The GSCM module.
pub struct Gscm {
    /// Assignment transform `W_B` (eq. 9).
    w_b: Linear,
    /// Learnable complete-graph edge weights `e_{ij}` (eq. 11).
    e: ParamRef,
    /// Cluster transform `W_h` (eq. 11).
    w_h: Linear,
    /// Reverse-sharing transform `W_r` (eq. 12).
    w_r: Linear,
    pub k: usize,
    pub tau: f32,
    pub collection: CollectionMode,
    act: Activation,
}

impl Gscm {
    /// `d` is the region representation dimensionality; cluster
    /// representations keep the same width.
    pub fn new(name: &str, d: usize, k: usize, tau: f32, rng: &mut Rng64) -> Self {
        Gscm {
            w_b: Linear::new_no_bias(&format!("{name}.w_b"), d, k, rng),
            e: ParamRef::new(format!("{name}.e"), glorot_uniform(k, k, rng)),
            w_h: Linear::new(&format!("{name}.w_h"), d, d, rng),
            w_r: Linear::new(&format!("{name}.w_r"), d, d, rng),
            k,
            tau,
            collection: CollectionMode::HardMean,
            act: Activation::LeakyRelu(0.2),
        }
    }

    /// Compute the soft assignment matrix `B` for the current representation
    /// (eq. 9), as a graph node.
    pub fn assignment(&self, g: &mut Graph, x_tilde: NodeId) -> NodeId {
        let logits = self.w_b.forward(g, x_tilde);
        g.softmax_rows(logits, self.tau)
    }

    /// Freeze the assignment of `x̃` (Algorithm 1 line 11): `B` (eq. 9),
    /// its row argmax as the cluster ids of `B̃`, and the cluster pseudo
    /// labels of the training split (eq. 16).
    pub fn freeze(
        &self,
        g: &mut Graph,
        x_tilde: NodeId,
        labeled: &[u32],
        y: &[f32],
        train_idx: &[usize],
    ) -> FixedAssignment {
        let b = self.assignment(g, x_tilde);
        let b_soft = g.value(b).clone();
        let cluster_of = b_soft.argmax_rows();
        let pseudo = self.pseudo_labels(&cluster_of, labeled, y, train_idx);
        FixedAssignment {
            b_soft,
            pseudo,
            cluster_of,
        }
    }

    /// Full forward pass. When `fixed` is provided (slave stage), the
    /// assignment is constant; otherwise `B` is computed from `x_tilde`
    /// (master stage) as a recorded op, and `B̃` once from its value at
    /// record time, so a replayed master tape keeps the record-time `B̃`
    /// (DESIGN.md §3).
    pub fn forward(
        &self,
        g: &mut Graph,
        x_tilde: NodeId,
        fixed: Option<&FixedAssignment>,
    ) -> GscmOut {
        let b_soft = match fixed {
            Some(f) => g.constant(f.b_soft.clone()),
            None => self.assignment(g, x_tilde),
        };
        // eq. 10: h_j = mean of x̃_i over cluster j (constant weights), or
        // the soft differentiable collection in the design ablation.
        let h0 = match self.collection {
            CollectionMode::HardMean => {
                let pool = match fixed {
                    Some(f) => cluster_mean(self.k, &f.cluster_of),
                    None => cluster_mean(self.k, &g.value(b_soft).argmax_rows()),
                };
                g.spmm(pool, x_tilde) // K×d
            }
            CollectionMode::Soft => {
                let bt = g.transpose(b_soft);
                let sum = g.matmul(bt, x_tilde);
                let n = g.value(x_tilde).rows().max(1);
                g.scale(sum, self.k as f32 / n as f32)
            }
        };
        // eq. 11: h'_i = σ(Σ_j e_ij W_h h_j) — complete graph with learnable
        // edge weights.
        let e = g.param(&self.e);
        let mixed = g.matmul(e, h0);
        let hw = self.w_h.forward(g, mixed);
        let h_prime = self.act.apply(g, hw);
        // eq. 12: x̃^g_i = σ(Σ_j B_ij W_r h'_j) — soft assignment.
        let hr = self.w_r.forward(g, h_prime);
        let shared = g.matmul(b_soft, hr);
        let x_global = self.act.apply(g, shared);
        GscmOut { h_prime, x_global }
    }

    /// Cluster pseudo labels from region labels (eq. 16): a cluster is
    /// positive iff it contains at least one *known* (training) UV region.
    pub fn pseudo_labels(
        &self,
        cluster_of: &[u32],
        labeled: &[u32],
        y: &[f32],
        train_idx: &[usize],
    ) -> Vec<f32> {
        let mut pseudo = vec![0.0f32; self.k];
        for &ti in train_idx {
            if y[ti] > 0.5 {
                let region = labeled[ti] as usize;
                pseudo[cluster_of[region] as usize] = 1.0;
            }
        }
        pseudo
    }

    pub fn collect_params(&self, set: &mut ParamSet) {
        self.w_b.collect_params(set);
        set.track(self.e.clone());
        self.w_h.collect_params(set);
        self.w_r.collect_params(set);
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended in these tests: they assert
    // exact constants and bit-reproducible results, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;
    use uvd_tensor::init::{normal_matrix, seeded_rng};
    use uvd_tensor::par;

    #[test]
    fn assignment_rows_are_distributions() {
        let mut rng = seeded_rng(1);
        let gscm = Gscm::new("g", 6, 4, 0.5, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(normal_matrix(10, 6, 0.0, 1.0, &mut rng));
        let b = gscm.assignment(&mut g, x);
        let bv = g.value(b);
        assert_eq!(bv.shape(), (10, 4));
        for r in 0..10 {
            let s: f32 = bv.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    /// `(row, col, value)` non-zeros of a CSR, in storage order.
    fn entries(csr: &Csr) -> Vec<(usize, u32, f32)> {
        (0..csr.rows())
            .flat_map(|r| csr.row_iter(r).map(move |(c, v)| (r, c, v)))
            .collect()
    }

    #[test]
    fn binarize_is_mean_pooling() {
        // Regions 0 and 2 both land in cluster 1; region 1 in cluster 0.
        let b = Matrix::from_rows(&[
            &[0.1, 0.7, 0.1, 0.1],
            &[0.4, 0.3, 0.2, 0.1],
            &[0.0, 0.9, 0.05, 0.05],
        ]);
        let arg = b.argmax_rows();
        assert_eq!(arg, vec![1, 0, 1]);
        let pool = cluster_mean(4, &arg);
        assert_eq!((pool.fwd.rows(), pool.fwd.cols()), (4, 3));
        // Cluster 1 has two members -> weights 1/2 each; cluster 0 one -> 1;
        // clusters 2 and 3 are empty rows.
        assert_eq!(
            entries(&pool.fwd),
            vec![(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5)]
        );
    }

    /// The dense `B̃ᵀ` (K×N) the sparse collection replaces: row `j` holds
    /// `1/|cluster_j|` at its member columns.
    fn dense_pool(k: usize, cluster_of: &[u32]) -> Matrix {
        let counts = member_counts(k, cluster_of);
        let mut bt = Matrix::zeros(k, cluster_of.len());
        for (i, &j) in cluster_of.iter().enumerate() {
            bt.set(j as usize, i, 1.0 / counts[j as usize] as f32);
        }
        bt
    }

    /// The sparse collection is bitwise the dense `B̃ᵀ·X` it replaces: its
    /// forward against `matmul` and its `x` gradient against `matmul_tn`,
    /// at 1, 2 and 7 threads.
    #[test]
    fn cluster_mean_matches_dense_product() {
        let mut rng = seeded_rng(7);
        // (k, d, cluster_of): an empty cluster (2) and a singleton (3);
        // K > N; and a size large enough for spmm to run parallel.
        let large: Vec<u32> = (0..2048u32).map(|i| (i * 7 + i / 5) % 8).collect();
        let cases = [
            (4, 5, vec![0, 1, 0, 3, 1, 0]),
            (9, 3, vec![8, 2, 2, 5]),
            (8, 64, large),
        ];
        for (k, d, cluster_of) in cases {
            let n = cluster_of.len();
            let x = normal_matrix(n, d, 0.0, 1.0, &mut rng);
            let dh = normal_matrix(k, d, 0.0, 1.0, &mut rng);
            let bt = dense_pool(k, &cluster_of);
            for threads in [1, 2, 7] {
                par::with_threads(threads, || {
                    let mut g = Graph::new();
                    let xn = g.variable(x.clone());
                    let h = g.spmm(cluster_mean(k, &cluster_of), xn);
                    let c = g.constant(dh.clone());
                    let weighted = g.mul(h, c);
                    let loss = g.sum_all(weighted);
                    g.backward(loss);
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(g.value(h)),
                        bits(&bt.matmul(&x)),
                        "forward k{k} n{n} t{threads}"
                    );
                    let dx = g.grad(xn).expect("x gradient");
                    assert_eq!(
                        bits(dx),
                        bits(&bt.matmul_tn(&dh)),
                        "x grad k{k} n{n} t{threads}"
                    );
                });
            }
        }
    }

    #[test]
    fn forward_shapes_live_and_fixed() {
        let mut rng = seeded_rng(3);
        let gscm = Gscm::new("g", 6, 4, 0.5, &mut rng);
        let x = normal_matrix(10, 6, 0.0, 1.0, &mut rng);
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let out = gscm.forward(&mut g, xn, None);
        assert_eq!(g.value(out.h_prime).shape(), (4, 6));
        assert_eq!(g.value(out.x_global).shape(), (10, 6));

        let fixed = gscm.freeze(&mut g, xn, &[], &[], &[]);
        let mut g2 = Graph::new();
        let xn2 = g2.constant(x);
        let out2 = gscm.forward(&mut g2, xn2, Some(&fixed));
        // Frozen at the same x̃, the fixed path reproduces the live one.
        assert_eq!(g2.value(out2.x_global), g.value(out.x_global));
    }

    #[test]
    fn pseudo_labels_only_from_training_positives() {
        let mut rng = seeded_rng(4);
        let gscm = Gscm::new("g", 6, 3, 0.5, &mut rng);
        // regions 0..4; clusters: r0,r1 -> c0; r2 -> c1; r3 -> c2.
        let cluster_of = vec![0u32, 0, 1, 2];
        let labeled = vec![0u32, 2, 3];
        let y = vec![1.0, 1.0, 0.0];
        // Only the first labeled sample is in the training split.
        let pseudo = gscm.pseudo_labels(&cluster_of, &labeled, &y, &[0]);
        assert_eq!(pseudo, vec![1.0, 0.0, 0.0]);
        // Both positives in training: clusters 0 and 1 become positive.
        let pseudo2 = gscm.pseudo_labels(&cluster_of, &labeled, &y, &[0, 1, 2]);
        assert_eq!(pseudo2, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn partition_splits_clusters() {
        let fixed = FixedAssignment {
            b_soft: Matrix::zeros(1, 3),
            pseudo: vec![1.0, 0.0, 1.0],
            cluster_of: vec![0],
        };
        let (c1, c0) = fixed.partition();
        assert_eq!(c1, vec![0, 2]);
        assert_eq!(c0, vec![1]);
    }

    #[test]
    fn occupancy_counts_members_and_c0() {
        // Clusters 0 (three regions, positive) and 2 (one region); 1 and 3
        // are empty, so C₀ = {1, 2, 3} has one occupied cluster.
        let fixed = FixedAssignment {
            b_soft: Matrix::zeros(4, 4),
            pseudo: vec![1.0, 0.0, 0.0, 0.0],
            cluster_of: vec![0, 0, 2, 0],
        };
        assert_eq!(
            fixed.occupancy(),
            [
                ("occupied", 2.0),
                ("largest_share", 0.75),
                ("c1", 1.0),
                ("c0", 3.0),
                ("c0_occupied", 1.0),
            ]
        );
    }

    #[test]
    fn induced_assignment_rebalances_hard_weights() {
        // 5 regions: clusters [0, 1, 1, 0, 2]; restrict to nodes {0, 1, 2}.
        let b_soft = Matrix::from_rows(&[
            &[0.8, 0.1, 0.1],
            &[0.1, 0.8, 0.1],
            &[0.2, 0.7, 0.1],
            &[0.6, 0.3, 0.1],
            &[0.1, 0.2, 0.7],
        ]);
        let fixed = FixedAssignment {
            b_soft: b_soft.clone(),
            pseudo: vec![1.0, 0.0, 1.0],
            cluster_of: vec![0, 1, 1, 0, 2],
        };
        let sub = fixed.induced(&[0, 1, 2]);
        assert_eq!(sub.cluster_of, vec![0, 1, 1]);
        assert_eq!(sub.pseudo, fixed.pseudo, "pseudo labels are global");
        assert_eq!(sub.b_soft.shape(), (3, 3));
        assert_eq!(sub.b_soft.row(2), b_soft.row(2), "rows gathered verbatim");
        // The batch's cluster means run over `cluster ∩ batch`: cluster 0
        // has one member in the batch, cluster 1 two, cluster 2 none.
        assert_eq!(member_counts(sub.k(), &sub.cluster_of), vec![1, 2, 0]);
        assert_eq!(
            entries(&cluster_mean(sub.k(), &sub.cluster_of).fwd),
            vec![(0, 0, 1.0), (1, 1, 0.5), (1, 2, 0.5)]
        );
    }

    #[test]
    fn soft_collection_gradient_reaches_assignment() {
        // With soft collection, gradients flow through B into W_B even on
        // the regions→clusters path (the hard path blocks it by design).
        let mut rng = seeded_rng(6);
        let mut gscm = Gscm::new("g", 6, 4, 0.5, &mut rng);
        gscm.collection = CollectionMode::Soft;
        let mut g = Graph::new();
        let x = g.constant(normal_matrix(10, 6, 0.0, 1.0, &mut rng));
        let out = gscm.forward(&mut g, x, None);
        // Take the loss from h' only: the hard path would give W_B no
        // gradient here, the soft path must.
        let sq = g.mul(out.h_prime, out.h_prime);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads();
        let mut set = ParamSet::new();
        gscm.collect_params(&mut set);
        let w_b_grad: f32 = set
            .iter()
            .filter(|p| p.name().contains("w_b"))
            .map(|p| p.grad().frob_norm())
            .sum();
        assert!(w_b_grad > 0.0, "soft collection must propagate into W_B");
    }

    #[test]
    fn gradient_flows_through_hierarchy() {
        let mut rng = seeded_rng(5);
        let gscm = Gscm::new("g", 6, 4, 0.5, &mut rng);
        let mut g = Graph::new();
        let x = g.variable(normal_matrix(10, 6, 0.0, 1.0, &mut rng));
        let out = gscm.forward(&mut g, x, None);
        let sq = g.mul(out.x_global, out.x_global);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads();
        let mut set = ParamSet::new();
        gscm.collect_params(&mut set);
        assert!(set.grad_norm() > 0.0);
        // The input regions also receive gradient (for upstream MAGA).
        assert!(g.grad(x).is_some());
    }
}
