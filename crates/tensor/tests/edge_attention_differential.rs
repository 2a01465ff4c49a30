//! Differential test for the fused `Graph::edge_attention` op.
//!
//! A GAT head's attention weights used to be recorded as seven nodes:
//! `h_dst·a_dst`, `h_src·a_src`, a `gather_rows` of each by edge
//! destination / source, `add`, `leaky_relu` and `edge_softmax`. The fused
//! op must reproduce that chain **bit for bit** — the weights, and after an
//! `edge_aggregate` + loss the gradients of `h_dst`, `h_src`, `a_dst` and
//! `a_src` — because the CMSF training pins were recorded through the chain.
//! Both sides share the tiered projections, so they agree on every ISA and
//! fast-math tier; `scripts/check.sh` runs this file under
//! `UVD_GEMM_ISA=scalar|avx2` and `UVD_FAST_MATH=1`.
//!
//! Cases: an intra head (`h_src == h_dst`, so the aggregate and both
//! projections accumulate into one gradient) and a cross head, on a small
//! graph with an isolated node and a single-edge node and on a graph large
//! enough that the edge loops and the projections dispatch to the pool, at
//! 1, 2 and 7 threads. Each tape is also replayed on new inputs, so the
//! op's carried projections are checked on reuse, not only at record time.

use rand::RngCore;
use std::sync::Arc;
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{par, EdgeIndex, Graph, Matrix, NodeId};

const SLOPE: f32 = 0.2;

/// Node `n-1` is isolated (no edge in or out); node 0 receives exactly one
/// edge; the rest get ragged in-degrees, duplicate sources included.
fn edges(n: usize, deg: usize, seed: u64) -> Arc<EdgeIndex> {
    let mut rng = seeded_rng(seed);
    let mut pairs = vec![(1u32, 0u32)];
    for d in 1..n - 1 {
        let k = 1 + (rng.next_u64() as usize) % (2 * deg - 1);
        for _ in 0..k {
            let s = (rng.next_u64() % (n as u64 - 1)) as u32;
            pairs.push((s, d as u32));
        }
    }
    Arc::new(EdgeIndex::from_pairs(n, pairs))
}

/// The operands of one head: `h_dst`, `h_src` (absent for an intra head),
/// `a_dst`, `a_src`.
struct Inputs {
    h_dst: Matrix,
    h_src: Option<Matrix>,
    a_dst: Matrix,
    a_src: Matrix,
}

impl Inputs {
    fn new(n: usize, d: usize, cross: bool, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        let h_dst = normal_matrix(n, d, 0.0, 1.0, &mut rng);
        let h_src = cross.then(|| normal_matrix(n, d, 0.0, 1.0, &mut rng));
        Inputs {
            h_dst,
            h_src,
            a_dst: normal_matrix(d, 1, 0.0, 0.5, &mut rng),
            a_src: normal_matrix(d, 1, 0.0, 0.5, &mut rng),
        }
    }

    fn leaves(&self) -> Vec<&Matrix> {
        let mut v = vec![&self.h_dst];
        v.extend(&self.h_src);
        v.extend([&self.a_dst, &self.a_src]);
        v
    }
}

/// One recorded head: attention weights, a loss over the aggregate, and
/// the leaves in [`Inputs::leaves`] order.
struct Head {
    g: Graph,
    alpha: NodeId,
    loss: NodeId,
    leaves: Vec<NodeId>,
}

impl Head {
    fn record(inp: &Inputs, edges: &Arc<EdgeIndex>, fused: bool) -> Self {
        let mut g = Graph::new();
        let leaves: Vec<NodeId> = inp
            .leaves()
            .into_iter()
            .map(|m| g.variable(m.clone()))
            .collect();
        let (h_dst, a_dst, a_src) = (
            leaves[0],
            leaves[leaves.len() - 2],
            leaves[leaves.len() - 1],
        );
        let h_src = if inp.h_src.is_some() {
            leaves[1]
        } else {
            h_dst
        };
        let alpha = if fused {
            g.edge_attention(h_dst, h_src, a_dst, a_src, SLOPE, edges.clone())
        } else {
            let s_dst = g.matmul(h_dst, a_dst);
            let s_src = g.matmul(h_src, a_src);
            let s_d = g.gather_rows(s_dst, Arc::new(edges.dst().to_vec()));
            let s_s = g.gather_rows(s_src, Arc::new(edges.src().to_vec()));
            let scores = g.add(s_d, s_s);
            let scores = g.leaky_relu(scores, SLOPE);
            g.edge_softmax(scores, edges.clone())
        };
        let agg = g.edge_aggregate(alpha, h_src, edges.clone());
        let act = g.leaky_relu(agg, SLOPE);
        let sq = g.mul(act, act);
        let loss = g.mean_all(sq);
        Head {
            g,
            alpha,
            loss,
            leaves,
        }
    }

    /// Feed new leaf values and replay the recorded tape.
    fn replay_on(&mut self, inp: &Inputs) {
        for (&id, m) in self.leaves.iter().zip(inp.leaves()) {
            self.g.set_value(id, m);
        }
        self.g.replay();
    }

    /// Backward, then the bits of α, the loss and every leaf gradient.
    fn bits(&mut self) -> Vec<Vec<u32>> {
        self.g.backward(self.loss);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut out = vec![
            bits(self.g.value(self.alpha)),
            bits(self.g.value(self.loss)),
        ];
        for &id in &self.leaves {
            out.push(bits(self.g.grad(id).expect("leaf gradient")));
        }
        out
    }
}

fn assert_fused_matches_chain(n: usize, d: usize, deg: usize, cross: bool, seed: u64) {
    let edges = edges(n, deg, seed);
    let first = Inputs::new(n, d, cross, seed ^ 0xA77);
    let second = Inputs::new(n, d, cross, seed ^ 0xB88);
    let names = ["alpha", "loss", "h_dst", "h_src", "a_dst", "a_src"];
    let names: Vec<&str> = names
        .iter()
        .copied()
        .filter(|&s| cross || s != "h_src")
        .collect();
    for threads in [1, 2, 7] {
        par::with_threads(threads, || {
            let mut chain = Head::record(&first, &edges, false);
            let mut fused = Head::record(&first, &edges, true);
            assert_eq!(fused.g.len() + 6, chain.g.len(), "seven nodes become one");
            for (pass, inp) in [("record", None), ("replay", Some(&second))] {
                if let Some(inp) = inp {
                    chain.replay_on(inp);
                    fused.replay_on(inp);
                }
                let (c, f) = (chain.bits(), fused.bits());
                for ((name, cb), fb) in names.iter().zip(&c).zip(&f) {
                    assert!(
                        cb == fb,
                        "{name} differs ({pass}, cross={cross}, n={n}, threads={threads})"
                    );
                }
            }
        });
    }
}

#[test]
fn fused_intra_head_matches_chain_bitwise() {
    assert_fused_matches_chain(9, 5, 2, false, 1);
    assert_fused_matches_chain(3000, 24, 6, false, 2);
}

#[test]
fn fused_cross_head_matches_chain_bitwise() {
    assert_fused_matches_chain(9, 5, 2, true, 3);
    assert_fused_matches_chain(3000, 24, 6, true, 4);
}

#[test]
fn isolated_and_single_edge_nodes_are_well_defined() {
    let edges = edges(9, 2, 5);
    assert_eq!(edges.in_degree(0), 1);
    assert_eq!(edges.in_degree(8), 0);
    assert!(!edges.src().contains(&8), "node 8 must be isolated");
    let inp = Inputs::new(9, 5, true, 6);
    let mut head = Head::record(&inp, &edges, true);
    let e0 = edges.incoming(0).start;
    assert_eq!(
        head.g.value(head.alpha).get(e0, 0).to_bits(),
        1.0f32.to_bits()
    );
    head.g.backward(head.loss);
    // The isolated node's `h_dst` row gets no gradient through attention.
    let dh = head.g.grad(head.leaves[0]).unwrap();
    assert!(dh.row(8).iter().all(|&v| v.to_bits() == 0));
}
