//! Define-by-run recording facade over the replayable [`Plan`] engine.
//!
//! A [`Graph`] is a define-by-run Wengert list: every operation computes its
//! value eagerly and records an op node. [`Graph::backward`] walks the tape
//! in reverse, accumulating gradients. Trainable [`ParamRef`]s bound via
//! [`Graph::param`] receive their gradients through [`Graph::write_grads`].
//!
//! Since the Plan/Workspace split (DESIGN.md §7) this type is a thin shim:
//! recording pushes an op into an internal [`Plan`] and executes it into a
//! preallocated [`Workspace`] buffer via the same `exec_forward` used by
//! replay. Training loops record a graph **once** and call
//! [`Graph::replay`] each epoch (parameter leaves are refreshed from their
//! `ParamRef`s; constants keep their recorded values); steady-state epochs
//! perform zero heap allocation in forward + backward. Inference paths use
//! [`Graph::inference`], which never allocates gradient buffers.
//!
//! Besides the usual dense ops, the tape has graph-learning primitives needed
//! by the paper: `gather_rows`, per-destination `edge_softmax`, the fused GAT
//! score-to-weight chain (`edge_attention`), attention aggregation
//! (`edge_aggregate`), constant-sparse matmul (`spmm`) for GCN, a
//! `gated_matmul` implementing the MS-Gate parameter filter (eq. 21), and
//! im2col convolution / max pooling for the CNN baselines.

use crate::conv::{ConvMeta, PoolMeta};
use crate::matrix::Matrix;
use crate::param::ParamRef;
use crate::plan::{exec_forward, FusedAct, Op, Plan, Workspace};
use crate::sparse::EdgeIndex;
use std::sync::Arc;

pub use crate::plan::{CsrPair, NodeId};

/// Tape-growth telemetry: nodes pushed during recording (uvd_obs counter;
/// a single relaxed load when tracing is off).
static RECORD_NODES: uvd_obs::Counter = uvd_obs::Counter::new("tensor.plan.record_nodes");

/// Define-by-run autodiff tape (recording facade over [`Plan`]).
#[derive(Default)]
pub struct Graph {
    plan: Plan,
    ws: Workspace,
    inference: bool,
    /// Cached `1×1` unit seed so repeated [`Graph::backward`] calls stay
    /// allocation-free in the steady state.
    unit_seed: Option<Matrix>,
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph for forward-only execution: recording works as usual, but
    /// gradient buffers are never allocated and [`Graph::backward`] panics.
    /// Used by all `predict`/`predict_proba` paths.
    pub fn inference() -> Self {
        Graph {
            inference: true,
            ..Self::default()
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The recorded op topology.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The buffer arena backing this graph.
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Split into the raw plan + workspace, for callers migrating off the
    /// shim to drive replay/backward directly.
    pub fn into_parts(self) -> (Plan, Workspace) {
        (self.plan, self.ws)
    }

    /// Total bytes held in this graph's value/gradient buffers.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Bytes held by cached RHS panel packs (a subset of
    /// [`Graph::workspace_bytes`]).
    pub fn pack_bytes(&self) -> usize {
        self.ws.pack_bytes()
    }

    /// Re-execute the recorded forward pass in place: parameter leaves are
    /// refreshed from their [`ParamRef`]s, every other node is recomputed
    /// into its existing buffer. No heap allocation.
    pub fn replay(&mut self) {
        self.plan.replay(&mut self.ws);
    }

    fn push_value(&mut self, op: Op, value: Matrix) -> NodeId {
        RECORD_NODES.add(1);
        let id = NodeId::from_index(self.plan.len());
        let needs = crate::plan::op_needs_grad(&op, &self.plan.needs_grad);
        let fused = crate::plan::fused_scratch_len(&op, value.len());
        self.plan.fused_scratch_len = self.plan.fused_scratch_len.max(fused);
        // Leaves start as pack-cacheable constants; `param` (refreshed every
        // replay) demotes itself, `set_value` invalidates the cached pack.
        self.plan.const_leaf.push(matches!(op, Op::Leaf));
        self.plan.ops.push(op);
        self.plan.needs_grad.push(needs);
        self.ws.values.push(value);
        self.ws.packs.push(Default::default());
        self.ws.packs_a.push(Default::default());
        self.ws.aux.push(Vec::new());
        id
    }

    /// Handle for the `i`-th recorded node (record order). Useful when
    /// correlating nodes across two recordings of the same computation.
    pub fn node(&self, i: usize) -> NodeId {
        assert!(i < self.plan.len(), "node index out of range");
        NodeId::from_index(i)
    }

    /// Record an op with a preallocated `rows × cols` output and execute it
    /// immediately (the same executor replay uses, so record and replay are
    /// bit-identical by construction).
    fn record(&mut self, op: Op, rows: usize, cols: usize) -> NodeId {
        let id = self.push_value(op, Matrix::zeros(rows, cols));
        exec_forward(&self.plan, &mut self.ws, id.idx());
        // Non-finite outputs are deliberately tolerated here — divergence is
        // reported as a typed error at the loss, not a panic inside an op
        // (see Plan::first_non_finite for localization).
        id
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        self.ws.value(id)
    }

    /// Scalar value of a 1×1 node.
    pub fn scalar(&self, id: NodeId) -> f32 {
        let v = self.value(id);
        assert_eq!(v.shape(), (1, 1), "scalar() on non-scalar node");
        v.get(0, 0)
    }

    /// Gradient of a node (after `backward`), if it received one. Nodes with
    /// no parameter or [`Graph::variable`] leaf in their ancestry are pruned
    /// from the backward pass and always report `None`.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.ws.grad(id)
    }

    /// True when the value of `id` holds only finite elements. Cheap guard
    /// for loss nodes before an optimizer step.
    pub fn all_finite(&self, id: NodeId) -> bool {
        self.ws.all_finite(id)
    }

    /// First non-leaf node holding a non-finite value, with its non-finite
    /// element count (see [`Plan::first_non_finite`]).
    pub fn first_non_finite(&self) -> Option<(NodeId, usize)> {
        self.plan.first_non_finite(&self.ws)
    }

    // ----- leaves -------------------------------------------------------

    /// Constant leaf. Constants do not request a gradient: the backward pass
    /// prunes every branch that reaches only constants, and [`Graph::grad`]
    /// reports `None` for them. Use [`Graph::variable`] to track the
    /// gradient of a non-parameter input.
    pub fn constant(&mut self, m: Matrix) -> NodeId {
        self.push_value(Op::Leaf, m)
    }

    /// Grad-tracking leaf: like [`Graph::constant`] but its gradient (and
    /// those of every node on a path to it) is computed by `backward` and
    /// readable via [`Graph::grad`].
    pub fn variable(&mut self, m: Matrix) -> NodeId {
        let id = self.push_value(Op::Leaf, m);
        self.plan.needs_grad[id.idx()] = true;
        id
    }

    /// Overwrite a leaf's value in place (same shape), e.g. to feed new
    /// inputs into a recorded inference plan before [`Graph::replay`].
    pub fn set_value(&mut self, id: NodeId, m: &Matrix) {
        assert!(
            matches!(self.plan.ops[id.idx()], Op::Leaf),
            "set_value targets a leaf"
        );
        let dst = &mut self.ws.values[id.idx()];
        assert_eq!(dst.shape(), m.shape(), "set_value shape mismatch");
        dst.as_mut_slice().copy_from_slice(m.as_slice());
        // Cached packs of this leaf (RHS panels, conv-kernel LHS panels) no
        // longer match its value.
        self.ws.packs[id.idx()].stamp = crate::gemm::NEVER;
        self.ws.packs_a[id.idx()].stamp = crate::gemm::NEVER;
    }

    /// Bind a trainable parameter; its gradient is delivered by
    /// [`Graph::write_grads`].
    pub fn param(&mut self, p: &ParamRef) -> NodeId {
        let id = self.push_value(Op::Leaf, p.value().clone());
        self.plan.needs_grad[id.idx()] = true;
        // Parameter leaves stay pack-cacheable constants: replay compares
        // the parameter's value version against the workspace's last-seen
        // stamp and invalidates the cached pack only on change. Training
        // still repacks once per optimizer step; frozen-weight inference
        // tapes keep their packs for the plan's lifetime.
        self.plan.param_links.push((id, p.clone()));
        id
    }

    // ----- dense ops ----------------------------------------------------

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, n) = (self.value(a).rows(), self.value(b).cols());
        self.record(Op::MatMul(a, b), m, n)
    }

    /// `act(a * b + bias)` as one fused node: bit-identical to the unfused
    /// `matmul` → `add_row` → activation sequence, without materializing the
    /// two intermediates. `FusedAct::LeakyRelu` requires a non-negative
    /// slope (the fused backward recovers the mask from the output sign).
    pub fn matmul_bias_act(&mut self, a: NodeId, b: NodeId, bias: NodeId, act: FusedAct) -> NodeId {
        let (m, k) = self.value(a).shape();
        let (kb, n) = self.value(b).shape();
        assert_eq!(k, kb, "matmul_bias_act: {m}x{k} * {kb}x{n}");
        assert_eq!(self.value(bias).shape(), (1, n), "matmul_bias_act bias");
        if let FusedAct::LeakyRelu(slope) = act {
            assert!(slope >= 0.0, "matmul_bias_act: negative LeakyRelu slope");
        }
        self.record(Op::MatMulBiasAct(a, b, bias, act), m, n)
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Add(a, b), m, n)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Sub(a, b), m, n)
    }

    /// Hadamard (elementwise) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Mul(a, b), m, n)
    }

    /// Broadcast add of a `1×n` row to every row of an `m×n` matrix.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(row).shape(), (1, n), "add_row shape");
        self.record(Op::AddRow(a, row), m, n)
    }

    /// Broadcast multiply of a `1×n` row against every row of an `m×n` matrix.
    pub fn mul_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(row).shape(), (1, n), "mul_row shape");
        self.record(Op::MulRow(a, row), m, n)
    }

    /// Broadcast multiply of an `m×1` column against every column of an
    /// `m×n` matrix.
    pub fn mul_col(&mut self, a: NodeId, col: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(col).shape(), (m, 1), "mul_col shape");
        self.record(Op::MulCol(a, col), m, n)
    }

    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Scale(a, s), m, n)
    }

    pub fn add_scalar(&mut self, a: NodeId, s: f32) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::AddScalar(a, s), m, n)
    }

    // ----- activations --------------------------------------------------

    pub fn leaky_relu(&mut self, a: NodeId, slope: f32) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::LeakyRelu(a, slope), m, n)
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.leaky_relu(a, 0.0)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Sigmoid(a), m, n)
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Tanh(a), m, n)
    }

    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Exp(a), m, n)
    }

    /// Natural log with an epsilon floor for stability: `ln(x + eps)`.
    pub fn ln_eps(&mut self, a: NodeId, eps: f32) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::LnEps(a, eps), m, n)
    }

    /// Row-wise softmax with temperature: `softmax(x / tau)`.
    pub fn softmax_rows(&mut self, a: NodeId, tau: f32) -> NodeId {
        assert!(tau > 0.0, "softmax temperature must be positive");
        let (m, n) = self.value(a).shape();
        self.record(Op::SoftmaxRows(a, tau), m, n)
    }

    // ----- shape ops ----------------------------------------------------

    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, ca) = self.value(a).shape();
        let (mb, cb) = self.value(b).shape();
        assert_eq!(m, mb, "concat_cols row mismatch");
        self.record(Op::ConcatCols(a, b), m, ca + cb)
    }

    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let (m, n) = self.value(a).shape();
        assert!(start <= end && end <= n, "slice_cols out of range");
        self.record(Op::SliceCols(a, start, end), m, end - start)
    }

    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let (m, n) = self.value(a).shape();
        self.record(Op::Transpose(a), n, m)
    }

    // ----- reductions ---------------------------------------------------

    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        self.record(Op::SumAll(a), 1, 1)
    }

    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        self.record(Op::MeanAll(a), 1, 1)
    }

    /// Sum each row: `m×n -> m×1`.
    pub fn row_sum(&mut self, a: NodeId) -> NodeId {
        let (m, _) = self.value(a).shape();
        self.record(Op::RowSum(a), m, 1)
    }

    // ----- graph-learning primitives -------------------------------------

    /// Gather rows of `a` by index: `out[i] = a[idx[i]]`.
    pub fn gather_rows(&mut self, a: NodeId, idx: Arc<Vec<u32>>) -> NodeId {
        let n = self.value(a).cols();
        let rows = idx.len();
        self.record(Op::GatherRows(a, idx), rows, n)
    }

    /// Constant-sparse × dense product (GCN propagation step).
    pub fn spmm(&mut self, a: Arc<CsrPair>, x: NodeId) -> NodeId {
        let (m, n) = (a.fwd.rows(), self.value(x).cols());
        self.record(Op::SpMM(a, x), m, n)
    }

    /// Softmax of per-edge scores (`E×1`), normalized within each group of
    /// edges sharing a destination node (eq. 3 / eq. 7 of the paper).
    pub fn edge_softmax(&mut self, scores: NodeId, edges: Arc<EdgeIndex>) -> NodeId {
        assert_eq!(
            self.value(scores).shape(),
            (edges.n_edges(), 1),
            "edge_softmax shape"
        );
        let e = edges.n_edges();
        self.record(Op::EdgeSoftmax(scores, edges), e, 1)
    }

    /// GAT attention weights (eqs. 3 / 7) as one node:
    /// `alpha = edge_softmax(leaky_relu(s_dst[dst] + s_src[src]))` with
    /// `s_dst = h_dst · a_dst` and `s_src = h_src · a_src` (`N×1` each).
    /// Bitwise equal, value and gradients, to recording that chain from
    /// `matmul`, `gather_rows`, `add`, `leaky_relu` and `edge_softmax`
    /// (DESIGN §7), without its five `E`-length intermediates.
    pub fn edge_attention(
        &mut self,
        h_dst: NodeId,
        h_src: NodeId,
        a_dst: NodeId,
        a_src: NodeId,
        slope: f32,
        edges: Arc<EdgeIndex>,
    ) -> NodeId {
        for (h, a) in [(h_dst, a_dst), (h_src, a_src)] {
            let (n, d) = self.value(h).shape();
            assert_eq!(n, edges.n_nodes(), "edge_attention h rows");
            assert_eq!(self.value(a).shape(), (d, 1), "edge_attention a shape");
        }
        let e = edges.n_edges();
        self.record(
            Op::EdgeAttention(h_dst, h_src, a_dst, a_src, slope, edges),
            e,
            1,
        )
    }

    /// Attention aggregation (eq. 2 / eq. 6): `out[dst] += alpha_e * h[src]`.
    pub fn edge_aggregate(&mut self, alpha: NodeId, h: NodeId, edges: Arc<EdgeIndex>) -> NodeId {
        assert_eq!(
            self.value(alpha).shape(),
            (edges.n_edges(), 1),
            "edge_aggregate alpha shape"
        );
        assert_eq!(
            self.value(h).rows(),
            edges.n_nodes(),
            "edge_aggregate h shape"
        );
        let (m, d) = (edges.n_nodes(), self.value(h).cols());
        self.record(Op::EdgeAggregate(alpha, h, edges), m, d)
    }

    /// MS-Gate gated linear map (eqs. 20–22):
    /// `z[i,k] = Σ_d x[i,d] · w[d,k] · f[i, d*h + k]`, where `f` is the
    /// per-sample parameter filter over the flattened weight matrix.
    pub fn gated_matmul(&mut self, x: NodeId, w: NodeId, f: NodeId) -> NodeId {
        let (n, d) = self.value(x).shape();
        let (dw, h) = self.value(w).shape();
        assert_eq!(d, dw, "gated_matmul inner dims");
        assert_eq!(
            self.value(f).shape(),
            (n, d * h),
            "gated_matmul filter shape"
        );
        self.record(Op::GatedMatMul(x, w, f), n, h)
    }

    /// Pairwise differences `out[i,j] = a[i] - b[j]` for column vectors
    /// (used by the PU rank loss, eq. 18).
    pub fn sub_outer(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, ca) = self.value(a).shape();
        let (n, cb) = self.value(b).shape();
        assert_eq!((ca, cb), (1, 1), "sub_outer expects column vectors");
        self.record(Op::SubOuter(a, b), m, n)
    }

    /// Numerically stable weighted binary cross-entropy with logits
    /// (eq. 15 / eq. 23). Returns a `1×1` node with the weighted mean loss;
    /// weights typically mask to the labeled region set.
    pub fn bce_with_logits(
        &mut self,
        logits: NodeId,
        targets: Arc<Vec<f32>>,
        weights: Arc<Vec<f32>>,
    ) -> NodeId {
        let z = self.value(logits);
        assert_eq!(z.cols(), 1, "bce expects a column of logits");
        assert_eq!(z.rows(), targets.len(), "bce target count");
        assert_eq!(z.rows(), weights.len(), "bce weight count");
        self.record(Op::BceWithLogits(logits, targets, weights), 1, 1)
    }

    // ----- convolution ----------------------------------------------------

    /// Batched 2-D convolution via im2col. `x` is `n × (c_in*h*w)`, `kernel`
    /// is `c_out × (c_in*k*k)`; output is `n × (c_out*h_out*w_out)`.
    pub fn conv2d(&mut self, x: NodeId, kernel: NodeId, meta: ConvMeta) -> NodeId {
        let xm = self.value(x);
        assert_eq!(xm.cols(), meta.in_len(), "conv2d input length");
        assert_eq!(
            self.value(kernel).shape(),
            meta.kernel_shape(),
            "conv2d kernel shape"
        );
        let n = xm.rows();
        let out_len = meta.out_len();
        self.record(Op::Conv2d(x, kernel, meta), n, out_len)
    }

    /// Add a per-channel bias (`1×channels`) to a conv output laid out as
    /// `n × (channels*hw)`.
    pub fn add_chan_bias(&mut self, a: NodeId, bias: NodeId, channels: usize, hw: usize) -> NodeId {
        let (n, len) = self.value(a).shape();
        assert_eq!(len, channels * hw, "add_chan_bias layout");
        assert_eq!(
            self.value(bias).shape(),
            (1, channels),
            "add_chan_bias bias shape"
        );
        self.record(Op::AddChanBias(a, bias, channels, hw), n, len)
    }

    /// Batched 2×2/stride-2 max pooling.
    pub fn max_pool2(&mut self, x: NodeId, meta: PoolMeta) -> NodeId {
        let xm = self.value(x);
        assert_eq!(xm.cols(), meta.in_len(), "max_pool2 input length");
        let n = xm.rows();
        let out_len = meta.out_len();
        self.record(Op::MaxPool2(x, meta), n, out_len)
    }

    // ----- compound helpers ----------------------------------------------

    /// Mean squared error between two same-shape nodes, as a scalar node.
    pub fn mse(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let d = self.sub(a, b);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    // ----- backward -------------------------------------------------------

    /// Reverse pass from `root` (must be `1×1`). Gradients are stored in the
    /// workspace and can be read with [`Graph::grad`].
    pub fn backward(&mut self, root: NodeId) {
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward root must be scalar"
        );
        let seed = self
            .unit_seed
            .take()
            .unwrap_or_else(|| Matrix::filled(1, 1, 1.0));
        assert!(!self.inference, "backward on an inference graph");
        self.plan.backward(&mut self.ws, root, &seed);
        self.unit_seed = Some(seed);
    }

    /// Reverse pass with an explicit seed gradient for `root`.
    pub fn backward_seeded(&mut self, root: NodeId, seed: Matrix) {
        assert!(!self.inference, "backward on an inference graph");
        self.plan.backward(&mut self.ws, root, &seed);
    }

    /// Copy gradients of bound parameters back into their [`ParamRef`]s
    /// (accumulating). Call after [`Graph::backward`].
    pub fn write_grads(&self) {
        self.plan.write_grads(&self.ws);
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended in these tests: they assert
    // exact constants and bit-reproducible results, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn backward_through_matmul_chain() {
        // loss = sum(A * B); dA = 1 * B^T, dB = A^T * 1.
        let mut g = Graph::new();
        let a = g.variable(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.variable(Matrix::from_rows(&[&[5.0], &[6.0]]));
        let y = g.matmul(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        let da = g.grad(a).unwrap();
        assert_eq!(da, &Matrix::from_rows(&[&[5.0, 6.0], &[5.0, 6.0]]));
        let db = g.grad(b).unwrap();
        assert_eq!(db, &Matrix::from_rows(&[&[4.0], &[6.0]]));
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // loss = sum(x * x) -> dx = 2x.
        let mut g = Graph::new();
        let x = g.variable(Matrix::from_rows(&[&[3.0]]));
        let y = g.mul(x, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().get(0, 0), 6.0);
    }

    #[test]
    fn bce_gradient_is_sigmoid_minus_target() {
        let mut g = Graph::new();
        let z = g.variable(Matrix::col_vec(&[0.0, 2.0]));
        let loss = g.bce_with_logits(z, Arc::new(vec![1.0, 0.0]), Arc::new(vec![1.0, 1.0]));
        g.backward(loss);
        let dz = g.grad(z).unwrap();
        assert!((dz.get(0, 0) - (0.5 - 1.0) / 2.0).abs() < 1e-5);
        let p2 = 1.0 / (1.0 + (-2.0f32).exp());
        assert!((dz.get(1, 0) - (p2 - 0.0) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn edge_softmax_normalizes_incoming() {
        let edges = Arc::new(EdgeIndex::from_pairs(3, vec![(0, 2), (1, 2), (2, 0)]));
        let mut g = Graph::new();
        // Edges are sorted by destination: edge 0 is (2,0); edges 1,2 are
        // (0,2) and (1,2). Give node 2's two incoming edges equal scores.
        let s = g.constant(Matrix::col_vec(&[3.0, 1.0, 1.0]));
        let a = g.edge_softmax(s, edges.clone());
        let v = g.value(a);
        // Node 0 has one incoming edge -> alpha = 1.
        let e0 = edges.incoming(0).next().unwrap();
        assert!((v.get(e0, 0) - 1.0).abs() < 1e-6);
        // Node 2 has two equal-score incoming edges -> 0.5 each.
        for e in edges.incoming(2) {
            assert!((v.get(e, 0) - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn write_grads_reaches_params() {
        let p = ParamRef::new("w", Matrix::filled(1, 1, 2.0));
        let mut g = Graph::new();
        let w = g.param(&p);
        let y = g.mul(w, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        g.write_grads();
        assert_eq!(p.grad().get(0, 0), 4.0);
    }

    #[test]
    fn replay_refreshes_params_and_matches_fresh_tape() {
        let p = ParamRef::new("w", Matrix::filled(1, 1, 2.0));
        let mut g = Graph::new();
        let w = g.param(&p);
        let c = g.constant(Matrix::filled(1, 1, 3.0));
        let y = g.mul(w, c);
        assert_eq!(g.scalar(y), 6.0);
        // Update the parameter out-of-band, then replay.
        p.value_mut().set(0, 0, 5.0);
        g.replay();
        assert_eq!(g.scalar(y), 15.0);
        // Backward still works against replayed values.
        g.backward(y);
        assert_eq!(g.grad(w).unwrap().get(0, 0), 3.0);
    }

    #[test]
    fn constants_prune_gradients_but_params_still_flow() {
        let p = ParamRef::new("w", Matrix::filled(1, 1, 2.0));
        let mut g = Graph::new();
        let x = g.constant(Matrix::filled(1, 1, 3.0));
        let scaled = g.scale(x, 2.0); // constant-only subtree: pruned
        let w = g.param(&p);
        let y = g.mul(scaled, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!(g.grad(x).is_none(), "constant leaf gradient must be pruned");
        assert!(g.grad(scaled).is_none(), "constant subtree must be pruned");
        assert_eq!(g.grad(w).unwrap().get(0, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "backward on an inference graph")]
    fn inference_graph_rejects_backward() {
        let mut g = Graph::inference();
        let x = g.constant(Matrix::filled(1, 1, 1.0));
        let y = g.mul(x, x);
        g.backward(y);
    }

    #[test]
    fn set_value_feeds_new_inputs_through_replay() {
        let mut g = Graph::inference();
        let x = g.constant(Matrix::filled(2, 1, 1.0));
        let y = g.scale(x, 2.0);
        g.set_value(x, &Matrix::filled(2, 1, 4.0));
        g.replay();
        assert_eq!(g.value(y).get(0, 0), 8.0);
    }
}
