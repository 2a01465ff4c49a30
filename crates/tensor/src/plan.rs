//! Replayable execution plan + reusable workspace for the autodiff tape.
//!
//! A [`Plan`] is the *topology* of a recorded tape: the op list, constant
//! attachments (CSR pairs, edge indices, gather index vectors, BCE
//! target/weight vectors) and parameter bindings. A [`Workspace`] is the
//! *storage*: one preallocated value buffer per node plus (lazily) one
//! gradient buffer per node, a `seen` bitmap and a shared accumulation
//! scratch. Build the plan once per (model, split), then replay it across
//! epochs: steady-state forward + backward touches no allocator.
//!
//! Invariants the whole module leans on:
//!
//! * **Tape order** — every op's inputs have a smaller node id than its
//!   output, so `values.split_at_mut(i)` yields all inputs (head) and the
//!   output (first of tail) without aliasing.
//! * **Single writer per buffer** — each node's value buffer is written only
//!   by its own op; each gradient buffer only through [`contribute`] /
//!   [`merge_owned`], which serialize accumulation.
//! * **Reduction order unchanged** — every in-place kernel reduces in exactly
//!   the order of the old allocate-per-op code (fresh-compute-into-zeroed
//!   buffer on first contribution, compute-into-zeroed-scratch-then-add on
//!   later ones), so a replayed epoch is bit-identical to a freshly recorded
//!   tape.
//! * **Needs-grad pruning is invisible to parameters** — a contribution is
//!   only skipped when its target has no parameter/variable leaf in its
//!   ancestry, so no pruned gradient could ever have reached a `ParamRef`.
//!   Parameter gradients and losses are bit-identical with pruning on.
//!
//! Exception to zero allocation: the conv ops (`Conv2d`, `MaxPool2`) keep
//! their per-sample im2col scratch and backward temporaries; they are only
//! used by the CNN baselines, not by CMSF training.

use crate::conv::{
    conv2d_backward_dk_to, conv2d_backward_dx_to, maxpool2_backward_batch, maxpool2_batch_to,
    ConvMeta, PoolMeta,
};
use crate::gemm::{self, PackedB};
use crate::matrix::Matrix;
use crate::par;
use crate::param::ParamRef;
use crate::sparse::{Csr, EdgeIndex};
use std::sync::{Arc, OnceLock};

/// Handle to a node in the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    pub(crate) fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }

    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }

    /// Position of this node in its tape (nodes are numbered in record
    /// order, so this doubles as a stable cross-engine identifier).
    pub fn index(self) -> usize {
        self.idx()
    }
}

/// A constant sparse matrix together with its lazily-built transpose (the
/// transpose is only needed by the backward pass of `spmm`, so it is built on
/// first backward use and cached in the plan — inference/no-grad plans never
/// pay for it, and a plan replayed over many epochs pays it exactly once).
#[derive(Clone, Debug)]
pub struct CsrPair {
    pub fwd: Csr,
    bwd: OnceLock<Csr>,
}

impl CsrPair {
    pub fn new(csr: Csr) -> Arc<Self> {
        Arc::new(CsrPair {
            fwd: csr,
            bwd: OnceLock::new(),
        })
    }

    /// Transpose of `fwd`, built on first call and cached for the lifetime
    /// of the pair (i.e. of every plan holding it).
    pub fn bwd(&self) -> &Csr {
        self.bwd.get_or_init(|| self.fwd.transpose())
    }
}

/// Activation fused into a [`Op::MatMulBiasAct`] node. Each variant applies
/// exactly the elementwise expression of the corresponding standalone op, so
/// fusing is bitwise invisible to the numerics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FusedAct {
    Identity,
    /// `x > 0 ? x : slope * x`. The fused backward re-derives the mask from
    /// the *output* sign, which matches the input-sign mask iff
    /// `slope >= 0` — callers must not fuse negative slopes.
    LeakyRelu(f32),
    Tanh,
    Sigmoid,
}

/// The elementwise activation of a [`FusedAct`], exactly the standalone
/// op's expression: `MatMulBiasAct` applies it to `x + bias`,
/// `EdgeAttention` (LeakyRelu) to each edge score.
#[inline]
fn fused_act_apply(act: FusedAct, x: f32) -> f32 {
    match act {
        FusedAct::Identity => x,
        FusedAct::LeakyRelu(slope) => {
            if x > 0.0 {
                x
            } else {
                slope * x
            }
        }
        FusedAct::Tanh => x.tanh(),
        FusedAct::Sigmoid => 1.0 / (1.0 + (-x).exp()),
    }
}

/// One recorded tape operation. Every scalar attribute an op needs to
/// recompute its value is stored here, so a plan can be replayed without the
/// recording context.
#[derive(Clone)]
pub(crate) enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    /// `act(a * b + bias)` as one node: one matmul into the output buffer,
    /// then bias-add and activation applied in place. Element chains are
    /// exactly those of the unfused `MatMul → AddRow → activation` sequence,
    /// so fusion is bitwise invisible; it saves two intermediate buffers and
    /// two full passes over them per replay.
    MatMulBiasAct(NodeId, NodeId, NodeId, FusedAct),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    MulRow(NodeId, NodeId),
    MulCol(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId, f32),
    LeakyRelu(NodeId, f32),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Exp(NodeId),
    LnEps(NodeId, f32),
    SoftmaxRows(NodeId, f32),
    ConcatCols(NodeId, NodeId),
    SliceCols(NodeId, usize, usize),
    Transpose(NodeId),
    SumAll(NodeId),
    MeanAll(NodeId),
    RowSum(NodeId),
    GatherRows(NodeId, Arc<Vec<u32>>),
    SpMM(Arc<CsrPair>, NodeId),
    EdgeSoftmax(NodeId, Arc<EdgeIndex>),
    EdgeAggregate(NodeId, NodeId, Arc<EdgeIndex>),
    /// GAT attention weights `(h_dst, h_src, a_dst, a_src, slope, edges)`:
    /// `edge_softmax(leaky_relu(gather(h_dst·a_dst, dst) + gather(h_src·a_src,
    /// src)))` as one node, bitwise equal to that seven-node chain (DESIGN
    /// §7). The two `N×1` projections live in the node's `Workspace::aux`
    /// slot between forward and backward.
    EdgeAttention(NodeId, NodeId, NodeId, NodeId, f32, Arc<EdgeIndex>),
    GatedMatMul(NodeId, NodeId, NodeId),
    SubOuter(NodeId, NodeId),
    BceWithLogits(NodeId, Arc<Vec<f32>>, Arc<Vec<f32>>),
    Conv2d(NodeId, NodeId, ConvMeta),
    AddChanBias(NodeId, NodeId, usize, usize),
    MaxPool2(NodeId, PoolMeta),
}

/// Recorded op topology + parameter bindings; replayable any number of times
/// against a [`Workspace`].
#[derive(Default)]
pub struct Plan {
    pub(crate) ops: Vec<Op>,
    pub(crate) param_links: Vec<(NodeId, ParamRef)>,
    /// `needs_grad[i]` is true when node `i`'s ancestry contains a parameter
    /// or grad-tracking variable leaf. The backward pass prunes every
    /// contribution into a node that doesn't: such a gradient can never reach
    /// a parameter, so computing it is pure waste (e.g. d loss / d x_features
    /// for a constant feature matrix).
    pub(crate) needs_grad: Vec<bool>,
    /// `const_leaf[i]` is true when node `i` is a leaf whose value can only
    /// change through an explicit `set_value` (not a parameter refresh).
    /// Matmul RHS packs of such leaves are packed once and kept for the
    /// lifetime of the plan; non-constant operands repack once per replay
    /// epoch.
    pub(crate) const_leaf: Vec<bool>,
    /// Floats of `Workspace::fused_scratch` the fused ops' backward needs,
    /// the maximum of [`fused_scratch_len`] over the recorded ops. Kept at
    /// record time so a backward pass never scans the op list for it.
    pub(crate) fused_scratch_len: usize,
}

/// Backward scratch one op takes from `Workspace::fused_scratch`, given its
/// output length: `MatMulBiasAct`'s `dz`; `EdgeAttention`'s per-edge score
/// gradient plus the two per-node projection gradients.
pub(crate) fn fused_scratch_len(op: &Op, out_len: usize) -> usize {
    match op {
        Op::MatMulBiasAct(..) => out_len,
        Op::EdgeAttention(.., edges) => out_len + 2 * edges.n_nodes(),
        _ => 0,
    }
}

/// Whether an op's output lies on a path from a parameter/variable leaf,
/// given the flags of all earlier nodes (tape order guarantees inputs have
/// smaller ids).
pub(crate) fn op_needs_grad(op: &Op, needs: &[bool]) -> bool {
    match op {
        Op::Leaf => false,
        Op::MatMul(a, b)
        | Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Mul(a, b)
        | Op::AddRow(a, b)
        | Op::MulRow(a, b)
        | Op::MulCol(a, b)
        | Op::ConcatCols(a, b)
        | Op::SubOuter(a, b)
        | Op::Conv2d(a, b, _)
        | Op::AddChanBias(a, b, _, _)
        | Op::EdgeAggregate(a, b, _) => needs[a.idx()] || needs[b.idx()],
        Op::MatMulBiasAct(a, b, bias, _) => needs[a.idx()] || needs[b.idx()] || needs[bias.idx()],
        Op::GatedMatMul(x, w, f) => needs[x.idx()] || needs[w.idx()] || needs[f.idx()],
        Op::EdgeAttention(hd, hs, ad, as_, _, _) => {
            [hd, hs, ad, as_].iter().any(|id| needs[id.idx()])
        }
        Op::Scale(a, _)
        | Op::AddScalar(a, _)
        | Op::LeakyRelu(a, _)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Exp(a)
        | Op::LnEps(a, _)
        | Op::SoftmaxRows(a, _)
        | Op::SliceCols(a, _, _)
        | Op::Transpose(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::RowSum(a)
        | Op::GatherRows(a, _)
        | Op::SpMM(_, a)
        | Op::EdgeSoftmax(a, _)
        | Op::BceWithLogits(a, _, _)
        | Op::MaxPool2(a, _) => needs[a.idx()],
    }
}

/// Arena of per-node value/gradient buffers reused across replays.
#[derive(Default)]
pub struct Workspace {
    pub(crate) values: Vec<Matrix>,
    pub(crate) grads: Vec<Matrix>,
    pub(crate) seen: Vec<bool>,
    pub(crate) scratch: Vec<f32>,
    /// One RHS panel-pack slot per node, keyed by the node id of a matmul's
    /// RHS operand (so several matmuls sharing one weight share one pack).
    /// Stamps encode validity: constant leaves keep their pack for the
    /// plan's lifetime, anything else repacks once per replay epoch.
    pub(crate) packs: Vec<PackedB>,
    /// LHS panel-pack slots, keyed by the node id of a conv kernel operand
    /// (the kernel is the LHS of every per-sample im2col product). Kept
    /// separate from [`Workspace::packs`] because a node could serve as both
    /// a matmul RHS and a conv kernel, and the two pack layouts differ.
    pub(crate) packs_a: Vec<PackedB>,
    /// Replay counter backing the pack stamps; bumped at each replay start.
    pub(crate) epoch: u64,
    /// Last-seen [`crate::ParamRef`] value versions, aligned with
    /// `Plan::param_links`. A replay refreshes a parameter leaf (memcpy +
    /// pack invalidation) only when its version moved — inference tapes
    /// whose parameters never change skip both entirely and their packs
    /// stay persistent.
    pub(crate) param_versions: Vec<u64>,
    /// Scratch for the fused ops' backward: `MatMulBiasAct`'s
    /// `dz = dy ⊙ act'(y)`, `EdgeAttention`'s score and projection
    /// gradients. Distinct from `scratch`, which [`contribute`] zeroes for
    /// second contributions while these must stay live across all of them.
    /// Sized from [`Plan::fused_scratch_len`].
    pub(crate) fused_scratch: Vec<f32>,
    /// Per-node op state carried from forward to backward, empty for every
    /// op but `EdgeAttention` (its `s_dst ‖ s_src` projections). Sized when
    /// the op first executes, i.e. at record time.
    pub(crate) aux: Vec<Vec<f32>>,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Value buffer of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.values[id.idx()]
    }

    /// Gradient of a node if the last backward pass reached it.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        if *self.seen.get(id.idx())? {
            Some(&self.grads[id.idx()])
        } else {
            None
        }
    }

    /// Total bytes held in value/gradient/scratch/pack buffers.
    pub fn bytes(&self) -> usize {
        let vals: usize = self.values.iter().map(|m| m.len() * 4).sum();
        let grads: usize = self.grads.iter().map(|m| m.len() * 4).sum();
        let scratch = (self.scratch.len() + self.fused_scratch.len()) * 4;
        let aux: usize = self.aux.iter().map(|a| a.len() * 4).sum();
        vals + grads + scratch + aux + self.pack_bytes() + self.seen.len()
    }

    /// Bytes held by the cached matmul RHS panel packs (part of
    /// [`Workspace::bytes`], broken out so tests can account for the value
    /// arena and the pack cache separately).
    pub fn pack_bytes(&self) -> usize {
        let rhs: usize = self.packs.iter().map(|p| p.buf.len() * 4).sum();
        let lhs: usize = self.packs_a.iter().map(|p| p.buf.len() * 4).sum();
        rhs + lhs
    }

    /// True when the value buffer of `id` holds only finite elements.
    pub fn all_finite(&self, id: NodeId) -> bool {
        !self.values[id.idx()].has_non_finite()
    }

    /// Number of NaN / infinite elements in the value buffer of `id`.
    pub fn count_non_finite(&self, id: NodeId) -> usize {
        self.values[id.idx()].count_non_finite()
    }

    /// Allocate (or re-fit) gradient buffers for the nodes the backward pass
    /// can reach: full-size for nodes on a parameter path (plus the root,
    /// which holds the seed), zero-size for pruned nodes. No-op when already
    /// sized — the steady-state path.
    fn ensure_grads(&mut self, needs: &[bool], root: usize, fused_len: usize) {
        let want = |i: usize, v: &Matrix| -> (usize, usize) {
            if needs[i] || i == root {
                v.shape()
            } else {
                (0, 0)
            }
        };
        let max_len = self.values.iter().map(|v| v.len()).max().unwrap_or(0);
        let fits = self.grads.len() == self.values.len()
            && self.fused_scratch.len() == fused_len
            && self
                .grads
                .iter()
                .zip(self.values.iter())
                .enumerate()
                .all(|(i, (g, v))| g.shape() == want(i, v));
        if !fits {
            self.grads = self
                .values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let (r, c) = want(i, v);
                    Matrix::zeros(r, c)
                })
                .collect();
            self.scratch = vec![0.0; max_len];
            self.fused_scratch = vec![0.0; fused_len];
        }
        if self.seen.len() != self.values.len() {
            self.seen = vec![false; self.values.len()];
        }
    }
}

impl Plan {
    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Re-execute the forward pass in place: refresh parameter leaves from
    /// their (possibly updated) `ParamRef`s, then run every op into its
    /// preallocated buffer. Constant leaves keep their recorded values.
    pub fn replay(&self, ws: &mut Workspace) {
        REPLAY_COUNT.add(1);
        assert_eq!(ws.values.len(), self.ops.len(), "workspace/plan mismatch");
        if ws.packs.len() != ws.values.len() {
            // Externally assembled workspaces may lack pack slots; recording
            // through `Graph` pushes them alongside each value.
            ws.packs.resize_with(ws.values.len(), PackedB::default);
        }
        if ws.packs_a.len() != ws.values.len() {
            ws.packs_a.resize_with(ws.values.len(), PackedB::default);
        }
        if ws.aux.len() != ws.values.len() {
            ws.aux.resize_with(ws.values.len(), Vec::new);
        }
        // Entering a new epoch invalidates the per-epoch pack stamps of
        // non-constant *computed* operands. Parameter leaves are version-
        // stamped instead: the refresh below copies a value and invalidates
        // its packs only when the parameter actually changed since the last
        // replay, so an inference tape with frozen weights repacks nothing.
        ws.epoch += 1;
        if ws.param_versions.len() != self.param_links.len() {
            ws.param_versions.resize(self.param_links.len(), 0);
        }
        for (i, (id, p)) in self.param_links.iter().enumerate() {
            let version = p.version();
            if ws.param_versions[i] == version {
                continue;
            }
            ws.param_versions[i] = version;
            let pv = p.value();
            let dst = &mut ws.values[id.idx()];
            assert_eq!(dst.shape(), pv.shape(), "param shape changed since record");
            dst.as_mut_slice().copy_from_slice(pv.as_slice());
            ws.packs[id.idx()].stamp = gemm::NEVER;
            ws.packs_a[id.idx()].stamp = gemm::NEVER;
        }
        for i in 0..self.ops.len() {
            exec_forward(self, ws, i);
        }
        // Non-finite values are NOT asserted away here: a diverging model
        // must surface as a typed, recoverable error at the loss (see
        // `FitError::NonFiniteLoss` in uvd-urg), never as a panic inside the
        // replay loop. Use [`Plan::first_non_finite`] to localize the op
        // that introduced a NaN/inf after detecting one downstream.
    }

    /// First non-leaf node whose value buffer holds a non-finite element,
    /// with its non-finite count — the op that introduced the divergence on
    /// the last forward pass. Diagnostic companion to a non-finite loss:
    /// callers that detect `NaN`/`inf` at the loss can localize the source
    /// without re-running under a debugger. Leaves are skipped because a
    /// caller-supplied constant is the caller's own input, not a kernel
    /// failure.
    pub fn first_non_finite(&self, ws: &Workspace) -> Option<(NodeId, usize)> {
        ws.values
            .iter()
            .enumerate()
            .filter(|&(i, _)| !matches!(self.ops.get(i), Some(Op::Leaf)))
            .find(|(_, v)| v.has_non_finite())
            .map(|(i, v)| (NodeId::from_index(i), v.count_non_finite()))
    }

    /// Reverse pass from `root` with an explicit seed gradient, entirely into
    /// the workspace's gradient arena.
    pub fn backward(&self, ws: &mut Workspace, root: NodeId, seed: &Matrix) {
        assert_eq!(
            ws.values[root.idx()].shape(),
            seed.shape(),
            "seed shape mismatch"
        );
        ws.ensure_grads(&self.needs_grad, root.idx(), self.fused_scratch_len);
        let Workspace {
            values,
            grads,
            seen,
            scratch,
            fused_scratch,
            aux,
            ..
        } = ws;
        seen.fill(false);
        grads[root.idx()]
            .as_mut_slice()
            .copy_from_slice(seed.as_slice());
        seen[root.idx()] = true;
        for id in (0..=root.idx()).rev() {
            if !seen[id] {
                continue;
            }
            let (gh, gt) = grads.split_at_mut(id);
            let dy = &gt[0];
            apply_backward(
                &self.ops[id],
                id,
                values,
                &aux[id],
                gh,
                dy,
                seen,
                scratch,
                fused_scratch,
                &self.needs_grad,
            );
        }
    }

    /// Copy gradients of bound parameters back into their [`ParamRef`]s
    /// (accumulating). Call after [`Plan::backward`].
    pub fn write_grads(&self, ws: &Workspace) {
        for (id, p) in &self.param_links {
            if let Some(g) = ws.grad(*id) {
                p.accumulate_grad(g);
            }
        }
    }
}

// ----- forward execution --------------------------------------------------

fn map_to(a: &Matrix, out: &mut Matrix, f: impl Fn(f32) -> f32) {
    for (o, &x) in out.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *o = f(x);
    }
}

fn zip_to(a: &Matrix, b: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.shape(), b.shape(), "zip shape mismatch");
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = f(x, y);
    }
}

/// Telemetry for the pack cache and the replay loop (uvd_obs counters; one
/// relaxed load each when tracing is off).
static REPLAY_COUNT: uvd_obs::Counter = uvd_obs::Counter::new("tensor.replay.count");
static PACK_HIT: uvd_obs::Counter = uvd_obs::Counter::new("gemm.pack_hit");
static PACK_REPACK: uvd_obs::Counter = uvd_obs::Counter::new("gemm.pack_repack");

/// Validate (or rebuild) the cached RHS pack for node `b`'s value. Constant
/// leaves get a persistent stamp; everything else stamps with the current
/// epoch so the next replay repacks exactly once, however many matmuls share
/// the operand. `Graph::set_value` resets the stamp to force a repack.
fn ensure_pack<'p>(slot: &'p mut PackedB, b: &Matrix, constant: bool, epoch: u64) -> &'p [f32] {
    let want = if constant {
        gemm::PERSISTENT
    } else {
        epoch + 1
    };
    if slot.stamp != want {
        PACK_REPACK.add(1);
        gemm::pack_b_into(b.as_slice(), b.rows(), b.cols(), false, &mut slot.buf);
        slot.stamp = want;
    } else {
        PACK_HIT.add(1);
    }
    &slot.buf
}

/// LHS twin of [`ensure_pack`] for conv kernel operands: same stamp
/// protocol, row-panel layout ([`gemm::pack_a_into`]).
fn ensure_pack_a<'p>(slot: &'p mut PackedB, a: &Matrix, constant: bool, epoch: u64) -> &'p [f32] {
    let want = if constant {
        gemm::PERSISTENT
    } else {
        epoch + 1
    };
    if slot.stamp != want {
        PACK_REPACK.add(1);
        gemm::pack_a_into(a.as_slice(), a.rows(), a.cols(), false, &mut slot.buf);
        slot.stamp = want;
    } else {
        PACK_HIT.add(1);
    }
    &slot.buf
}

/// Execute op `i` into its preallocated output buffer. Shared by recording
/// (which runs it immediately after pushing the op) and replay, so the two
/// paths are bit-identical by construction.
pub(crate) fn exec_forward(plan: &Plan, ws: &mut Workspace, i: usize) {
    let epoch = ws.epoch;
    let Workspace {
        values,
        packs,
        packs_a,
        aux,
        ..
    } = ws;
    let is_const = |id: NodeId| plan.const_leaf.get(id.idx()).copied().unwrap_or(false);
    // Tape invariant: all inputs of op `i` have node id < `i`.
    let (head, tail) = values.split_at_mut(i);
    let out = &mut tail[0];
    match &plan.ops[i] {
        Op::Leaf => {}
        Op::MatMul(a, b) => {
            out.as_mut_slice().fill(0.0);
            let bv = &head[b.idx()];
            let pack = ensure_pack(&mut packs[b.idx()], bv, is_const(*b), epoch);
            head[a.idx()].matmul_acc_cached(bv, pack, out.as_mut_slice());
        }
        Op::MatMulBiasAct(a, b, bias, act) => {
            out.as_mut_slice().fill(0.0);
            let bv = &head[b.idx()];
            let pack = ensure_pack(&mut packs[b.idx()], bv, is_const(*b), epoch);
            head[a.idx()].matmul_acc_cached(bv, pack, out.as_mut_slice());
            // In-place bias + activation: `act(x + bias)` element for
            // element, exactly the unfused AddRow → activation chain.
            let (act, biasv) = (*act, &head[bias.idx()]);
            let m = out.rows();
            for r in 0..m {
                let bias_row = biasv.row(0);
                for (o, &bx) in out.row_mut(r).iter_mut().zip(bias_row.iter()) {
                    *o = fused_act_apply(act, *o + bx);
                }
            }
        }
        Op::Add(a, b) => zip_to(&head[a.idx()], &head[b.idx()], out, |x, y| x + y),
        Op::Sub(a, b) => zip_to(&head[a.idx()], &head[b.idx()], out, |x, y| x - y),
        Op::Mul(a, b) => zip_to(&head[a.idx()], &head[b.idx()], out, |x, y| x * y),
        Op::AddRow(a, row) => {
            let (av, rv) = (&head[a.idx()], &head[row.idx()]);
            for r in 0..av.rows() {
                let rr = rv.row(0);
                for ((o, &x), &b) in out.row_mut(r).iter_mut().zip(av.row(r)).zip(rr) {
                    *o = x + b;
                }
            }
        }
        Op::MulRow(a, row) => {
            let (av, rv) = (&head[a.idx()], &head[row.idx()]);
            for r in 0..av.rows() {
                let rr = rv.row(0);
                for ((o, &x), &b) in out.row_mut(r).iter_mut().zip(av.row(r)).zip(rr) {
                    *o = x * b;
                }
            }
        }
        Op::MulCol(a, col) => {
            let (av, cv) = (&head[a.idx()], &head[col.idx()]);
            for r in 0..av.rows() {
                let c = cv.get(r, 0);
                for (o, &x) in out.row_mut(r).iter_mut().zip(av.row(r)) {
                    *o = x * c;
                }
            }
        }
        Op::Scale(a, s) => {
            let s = *s;
            map_to(&head[a.idx()], out, |x| x * s);
        }
        Op::AddScalar(a, s) => {
            let s = *s;
            map_to(&head[a.idx()], out, |x| x + s);
        }
        Op::LeakyRelu(a, slope) => {
            let slope = *slope;
            map_to(&head[a.idx()], out, |x| if x > 0.0 { x } else { slope * x });
        }
        Op::Sigmoid(a) => map_to(&head[a.idx()], out, |x| 1.0 / (1.0 + (-x).exp())),
        Op::Tanh(a) => map_to(&head[a.idx()], out, f32::tanh),
        Op::Exp(a) => map_to(&head[a.idx()], out, f32::exp),
        Op::LnEps(a, eps) => {
            let eps = *eps;
            map_to(&head[a.idx()], out, |x| (x + eps).ln());
        }
        Op::SoftmaxRows(a, tau) => head[a.idx()].softmax_rows_to(*tau, out.as_mut_slice()),
        Op::ConcatCols(a, b) => {
            let (av, bv) = (&head[a.idx()], &head[b.idx()]);
            let (ca, cols) = (av.cols(), av.cols() + bv.cols());
            for r in 0..av.rows() {
                let o = out.row_mut(r);
                o[..ca].copy_from_slice(av.row(r));
                o[ca..cols].copy_from_slice(bv.row(r));
            }
        }
        Op::SliceCols(a, start, end) => {
            let av = &head[a.idx()];
            for r in 0..av.rows() {
                out.row_mut(r).copy_from_slice(&av.row(r)[*start..*end]);
            }
        }
        Op::Transpose(a) => {
            let av = &head[a.idx()];
            let (m, n) = av.shape();
            let o = out.as_mut_slice();
            for r in 0..m {
                for c in 0..n {
                    o[c * m + r] = av.get(r, c);
                }
            }
        }
        Op::SumAll(a) => out.set(0, 0, head[a.idx()].sum()),
        Op::MeanAll(a) => out.set(0, 0, head[a.idx()].mean()),
        Op::RowSum(a) => {
            let av = &head[a.idx()];
            for r in 0..av.rows() {
                out.set(r, 0, av.row(r).iter().sum());
            }
        }
        Op::GatherRows(a, idx) => head[a.idx()].gather_rows_to(idx, out.as_mut_slice()),
        Op::SpMM(pair, x) => {
            // Overwrite entry: zero-seeded chains, bit-equal to the old
            // fill-then-accumulate pair without re-reading the output.
            pair.fwd.spmm_to(&head[x.idx()], out.as_mut_slice());
        }
        Op::EdgeSoftmax(scores, edges) => {
            edge_softmax_forward(&head[scores.idx()], edges, out.as_mut_slice());
        }
        Op::EdgeAttention(h_dst, h_src, a_dst, a_src, slope, edges) => {
            let n = edges.n_nodes();
            let s = &mut aux[i];
            // Sized on the first execution (recording); replay reuses it.
            s.resize(2 * n, 0.0);
            let (s_dst, s_src) = s.split_at_mut(n);
            // Each projection exactly as a `MatMul` node computes it.
            for (hn, an, sv) in [(h_dst, a_dst, s_dst), (h_src, a_src, s_src)] {
                sv.fill(0.0);
                head[hn.idx()].matmul_acc(&head[an.idx()], sv);
            }
            let (s_dst, s_src) = s.split_at(n);
            edge_attention_forward(s_dst, s_src, *slope, edges, out.as_mut_slice());
        }
        Op::EdgeAggregate(alpha, h, edges) => {
            out.as_mut_slice().fill(0.0);
            edge_aggregate_forward(
                &head[alpha.idx()],
                &head[h.idx()],
                edges,
                out.as_mut_slice(),
            );
        }
        Op::GatedMatMul(x, w, f) => {
            out.as_mut_slice().fill(0.0);
            gated_matmul_forward(
                &head[x.idx()],
                &head[w.idx()],
                &head[f.idx()],
                out.as_mut_slice(),
            );
        }
        Op::SubOuter(a, b) => {
            let (av, bv) = (&head[a.idx()], &head[b.idx()]);
            let (m, n) = (av.rows(), bv.rows());
            let o = out.as_mut_slice();
            for i in 0..m {
                let ai = av.get(i, 0);
                for j in 0..n {
                    o[i * n + j] = ai - bv.get(j, 0);
                }
            }
        }
        Op::BceWithLogits(logits, targets, weights) => {
            let z = &head[logits.idx()];
            let wsum: f32 = weights.iter().sum();
            let mut loss = 0.0f64;
            if wsum > 0.0 {
                for i in 0..targets.len() {
                    let zi = z.get(i, 0);
                    let li = zi.max(0.0) - zi * targets[i] + (1.0 + (-zi.abs()).exp()).ln();
                    loss += (weights[i] * li) as f64;
                }
                loss /= wsum as f64;
            }
            out.set(0, 0, loss as f32);
        }
        Op::Conv2d(x, kernel, meta) => {
            let kv = &head[kernel.idx()];
            assert_eq!(kv.shape(), meta.kernel_shape(), "conv2d kernel shape");
            // The kernel pack is cached in the workspace like matmul RHS
            // packs: constant kernels pack once for the plan's lifetime,
            // parameters repack once per epoch however many conv ops (or
            // replays of this op) share them.
            let pack = ensure_pack_a(&mut packs_a[kernel.idx()], kv, is_const(*kernel), epoch);
            crate::conv::conv2d_batch_prepacked_to(&head[x.idx()], pack, meta, out.as_mut_slice());
        }
        Op::AddChanBias(a, bias, channels, hw) => {
            let (av, bv) = (&head[a.idx()], &head[bias.idx()]);
            for i in 0..av.rows() {
                let (a_row, o_row) = (av.row(i), out.row_mut(i));
                for c in 0..*channels {
                    let b = bv.get(0, c);
                    for p in 0..*hw {
                        o_row[c * hw + p] = a_row[c * hw + p] + b;
                    }
                }
            }
        }
        Op::MaxPool2(x, meta) => maxpool2_batch_to(&head[x.idx()], meta, out.as_mut_slice()),
    }
}

/// Per-destination softmax of edge scores (every edge belongs to exactly one
/// non-empty destination group, so the whole output is overwritten).
fn edge_softmax_forward(s: &Matrix, edges: &EdgeIndex, out: &mut [f32]) {
    let dst_ptr = edges.dst_ptr();
    par::for_each_disjoint(
        out,
        edges.n_nodes(),
        edges.n_edges() * 8,
        |i| dst_ptr[i] as usize,
        |nodes, chunk| {
            let base = dst_ptr[nodes.start] as usize;
            for i in nodes {
                let range = edges.incoming(i);
                if range.is_empty() {
                    continue;
                }
                let mx = range
                    .clone()
                    .map(|e| s.get(e, 0))
                    .fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for e in range.clone() {
                    let x = (s.get(e, 0) - mx).exp();
                    chunk[e - base] = x;
                    sum += x;
                }
                for e in range {
                    chunk[e - base] /= sum;
                }
            }
        },
    );
}

/// Fused score chain of [`Op::EdgeAttention`]: per destination `i`, in edge
/// order, `x_e = LeakyReLU(s_dst[i] + s_src[src_e])`, then exactly
/// [`edge_softmax_forward`]'s max / exp / sum / divide over those scores.
/// `out` holds the scores until the softmax overwrites them.
fn edge_attention_forward(
    s_dst: &[f32],
    s_src: &[f32],
    slope: f32,
    edges: &EdgeIndex,
    out: &mut [f32],
) {
    let (dst_ptr, src) = (edges.dst_ptr(), edges.src());
    let leaky = FusedAct::LeakyRelu(slope);
    par::for_each_disjoint(
        out,
        edges.n_nodes(),
        edges.n_edges() * 8,
        |i| dst_ptr[i] as usize,
        |nodes, chunk| {
            let base = dst_ptr[nodes.start] as usize;
            for i in nodes {
                let range = edges.incoming(i);
                if range.is_empty() {
                    continue;
                }
                let x = &mut chunk[range.start - base..range.end - base];
                for (xe, &s) in x.iter_mut().zip(&src[range]) {
                    *xe = fused_act_apply(leaky, s_dst[i] + s_src[s as usize]);
                }
                let mx = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for xe in x.iter_mut() {
                    *xe = (*xe - mx).exp();
                    sum += *xe;
                }
                for xe in x.iter_mut() {
                    *xe /= sum;
                }
            }
        },
    );
}

/// Attention aggregation `out[dst] += alpha_e * h[src]` into a pre-zeroed
/// buffer. Destination rows partition across threads; each row reduces its
/// incoming edges in edge order (edges are dst-sorted), matching the serial
/// edge-loop accumulation order exactly.
fn edge_aggregate_forward(a: &Matrix, hm: &Matrix, edges: &EdgeIndex, out: &mut [f32]) {
    let d = hm.cols();
    par::for_each_row_block(out, d, edges.n_edges() * d * 2, |nodes, chunk| {
        for (ni, i) in nodes.enumerate() {
            let out_row = &mut chunk[ni * d..(ni + 1) * d];
            for e in edges.incoming(i) {
                let w = a.get(e, 0);
                let src = edges.src()[e] as usize;
                let src_row = &hm.as_slice()[src * d..(src + 1) * d];
                for (o, &x) in out_row.iter_mut().zip(src_row.iter()) {
                    *o += w * x;
                }
            }
        }
    });
}

/// MS-Gate gated linear map into a pre-zeroed buffer. Sample rows are
/// independent; the zero-skip stays because gated inputs are often sparse
/// activations, unlike the dense matmuls — removing it would also change
/// results whenever a skipped `w`/`f` entry is non-finite.
/// Standalone gated-matmul forward (`out[i][k] = Σ_d x[i][d]·w[d][k]·f[i][d·h+k]`)
/// into a caller-owned, fully overwritten buffer — the same kernel the
/// `Op::GatedMatMul` replay arm runs, exposed for benches and differential
/// tests that want to time or check it without recording a graph.
pub fn gated_matmul_into(xm: &Matrix, wm: &Matrix, fm: &Matrix, out: &mut [f32]) {
    let (n, _) = xm.shape();
    let h = wm.cols();
    assert_eq!(out.len(), n * h, "gated_matmul output buffer size");
    out.fill(0.0);
    gated_matmul_forward(xm, wm, fm, out);
}

fn gated_matmul_forward(xm: &Matrix, wm: &Matrix, fm: &Matrix, out: &mut [f32]) {
    let (n, d) = xm.shape();
    let h = wm.cols();
    // Resolve both tiers on the calling thread: the fast-math override is a
    // thread-local and would read as unset inside pool workers.
    let is = gemm::isa();
    let fmath = gemm::fast_math_active();
    par::for_each_row_block(out, h, n * d * h * 3, |rows, chunk| {
        for (ri, i) in rows.enumerate() {
            let x_row = xm.row(i);
            let f_row = fm.row(i);
            let out_row = &mut chunk[ri * h..(ri + 1) * h];
            gated_row_dispatch(is, fmath, x_row, wm, f_row, out_row, h);
        }
    });
}

/// Output-lane block width of the gated-matmul row kernel: one stack tile of
/// accumulators per block keeps the `h`-lane sums in registers across the
/// whole `d` sweep (CMSF uses `h = 16`, exactly one zmm on the AVX-512 tier
/// and two ymm on AVX2).
const GM_LANES: usize = 16;

#[inline]
fn gated_row_dispatch(
    is: gemm::Isa,
    fmath: bool,
    x_row: &[f32],
    wm: &Matrix,
    f_row: &[f32],
    out_row: &mut [f32],
    h: usize,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: each tier implies the matching CPU features; `fmath` is only
    // true when FMA was detected (`gemm::fast_math_active`).
    match is {
        gemm::Isa::Avx512 if fmath => {
            return unsafe { gated_row_avx512_fma(x_row, wm, f_row, out_row, h) }
        }
        gemm::Isa::Avx512 => return unsafe { gated_row_avx512(x_row, wm, f_row, out_row, h) },
        gemm::Isa::Avx2 if fmath => {
            return unsafe { gated_row_avx2_fma(x_row, wm, f_row, out_row, h) }
        }
        gemm::Isa::Avx2 => return unsafe { gated_row_avx2(x_row, wm, f_row, out_row, h) },
        gemm::Isa::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (is, fmath);
    // Scalar tier ignores fast-math: `mul_add` without hardware FMA takes a
    // libm detour that is slower, not faster (same policy as the GEMM tiers).
    gated_row_body::<false>(x_row, wm, f_row, out_row, h);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gated_row_avx2(x_row: &[f32], wm: &Matrix, f_row: &[f32], out_row: &mut [f32], h: usize) {
    gated_row_body::<false>(x_row, wm, f_row, out_row, h);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn gated_row_avx2_fma(x_row: &[f32], wm: &Matrix, f_row: &[f32], out_row: &mut [f32], h: usize) {
    gated_row_body::<true>(x_row, wm, f_row, out_row, h);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gated_row_avx512(x_row: &[f32], wm: &Matrix, f_row: &[f32], out_row: &mut [f32], h: usize) {
    gated_row_body::<false>(x_row, wm, f_row, out_row, h);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn gated_row_avx512_fma(x_row: &[f32], wm: &Matrix, f_row: &[f32], out_row: &mut [f32], h: usize) {
    gated_row_body::<true>(x_row, wm, f_row, out_row, h);
}

/// One sample row of the gated matmul: `out[k] += Σ_d x[d] * w[d][k] *
/// f[d*h+k]`, ascending `d` per lane with the zero-skip preserved — the
/// blocked accumulator tile only hoists each lane's chain out of memory, it
/// never reorders or drops a term. `FMA = true` (fast-math tier) fuses the
/// gate multiply into the accumulate, `(x·w)·f + acc` in one rounding; the
/// term order and the zero-skip are identical in both tiers.
#[inline(always)]
fn gated_row_body<const FMA: bool>(
    x_row: &[f32],
    wm: &Matrix,
    f_row: &[f32],
    out_row: &mut [f32],
    h: usize,
) {
    // `w[dd][k]` and `f[dd*h + k]` share the flat offset `dd*h + k`, so one
    // running base indexes both; the `&[f32; GM_LANES]` reborrows give the
    // vectorizer exact trip counts with no per-lane bounds checks.
    let w_all = wm.as_slice();
    let mut k0 = 0;
    while k0 + GM_LANES <= h {
        let mut acc = [0.0f32; GM_LANES];
        acc.copy_from_slice(&out_row[k0..k0 + GM_LANES]);
        let mut base = k0;
        for &xv in x_row {
            if xv != 0.0 {
                let w_seg: &[f32; GM_LANES] = w_all[base..base + GM_LANES].try_into().unwrap();
                let f_seg: &[f32; GM_LANES] = f_row[base..base + GM_LANES].try_into().unwrap();
                for j in 0..GM_LANES {
                    if FMA {
                        acc[j] = (xv * w_seg[j]).mul_add(f_seg[j], acc[j]);
                    } else {
                        acc[j] += xv * w_seg[j] * f_seg[j];
                    }
                }
            }
            base += h;
        }
        out_row[k0..k0 + GM_LANES].copy_from_slice(&acc);
        k0 += GM_LANES;
    }
    if k0 < h {
        for (dd, &xv) in x_row.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let w_row = wm.row(dd);
            let f_seg = &f_row[dd * h..(dd + 1) * h];
            for k in k0..h {
                if FMA {
                    out_row[k] = (xv * w_row[k]).mul_add(f_seg[k], out_row[k]);
                } else {
                    out_row[k] += xv * w_row[k] * f_seg[k];
                }
            }
        }
    }
}

// ----- backward execution -------------------------------------------------

/// Deliver one op's gradient contribution to target node `t` without
/// allocating. Contributions into pruned nodes (no parameter in their
/// ancestry, `!needs[t]`) are skipped entirely — the closure never runs.
/// First contribution: zero the grad buffer and compute into it (bit-equal
/// to the old fresh-compute-then-move). Later contributions: zero the shared
/// scratch, compute into it, then add elementwise (bit-equal to the old
/// fresh-compute-then-`add_assign`).
fn contribute(
    gh: &mut [Matrix],
    seen: &mut [bool],
    scratch: &mut [f32],
    needs: &[bool],
    t: usize,
    f: impl FnOnce(&mut [f32]),
) {
    if !needs[t] {
        return;
    }
    if !seen[t] {
        let buf = gh[t].as_mut_slice();
        buf.fill(0.0);
        f(buf);
        seen[t] = true;
    } else {
        let len = gh[t].len();
        let s = &mut scratch[..len];
        s.fill(0.0);
        f(s);
        for (g, &dv) in gh[t].as_mut_slice().iter_mut().zip(s.iter()) {
            *g += dv;
        }
    }
}

/// Merge an op-owned gradient matrix (conv backward still allocates its
/// temporaries) into the arena: copy on first contribution, add otherwise.
/// Pruned targets are skipped like in [`contribute`].
fn merge_owned(gh: &mut [Matrix], seen: &mut [bool], needs: &[bool], t: usize, m: &Matrix) {
    if !needs[t] {
        return;
    }
    if !seen[t] {
        gh[t].as_mut_slice().copy_from_slice(m.as_slice());
        seen[t] = true;
    } else {
        for (g, &dv) in gh[t].as_mut_slice().iter_mut().zip(m.as_slice()) {
            *g += dv;
        }
    }
}

/// Three disjoint `&mut` gradient buffers for strictly increasing indices.
fn disjoint3(gh: &mut [Matrix], i: usize, j: usize, k: usize) -> [&mut Matrix; 3] {
    debug_assert!(i < j && j < k && k < gh.len());
    let (left, rest) = gh.split_at_mut(j);
    let (mid, right) = rest.split_at_mut(k - j);
    [&mut left[i], &mut mid[0], &mut right[0]]
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn apply_backward(
    op: &Op,
    id: usize,
    values: &[Matrix],
    aux: &[f32],
    gh: &mut [Matrix],
    dy: &Matrix,
    seen: &mut [bool],
    scratch: &mut [f32],
    fused_scratch: &mut [f32],
    needs: &[bool],
) {
    match op {
        Op::Leaf => {}
        Op::MatMul(a, b) => {
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                dy.matmul_nt_to(bv, buf)
            });
            contribute(gh, seen, scratch, needs, b.idx(), |buf| {
                av.matmul_tn_acc(dy, buf)
            });
        }
        Op::MatMulBiasAct(a, b, bias, act) => {
            let y = &values[id];
            let (m, n) = y.shape();
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            let k = av.cols();
            // dz = dy ⊙ act'(·) — the gradient at the pre-bias product.
            // Sigmoid/Tanh derivatives come from the output exactly as the
            // standalone ops' backward; LeakyRelu re-derives the input-sign
            // mask from the output, valid because fused slopes are >= 0.
            let dz = &mut fused_scratch[..m * n];
            match act {
                FusedAct::Identity => dz.copy_from_slice(dy.as_slice()),
                FusedAct::LeakyRelu(slope) => {
                    for ((o, &yv), &g) in dz.iter_mut().zip(y.as_slice()).zip(dy.as_slice()) {
                        *o = if yv > 0.0 { g } else { slope * g };
                    }
                }
                FusedAct::Tanh => {
                    for ((o, &yv), &g) in dz.iter_mut().zip(y.as_slice()).zip(dy.as_slice()) {
                        *o = g * (1.0 - yv * yv);
                    }
                }
                FusedAct::Sigmoid => {
                    for ((o, &yv), &g) in dz.iter_mut().zip(y.as_slice()).zip(dy.as_slice()) {
                        *o = g * yv * (1.0 - yv);
                    }
                }
            }
            let dz = &*dz;
            // Contribution order matches the unfused op sequence (the AddRow
            // arm delivers before the MatMul arm): bias, then a, then b.
            contribute(gh, seen, scratch, needs, bias.idx(), |buf| {
                for r in 0..m {
                    for (o, &g) in buf[..n].iter_mut().zip(dz[r * n..(r + 1) * n].iter()) {
                        *o += g;
                    }
                }
            });
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                // da = dz · b^T, overwrite semantics like `matmul_nt_to`.
                gemm::matmul_into(dz, bv.as_slice(), buf, m, n, k, false, true, false);
            });
            contribute(gh, seen, scratch, needs, b.idx(), |buf| {
                // db = a^T · dz, accumulate-into-zeroed like `matmul_tn_acc`.
                gemm::matmul_into(av.as_slice(), dz, buf, k, m, n, true, false, true);
            });
        }
        Op::Add(a, b) => {
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                buf.copy_from_slice(dy.as_slice());
            });
            contribute(gh, seen, scratch, needs, b.idx(), |buf| {
                buf.copy_from_slice(dy.as_slice());
            });
        }
        Op::Sub(a, b) => {
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                buf.copy_from_slice(dy.as_slice());
            });
            contribute(gh, seen, scratch, needs, b.idx(), |buf| {
                for (o, &g) in buf.iter_mut().zip(dy.as_slice()) {
                    *o = -g;
                }
            });
        }
        Op::Mul(a, b) => {
            let (av, bv) = (&values[a.idx()], &values[b.idx()]);
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for ((o, &g), &y) in buf.iter_mut().zip(dy.as_slice()).zip(bv.as_slice()) {
                    *o = g * y;
                }
            });
            contribute(gh, seen, scratch, needs, b.idx(), |buf| {
                for ((o, &g), &x) in buf.iter_mut().zip(dy.as_slice()).zip(av.as_slice()) {
                    *o = g * x;
                }
            });
        }
        Op::AddRow(a, row) => {
            let (m, n) = dy.shape();
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                buf.copy_from_slice(dy.as_slice());
            });
            contribute(gh, seen, scratch, needs, row.idx(), |buf| {
                for r in 0..m {
                    for (o, &g) in buf[..n].iter_mut().zip(dy.row(r).iter()) {
                        *o += g;
                    }
                }
            });
        }
        Op::MulRow(a, row) => {
            let (m, n) = dy.shape();
            let (av, rv) = (&values[a.idx()], &values[row.idx()]);
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for r in 0..m {
                    for c in 0..n {
                        buf[r * n + c] = dy.get(r, c) * rv.get(0, c);
                    }
                }
            });
            contribute(gh, seen, scratch, needs, row.idx(), |buf| {
                for r in 0..m {
                    for (c, o) in buf.iter_mut().enumerate() {
                        *o += dy.get(r, c) * av.get(r, c);
                    }
                }
            });
        }
        Op::MulCol(a, col) => {
            let (m, n) = dy.shape();
            let (av, cv) = (&values[a.idx()], &values[col.idx()]);
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for r in 0..m {
                    for c in 0..n {
                        buf[r * n + c] = dy.get(r, c) * cv.get(r, 0);
                    }
                }
            });
            contribute(gh, seen, scratch, needs, col.idx(), |buf| {
                for (r, o) in buf.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for c in 0..n {
                        acc += dy.get(r, c) * av.get(r, c);
                    }
                    *o = acc;
                }
            });
        }
        Op::Scale(a, s) => {
            let s = *s;
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for (o, &g) in buf.iter_mut().zip(dy.as_slice()) {
                    *o = g * s;
                }
            });
        }
        Op::AddScalar(a, _) => {
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                buf.copy_from_slice(dy.as_slice());
            });
        }
        Op::LeakyRelu(a, slope) => {
            let slope = *slope;
            let av = &values[a.idx()];
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for ((o, &x), &g) in buf.iter_mut().zip(av.as_slice()).zip(dy.as_slice()) {
                    *o = if x > 0.0 { g } else { slope * g };
                }
            });
        }
        Op::Sigmoid(a) => {
            let yv = &values[id];
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for ((o, &y), &g) in buf.iter_mut().zip(yv.as_slice()).zip(dy.as_slice()) {
                    *o = g * y * (1.0 - y);
                }
            });
        }
        Op::Tanh(a) => {
            let yv = &values[id];
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for ((o, &y), &g) in buf.iter_mut().zip(yv.as_slice()).zip(dy.as_slice()) {
                    *o = g * (1.0 - y * y);
                }
            });
        }
        Op::Exp(a) => {
            let yv = &values[id];
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for ((o, &y), &g) in buf.iter_mut().zip(yv.as_slice()).zip(dy.as_slice()) {
                    *o = g * y;
                }
            });
        }
        Op::LnEps(a, eps) => {
            let eps = *eps;
            let av = &values[a.idx()];
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for ((o, &x), &g) in buf.iter_mut().zip(av.as_slice()).zip(dy.as_slice()) {
                    *o = g / (x + eps);
                }
            });
        }
        Op::SoftmaxRows(a, tau) => {
            let tau = *tau;
            let y = &values[id];
            let (m, n) = y.shape();
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for r in 0..m {
                    let dot: f32 = y
                        .row(r)
                        .iter()
                        .zip(dy.row(r).iter())
                        .map(|(&yv, &g)| yv * g)
                        .sum();
                    for c in 0..n {
                        buf[r * n + c] = y.get(r, c) * (dy.get(r, c) - dot) / tau;
                    }
                }
            });
        }
        Op::ConcatCols(a, b) => {
            let ca = values[a.idx()].cols();
            let total = dy.cols();
            let m = dy.rows();
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for r in 0..m {
                    buf[r * ca..(r + 1) * ca].copy_from_slice(&dy.row(r)[..ca]);
                }
            });
            let cb = total - ca;
            contribute(gh, seen, scratch, needs, b.idx(), |buf| {
                for r in 0..m {
                    buf[r * cb..(r + 1) * cb].copy_from_slice(&dy.row(r)[ca..total]);
                }
            });
        }
        Op::SliceCols(a, start, end) => {
            let (m, n) = values[a.idx()].shape();
            let (start, end) = (*start, *end);
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for r in 0..m {
                    buf[r * n + start..r * n + end].copy_from_slice(dy.row(r));
                }
            });
        }
        Op::Transpose(a) => {
            let (m, n) = dy.shape();
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for r in 0..m {
                    for c in 0..n {
                        buf[c * m + r] = dy.get(r, c);
                    }
                }
            });
        }
        Op::SumAll(a) => {
            let g = dy.get(0, 0);
            contribute(gh, seen, scratch, needs, a.idx(), |buf| buf.fill(g));
        }
        Op::MeanAll(a) => {
            let len = values[a.idx()].len().max(1) as f32;
            let g = dy.get(0, 0) / len;
            contribute(gh, seen, scratch, needs, a.idx(), |buf| buf.fill(g));
        }
        Op::RowSum(a) => {
            let (m, n) = values[a.idx()].shape();
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for r in 0..m {
                    let g = dy.get(r, 0);
                    buf[r * n..(r + 1) * n].fill(g);
                }
            });
        }
        Op::GatherRows(a, idx) => {
            let n = values[a.idx()].cols();
            // Scatter-add with possibly duplicate row indices: parallel
            // partitioning over `idx` would give one row two writers, so the
            // backward scatter stays serial (the forward gather is the
            // parallel one).
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for (i, &r) in idx.iter().enumerate() {
                    let dst = &mut buf[r as usize * n..(r as usize + 1) * n];
                    for (o, &g) in dst.iter_mut().zip(dy.row(i).iter()) {
                        *o += g;
                    }
                }
            });
        }
        Op::SpMM(pair, x) => {
            contribute(gh, seen, scratch, needs, x.idx(), |buf| {
                pair.bwd().spmm_acc(dy, buf)
            });
        }
        Op::EdgeSoftmax(scores, edges) => {
            let alpha = &values[id];
            let dst_ptr = edges.dst_ptr();
            contribute(gh, seen, scratch, needs, scores.idx(), |buf| {
                par::for_each_disjoint(
                    buf,
                    edges.n_nodes(),
                    edges.n_edges() * 4,
                    |i| dst_ptr[i] as usize,
                    |nodes, chunk| {
                        let base = dst_ptr[nodes.start] as usize;
                        for i in nodes {
                            let range = edges.incoming(i);
                            if range.is_empty() {
                                continue;
                            }
                            let dot: f32 =
                                range.clone().map(|e| alpha.get(e, 0) * dy.get(e, 0)).sum();
                            for e in range {
                                chunk[e - base] = alpha.get(e, 0) * (dy.get(e, 0) - dot);
                            }
                        }
                    },
                );
            });
        }
        Op::EdgeAggregate(alpha, h, edges) => {
            let am = &values[alpha.idx()];
            let hm = &values[h.idx()];
            let d = hm.cols();
            // Each edge's alpha-gradient is an independent dot product.
            contribute(gh, seen, scratch, needs, alpha.idx(), |buf| {
                par::for_each_row_block(buf, 1, edges.n_edges() * d, |es, chunk| {
                    for (k, e) in es.enumerate() {
                        let src = edges.src()[e] as usize;
                        let dst = edges.dst()[e] as usize;
                        let dy_row = &dy.as_slice()[dst * d..(dst + 1) * d];
                        let h_row = &hm.as_slice()[src * d..(src + 1) * d];
                        chunk[k] = dy_row.iter().zip(h_row.iter()).map(|(&g, &x)| g * x).sum();
                    }
                });
            });
            // The dh scatter indexes by *source* row, and several edges can
            // share one source, so a row partition over edges would race;
            // this stays serial.
            contribute(gh, seen, scratch, needs, h.idx(), |buf| {
                for e in 0..edges.n_edges() {
                    let src = edges.src()[e] as usize;
                    let dst = edges.dst()[e] as usize;
                    let dy_row = &dy.as_slice()[dst * d..(dst + 1) * d];
                    let w = am.get(e, 0);
                    let dh_row = &mut buf[src * d..(src + 1) * d];
                    for (o, &g) in dh_row.iter_mut().zip(dy_row.iter()) {
                        *o += w * g;
                    }
                }
            });
        }
        Op::EdgeAttention(h_dst, h_src, a_dst, a_src, slope, edges) => {
            let (n, e) = (edges.n_nodes(), edges.n_edges());
            let (s_dst, s_src) = aux.split_at(n);
            let (dscore, ds) = fused_scratch[..e + 2 * n].split_at_mut(e);
            edge_attention_backward(&values[id], dy, s_dst, s_src, *slope, edges, dscore);
            // The two gathers' scatter-adds, serial in edge order: sources
            // repeat across edges.
            let (ds_dst, ds_src) = ds.split_at_mut(n);
            ds_dst.fill(0.0);
            ds_src.fill(0.0);
            for ((&g, &src), &dst) in dscore.iter().zip(edges.src()).zip(edges.dst()) {
                ds_src[src as usize] += g;
                ds_dst[dst as usize] += g;
            }
            // The two projections' `MatMul` backward, in the order the
            // unfused reverse sweep reaches them: `s_src` (recorded later)
            // first, each delivering `dA` then `dB` (DESIGN §7).
            for (hn, an, dsv) in [(h_src, a_src, &*ds_src), (h_dst, a_dst, &*ds_dst)] {
                let (hm, am) = (&values[hn.idx()], &values[an.idx()]);
                let d = hm.cols();
                contribute(gh, seen, scratch, needs, hn.idx(), |buf| {
                    gemm::matmul_into(dsv, am.as_slice(), buf, n, 1, d, false, true, false);
                });
                contribute(gh, seen, scratch, needs, an.idx(), |buf| {
                    gemm::matmul_into(hm.as_slice(), dsv, buf, d, n, 1, true, false, true);
                });
            }
        }
        Op::GatedMatMul(x, w, f) => {
            let xm = &values[x.idx()];
            let wm = &values[w.idx()];
            let fm = &values[f.idx()];
            let (n, d) = xm.shape();
            let h = wm.cols();
            let (xi, wi, fi) = (x.idx(), w.idx(), f.idx());
            let distinct = xi != wi && wi != fi && xi != fi;
            let all_need = needs[xi] && needs[wi] && needs[fi];
            if distinct && all_need && !seen[xi] && !seen[wi] && !seen[fi] {
                // Hot path: one fused pass writing all three gradients
                // directly into their (zeroed) arena buffers — same loop
                // structure and accumulation order as the allocating
                // fallback, so bit-identical.
                let mut order = [xi, wi, fi];
                order.sort_unstable();
                let [g0, g1, g2] = disjoint3(gh, order[0], order[1], order[2]);
                let pick = |t: usize| order.iter().position(|&o| o == t).expect("sorted member");
                let mut slots = [Some(g0), Some(g1), Some(g2)];
                let dx = slots[pick(xi)].take().expect("unique slot");
                let dw = slots[pick(wi)].take().expect("unique slot");
                let df = slots[pick(fi)].take().expect("unique slot");
                let (dx, dw, df) = (dx.as_mut_slice(), dw.as_mut_slice(), df.as_mut_slice());
                dx.fill(0.0);
                dw.fill(0.0);
                df.fill(0.0);
                gated_matmul_backward(xm, wm, fm, dy, n, d, h, dx, dw, df);
                seen[xi] = true;
                seen[wi] = true;
                seen[fi] = true;
            } else {
                // Rare aliased/partially-seen case: compute into fresh
                // temporaries (exactly the pre-plan code path) and merge.
                let mut dx = Matrix::zeros(n, d);
                let mut dw = Matrix::zeros(d, h);
                let mut df = Matrix::zeros(n, d * h);
                gated_matmul_backward(
                    xm,
                    wm,
                    fm,
                    dy,
                    n,
                    d,
                    h,
                    dx.as_mut_slice(),
                    dw.as_mut_slice(),
                    df.as_mut_slice(),
                );
                merge_owned(gh, seen, needs, xi, &dx);
                merge_owned(gh, seen, needs, wi, &dw);
                merge_owned(gh, seen, needs, fi, &df);
            }
        }
        Op::SubOuter(a, b) => {
            let (m, n) = dy.shape();
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                for (i, o) in buf.iter_mut().enumerate() {
                    for j in 0..n {
                        *o += dy.get(i, j);
                    }
                }
            });
            contribute(gh, seen, scratch, needs, b.idx(), |buf| {
                for i in 0..m {
                    for (j, o) in buf.iter_mut().enumerate() {
                        *o -= dy.get(i, j);
                    }
                }
            });
        }
        Op::BceWithLogits(logits, targets, weights) => {
            let z = &values[logits.idx()];
            let wsum: f32 = weights.iter().sum();
            contribute(gh, seen, scratch, needs, logits.idx(), |buf| {
                if wsum > 0.0 {
                    let g = dy.get(0, 0) / wsum;
                    for i in 0..targets.len() {
                        let zi = z.get(i, 0);
                        let p = 1.0 / (1.0 + (-zi).exp());
                        buf[i] = g * weights[i] * (p - targets[i]);
                    }
                }
            });
        }
        Op::Conv2d(x, kernel, meta) => {
            let kv = &values[kernel.idx()];
            contribute(gh, seen, scratch, needs, x.idx(), |buf| {
                conv2d_backward_dx_to(kv, dy, meta, buf);
            });
            let xv = &values[x.idx()];
            contribute(gh, seen, scratch, needs, kernel.idx(), |buf| {
                conv2d_backward_dk_to(xv, dy, meta, buf);
            });
        }
        Op::AddChanBias(a, bias, channels, hw) => {
            contribute(gh, seen, scratch, needs, a.idx(), |buf| {
                buf.copy_from_slice(dy.as_slice());
            });
            let n = dy.rows();
            contribute(gh, seen, scratch, needs, bias.idx(), |buf| {
                for i in 0..n {
                    let row = dy.row(i);
                    for c in 0..*channels {
                        let s: f32 = row[c * hw..(c + 1) * hw].iter().sum();
                        buf[c] += s;
                    }
                }
            });
        }
        Op::MaxPool2(x, meta) => {
            let dx = maxpool2_backward_batch(&values[x.idx()], dy, meta);
            merge_owned(gh, seen, needs, x.idx(), &dx);
        }
    }
}

/// Score gradient of [`Op::EdgeAttention`] into `dscore` (`E`): per
/// destination, [`Op::EdgeSoftmax`]'s backward (`α_e · (dα_e − Σ α·dα)`),
/// then [`Op::LeakyRelu`]'s, its mask taken from the recomputed input score
/// `s_dst[i] + s_src[src_e]` as the standalone op takes it.
fn edge_attention_backward(
    alpha: &Matrix,
    dy: &Matrix,
    s_dst: &[f32],
    s_src: &[f32],
    slope: f32,
    edges: &EdgeIndex,
    dscore: &mut [f32],
) {
    let (dst_ptr, src) = (edges.dst_ptr(), edges.src());
    par::for_each_disjoint(
        dscore,
        edges.n_nodes(),
        edges.n_edges() * 4,
        |i| dst_ptr[i] as usize,
        |nodes, chunk| {
            let base = dst_ptr[nodes.start] as usize;
            for i in nodes {
                let range = edges.incoming(i);
                if range.is_empty() {
                    continue;
                }
                let dot: f32 = range.clone().map(|e| alpha.get(e, 0) * dy.get(e, 0)).sum();
                for e in range {
                    let g = alpha.get(e, 0) * (dy.get(e, 0) - dot);
                    let x = s_dst[i] + s_src[src[e] as usize];
                    chunk[e - base] = if x > 0.0 { g } else { slope * g };
                }
            }
        },
    );
}

/// Fused gated-matmul backward into three caller-zeroed buffers; identical
/// loop structure and per-element accumulation order to the original tape
/// code (`dx` single-write, `dw`/`df` `+=` in ascending sample order).
#[allow(clippy::too_many_arguments)]
fn gated_matmul_backward(
    xm: &Matrix,
    wm: &Matrix,
    fm: &Matrix,
    dy: &Matrix,
    n: usize,
    d: usize,
    h: usize,
    dx: &mut [f32],
    dw: &mut [f32],
    df: &mut [f32],
) {
    for i in 0..n {
        let x_row = xm.row(i);
        let f_row = fm.row(i);
        let dy_row = dy.row(i);
        let df_row = &mut df[i * d * h..(i + 1) * d * h];
        for dd in 0..d {
            let w_row = wm.row(dd);
            let f_seg = &f_row[dd * h..(dd + 1) * h];
            let df_seg = &mut df_row[dd * h..(dd + 1) * h];
            let xv = x_row[dd];
            let mut dx_acc = 0.0;
            for k in 0..h {
                let g = dy_row[k];
                dx_acc += g * w_row[k] * f_seg[k];
                dw[dd * h + k] += g * xv * f_seg[k];
                df_seg[k] += g * xv * w_row[k];
            }
            dx[i * d + dd] = dx_acc;
        }
    }
}

#[cfg(test)]
mod gated_tests {
    use super::*;

    fn gated_fixture(n: usize, d: usize, h: usize) -> (Matrix, Matrix, Matrix) {
        let mut rng = crate::init::seeded_rng(17);
        let mut xm = crate::init::normal_matrix(n, d, 0.0, 1.0, &mut rng);
        // Exercise the zero-skip: it is part of the bitwise contract.
        for (i, v) in xm.as_mut_slice().iter_mut().enumerate() {
            if i % 7 == 3 {
                *v = 0.0;
            }
        }
        let wm = crate::init::normal_matrix(d, h, 0.0, 1.0, &mut rng);
        let fm = crate::init::normal_matrix(n, d * h, 0.0, 1.0, &mut rng);
        (xm, wm, fm)
    }

    /// Every SIMD tier of the gated row kernel must be bitwise identical to
    /// the scalar body in deterministic mode (same chains, same zero-skip),
    /// and within FMA rounding of it on the fast-math tier.
    #[test]
    fn gated_row_tiers_match_scalar_body() {
        for &(n, d, h) in &[(5usize, 19usize, 16usize), (4, 8, 21), (3, 6, 7)] {
            let (xm, wm, fm) = gated_fixture(n, d, h);
            let mut oracle = vec![0.0f32; n * h];
            for i in 0..n {
                gated_row_body::<false>(
                    xm.row(i),
                    &wm,
                    fm.row(i),
                    &mut oracle[i * h..(i + 1) * h],
                    h,
                );
            }
            let mut tiered = vec![0.0f32; n * h];
            crate::fastmath::with_fast_math(false, || {
                gated_matmul_forward(&xm, &wm, &fm, &mut tiered);
            });
            assert_eq!(tiered, oracle, "deterministic tier diverged at {n}x{d}x{h}");
            let mut fast = vec![0.0f32; n * h];
            crate::fastmath::with_fast_math(true, || {
                gated_matmul_forward(&xm, &wm, &fm, &mut fast);
            });
            for (a, b) in fast.iter().zip(oracle.iter()) {
                let tol = 1e-5 * b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= tol,
                    "fast-math tier out of tolerance: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    #[ignore = "perf probe, run with --ignored --nocapture"]
    fn probe_gated_gflops() {
        let (n, d, h) = (1000, 64, 16);
        let (xm, wm, fm) = gated_fixture(n, d, h);
        for (label, fast) in [("det", false), ("fast", true)] {
            crate::fastmath::with_fast_math(fast, || {
                let mut out = vec![0.0f32; n * h];
                let mut best = f64::INFINITY;
                for _ in 0..30 {
                    out.fill(0.0);
                    let t = std::time::Instant::now();
                    gated_matmul_forward(&xm, &wm, &fm, &mut out);
                    best = best.min(t.elapsed().as_secs_f64());
                }
                let gflops = (3 * n * d * h) as f64 / best / 1e9;
                println!("gated {label}: {:.3} ms  {gflops:.2} GFLOP/s", best * 1e3);
            });
        }
    }
}
