//! im2col-based 2-D convolution and max-pooling kernels, plus
//! [`ConvPoolStack`], a frozen direct-convolution inference stack.
//!
//! Images are stored one per matrix row in `C*H*W` (channel-major) layout, so
//! a batch of `n` images of shape `(C, H, W)` is an `n × (C*H*W)` [`Matrix`].

use crate::gemm::Isa;
use crate::matrix::Matrix;
use crate::par;
use std::cell::Cell;
use std::thread::LocalKey;

thread_local! {
    /// Caller-side packed kernel panels, held across a whole batch. A
    /// separate cell from [`COLS_SCRATCH`]: the pack is out of its cell
    /// while workers — or the inline serial path — use the column scratch,
    /// and gemm's own pack scratch is busy inside each per-sample call.
    static KERNEL_PACK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-worker im2col column scratch (capacity reused across samples).
    static COLS_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-worker [`ConvPoolStack`] scratch: padded stage planes plus one
    /// stage output (capacity reused across calls).
    static STACK_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on a scratch buffer taken out of `cell` for the duration of the
/// call. No borrow of the cell outlives a pool dispatch: a thread waiting on
/// its scope helps run queued jobs, and a nested conv on this same thread
/// then finds the cell empty and uses a fresh buffer instead of aliasing.
fn with_scratch<R>(
    cell: &'static LocalKey<Cell<Vec<f32>>>,
    f: impl FnOnce(&mut Vec<f32>) -> R,
) -> R {
    let mut buf = cell.take();
    let r = f(&mut buf);
    cell.set(buf);
    r
}

/// Shape metadata for a 2-D convolution with a square kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvMeta {
    pub c_in: usize,
    pub h_in: usize,
    pub w_in: usize,
    pub c_out: usize,
    /// Square kernel side.
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvMeta {
    pub fn h_out(&self) -> usize {
        (self.h_in + 2 * self.pad - self.k) / self.stride + 1
    }

    pub fn w_out(&self) -> usize {
        (self.w_in + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Flattened input feature count per sample.
    pub fn in_len(&self) -> usize {
        self.c_in * self.h_in * self.w_in
    }

    /// Flattened output feature count per sample.
    pub fn out_len(&self) -> usize {
        self.c_out * self.h_out() * self.w_out()
    }

    /// Kernel matrix shape: `(c_out, c_in * k * k)`.
    pub fn kernel_shape(&self) -> (usize, usize) {
        (self.c_out, self.c_in * self.k * self.k)
    }
}

/// Shape metadata for 2×2 max pooling with stride 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolMeta {
    pub channels: usize,
    pub h_in: usize,
    pub w_in: usize,
}

impl PoolMeta {
    pub fn h_out(&self) -> usize {
        self.h_in / 2
    }

    pub fn w_out(&self) -> usize {
        self.w_in / 2
    }

    pub fn in_len(&self) -> usize {
        self.channels * self.h_in * self.w_in
    }

    pub fn out_len(&self) -> usize {
        self.channels * self.h_out() * self.w_out()
    }
}

/// Unfold one sample (slice of length `c_in*h_in*w_in`) into a column matrix
/// of shape `(c_in*k*k) × (h_out*w_out)`.
pub fn im2col(sample: &[f32], m: &ConvMeta) -> Matrix {
    let rows = m.c_in * m.k * m.k;
    let cols = m.h_out() * m.w_out();
    let mut buf = Vec::new();
    im2col_into(sample, m, &mut buf);
    Matrix::from_vec(rows, cols, buf)
}

/// [`im2col`] into a reusable buffer sized `(c_in*k*k) * (h_out*w_out)`, so
/// steady-state calls reuse capacity. Stride-1 convolutions (the CMSF CNN)
/// take a run-copy fast path: within one unfolded row each output scanline
/// is a contiguous window of the input scanline, so the body is
/// `copy_from_slice` plus explicit zero runs for the padded borders instead
/// of a bounds-checked per-pixel scatter — and the buffer needs no blanket
/// zero fill because every element is written.
pub fn im2col_into(sample: &[f32], m: &ConvMeta, buf: &mut Vec<f32>) {
    let (ho, wo) = (m.h_out(), m.w_out());
    let rows = m.c_in * m.k * m.k;
    let cols = ho * wo;
    if m.stride == 1 {
        if buf.len() != rows * cols {
            buf.clear();
            buf.resize(rows * cols, 0.0);
        }
        im2col_stride1(sample, m, ho, wo, cols, buf);
        return;
    }
    buf.clear();
    buf.resize(rows * cols, 0.0);
    for c in 0..m.c_in {
        for ky in 0..m.k {
            for kx in 0..m.k {
                let row = (c * m.k + ky) * m.k + kx;
                let out_row = &mut buf[row * cols..(row + 1) * cols];
                for oy in 0..ho {
                    let iy = (oy * m.stride + ky) as isize - m.pad as isize;
                    if iy < 0 || iy as usize >= m.h_in {
                        continue; // padded taps stay at the zero fill
                    }
                    let src = &sample[(c * m.h_in + iy as usize) * m.w_in..];
                    for ox in 0..wo {
                        let ix = (ox * m.stride + kx) as isize - m.pad as isize;
                        if ix < 0 || ix as usize >= m.w_in {
                            continue;
                        }
                        out_row[oy * wo + ox] = src[ix as usize];
                    }
                }
            }
        }
    }
}

/// Stride-1 unfold body: per `(c, ky, kx)` row the valid `ox` window is the
/// fixed interval `[max(pad-kx, 0), min(w_in+pad-kx, wo))`, so each output
/// scanline is zero-run · contiguous-copy · zero-run. Writes every element.
fn im2col_stride1(
    sample: &[f32],
    m: &ConvMeta,
    ho: usize,
    wo: usize,
    cols: usize,
    buf: &mut [f32],
) {
    let pad = m.pad as isize;
    for c in 0..m.c_in {
        for ky in 0..m.k {
            for kx in 0..m.k {
                let row = (c * m.k + ky) * m.k + kx;
                let out_row = &mut buf[row * cols..(row + 1) * cols];
                let ox_lo = (pad - kx as isize).max(0) as usize;
                let ox_hi = ((m.w_in as isize + pad - kx as isize).min(wo as isize))
                    .max(ox_lo as isize) as usize;
                for oy in 0..ho {
                    let iy = oy as isize + ky as isize - pad;
                    let dst = &mut out_row[oy * wo..(oy + 1) * wo];
                    if iy < 0 || iy as usize >= m.h_in {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_base = (c * m.h_in + iy as usize) * m.w_in;
                    let ix0 = (ox_lo as isize + kx as isize - pad) as usize;
                    dst[..ox_lo].fill(0.0);
                    dst[ox_lo..ox_hi]
                        .copy_from_slice(&sample[src_base + ix0..src_base + ix0 + (ox_hi - ox_lo)]);
                    dst[ox_hi..].fill(0.0);
                }
            }
        }
    }
}

/// Fold a column-gradient matrix back into a sample gradient (adds into
/// `dsample`, inverse scatter of [`im2col`]).
pub fn col2im_add(dcols: &Matrix, m: &ConvMeta, dsample: &mut [f32]) {
    col2im_add_cols(dcols.as_slice(), m, dsample);
}

/// [`col2im_add`] from a raw column-gradient slice (`(c_in*k*k) ×
/// (h_out*w_out)` row-major): the backward path folds straight out of its
/// reusable GEMM scratch without wrapping a `Matrix`.
pub fn col2im_add_cols(dcols: &[f32], m: &ConvMeta, dsample: &mut [f32]) {
    let (ho, wo) = (m.h_out(), m.w_out());
    let cols = ho * wo;
    for c in 0..m.c_in {
        for ky in 0..m.k {
            for kx in 0..m.k {
                let row = (c * m.k + ky) * m.k + kx;
                let drow = &dcols[row * cols..(row + 1) * cols];
                for oy in 0..ho {
                    let iy = (oy * m.stride + ky) as isize - m.pad as isize;
                    if iy < 0 || iy as usize >= m.h_in {
                        continue;
                    }
                    for ox in 0..wo {
                        let ix = (ox * m.stride + kx) as isize - m.pad as isize;
                        if ix < 0 || ix as usize >= m.w_in {
                            continue;
                        }
                        dsample[(c * m.h_in + iy as usize) * m.w_in + ix as usize] +=
                            drow[oy * wo + ox];
                    }
                }
            }
        }
    }
}

/// Forward 2×2 max pool of one sample; also returns argmax flat indices into
/// the input sample (used for the backward pass).
pub fn maxpool2(sample: &[f32], m: &PoolMeta) -> (Vec<f32>, Vec<u32>) {
    let (ho, wo) = (m.h_out(), m.w_out());
    let mut out = vec![0.0f32; m.channels * ho * wo];
    let mut arg = vec![0u32; m.channels * ho * wo];
    for c in 0..m.channels {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0u32;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let iy = oy * 2 + dy;
                        let ix = ox * 2 + dx;
                        let i = (c * m.h_in + iy) * m.w_in + ix;
                        if sample[i] > best {
                            best = sample[i];
                            best_i = i as u32;
                        }
                    }
                }
                let o = (c * ho + oy) * wo + ox;
                out[o] = best;
                arg[o] = best_i;
            }
        }
    }
    (out, arg)
}

/// Estimated scalar ops for one sample's im2col + kernel matmul.
fn conv_sample_work(m: &ConvMeta) -> usize {
    let patch = m.c_in * m.k * m.k;
    let hw = m.h_out() * m.w_out();
    patch * hw * (m.c_out + 1)
}

/// Batched conv forward: `x` is `n × in_len`, returns `n × out_len`.
/// Samples are independent, so the batch is partitioned across threads with
/// one worker per contiguous sample range (each sample's output row has one
/// writer; per-sample numerics are the serial kernel's).
pub fn conv2d_batch(x: &Matrix, kernel: &Matrix, m: &ConvMeta) -> Matrix {
    let mut v = Matrix::zeros(x.rows(), m.out_len());
    conv2d_batch_to(x, kernel, m, v.as_mut_slice());
    v
}

/// Batched conv forward into a caller-owned buffer (fully overwritten).
/// Packs the kernel into microkernel panels once for the batch (thread-local
/// scratch); the plan replay path caches that pack in the `Workspace`
/// instead and calls [`conv2d_batch_prepacked_to`] directly.
pub fn conv2d_batch_to(x: &Matrix, kernel: &Matrix, m: &ConvMeta, out: &mut [f32]) {
    let (co, klen) = m.kernel_shape();
    assert_eq!(kernel.shape(), (co, klen), "conv2d kernel shape");
    with_scratch(&KERNEL_PACK, |pack| {
        crate::gemm::pack_a_into(kernel.as_slice(), co, klen, false, pack);
        conv2d_batch_prepacked_to(x, pack, m, out);
    });
}

/// Batched conv forward with a caller-cached kernel pack (LHS panels from
/// [`crate::gemm::pack_a_into`] over the `(c_out, c_in*k*k)` kernel). The
/// kernel is the LHS of every per-sample product, so one pack serves the
/// whole batch; per sample only the columns are unfolded (into per-worker
/// reused scratch) and packed. Runs allocation-free in steady state.
pub(crate) fn conv2d_batch_prepacked_to(
    x: &Matrix,
    kernel_pack: &[f32],
    m: &ConvMeta,
    out: &mut [f32],
) {
    let n = x.rows();
    let out_len = m.out_len();
    assert_eq!(out.len(), n * out_len, "conv2d output buffer size");
    let (co, klen) = m.kernel_shape();
    let hw = m.h_out() * m.w_out();
    let work = n * conv_sample_work(m);
    par::for_each_row_block(out, out_len, work, |samples, chunk| {
        with_scratch(&COLS_SCRATCH, |cols| {
            for (si, i) in samples.enumerate() {
                im2col_into(x.row(i), m, cols);
                crate::gemm::matmul_prepacked_a(
                    kernel_pack,
                    cols,
                    false,
                    &mut chunk[si * out_len..(si + 1) * out_len],
                    co,
                    klen,
                    hw,
                    false,
                );
            }
        });
    });
}

/// Batched conv backward: given upstream `dy` (`n × out_len`), returns
/// `(dx, dk)`. Allocates the two outputs, then delegates to the `_to`
/// kernels the plan replay uses — one implementation, one set of chains.
pub fn conv2d_backward_batch(
    x: &Matrix,
    kernel: &Matrix,
    dy: &Matrix,
    m: &ConvMeta,
) -> (Matrix, Matrix) {
    let (co, klen) = m.kernel_shape();
    let mut dx = Matrix::zeros(x.rows(), m.in_len());
    let mut dk = Matrix::zeros(co, klen);
    conv2d_backward_dx_to(kernel, dy, m, dx.as_mut_slice());
    conv2d_backward_dk_to(x, dy, m, dk.as_mut_slice());
    (dx, dk)
}

/// Input-gradient half of the conv backward: adds `col2im(kernelᵀ · dy_i)`
/// into each sample row of `dx` (caller zeroes on first contribution).
/// The transposed kernel is packed once per batch; each sample's
/// `dcols = kernelᵀ · dy_i` runs through the packed GEMM driver into
/// per-worker reused scratch — no per-sample allocation. Sample rows have
/// one writer each, so the partition is bit-stable at any thread count.
pub fn conv2d_backward_dx_to(kernel: &Matrix, dy: &Matrix, m: &ConvMeta, dx: &mut [f32]) {
    let n = dy.rows();
    let (co, klen) = m.kernel_shape();
    assert_eq!(kernel.shape(), (co, klen), "conv2d kernel shape");
    let hw = m.h_out() * m.w_out();
    let in_len = m.in_len();
    assert_eq!(dx.len(), n * in_len, "conv2d dx buffer size");
    let work = n * conv_sample_work(m);
    with_scratch(&KERNEL_PACK, |pack| {
        // Pack the kernel transposed: `dcols = kernelᵀ (klen×co) · dy_i`.
        crate::gemm::pack_a_into(kernel.as_slice(), klen, co, true, pack);
        let pack: &[f32] = pack;
        par::for_each_row_block(dx, in_len, work, |samples, chunk| {
            with_scratch(&COLS_SCRATCH, |dcols| {
                if dcols.len() != klen * hw {
                    dcols.clear();
                    dcols.resize(klen * hw, 0.0);
                }
                for (si, i) in samples.enumerate() {
                    crate::gemm::matmul_prepacked_a(
                        pack,
                        dy.row(i),
                        false,
                        dcols,
                        klen,
                        co,
                        hw,
                        false,
                    );
                    col2im_add_cols(dcols, m, &mut chunk[si * in_len..(si + 1) * in_len]);
                }
            });
        });
    });
}

/// Kernel-gradient half of the conv backward: adds `Σ_i dy_i · cols_iᵀ`
/// into `dk` (caller zeroes on first contribution). Serial dispatch extends
/// `dk`'s accumulator chains sample by sample through the packed GEMM driver
/// — allocation-free. Parallel dispatch reduces per-chunk partials in
/// ascending chunk order (deterministic for a fixed thread configuration,
/// matching the pre-GEMM behaviour; the partial matrices are the one conv
/// path that still allocates, and only off the serial replay path).
pub fn conv2d_backward_dk_to(x: &Matrix, dy: &Matrix, m: &ConvMeta, dk: &mut [f32]) {
    let n = x.rows();
    let (co, klen) = m.kernel_shape();
    assert_eq!(dk.len(), co * klen, "conv2d dk buffer size");
    let hw = m.h_out() * m.w_out();
    let work = n * conv_sample_work(m) * 2;
    let accumulate_into = |samples: std::ops::Range<usize>, dk: &mut [f32]| {
        with_scratch(&COLS_SCRATCH, |cols| {
            for i in samples {
                im2col_into(x.row(i), m, cols);
                // dk (co×klen) += dy_i (co×hw) · cols_iᵀ (hw×klen)
                crate::gemm::matmul_into(dy.row(i), cols, dk, co, hw, klen, false, true, true);
            }
        });
    };
    // Mirror `par::planned_chunks` without charging its dispatch telemetry
    // twice: the serial decision must match the one `map_chunks` would make.
    let serial = work < par::MIN_PAR_WORK || par::effective_threads().min(n) <= 1;
    if serial {
        accumulate_into(0..n, dk);
        return;
    }
    let partials = par::map_chunks(n, work, |samples| {
        let mut part = vec![0.0f32; co * klen];
        accumulate_into(samples, &mut part);
        part
    });
    for p in partials {
        for (g, &v) in dk.iter_mut().zip(p.iter()) {
            *g += v;
        }
    }
}

/// Batched 2×2 max pool forward (`n × in_len` → `n × out_len`), batch
/// partitioned across threads.
pub fn maxpool2_batch(x: &Matrix, m: &PoolMeta) -> Matrix {
    let mut v = Matrix::zeros(x.rows(), m.out_len());
    maxpool2_batch_to(x, m, v.as_mut_slice());
    v
}

/// Batched max pool forward into a caller-owned buffer (fully overwritten).
pub fn maxpool2_batch_to(x: &Matrix, m: &PoolMeta, out: &mut [f32]) {
    let n = x.rows();
    let out_len = m.out_len();
    assert_eq!(out.len(), n * out_len, "maxpool2 output buffer size");
    let work = n * m.in_len();
    par::for_each_row_block(out, out_len, work, |samples, chunk| {
        for (si, i) in samples.enumerate() {
            let (pooled, _) = maxpool2(x.row(i), m);
            chunk[si * out_len..(si + 1) * out_len].copy_from_slice(&pooled);
        }
    });
}

/// Batched 2×2 max pool backward: routes `dy` to each sample's argmax
/// positions (recomputed per sample), batch partitioned across threads.
pub fn maxpool2_backward_batch(x: &Matrix, dy: &Matrix, m: &PoolMeta) -> Matrix {
    let n = x.rows();
    let in_len = m.in_len();
    let mut dx = Matrix::zeros(n, in_len);
    let work = n * m.in_len() * 2;
    par::for_each_row_block(dx.as_mut_slice(), in_len, work, |samples, chunk| {
        for (si, i) in samples.enumerate() {
            let (_, arg) = maxpool2(x.row(i), m);
            let dxr = &mut chunk[si * in_len..(si + 1) * in_len];
            for (o, &src) in arg.iter().enumerate() {
                dxr[src as usize] += dy.row(i)[o];
            }
        }
    });
    dx
}

/// Widest output tile any tier uses, in pixels (the AVX-512 tier's 16 lanes).
const MAX_TILE: usize = 16;

/// One row segment of an output tile: `len` consecutive output pixels of one
/// row, landing in tile lanes `lane..lane + len`. `base` is the padded-plane
/// index of the segment's first pixel under tap `(c, ky, kx) = (0, 0, 0)`,
/// so tap `p` of that pixel sits at `base + off[p]`.
#[derive(Clone, Copy, Default)]
struct Seg {
    lane: usize,
    len: usize,
    base: usize,
}

/// An output tile of a stack stage: flattened output pixels `q0..q0 + qv`
/// (split into row segments) times output channels `co0..co0 + cv`.
struct Tile {
    q0: usize,
    qv: usize,
    co0: usize,
    cv: usize,
    segs: [Seg; MAX_TILE],
    nseg: usize,
}

impl Tile {
    /// Cover flattened pixels `q0..q0 + qv` of a `w`-wide output whose
    /// padded input rows are `wp` wide.
    fn set_pixels(&mut self, q0: usize, qv: usize, w: usize, wp: usize) {
        self.q0 = q0;
        self.qv = qv;
        self.nseg = 0;
        let mut q = q0;
        while q < q0 + qv {
            let (oy, ox) = (q / w, q % w);
            let len = (w - ox).min(q0 + qv - q);
            self.segs[self.nseg] = Seg {
                lane: q - q0,
                len,
                base: oy * wp + ox,
            };
            self.nseg += 1;
            q += len;
        }
    }

    fn segs(&self) -> &[Seg] {
        &self.segs[..self.nseg]
    }

    /// Check the bounds the SIMD tile kernels' raw loads and stores rely
    /// on, for a tier with `nc`-channel blocks and `tw`-pixel tiles: every
    /// segment's pixels under every tap lie inside `src` (taps ascend, so
    /// the last is the farthest) and start at or after lane 0's address,
    /// every weight row holds `co0 + nc` entries, and the tile's pixels of
    /// its real channels lie inside `y`. A few compares per tile.
    fn assert_in_bounds(&self, st: &StackStage, nc: usize, tw: usize, src: &[f32], y: &[f32]) {
        let last = *st.off.last().expect("a stage has taps");
        assert!((1..=tw).contains(&self.qv) && (1..=nc).contains(&self.cv));
        assert!(self.co0 + nc <= st.ldw && st.wt.len() == st.off.len() * st.ldw);
        assert!(self
            .segs()
            .iter()
            .all(|s| s.lane <= s.base && s.base + last + s.len <= src.len()));
        assert!((self.co0 + self.cv - 1) * st.h * st.w + self.q0 + self.qv <= y.len());
    }
}

/// One frozen stage of a [`ConvPoolStack`]: 3×3 stride-1 pad-1 conv, ReLU,
/// 2×2 max pool.
struct StackStage {
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    /// Kernel transposed to `(c_in*9) × ldw` (row `p` holds tap `p`'s weight
    /// for every output channel), channels zero-padded to `ldw`, a multiple
    /// of the widest channel block.
    wt: Vec<f32>,
    ldw: usize,
    /// Tap offsets into the padded input plane, in im2col row order:
    /// `off[(c*3 + ky)*3 + kx] = (c*(h+2) + ky)*(w+2) + kx` — ascending,
    /// since `kx < w+2` and `ky < h+2`.
    off: Vec<usize>,
    /// Start of this stage's zero-padded input plane in the worker scratch.
    pad_at: usize,
}

impl StackStage {
    fn hp(&self) -> usize {
        self.h + 2
    }

    fn wp(&self) -> usize {
        self.w + 2
    }

    fn pad_len(&self) -> usize {
        self.c_in * self.hp() * self.wp()
    }
}

/// A frozen conv→ReLU→2×2-max-pool inference stack (VGG-style feature
/// extraction), evaluated by direct convolution: no im2col matrix, no
/// per-sample pack, ReLU and pooling fused into one pass.
///
/// Each output tile (8 or 16 pixels by a block of output channels) keeps
/// its accumulators in registers and reads tap `p` of its pixels straight
/// from the zero-padded input plane at `base + off[p]`. Every output
/// element is the chain `0.0 + w₀·x₀ + w₁·x₁ + …` over the taps in im2col
/// row order, with separate mul and add — the chain the packed GEMM runs on
/// the im2col columns (padded taps are `w·0` products in both) — so the
/// stack is **bitwise identical** to [`conv2d_batch`] + ReLU +
/// [`maxpool2_batch`], at any thread count and on every ISA tier. Under the
/// fast-math tier the steps are fused multiply-adds instead.
///
/// Samples are partitioned across threads; each worker owns one
/// take-and-restore scratch holding every stage's padded input plane
/// (borders zeroed once per call, interiors overwritten per sample) and one
/// stage output, so steady-state samples never touch the heap.
pub struct ConvPoolStack {
    stages: Vec<StackStage>,
    in_len: usize,
    out_len: usize,
    /// Start of the stage-output buffer in the worker scratch.
    y_at: usize,
    scratch_len: usize,
    sample_work: usize,
}

impl ConvPoolStack {
    /// Freeze `stages`, each a `(meta, kernel)` pair with a `c_out ×
    /// (c_in*9)` kernel. Every stage must be a 3×3, stride-1, pad-1 conv;
    /// stage `s+1` consumes stage `s`'s pooled output
    /// (`c_out × h/2 × w/2`), and every pooled output must be non-empty.
    pub fn new(stages: &[(ConvMeta, Matrix)]) -> Self {
        assert!(!stages.is_empty(), "conv stack needs at least one stage");
        let mut built: Vec<StackStage> = Vec::with_capacity(stages.len());
        let mut at = 0;
        let mut y_len = 0;
        for (meta, kernel) in stages {
            assert!(
                meta.k == 3 && meta.stride == 1 && meta.pad == 1,
                "conv stack stages are 3x3 stride-1 pad-1 convs: {meta:?}"
            );
            assert!(
                meta.h_in >= 2 && meta.w_in >= 2 && meta.c_in > 0 && meta.c_out > 0,
                "conv stack stage must pool to a non-empty output: {meta:?}"
            );
            if let Some(prev) = built.last() {
                assert_eq!(
                    (meta.c_in, meta.h_in, meta.w_in),
                    (prev.c_out, prev.h / 2, prev.w / 2),
                    "conv stack stage input must be the previous pooled output"
                );
            }
            let (co, klen) = meta.kernel_shape();
            assert_eq!(kernel.shape(), (co, klen), "conv stack kernel shape");
            let ldw = co.next_multiple_of(MAX_TILE);
            let mut wt = vec![0.0f32; klen * ldw];
            for c in 0..co {
                for (p, &v) in kernel.row(c).iter().enumerate() {
                    wt[p * ldw + c] = v;
                }
            }
            let (hp, wp) = (meta.h_in + 2, meta.w_in + 2);
            let off = (0..klen)
                .map(|p| {
                    let (c, ky, kx) = (p / 9, p / 3 % 3, p % 3);
                    (c * hp + ky) * wp + kx
                })
                .collect();
            let stage = StackStage {
                c_in: meta.c_in,
                h: meta.h_in,
                w: meta.w_in,
                c_out: co,
                wt,
                ldw,
                off,
                pad_at: at,
            };
            at += stage.pad_len();
            y_len = y_len.max(co * meta.h_in * meta.w_in);
            built.push(stage);
        }
        let first = &built[0];
        let last = &built[built.len() - 1];
        let in_len = first.c_in * first.h * first.w;
        let out_len = last.c_out * (last.h / 2) * (last.w / 2);
        // Per-sample work estimate for the dispatch threshold: one op per
        // 16-lane multiply-add step. VGG-sim's 663k MACs per 3×32×32 image
        // give ~41k, against ~26 µs measured per image on one core of a
        // 2-vCPU x86-64 VM (AVX-512 tier) — the ~1 op/ns scale of the
        // crate's other estimates, so two images already go parallel.
        let macs: usize = built
            .iter()
            .map(|s| s.off.len() * s.c_out * s.h * s.w)
            .sum();
        ConvPoolStack {
            stages: built,
            in_len,
            out_len,
            y_at: at,
            scratch_len: at + y_len,
            sample_work: macs / MAX_TILE,
        }
    }

    /// Flattened input length per sample.
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Flattened output length per sample (last stage's pooled output).
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// Run the stack on `x` (`n * in_len` values, one sample after
    /// another) into an `n × out_len` matrix.
    pub fn forward(&self, x: &[f32]) -> Matrix {
        let mut out = Matrix::zeros(x.len() / self.in_len, self.out_len);
        self.forward_into(x, out.as_mut_slice());
        out
    }

    /// As [`ConvPoolStack::forward`], written into `out` (`n * out_len`
    /// values, row-major) instead of a fresh matrix.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        let n = x.len() / self.in_len;
        assert_eq!(x.len(), n * self.in_len, "conv stack input length");
        assert_eq!(out.len(), n * self.out_len, "conv stack output length");
        // Resolved on the calling thread and handed to the workers.
        let is = crate::gemm::isa();
        let fm = crate::gemm::fast_math_active();
        let (in_len, out_len) = (self.in_len, self.out_len);
        let work = n * self.sample_work;
        par::for_each_row_block(out, out_len, work, |samples, chunk| {
            with_scratch(&STACK_SCRATCH, |buf| {
                // Zero the whole scratch once: the padded borders are never
                // written afterwards, the interiors are overwritten per sample.
                buf.clear();
                buf.resize(self.scratch_len, 0.0);
                for (si, i) in samples.enumerate() {
                    self.forward_one(
                        is,
                        fm,
                        &x[i * in_len..(i + 1) * in_len],
                        buf,
                        &mut chunk[si * out_len..(si + 1) * out_len],
                    );
                }
            });
        });
    }

    fn forward_one(&self, is: Isa, fm: bool, sample: &[f32], buf: &mut [f32], out: &mut [f32]) {
        let (planes, y) = buf.split_at_mut(self.y_at);
        let first = &self.stages[0];
        let (h, w, wp) = (first.h, first.w, first.wp());
        for c in 0..first.c_in {
            for r in 0..h {
                let dst = first.pad_at + (c * first.hp() + r + 1) * wp + 1;
                planes[dst..dst + w].copy_from_slice(&sample[(c * h + r) * w..(c * h + r + 1) * w]);
            }
        }
        for (s, stage) in self.stages.iter().enumerate() {
            let src = &planes[stage.pad_at..stage.pad_at + stage.pad_len()];
            conv_stage(stage, is, fm, src, y);
            match self.stages.get(s + 1) {
                // Pool straight into the next stage's padded interior.
                Some(next) => relu_pool(
                    stage,
                    y,
                    &mut planes[next.pad_at..next.pad_at + next.pad_len()],
                    next.wp() + 1,
                    next.hp() * next.wp(),
                    next.wp(),
                ),
                None => {
                    let (ho, wo) = (stage.h / 2, stage.w / 2);
                    relu_pool(stage, y, out, 0, ho * wo, wo);
                }
            }
        }
    }
}

/// Direct 3×3 conv of one stage: every output tile of `y` (`c_out × h*w`,
/// fully overwritten) on the chosen tier.
fn conv_stage(st: &StackStage, is: Isa, fm: bool, src: &[f32], y: &mut [f32]) {
    let (tw, nc) = match is {
        Isa::Scalar => (8, 4),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => (8, 8),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => (16, if st.c_out <= 8 { 8 } else { 16 }),
    };
    let hw = st.h * st.w;
    let mut t = Tile {
        q0: 0,
        qv: 0,
        co0: 0,
        cv: 0,
        segs: [Seg::default(); MAX_TILE],
        nseg: 0,
    };
    for q0 in (0..hw).step_by(tw) {
        t.set_pixels(q0, (hw - q0).min(tw), st.w, st.wp());
        for co0 in (0..st.c_out).step_by(nc) {
            t.co0 = co0;
            t.cv = (st.c_out - co0).min(nc);
            t.assert_in_bounds(st, nc, tw, src, y);
            match is {
                // The scalar tier has no FMA guarantee; fast-math requests
                // fall back to the deterministic chain (as in `gemm`).
                Isa::Scalar => tile_scalar(&t, st, src, y),
                // SAFETY: `isa()` returns these tiers only after runtime
                // detection of the matching CPU feature, `fm` is only true
                // when `fma` was detected (`fast_math_active`), and the tile
                // passed `assert_in_bounds` for this tier's `nc` and `tw`.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe {
                    if fm {
                        tile_avx2_fma(&t, st, src, y)
                    } else {
                        tile_avx2(&t, st, src, y)
                    }
                },
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe {
                    match (nc, fm) {
                        (8, false) => tile_avx512::<8, false>(&t, st, src, y),
                        (8, true) => tile_avx512::<8, true>(&t, st, src, y),
                        (_, false) => tile_avx512::<16, false>(&t, st, src, y),
                        (_, true) => tile_avx512::<16, true>(&t, st, src, y),
                    }
                },
            }
        }
    }
}

/// Portable tile kernel: 4 channels × 8 pixels of accumulators. Tap `p`'s
/// pixel row is gathered from the padded plane segment by segment (lanes
/// past `qv` stay zero and are never stored), then every accumulator takes
/// `acc + w·x` with separate mul and add.
#[inline(always)]
fn tile_scalar(t: &Tile, st: &StackStage, src: &[f32], y: &mut [f32]) {
    const NC: usize = 4;
    const TW: usize = 8;
    let (wt, off, ldw, hw) = (&st.wt[..], &st.off[..], st.ldw, st.h * st.w);
    let mut acc = [[0.0f32; TW]; NC];
    let mut b = [0.0f32; TW];
    let segs = t.segs();
    let full = segs.len() == 1 && segs[0].len == TW;
    for (p, &o) in off.iter().enumerate() {
        if full {
            b.copy_from_slice(&src[segs[0].base + o..segs[0].base + o + TW]);
        } else {
            for s in segs {
                b[s.lane..s.lane + s.len].copy_from_slice(&src[s.base + o..s.base + o + s.len]);
            }
        }
        let w: &[f32; NC] = wt[p * ldw + t.co0..p * ldw + t.co0 + NC]
            .try_into()
            .expect("weight row");
        for (acc_row, &wv) in acc.iter_mut().zip(w) {
            for (a, &bv) in acc_row.iter_mut().zip(&b) {
                *a += wv * bv;
            }
        }
    }
    for (j, acc_row) in acc.iter().enumerate().take(t.cv) {
        let o = (t.co0 + j) * hw + t.q0;
        y[o..o + t.qv].copy_from_slice(&acc_row[..t.qv]);
    }
}

/// AVX2 tile kernel: one ymm accumulator (8 pixels) per output channel,
/// eight channels per tile. Tap `p`'s pixels are one unaligned load from
/// the padded plane; a tile that spans rows or ends early gathers its
/// segments into a zero-padded lane buffer first.
///
/// # Safety
///
/// The CPU must support AVX2 (and FMA when `FMA`), and `t` must have
/// passed [`Tile::assert_in_bounds`] with `nc = 8`, `tw = 8`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_avx2_body<const FMA: bool>(t: &Tile, st: &StackStage, src: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::*;
    const NC: usize = 8;
    let (ldw, hw) = (st.ldw, st.h * st.w);
    let segs = t.segs();
    let full = segs.len() == 1 && segs[0].len == 8;
    // SAFETY: per `assert_in_bounds`, a full tile's load
    // `src[base + o..base + o + 8]` is in bounds for every tap; partial
    // tiles load from the local lane buffer. Weight reads stay within row
    // `p` (`co0 + 8 <= ldw`), and full-width stores only happen when all 8
    // pixels are real (`qv == 8`) inside `y`.
    unsafe {
        let sp = src.as_ptr();
        let mut lanes = [0.0f32; 8];
        let mut acc = [_mm256_setzero_ps(); NC];
        let mut wp = st.wt.as_ptr().add(t.co0);
        for &o in &st.off {
            let b = if full {
                _mm256_loadu_ps(sp.add(segs[0].base + o))
            } else {
                for s in segs {
                    lanes[s.lane..s.lane + s.len]
                        .copy_from_slice(&src[s.base + o..s.base + o + s.len]);
                }
                _mm256_loadu_ps(lanes.as_ptr())
            };
            for (j, a) in acc.iter_mut().enumerate() {
                let wv = _mm256_set1_ps(*wp.add(j));
                *a = if FMA {
                    _mm256_fmadd_ps(wv, b, *a)
                } else {
                    _mm256_add_ps(*a, _mm256_mul_ps(wv, b))
                };
            }
            wp = wp.add(ldw);
        }
        let yp = y.as_mut_ptr().add(t.q0);
        for (j, a) in acc.iter().enumerate().take(t.cv) {
            let dst = yp.add((t.co0 + j) * hw);
            if t.qv == 8 {
                _mm256_storeu_ps(dst, *a);
            } else {
                _mm256_storeu_ps(lanes.as_mut_ptr(), *a);
                std::ptr::copy_nonoverlapping(lanes.as_ptr(), dst, t.qv);
            }
        }
    }
}

/// # Safety
///
/// As [`tile_avx2_body`] without FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(t: &Tile, st: &StackStage, src: &[f32], y: &mut [f32]) {
    // SAFETY: forwarded from the caller.
    unsafe { tile_avx2_body::<false>(t, st, src, y) }
}

/// # Safety
///
/// As [`tile_avx2_body`] with FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_avx2_fma(t: &Tile, st: &StackStage, src: &[f32], y: &mut [f32]) {
    // SAFETY: forwarded from the caller.
    unsafe { tile_avx2_body::<true>(t, st, src, y) }
}

/// AVX-512 tile kernel: one zmm accumulator (16 pixels) per output channel.
/// Tap `p`'s pixels are one unaligned load from the padded plane, or one
/// masked load per row segment when the tile spans rows (the 8-wide stage's
/// tile is two half-loads) or ends early. `_mm512_mul_ps` +
/// `_mm512_add_ps` stay separate (no FMA) unless `FMA`, so each step rounds
/// exactly like the scalar chain.
///
/// # Safety
///
/// The CPU must support AVX-512F, and `t` must have passed
/// [`Tile::assert_in_bounds`] with `nc = NC`, `tw = 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const NC: usize, const FMA: bool>(
    t: &Tile,
    st: &StackStage,
    src: &[f32],
    y: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (ldw, hw) = (st.ldw, st.h * st.w);
    let segs = t.segs();
    // SAFETY: per `assert_in_bounds`, a segment's masked load touches only
    // lanes `lane..lane + len`, i.e. `src[base + o..base + o + len]`, in
    // bounds for every tap, and `base >= lane`, so the lane-0 pointer never
    // precedes `src`. Weight reads stay within row `p` (`co0 + NC <= ldw`);
    // stores are masked to the tile's `qv` pixels of its `cv` real channels.
    unsafe {
        let sp = src.as_ptr();
        let full = segs.len() == 1 && segs[0].len == 16;
        let masks: [__mmask16; MAX_TILE] = std::array::from_fn(|i| {
            segs.get(i)
                .map_or(0, |s| (((1u32 << s.len) - 1) << s.lane) as __mmask16)
        });
        let mut acc = [_mm512_setzero_ps(); NC];
        let mut wp = st.wt.as_ptr().add(t.co0);
        for &o in &st.off {
            let b = if full {
                _mm512_loadu_ps(sp.add(segs[0].base + o))
            } else {
                let mut b = _mm512_setzero_ps();
                for (s, &m) in segs.iter().zip(&masks) {
                    b = _mm512_mask_loadu_ps(b, m, sp.add(s.base + o - s.lane));
                }
                b
            };
            for (j, a) in acc.iter_mut().enumerate() {
                let wv = _mm512_set1_ps(*wp.add(j));
                *a = if FMA {
                    _mm512_fmadd_ps(wv, b, *a)
                } else {
                    _mm512_add_ps(*a, _mm512_mul_ps(wv, b))
                };
            }
            wp = wp.add(ldw);
        }
        let store = ((1u32 << t.qv) - 1) as __mmask16;
        let yp = y.as_mut_ptr().add(t.q0);
        for (j, a) in acc.iter().enumerate().take(t.cv) {
            _mm512_mask_storeu_ps(yp.add((t.co0 + j) * hw), store, *a);
        }
    }
}

/// Fused ReLU + 2×2 max pool of a stage output `y` (`c_out × h*w`): the
/// same `v.max(0.0)` and ascending `>` scan as a ReLU pass followed by
/// [`maxpool2`], written to `dst[origin + c*plane + oy*row + ox]` — the
/// next stage's padded interior, or the sample's output row.
fn relu_pool(
    stage: &StackStage,
    y: &[f32],
    dst: &mut [f32],
    origin: usize,
    plane: usize,
    row: usize,
) {
    let (h, w) = (stage.h, stage.w);
    let (ho, wo) = (h / 2, w / 2);
    // `v > best` from `best = -inf` always takes the first (non-NaN,
    // post-ReLU) value, so the scan is this chain of selects.
    let pick = |best: f32, v: f32| if v > best { v } else { best };
    for c in 0..stage.c_out {
        let yc = &y[c * h * w..(c + 1) * h * w];
        for oy in 0..ho {
            let r0 = &yc[2 * oy * w..2 * oy * w + 2 * wo];
            let r1 = &yc[(2 * oy + 1) * w..(2 * oy + 1) * w + 2 * wo];
            let d = origin + c * plane + oy * row;
            for ((dv, a), b) in dst[d..d + wo]
                .iter_mut()
                .zip(r0.chunks_exact(2))
                .zip(r1.chunks_exact(2))
            {
                let best = pick(a[0].max(0.0), a[1].max(0.0));
                *dv = pick(pick(best, b[0].max(0.0)), b[1].max(0.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended in these tests: they assert
    // exact constants and bit-reproducible results, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn conv_output_dims() {
        let m = ConvMeta {
            c_in: 3,
            h_in: 32,
            w_in: 32,
            c_out: 8,
            k: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(m.h_out(), 32);
        assert_eq!(m.w_out(), 32);
        assert_eq!(m.kernel_shape(), (8, 27));
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        let m = ConvMeta {
            c_in: 1,
            h_in: 2,
            w_in: 2,
            c_out: 1,
            k: 1,
            stride: 1,
            pad: 0,
        };
        let sample = [1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&sample, &m);
        assert_eq!(cols.shape(), (1, 4));
        assert_eq!(cols.as_slice(), &sample);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let m = ConvMeta {
            c_in: 1,
            h_in: 1,
            w_in: 1,
            c_out: 1,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let cols = im2col(&[7.0], &m);
        assert_eq!(cols.shape(), (9, 1));
        // Only the center tap sees the pixel.
        let center = 4;
        for r in 0..9 {
            let expect = if r == center { 7.0 } else { 0.0 };
            assert_eq!(cols.get(r, 0), expect);
        }
    }

    #[test]
    fn col2im_inverts_scatter() {
        let m = ConvMeta {
            c_in: 1,
            h_in: 3,
            w_in: 3,
            c_out: 1,
            k: 2,
            stride: 1,
            pad: 0,
        };
        let sample: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let cols = im2col(&sample, &m);
        // Scatter all-ones gradient back; each pixel gradient equals the
        // number of patches that cover it.
        let dcols = Matrix::filled(cols.rows(), cols.cols(), 1.0);
        let mut d = vec![0.0f32; 9];
        col2im_add(&dcols, &m, &mut d);
        // Corner covered once, edges twice, center four times.
        assert_eq!(d, vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn maxpool_picks_max_and_argmax() {
        let m = PoolMeta {
            channels: 1,
            h_in: 2,
            w_in: 2,
        };
        let (out, arg) = maxpool2(&[1.0, 5.0, 3.0, 2.0], &m);
        assert_eq!(out, vec![5.0]);
        assert_eq!(arg, vec![1]);
    }

    #[test]
    #[ignore = "manual perf probe: cargo test -p uvd-tensor --release -- --ignored probe_conv --nocapture"]
    fn probe_conv_breakdown() {
        let m = ConvMeta {
            c_in: 2,
            h_in: 32,
            w_in: 32,
            c_out: 8,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let n = 16;
        let mut rng = crate::init::seeded_rng(3);
        let x = crate::init::normal_matrix(n, m.in_len(), 0.0, 1.0, &mut rng);
        let kernel = {
            let (co, klen) = m.kernel_shape();
            crate::init::normal_matrix(co, klen, 0.0, 0.3, &mut rng)
        };
        let (co, klen) = m.kernel_shape();
        let hw = m.h_out() * m.w_out();
        let mut out = vec![0.0f32; n * m.out_len()];
        let time = |reps: usize, f: &mut dyn FnMut()| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t = std::time::Instant::now();
                f();
                best = best.min(t.elapsed().as_secs_f64());
            }
            best * 1e3
        };
        let full = time(30, &mut || conv2d_batch_to(&x, &kernel, &m, &mut out));
        let mut cols = Vec::new();
        let im2col_t = time(30, &mut || {
            for i in 0..n {
                im2col_into(x.row(i), &m, &mut cols);
            }
        });
        im2col_into(x.row(0), &m, &mut cols);
        let mut pack = Vec::new();
        let pack_b_t = time(30, &mut || {
            for _ in 0..n {
                crate::gemm::pack_b_into(&cols, klen, hw, false, &mut pack);
            }
        });
        let mut apack = Vec::new();
        crate::gemm::pack_a_into(kernel.as_slice(), co, klen, false, &mut apack);
        let gemm_t = time(30, &mut || {
            for i in 0..n {
                crate::gemm::matmul_prepacked_a(
                    &apack,
                    &cols,
                    false,
                    &mut out[i * m.out_len()..(i + 1) * m.out_len()],
                    co,
                    klen,
                    hw,
                    false,
                );
            }
        });
        let gf = (2 * n * co * klen * hw) as f64 / (full / 1e3) / 1e9;
        println!(
            "conv full {full:.3} ms ({gf:.2} GF/s) | im2col {im2col_t:.3} pack_b {pack_b_t:.3} gemm(incl pack_b) {gemm_t:.3}"
        );
    }

    #[test]
    fn batch_helpers_match_per_sample_loops() {
        // Large enough that `n * conv_sample_work` clears MIN_PAR_WORK, so
        // the with_threads(3) run actually exercises the partitioned path.
        let m = ConvMeta {
            c_in: 2,
            h_in: 16,
            w_in: 16,
            c_out: 3,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let n = 8;
        let x = Matrix::from_vec(
            n,
            m.in_len(),
            (0..n * m.in_len())
                .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.1)
                .collect(),
        );
        let kernel = Matrix::from_vec(
            m.c_out,
            m.kernel_shape().1,
            (0..m.c_out * m.kernel_shape().1)
                .map(|i| ((i * 13 % 11) as f32 - 5.0) * 0.2)
                .collect(),
        );
        let reference = {
            let mut v = Matrix::zeros(n, m.out_len());
            for i in 0..n {
                let cols = im2col(x.row(i), &m);
                v.row_mut(i)
                    .copy_from_slice(kernel.matmul(&cols).as_slice());
            }
            v
        };
        let serial = crate::par::serial_scope(|| conv2d_batch(&x, &kernel, &m));
        let parallel = crate::par::with_threads(3, || conv2d_batch(&x, &kernel, &m));
        assert_eq!(serial, reference);
        assert_eq!(parallel, reference, "batch partition must not change bits");

        let pm = PoolMeta {
            channels: 2,
            h_in: 16,
            w_in: 16,
        };
        let ps = crate::par::serial_scope(|| maxpool2_batch(&x, &pm));
        let pp = crate::par::with_threads(3, || maxpool2_batch(&x, &pm));
        assert_eq!(ps, pp);
    }
}
