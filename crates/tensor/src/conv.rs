//! im2col-based 2-D convolution and max-pooling kernels.
//!
//! Images are stored one per matrix row in `C*H*W` (channel-major) layout, so
//! a batch of `n` images of shape `(C, H, W)` is an `n × (C*H*W)` [`Matrix`].

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
