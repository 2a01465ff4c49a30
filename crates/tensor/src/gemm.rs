//! Packed register-tiled GEMM microkernels behind the dense matmul family.
//!
//! Layout (DESIGN.md §9): both operands are repacked into contiguous panels —
//! the LHS into row panels of height `MR` stored k-major (`a[panel][p][i]`),
//! the RHS into column panels of width `NR` stored k-major (`b[panel][p][j]`)
//! — then an `MR×NR` register-tile microkernel sweeps the reduction dimension
//! with one scalar accumulator chain per output element. Packing makes the
//! microkernel's loads contiguous and unit-stride regardless of the logical
//! transpose (`nn`/`tn`/`nt` differ only in how panels are gathered), which
//! is what lets the auto-vectorizer turn the inner loop into broadcast ×
//! mul + add vector code.
//!
//! **Bit-identity invariant**: every output element is reduced by a single
//! accumulator in ascending-`k` order — the same chain as the pre-packing
//! naive kernels (frozen in [`crate::oracle`]) — and the `KC` blocking
//! read-modify-writes the output between blocks, which extends the chain
//! rather than splitting it. Tile shape (`MR`/`NR`) and thread partition only
//! change *which* elements a loop iteration touches, never the order within
//! one element's chain, so serial ≡ parallel ≡ oracle, bit for bit, on every
//! ISA tier. The SIMD tiers deliberately enable only plain vector math
//! (`avx2` / `avx512f`), never `fma`: a fused multiply-add would skip the
//! intermediate rounding and break the chain equality.
//!
//! Padding rows/columns of a partial tile are packed as `0.0` and the
//! microkernel never stores lanes `>= m_valid`/`n_valid`, so padded lanes
//! cannot leak (they may compute `0 * inf = NaN` internally, which is why
//! they must not be written back).

use crate::par;
use std::cell::Cell;
use std::sync::OnceLock;

/// Reduction-dimension block: bounds the panel slices the microkernel streams
/// (`KC*NR` + `KC*MR` floats ≈ 28 KiB at the widest tile) to L1-friendly
/// sizes. Blocking over `k` preserves per-element chains because the partial
/// sums are read back from `out` (see module docs).
const KC: usize = 256;

/// Pack-buffer stamp: never packed / explicitly invalidated.
pub(crate) const NEVER: u64 = 0;
/// Pack-buffer stamp: packed from a constant leaf, valid until invalidated.
pub(crate) const PERSISTENT: u64 = u64::MAX;

/// A cached RHS panel pack owned by a `Workspace` slot. `stamp` encodes
/// validity: [`PERSISTENT`] for constant operands, `epoch + 1` for operands
/// repacked once per replay, [`NEVER`] when stale.
#[derive(Default)]
pub(crate) struct PackedB {
    pub(crate) buf: Vec<f32>,
    pub(crate) stamp: u64,
}

/// Instruction-set tier picked once per process. The choice affects tile
/// shape (register budget) but not results: all tiers produce bit-identical
/// output (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// A tier request parsed from `UVD_GEMM_ISA`, before capability clamping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum IsaReq {
    Scalar,
    Avx2,
    Avx512,
}

/// Parse a `UVD_GEMM_ISA` value. Accepted: `scalar`, `avx2`, `avx512`
/// (lowercase, surrounding whitespace ignored). Anything else is rejected.
pub(crate) fn parse_isa(s: &str) -> Option<IsaReq> {
    match s.trim() {
        "scalar" => Some(IsaReq::Scalar),
        "avx2" => Some(IsaReq::Avx2),
        "avx512" => Some(IsaReq::Avx512),
        _ => None,
    }
}

pub(crate) fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        // Diagnostic override (`UVD_GEMM_ISA=scalar|avx2|avx512`): lets tests
        // and benches pin a tier below the detected one. Requests the CPU
        // cannot honor fall through to detection; unrecognized values warn
        // once and fall back to detection instead of being silently ignored.
        let forced = uvd_obs::env_knob("UVD_GEMM_ISA", "scalar, avx2, avx512", parse_isa);
        #[cfg(target_arch = "x86_64")]
        {
            if forced == Some(IsaReq::Scalar) {
                return Isa::Scalar;
            }
            let avx512 = std::arch::is_x86_feature_detected!("avx512f");
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            if avx512 && forced != Some(IsaReq::Avx2) {
                return Isa::Avx512;
            }
            if avx2 {
                return Isa::Avx2;
            }
        }
        let _ = forced;
        Isa::Scalar
    })
}

/// Microkernel tile shape `(MR, NR)` for the active ISA tier. Wide tiles need
/// the 16/32-register vector files; the scalar tier stays small to avoid
/// spills.
pub(crate) fn tiles() -> (usize, usize) {
    match isa() {
        Isa::Scalar => (4, 8),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => (6, 16),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => (12, 16),
    }
}

/// Length of the packed RHS buffer for a `k×n` operand (zero-padded to whole
/// `NR` panels).
pub(crate) fn packed_b_len(k: usize, n: usize) -> usize {
    let (_, nr) = tiles();
    n.div_ceil(nr) * nr * k
}

/// Pack the RHS into k-major column panels of width `NR`. `b_trans` selects
/// the logical layout: `false` reads a `k×n` row-major operand, `true` reads
/// an `n×k` operand as its transpose (the `nt` kernels). Partial panels are
/// zero-padded. The buffer is cleared and resized, so steady-state calls
/// reuse capacity without allocating.
pub(crate) fn pack_b_into(b: &[f32], k: usize, n: usize, b_trans: bool, buf: &mut Vec<f32>) {
    let (_, nr) = tiles();
    let panels = n.div_ceil(nr);
    let needed = panels * nr * k;
    if buf.len() != needed {
        buf.clear();
        buf.resize(needed, 0.0);
    } else if !n.is_multiple_of(nr) {
        // Same-size repack: full panels are overwritten completely, only the
        // last (partial) panel has padding lanes that must be re-zeroed so
        // stale values never leak into them.
        buf[(panels - 1) * nr * k..].fill(0.0);
    }
    for t in 0..panels {
        let j0 = t * nr;
        let jw = (n - j0).min(nr);
        let panel = &mut buf[t * nr * k..(t + 1) * nr * k];
        if b_trans {
            for j in 0..jw {
                let row = &b[(j0 + j) * k..(j0 + j + 1) * k];
                for (p, &v) in row.iter().enumerate() {
                    panel[p * nr + j] = v;
                }
            }
        } else {
            for p in 0..k {
                let src = &b[p * n + j0..p * n + j0 + jw];
                panel[p * nr..p * nr + jw].copy_from_slice(src);
            }
        }
    }
}

/// Pack the LHS into k-major row panels of height `MR`. `a_trans=false` reads
/// an `m×k` row-major operand; `true` reads a `k×m` operand as its transpose
/// (the `tn` kernels). Partial panels are zero-padded.
pub(crate) fn pack_a_into(a: &[f32], m: usize, k: usize, a_trans: bool, buf: &mut Vec<f32>) {
    let (mr, _) = tiles();
    let panels = m.div_ceil(mr);
    let needed = panels * mr * k;
    if buf.len() != needed {
        buf.clear();
        buf.resize(needed, 0.0);
    } else if !m.is_multiple_of(mr) {
        // See `pack_b_into`: only the partial tail panel needs re-zeroing.
        buf[(panels - 1) * mr * k..].fill(0.0);
    }
    for t in 0..panels {
        let i0 = t * mr;
        let iw = (m - i0).min(mr);
        let panel = &mut buf[t * mr * k..(t + 1) * mr * k];
        if a_trans {
            for p in 0..k {
                let row = &a[p * m..(p + 1) * m];
                for i in 0..iw {
                    panel[p * mr + i] = row[i0 + i];
                }
            }
        } else {
            for i in 0..iw {
                let row = &a[(i0 + i) * k..(i0 + i + 1) * k];
                for (p, &v) in row.iter().enumerate() {
                    panel[p * mr + i] = v;
                }
            }
        }
    }
}

/// Register-tile microkernel: a full `MR×NR` accumulator tile swept over `kc`
/// packed reduction steps. `accumulate=true` seeds each accumulator from the
/// existing output element (continuing its chain); `false` starts the chain
/// at `0.0` (the overwrite kernels). Only `mv×nv` lanes are stored.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn kern_body<const MR: usize, const NR: usize>(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    mv: usize,
    nv: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if accumulate {
        for (i, acc_row) in acc.iter_mut().enumerate().take(mv) {
            let row = &out[i * ldc..i * ldc + nv];
            acc_row[..nv].copy_from_slice(row);
        }
    }
    for p in 0..kc {
        let a: &[f32; MR] = a_panel[p * MR..p * MR + MR].try_into().expect("panel tile");
        let b: &[f32; NR] = b_panel[p * NR..p * NR + NR].try_into().expect("panel tile");
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let av = a[i];
            for (j, acc_el) in acc_row.iter_mut().enumerate() {
                // Separate mul + add, never fused: contraction would change
                // rounding and break bit-identity with the naive kernels.
                *acc_el += av * b[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(mv) {
        let row = &mut out[i * ldc..i * ldc + nv];
        row.copy_from_slice(&acc_row[..nv]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn kern_avx2(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    mv: usize,
    nv: usize,
    accumulate: bool,
) {
    kern_body::<6, 16>(a_panel, b_panel, kc, out, ldc, mv, nv, accumulate);
}

/// AVX-512 microkernel, written with explicit 512-bit intrinsics: the
/// auto-vectorizer will not form zmm accumulators from the generic body (it
/// sticks to 256-bit lanes and spills the 12×16 tile). Each accumulator row
/// is one zmm register; `_mm512_mul_ps` + `_mm512_add_ps` are deliberately
/// separate instructions (no FMA) so the rounding of every accumulation step
/// matches the scalar chain bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn kern_avx512(
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    mv: usize,
    nv: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    const MR: usize = 12;
    debug_assert!((1..=16).contains(&nv) && (1..=MR).contains(&mv));
    debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * 16);
    debug_assert!(out.len() >= (mv - 1) * ldc + nv);
    // SAFETY: all lane masks are `nv` wide and row offsets stay below
    // `(mv-1)*ldc + nv`, which the debug asserts above pin inside `out`;
    // panel reads are full tiles within the packed buffers.
    unsafe {
        let mask: __mmask16 = ((1u32 << nv) - 1) as __mmask16;
        let mut acc = [_mm512_setzero_ps(); MR];
        if accumulate {
            for (i, a) in acc.iter_mut().enumerate().take(mv) {
                *a = _mm512_maskz_loadu_ps(mask, out.as_ptr().add(i * ldc));
            }
        }
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..kc {
            let b = _mm512_loadu_ps(bp);
            for (i, a) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*ap.add(i));
                *a = _mm512_add_ps(*a, _mm512_mul_ps(av, b));
            }
            ap = ap.add(MR);
            bp = bp.add(16);
        }
        for (i, a) in acc.iter().enumerate().take(mv) {
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(i * ldc), mask, *a);
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn run_kern(
    is: Isa,
    a_panel: &[f32],
    b_panel: &[f32],
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    mv: usize,
    nv: usize,
    accumulate: bool,
) {
    match is {
        Isa::Scalar => kern_body::<4, 8>(a_panel, b_panel, kc, out, ldc, mv, nv, accumulate),
        // SAFETY: `isa()` only returns these tiers after runtime detection of
        // the matching CPU feature.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { kern_avx2(a_panel, b_panel, kc, out, ldc, mv, nv, accumulate) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { kern_avx512(a_panel, b_panel, kc, out, ldc, mv, nv, accumulate) },
    }
}

/// Drive the microkernel over fully packed operands. Output rows are
/// partitioned across threads in whole `MR`-row blocks (the workers read the
/// shared packed panels), so the per-element reduction chains are identical
/// at any thread count.
fn gemm_driver(
    a_pack: &[f32],
    b_pack: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty reduction: the product is all zeros. Accumulating kernels
        // leave the output untouched; overwriting kernels must store them.
        if !accumulate {
            out.fill(0.0);
        }
        return;
    }
    let is = isa();
    let (mr, nr) = tiles();
    let n_blocks = n.div_ceil(nr);
    let row_blocks = m.div_ceil(mr);
    par::for_each_disjoint(
        out,
        row_blocks,
        m * k * n,
        |t| (t * mr).min(m) * n,
        |blocks, chunk| {
            let row0 = (blocks.start * mr).min(m);
            for t in blocks {
                let i0 = t * mr;
                let mv = (m - i0).min(mr);
                let out_block = &mut chunk[(i0 - row0) * n..(i0 - row0) * n + mv * n];
                let a_panel = &a_pack[t * mr * k..(t + 1) * mr * k];
                let mut kb = 0;
                while kb < k {
                    let kc = (k - kb).min(KC);
                    let a_sl = &a_panel[kb * mr..(kb + kc) * mr];
                    let cont = accumulate || kb > 0;
                    for jb in 0..n_blocks {
                        let j0 = jb * nr;
                        let nv = (n - j0).min(nr);
                        let b_sl = &b_pack[jb * nr * k + kb * nr..jb * nr * k + (kb + kc) * nr];
                        run_kern(is, a_sl, b_sl, kc, &mut out_block[j0..], n, mv, nv, cont);
                    }
                    kb += kc;
                }
            }
        },
    );
}

/// True for the products the thin path serves instead of packing: `n == 1`
/// (a matrix–vector product — a GAT score projection, FusionAgg's `x·a`, a
/// d→1 classifier) and `k == 1` (an outer product — those projections'
/// `nt` backward). Packing would pad the single column to a whole `NR`
/// panel and run a mostly idle tile.
pub(crate) fn is_thin(m: usize, k: usize, n: usize) -> bool {
    m > 0 && k > 0 && (n == 1 || k == 1)
}

/// Unpacked driver for [`is_thin`] shapes. With `n == 1` the RHS is a
/// length-`k` vector and with `k == 1` both operands are vectors, whatever
/// their logical transposes, so only `a_trans` (for `n == 1`) changes how
/// an operand is read. Each output element keeps one accumulator chain in
/// ascending `k` — seeded from `out` when `accumulate`, else from `0.0` —
/// with the packed microkernels' step (`acc + a·b`, never fused), so it
/// matches the packed driver and the oracle bit for bit.
#[allow(clippy::too_many_arguments)]
fn thin_driver(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a_trans: bool,
    accumulate: bool,
) {
    let is = isa();
    let t = ThinArgs {
        a,
        b,
        m,
        k,
        n,
        a_trans,
        accumulate,
    };
    par::for_each_row_block(out, n, m * k * n, |rows, chunk| match is {
        Isa::Scalar => thin_body(&t, rows, chunk),
        // SAFETY: `isa()` only returns a SIMD tier after detecting at
        // least AVX2.
        #[cfg(target_arch = "x86_64")]
        _ => unsafe { thin_avx2(&t, rows, chunk) },
    });
}

/// Operands and shape of one [`thin_driver`] call.
struct ThinArgs<'a> {
    a: &'a [f32],
    b: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    a_trans: bool,
    accumulate: bool,
}

/// Rows interleaved by the `n == 1` row-dot loop: independent chains that
/// hide the add latency of each row's strictly serial reduction.
const THIN_ROWS: usize = 8;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn thin_avx2(t: &ThinArgs, rows: std::ops::Range<usize>, chunk: &mut [f32]) {
    thin_body(t, rows, chunk);
}

/// Output rows `rows` of a thin product into `chunk` (those rows only). Each
/// step is the microkernels' separate mul + add.
#[inline(always)]
fn thin_body(t: &ThinArgs, rows: std::ops::Range<usize>, chunk: &mut [f32]) {
    let (a, b, m, k, n) = (t.a, t.b, t.m, t.k, t.n);
    if !t.accumulate {
        chunk.fill(0.0);
    }
    if k == 1 {
        // Outer product: every element is a one-step chain.
        for (o_row, &av) in chunk.chunks_exact_mut(n).zip(&a[rows]) {
            for (o, &bv) in o_row.iter_mut().zip(&b[..n]) {
                *o += av * bv;
            }
        }
    } else if t.a_trans {
        // `a` is `k×m`: sweep its rows, each one step of every chain.
        for (p, &bp) in b[..k].iter().enumerate() {
            let a_row = &a[p * m + rows.start..p * m + rows.end];
            for (o, &av) in chunk.iter_mut().zip(a_row) {
                *o += av * bp;
            }
        }
    } else {
        // `a` is `m×k`: one row dot per element, `THIN_ROWS` at a time.
        let b = &b[..k];
        let a = &a[rows.start * k..rows.end * k];
        let mut blocks = chunk.chunks_exact_mut(THIN_ROWS);
        let mut a_blocks = a.chunks_exact(THIN_ROWS * k);
        for (o, a_blk) in (&mut blocks).zip(&mut a_blocks) {
            let mut acc = [0.0f32; THIN_ROWS];
            acc.copy_from_slice(o);
            for (p, &bp) in b.iter().enumerate() {
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    *acc_r += a_blk[r * k + p] * bp;
                }
            }
            o.copy_from_slice(&acc);
        }
        let tail = blocks.into_remainder();
        for (o, a_row) in tail.iter_mut().zip(a_blocks.remainder().chunks_exact(k)) {
            let mut acc = *o;
            for (&av, &bp) in a_row.iter().zip(b) {
                acc += av * bp;
            }
            *o = acc;
        }
    }
}

thread_local! {
    /// Per-thread pack scratch for kernels without a cached RHS pack (direct
    /// `Matrix` calls and the backward kernels). Grows once, then steady-state
    /// calls reuse capacity.
    ///
    /// Entries take the buffers out and put them back when done, never
    /// holding a borrow of the cell: the driver may dispatch to the pool,
    /// and a thread waiting on its scope helps run queued jobs — possibly
    /// another GEMM on this same thread. Such a nested call finds the cell
    /// empty and packs into fresh buffers instead of aliasing the outer ones.
    static PACK_SCRATCH: Cell<(Vec<f32>, Vec<f32>)> =
        const { Cell::new((Vec::new(), Vec::new())) };
}

/// Run `f` on this thread's pack scratch, taken out of [`PACK_SCRATCH`] for
/// the duration of the call.
fn with_pack_scratch(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>)) {
    let (mut pa, mut pb) = PACK_SCRATCH.take();
    f(&mut pa, &mut pb);
    PACK_SCRATCH.set((pa, pb));
}

/// General entry: pack both operands into thread-local scratch, then run the
/// driver. `m×k (op A) · k×n (op B)` with the transposes selecting how the
/// operands are read (see [`pack_a_into`] / [`pack_b_into`]). Thin shapes
/// ([`is_thin`]) skip packing for the unpacked [`thin_driver`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a_trans: bool,
    b_trans: bool,
    accumulate: bool,
) {
    if is_thin(m, k, n) {
        return thin_driver(a, b, out, m, k, n, a_trans, accumulate);
    }
    with_pack_scratch(|pa, pb| {
        pack_a_into(a, m, k, a_trans, pa);
        pack_b_into(b, k, n, b_trans, pb);
        gemm_driver(pa, pb, out, m, k, n, accumulate);
    });
}

/// Entry with a caller-cached RHS pack (a `Workspace` pack slot): only the
/// LHS is packed per call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_prepacked_b(
    a: &[f32],
    a_trans: bool,
    b_pack: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    debug_assert_eq!(b_pack.len(), packed_b_len(k, n), "stale RHS pack");
    with_pack_scratch(|pa, _| {
        pack_a_into(a, m, k, a_trans, pa);
        gemm_driver(pa, b_pack, out, m, k, n, accumulate);
    });
}

/// Entry with a caller-cached LHS pack (conv2d packs its kernel once per
/// batch): only the RHS is packed per call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_prepacked_a(
    a_pack: &[f32],
    b: &[f32],
    b_trans: bool,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    with_pack_scratch(|_, pb| {
        pack_b_into(b, k, n, b_trans, pb);
        gemm_driver(a_pack, pb, out, m, k, n, accumulate);
    });
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended: these tests assert bit-reproducible
    // kernels, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut rng = crate::init::seeded_rng(seed as u64);
        (0..len).map(|_| crate::init::normal(&mut rng)).collect()
    }

    #[test]
    fn packed_matches_naive_irregular_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (5, 3, 2),
            (13, 17, 9),
            (33, 70, 31),
            (6, 16, 16),
            (12, 300, 17), // crosses the KC boundary
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut out = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut out, m, k, n, false, false, true);
            assert_eq!(out, naive_nn(&a, &b, m, k, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn k_zero_yields_zeros_and_accumulate_preserves() {
        let (m, n) = (3, 4);
        let mut out = vec![7.0f32; m * n];
        // Overwrite semantics: k = 0 must store zeros.
        matmul_into(&[], &[], &mut out, m, 0, n, false, true, false);
        assert!(out.iter().all(|&x| x == 0.0));
        // Accumulate semantics: k = 0 adds nothing.
        let mut out = vec![7.0f32; m * n];
        matmul_into(&[], &[], &mut out, m, 0, n, false, false, true);
        assert!(out.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn isa_env_parser_accepts_known_tiers_only() {
        assert_eq!(parse_isa("scalar"), Some(IsaReq::Scalar));
        assert_eq!(parse_isa("avx2"), Some(IsaReq::Avx2));
        assert_eq!(parse_isa(" avx512 "), Some(IsaReq::Avx512));
        assert_eq!(parse_isa("AVX2"), None, "values are lowercase");
        assert_eq!(parse_isa("sse2"), None);
        assert_eq!(parse_isa("avx-512"), None);
        assert_eq!(parse_isa(""), None);
    }

    #[test]
    fn empty_output_shapes_are_noops() {
        let mut out: Vec<f32> = vec![];
        matmul_into(&[], &[1.0, 2.0], &mut out, 0, 2, 1, false, false, true);
        matmul_into(&[1.0, 2.0], &[], &mut out, 1, 2, 0, false, false, true);
    }

    #[test]
    fn padded_lanes_never_leak_non_finite() {
        // A non-finite operand must only affect the elements it really
        // contributes to. With m = n = 1 every padding lane of the tile
        // multiplies 0.0 * inf = NaN internally; none of it may be stored.
        let a = vec![2.0f32];
        let b = vec![f32::INFINITY];
        let mut out = vec![0.0f32; 1];
        matmul_into(&a, &b, &mut out, 1, 1, 1, false, false, true);
        assert_eq!(out[0], f32::INFINITY);
    }

    #[test]
    #[ignore = "manual perf probe: cargo test -p uvd-tensor --release -- --ignored probe --nocapture"]
    fn probe_thin_matmul_us() {
        for &(m, k) in &[(900usize, 16usize), (900, 32)] {
            let a = fill(m * k, 1);
            let b = fill(k, 2);
            let mut out = vec![0.0f32; m];
            let mut best = [f64::INFINITY; 2];
            for _ in 0..200 {
                for (slot, thin) in [(0, true), (1, false)] {
                    out.fill(0.0);
                    let t = std::time::Instant::now();
                    if thin {
                        matmul_into(&a, &b, &mut out, m, k, 1, false, false, true);
                    } else {
                        with_pack_scratch(|pa, pb| {
                            pack_a_into(&a, m, k, false, pa);
                            pack_b_into(&b, k, 1, false, pb);
                            gemm_driver(pa, pb, &mut out, m, k, 1, true);
                        });
                    }
                    best[slot] = best[slot].min(t.elapsed().as_secs_f64());
                    std::hint::black_box(&out);
                }
            }
            println!(
                "{m}x{k}x1: thin {:.2} us, packed {:.2} us",
                best[0] * 1e6,
                best[1] * 1e6
            );
        }
    }

    #[test]
    #[ignore = "manual perf probe: cargo test -p uvd-tensor --release -- --ignored probe --nocapture"]
    fn probe_matmul_gflops() {
        let n = 256;
        let a = fill(n * n, 1);
        let b = fill(n * n, 2);
        let mut out = vec![0.0f32; n * n];
        let mut best = f64::INFINITY;
        for _ in 0..15 {
            out.fill(0.0);
            let t = std::time::Instant::now();
            matmul_into(&a, &b, &mut out, n, n, n, false, false, true);
            best = best.min(t.elapsed().as_secs_f64());
        }
        let gflops = 2.0 * (n * n * n) as f64 / best / 1e9;
        println!("matmul_{n}: {:.3} ms  {:.1} GFLOP/s", best * 1e3, gflops);
    }
}
