//! Sparse structures used by graph neural network layers: a CSR matrix for
//! GCN-style propagation and an edge index (sorted by destination) for
//! attention-style aggregation.

use crate::gemm::{self, Isa};
use crate::matrix::Matrix;
use crate::par;

/// Compressed sparse row matrix of `f32`.
#[derive(Clone, Debug)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

/// Exclusive prefix sums of `counts` into a CSR-style offset array of length
/// `counts.len() + 1` (`out[0] = 0`, `out[n] = total`).
fn prefix_offsets(counts: &[u32]) -> Vec<u32> {
    let mut ptr = vec![0u32; counts.len() + 1];
    for (i, &c) in counts.iter().enumerate() {
        ptr[i + 1] = ptr[i] + c;
    }
    ptr
}

impl Csr {
    /// Build from COO triplets; duplicate entries are summed.
    ///
    /// Ordering by `(row, col)` runs as a two-pass stable counting sort —
    /// O(nnz + rows + cols) instead of the comparison sort's
    /// O(nnz · log nnz) — with both key histograms computed in one parallel
    /// sweep. Equal keys are identical `(r, c)` cells whose values are
    /// summed anyway, so the result is elementwise equal to the old
    /// `sort_unstable_by_key` construction.
    pub fn from_coo(rows: usize, cols: usize, coo: Vec<(u32, u32, f32)>) -> Self {
        let nnz = coo.len();
        if nnz == 0 {
            return Csr {
                rows,
                cols,
                indptr: vec![0u32; rows + 1],
                indices: Vec::new(),
                values: Vec::new(),
            };
        }
        // One parallel sweep for both pass histograms (and the bounds
        // check, so a bad triplet panics before any scatter).
        let mut parts = par::map_chunks(nnz, nnz, |range| {
            let mut hr = vec![0u32; rows];
            let mut hc = vec![0u32; cols];
            for &(r, c, _) in &coo[range] {
                assert!(
                    (r as usize) < rows && (c as usize) < cols,
                    "coo out of bounds"
                );
                hr[r as usize] += 1;
                hc[c as usize] += 1;
            }
            (hr, hc)
        })
        .into_iter();
        let (mut h_row, mut h_col) = parts.next().expect("at least one chunk");
        for (pr, pc) in parts {
            for (t, p) in h_row.iter_mut().zip(pr) {
                *t += p;
            }
            for (t, p) in h_col.iter_mut().zip(pc) {
                *t += p;
            }
        }
        // Pass 1: stable scatter by column.
        let mut next = prefix_offsets(&h_col);
        let mut by_col: Vec<(u32, u32, f32)> = vec![(0, 0, 0.0); nnz];
        for &(r, c, v) in &coo {
            let pos = next[c as usize] as usize;
            next[c as usize] += 1;
            by_col[pos] = (r, c, v);
        }
        // Pass 2: stable scatter by row — equal-row runs stay col-sorted.
        let mut next = prefix_offsets(&h_row);
        let mut sorted: Vec<(u32, u32, f32)> = vec![(0, 0, 0.0); nnz];
        for &(r, c, v) in &by_col {
            let pos = next[r as usize] as usize;
            next[r as usize] += 1;
            sorted[pos] = (r, c, v);
        }
        // Dedup-sum over the sorted triplets, exactly as before.
        let mut indptr = vec![0u32; rows + 1];
        let mut indices: Vec<u32> = Vec::with_capacity(nnz);
        let mut values: Vec<f32> = Vec::with_capacity(nnz);
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                *values.last_mut().expect("non-empty after a push") += v;
            } else {
                indices.push(c);
                values.push(v);
                indptr[r as usize + 1] += 1;
                last = Some((r, c));
            }
        }
        for i in 1..indptr.len() {
            indptr[i] += indptr[i - 1];
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Iterate the non-zeros of one row as `(col, value)` pairs.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.indptr[r] as usize;
        let hi = self.indptr[r + 1] as usize;
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse × dense product: `self * x`. Output rows are partitioned
    /// across threads; each row reduces its non-zeros in CSR order, so the
    /// result is bit-identical to the serial loop at any thread count.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_to(x, out.as_mut_slice());
        out
    }

    /// Overwrite a caller-owned buffer with `self * x`. Seeds every
    /// accumulator chain at literal `0.0` instead of loading the buffer —
    /// bit-identical to zero-filling and then calling [`Csr::spmm_acc`]
    /// (the chains are the same; only the redundant zero pass and the
    /// output-row read are gone), and what the plan replay runs per epoch.
    pub fn spmm_to(&self, x: &Matrix, out: &mut [f32]) {
        self.spmm_dispatch(x, out, false);
    }

    /// Accumulate `self * x` into a caller-owned (pre-zeroed) buffer. Same
    /// partitioning and reduction order as [`Csr::spmm`], so bit-equal.
    ///
    /// Register-tiled like the dense GEMM (DESIGN.md §9): each output row is
    /// processed in `NR`-wide column panels of `x`, holding the panel's
    /// partial sums in register accumulators across the whole non-zero sweep
    /// instead of read-modify-writing the output row once per non-zero.
    /// Per output element the reduction is still one accumulator chain in
    /// ascending CSR (`k`) order seeded from the existing output value —
    /// panel width and ISA tier change only *which* elements an iteration
    /// touches, so every tier stays bit-identical to the naive row loop
    /// (frozen as [`crate::oracle::naive_spmm`]). Under `UVD_FAST_MATH=1`
    /// the panel step becomes a fused multiply-add (rounding-level
    /// difference only; see [`crate::fastmath`]).
    pub fn spmm_acc(&self, x: &Matrix, out: &mut [f32]) {
        self.spmm_dispatch(x, out, true);
    }

    fn spmm_dispatch(&self, x: &Matrix, out: &mut [f32], acc: bool) {
        assert_eq!(
            self.cols,
            x.rows(),
            "spmm: {}x{} * {}x{}",
            self.rows,
            self.cols,
            x.rows(),
            x.cols()
        );
        let n = x.cols();
        assert_eq!(out.len(), self.rows * n, "spmm output buffer size");
        let work = self.nnz() * n;
        let is = gemm::isa();
        // Resolved on the calling thread so `with_fast_math` scopes reach
        // the pool workers.
        let fm = gemm::fast_math_active();
        par::for_each_row_block(out, n, work, |rows, chunk| {
            spmm_rows(
                is,
                fm,
                acc,
                &self.indptr,
                &self.indices,
                &self.values,
                x.as_slice(),
                n,
                rows,
                chunk,
            );
        });
    }

    /// Transposed copy: direct `O(nnz)` counting-sort construction (count
    /// entries per column, prefix-sum into the new `indptr`, then scatter).
    /// CSR rows are already deduplicated and column-sorted, so a stable
    /// row-order scatter yields sorted output rows — identical to the old
    /// COO rebuild without its sort.
    pub fn transpose(&self) -> Csr {
        let nnz = self.nnz();
        let mut indptr = vec![0u32; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            indptr[i + 1] += indptr[i];
        }
        let mut next: Vec<u32> = indptr[..self.cols].to_vec();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        for r in 0..self.rows {
            let (lo, hi) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            for k in lo..hi {
                let c = self.indices[k] as usize;
                let pos = next[c] as usize;
                next[c] += 1;
                indices[pos] = r as u32;
                values[pos] = self.values[k];
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Extract the induced square submatrix at `nodes` (strictly ascending
    /// old ids). Entry `(i, j)` of the result is the entry at
    /// `(nodes[i], nodes[j])` of `self`, with its stored value **gathered
    /// verbatim** — never renormalized — so a sampled block of a
    /// `sym_normalized` adjacency reproduces the full graph's edge weights
    /// exactly. Because `nodes` is ascending and rows are column-sorted,
    /// the relabeling is monotone and the output rows stay sorted without a
    /// re-sort, keeping per-row accumulation order in `spmm` identical to
    /// the corresponding rows of the full product.
    pub fn induced_subgraph(&self, nodes: &[u32]) -> Csr {
        assert_eq!(self.rows, self.cols, "induced_subgraph requires square");
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
        let mut map = vec![u32::MAX; self.cols];
        for (new, &old) in nodes.iter().enumerate() {
            map[old as usize] = new as u32;
        }
        let m = nodes.len();
        // Two-pass parallel build: count survivors per output row, prefix
        // into `indptr`, then fill each row's exact slice. Values are
        // gathered verbatim in per-row CSR order, so chunking cannot change
        // a single bit; the fill partitions both output arrays at row
        // boundaries (each element has one writer).
        let scan_work: usize = nodes
            .iter()
            .map(|&r| (self.indptr[r as usize + 1] - self.indptr[r as usize]) as usize)
            .sum();
        let count_parts = par::map_chunks(m, scan_work, |r_range| {
            let mut part = Vec::with_capacity(r_range.len());
            for &old_r in &nodes[r_range] {
                let survivors = self
                    .row_iter(old_r as usize)
                    .filter(|&(c, _)| map[c as usize] != u32::MAX)
                    .count();
                part.push(survivors as u32);
            }
            part
        });
        let counts: Vec<u32> = count_parts.into_iter().flatten().collect();
        let indptr = prefix_offsets(&counts);
        let nnz = indptr[m] as usize;
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        par::for_each_disjoint2(
            &mut indices,
            &mut values,
            m,
            scan_work,
            |i| indptr[i] as usize,
            |rows, idx_chunk, val_chunk| {
                let mut pos = 0usize;
                for new_r in rows {
                    for (c, v) in self.row_iter(nodes[new_r] as usize) {
                        let new_c = map[c as usize];
                        if new_c != u32::MAX {
                            idx_chunk[pos] = new_c;
                            val_chunk[pos] = v;
                            pos += 1;
                        }
                    }
                }
                debug_assert_eq!(pos, idx_chunk.len(), "count/fill mismatch");
            },
        );
        Csr {
            rows: m,
            cols: m,
            indptr,
            indices,
            values,
        }
    }

    /// Gather a subset of rows (in the given order) keeping the full column
    /// space: row `i` of the result is row `rows[i]` of `self`, values
    /// copied verbatim.
    pub fn gather_rows(&self, rows: &[u32]) -> Csr {
        let mut indptr = vec![0u32; rows.len() + 1];
        let mut nnz = 0usize;
        for (i, &r) in rows.iter().enumerate() {
            let r = r as usize;
            assert!(r < self.rows, "gather_rows out of bounds");
            nnz += (self.indptr[r + 1] - self.indptr[r]) as usize;
            indptr[i + 1] = nnz as u32;
        }
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let (lo, hi) = (
                self.indptr[r as usize] as usize,
                self.indptr[r as usize + 1] as usize,
            );
            indices.extend_from_slice(&self.indices[lo..hi]);
            values.extend_from_slice(&self.values[lo..hi]);
        }
        Csr {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Symmetric normalization `D^{-1/2} (A) D^{-1/2}` (GCN, Kipf & Welling).
    /// The caller is expected to have added self-loops already if desired.
    ///
    /// The output has exactly this matrix's sparsity structure, so instead
    /// of rebuilding through COO (sort + dedup) the structure is cloned and
    /// only the values are rescaled, row-parallel.
    pub fn sym_normalized(&self) -> Csr {
        assert_eq!(self.rows, self.cols, "sym_normalized requires square");
        let mut deg = vec![0.0f32; self.rows];
        for (r, d) in deg.iter_mut().enumerate() {
            for (_, v) in self.row_iter(r) {
                *d += v;
            }
        }
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut values = self.values.clone();
        par::for_each_disjoint(
            &mut values,
            self.rows,
            self.nnz() * 3,
            |r| self.indptr[r] as usize,
            |rows, chunk| {
                let base = self.indptr[rows.start] as usize;
                for r in rows {
                    let lo = self.indptr[r] as usize;
                    let hi = self.indptr[r + 1] as usize;
                    for k in lo..hi {
                        let c = self.indices[k] as usize;
                        chunk[k - base] *= inv_sqrt[r] * inv_sqrt[c];
                    }
                }
            },
        );
        Csr {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values,
        }
    }
}

/// Dispatch one worker chunk of spmm output rows to the ISA-tier kernel.
/// Tier selection affects panel width only, never results (deterministic
/// mode) — see [`Csr::spmm_acc`].
#[allow(clippy::too_many_arguments)]
fn spmm_rows(
    is: Isa,
    fm: bool,
    acc: bool,
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    xs: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    chunk: &mut [f32],
) {
    match is {
        // Scalar tier: no FMA hardware guarantee, fast-math requests fall
        // back to the deterministic chain (same policy as the GEMM driver).
        Isa::Scalar => spmm_rows_body::<8, false>(acc, indptr, indices, values, xs, n, rows, chunk),
        // SAFETY: `gemm::isa()` only returns these tiers after runtime
        // feature detection, and `fm` is only true when `fma` was detected.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            if fm {
                spmm_rows_avx2_fma(acc, indptr, indices, values, xs, n, rows, chunk)
            } else {
                spmm_rows_avx2(acc, indptr, indices, values, xs, n, rows, chunk)
            }
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            if fm {
                spmm_rows_avx512_fma(acc, indptr, indices, values, xs, n, rows, chunk)
            } else {
                spmm_rows_avx512(acc, indptr, indices, values, xs, n, rows, chunk)
            }
        },
    }
}

/// Generic register-tiled spmm row kernel. For each output row, sweep the
/// row's non-zeros once per `NR`-wide column panel, keeping the panel's
/// partial sums in a register accumulator array. `FMA=true` fuses the
/// multiply-add (fast-math tier); `false` keeps separate mul + add
/// (bit-identical to the naive row loop). The column tail (`n % NR`) runs
/// the same ascending-`k` chains at the leftover width.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn spmm_rows_body<const NR: usize, const FMA: bool>(
    acc_seed: bool,
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    xs: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    chunk: &mut [f32],
) {
    let panels = n / NR;
    for (ri, r) in rows.enumerate() {
        let lo = indptr[r] as usize;
        let hi = indptr[r + 1] as usize;
        let o_row = &mut chunk[ri * n..(ri + 1) * n];
        for t in 0..panels {
            let j0 = t * NR;
            let mut acc = [0.0f32; NR];
            if acc_seed {
                acc.copy_from_slice(&o_row[j0..j0 + NR]);
            }
            for k in lo..hi {
                let c = indices[k] as usize;
                let v = values[k];
                let xp: &[f32; NR] = xs[c * n + j0..c * n + j0 + NR]
                    .try_into()
                    .expect("panel slice");
                for (a, &xv) in acc.iter_mut().zip(xp.iter()) {
                    if FMA {
                        *a = v.mul_add(xv, *a);
                    } else {
                        // Separate mul + add, never fused: keeps the chain
                        // bit-identical to the naive kernel.
                        *a += v * xv;
                    }
                }
            }
            o_row[j0..j0 + NR].copy_from_slice(&acc);
        }
        let j0 = panels * NR;
        if j0 < n {
            let w = n - j0;
            let mut acc = [0.0f32; NR];
            if acc_seed {
                acc[..w].copy_from_slice(&o_row[j0..]);
            }
            for k in lo..hi {
                let c = indices[k] as usize;
                let v = values[k];
                let xp = &xs[c * n + j0..c * n + j0 + w];
                for (a, &xv) in acc[..w].iter_mut().zip(xp.iter()) {
                    if FMA {
                        *a = v.mul_add(xv, *a);
                    } else {
                        *a += v * xv;
                    }
                }
            }
            o_row[j0..].copy_from_slice(&acc[..w]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn spmm_rows_avx2(
    acc: bool,
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    xs: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    chunk: &mut [f32],
) {
    spmm_rows_body::<16, false>(acc, indptr, indices, values, xs, n, rows, chunk);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn spmm_rows_avx2_fma(
    acc: bool,
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    xs: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    chunk: &mut [f32],
) {
    spmm_rows_body::<16, true>(acc, indptr, indices, values, xs, n, rows, chunk);
}

/// AVX-512 tier: 64-wide panels (four zmm accumulator chains per panel,
/// amortizing each non-zero's index/value load over four vector FLOPs).
/// Panel width cannot change results — it only picks which elements a sweep
/// touches — so the width is shared by the deterministic and fast variants.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn spmm_rows_avx512(
    acc: bool,
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    xs: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    chunk: &mut [f32],
) {
    spmm_rows_body::<64, false>(acc, indptr, indices, values, xs, n, rows, chunk);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn spmm_rows_avx512_fma(
    acc: bool,
    indptr: &[u32],
    indices: &[u32],
    values: &[f32],
    xs: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    chunk: &mut [f32],
) {
    spmm_rows_body::<64, true>(acc, indptr, indices, values, xs, n, rows, chunk);
}

/// Directed edge list sorted by destination node, with CSR-style offsets per
/// destination. `src[e]` is the message sender, `dst[e]` the receiver; all
/// edges with the same destination are contiguous.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    n_nodes: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    /// `dst_ptr[i]..dst_ptr[i+1]` is the edge range whose destination is `i`.
    dst_ptr: Vec<u32>,
}

impl EdgeIndex {
    /// Build from `(src, dst)` pairs. Pairs are sorted by destination.
    ///
    /// The `(dst, src)` ordering runs as a two-pass stable counting sort —
    /// O(E + n) instead of O(E · log E) — with both key histograms computed
    /// in one parallel sweep. Equal `(dst, src)` duplicates are identical
    /// pairs, so the edge arrays are elementwise equal to the old
    /// `sort_unstable_by_key` construction.
    pub fn from_pairs(n_nodes: usize, pairs: Vec<(u32, u32)>) -> Self {
        let ne = pairs.len();
        if ne == 0 {
            return EdgeIndex {
                n_nodes,
                src: Vec::new(),
                dst: Vec::new(),
                dst_ptr: vec![0u32; n_nodes + 1],
            };
        }
        let mut parts = par::map_chunks(ne, ne, |range| {
            let mut hs = vec![0u32; n_nodes];
            let mut hd = vec![0u32; n_nodes];
            for &(s, d) in &pairs[range] {
                assert!(
                    (s as usize) < n_nodes && (d as usize) < n_nodes,
                    "edge out of bounds"
                );
                hs[s as usize] += 1;
                hd[d as usize] += 1;
            }
            (hs, hd)
        })
        .into_iter();
        let (mut h_src, mut h_dst) = parts.next().expect("at least one chunk");
        for (ps, pd) in parts {
            for (t, p) in h_src.iter_mut().zip(ps) {
                *t += p;
            }
            for (t, p) in h_dst.iter_mut().zip(pd) {
                *t += p;
            }
        }
        // Pass 1: stable scatter by source.
        let mut next = prefix_offsets(&h_src);
        let mut by_src: Vec<(u32, u32)> = vec![(0, 0); ne];
        for &(s, d) in &pairs {
            let pos = next[s as usize] as usize;
            next[s as usize] += 1;
            by_src[pos] = (s, d);
        }
        // Pass 2: stable scatter by destination — equal-dst runs stay
        // src-sorted, which is the `(dst, src)` order the kernels require.
        let dst_ptr = prefix_offsets(&h_dst);
        let mut next = dst_ptr.clone();
        let mut src = vec![0u32; ne];
        let mut dst = vec![0u32; ne];
        for &(s, d) in &by_src {
            let pos = next[d as usize] as usize;
            next[d as usize] += 1;
            src[pos] = s;
            dst[pos] = d;
        }
        EdgeIndex {
            n_nodes,
            src,
            dst,
            dst_ptr,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    pub fn n_edges(&self) -> usize {
        self.src.len()
    }

    pub fn src(&self) -> &[u32] {
        &self.src
    }

    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Per-destination CSR offsets: `dst_ptr()[i]..dst_ptr()[i+1]` is the
    /// edge range whose destination is `i` (length `n_nodes + 1`). Used by
    /// the parallel edge kernels to align chunk boundaries to destinations.
    pub fn dst_ptr(&self) -> &[u32] {
        &self.dst_ptr
    }

    /// Edge id range with destination `i`.
    pub fn incoming(&self, i: usize) -> std::ops::Range<usize> {
        self.dst_ptr[i] as usize..self.dst_ptr[i + 1] as usize
    }

    /// In-degree of node `i`.
    pub fn in_degree(&self, i: usize) -> usize {
        (self.dst_ptr[i + 1] - self.dst_ptr[i]) as usize
    }

    /// Extract the induced edge set at `nodes` (strictly ascending old
    /// ids), relabeled to `0..nodes.len()`. An edge survives iff both its
    /// endpoints are in `nodes`. The relabeling is monotone, so the
    /// `(dst, src)` grouping order — and therefore the per-destination
    /// accumulation order of every attention kernel — matches the
    /// corresponding destinations of the full graph exactly.
    pub fn induced_subgraph(&self, nodes: &[u32]) -> EdgeIndex {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
        let mut map = vec![u32::MAX; self.n_nodes];
        for (new, &old) in nodes.iter().enumerate() {
            map[old as usize] = new as u32;
        }
        let m = nodes.len();
        // Direct two-pass build, no re-sort: edges are already grouped by
        // destination with ascending sources inside each group, and the
        // relabeling is monotone — walking the surviving destinations in
        // order therefore *is* the `(dst, src)` order `from_pairs` would
        // sort into. Count survivors per new destination, prefix into
        // `dst_ptr`, then fill each destination's exact edge slice (row-
        // partitioned, one writer per element, verbatim copies — bitwise
        // equal to the old build-pairs-and-re-sort path at any thread
        // count).
        let scan_work: usize = nodes.iter().map(|&d| self.in_degree(d as usize)).sum();
        let count_parts = par::map_chunks(m, scan_work, |d_range| {
            let mut part = Vec::with_capacity(d_range.len());
            for &old_d in &nodes[d_range] {
                let survivors = self
                    .incoming(old_d as usize)
                    .filter(|&eid| map[self.src[eid] as usize] != u32::MAX)
                    .count();
                part.push(survivors as u32);
            }
            part
        });
        let counts: Vec<u32> = count_parts.into_iter().flatten().collect();
        let dst_ptr = prefix_offsets(&counts);
        let ne = dst_ptr[m] as usize;
        let mut src = vec![0u32; ne];
        let mut dst = vec![0u32; ne];
        par::for_each_disjoint2(
            &mut src,
            &mut dst,
            m,
            scan_work,
            |i| dst_ptr[i] as usize,
            |dsts, src_chunk, dst_chunk| {
                let mut pos = 0usize;
                for new_d in dsts {
                    for eid in self.incoming(nodes[new_d] as usize) {
                        let new_s = map[self.src[eid] as usize];
                        if new_s != u32::MAX {
                            src_chunk[pos] = new_s;
                            dst_chunk[pos] = new_d as u32;
                            pos += 1;
                        }
                    }
                }
                debug_assert_eq!(pos, src_chunk.len(), "count/fill mismatch");
            },
        );
        EdgeIndex {
            n_nodes: m,
            src,
            dst,
            dst_ptr,
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
    fn csr_spmm_matches_dense() {
        let coo = vec![(0, 1, 2.0), (1, 0, 3.0), (1, 2, 1.0), (2, 2, 4.0)];
        let a = Csr::from_coo(3, 3, coo);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let y = a.spmm(&x);
        let dense = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[3.0, 0.0, 1.0], &[0.0, 0.0, 4.0]]);
        assert_eq!(y, dense.matmul(&x));
    }

    #[test]
    fn csr_duplicates_summed() {
        let a = Csr::from_coo(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)]);
        assert_eq!(a.nnz(), 2);
        let x = Matrix::eye(2);
        let y = a.spmm(&x);
        assert_eq!(y.get(0, 0), 3.0);
        assert_eq!(y.get(1, 1), 5.0);
    }

    #[test]
    fn csr_empty_rows_ok() {
        let a = Csr::from_coo(4, 4, vec![(3, 0, 1.0)]);
        let x = Matrix::eye(4);
        let y = a.spmm(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert_eq!(y.get(3, 0), 1.0);
    }

    #[test]
    fn csr_transpose_roundtrip() {
        let a = Csr::from_coo(2, 3, vec![(0, 2, 1.5), (1, 0, -2.0)]);
        let att = a.transpose().transpose();
        let x = Matrix::eye(3);
        assert_eq!(a.spmm(&x), att.spmm(&x));
    }

    #[test]
    fn sym_normalized_row_scale() {
        // Path graph 0-1 with self loops: degrees 2,2 after loops.
        let coo = vec![(0, 0, 1.0), (1, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)];
        let a = Csr::from_coo(2, 2, coo).sym_normalized();
        let x = Matrix::eye(2);
        let y = a.spmm(&x);
        assert!((y.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((y.get(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn spmm_tiled_matches_naive_oracle_and_fast_math_is_close() {
        let mut rng = crate::init::seeded_rng(42);
        let (rows, cols, n) = (37, 29, 23); // tile-irregular everywhere
        let mut coo = Vec::new();
        for r in 0..rows as u32 {
            if r % 5 == 3 {
                continue; // leave some rows empty
            }
            for _ in 0..(r % 7) {
                let c = (crate::init::normal(&mut rng).abs() * 7.0) as u32 % cols as u32;
                coo.push((r, c, crate::init::normal(&mut rng)));
            }
        }
        let a = Csr::from_coo(rows, cols, coo);
        let x = crate::init::normal_matrix(cols, n, 0.0, 1.0, &mut rng);
        let tiled = a.spmm(&x);
        let oracle = crate::oracle::naive_spmm(&a, &x);
        assert_eq!(tiled.as_slice(), oracle.as_slice());
        let fast = crate::fastmath::with_fast_math(true, || a.spmm(&x));
        for (d, f) in oracle.as_slice().iter().zip(fast.as_slice()) {
            assert!((d - f).abs() <= 1e-5 * d.abs().max(1.0), "det {d} fast {f}");
        }
    }

    #[test]
    #[ignore = "manual perf probe: cargo test -p uvd-tensor --release -- --ignored probe_spmm --nocapture"]
    fn probe_spmm_gflops() {
        let nodes = 2000;
        let n = 64;
        let per_row = 8;
        let mut rng = crate::init::seeded_rng(5);
        let mut coo = Vec::new();
        for r in 0..nodes as u32 {
            for j in 0..per_row {
                coo.push((r, (r + j * 131) % nodes as u32, 1.0 / per_row as f32));
            }
        }
        let a = Csr::from_coo(nodes, nodes, coo);
        let x = crate::init::normal_matrix(nodes, n, 0.0, 1.0, &mut rng);
        for (label, fm) in [("det", false), ("fast", true)] {
            crate::fastmath::with_fast_math(fm, || {
                let mut best = f64::INFINITY;
                let mut out = vec![0.0f32; nodes * n];
                for _ in 0..20 {
                    out.fill(0.0);
                    let t = std::time::Instant::now();
                    a.spmm_acc(&x, &mut out);
                    best = best.min(t.elapsed().as_secs_f64());
                }
                let gflops = (2 * a.nnz() * n) as f64 / best / 1e9;
                println!("spmm {label}: {:.3} ms  {gflops:.2} GFLOP/s", best * 1e3);
            });
        }
    }

    #[test]
    fn induced_subgraph_gathers_values_verbatim() {
        // Path 0-1-2-3 with self loops, normalized: induced block at
        // {0,1,2} must carry the *full-graph* normalized weights, not a
        // renormalization of the 3-node path.
        let mut coo = Vec::new();
        for i in 0..4u32 {
            coo.push((i, i, 1.0));
        }
        for i in 0..3u32 {
            coo.push((i, i + 1, 1.0));
            coo.push((i + 1, i, 1.0));
        }
        let a = Csr::from_coo(4, 4, coo).sym_normalized();
        let sub = a.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.rows(), 3);
        assert_eq!(sub.cols(), 3);
        for (new_r, &old_r) in [0u32, 1, 2].iter().enumerate() {
            let full: Vec<(u32, f32)> =
                a.row_iter(old_r as usize).filter(|&(c, _)| c < 3).collect();
            let got: Vec<(u32, f32)> = sub.row_iter(new_r).collect();
            assert_eq!(got, full, "row {old_r}");
        }
    }

    #[test]
    fn induced_subgraph_relabels_monotonically() {
        let coo = vec![(0, 5, 1.0), (5, 0, 2.0), (5, 9, 3.0), (9, 5, 4.0)];
        let a = Csr::from_coo(10, 10, coo);
        let sub = a.induced_subgraph(&[0, 5, 9]);
        assert_eq!(sub.row_iter(0).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert_eq!(
            sub.row_iter(1).collect::<Vec<_>>(),
            vec![(0, 2.0), (2, 3.0)]
        );
        assert_eq!(sub.row_iter(2).collect::<Vec<_>>(), vec![(1, 4.0)]);
    }

    #[test]
    fn gather_rows_copies_rows_in_order() {
        let a = Csr::from_coo(3, 4, vec![(0, 1, 1.0), (1, 3, 2.0), (2, 0, 3.0)]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.row_iter(0).collect::<Vec<_>>(), vec![(0, 3.0)]);
        assert_eq!(g.row_iter(1).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert_eq!(g.row_iter(2).collect::<Vec<_>>(), vec![(0, 3.0)]);
    }

    #[test]
    fn edge_index_induced_subgraph_keeps_dst_grouping() {
        let e = EdgeIndex::from_pairs(
            6,
            vec![(0, 2), (1, 2), (4, 2), (2, 4), (5, 4), (3, 0), (0, 3)],
        );
        let sub = e.induced_subgraph(&[0, 2, 4]);
        assert_eq!(sub.n_nodes(), 3);
        // Surviving edges: 0->2, 4->2, 2->4 relabeled to 0->1, 2->1, 1->2.
        assert_eq!(sub.n_edges(), 3);
        assert_eq!(sub.incoming(1), 0..2);
        assert_eq!(sub.src()[0], 0);
        assert_eq!(sub.src()[1], 2);
        assert_eq!(sub.incoming(2), 2..3);
        assert_eq!(sub.src()[2], 1);
    }

    #[test]
    fn edge_index_groups_by_dst() {
        let e = EdgeIndex::from_pairs(3, vec![(0, 2), (1, 2), (2, 0)]);
        assert_eq!(e.n_edges(), 3);
        assert_eq!(e.incoming(2), 1..3);
        assert_eq!(e.in_degree(1), 0);
        assert_eq!(e.in_degree(2), 2);
        for eid in e.incoming(2) {
            assert_eq!(e.dst()[eid], 2);
        }
    }
}
