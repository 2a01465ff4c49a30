//! Dense row-major `f32` matrix with the handful of kernels the autodiff
//! engine needs. Vectors are represented as `n×1` or `1×n` matrices.
//!
//! The matmul family runs on the packed register-tiled microkernels in
//! [`crate::gemm`], row-partitioned across threads by the [`crate::par`]
//! runtime. Because the per-element accumulation order (ascending `k`) is
//! independent of the row partition and of the tile shape, results are
//! bit-identical at any thread count and on every ISA tier — and bit-equal
//! to the frozen naive kernels kept in [`crate::oracle`] as the reference.

use crate::gemm;
use crate::par;
use std::fmt;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: {} values for {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from nested rows (test convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Column vector from a slice.
    pub fn col_vec(v: &[f32]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Row vector from a slice.
    pub fn row_vec(v: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// (rows, cols)
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs` on the packed register-tiled kernel
    /// (no zero-skip branch — `Csr` handles genuinely sparse operands),
    /// rows partitioned across threads above the work threshold.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_acc(rhs, &mut out.data);
        out
    }

    /// Accumulate `self * rhs` into a caller-owned buffer (`out += a * b`).
    /// The replay engine zero-fills `out` first; the accumulation order is
    /// identical to [`Matrix::matmul`], so the results are bit-equal.
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        assert_eq!(out.len(), m * n, "matmul output buffer size");
        gemm::matmul_into(&self.data, &rhs.data, out, m, k, n, false, false, true);
    }

    /// Like [`Matrix::matmul_acc`] but with the RHS already packed into a
    /// panel buffer (a `Workspace` pack cache slot) by [`crate::gemm`].
    /// Thin products ([`gemm::is_thin`]) read `rhs` unpacked instead. The
    /// caller still keeps its pack slot current, so a replayed tape's pack
    /// stamps and counters do not depend on operand shapes.
    pub(crate) fn matmul_acc_cached(&self, rhs: &Matrix, b_pack: &[f32], out: &mut [f32]) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        assert_eq!(out.len(), m * n, "matmul output buffer size");
        if gemm::is_thin(m, k, n) {
            return gemm::matmul_into(&self.data, &rhs.data, out, m, k, n, false, false, true);
        }
        gemm::matmul_prepacked_b(&self.data, false, b_pack, out, m, k, n, true);
    }

    /// `self^T * rhs` without materializing the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_tn_acc(rhs, &mut out.data);
        out
    }

    /// Accumulate `self^T * rhs` into a caller-owned (pre-zeroed) buffer.
    pub fn matmul_tn_acc(&self, rhs: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        assert_eq!(out.len(), m * n, "matmul_tn output buffer size");
        gemm::matmul_into(&self.data, &rhs.data, out, m, k, n, true, false, true);
    }

    /// `self * rhs^T` without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_to(rhs, &mut out.data);
        out
    }

    /// Write `self * rhs^T` into a caller-owned buffer (every element is
    /// overwritten; no pre-zeroing required).
    pub fn matmul_nt_to(&self, rhs: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        assert_eq!(out.len(), m * n, "matmul_nt output buffer size");
        gemm::matmul_into(&self.data, &rhs.data, out, m, k, n, false, true, false);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with another same-shape matrix.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Number of NaN / infinite elements.
    pub fn count_non_finite(&self) -> usize {
        self.data.iter().filter(|x| !x.is_finite()).count()
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let cols = end - start;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Gather rows by index into a new matrix (output rows partitioned
    /// across threads; the source is only read, so any duplicate indices are
    /// safe).
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.gather_rows_to(idx, &mut out.data);
        out
    }

    /// Gather rows by index into a caller-owned buffer (fully overwritten).
    pub fn gather_rows_to(&self, idx: &[u32], out: &mut [f32]) {
        let cols = self.cols;
        assert_eq!(out.len(), idx.len() * cols, "gather_rows output size");
        par::for_each_row_block(out, cols, idx.len() * cols, |rows, chunk| {
            for (ri, i) in rows.enumerate() {
                let r = idx[i] as usize;
                chunk[ri * cols..(ri + 1) * cols].copy_from_slice(self.row(r));
            }
        });
    }

    /// Row-wise softmax with temperature: `softmax(x / tau)` per row.
    pub fn softmax_rows(&self, tau: f32) -> Matrix {
        let mut out = self.clone();
        softmax_rows_inplace(&mut out.data, self.rows, self.cols, tau);
        out
    }

    /// Row-wise softmax written to a caller-owned buffer (fully overwritten;
    /// identical per-row transform to [`Matrix::softmax_rows`]).
    pub fn softmax_rows_to(&self, tau: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.data.len(), "softmax_rows output size");
        out.copy_from_slice(&self.data);
        softmax_rows_inplace(out, self.rows, self.cols, tau);
    }

    /// Row-wise argmax indices.
    pub fn argmax_rows(&self) -> Vec<u32> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best as u32
            })
            .collect()
    }
}

/// Shared body of `softmax_rows`/`softmax_rows_to`: in-place row softmax with
/// temperature, same numeric order as the original per-row loop.
fn softmax_rows_inplace(data: &mut [f32], rows: usize, cols: usize, tau: f32) {
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) / tau;
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x / tau - mx).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended: the kernels are bit-reproducible
    // and these tests assert exact constants.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 0.0, 2.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = a.softmax_rows(1.0);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_temperature_sharpens() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let soft = a.softmax_rows(1.0);
        let sharp = a.softmax_rows(0.1);
        assert!(sharp.get(0, 1) > soft.get(0, 1));
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);
    }

    #[test]
    fn gather_rows_picks_rows() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g, Matrix::from_rows(&[&[3.0], &[1.0], &[3.0]]));
    }

    #[test]
    fn argmax_rows_ties_pick_first() {
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.5], &[0.0, 2.0, 2.0]]);
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn matmul_k_zero_is_all_zeros() {
        // Empty reduction: every output element is the empty sum.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(a.matmul(&b), Matrix::zeros(3, 4));
        let at = Matrix::zeros(0, 3);
        assert_eq!(at.matmul_tn(&b), Matrix::zeros(3, 4));
        let bt = Matrix::zeros(4, 0);
        assert_eq!(a.matmul_nt(&bt), Matrix::zeros(3, 4));
    }

    #[test]
    fn matmul_k_zero_accumulate_preserves_output() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let mut out = [1.0, 2.0, 3.0, 4.0];
        a.matmul_acc(&b, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_vector_shapes() {
        // 1×k row vector times k×n, and m×k times k×1 column vector.
        let r = Matrix::row_vec(&[1.0, 2.0, 3.0]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(r.matmul(&b), Matrix::row_vec(&[4.0, 5.0]));
        let c = Matrix::col_vec(&[1.0, -1.0]);
        assert_eq!(b.matmul(&c), Matrix::col_vec(&[1.0, -1.0, 0.0]));
        // Inner product and outer product degenerate cases.
        let rc = r.matmul(&Matrix::col_vec(&[1.0, 1.0, 1.0]));
        assert_eq!(rc, Matrix::from_rows(&[&[6.0]]));
        let outer = Matrix::col_vec(&[2.0, 3.0]).matmul(&Matrix::row_vec(&[1.0, 10.0]));
        assert_eq!(outer, Matrix::from_rows(&[&[2.0, 20.0], &[3.0, 30.0]]));
    }

    #[test]
    fn matmul_empty_matrices_are_noops() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        let b0 = Matrix::zeros(5, 0);
        let c = Matrix::filled(2, 5, 1.0);
        assert_eq!(c.matmul(&b0).shape(), (2, 0));
        assert_eq!(b0.matmul_tn(&b).shape(), (0, 3));
        assert_eq!(a.matmul_nt(&Matrix::zeros(0, 5)).shape(), (0, 0));
    }
}
