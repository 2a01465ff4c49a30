//! Frozen naive kernels: the bitwise reference for the packed and tiled
//! kernels.
//!
//! Each function here is the serial triple loop (or CSR row sweep) the
//! runtime shipped before register tiling. They are deliberately left
//! untouched: every tier of the deterministic [`Matrix::matmul`] family and
//! of [`crate::Csr::spmm_acc`] keeps one ascending-`k` accumulator chain per
//! output element, so it must reproduce these bit for bit. The
//! `par_equivalence` and `fastmath_tiers` proptests and the `sparse` unit
//! tests enforce that. Do not call these from runtime code.

use crate::matrix::Matrix;
use crate::sparse::Csr;

/// Reduction tile of the frozen naive matmul kernels, at its pre-packing
/// value. Tiling only groups ascending-`k` steps; it never reorders them.
const K_TILE: usize = 64;

/// Frozen naive `a * b` (serial, k-tiled triple loop): the pre-packing
/// reference kernel. The packed [`Matrix::matmul`] family must stay
/// bit-identical to these — `par_equivalence` proptests enforce it.
pub fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "naive_matmul shape");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let (av, bv, ov) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    for kb in (0..k).step_by(K_TILE) {
        let k_end = (kb + K_TILE).min(k);
        for i in 0..m {
            let a_row = &av[i * k..(i + 1) * k];
            let o_row = &mut ov[i * n..(i + 1) * n];
            for p in kb..k_end {
                let x = a_row[p];
                let b_row = &bv[p * n..(p + 1) * n];
                for (o, &y) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += x * y;
                }
            }
        }
    }
    out
}

/// Frozen naive `a^T * b` (`a` is `k×m`): pre-packing reference kernel.
pub fn naive_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "naive_matmul_tn shape");
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let (av, bv, ov) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    for pb in (0..k).step_by(K_TILE) {
        let p_end = (pb + K_TILE).min(k);
        for i in 0..m {
            let o_row = &mut ov[i * n..(i + 1) * n];
            for p in pb..p_end {
                let x = av[p * m + i];
                let b_row = &bv[p * n..(p + 1) * n];
                for (o, &y) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += x * y;
                }
            }
        }
    }
    out
}

/// Frozen naive `a * b^T` (`b` is `n×k`): independent ascending-`k` dot
/// products, the pre-packing reference kernel.
pub fn naive_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "naive_matmul_nt shape");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = Matrix::zeros(m, n);
    let (av, bv, ov) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    for i in 0..m {
        let a_row = &av[i * k..(i + 1) * k];
        let o_row = &mut ov[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    out
}

/// Frozen naive spmm (serial per-row non-zero sweep across the full output
/// row): the pre-tiling reference kernel for [`crate::Csr::spmm_acc`]. Per
/// output element the reduction is one accumulator chain in ascending CSR
/// order; the register-tiled kernel must stay bit-identical to this in
/// deterministic mode — the spmm differential proptests enforce it.
pub fn naive_spmm(a: &Csr, x: &Matrix) -> Matrix {
    assert_eq!(a.cols(), x.rows(), "naive_spmm shape");
    let n = x.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    let ov = out.as_mut_slice();
    for r in 0..a.rows() {
        let o_row = &mut ov[r * n..(r + 1) * n];
        for (c, v) in a.row_iter(r) {
            let x_row = &x.as_slice()[c as usize * n..(c as usize + 1) * n];
            for (o, &xv) in o_row.iter_mut().zip(x_row.iter()) {
                *o += v * xv;
            }
        }
    }
    out
}
