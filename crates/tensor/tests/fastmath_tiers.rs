//! Differential tests for the register-tiled spmm and the `UVD_FAST_MATH`
//! tier (DESIGN.md §"Determinism tiers").
//!
//! Deterministic mode is checked *bitwise* against `uvd_tensor::oracle` —
//! the frozen pre-tiling kernels — over proptest-generated shapes chosen to
//! be tile-irregular: column counts that straddle every panel width (1,
//! scalar-tile leftovers, AVX-512's 64-wide panels), empty CSR rows, and
//! duplicate/unsorted COO input. The fast-math tier cannot be bitwise (it
//! fuses each multiply-add into one rounding), so the same generators assert
//! a rounding-level tolerance instead, plus the properties that *do* survive
//! fusion: thread-count invariance and serial/parallel bit-identity, since
//! the tier never reorders an accumulator chain.

use proptest::prelude::*;
use rand::RngCore;
use uvd_tensor::fastmath::with_fast_math;
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{oracle, par, plan, ConvMeta, ConvPoolStack, Csr, Matrix};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Fast-math differs from deterministic only by where each product is
/// rounded, so the error budget is a few ulps scaled by the magnitudes
/// flowing through the chain — 1e-4 relative is orders of magnitude above
/// that, and orders of magnitude below any real algorithmic divergence.
fn assert_rounding_close(fast: &[f32], det: &[f32], what: &str) {
    assert_eq!(fast.len(), det.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(det.iter()).enumerate() {
        let tol = 1e-4 * b.abs().max(1.0);
        assert!(
            (a - b).abs() <= tol,
            "{what}[{i}]: fast {a} vs det {b} (tol {tol})"
        );
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Column counts that exercise every tile boundary of the spmm kernel:
/// single-column, below the scalar panel (8), between the AVX2 (16) and
/// AVX-512 (64) panels, and just past the 64-wide panel so full panels and
/// ragged tails both run.
fn awkward_cols() -> impl Strategy<Value = usize> {
    (0usize..40).prop_map(|i| match i % 5 {
        0 => 1,           // single column
        1 => 2 + i % 6,   // below the scalar panel
        2 => 9 + i % 7,   // between the scalar and AVX2 panels
        3 => 30 + i % 10, // AVX2 panels plus tail
        _ => 63 + i % 7,  // straddles the 64-wide AVX-512 panel
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiled spmm (all ISA tiers, deterministic mode) is bit-identical to
    /// the frozen naive row loop, for any sparsity pattern — including empty
    /// rows and duplicate COO entries — and any panel-straddling width.
    #[test]
    fn tiled_spmm_bitwise_matches_oracle(
        entries in proptest::collection::vec((0u32..13, 0u32..11, -2.0f32..2.0), 0..80),
        n in awkward_cols(),
        xseed in 0u64..1000,
    ) {
        let a = Csr::from_coo(13, 11, entries);
        let mut rng = seeded_rng(xseed);
        let x = normal_matrix(11, n, 0.0, 1.0, &mut rng);
        let oracle = oracle::naive_spmm(&a, &x);
        let tiled = with_fast_math(false, || a.spmm(&x));
        prop_assert_eq!(bits(&tiled), bits(&oracle), "overwrite entry");
        // The accumulate entry seeded from a zero-filled buffer runs the
        // exact same chains as the overwrite entry's literal-zero seeds.
        let mut acc = vec![0.0f32; 13 * n];
        with_fast_math(false, || a.spmm_acc(&x, &mut acc));
        prop_assert_eq!(
            acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bits(&oracle),
            "accumulate entry from zeroed buffer"
        );
    }

    /// Fast-math spmm stays within rounding tolerance of the oracle on the
    /// same generator.
    #[test]
    fn fast_math_spmm_within_tolerance(
        entries in proptest::collection::vec((0u32..13, 0u32..11, -2.0f32..2.0), 0..80),
        n in awkward_cols(),
        xseed in 0u64..1000,
    ) {
        let a = Csr::from_coo(13, 11, entries);
        let mut rng = seeded_rng(xseed);
        let x = normal_matrix(11, n, 0.0, 1.0, &mut rng);
        let det = with_fast_math(false, || a.spmm(&x));
        let fast = with_fast_math(true, || a.spmm(&x));
        assert_rounding_close(fast.as_slice(), det.as_slice(), "spmm");
    }

    /// Fast-math matmul family stays within rounding tolerance of the
    /// deterministic tier across panel-irregular shapes.
    #[test]
    fn fast_math_matmul_family_within_tolerance(
        m in 1usize..10,
        k in 1usize..24,
        n in awkward_cols(),
        seed in 0u64..1000,
    ) {
        let mut rng = seeded_rng(seed);
        let a = normal_matrix(m, k, 0.0, 1.0, &mut rng);
        let b = normal_matrix(k, n, 0.0, 1.0, &mut rng);
        let det = with_fast_math(false, || a.matmul(&b));
        let fast = with_fast_math(true, || a.matmul(&b));
        assert_rounding_close(fast.as_slice(), det.as_slice(), "matmul");

        let at = a.transpose();
        let det = with_fast_math(false, || at.matmul_tn(&b));
        let fast = with_fast_math(true, || at.matmul_tn(&b));
        assert_rounding_close(fast.as_slice(), det.as_slice(), "matmul_tn");

        let bt = b.transpose();
        let det = with_fast_math(false, || a.matmul_nt(&bt));
        let fast = with_fast_math(true, || a.matmul_nt(&bt));
        assert_rounding_close(fast.as_slice(), det.as_slice(), "matmul_nt");
    }

    /// Fast-math gated matmul stays within rounding tolerance, including
    /// ragged output widths (`h` off the 16-lane block) and the zero-skip.
    #[test]
    fn fast_math_gated_matmul_within_tolerance(
        x in small_matrix(6, 9),
        w in small_matrix(9, 21),
        f in small_matrix(6, 9 * 21),
    ) {
        let mut x = x;
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == 2 {
                *v = 0.0; // exercise the zero-skip on both tiers
            }
        }
        let mut det = vec![0.0f32; 6 * 21];
        let mut fast = vec![0.0f32; 6 * 21];
        with_fast_math(false, || plan::gated_matmul_into(&x, &w, &f, &mut det));
        with_fast_math(true, || plan::gated_matmul_into(&x, &w, &f, &mut fast));
        assert_rounding_close(&fast, &det, "gated_matmul");
    }
}

/// Fast-math conv forward stays within rounding tolerance of deterministic
/// (one fixed odd-shaped batch; the im2col layout is tier-independent, only
/// the GEMM microkernel changes).
#[test]
fn fast_math_conv_within_tolerance() {
    let meta = ConvMeta {
        c_in: 2,
        h_in: 7,
        w_in: 5,
        c_out: 3,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let mut rng = seeded_rng(23);
    let x = normal_matrix(4, meta.in_len(), 0.0, 1.0, &mut rng);
    let (co, klen) = meta.kernel_shape();
    let kern = normal_matrix(co, klen, 0.0, 0.5, &mut rng);
    let det = with_fast_math(false, || uvd_tensor::conv::conv2d_batch(&x, &kern, &meta));
    let fast = with_fast_math(true, || uvd_tensor::conv::conv2d_batch(&x, &kern, &meta));
    assert_rounding_close(fast.as_slice(), det.as_slice(), "conv2d_batch");
}

/// The fast-math twin of the direct conv stack (FMA tile kernels) stays
/// within rounding tolerance of the deterministic stack, and — since it
/// keeps every chain's order — is bit-identical across thread counts. One
/// VGG-shaped stack (3×32×32 → 8 → 16 → 16) and one with partial tiles and
/// channel blocks.
#[test]
fn fast_math_conv_stack_within_tolerance() {
    let mut rng = seeded_rng(29);
    for (c_in, side, c_outs) in [(3, 32, &[8, 16, 16][..]), (5, 10, &[7, 17][..])] {
        let (mut c, mut s) = (c_in, side);
        let stages: Vec<(ConvMeta, Matrix)> = c_outs
            .iter()
            .map(|&co| {
                let meta = ConvMeta {
                    c_in: c,
                    h_in: s,
                    w_in: s,
                    c_out: co,
                    k: 3,
                    stride: 1,
                    pad: 1,
                };
                let (kr, kc) = meta.kernel_shape();
                (c, s) = (co, s / 2);
                (meta, normal_matrix(kr, kc, 0.0, 0.4, &mut rng))
            })
            .collect();
        let stack = ConvPoolStack::new(&stages);
        let x = normal_matrix(6, stack.in_len(), 0.0, 1.0, &mut rng);
        let det = with_fast_math(false, || stack.forward(x.as_slice()));
        let fast = with_fast_math(true, || par::serial_scope(|| stack.forward(x.as_slice())));
        assert_rounding_close(fast.as_slice(), det.as_slice(), "conv stack");
        let fast_par = with_fast_math(true, || {
            par::with_threads(3, || stack.forward(x.as_slice()))
        });
        assert_eq!(
            bits(&fast_par),
            bits(&fast),
            "fast-math conv stack across threads"
        );
    }
}

/// The fast-math tier keeps every per-element chain in ascending order, so
/// it stays bit-identical across thread counts — fusion changes rounding,
/// never reduction order. Work sizes clear `par::MIN_PAR_WORK` so the
/// parallel dispatcher actually partitions.
#[test]
fn fast_math_tier_is_thread_count_deterministic() {
    let mut rng = seeded_rng(7);
    let a = normal_matrix(48, 48, 0.0, 1.0, &mut rng);
    let b = normal_matrix(48, 48, 0.0, 1.0, &mut rng);
    let mut coo = Vec::new();
    for r in 0..600u32 {
        for _ in 0..8 {
            let c = (rng.next_u64() % 600) as u32;
            coo.push((r, c, (rng.next_u64() % 7) as f32 * 0.25 - 0.75));
        }
    }
    let sp = Csr::from_coo(600, 600, coo);
    let xs = normal_matrix(600, 64, 0.0, 1.0, &mut rng);
    with_fast_math(true, || {
        let serial_mm = par::serial_scope(|| a.matmul(&b));
        let serial_sp = par::serial_scope(|| sp.spmm(&xs));
        for threads in [2usize, 3, 5] {
            let par_mm = par::with_threads(threads, || a.matmul(&b));
            assert_eq!(
                bits(&par_mm),
                bits(&serial_mm),
                "fast-math matmul diverged at {threads} threads"
            );
            let par_sp = par::with_threads(threads, || sp.spmm(&xs));
            assert_eq!(
                bits(&par_sp),
                bits(&serial_sp),
                "fast-math spmm diverged at {threads} threads"
            );
        }
    });
}
