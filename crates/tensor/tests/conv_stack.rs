//! `ConvPoolStack` (direct 3×3 conv, fused ReLU + 2×2 max pool) against the
//! packed-GEMM path it replaces: `conv2d_batch`, a ReLU pass, then
//! `maxpool2_batch`, stage by stage. The two must agree bit for bit — same
//! per-element accumulator chain, padded taps included as zero products —
//! on every tile shape: partial tiles (`h·w` not a multiple of the tile
//! width), tiles that span several output rows, and channel counts that
//! leave partial channel blocks.

use rand::Rng;
use uvd_tensor::conv::{conv2d_batch, maxpool2_batch};
use uvd_tensor::fastmath::with_fast_math;
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{par, ConvMeta, ConvPoolStack, Matrix, PoolMeta};

fn meta(c_in: usize, h: usize, w: usize, c_out: usize) -> ConvMeta {
    ConvMeta {
        c_in,
        h_in: h,
        w_in: w,
        c_out,
        k: 3,
        stride: 1,
        pad: 1,
    }
}

/// Random stages chaining `c_in × h × w` through `c_outs`.
fn stages(c_in: usize, h: usize, w: usize, c_outs: &[usize], seed: u64) -> Vec<(ConvMeta, Matrix)> {
    let mut rng = seeded_rng(seed);
    let (mut c, mut h, mut w) = (c_in, h, w);
    c_outs
        .iter()
        .map(|&co| {
            let m = meta(c, h, w, co);
            let (kr, kc) = m.kernel_shape();
            let kernel = normal_matrix(kr, kc, 0.0, 0.5, &mut rng);
            (c, h, w) = (co, h / 2, w / 2);
            (m, kernel)
        })
        .collect()
}

/// The packed-GEMM path: conv, ReLU, max pool per stage.
fn reference(stages: &[(ConvMeta, Matrix)], x: &Matrix) -> Matrix {
    let mut x = x.clone();
    for (m, kernel) in stages {
        let mut y = conv2d_batch(&x, kernel, m);
        for v in y.as_mut_slice() {
            *v = v.max(0.0);
        }
        let pool = PoolMeta {
            channels: m.c_out,
            h_in: m.h_in,
            w_in: m.w_in,
        };
        x = maxpool2_batch(&y, &pool);
    }
    x
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn check(stages: &[(ConvMeta, Matrix)], n: usize, seed: u64) {
    let stack = ConvPoolStack::new(stages);
    let mut rng = seeded_rng(seed);
    let x = normal_matrix(n, stack.in_len(), 0.0, 1.0, &mut rng);
    let expect = with_fast_math(false, || reference(stages, &x));
    let serial = with_fast_math(false, || par::serial_scope(|| stack.forward(x.as_slice())));
    let parallel = with_fast_math(false, || {
        par::with_threads(3, || stack.forward(x.as_slice()))
    });
    let what = format!("{:?}", stages.iter().map(|(m, _)| *m).collect::<Vec<_>>());
    assert_eq!(serial.shape(), (n, stack.out_len()), "{what}");
    assert!(
        bits(&serial) == bits(&expect),
        "serial stack differs: {what}"
    );
    assert!(
        bits(&parallel) == bits(&expect),
        "parallel stack differs: {what}"
    );
}

/// One stage at every even side 2..=34 and every channel count, with a
/// random input depth: covers full, partial and row-spanning tiles and
/// full and partial channel blocks.
#[test]
fn single_stage_bitwise_matches_packed_gemm_path() {
    let mut rng = seeded_rng(7);
    for side in (2..=34).step_by(2) {
        for c_out in [1, 5, 8, 12, 16, 17] {
            let c_in = rng.gen_range(1..=16);
            let seed = (side * 100 + c_out) as u64;
            check(&stages(c_in, side, side, &[c_out], seed), 2, seed);
        }
    }
}

/// Multi-stage chains, including VGG-sim's shape and a non-square image
/// whose later stages pool odd sides.
#[test]
fn stacked_stages_bitwise_match_packed_gemm_path() {
    check(&stages(3, 32, 32, &[8, 16, 16], 1), 5, 1);
    check(&stages(2, 12, 20, &[5, 12, 17], 2), 3, 2);
    check(&stages(4, 14, 14, &[9, 3], 3), 3, 3);
}

#[test]
fn rows_are_independent_of_their_batch() {
    let st = stages(3, 10, 10, &[6, 4], 4);
    let stack = ConvPoolStack::new(&st);
    let mut rng = seeded_rng(5);
    let x = normal_matrix(4, stack.in_len(), 0.0, 1.0, &mut rng);
    let whole = stack.forward(x.as_slice());
    for i in 0..4 {
        let one = stack.forward(x.row(i));
        assert!(bits(&one)[..] == bits(&whole)[i * stack.out_len()..(i + 1) * stack.out_len()]);
    }
}

#[test]
#[should_panic(expected = "previous pooled output")]
fn mismatched_chain_is_rejected() {
    let mut st = stages(3, 8, 8, &[4], 6);
    st.extend(stages(4, 8, 8, &[4], 7));
    ConvPoolStack::new(&st);
}
