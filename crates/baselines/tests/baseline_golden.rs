//! Golden pins on the Table II baselines' detection output.
//!
//! Each detector is fitted with [`BaselineConfig::fast_test`] on one tiny
//! city and the bit patterns of its `predict` scores are hashed with
//! FNV-1a. The constants were recorded from the per-baseline fit loops, so
//! a refactor of those loops (or of any kernel they run) that moves a
//! single bit of a score fails here. The fits run at 1, 2 and 7 pool
//! threads and hash identically on every ISA tier.
//!
//! Five detectors hash identically at every thread count. UVLens and
//! MUVFCN train a conv stack, whose kernel gradient
//! (`uvd_tensor::conv::conv2d_backward_dk_to`) sums per-chunk partials
//! when it runs parallel: reproducible for one thread count, but a
//! different sum at each. Their pins are therefore one constant per
//! thread count.

use uvd_baselines::{
    BaselineConfig, GraphBaseline, ImgagnBaseline, MlpBaseline, MmreBaseline, MuvfcnBaseline,
    UvlensBaseline,
};
use uvd_citysim::{City, CityPreset};
use uvd_tensor::par;
use uvd_urg::{Detector, Urg, UrgOptions};

/// 64-bit FNV-1a over the bit patterns of `xs`.
fn fnv1a_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The swept pool thread counts.
const THREADS: [usize; 3] = [1, 2, 7];

/// Fit a fresh detector from `build` on tiny city 21 (every labeled region
/// in the training split) at each of [`THREADS`], and check that its
/// prediction hash is the matching entry of `expected`.
fn assert_pinned(name: &str, build: impl Fn(&Urg) -> Box<dyn Detector>, expected: [u64; 3]) {
    let city = City::from_config(CityPreset::tiny(), 21);
    let urg = Urg::build(&city, UrgOptions::default());
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    for (threads, expected) in THREADS.into_iter().zip(expected) {
        let hash = par::with_threads(threads, || {
            let mut model = build(&urg);
            model.fit(&urg, &train);
            fnv1a_f32(&model.predict(&urg))
        });
        assert_eq!(
            hash, expected,
            "{name} at {threads} threads: scores FNV 0x{hash:016x}"
        );
    }
}

#[test]
fn mlp_is_pinned() {
    assert_pinned(
        "MLP",
        |urg| Box::new(MlpBaseline::new(urg, BaselineConfig::fast_test())),
        [0x7b9f_df63_0e3a_0214; 3],
    );
}

#[test]
fn gcn_is_pinned() {
    assert_pinned(
        "GCN",
        |urg| Box::new(GraphBaseline::gcn(urg, BaselineConfig::fast_test())),
        [0x4ab8_eb83_853e_577d; 3],
    );
}

#[test]
fn gat_is_pinned() {
    assert_pinned(
        "GAT",
        |urg| Box::new(GraphBaseline::gat(urg, BaselineConfig::fast_test())),
        [0x88ec_43a5_fc8d_1c41; 3],
    );
}

#[test]
fn mmre_is_pinned() {
    assert_pinned(
        "MMRE",
        |urg| Box::new(MmreBaseline::new(urg, BaselineConfig::fast_test())),
        [0x5bd8_1d94_82f1_c02b; 3],
    );
}

#[test]
fn uvlens_is_pinned() {
    assert_pinned(
        "UVLens",
        |urg| Box::new(UvlensBaseline::new(urg, BaselineConfig::fast_test())),
        [
            0xa7fe_ea47_9b34_9271,
            0xfdd5_548b_a412_01c7,
            0x53bd_01b9_ad51_52b6,
        ],
    );
}

#[test]
fn muvfcn_is_pinned() {
    assert_pinned(
        "MUVFCN",
        |urg| Box::new(MuvfcnBaseline::new(urg, BaselineConfig::fast_test())),
        [
            0xbb21_6f67_33c0_e1da,
            0x7d86_12e1_6932_90ee,
            0x446c_bb8f_884d_06fe,
        ],
    );
}

#[test]
fn imgagn_is_pinned() {
    assert_pinned(
        "ImGAGN",
        |urg| Box::new(ImgagnBaseline::new(urg, BaselineConfig::fast_test())),
        [0xe770_48c6_812d_9957; 3],
    );
}
