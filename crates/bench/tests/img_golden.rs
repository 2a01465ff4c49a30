//! Golden pin on the VGG-sim image features of a scaling-family city: any
//! change to the frozen extractor's kernels that moves a single bit of the
//! descriptor matrix changes this checksum, at any thread count and on any
//! `UVD_GEMM_ISA` tier.

use uvd_bench::scale_city;
use uvd_citysim::City;
use uvd_tensor::fastmath::with_fast_math;
use uvd_tensor::par;
use uvd_urg::{VggSim, VGG_SIM_DIM};

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

/// Checksum of `VggSim::features` over `scale_city(64)` at seed 1, recorded
/// with the per-image im2col + packed-GEMM + separate ReLU/max-pool loop the
/// direct conv stack replaced.
const GOLDEN_FEATURES: u64 = 0xaebd_120d_2a27_1428;

fn checksum(vgg: &VggSim, images: &[f32]) -> u64 {
    let x = vgg.features(images);
    assert_eq!(x.shape(), (64 * 64, VGG_SIM_DIM));
    fnv1a_f32(x.as_slice())
}

/// The deterministic tier is pinned explicitly, so the checksum also holds
/// when `UVD_FAST_MATH=1` selects the FMA tier for the process: the scope
/// must reach the pool workers the rows are computed on.
#[test]
fn features_checksum_is_pinned_at_every_thread_count() {
    let city = City::from_config(scale_city(64), 1);
    let vgg = VggSim::new();
    with_fast_math(false, || {
        let runs = [
            ("default", checksum(&vgg, &city.images)),
            ("serial", par::serial_scope(|| checksum(&vgg, &city.images))),
            (
                "2 threads",
                par::with_threads(2, || checksum(&vgg, &city.images)),
            ),
            (
                "7 threads",
                par::with_threads(7, || checksum(&vgg, &city.images)),
            ),
        ];
        for (what, sum) in runs {
            assert_eq!(sum, GOLDEN_FEATURES, "{what}: checksum 0x{sum:016x}");
        }
    });
}

#[test]
#[ignore = "manual perf probe: cargo test -p uvd-bench --release --test img_golden -- --ignored --nocapture"]
fn probe_features_ms() {
    let city = City::from_config(scale_city(64), 1);
    let vgg = VggSim::new();
    for (what, threads) in [("1 thread", 1), ("2 threads", 2)] {
        let best = par::with_threads(threads, || {
            (0..7)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(vgg.features(&city.images));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        });
        println!("VggSim::features, 4096 images, {what}: {best:.1} ms (min of 7)");
    }
}
