//! Golden pin on the POI feature matrix of a scaling-family city: any
//! change to the nearest-POI search or the feature layout that moves a
//! single bit of `x_poi` changes this checksum.

use uvd_bench::scale_city;
use uvd_citysim::City;
use uvd_urg::features::{poi_features, PoiFeatureOptions};

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

/// Checksum of `x_poi` for `scale_city(64)` at seed 1, recorded with the
/// exhaustive expanding-ring search the count-pruned index replaced.
const GOLDEN_X_POI: u64 = 0xe6d7_6126_393a_03fd;

#[test]
fn x_poi_checksum_is_pinned() {
    let city = City::from_config(scale_city(64), 1);
    let x = poi_features(&city, PoiFeatureOptions::default());
    assert_eq!(x.shape(), (64 * 64, 64));
    let sum = fnv1a_f32(x.as_slice());
    assert_eq!(sum, GOLDEN_X_POI, "x_poi checksum 0x{sum:016x}");
}
