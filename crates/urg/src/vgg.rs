//! "VGG-sim": a frozen, seeded random-weight convolutional feature extractor
//! standing in for the ImageNet-pretrained VGG16 of the paper (see DESIGN.md
//! §1). Three conv+ReLU+maxpool stages map a 3×32×32 region image to a
//! 256-dimensional descriptor. The weights depend only on a fixed seed, so —
//! like a pretrained backbone — the extractor is identical across cities,
//! folds and runs.

use uvd_citysim::{IMG_CHANNELS, IMG_LEN, IMG_SIZE};
use uvd_tensor::conv::{ConvMeta, ConvPoolStack};
use uvd_tensor::init::{he_normal, seeded_rng};
use uvd_tensor::{par, Matrix};

/// Output dimensionality of the extractor.
pub const VGG_SIM_DIM: usize = 256;

/// Seed of the "pretrained" weights — deliberately decoupled from city and
/// experiment seeds.
pub const PRETRAINED_SEED: u64 = 0xBAD5_EED5;

/// Frozen convolutional feature extractor.
pub struct VggSim {
    stack: ConvPoolStack,
}

impl Default for VggSim {
    fn default() -> Self {
        Self::new()
    }
}

impl VggSim {
    /// Build the extractor with its fixed weights.
    pub fn new() -> Self {
        let mut rng = seeded_rng(PRETRAINED_SEED);
        let specs = [
            (IMG_CHANNELS, IMG_SIZE, 8usize),
            (8, IMG_SIZE / 2, 16),
            (16, IMG_SIZE / 4, 16),
        ];
        let stages: Vec<(ConvMeta, Matrix)> = specs
            .iter()
            .map(|&(c_in, side, c_out)| {
                let meta = ConvMeta {
                    c_in,
                    h_in: side,
                    w_in: side,
                    c_out,
                    k: 3,
                    stride: 1,
                    pad: 1,
                };
                let (kr, kc) = meta.kernel_shape();
                (meta, he_normal(kr, kc, &mut rng))
            })
            .collect();
        let stack = ConvPoolStack::new(&stages);
        debug_assert_eq!((stack.in_len(), stack.out_len()), (IMG_LEN, VGG_SIM_DIM));
        VggSim { stack }
    }

    /// Extract features for every region image in a flat buffer
    /// (`n * IMG_LEN` values) into an `n × 256` matrix: one pass of the
    /// frozen conv→ReLU→max-pool stack. Images are partitioned across
    /// threads and each row is computed independently against the frozen
    /// weights, so the matrix is bitwise identical at any thread count.
    pub fn features(&self, images: &[f32]) -> Matrix {
        self.stack.forward(images)
    }

    /// As [`VggSim::features`], written into `out` (`n * 256` values,
    /// row-major): the tile builder's rows of the city-wide matrix.
    pub fn features_into(&self, images: &[f32], out: &mut [f32]) {
        self.stack.forward_into(images, out)
    }
}

/// Standardize each column of `x` in place to zero mean / unit variance
/// (columns with zero variance are set to zero).
///
/// Parallel in two phases, both bitwise-invariant under chunking: the
/// per-column mean/variance chains are independent `f64` accumulations over
/// rows in ascending order (columns are partitioned across threads, each
/// column's chain runs whole on one worker), and the apply phase is
/// element-independent (rows partitioned across threads).
pub fn standardize_columns(x: &mut Matrix) {
    let (n, d) = x.shape();
    let stats = column_stats(x);
    par::for_each_row_block(x.as_mut_slice(), d.max(1), 2 * n * d, |rows, chunk| {
        for (ri, _r) in rows.enumerate() {
            let row = &mut chunk[ri * d..(ri + 1) * d];
            for (v, &(mean, std)) in row.iter_mut().zip(&stats) {
                *v = if std > 1e-9 {
                    ((*v as f64 - mean) / std) as f32
                } else {
                    0.0
                };
            }
        }
    });
}

/// Per-column `(mean, std)` of `x`, columns partitioned across threads.
/// Each column runs the exact serial accumulator chain (`f64` mean pass,
/// then variance pass, rows ascending), so the stats are bitwise those of
/// the serial loop.
fn column_stats(x: &Matrix) -> Vec<(f64, f64)> {
    let (n, d) = x.shape();
    par::map_chunks(d, 2 * n * d, |c_range| {
        c_range
            .map(|c| {
                let mut mean = 0.0f64;
                for r in 0..n {
                    mean += x.get(r, c) as f64;
                }
                mean /= n.max(1) as f64;
                let mut var = 0.0f64;
                for r in 0..n {
                    let v = x.get(r, c) as f64 - mean;
                    var += v * v;
                }
                var /= n.max(1) as f64;
                (mean, var.sqrt())
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended in these tests: they assert
    // exact constants and bit-reproducible results, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;
    use rand::SeedableRng;
    use uvd_citysim::imagery::render_region;
    use uvd_citysim::RegionProfile;

    fn image(profile: RegionProfile, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut out = vec![0.0; IMG_LEN];
        render_region(profile, &mut rng, &mut out);
        out
    }

    /// Features of one image, as a vector.
    fn features_of(vgg: &VggSim, img: &[f32]) -> Vec<f32> {
        vgg.features(img).as_slice().to_vec()
    }

    #[test]
    fn output_dim_is_256() {
        let vgg = VggSim::new();
        let f = vgg.features(&image(RegionProfile::Residential, 1));
        assert_eq!(f.shape(), (1, VGG_SIM_DIM));
    }

    #[test]
    fn extractor_is_frozen_and_deterministic() {
        let a = VggSim::new().features(&image(RegionProfile::UvInner, 2));
        let b = VggSim::new().features(&image(RegionProfile::UvInner, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn features_separate_land_uses() {
        // Same-class images should be closer in feature space than
        // different-class images, on average.
        let vgg = VggSim::new();
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let mut within = 0.0;
        let mut across = 0.0;
        let k = 6;
        for s in 0..k {
            let uv1 = features_of(&vgg, &image(RegionProfile::UvInner, s));
            let uv2 = features_of(&vgg, &image(RegionProfile::UvInner, s + 100));
            let dt = features_of(&vgg, &image(RegionProfile::Downtown, s));
            within += dist(&uv1, &uv2);
            across += dist(&uv1, &dt);
        }
        assert!(across > within, "across {across} within {within}");
    }

    #[test]
    fn batch_matches_single() {
        let vgg = VggSim::new();
        let img1 = image(RegionProfile::Water, 3);
        let img2 = image(RegionProfile::Suburb, 4);
        let mut flat = img1.clone();
        flat.extend_from_slice(&img2);
        let batch = vgg.features(&flat);
        assert_eq!(batch.row(0), &features_of(&vgg, &img1)[..]);
        assert_eq!(batch.row(1), &features_of(&vgg, &img2)[..]);
    }

    #[test]
    fn standardize_columns_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 5.0], &[5.0, 5.0]]);
        let mut s = x;
        standardize_columns(&mut s);
        let mean0: f32 = (0..3).map(|r| s.get(r, 0)).sum::<f32>() / 3.0;
        assert!(mean0.abs() < 1e-5);
        let var0: f32 = (0..3).map(|r| s.get(r, 0).powi(2)).sum::<f32>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-4);
        // Constant column maps to zeros.
        for r in 0..3 {
            assert_eq!(s.get(r, 1), 0.0);
        }
    }
}
