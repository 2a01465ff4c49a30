//! Thread-count invariance of the URG build path (dense and streamed).
//!
//! Every parallel stage of `Urg::build` — VGG-sim rows, POI feature rows,
//! per-start road BFS, column standardization, counting-sort CSR assembly —
//! is designed to produce bitwise-identical output at any `UVD_THREADS`
//! (chunk-invariant decompositions, index-ordered reductions; DESIGN.md §13).
//! These properties pin that contract over irregular city sizes and thread
//! counts, and re-pin the streamed `ShardedUrg` equivalence now that the
//! tile render/fold loop is pipelined across threads.
//!
//! Dense and streamed builds run the same tile builder, so their agreement
//! alone no longer tests the features. `urg_build_is_pinned` holds both to
//! FNV-1a constants recorded from the earlier, separate dense builder.

use proptest::prelude::*;
use uvd_citysim::{City, CityConfig, CityPreset, CityStream};
use uvd_tensor::par;
use uvd_urg::{ShardedUrg, Urg, UrgOptions};

/// Small irregular city: non-square grids, a few UV patches.
fn city_cfg(w: usize, h: usize) -> CityConfig {
    let mut c = CityPreset::tiny();
    c.name = "par-build".into();
    c.width = w;
    c.height = h;
    c.n_uv_patches = 3;
    c.uv_patch_size = (2, 4);
    c.n_nature_patches = 1;
    c
}

/// Bitwise equality over every URG field the model consumes.
fn assert_urg_bitwise(a: &Urg, b: &Urg, what: &str) {
    assert_eq!(a.n, b.n, "{what}: n");
    assert_eq!(a.pairs, b.pairs, "{what}: pairs");
    assert_eq!(a.edges.src(), b.edges.src(), "{what}: edge src");
    assert_eq!(a.edges.dst(), b.edges.dst(), "{what}: edge dst");
    assert_eq!(a.x_poi, b.x_poi, "{what}: x_poi");
    assert_eq!(a.x_img, b.x_img, "{what}: x_img");
    assert_eq!(a.labeled, b.labeled, "{what}: labeled");
    assert_eq!(a.y, b.y, "{what}: y");
    for r in 0..a.n {
        let ra: Vec<(u32, f32)> = a.adj_norm.fwd.row_iter(r).collect();
        let rb: Vec<(u32, f32)> = b.adj_norm.fwd.row_iter(r).collect();
        assert_eq!(ra, rb, "{what}: adj_norm row {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Dense build: parallel ≡ serial, bitwise, at every swept thread count.
    #[test]
    fn dense_build_is_thread_count_invariant(
        seed in 0u64..200,
        w in 5usize..12,
        h in 5usize..12,
    ) {
        let city = City::from_config(city_cfg(w, h), seed);
        let opts = UrgOptions::default();
        let reference = par::serial_scope(|| Urg::build(&city, opts));
        for threads in [2usize, 7] {
            let parallel = par::with_threads(threads, || Urg::build(&city, opts));
            assert_urg_bitwise(&parallel, &reference, &format!("threads={threads}"));
        }
    }

    /// Streamed build (pipelined render/fold + parallel folds) ≡ serial
    /// dense build, bitwise, over irregular tile heights and thread counts.
    #[test]
    fn streamed_build_matches_dense_at_any_thread_count(
        seed in 0u64..200,
        w in 5usize..12,
        h in 5usize..12,
        tile_rows in 1usize..6,
    ) {
        let cfg = city_cfg(w, h);
        let city = City::from_config(cfg.clone(), seed);
        let opts = UrgOptions::default();
        let reference = par::serial_scope(|| Urg::build(&city, opts));
        for threads in [1usize, 2, 7] {
            let streamed = par::with_threads(threads, || {
                ShardedUrg::from_stream(CityStream::new(cfg.clone(), seed, tile_rows), opts)
                    .into_urg()
            });
            assert_urg_bitwise(
                &streamed,
                &reference,
                &format!("streamed threads={threads} tile_rows={tile_rows}"),
            );
        }
    }
}

/// 64-bit FNV-1a over little-endian 32-bit words.
fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over every URG field the model consumes: `pairs`, the directed
/// edge index, each `adj_norm` row as `(col, value bits)`, both feature
/// matrices and the labels.
fn urg_hash(u: &Urg) -> u64 {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv1a(h, u.pairs.iter().flat_map(|&(a, b)| [a, b]));
    h = fnv1a(h, u.edges.src().iter().copied());
    h = fnv1a(h, u.edges.dst().iter().copied());
    for r in 0..u.n {
        h = fnv1a(
            h,
            u.adj_norm
                .fwd
                .row_iter(r)
                .flat_map(|(c, v)| [c, v.to_bits()]),
        );
    }
    h = fnv1a(h, bits(u.x_poi.as_slice()));
    h = fnv1a(h, bits(u.x_img.as_slice()));
    h = fnv1a(h, u.labeled.iter().copied());
    fnv1a(h, bits(&u.y))
}

/// `urg_hash` of `Urg::build` on `city_cfg(9, 7)` at seed 13 with default
/// options, recorded from the dense builder that had its own feature and
/// standardization code, before it became a one-tile stream.
const URG_PIN: u64 = 0xdb3e_1ce9_6aac_d455;
/// The same city built with `UrgOptions::no_image()`.
const URG_PIN_NO_IMAGE: u64 = 0x3483_2eae_de24_ffac;

/// Dense and streamed (3-row tiles) builds of one irregular city hash to
/// recorded constants, serially and at 2 and 7 threads.
#[test]
fn urg_build_is_pinned() {
    let cfg = city_cfg(9, 7);
    let city = City::from_config(cfg.clone(), 13);
    for threads in [1usize, 2, 7] {
        par::with_threads(threads, || {
            let dense = urg_hash(&Urg::build(&city, UrgOptions::default()));
            assert_eq!(dense, URG_PIN, "dense threads={threads}: 0x{dense:016x}");
            let no_image = urg_hash(&Urg::build(&city, UrgOptions::no_image()));
            assert_eq!(
                no_image, URG_PIN_NO_IMAGE,
                "no_image threads={threads}: 0x{no_image:016x}"
            );
            let stream = CityStream::new(cfg.clone(), 13, 3);
            let streamed =
                urg_hash(&ShardedUrg::from_stream(stream, UrgOptions::default()).into_urg());
            assert_eq!(
                streamed, URG_PIN,
                "streamed threads={threads}: 0x{streamed:016x}"
            );
        });
    }
}
