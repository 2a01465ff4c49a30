//! Regression test for per-shard statistics of a streamed 50k-region build.
//!
//! `ShardedUrg::stats` must report the full Table-I numbers *plus* the
//! per-shard breakdown each tile counted from its `adj_norm` rows as it was
//! folded — the accounting the scaling harness and the check.sh smoke gate
//! rely on. The city here is the 224x224 member of the scaling family used
//! by `crates/bench/src/bin/scaling.rs` (same generator seed), built
//! without imagery so the test stays fast in debug mode; edge topology and
//! labels are imagery-independent, so the global counts match the bench's
//! full build exactly.

use uvd_citysim::{CityConfig, CityStream};
use uvd_urg::{ShardedUrg, UrgOptions};

/// The `scale-224x224` city from the scaling harness (50_176 regions).
fn city_50k() -> CityConfig {
    let side = 224usize;
    let area = side * side;
    CityConfig {
        name: format!("scale-{side}x{side}"),
        height: side,
        width: side,
        n_centers: (area / 40_000 + 1).min(6),
        n_uv_patches: (area / 400).max(8),
        uv_patch_size: (4, 10),
        uv_discovery_rate: 0.85,
        non_uv_label_ratio: 4.0,
        road_spacing: 2,
        road_keep_prob: 0.85,
        poi_density: 0.3,
        n_nature_patches: (area / 10_000).max(2),
    }
}

#[test]
fn streamed_50k_stats_regression() {
    let stream = CityStream::new(city_50k(), 11, 28);
    let sharded = ShardedUrg::from_stream(stream, UrgOptions::no_image());
    let stats = sharded.stats();

    // Global Table-I numbers, pinned to the seed-11 generator output. The
    // directed edge count matches the bench harness's full-imagery build of
    // the same city (topology is imagery-independent).
    assert_eq!(stats.n_regions, 50_176);
    assert_eq!(stats.n_edges, 970_736);
    assert_eq!(stats.shards.len(), 8, "224 rows / 28-row tiles = 8 shards");
    assert!(
        stats.n_uvs > 0 && stats.n_non_uvs > stats.n_uvs,
        "labeled split must be present and UV-minority (got {} uv / {} non-uv)",
        stats.n_uvs,
        stats.n_non_uvs
    );

    // The per-shard breakdown must partition the city: contiguous region
    // ranges covering 0..n, and local+halo directed edges summing to the
    // global count (every directed edge is owned by exactly one shard — the
    // one holding its destination).
    let mut next_start = 0usize;
    for s in &stats.shards {
        assert_eq!(s.region_start, next_start, "shards must tile the id space");
        assert!(s.n_regions > 0);
        next_start += s.n_regions;
    }
    assert_eq!(next_start, stats.n_regions);
    let directed: usize = stats
        .shards
        .iter()
        .map(|s| s.n_local_edges + s.n_halo_edges)
        .sum();
    assert_eq!(directed, stats.n_edges);

    // Every shard of a connected city borders its neighbors: non-empty halo
    // everywhere, and interior shards reference strictly more external
    // regions than a single boundary row could supply alone.
    for s in &stats.shards {
        assert!(
            s.n_halo_edges > 0,
            "shard at {} has no halo",
            s.region_start
        );
        assert!(s.n_halo_regions > 0);
        assert!(s.n_halo_regions < s.n_regions);
    }

    // The shard statistics were counted as the tiles were folded; stats()
    // only reads them and leaves the build intact for `into_urg`.
    assert_eq!(sharded.n_shards(), stats.shards.len());
}
