//! The Urban Region Graph builder (DESIGN.md §11): topology first, then
//! one [`CityTile`] of imagery at a time, then labels.
//!
//! [`ShardedUrgBuilder`] is the only URG builder. The dense
//! [`Urg::build`] runs it over one whole-city tile; [`ShardedUrg`] drives
//! it from a [`CityStream`], so a Beijing-scale city (≈ 4.3 GB of imagery)
//! never holds more than one rendered tile. Topology (edges, normalized
//! adjacency) and the POI spatial index come from the cheap skeleton
//! before any tile is rendered. The city-wide `x_poi` and `x_img` matrices
//! are allocated up front; each tile writes its POI rows and VGG-sim rows
//! straight into them and is dropped. `finish` standardizes `x_img` in
//! place and attaches the labels, so [`ShardedUrg::into_urg`] is a move.
//!
//! A shard — the row range of one tile — keeps only its [`ShardStats`]
//! counts, taken from the `adj_norm` rows in its range when it is folded.
//!
//! Tile height never changes a bit of the result: POI rows are per-region
//! pure functions of the shared index, VGG rows are per-region pure
//! functions of the tile pixels, and standardization runs once over the
//! whole `x_img` after the last tile. So the streamed build equals
//! `Urg::build(&stream.collect_city(), opts)` in every field except
//! `raw_images` (kept `None`: pixel-space baselines need the whole city).

use crate::edges::{merge_pairs, road_edges_from, spatial_edges_dims};
use crate::features::{poi_features_into, PoiFeatureOptions, PoiSpatialIndex};
use crate::graph::serde_like::{ShardStats, UrgStats};
use crate::graph::{Urg, UrgOptions};
use crate::vgg::{standardize_columns, VggSim, VGG_SIM_DIM};
use std::sync::Arc;
use uvd_citysim::{CityStream, CityTile, Poi, RoadNetwork, SurveyLabels};
use uvd_tensor::graph::CsrPair;
use uvd_tensor::{fastmath, par, Csr, EdgeIndex, Matrix};

/// A built URG with the per-shard statistics of the tiles it was built
/// from.
pub struct ShardedUrg {
    urg: Urg,
    shards: Vec<ShardStats>,
}

/// Incremental constructor: skeleton first, then one [`CityTile`] at a
/// time, then labels. Obtainable only through [`ShardedUrgBuilder::from_skeleton`]
/// (or, for the dense build, from a whole city's parts).
pub struct ShardedUrgBuilder {
    poi: PoiFeatureOptions,
    poi_index: PoiSpatialIndex,
    vgg: Option<VggSim>,
    /// Topology and preallocated feature matrices; labels come at `finish`.
    urg: Urg,
    shards: Vec<ShardStats>,
    next_region: usize,
}

/// The URG topology: unique undirected pairs from the enabled edge
/// sources, the directed edge index (both directions plus self-loops) for
/// attention neighbourhoods, and the symmetrically normalized `A + I` for
/// GCN-style propagation. Needs only the grid and the road network, so the
/// streamed build runs it before any imagery tile is rendered.
fn topology(
    w: usize,
    h: usize,
    roads: &RoadNetwork,
    opts: UrgOptions,
) -> (Vec<(u32, u32)>, Arc<EdgeIndex>, Arc<CsrPair>) {
    let n = w * h;
    let pairs = {
        let _e = uvd_obs::span("urg.edges");
        let mut lists = Vec::new();
        if opts.spatial {
            lists.push(spatial_edges_dims(w, h));
        }
        if opts.road {
            lists.push(road_edges_from(roads, w, opts.road_hops));
        }
        merge_pairs(lists)
    };
    let _c = uvd_obs::span("urg.csr");
    let mut directed: Vec<(u32, u32)> = Vec::with_capacity(pairs.len() * 2 + n);
    let mut coo: Vec<(u32, u32, f32)> = Vec::with_capacity(pairs.len() * 2 + n);
    for &(a, b) in &pairs {
        directed.push((a, b));
        directed.push((b, a));
        coo.push((a, b, 1.0));
        coo.push((b, a, 1.0));
    }
    for i in 0..n as u32 {
        directed.push((i, i));
        coo.push((i, i, 1.0));
    }
    let edges = Arc::new(EdgeIndex::from_pairs(n, directed));
    let adj_norm = CsrPair::new(Csr::from_coo(n, n, coo).sym_normalized());
    (pairs, edges, adj_norm)
}

/// The survey's labeled regions (positives and negatives), sorted by
/// region id, with the binary labels aligned (1 = urban village).
fn labeled_rows(labels: &SurveyLabels) -> (Vec<u32>, Vec<f32>) {
    let mut labeled: Vec<(u32, f32)> = labels
        .uv_regions
        .iter()
        .map(|&r| (r, 1.0))
        .chain(labels.non_uv_regions.iter().map(|&r| (r, 0.0)))
        .collect();
    labeled.sort_unstable_by_key(|&(r, _)| r);
    labeled.into_iter().unzip()
}

impl ShardedUrgBuilder {
    /// Build topology and the POI index from the stream's skeleton (land
    /// use, POIs, roads) — no tile needs to have been rendered yet.
    pub fn from_skeleton(stream: &CityStream, opts: UrgOptions) -> ShardedUrgBuilder {
        Self::from_parts(
            stream.name(),
            stream.width(),
            stream.height(),
            stream.roads(),
            stream.pois(),
            opts,
        )
    }

    /// Build topology and the POI index from a `w × h` city's name, roads
    /// and POIs, and allocate the city-wide feature matrices.
    pub(crate) fn from_parts(
        name: &str,
        w: usize,
        h: usize,
        roads: &RoadNetwork,
        pois: &[Poi],
        opts: UrgOptions,
    ) -> ShardedUrgBuilder {
        let n = w * h;
        let (pairs, edges, adj_norm) = topology(w, h, roads, opts);
        ShardedUrgBuilder {
            poi: opts.poi,
            poi_index: PoiSpatialIndex::from_parts(w, h, pois),
            vgg: opts.image.then(VggSim::new),
            urg: Urg {
                name: name.to_string(),
                n,
                width: w,
                height: h,
                pairs,
                edges,
                adj_norm,
                x_poi: Matrix::zeros(n, opts.poi.dim()),
                x_img: Matrix::zeros(n, if opts.image { VGG_SIM_DIM } else { 0 }),
                raw_images: None,
                labeled: Vec::new(),
                y: Vec::new(),
            },
            shards: Vec::new(),
            next_region: 0,
        }
    }

    /// Fold one tile: write its POI feature rows and VGG-sim image rows
    /// (parallel over regions, bitwise thread-count invariant — each row is
    /// an independent pure function of the index or its pixels) into the
    /// city-wide matrices, and count its shard statistics. The tile's
    /// imagery is released by the caller when the tile drops.
    pub fn add_tile(&mut self, tile: &CityTile) {
        assert_eq!(
            tile.region_start, self.next_region,
            "tiles must arrive in order"
        );
        let lo = tile.region_start;
        let hi = lo + tile.n_regions;
        self.next_region = hi;

        let _f = uvd_obs::span("urg.features");
        let d_poi = self.urg.x_poi.cols();
        let poi_rows = &mut self.urg.x_poi.as_mut_slice()[lo * d_poi..hi * d_poi];
        poi_features_into(&self.poi_index, self.poi, lo, poi_rows);
        if let Some(vgg) = &self.vgg {
            let img_rows = &mut self.urg.x_img.as_mut_slice()[lo * VGG_SIM_DIM..hi * VGG_SIM_DIM];
            vgg.features_into(&tile.images, img_rows);
        }
        drop(_f);

        let mut halo: Vec<u32> = Vec::new();
        let mut n_local_edges = 0;
        for r in lo..hi {
            for (c, _) in self.urg.adj_norm.fwd.row_iter(r) {
                if c as usize == r {
                    continue; // self-loop
                }
                if (lo..hi).contains(&(c as usize)) {
                    n_local_edges += 1;
                } else {
                    halo.push(c);
                }
            }
        }
        let n_halo_edges = halo.len();
        halo.sort_unstable();
        halo.dedup();
        self.shards.push(ShardStats {
            region_start: lo,
            n_regions: tile.n_regions,
            n_local_edges,
            n_halo_edges,
            n_halo_regions: halo.len(),
        });
    }

    /// Standardize the image features in place and attach the labels.
    pub fn finish(mut self, labels: &SurveyLabels) -> ShardedUrg {
        assert_eq!(
            self.next_region, self.urg.n,
            "finish() before every tile was added ({}/{} regions)",
            self.next_region, self.urg.n
        );
        standardize_columns(&mut self.urg.x_img);
        (self.urg.labeled, self.urg.y) = labeled_rows(labels);
        ShardedUrg {
            urg: self.urg,
            shards: self.shards,
        }
    }
}

impl ShardedUrg {
    /// Drive a [`CityStream`] end to end: skeleton → tiles → labels.
    /// Emits a `urg.shard.build` span with region/edge/shard counts.
    ///
    /// Tile rendering and tile folding are pipelined: the caller thread
    /// renders tile `k+1` (the stream's RNG is inherently sequential) while
    /// a scoped worker folds tile `k` through [`ShardedUrgBuilder::add_tile`].
    /// A rendezvous channel hands tiles over strictly in index order, so the
    /// builder performs the exact serial fold — the pipeline changes *when*
    /// each tile is folded, never *what* is folded or in which order, and the
    /// result stays bitwise identical to the unpipelined loop. Peak imagery
    /// residency is two tiles (one rendering, one folding) instead of one.
    pub fn from_stream(mut stream: CityStream, opts: UrgOptions) -> ShardedUrg {
        let mut _s = uvd_obs::span("urg.shard.build");
        let mut builder = ShardedUrgBuilder::from_skeleton(&stream, opts);
        let threads = par::effective_threads();
        let fm = fastmath::enabled();
        if threads > 1 && stream.n_tiles() > 1 {
            std::thread::scope(|scope| {
                let (tx, rx) = std::sync::mpsc::sync_channel::<CityTile>(0);
                let builder = &mut builder;
                let folder = scope.spawn(move || {
                    // Thread-pool and fast-math overrides are thread-local:
                    // re-install the caller's effective width and tier so the
                    // fold parallelizes (and chunks, and rounds) exactly as
                    // it would on the caller thread.
                    par::with_threads(threads, || {
                        fastmath::with_fast_math(fm, || {
                            while let Ok(tile) = rx.recv() {
                                builder.add_tile(&tile);
                            }
                        })
                    });
                });
                while let Some(tile) = stream.next_tile() {
                    if tx.send(tile).is_err() {
                        break; // folder panicked; scope join surfaces it
                    }
                }
                drop(tx);
                folder.join().expect("tile folder thread panicked");
            });
        } else {
            while let Some(tile) = stream.next_tile() {
                builder.add_tile(&tile);
            }
        }
        let labels = stream.finish();
        let sharded = builder.finish(&labels);
        _s.add_field("n_regions", sharded.urg.n as f64);
        _s.add_field("n_edges", sharded.urg.edges.n_edges() as f64);
        _s.add_field("n_shards", sharded.shards.len() as f64);
        sharded
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Table I statistics plus the per-shard region/edge breakdown.
    pub fn stats(&self) -> UrgStats {
        UrgStats {
            shards: self.shards.clone(),
            ..self.urg.stats()
        }
    }

    /// The built [`Urg`] (`raw_images` left `None`; the streamed imagery is
    /// gone). A move: the feature matrices were written in place.
    pub fn into_urg(self) -> Urg {
        self.urg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_citysim::{City, CityPreset};

    fn streamed(seed: u64, tile_rows: usize, opts: UrgOptions) -> ShardedUrg {
        let stream = CityStream::new(CityPreset::tiny(), seed, tile_rows);
        ShardedUrg::from_stream(stream, opts)
    }

    #[test]
    fn into_urg_matches_monolithic_build_bitwise() {
        let city = City::from_config(CityPreset::tiny(), 11);
        let mono = Urg::build(&city, UrgOptions::default());
        let urg = streamed(11, 5, UrgOptions::default()).into_urg();
        assert_eq!(urg.pairs, mono.pairs);
        assert_eq!(urg.edges.n_edges(), mono.edges.n_edges());
        assert_eq!(urg.edges.src(), mono.edges.src());
        assert_eq!(urg.edges.dst(), mono.edges.dst());
        assert_eq!(urg.x_poi, mono.x_poi, "POI features must be bitwise equal");
        assert_eq!(urg.x_img, mono.x_img, "VGG features must be bitwise equal");
        assert_eq!(urg.labeled, mono.labeled);
        assert_eq!(urg.y, mono.y);
        // adj_norm values identical row by row.
        for r in 0..urg.n {
            assert_eq!(
                urg.adj_norm.fwd.row_iter(r).collect::<Vec<_>>(),
                mono.adj_norm.fwd.row_iter(r).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn shard_count_and_coverage() {
        let sharded = streamed(1, 4, UrgOptions::default());
        assert_eq!(sharded.n_shards(), 5); // ceil(18 / 4)
        let covered: usize = sharded.shards.iter().map(|s| s.n_regions).sum();
        assert_eq!(covered, sharded.urg.n);
        // Shards are contiguous and ordered.
        let mut next = 0usize;
        for s in &sharded.shards {
            assert_eq!(s.region_start, next);
            next += s.n_regions;
        }
    }

    #[test]
    fn shard_stats_count_the_adjacency_rows_in_range() {
        use std::collections::HashSet;
        for tile_rows in [3, 7] {
            let sharded = streamed(2, tile_rows, UrgOptions::default());
            let stats = sharded.stats();
            let urg = sharded.into_urg();
            for s in &stats.shards {
                let range = s.region_start..s.region_start + s.n_regions;
                let (mut local, mut halo) = (0, 0);
                let mut halo_regions = HashSet::new();
                for r in range.clone() {
                    for (c, _) in urg.adj_norm.fwd.row_iter(r) {
                        let c = c as usize;
                        if c != r && range.contains(&c) {
                            local += 1;
                        } else if !range.contains(&c) {
                            halo += 1;
                            halo_regions.insert(c);
                        }
                    }
                }
                let at = format!("tile_rows={tile_rows} shard at {}", s.region_start);
                assert_eq!(s.n_local_edges, local, "{at}: local edges");
                assert_eq!(s.n_halo_edges, halo, "{at}: halo edges");
                assert_eq!(s.n_halo_regions, halo_regions.len(), "{at}: halo regions");
            }
        }
    }

    #[test]
    fn stats_report_shards_without_materialization() {
        let sharded = streamed(3, 4, UrgOptions::default());
        let stats = sharded.stats();
        assert_eq!(stats.shards.len(), sharded.n_shards());
        assert_eq!(
            stats.shards.iter().map(|s| s.n_regions).sum::<usize>(),
            stats.n_regions
        );
        // Local + halo directed edge counts over all shards equal the global
        // directed edge count (each non-self-loop edge is counted at its
        // destination shard exactly once).
        let directed: usize = stats
            .shards
            .iter()
            .map(|s| s.n_local_edges + s.n_halo_edges)
            .sum();
        assert_eq!(directed, stats.n_edges);
        // The dense stats agree on the Table I fields.
        let mono = sharded.into_urg().stats();
        assert_eq!(stats.name, mono.name);
        assert_eq!(stats.n_regions, mono.n_regions);
        assert_eq!(stats.n_edges, mono.n_edges);
        assert_eq!(stats.n_uvs, mono.n_uvs);
        assert_eq!(stats.n_non_uvs, mono.n_non_uvs);
        assert!(mono.shards.is_empty(), "dense build reports no shards");
    }

    #[test]
    fn tile_height_does_not_change_features() {
        let a = streamed(5, 2, UrgOptions::default()).into_urg();
        let b = streamed(5, 18, UrgOptions::default()).into_urg();
        assert_eq!(a.x_img, b.x_img);
        assert_eq!(a.x_poi, b.x_poi);
    }

    #[test]
    fn image_ablation_streams_without_vgg() {
        let urg = streamed(6, 5, UrgOptions::no_image()).into_urg();
        assert_eq!(urg.x_img.shape(), (urg.n, 0));
        assert!(urg.raw_images.is_none());
    }
}
