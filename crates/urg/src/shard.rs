//! Sharded, CSR-native Urban Region Graph built incrementally from city
//! tiles (DESIGN.md §11).
//!
//! The monolithic [`Urg::build`] needs the whole [`City`] — including all
//! imagery (`n × 3072` floats, ≈ 4.3 GB at Beijing scale) — resident at
//! once. [`ShardedUrg`] instead consumes a [`CityStream`]: graph topology
//! and the POI spatial index come from the cheap skeleton before any tile
//! is rendered, then each imagery tile is folded into a per-shard feature
//! block (POI rows + VGG-sim rows) and dropped. Peak memory is one tile of
//! imagery plus the O(n) skeleton and feature blocks — never the full
//! image tensor.
//!
//! Each shard owns its row block of the normalized adjacency as a compact
//! CSR (local rows × global columns) plus a **halo index**: the sorted
//! external region ids its rows reference. A block spmm therefore needs
//! only the shard's own feature rows plus a gather of its halo rows —
//! the classic ghost-cell layout, shaped by the row-block partition the
//! tile stream produces naturally.
//!
//! Equivalence contract: [`ShardedUrg::into_urg`] is bitwise identical to
//! `Urg::build(&stream.collect_city(), opts)` in every field except
//! `raw_images` (kept `None` — pixel-space baselines need the monolithic
//! path). Topology and labels come from the functions the dense build
//! uses (`graph::topology`, `graph::labeled_rows`), POI rows are
//! per-region pure functions of the shared index, VGG rows are per-region
//! pure functions of the tile pixels, and standardization uses
//! [`standardize_blocks`], which runs the monolithic `f64` accumulator
//! chain over the blocks in row order.

use crate::features::{poi_features_rows, PoiSpatialIndex};
use crate::graph::serde_like::{ShardStats, UrgStats};
use crate::graph::{labeled_rows, topology, Urg, UrgOptions};
use crate::vgg::{standardize_blocks, VggSim};
use std::sync::Arc;
use uvd_citysim::{CityStream, CityTile, SurveyLabels};
use uvd_tensor::graph::CsrPair;
use uvd_tensor::{fastmath, par, Csr, EdgeIndex, Matrix};

/// One region-block shard: a contiguous row range of the URG with its
/// feature rows and its CSR row block of the normalized adjacency.
pub struct UrgShard {
    /// First region id in this shard.
    pub region_start: usize,
    /// Number of regions in this shard.
    pub n_regions: usize,
    /// Row block of the symmetrically normalized `A + I`: local rows,
    /// global columns, values identical to the full matrix's rows.
    pub adj_rows: Csr,
    /// Sorted external region ids referenced by `adj_rows` (ghost cells).
    pub halo: Vec<u32>,
    /// Directed edges (excluding self-loops) internal to this shard.
    pub n_local_edges: usize,
    /// Directed edges (excluding self-loops) crossing the shard boundary.
    pub n_halo_edges: usize,
    /// POI feature rows (`n_regions × d_poi`).
    pub x_poi: Matrix,
    /// Image feature rows (`n_regions × 256`), standardized at `finish`;
    /// `n_regions × 0` when the image modality is ablated.
    pub x_img: Matrix,
}

/// CSR-native shard-by-region-block URG, built incrementally from tiles.
pub struct ShardedUrg {
    pub name: String,
    pub n: usize,
    pub width: usize,
    pub height: usize,
    /// Undirected unique edge pairs, as in [`Urg::pairs`].
    pub pairs: Vec<(u32, u32)>,
    /// Global directed edge index (both directions + self-loops).
    pub edges: Arc<EdgeIndex>,
    /// Global normalized adjacency — shared topology; the per-shard
    /// `adj_rows` blocks are row slices of this matrix.
    pub adj_norm: Arc<CsrPair>,
    pub shards: Vec<UrgShard>,
    /// Labeled region ids, sorted, with labels aligned in `y`.
    pub labeled: Vec<u32>,
    pub y: Vec<f32>,
}

/// Incremental constructor: skeleton first, then one [`CityTile`] at a
/// time, then labels. Obtainable only through [`ShardedUrgBuilder::from_skeleton`].
pub struct ShardedUrgBuilder {
    name: String,
    n: usize,
    width: usize,
    height: usize,
    opts: UrgOptions,
    pairs: Vec<(u32, u32)>,
    edges: Arc<EdgeIndex>,
    adj_norm: Arc<CsrPair>,
    poi_index: PoiSpatialIndex,
    vgg: Option<VggSim>,
    shards: Vec<UrgShard>,
    next_region: usize,
}

impl ShardedUrgBuilder {
    /// Build topology and the POI index from the stream's skeleton (land
    /// use, POIs, roads) — no tile needs to have been rendered yet.
    pub fn from_skeleton(stream: &CityStream, opts: UrgOptions) -> ShardedUrgBuilder {
        let (w, h) = (stream.width(), stream.height());
        let n = w * h;
        let (pairs, edges, adj_norm) = topology(w, h, stream.roads(), opts);
        let poi_index = PoiSpatialIndex::from_parts(w, h, stream.pois());

        ShardedUrgBuilder {
            name: stream.name().to_string(),
            n,
            width: w,
            height: h,
            opts,
            pairs,
            edges,
            adj_norm,
            poi_index,
            vgg: if opts.image {
                Some(VggSim::new())
            } else {
                None
            },
            shards: Vec::new(),
            next_region: 0,
        }
    }

    /// Fold one tile into a shard: POI feature rows, VGG-sim image rows
    /// (parallel over regions, bitwise thread-count invariant — each row is
    /// an independent pure function of its pixels), and the adjacency row
    /// block with its halo. The tile's imagery is released by the caller
    /// when the tile drops.
    pub fn add_tile(&mut self, tile: &CityTile) {
        assert_eq!(
            tile.region_start, self.next_region,
            "tiles must arrive in order"
        );
        self.next_region += tile.n_regions;
        let lo = tile.region_start;
        let hi = lo + tile.n_regions;

        let _f = uvd_obs::span("urg.features");
        let x_poi = poi_features_rows(&self.poi_index, self.opts.poi, lo..hi);
        let x_img = match &self.vgg {
            Some(vgg) => vgg.features(&tile.images),
            None => Matrix::zeros(tile.n_regions, 0),
        };
        drop(_f);

        let rows: Vec<u32> = (lo as u32..hi as u32).collect();
        let adj_rows = self.adj_norm.fwd.gather_rows(&rows);
        let mut halo: Vec<u32> = Vec::new();
        let (mut n_local, mut n_halo) = (0usize, 0usize);
        for r in 0..tile.n_regions {
            for (c, _) in adj_rows.row_iter(r) {
                let c = c as usize;
                if c == lo + r {
                    continue; // self-loop
                }
                if (lo..hi).contains(&c) {
                    n_local += 1;
                } else {
                    n_halo += 1;
                    halo.push(c as u32);
                }
            }
        }
        halo.sort_unstable();
        halo.dedup();

        self.shards.push(UrgShard {
            region_start: lo,
            n_regions: tile.n_regions,
            adj_rows,
            halo,
            n_local_edges: n_local,
            n_halo_edges: n_halo,
            x_poi,
            x_img,
        });
    }

    /// Standardize the image-feature blocks (bitwise equal to monolithic
    /// [`crate::vgg::standardize_columns`]) and attach the labels.
    pub fn finish(mut self, labels: &SurveyLabels) -> ShardedUrg {
        assert_eq!(
            self.next_region, self.n,
            "finish() before every tile was added ({}/{} regions)",
            self.next_region, self.n
        );
        if self.opts.image {
            let mut blocks: Vec<Matrix> = self
                .shards
                .iter_mut()
                .map(|s| std::mem::replace(&mut s.x_img, Matrix::zeros(0, 0)))
                .collect();
            standardize_blocks(&mut blocks);
            for (s, b) in self.shards.iter_mut().zip(blocks) {
                s.x_img = b;
            }
        }
        let (labeled, y) = labeled_rows(labels);

        ShardedUrg {
            name: self.name,
            n: self.n,
            width: self.width,
            height: self.height,
            pairs: self.pairs,
            edges: self.edges,
            adj_norm: self.adj_norm,
            shards: self.shards,
            labeled,
            y,
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
        _s.add_field("n_regions", sharded.n as f64);
        _s.add_field("n_edges", sharded.edges.n_edges() as f64);
        _s.add_field("n_shards", sharded.shards.len() as f64);
        sharded
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// POI feature dimensionality.
    pub fn poi_dim(&self) -> usize {
        self.shards.first().map(|s| s.x_poi.cols()).unwrap_or(0)
    }

    /// Image feature dimensionality (0 when ablated).
    pub fn img_dim(&self) -> usize {
        self.shards.first().map(|s| s.x_img.cols()).unwrap_or(0)
    }

    /// Locate the shard owning a region id.
    fn shard_of(&self, region: usize) -> &UrgShard {
        let i = self
            .shards
            .partition_point(|s| s.region_start + s.n_regions <= region);
        let s = &self.shards[i];
        debug_assert!((s.region_start..s.region_start + s.n_regions).contains(&region));
        s
    }

    /// Gather POI feature rows for arbitrary region ids across shards.
    pub fn gather_poi_rows(&self, nodes: &[u32]) -> Matrix {
        self.gather(nodes, |s| &s.x_poi)
    }

    /// Gather image feature rows for arbitrary region ids across shards.
    pub fn gather_img_rows(&self, nodes: &[u32]) -> Matrix {
        self.gather(nodes, |s| &s.x_img)
    }

    fn gather<'a>(&'a self, nodes: &[u32], block: impl Fn(&'a UrgShard) -> &'a Matrix) -> Matrix {
        let d = block(self.shard_of(0)).cols();
        let mut out = Matrix::zeros(nodes.len(), d);
        for (i, &r) in nodes.iter().enumerate() {
            let s = self.shard_of(r as usize);
            out.row_mut(i)
                .copy_from_slice(block(s).row(r as usize - s.region_start));
        }
        out
    }

    /// Table I statistics plus per-shard region/edge breakdown — computed
    /// from the shard blocks directly, never materializing a monolithic
    /// [`Urg`].
    pub fn stats(&self) -> UrgStats {
        UrgStats {
            name: self.name.clone(),
            n_regions: self.n,
            n_edges: self.pairs.len() * 2,
            n_uvs: self.y.iter().filter(|&&v| v > 0.5).count(),
            n_non_uvs: self.y.iter().filter(|&&v| v <= 0.5).count(),
            shards: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    region_start: s.region_start,
                    n_regions: s.n_regions,
                    n_local_edges: s.n_local_edges,
                    n_halo_edges: s.n_halo_edges,
                    n_halo_regions: s.halo.len(),
                })
                .collect(),
        }
    }

    /// Materialize a monolithic [`Urg`] by concatenating the shard feature
    /// blocks. Bitwise identical to `Urg::build` on the equivalent city in
    /// every field except `raw_images` (left `None`); never touches the
    /// imagery. Each shard's feature blocks are freed right after they are
    /// copied into the concatenated matrices, so peak memory stays at ~1×
    /// the feature footprint (the ~450 MB matrices at Beijing scale). This
    /// is how the scaling harness hands a streamed build to the trainer.
    pub fn into_urg(mut self) -> Urg {
        let poi_d = self.poi_dim();
        let img_d = self.img_dim();
        let mut x_poi = Matrix::zeros(self.n, poi_d);
        let mut x_img = Matrix::zeros(self.n, img_d);
        for s in &mut self.shards {
            for r in 0..s.n_regions {
                x_poi
                    .row_mut(s.region_start + r)
                    .copy_from_slice(s.x_poi.row(r));
                x_img
                    .row_mut(s.region_start + r)
                    .copy_from_slice(s.x_img.row(r));
            }
            s.x_poi = Matrix::zeros(0, 0);
            s.x_img = Matrix::zeros(0, 0);
        }
        Urg {
            name: self.name,
            n: self.n,
            width: self.width,
            height: self.height,
            pairs: self.pairs,
            edges: self.edges,
            adj_norm: self.adj_norm,
            x_poi,
            x_img,
            raw_images: None,
            labeled: self.labeled,
            y: self.y,
        }
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
        assert_eq!(covered, sharded.n);
        // Shards are contiguous and ordered.
        let mut next = 0usize;
        for s in &sharded.shards {
            assert_eq!(s.region_start, next);
            next += s.n_regions;
        }
    }

    #[test]
    fn halo_index_is_exactly_the_external_columns() {
        let sharded = streamed(2, 6, UrgOptions::default());
        for s in &sharded.shards {
            let range = s.region_start..s.region_start + s.n_regions;
            let mut expect: Vec<u32> = (0..s.n_regions)
                .flat_map(|r| s.adj_rows.row_iter(r).map(|(c, _)| c))
                .filter(|&c| !range.contains(&(c as usize)))
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(s.halo, expect);
            // Row-block partition ⇒ halo never includes owned regions.
            assert!(s.halo.iter().all(|&c| !range.contains(&(c as usize))));
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
        // The monolithic stats agree on the Table I fields.
        let mono = sharded.into_urg().stats();
        assert_eq!(stats.name, mono.name);
        assert_eq!(stats.n_regions, mono.n_regions);
        assert_eq!(stats.n_edges, mono.n_edges);
        assert_eq!(stats.n_uvs, mono.n_uvs);
        assert_eq!(stats.n_non_uvs, mono.n_non_uvs);
        assert!(mono.shards.is_empty(), "dense build reports no shards");
    }

    #[test]
    fn gather_rows_match_concatenated_features() {
        let sharded = streamed(4, 3, UrgOptions::default());
        let urg = streamed(4, 3, UrgOptions::default()).into_urg();
        let nodes: Vec<u32> = vec![0, 17, 18, 100, (sharded.n - 1) as u32];
        let poi = sharded.gather_poi_rows(&nodes);
        let img = sharded.gather_img_rows(&nodes);
        for (i, &r) in nodes.iter().enumerate() {
            assert_eq!(poi.row(i), urg.x_poi.row(r as usize));
            assert_eq!(img.row(i), urg.x_img.row(r as usize));
        }
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
        let sharded = streamed(6, 5, UrgOptions::no_image());
        assert_eq!(sharded.img_dim(), 0);
        assert_eq!(sharded.into_urg().x_img.cols(), 0);
    }
}
