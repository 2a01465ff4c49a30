//! The Urban Region Graph G(V, E, A, X) the models consume: edge pairs,
//! the directed edge index, the normalized adjacency, POI and image feature
//! matrices and survey labels. [`Urg::build`] runs the one URG builder
//! ([`crate::ShardedUrgBuilder`]) over a whole generated city as a single
//! tile; the ablation, induced-subgraph and incremental-update views live
//! here.

use crate::features::{poi_features, PoiFeatureOptions};
use crate::shard::ShardedUrgBuilder;
use serde_like::UrgStats;
use std::sync::Arc;
use uvd_citysim::{City, CityTile, IMG_LEN};
use uvd_tensor::graph::CsrPair;
use uvd_tensor::{EdgeIndex, Matrix};

/// Typed failure from [`Urg::update_poi`]: the incremental-update request
/// path of the serving layer, where a bad region id or a wrong-width feature
/// row must become an error reply rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    RegionOutOfBounds { region: usize, n_regions: usize },
    WidthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::RegionOutOfBounds { region, n_regions } => {
                write!(f, "region {region} out of bounds for {n_regions} regions")
            }
            UpdateError::WidthMismatch { expected, got } => {
                write!(f, "POI row has {got} features, graph expects {expected}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Options controlling URG construction; the Figure 5(b) data-ablation
/// variants are expressed by toggling these flags.
#[derive(Clone, Copy, Debug)]
pub struct UrgOptions {
    /// Include 8-neighbour spatial-proximity edges.
    pub spatial: bool,
    /// Include road-connectivity edges.
    pub road: bool,
    /// Road connectivity hop bound (paper: 5).
    pub road_hops: usize,
    /// POI feature groups.
    pub poi: PoiFeatureOptions,
    /// Include VGG-sim image features.
    pub image: bool,
}

impl Default for UrgOptions {
    fn default() -> Self {
        UrgOptions {
            spatial: true,
            road: true,
            road_hops: 5,
            poi: PoiFeatureOptions::default(),
            image: true,
        }
    }
}

impl UrgOptions {
    /// The Figure 5(b) named variants.
    pub fn no_image() -> Self {
        UrgOptions {
            image: false,
            ..Default::default()
        }
    }

    pub fn no_cate() -> Self {
        let mut o = UrgOptions::default();
        o.poi.cate = false;
        o
    }

    pub fn no_rad() -> Self {
        let mut o = UrgOptions::default();
        o.poi.radius = false;
        o
    }

    pub fn no_index() -> Self {
        let mut o = UrgOptions::default();
        o.poi.facility = false;
        o
    }

    pub fn no_road() -> Self {
        UrgOptions {
            road: false,
            ..Default::default()
        }
    }

    pub fn no_prox() -> Self {
        UrgOptions {
            spatial: false,
            ..Default::default()
        }
    }
}

/// The Urban Region Graph: nodes are region grids, edges come from spatial
/// proximity and road connectivity, features from POIs and imagery
/// (paper Section IV). `Clone` is cheap-ish: the sparse structures are
/// shared `Arc`s; only the feature matrices and label vectors copy (the
/// serving layer clones one mutable instance for incremental updates).
#[derive(Clone)]
pub struct Urg {
    pub name: String,
    pub n: usize,
    pub width: usize,
    pub height: usize,
    /// Undirected unique edge pairs `(a, b)`, `a < b`, no self-loops.
    pub pairs: Vec<(u32, u32)>,
    /// Directed edge index (both directions plus self-loops), sorted by
    /// destination — the neighbourhood structure attention layers use.
    pub edges: Arc<EdgeIndex>,
    /// Symmetrically normalized `A + I` for GCN-style propagation.
    pub adj_norm: Arc<CsrPair>,
    /// POI feature matrix (`n × d_poi`).
    pub x_poi: Matrix,
    /// Standardized image feature matrix (`n × 256`), or `n × 0` when the
    /// image modality is ablated.
    pub x_img: Matrix,
    /// Raw region images (`n × IMG_LEN`), kept for the CNN baselines that
    /// operate on pixels (UVLens, MUVFCN); `None` when the image modality is
    /// ablated.
    pub raw_images: Option<Arc<Matrix>>,
    /// Labeled region ids (survey output), sorted.
    pub labeled: Vec<u32>,
    /// Binary labels aligned with `labeled` (1 = urban village).
    pub y: Vec<f32>,
}

impl Urg {
    /// Build the URG from a city with the given options: the tile builder
    /// over one whole-city tile. The imagery is cloned once, into that
    /// tile, whose buffer then becomes `raw_images`.
    pub fn build(city: &City, opts: UrgOptions) -> Urg {
        let mut _s = uvd_obs::span("urg.build");
        let n = city.n_regions();
        _s.add_field("n_regions", n as f64);
        let mut builder = ShardedUrgBuilder::from_parts(
            &city.name,
            city.width,
            city.height,
            &city.roads,
            &city.pois,
            opts,
        );
        let tile = CityTile {
            row_start: 0,
            n_rows: city.height,
            region_start: 0,
            n_regions: n,
            images: if opts.image {
                city.images.clone()
            } else {
                Vec::new()
            },
        };
        builder.add_tile(&tile);
        let mut urg = builder.finish(&city.labels).into_urg();
        _s.add_field("n_edges", urg.edges.n_edges() as f64);
        if opts.image {
            urg.raw_images = Some(Arc::new(Matrix::from_vec(n, IMG_LEN, tile.images)));
        }
        urg
    }

    /// Build an ablation variant of the URG cheaply by reusing the
    /// expensive pieces of an already-built full URG (VGG image features
    /// dominate build time). `base` must have been built from the same
    /// `city` with [`UrgOptions::default`].
    pub fn variant_from(city: &City, opts: UrgOptions, base: &Urg) -> Urg {
        assert_eq!(base.n, city.n_regions(), "base URG mismatch");
        // Edges: recompute only if an edge source was toggled (cheap).
        let mut variant = if opts.spatial && opts.road && opts.road_hops == 5 {
            Urg {
                name: base.name.clone(),
                n: base.n,
                width: base.width,
                height: base.height,
                pairs: base.pairs.clone(),
                edges: base.edges.clone(),
                adj_norm: base.adj_norm.clone(),
                x_poi: base.x_poi.clone(),
                x_img: base.x_img.clone(),
                raw_images: base.raw_images.clone(),
                labeled: base.labeled.clone(),
                y: base.y.clone(),
            }
        } else {
            let mut o = opts;
            o.image = false; // skip VGG; restored from base below
            let mut u = Urg::build(city, o);
            u.x_img = base.x_img.clone();
            u.raw_images = base.raw_images.clone();
            u
        };
        // Feature ablations.
        let default_poi = PoiFeatureOptions::default();
        if opts.poi.dim() != default_poi.dim() {
            variant.x_poi = poi_features(city, opts.poi);
        }
        if !opts.image {
            variant.x_img = Matrix::zeros(variant.n, 0);
            variant.raw_images = None;
        }
        variant
    }

    /// Dataset statistics in the shape of the paper's Table I. The edge
    /// count is directed (adjacency-matrix non-zeros, excluding self-loops)
    /// to match the paper's accounting.
    pub fn stats(&self) -> UrgStats {
        UrgStats {
            name: self.name.clone(),
            n_regions: self.n,
            n_edges: self.pairs.len() * 2,
            n_uvs: self.y.iter().filter(|&&v| v > 0.5).count(),
            n_non_uvs: self.y.iter().filter(|&&v| v <= 0.5).count(),
            shards: Vec::new(),
        }
    }

    /// Extract the induced sub-URG at `nodes` (strictly ascending region
    /// ids), relabeled to `0..nodes.len()`. Topology keeps only edges with
    /// both endpoints sampled; `adj_norm` values are **gathered** from the
    /// full normalized matrix (not renormalized), so message weights match
    /// the full graph exactly — together with the monotone relabel this is
    /// what makes uncapped k-hop mini-batch forwards bitwise-comparable to
    /// full-graph slices. Labels are intersected with `nodes` and re-indexed.
    pub fn induced(&self, nodes: &[u32]) -> Urg {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
        let edges = Arc::new(self.edges.induced_subgraph(nodes));
        let adj_norm = CsrPair::new(self.adj_norm.fwd.induced_subgraph(nodes));
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        {
            let mut map = vec![u32::MAX; self.n];
            for (new, &old) in nodes.iter().enumerate() {
                map[old as usize] = new as u32;
            }
            for &(a, b) in &self.pairs {
                let (na, nb) = (map[a as usize], map[b as usize]);
                if na != u32::MAX && nb != u32::MAX {
                    pairs.push((na.min(nb), na.max(nb)));
                }
            }
            pairs.sort_unstable();
        }
        let x_poi = self.x_poi.gather_rows(nodes);
        let x_img = self.x_img.gather_rows(nodes);
        let mut labeled: Vec<u32> = Vec::new();
        let mut y: Vec<f32> = Vec::new();
        for (new, &old) in nodes.iter().enumerate() {
            if let Ok(i) = self.labeled.binary_search(&old) {
                labeled.push(new as u32);
                y.push(self.y[i]);
            }
        }
        Urg {
            name: self.name.clone(),
            n: nodes.len(),
            width: self.width,
            height: self.height,
            pairs,
            edges,
            adj_norm,
            x_poi,
            x_img,
            raw_images: None,
            labeled,
            y,
        }
    }

    /// Overwrite one region's POI feature row in place — the serving-path
    /// incremental update (`update_poi` in the `uvd-serve` protocol). The
    /// graph topology and every other region's features are untouched, so a
    /// `maga_layers`-hop re-embed of the region's neighborhood is enough to
    /// bring cached representations back in sync (see DESIGN.md §12).
    /// Validates instead of panicking: a request-supplied region id must
    /// never kill a resident process.
    pub fn update_poi(&mut self, region: usize, row: &[f32]) -> Result<(), UpdateError> {
        if region >= self.n {
            return Err(UpdateError::RegionOutOfBounds {
                region,
                n_regions: self.n,
            });
        }
        if row.len() != self.x_poi.cols() {
            return Err(UpdateError::WidthMismatch {
                expected: self.x_poi.cols(),
                got: row.len(),
            });
        }
        self.x_poi.row_mut(region).copy_from_slice(row);
        Ok(())
    }

    /// Combined feature dimensionality (POI + image).
    pub fn feature_dim(&self) -> usize {
        self.x_poi.cols() + self.x_img.cols()
    }

    /// True iff the image modality is present.
    pub fn has_image(&self) -> bool {
        self.x_img.cols() > 0
    }

    /// Index into `labeled`/`y` for a region id, if labeled.
    pub fn label_of(&self, region: u32) -> Option<f32> {
        self.labeled.binary_search(&region).ok().map(|i| self.y[i])
    }
}

/// Serializable record types (kept in a tiny module so `urg` itself does not
/// depend on serde).
pub mod serde_like {
    /// Table I row, plus the per-shard breakdown when the URG was built
    /// through the streaming tile path (empty for a dense build).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct UrgStats {
        pub name: String,
        pub n_regions: usize,
        pub n_edges: usize,
        pub n_uvs: usize,
        pub n_non_uvs: usize,
        /// Per-shard region/edge counts, taken from the `adj_norm` rows in
        /// each tile's range as it was folded. Empty when the stats come
        /// from [`super::Urg::stats`].
        pub shards: Vec<ShardStats>,
    }

    /// One shard's row in [`UrgStats::shards`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ShardStats {
        pub region_start: usize,
        pub n_regions: usize,
        /// Directed edges (excluding self-loops) internal to the shard.
        pub n_local_edges: usize,
        /// Directed edges (excluding self-loops) crossing the boundary.
        pub n_halo_edges: usize,
        /// Distinct external regions referenced by the shard's `adj_norm`
        /// rows.
        pub n_halo_regions: usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_citysim::CityPreset;

    fn tiny_urg(seed: u64, opts: UrgOptions) -> Urg {
        let city = City::from_config(CityPreset::tiny(), seed);
        Urg::build(&city, opts)
    }

    #[test]
    fn build_full_urg() {
        let urg = tiny_urg(1, UrgOptions::default());
        assert!(urg.pairs.len() > urg.n); // denser than a path graph
        assert_eq!(urg.x_poi.rows(), urg.n);
        assert_eq!(urg.x_poi.cols(), 64);
        assert_eq!(urg.x_img.shape(), (urg.n, 256));
        assert_eq!(urg.labeled.len(), urg.y.len());
        assert!(urg.stats().n_uvs > 0);
    }

    #[test]
    fn every_node_has_self_loop() {
        let urg = tiny_urg(2, UrgOptions::default());
        for i in 0..urg.n {
            let has_self = urg
                .edges
                .incoming(i)
                .any(|e| urg.edges.src()[e] as usize == i);
            assert!(has_self, "node {i} missing self-loop");
        }
    }

    #[test]
    fn edges_are_symmetric() {
        let urg = tiny_urg(3, UrgOptions::default());
        let set: std::collections::HashSet<(u32, u32)> = (0..urg.edges.n_edges())
            .map(|e| (urg.edges.src()[e], urg.edges.dst()[e]))
            .collect();
        for &(s, d) in set.iter() {
            assert!(set.contains(&(d, s)), "missing reverse of ({s},{d})");
        }
    }

    #[test]
    fn no_road_has_fewer_edges_than_full() {
        let full = tiny_urg(4, UrgOptions::default());
        let no_road = tiny_urg(4, UrgOptions::no_road());
        let no_prox = tiny_urg(4, UrgOptions::no_prox());
        assert!(no_road.pairs.len() < full.pairs.len());
        assert!(no_prox.pairs.len() < full.pairs.len());
    }

    #[test]
    fn ablation_feature_dims() {
        assert_eq!(tiny_urg(5, UrgOptions::no_image()).x_img.cols(), 0);
        assert_eq!(tiny_urg(5, UrgOptions::no_cate()).x_poi.cols(), 16);
        assert_eq!(tiny_urg(5, UrgOptions::no_rad()).x_poi.cols(), 49);
        assert_eq!(tiny_urg(5, UrgOptions::no_index()).x_poi.cols(), 63);
    }

    #[test]
    fn label_lookup() {
        let urg = tiny_urg(6, UrgOptions::default());
        for (i, &r) in urg.labeled.iter().enumerate() {
            assert_eq!(urg.label_of(r), Some(urg.y[i]));
        }
        // A region id beyond the grid is never labeled.
        assert_eq!(urg.label_of(u32::MAX), None);
    }

    #[test]
    fn variant_from_matches_direct_build() {
        let city = City::from_config(CityPreset::tiny(), 8);
        let base = Urg::build(&city, UrgOptions::default());
        for opts in [
            UrgOptions::no_image(),
            UrgOptions::no_cate(),
            UrgOptions::no_road(),
            UrgOptions::no_prox(),
        ] {
            let fast = Urg::variant_from(&city, opts, &base);
            let slow = Urg::build(&city, opts);
            assert_eq!(fast.pairs, slow.pairs);
            assert_eq!(fast.x_poi, slow.x_poi);
            assert_eq!(fast.x_img.shape(), slow.x_img.shape());
            assert_eq!(fast.labeled, slow.labeled);
        }
    }

    #[test]
    fn stats_match_labels() {
        let city = City::from_config(CityPreset::tiny(), 7);
        let urg = Urg::build(&city, UrgOptions::default());
        let s = urg.stats();
        assert_eq!(s.n_uvs, city.labels.uv_regions.len());
        assert_eq!(s.n_non_uvs, city.labels.non_uv_regions.len());
        assert_eq!(s.n_regions, city.n_regions());
    }
}
