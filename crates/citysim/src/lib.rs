//! # uvd-citysim
//!
//! Synthetic city generator standing in for the paper's proprietary urban
//! data (Baidu Maps POIs, satellite tiles, road networks, crowdsourced UV
//! labels). Given a [`CityConfig`] and a seed it deterministically produces:
//!
//! * a latent land-use map with urban-village patches planted in the
//!   downtown–suburb transition ring ([`landuse`]),
//! * POIs whose per-category rates encode the socioeconomic signature of
//!   each land use ([`poi`]),
//! * a road network with poor formal connectivity inside urban villages
//!   ([`roads`]),
//! * 32×32 RGB "satellite" textures per region ([`imagery`]),
//! * survey labels: discovered UV patches plus verified negatives
//!   ([`labels`]).
//!
//! See DESIGN.md §1 for the substitution argument: the generator reproduces
//! the class-conditional statistics the paper's features rely on, so the
//! full CMSF pipeline is exercised on equivalent code paths.
//!
//! ```
//! use uvd_citysim::{City, CityPreset};
//!
//! let city = City::from_config(CityPreset::tiny(), 42);
//! assert!(city.n_true_uvs() > 0);
//! assert!(city.labels.num_labeled() > 0);
//! ```

pub mod config;
pub mod imagery;
pub mod labels;
pub mod landuse;
pub mod noise;
pub mod poi;
pub mod roads;
pub mod stream;
pub mod types;

pub use config::{CityConfig, CityPreset};
pub use stream::{CityStream, CityTile};
pub use types::{
    City, FacilityClass, LandUse, Poi, PoiCategory, PoiKind, RadiusType, RegionProfile,
    RoadNetwork, SurveyLabels, CELL_METERS, IMG_CHANNELS, IMG_LEN, IMG_SIZE,
};

use rand::SeedableRng;

impl City {
    /// Generate a city from a configuration, fully deterministic in `seed`.
    pub fn from_config(cfg: CityConfig, seed: u64) -> City {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let map = landuse::generate_land_use(&cfg, &mut rng);
        let profiles = landuse::derive_profiles(&cfg, &map, &mut rng);
        let pois = poi::generate_pois(&cfg, &map, &profiles, &mut rng);
        let roads = roads::generate_roads(&cfg, &map, &mut rng);
        let images = imagery::render_city(&profiles, &mut rng);
        let labels = labels::survey(&cfg, &map, &mut rng);
        City {
            height: cfg.height,
            width: cfg.width,
            land_use: map.cells,
            profiles,
            pois,
            roads,
            images,
            labels,
            seed,
            name: cfg.name,
        }
    }

    /// Generate one of the three paper-analogue cities.
    pub fn from_preset(preset: CityPreset, seed: u64) -> City {
        City::from_config(preset.config(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_city_has_all_parts() {
        let city = City::from_config(CityPreset::tiny(), 1);
        assert_eq!(city.land_use.len(), city.n_regions());
        assert_eq!(city.images.len(), city.n_regions() * IMG_LEN);
        assert!(!city.pois.is_empty());
        assert!(!city.roads.edges.is_empty());
        assert!(!city.labels.uv_regions.is_empty());
        assert!(!city.labels.non_uv_regions.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = City::from_config(CityPreset::tiny(), 7);
        let b = City::from_config(CityPreset::tiny(), 7);
        assert_eq!(a.land_use, b.land_use);
        assert_eq!(a.pois.len(), b.pois.len());
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels.uv_regions, b.labels.uv_regions);
    }

    #[test]
    fn different_seeds_differ() {
        let a = City::from_config(CityPreset::tiny(), 1);
        let b = City::from_config(CityPreset::tiny(), 2);
        assert_ne!(a.land_use, b.land_use);
    }

    #[test]
    fn presets_generate() {
        for preset in CityPreset::ALL {
            let city = City::from_preset(preset, 3);
            assert!(city.n_true_uvs() > 30, "{preset:?} too few UVs");
            assert!(
                city.labels.uv_regions.len() <= city.n_true_uvs(),
                "cannot label more UVs than exist"
            );
        }
    }

    #[test]
    fn region_geometry_roundtrip() {
        let city = City::from_config(CityPreset::tiny(), 4);
        for r in [0usize, 17, 161, city.n_regions() - 1] {
            let (x, y) = city.region_xy(r);
            assert_eq!(city.region_at(x, y), r);
            let (cx, cy) = city.region_center(r);
            assert!(cx > 0.0 && cy > 0.0);
        }
    }
}
