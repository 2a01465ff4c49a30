//! # uvd-urg
//!
//! Urban Region Graph construction (paper Section IV): region relation
//! building from spatial proximity and road connectivity, POI feature
//! extraction (category distribution, POI radius buckets, basic-living-
//! facility index), and VGG-sim image features.
//!
//! ```
//! use uvd_citysim::{City, CityPreset};
//! use uvd_urg::{Urg, UrgOptions};
//!
//! let city = City::from_config(CityPreset::tiny(), 1);
//! let urg = Urg::build(&city, UrgOptions::default());
//! assert_eq!(urg.x_poi.cols(), 64);
//! assert_eq!(urg.x_img.cols(), 256);
//! ```

pub mod detector;
pub mod edges;
pub mod features;
pub mod graph;
pub mod shard;
pub mod vgg;

pub use detector::{Detector, FitError, FitReport};
pub use features::{PoiFeatureOptions, PoiSpatialIndex};
pub use graph::{
    serde_like::{ShardStats, UrgStats},
    UpdateError, Urg, UrgOptions,
};
pub use shard::{ShardedUrg, ShardedUrgBuilder};
pub use vgg::{standardize_columns, VggSim, VGG_SIM_DIM};
