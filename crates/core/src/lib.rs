//! # cmsf
//!
//! The paper's primary contribution: the **Contextual Master-Slave
//! Framework** for urban village detection on an Urban Region Graph.
//!
//! * [`maga`] — Mutual-Attentive Graph Aggregation (eqs. 1–8): intra- and
//!   cross-modal graph attention fusing POI and image modalities.
//! * [`gscm`] — Global Semantic Clustering Module (eqs. 9–13): temperature-
//!   softmax assignment to K latent clusters, learnable complete-graph
//!   convolution among clusters, reverse knowledge sharing.
//! * [`gate`] — MS-Gate (eqs. 17–22): PU pseudo-label predictor, region
//!   context vector, sigmoid parameter filter deriving a slave classifier
//!   per region.
//! * [`model`] — two-stage training (Algorithms 1 & 2) and detection.
//!
//! ```
//! use uvd_citysim::{City, CityPreset};
//! use uvd_urg::{Detector, Urg, UrgOptions};
//! use cmsf::{Cmsf, CmsfConfig};
//!
//! let city = City::from_config(CityPreset::tiny(), 7);
//! let urg = Urg::build(&city, UrgOptions::default());
//! let train: Vec<usize> = (0..urg.labeled.len()).collect();
//! let mut cfg = CmsfConfig::fast_test();
//! cfg.master_epochs = 4;
//! cfg.slave_epochs = 2;
//! let mut model = Cmsf::new(&urg, cfg);
//! model.fit(&urg, &train);
//! let probs = model.predict(&urg);
//! assert_eq!(probs.len(), urg.n);
//! ```

pub mod config;
pub mod env;
pub mod gate;
pub mod gscm;
pub mod maga;
pub mod model;
pub mod persist;

pub use config::CmsfConfig;
pub use gate::MsGate;
pub use gscm::{CollectionMode, FixedAssignment, Gscm};
pub use maga::{MagaLayer, MagaStack};
pub use model::{Cmsf, ServeBatch, ServeHead};
