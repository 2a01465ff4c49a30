//! # uvd-serve
//!
//! A resident scoring service over a trained CMSF checkpoint. The model
//! loads once (transactional [`Cmsf::restore_from_store`]); region-score
//! requests arrive as newline-delimited JSON over TCP and are micro-batched
//! into single recorded-tape replays; incremental `update_poi` requests
//! re-embed only the affected region's k-hop neighborhood instead of
//! re-running MAGA on the whole city.
//!
//! ```no_run
//! use uvd_citysim::{City, CityPreset};
//! use uvd_urg::{Urg, UrgOptions};
//! use uvd_serve::{ServeOptions, Server};
//!
//! let city = City::from_config(CityPreset::tiny(), 7);
//! let urg = Urg::build(&city, UrgOptions::default());
//! let cfg = cmsf::CmsfConfig::fast_test();
//! let store = uvd_tensor::MatrixStore::load("model.uvd").unwrap();
//! let server = Server::start(urg, cfg, store, ServeOptions::default()).unwrap();
//! println!("listening on {}", server.addr());
//! # server.shutdown();
//! ```
//!
//! [`Cmsf::restore_from_store`]: cmsf::Cmsf::restore_from_store

pub mod engine;
pub mod env;
pub mod proto;
pub mod server;

pub use engine::{BatchScorer, Caches, UpdateOutcome, Updater};
pub use server::{ServeOptions, Server};
