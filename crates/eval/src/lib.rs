//! # uvd-eval
//!
//! Evaluation harness: metrics (AUC, top-p% Recall/Precision/F1), coarse
//! block-level cross-validation splits, label-ratio masks, the experiment
//! runner aggregating mean ± SD across seeds, detector factory, and
//! serializable result records.

pub mod cities;
pub mod factory;
pub mod faults;
pub mod metrics;
pub mod records;
pub mod runner;
pub mod screening;
pub mod splits;

pub use cities::{dataset_city, dataset_seed, dataset_urg};
pub use factory::{build_detector, MethodKind};
pub use faults::{Fault, FaultyDetector};
pub use metrics::{auc, prf_at_top_percent, MetricError, Prf};
pub use records::{
    DatasetRow, ExperimentRecord, FoldOutcome, FoldStage, MeanStd, MethodSummary, PSummary,
};
pub use runner::{eval_scores, run_custom, run_method, RunError, RunSpec};
pub use screening::{cluster_candidates, rank_regions, short_list, Candidate};
pub use splits::{block_folds, mask_ratio, train_test_pairs};
