//! # uvd-tensor
//!
//! Minimal dense-matrix tensor library with tape-based reverse-mode autodiff,
//! purpose-built for the graph neural network workloads of the CMSF urban
//! village detection reproduction.
//!
//! The crate provides:
//! * [`Matrix`] — dense row-major `f32` matrices and the kernels used by the
//!   tape (matmul with free transposition, softmax, gather, ...).
//! * [`Graph`] — a define-by-run autodiff tape with graph-learning primitives:
//!   per-destination edge softmax, attention aggregation, constant sparse
//!   matmul, the MS-Gate `gated_matmul`, and im2col convolution. Since the
//!   Plan/Workspace split it is a recording facade over [`Plan`] (replayable
//!   op topology) + [`Workspace`] (reusable buffer arena): record the tape
//!   once, then [`Graph::replay`] each epoch with zero steady-state heap
//!   allocation; [`Graph::inference`] gives a no-grad forward-only mode.
//! * [`ParamRef`] / [`ParamSet`] / [`Adam`] — trainable parameters and the
//!   Adam optimizer with exponential learning-rate decay.
//! * [`Csr`] / [`EdgeIndex`] — the sparse structures shared with the URG.
//! * [`init`] — deterministic seeded initialization helpers.
//! * [`par`] — the parallel runtime behind the hot kernels: work-size
//!   thresholded dispatch, `UVD_THREADS` configuration, and deterministic
//!   row-partitioned execution.
//! * [`oracle`] — the frozen naive kernels every tier of the matmul family
//!   and spmm reproduces bit for bit (one numeric contract, no fused
//!   multiply-add).
//!
//! ```
//! use uvd_tensor::{Graph, Matrix, ParamRef, ParamSet, Adam};
//!
//! // Fit y = 2x with one weight: record the tape once, replay per epoch.
//! let w = ParamRef::new("w", Matrix::filled(1, 1, 0.0));
//! let mut set = ParamSet::new();
//! set.track(w.clone());
//! let mut opt = Adam::new(0.1);
//! let mut g = Graph::new();
//! let wv = g.param(&w);
//! let x = g.constant(Matrix::filled(1, 1, 3.0));
//! let y = g.matmul(x, wv);
//! let target = g.constant(Matrix::filled(1, 1, 6.0));
//! let loss = g.mse(y, target);
//! for epoch in 0..300 {
//!     if epoch > 0 {
//!         g.replay(); // refresh params, recompute in place — no allocation
//!     }
//!     g.backward(loss);
//!     g.write_grads();
//!     opt.step(&set);
//! }
//! assert!((w.value().get(0, 0) - 2.0).abs() < 1e-2);
//! ```

pub mod conv;
pub mod fastmath;
mod gemm;
pub mod graph;
pub mod init;
pub mod matrix;
pub mod oracle;
pub mod par;
pub mod param;
pub mod persist;
pub mod plan;
pub mod sample;
pub mod sparse;

pub use conv::{ConvMeta, ConvPoolStack, PoolMeta};
pub use graph::{CsrPair, Graph, NodeId};
pub use init::{seeded_rng, Rng64};
pub use matrix::Matrix;
pub use param::{Adam, ParamRef, ParamSet};
pub use persist::MatrixStore;
pub use plan::{FusedAct, Plan, Workspace};
pub use sample::{NeighborSampler, SampleError};
pub use sparse::{Csr, EdgeIndex};
