//! The full CMSF model: two-stage training (Algorithms 1 & 2) and region-wise
//! detection (Section V-C).

use crate::config::CmsfConfig;
use crate::gate::MsGate;
use crate::gscm::{FixedAssignment, Gscm};
use crate::maga::MagaStack;
use rand::seq::SliceRandom;
use std::sync::Arc;
use std::time::Instant;
use uvd_nn::{Activation, FusionAgg, Linear, Mlp};
use uvd_tensor::init::{derive_seed, seeded_rng};
use uvd_tensor::{par, Adam, Graph, NeighborSampler, NodeId, ParamSet};
use uvd_urg::{Detector, FitError, FitReport, Urg};

/// Prefetched batch consumed without blocking (it was ready in the queue).
static PREFETCH_HIT: uvd_obs::Counter = uvd_obs::Counter::new("batch.prefetch.hit");
/// Consumer reached the queue before the producer finished the batch.
static PREFETCH_MISS: uvd_obs::Counter = uvd_obs::Counter::new("batch.prefetch.miss");
/// Total milliseconds the training loop blocked waiting on batch preparation.
static PREFETCH_WAIT_MS: uvd_obs::Counter = uvd_obs::Counter::new("batch.prefetch.wait_ms");

/// `(labeled rows, targets, weights)` triple shared by the BCE losses.
pub type BceVectors = (Arc<Vec<u32>>, Arc<Vec<f32>>, Arc<Vec<f32>>);

/// The Contextual Master-Slave Framework.
pub struct Cmsf {
    pub cfg: CmsfConfig,
    img_reduce: Option<Linear>,
    maga: MagaStack,
    pub(crate) gscm: Option<Gscm>,
    global_fuse: FusionAgg,
    classifier: Mlp,
    gate: Option<MsGate>,
    /// Frozen clustering state after the master stage.
    fixed: Option<FixedAssignment>,
    params: ParamSet,
    trained_slave: bool,
    /// Feature widths the model was built for (input validation in `fit`).
    d_poi_in: usize,
    d_img_in: usize,
    /// Largest training workspace observed (bytes), across both stages.
    peak_ws_bytes: usize,
}

/// Intermediate representation of one forward pass.
struct Repr {
    /// Region representation `x̃'` fed to the classifier (N×d_final).
    x_final: NodeId,
    /// Updated cluster representations `h'` (None without hierarchy).
    h_prime: Option<NodeId>,
}

/// Node handles of a recorded detection head (see
/// [`Cmsf::record_serve_head`]).
struct ScoreNodes {
    x_final: NodeId,
    /// Gate filter `f` rows; `None` when the gated path is inactive.
    filter: Option<NodeId>,
    /// Sigmoid scores, one row per region.
    p: NodeId,
}

/// Handles of the serving *head* plan: `x̃` is a `set_value`-able leaf,
/// replays recompute the full-city classifier inputs and scores.
pub struct ServeHead {
    /// The `x̃` constant leaf (N×d_rep) — patch + `set_value` + `replay`.
    pub x_tilde: NodeId,
    /// Classifier input rows `x̃'` (N×d_final) to gather per request.
    pub x_final: NodeId,
    /// Gate filter rows (N×filter_len); `None` on gate-less variants.
    pub filter: Option<NodeId>,
    /// Full-city sigmoid scores (N×1).
    pub p: NodeId,
}

/// Handles of a per-worker batch scoring plan (see
/// [`Cmsf::record_serve_batch`]).
pub struct ServeBatch {
    /// Gathered `x_final` rows leaf (capacity×d_final).
    pub x: NodeId,
    /// Gathered gate-filter rows leaf; `None` on gate-less variants.
    pub filter: Option<NodeId>,
    /// Sigmoid scores for the gathered rows (capacity×1).
    pub p: NodeId,
}

/// One sampled mini-batch: the induced subgraph, its (ascending) global
/// node ids, and the BCE vectors remapped to subgraph-local rows.
struct SampledBatch {
    sub: Urg,
    nodes: Vec<u32>,
    bce: BceVectors,
}

/// The config fields batch sampling depends on — `Copy`, so the prefetch
/// producer thread can own them without borrowing the (non-`Send`) model.
#[derive(Clone, Copy)]
struct SampleSpec {
    seed: u64,
    fanout: usize,
    hops: usize,
}

/// Epoch-0 work item for one mini-batch: the sampled subgraph plus, on the
/// slave stage, the frozen assignment restricted to it.
struct PreparedBatch {
    batch: SampledBatch,
    fixed_sub: Option<FixedAssignment>,
}

/// Sample one batch's subgraph: the k-hop incoming neighborhood of the
/// batch's labeled seed regions, materialized as an induced [`Urg`] with the
/// BCE vectors remapped to subgraph-local rows. A free function of `Send`
/// state only (the model holds `Rc` parameters and cannot cross threads), so
/// the prefetch producer can run it off-thread. The sampler seed depends
/// only on `(spec.seed, batch_no)` — master and slave stages see identical
/// subgraphs, reruns are reproducible at any thread count, and preparation
/// order cannot leak into the result.
fn sample_batch_impl(
    urg: &Urg,
    spec: SampleSpec,
    batch_idx: &[usize],
    batch_no: usize,
) -> Result<SampledBatch, FitError> {
    let mut sp = uvd_obs::span("cmsf.sample").field("batch", batch_no as f64);
    let mut seeds: Vec<u32> = batch_idx.iter().map(|&i| urg.labeled[i]).collect();
    seeds.sort_unstable();
    let sampler = NeighborSampler::new(
        derive_seed(derive_seed(spec.seed, Cmsf::SEED_SAMPLER), batch_no as u64),
        spec.fanout,
        spec.hops,
    );
    let nodes = sampler.sample(&urg.edges, &seeds)?;
    sp.add_field("seeds", seeds.len() as f64);
    sp.add_field("nodes", nodes.len() as f64);
    sp.add_field("fanout", spec.fanout as f64);
    let sub = urg.induced(&nodes);
    // The loss runs over the batch's seeds only — other labeled regions
    // pulled in as neighbors contribute context, not supervision.
    let mut rows = Vec::with_capacity(batch_idx.len());
    let mut targets = Vec::with_capacity(batch_idx.len());
    for &i in batch_idx {
        let local = nodes
            .binary_search(&urg.labeled[i])
            .expect("seed row must be in its own sampled subgraph");
        rows.push(local as u32);
        targets.push(urg.y[i]);
    }
    let weights = vec![1.0f32; rows.len()];
    Ok(SampledBatch {
        sub,
        nodes,
        bce: (Arc::new(rows), Arc::new(targets), Arc::new(weights)),
    })
}

impl Cmsf {
    /// Construct CMSF for a URG's feature dimensions. The mini-batch knobs
    /// honor `UVD_BATCH` / `UVD_SAMPLE_FANOUT` over the programmatic config
    /// (same env-wins precedence as `UVD_THREADS`).
    pub fn new(urg: &Urg, cfg: CmsfConfig) -> Self {
        let mut cfg = cfg;
        if let Some(b) = crate::env::env_batch() {
            cfg.batch_size = b;
        }
        if let Some(f) = crate::env::env_fanout() {
            cfg.sample_fanout = f;
        }
        if let Some(p) = crate::env::env_prefetch() {
            cfg.prefetch = p;
        }
        let mut rng = seeded_rng(derive_seed(cfg.seed, 0xC35F));
        let d_poi = urg.x_poi.cols();
        let (img_reduce, d_img) = if urg.has_image() {
            (
                Some(Linear::new(
                    "cmsf.img_reduce",
                    urg.x_img.cols(),
                    cfg.img_reduce,
                    &mut rng,
                )),
                cfg.img_reduce,
            )
        } else {
            (None, 0)
        };
        let maga = MagaStack::new(
            "cmsf.maga",
            d_poi,
            d_img,
            cfg.hidden,
            cfg.n_heads,
            cfg.maga_layers,
            cfg.modal_agg,
            cfg.use_maga_cross,
            &mut rng,
        );
        let d_rep = maga.out_dim();
        let (gscm, global_fuse, d_final) = if cfg.use_hierarchy {
            let mut gscm = Gscm::new("cmsf.gscm", d_rep, cfg.k_clusters, cfg.tau, &mut rng);
            if cfg.soft_collection {
                gscm.collection = crate::gscm::CollectionMode::Soft;
            }
            let fuse = FusionAgg::new("cmsf.gfuse", cfg.global_agg, d_rep, &mut rng);
            let d_final = fuse.out_dim(d_rep);
            (Some(gscm), fuse, d_final)
        } else {
            (None, FusionAgg::Sum, d_rep)
        };
        let classifier = Mlp::new(
            "cmsf.clf",
            &[d_final, cfg.hidden, 1],
            Activation::Tanh,
            &mut rng,
        );
        let gate = if cfg.use_hierarchy && cfg.use_gate {
            Some(MsGate::new(
                "cmsf.gate",
                d_rep,
                cfg.k_clusters,
                cfg.hidden,
                &classifier,
                &mut rng,
            ))
        } else {
            None
        };

        let mut params = ParamSet::new();
        if let Some(l) = &img_reduce {
            l.collect_params(&mut params);
        }
        maga.collect_params(&mut params);
        if let Some(gscm) = &gscm {
            gscm.collect_params(&mut params);
        }
        global_fuse.collect_params(&mut params);
        classifier.collect_params(&mut params);
        if let Some(gate) = &gate {
            gate.collect_params(&mut params);
        }

        Cmsf {
            cfg,
            img_reduce,
            maga,
            gscm,
            global_fuse,
            classifier,
            gate,
            fixed: None,
            params,
            trained_slave: false,
            d_poi_in: d_poi,
            d_img_in: if urg.has_image() { urg.x_img.cols() } else { 0 },
            peak_ws_bytes: 0,
        }
    }

    /// Check that a URG's feature widths match what this model was built
    /// for; returns the first mismatch as a typed error instead of letting a
    /// matmul shape assert panic deep inside a kernel.
    pub fn validate_input(&self, urg: &Urg) -> Option<FitError> {
        if urg.x_poi.cols() != self.d_poi_in {
            return Some(FitError::ShapeMismatch {
                what: "x_poi",
                expected_cols: self.d_poi_in,
                got_cols: urg.x_poi.cols(),
            });
        }
        if self.d_img_in > 0 && urg.has_image() && urg.x_img.cols() != self.d_img_in {
            return Some(FitError::ShapeMismatch {
                what: "x_img",
                expected_cols: self.d_img_in,
                got_cols: urg.x_img.cols(),
            });
        }
        None
    }

    /// Forward through MAGA (+ image reduction). Returns `x̃` (N×d_rep).
    fn maga_forward(&self, g: &mut Graph, urg: &Urg) -> NodeId {
        let x_p = g.constant(urg.x_poi.clone());
        let x_i = self.img_reduce.as_ref().map(|l| {
            let raw = g.constant(urg.x_img.clone());
            let reduced = l.forward(g, raw);
            g.tanh(reduced)
        });
        self.maga.forward(g, x_p, x_i, &urg.edges)
    }

    /// Full representation pass; `fixed` freezes the assignment (slave
    /// stage / inference after slave training).
    fn representation(&self, g: &mut Graph, urg: &Urg, fixed: Option<&FixedAssignment>) -> Repr {
        let x_tilde = self.maga_forward(g, urg);
        self.representation_from(g, x_tilde, fixed)
    }

    /// Representation pass from an already-materialized `x̃` node — shared
    /// by the normal full pass and the serving head plan, which holds `x̃`
    /// as a `set_value`-able leaf instead of re-running MAGA.
    fn representation_from(
        &self,
        g: &mut Graph,
        x_tilde: NodeId,
        fixed: Option<&FixedAssignment>,
    ) -> Repr {
        match &self.gscm {
            Some(gscm) => {
                let out = gscm.forward(g, x_tilde, fixed);
                let x_final = self.global_fuse.forward(g, x_tilde, out.x_global);
                Repr {
                    x_final,
                    h_prime: Some(out.h_prime),
                }
            }
            None => Repr {
                x_final: x_tilde,
                h_prime: None,
            },
        }
    }

    /// Training targets/weights over all labeled rows for a train split.
    pub fn bce_vectors(&self, urg: &Urg, train_idx: &[usize]) -> BceVectors {
        let rows: Vec<u32> = train_idx.iter().map(|&i| urg.labeled[i]).collect();
        let targets: Vec<f32> = train_idx.iter().map(|&i| urg.y[i]).collect();
        let weights = vec![1.0f32; train_idx.len()];
        (Arc::new(rows), Arc::new(targets), Arc::new(weights))
    }

    /// Seed streams for the deterministic mini-batch machinery (arbitrary
    /// constants, distinct from the 0xC35F parameter-init stream).
    const SEED_BATCH_SHUFFLE: u64 = 0xB47C_0001;
    const SEED_SAMPLER: u64 = 0xB47C_0002;

    /// Deterministic mini-batch partition of the train split: one seeded
    /// Fisher-Yates shuffle, then contiguous chunks of `cfg.batch_size`.
    /// The partition is a pure function of `(cfg.seed, train_idx)` — fixed
    /// across epochs and across both training stages, so each batch's tape
    /// is recorded once and replayed. `None` when mini-batching is off
    /// (batch 0) or pointless (batch ≥ train set), in which case the stage
    /// trains full-batch: one batch over the whole graph, the
    /// bitwise-deterministic oracle.
    fn minibatches(&self, train_idx: &[usize]) -> Option<Vec<Vec<usize>>> {
        let b = self.cfg.batch_size;
        if b == 0 || b >= train_idx.len() {
            return None;
        }
        let mut idx = train_idx.to_vec();
        let mut rng = seeded_rng(derive_seed(self.cfg.seed, Self::SEED_BATCH_SHUFFLE));
        idx.shuffle(&mut rng);
        Some(idx.chunks(b).map(|c| c.to_vec()).collect())
    }

    /// The [`SampleSpec`] for this model's configuration.
    fn sample_spec(&self) -> SampleSpec {
        SampleSpec {
            seed: self.cfg.seed,
            fanout: self.cfg.sample_fanout,
            hops: self.cfg.maga_layers,
        }
    }

    /// Drive `consume` over every batch's [`PreparedBatch`], in batch order.
    ///
    /// With `cfg.prefetch == 0` preparation runs inline (the serial
    /// reference). Otherwise a scoped producer thread samples/induces up to
    /// `prefetch` batches ahead while the consumer records and steps the
    /// current one; a bounded channel hands items over strictly in order, so
    /// the consumer observes the exact serial sequence — prefetch changes
    /// *when* a batch is prepared, never *what* is prepared. The
    /// `batch.prefetch.{hit,miss,wait_ms}` counters report how often the
    /// pipeline kept up and how long the trainer stalled when it did not.
    fn for_each_prepared(
        &self,
        urg: &Urg,
        batches: &[Vec<usize>],
        fixed: Option<&FixedAssignment>,
        mut consume: impl FnMut(PreparedBatch) -> Result<(), FitError>,
    ) -> Result<(), FitError> {
        let spec = self.sample_spec();
        let prepare = |b_no: usize, b_idx: &[usize]| -> Result<PreparedBatch, FitError> {
            let batch = sample_batch_impl(urg, spec, b_idx, b_no)?;
            let fixed_sub = fixed.map(|f| f.induced(&batch.nodes));
            Ok(PreparedBatch { batch, fixed_sub })
        };
        if self.cfg.prefetch == 0 || batches.len() < 2 {
            for (b_no, b_idx) in batches.iter().enumerate() {
                consume(prepare(b_no, b_idx)?)?;
            }
            return Ok(());
        }
        // The thread-pool override is thread-local: capture the caller's
        // effective width and re-install it on the producer so batch
        // preparation parallelizes (and chunks) exactly as it would inline.
        let threads = par::effective_threads();
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel(self.cfg.prefetch);
            scope.spawn(move || {
                par::with_threads(threads, || {
                    for (b_no, b_idx) in batches.iter().enumerate() {
                        let item = prepare(b_no, b_idx);
                        let failed = item.is_err();
                        // A send error means the consumer bailed (train-step
                        // error path); a preparation error is forwarded and
                        // ends the stream.
                        if tx.send(item).is_err() || failed {
                            break;
                        }
                    }
                });
            });
            for _ in batches {
                let item = match rx.try_recv() {
                    Ok(item) => {
                        PREFETCH_HIT.add(1);
                        item
                    }
                    Err(std::sync::mpsc::TryRecvError::Empty) => {
                        PREFETCH_MISS.add(1);
                        let t = Instant::now();
                        let item = rx
                            .recv()
                            .expect("prefetch producer exited without a final item");
                        PREFETCH_WAIT_MS.add(t.elapsed().as_millis() as u64);
                        item
                    }
                    Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                        unreachable!("prefetch producer exited without a final item")
                    }
                };
                consume(item?)?;
            }
            Ok(())
        })
    }

    /// Algorithm 1: master training stage. Returns the average loss of the
    /// final epoch, or [`FitError::NonFiniteLoss`] at the first epoch whose
    /// loss diverges (no point polishing garbage parameters), and freezes
    /// the cluster assignment on success.
    ///
    /// With `cfg.batch_size > 0` the stage trains on neighbor-sampled
    /// mini-batches instead of the whole graph; full-batch remains the
    /// default and the bitwise-deterministic reference.
    pub fn train_master(&mut self, urg: &Urg, train_idx: &[usize]) -> Result<f32, FitError> {
        self.train_stage(urg, train_idx, None)
    }

    /// Algorithm 2: slave adaptive training stage. Requires a prior
    /// [`Cmsf::train_master`] (which froze the assignment); running it out of
    /// order is a typed [`FitError::StageOrder`] instead of a panic.
    pub fn train_slave(&mut self, urg: &Urg, train_idx: &[usize]) -> Result<f32, FitError> {
        if self.gscm.is_none() || self.gate.is_none() {
            return Ok(0.0); // CMSF-G / CMSF-H variants skip this stage.
        }
        let Some(fixed) = self.fixed.clone() else {
            return Err(FitError::StageOrder {
                required: "train_master",
                attempted: "train_slave",
            });
        };
        self.train_stage(urg, train_idx, Some(&fixed))
    }

    /// The one training-stage loop behind both stages: the master stage
    /// without `fixed`, the slave stage (gated tape, `lr * 0.3` optimizer)
    /// with the frozen assignment.
    ///
    /// Epoch 0 records one tape per batch against the current parameters
    /// and steps it; every later epoch replays each tape in place, in the
    /// same fixed order (refreshed parameter leaves, reused value/grad
    /// buffers — zero steady-state allocation). Full-batch training is the
    /// single batch that borrows the whole `urg`; mini-batches
    /// (GraphSAGE-style neighbor-sampled subgraphs, see
    /// [`Cmsf::minibatches`]) are prepared through [`Cmsf::for_each_prepared`],
    /// and on the slave stage carry the frozen assignment restricted to
    /// their subgraph. The rank loss keeps the *global* cluster partition
    /// (C₁/C₀) and pseudo labels either way. SGD over sampled subgraphs
    /// approximates the full-batch objective and is validated by the
    /// convergence contract, not bitwise equality. Returns the mean batch
    /// loss of the final epoch.
    fn train_stage(
        &mut self,
        urg: &Urg,
        train_idx: &[usize],
        fixed: Option<&FixedAssignment>,
    ) -> Result<f32, FitError> {
        let cfg = self.cfg;
        let (stage, epoch_span, epochs, lr) = match fixed {
            None => (
                "cmsf.master",
                "cmsf.master.epoch",
                cfg.master_epochs,
                cfg.lr,
            ),
            // The slave stage refines an already-trained master; a smaller
            // step size keeps the joint fine-tuning from washing out stage one.
            Some(_) => (
                "cmsf.slave",
                "cmsf.slave.epoch",
                cfg.slave_epochs,
                cfg.lr * 0.3,
            ),
        };
        let batches = self.minibatches(train_idx);
        let mut stage_span = uvd_obs::span(stage).field("epochs", epochs as f64);
        if let Some(batches) = &batches {
            stage_span.add_field("batches", batches.len() as f64);
        }
        let partition = fixed.map(FixedAssignment::partition);
        let mut opt = Adam::new(lr);
        let mut tapes: Vec<(Graph, NodeId)> = Vec::new();
        let mut run = || -> Result<f32, FitError> {
            let mut last = 0.0;
            for epoch in 0..epochs {
                let mut ep = uvd_obs::span(epoch_span).field("epoch", epoch as f64);
                let mut sum = 0.0;
                let mut step = |g: &mut Graph, loss: NodeId| {
                    let l = self.step(g, loss, &mut opt);
                    sum += l;
                    if l.is_finite() {
                        Ok(())
                    } else {
                        Err(FitError::NonFiniteLoss)
                    }
                };
                if epoch == 0 {
                    let mut record = |sub: &Urg,
                                      (rows, targets, weights): &BceVectors,
                                      fixed_sub: Option<&FixedAssignment>|
                     -> Result<(), FitError> {
                        let mut g = Graph::new();
                        let loss = match (fixed_sub, &partition) {
                            (Some(f), Some((c1, c0))) => self.record_slave_tape(
                                &mut g, sub, f, c1, c0, rows, targets, weights,
                            )?,
                            _ => self.record_master_tape(&mut g, sub, rows, targets, weights),
                        };
                        tapes.push((g, loss));
                        let (g, loss) = tapes.last_mut().expect("tape just pushed");
                        step(g, *loss)
                    };
                    match &batches {
                        None => record(urg, &self.bce_vectors(urg, train_idx), fixed)?,
                        // Batch k+1 is sampled/induced (and, on the slave
                        // stage, its assignment restricted) by the prefetch
                        // pipeline while batch k records and steps.
                        Some(batches) => self.for_each_prepared(urg, batches, fixed, |prep| {
                            record(&prep.batch.sub, &prep.batch.bce, prep.fixed_sub.as_ref())
                        })?,
                    }
                } else {
                    for (g, loss) in tapes.iter_mut() {
                        g.replay();
                        step(g, *loss)?;
                    }
                }
                last = sum / tapes.len() as f32;
                ep.add_field("loss", f64::from(last));
                opt.decay(cfg.lr_decay);
            }
            Ok(last)
        };
        let result = run();
        // Every batch tape is held for replay, so their *sum* is what is
        // resident at once.
        let resident: usize = tapes.iter().map(|(g, _)| g.workspace_bytes()).sum();
        self.peak_ws_bytes = self.peak_ws_bytes.max(resident);
        let last = result?;
        match fixed {
            // The assignment freeze stays a full-graph no-grad inference
            // pass in both modes: activations-only memory is modest even at
            // 350k regions, and it keeps the frozen clustering exact.
            None => self.freeze_assignment(urg, train_idx),
            Some(_) => self.trained_slave = true,
        }
        Ok(last)
    }

    /// Freeze the cluster assignment from the current representation and
    /// derive pseudo labels (Algorithm 1 line 11). No-op without hierarchy.
    /// Runs as a no-grad inference pass.
    pub fn freeze_assignment(&mut self, urg: &Urg, train_idx: &[usize]) {
        let mut sp = uvd_obs::span("cmsf.freeze");
        if let Some(gscm) = &self.gscm {
            let mut g = Graph::inference();
            let x_tilde = self.maga_forward(&mut g, urg);
            let fixed = gscm.freeze(&mut g, x_tilde, &urg.labeled, &urg.y, train_idx);
            for (name, value) in fixed.occupancy() {
                sp.add_field(name, value);
            }
            self.fixed = Some(fixed);
        }
    }

    /// Record the master-stage tape (representation → classifier → BCE) onto
    /// `g` and return the loss node. Shared by the replay training loop and
    /// the timing harnesses.
    pub fn record_master_tape(
        &self,
        g: &mut Graph,
        urg: &Urg,
        rows: &Arc<Vec<u32>>,
        targets: &Arc<Vec<f32>>,
        weights: &Arc<Vec<f32>>,
    ) -> NodeId {
        let repr = self.representation(g, urg, None);
        let logits = self.classifier.forward(g, repr.x_final);
        let labeled_logits = g.gather_rows(logits, rows.clone());
        g.bce_with_logits(labeled_logits, targets.clone(), weights.clone())
    }

    /// One optimizer step on a (recorded or replayed) tape: evaluate the
    /// loss, backprop, clip, and apply `opt`. Returns the loss value. The
    /// training stages call it once per batch per epoch; timing harnesses
    /// call it on a freshly recorded tape to time a rebuild-per-epoch.
    pub fn step(&self, g: &mut Graph, loss: NodeId, opt: &mut Adam) -> f32 {
        let value = g.scalar(loss);
        g.backward(loss);
        g.write_grads();
        if self.cfg.grad_clip > 0.0 {
            self.params.clip_grad_norm(self.cfg.grad_clip);
        }
        opt.step(&self.params);
        value
    }

    /// Record the slave-stage tape (Algorithm 2: gated classification loss
    /// `L_c` plus `λ`-scaled rank loss `L_p`) onto `g` and return the loss
    /// node. Shared by the replay training loop and the timing harnesses.
    /// Requires the MS-Gate and the cluster hierarchy; their absence is a
    /// typed [`FitError::MissingHierarchy`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_slave_tape(
        &self,
        g: &mut Graph,
        urg: &Urg,
        fixed: &FixedAssignment,
        c1: &[u32],
        c0: &[u32],
        rows: &Arc<Vec<u32>>,
        targets: &Arc<Vec<f32>>,
        weights: &Arc<Vec<f32>>,
    ) -> Result<NodeId, FitError> {
        let gate = self
            .gate
            .as_ref()
            .ok_or(FitError::MissingHierarchy { what: "gate" })?;
        let repr = self.representation(g, urg, Some(fixed));
        let h_prime = repr
            .h_prime
            .ok_or(FitError::MissingHierarchy { what: "h_prime" })?;
        // eq. 17 + eq. 18.
        let probs = gate.inclusion_probs(g, h_prime);
        let l_p = gate.rank_loss(g, probs, c1, c0);
        // eqs. 19–22.
        let q = gate.context(g, fixed, probs);
        let f = gate.filter(g, q);
        let logits = gate.gated_forward(g, &self.classifier, repr.x_final, f);
        let labeled_logits = g.gather_rows(logits, rows.clone());
        let l_c = g.bce_with_logits(labeled_logits, targets.clone(), weights.clone());
        // eq. 24.
        let l_p_scaled = g.scale(l_p, self.cfg.lambda);
        Ok(g.add(l_c, l_p_scaled))
    }

    /// Record the detection head from an `x̃` node: GSCM (assignment
    /// `fixed`) + fusion + MS-Gate + classifier + sigmoid, returning the
    /// node handles the serving layer caches. This *is* the op sequence of
    /// [`Cmsf::predict_proba`] and [`Cmsf::predict_proba_live`] after MAGA —
    /// every path runs through here, so served scores are bitwise the scores
    /// `predict` would produce.
    fn score_from_x_tilde(
        &self,
        g: &mut Graph,
        x_tilde: NodeId,
        fixed: Option<&FixedAssignment>,
    ) -> ScoreNodes {
        let (x_final, filter, logits) = match (&self.gate, fixed, self.trained_slave) {
            (Some(gate), Some(fixed), true) => {
                let repr = self.representation_from(g, x_tilde, Some(fixed));
                match repr.h_prime {
                    // Gated detection path (the trained configuration).
                    Some(h_prime) => {
                        let _gs = uvd_obs::span("cmsf.gate");
                        let probs = gate.inclusion_probs(g, h_prime);
                        let q = gate.context(g, fixed, probs);
                        let f = gate.filter(g, q);
                        let logits = gate.gated_forward(g, &self.classifier, repr.x_final, f);
                        (repr.x_final, Some(f), logits)
                    }
                    // Hierarchy unexpectedly absent (e.g. a checkpoint loaded
                    // into a gate-less representation): degrade to the plain
                    // classifier instead of panicking.
                    None => {
                        let logits = self.classifier.forward(g, repr.x_final);
                        (repr.x_final, None, logits)
                    }
                }
            }
            _ => {
                let repr = self.representation_from(g, x_tilde, fixed);
                let logits = self.classifier.forward(g, repr.x_final);
                (repr.x_final, None, logits)
            }
        };
        let p = g.sigmoid(logits);
        ScoreNodes { x_final, filter, p }
    }

    /// Detection (Section V-C): probability of being an urban village for
    /// every region.
    pub fn predict_proba(&self, urg: &Urg) -> Vec<f32> {
        let _s = uvd_obs::span("cmsf.predict");
        let mut g = Graph::inference();
        let x_tilde = self.maga_forward(&mut g, urg);
        let nodes = self.score_from_x_tilde(&mut g, x_tilde, self.fixed.as_ref());
        g.value(nodes.p).as_slice().to_vec()
    }

    /// The MAGA output `x̃` for a whole URG as a plain matrix — the cache
    /// the serving layer patches row-wise on incremental POI updates.
    pub fn x_tilde_matrix(&self, urg: &Urg) -> uvd_tensor::Matrix {
        let mut g = Graph::inference();
        let xt = self.maga_forward(&mut g, urg);
        g.value(xt).clone()
    }

    /// Width of the master-stage region representation `x̃` (d_rep).
    pub fn embedding_dim(&self) -> usize {
        self.maga.out_dim()
    }

    /// Record the serving *head* plan into `g`: `x̃` becomes a
    /// `set_value`-able constant leaf feeding the exact detection-head op
    /// sequence of [`Cmsf::predict_proba`]. Replaying after patching the
    /// leaf recomputes `x_final`, the gate filter and every region score
    /// without re-running MAGA.
    pub fn record_serve_head(&self, g: &mut Graph, x_tilde: &uvd_tensor::Matrix) -> ServeHead {
        let leaf = g.constant(x_tilde.clone());
        let nodes = self.score_from_x_tilde(g, leaf, self.fixed.as_ref());
        ServeHead {
            x_tilde: leaf,
            x_final: nodes.x_final,
            filter: nodes.filter,
            p: nodes.p,
        }
    }

    /// Record a per-worker batch scoring plan: `capacity` gathered
    /// `x_final` rows (and gate-filter rows when `gated`) as constant
    /// leaves, through the gated classifier to sigmoid scores. Per tick the
    /// worker `set_value`s the leaves and replays — one gated-matmul replay
    /// per micro-batch. Scores are row-independent in every kernel on this
    /// path, so a gathered row scores bitwise as it would in the full pass.
    ///
    /// `gated` must mirror the head plan's filter presence
    /// (`ServeHead::filter.is_some()`).
    pub fn record_serve_batch(
        &self,
        g: &mut Graph,
        capacity: usize,
        d_final: usize,
        gated: bool,
    ) -> ServeBatch {
        let x = g.constant(uvd_tensor::Matrix::zeros(capacity, d_final));
        match (gated, &self.gate) {
            (true, Some(gate)) => {
                let f = g.constant(uvd_tensor::Matrix::zeros(capacity, gate.filter_len()));
                let logits = gate.gated_forward(g, &self.classifier, x, f);
                let p = g.sigmoid(logits);
                ServeBatch {
                    x,
                    filter: Some(f),
                    p,
                }
            }
            _ => {
                let logits = self.classifier.forward(g, x);
                let p = g.sigmoid(logits);
                ServeBatch { x, filter: None, p }
            }
        }
    }

    /// Predict with a *live* assignment recomputed from the current
    /// representation (Section V-C describes computing membership for new
    /// regions at detection time; used by the city-growth example).
    pub fn predict_proba_live(&self, urg: &Urg, train_idx: &[usize]) -> Vec<f32> {
        match &self.gscm {
            Some(gscm) => {
                let mut g = Graph::inference();
                let x_tilde = self.maga_forward(&mut g, urg);
                let fixed = gscm.freeze(&mut g, x_tilde, &urg.labeled, &urg.y, train_idx);
                let nodes = self.score_from_x_tilde(&mut g, x_tilde, Some(&fixed));
                g.value(nodes.p).as_slice().to_vec()
            }
            None => self.predict_proba(urg),
        }
    }

    /// Frozen clustering state (available after the master stage).
    pub fn fixed_assignment(&self) -> Option<&FixedAssignment> {
        self.fixed.as_ref()
    }

    /// True once the slave adaptive stage has run.
    pub fn slave_trained(&self) -> bool {
        self.trained_slave
    }

    /// Overwrite the trained-state markers (used by checkpoint loading).
    pub fn set_trained_state(&mut self, fixed: Option<FixedAssignment>, slave_trained: bool) {
        self.fixed = fixed;
        self.trained_slave = slave_trained && self.gate.is_some();
    }

    /// The model's parameter set (for optimizers / size accounting).
    pub fn param_set(&self) -> &ParamSet {
        &self.params
    }

    /// Largest training workspace (value + gradient arena bytes) seen across
    /// the master and slave stages. Zero before training.
    pub fn peak_workspace_bytes(&self) -> usize {
        self.peak_ws_bytes
    }
}

impl Detector for Cmsf {
    fn name(&self) -> &'static str {
        if !self.cfg.use_maga_cross {
            "CMSF-M"
        } else if !self.cfg.use_hierarchy {
            "CMSF-H"
        } else if !self.cfg.use_gate {
            "CMSF-G"
        } else {
            "CMSF"
        }
    }

    fn fit(&mut self, urg: &Urg, train_idx: &[usize]) -> FitReport {
        if let Some(err) = self.validate_input(urg) {
            return FitReport {
                error: Some(err),
                ..FitReport::default()
            };
        }
        let start = Instant::now();
        let mut report = FitReport::default();
        match self.train_master(urg, train_idx) {
            Ok(master_loss) => {
                report.epochs = self.cfg.master_epochs;
                match self.train_slave(urg, train_idx) {
                    Ok(slave_loss) if self.trained_slave => {
                        report.epochs += self.cfg.slave_epochs;
                        report.final_loss = slave_loss;
                    }
                    Ok(_) => report.final_loss = master_loss,
                    Err(err) => {
                        // Master stage succeeded; keep its loss but surface
                        // the slave failure so the runner can attribute it.
                        report.final_loss = master_loss;
                        report.error = Some(err);
                    }
                }
            }
            Err(err) => {
                report.final_loss = f32::NAN;
                report.error = Some(err);
            }
        }
        report.train_secs = start.elapsed().as_secs_f64();
        report
    }

    fn predict(&self, urg: &Urg) -> Vec<f32> {
        self.predict_proba(urg)
    }

    fn num_params(&self) -> usize {
        self.params.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_citysim::{City, CityPreset};
    use uvd_urg::UrgOptions;

    fn tiny_setup(seed: u64) -> (Urg, Vec<usize>) {
        let city = City::from_config(CityPreset::tiny(), seed);
        let urg = Urg::build(&city, UrgOptions::default());
        let train_idx: Vec<usize> = (0..urg.labeled.len()).collect();
        (urg, train_idx)
    }

    /// The paper-config master tape (2 MAGA layers × 4 attention modules ×
    /// 2 heads) records each GAT head's attention weights as one fused
    /// node, and GSCM's cluster collection as one `spmm` over the cluster
    /// ids: 211 nodes.
    #[test]
    fn paper_config_master_tape_node_count() {
        let (urg, train) = tiny_setup(5);
        let model = Cmsf::new(&urg, CmsfConfig::for_city("fuzhou-like"));
        let (rows, targets, weights) = model.bce_vectors(&urg, &train);
        let mut g = Graph::new();
        model.record_master_tape(&mut g, &urg, &rows, &targets, &weights);
        assert_eq!(g.len(), 211);
    }

    #[test]
    fn master_training_reduces_loss() {
        let (urg, train) = tiny_setup(1);
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 1;
        let mut model = Cmsf::new(&urg, cfg);
        let first = model.train_master(&urg, &train).expect("master trains");
        let mut cfg2 = CmsfConfig::fast_test();
        cfg2.master_epochs = 25;
        let mut model2 = Cmsf::new(&urg, cfg2);
        let last = model2.train_master(&urg, &train).expect("master trains");
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn full_two_stage_fit_and_predict() {
        let (urg, train) = tiny_setup(2);
        let mut model = Cmsf::new(&urg, CmsfConfig::fast_test());
        let report = model.fit(&urg, &train);
        assert!(report.final_loss.is_finite());
        assert!(report.epochs > 0);
        let probs = model.predict(&urg);
        assert_eq!(probs.len(), urg.n);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        // Training separates classes on the training data itself.
        let mean = |positive: bool| -> f32 {
            let (mut s, mut c) = (0.0, 0usize);
            for (i, &r) in urg.labeled.iter().enumerate() {
                if (urg.y[i] > 0.5) == positive {
                    s += probs[r as usize];
                    c += 1;
                }
            }
            s / c.max(1) as f32
        };
        assert!(mean(true) > mean(false), "positives should score higher");
    }

    #[test]
    fn variants_build_and_fit() {
        let (urg, train) = tiny_setup(3);
        for (cross, hier, gate, name) in [
            (false, true, true, "CMSF-M"),
            (true, true, false, "CMSF-G"),
            (true, false, false, "CMSF-H"),
        ] {
            let mut cfg = CmsfConfig::fast_test();
            cfg.use_maga_cross = cross;
            cfg.use_hierarchy = hier;
            cfg.use_gate = gate;
            cfg.master_epochs = 5;
            cfg.slave_epochs = 2;
            let mut model = Cmsf::new(&urg, cfg);
            assert_eq!(model.name(), name);
            let r = model.fit(&urg, &train);
            assert!(r.final_loss.is_finite(), "{name}");
            assert_eq!(model.predict(&urg).len(), urg.n);
        }
    }

    #[test]
    fn no_image_urg_is_supported() {
        let city = City::from_config(CityPreset::tiny(), 4);
        let urg = Urg::build(&city, UrgOptions::no_image());
        let train: Vec<usize> = (0..urg.labeled.len()).collect();
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 4;
        cfg.slave_epochs = 2;
        let mut model = Cmsf::new(&urg, cfg);
        let r = model.fit(&urg, &train);
        assert!(r.final_loss.is_finite());
    }

    #[test]
    fn pseudo_labels_derive_from_training_split_only() {
        let (urg, _) = tiny_setup(5);
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 3;
        let mut model = Cmsf::new(&urg, cfg);
        // Train with an empty positive set: no cluster can be pseudo-positive.
        let negatives: Vec<usize> = (0..urg.labeled.len()).filter(|&i| urg.y[i] < 0.5).collect();
        model.train_master(&urg, &negatives).expect("master trains");
        let fixed = model.fixed_assignment().expect("fixed after master");
        assert!(fixed.pseudo.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn slave_before_master_is_a_typed_stage_order_error() {
        let (urg, train) = tiny_setup(8);
        let mut model = Cmsf::new(&urg, CmsfConfig::fast_test());
        let err = model
            .train_slave(&urg, &train)
            .expect_err("slave must not run before master");
        assert_eq!(
            err,
            FitError::StageOrder {
                required: "train_master",
                attempted: "train_slave",
            }
        );
        // The model stays usable: the master stage still trains afterwards.
        assert!(model.train_master(&urg, &train).is_ok());
        assert!(model.train_slave(&urg, &train).is_ok());
    }

    #[test]
    fn soft_collection_variant_trains() {
        let (urg, train) = tiny_setup(7);
        let mut cfg = CmsfConfig::fast_test();
        cfg.soft_collection = true;
        cfg.master_epochs = 8;
        cfg.slave_epochs = 2;
        let mut model = Cmsf::new(&urg, cfg);
        let r = model.fit(&urg, &train);
        assert!(r.final_loss.is_finite());
        let probs = model.predict(&urg);
        assert!(probs.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn minibatch_master_reduces_loss() {
        let (urg, train) = tiny_setup(1);
        let mut cfg = CmsfConfig::fast_test();
        cfg.batch_size = 8;
        cfg.sample_fanout = 0; // exact k-hop closure per batch
        cfg.master_epochs = 1;
        let mut one = Cmsf::new(&urg, cfg);
        let first = one.train_master(&urg, &train).expect("master trains");
        cfg.master_epochs = 25;
        let mut many = Cmsf::new(&urg, cfg);
        let last = many.train_master(&urg, &train).expect("master trains");
        assert!(
            last < first,
            "minibatch loss should drop: {first} -> {last}"
        );
    }

    #[test]
    fn minibatch_two_stage_fit_is_deterministic() {
        let (urg, train) = tiny_setup(9);
        let mut cfg = CmsfConfig::fast_test();
        cfg.batch_size = 8;
        cfg.sample_fanout = 4;
        cfg.master_epochs = 10;
        cfg.slave_epochs = 3;
        let mut m1 = Cmsf::new(&urg, cfg);
        let r1 = m1.fit(&urg, &train);
        assert!(r1.error.is_none(), "{:?}", r1.error);
        assert!(r1.final_loss.is_finite());
        assert!(m1.slave_trained(), "slave stage must run in minibatch mode");
        assert!(m1.peak_workspace_bytes() > 0);
        let mut m2 = Cmsf::new(&urg, cfg);
        m2.fit(&urg, &train);
        assert_eq!(m1.predict(&urg), m2.predict(&urg), "same seed, same model");
    }

    #[test]
    fn oversized_batch_falls_back_to_full_batch_bitwise() {
        let (urg, train) = tiny_setup(2);
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 5;
        cfg.slave_epochs = 2;
        let mut full = Cmsf::new(&urg, cfg);
        full.fit(&urg, &train);
        // batch >= train set is pointless; the model must take the exact
        // full-batch path, not a one-batch approximation of it.
        cfg.batch_size = train.len() + 100;
        cfg.sample_fanout = 2;
        let mut capped = Cmsf::new(&urg, cfg);
        capped.fit(&urg, &train);
        assert_eq!(full.predict(&urg), capped.predict(&urg));
    }

    #[test]
    fn deterministic_given_seed() {
        let (urg, train) = tiny_setup(6);
        let mut cfg = CmsfConfig::fast_test();
        cfg.master_epochs = 5;
        cfg.slave_epochs = 2;
        let mut m1 = Cmsf::new(&urg, cfg);
        m1.fit(&urg, &train);
        let mut m2 = Cmsf::new(&urg, cfg);
        m2.fit(&urg, &train);
        assert_eq!(m1.predict(&urg), m2.predict(&urg));
    }
}
