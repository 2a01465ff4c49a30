//! Per-layer probes of the traced run: timed calls into each crate's public
//! functions on the workload's own inputs (its city, URG and fitted model),
//! each reported as a median, plus ratios from the counters the crates
//! already keep. Layer names are the crate names. Every traced run prints
//! every metric in [`LAYERS`], whatever the workload.
//!
//! The probes add no spans inside the crates; they read the existing
//! `uvd_obs` counters and spans (`gemm.pack_*`, `par.dispatch.*`,
//! `batch.prefetch.*`, `serve.request`, `serve.batch`).

use crate::loadgen::round_trip;
use crate::report::{metric, Ledger, Metric};
use crate::serve;
use crate::stats::{median, ms_since, quantile_sorted, sorted, timed};
use cmsf::{Cmsf, CmsfConfig, FixedAssignment, Gscm, MagaStack, MsGate};
use serde_json::Value;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;
use uvd_citysim::{CityConfig, CityStream, IMG_CHANNELS, IMG_LEN, IMG_SIZE};
use uvd_nn::{Activation, FusionAgg, Mlp};
use uvd_obs::CounterStat;
use uvd_serve::{proto, BatchScorer, ServeOptions, Server, Updater};
use uvd_tensor::conv::{im2col, maxpool2, ConvMeta, PoolMeta};
use uvd_tensor::init::{derive_seed, he_normal, normal_matrix, uniform_matrix};
use uvd_tensor::plan::gated_matmul_into;
use uvd_tensor::{
    par, seeded_rng, Adam, Csr, EdgeIndex, Graph, Matrix, MatrixStore, NeighborSampler, NodeId,
};
use uvd_urg::edges::{merge_pairs, road_edges_from, spatial_edges_dims};
use uvd_urg::features::poi_features_rows;
use uvd_urg::{Detector, PoiSpatialIndex, ShardedUrg, ShardedUrgBuilder, Urg, UrgOptions, VggSim};

/// Every per-layer metric, with its unit, in print order.
pub const LAYERS: &[(&str, &str)] = &[
    ("core.master.fwd_ms", "ms"),
    ("core.master.replay_ms", "ms"),
    ("core.master.bwd_ms", "ms"),
    ("core.master.epoch_ms", "ms"),
    ("core.slave.replay_ms", "ms"),
    ("core.slave.bwd_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.freeze_ms", "ms"),
    ("core.maga.fwd_ms", "ms"),
    ("core.maga.bwd_ms", "ms"),
    ("core.gscm.fwd_ms", "ms"),
    ("core.gscm.bwd_ms", "ms"),
    ("core.gate.fwd_ms", "ms"),
    ("core.gate.bwd_ms", "ms"),
    ("core.head.fwd_ms", "ms"),
    ("core.head.bwd_ms", "ms"),
    ("core.epoch_coverage", "ratio"),
    ("core.maga_infer_ms", "ms"),
    ("core.batch.fwd_ms", "ms"),
    ("core.batch.replay_ms", "ms"),
    ("core.batch.bwd_ms", "ms"),
    ("core.prefetch_hit_ratio", "ratio"),
    ("core.prefetch_wait_ms", "ms"),
    ("tensor.matmul_gflops", "GF/s"),
    ("tensor.gated_gflops", "GF/s"),
    ("tensor.edge_attn_ms", "ms"),
    ("tensor.pack_hit_ratio", "ratio"),
    ("tensor.par_dispatch_ratio", "ratio"),
    ("tensor.sample_ms", "ms"),
    ("citysim.skeleton_ms", "ms"),
    ("citysim.render_ms", "ms"),
    ("urg.from_skeleton_ms", "ms"),
    ("urg.edges_ms", "ms"),
    ("urg.csr_ms", "ms"),
    ("urg.poi_ms", "ms"),
    ("urg.vgg_ms", "ms"),
    ("urg.add_tile_ms", "ms"),
    ("urg.finish_ms", "ms"),
    ("urg.into_urg_ms", "ms"),
    ("urg.pipeline_ratio", "ratio"),
    ("urg.stepwise_sum_ratio", "ratio"),
    ("urg.vgg.im2col_ms", "ms"),
    ("urg.vgg.gemm_ms", "ms"),
    ("urg.vgg.relu_pool_ms", "ms"),
    ("urg.vgg.gemm_gflops", "GF/s"),
    ("urg.induced_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.replay_us.r8", "us"),
    ("serve.replay_us.r16", "us"),
    ("serve.replay_us.r64", "us"),
    ("serve.encode_us", "us"),
    ("serve.fill_rows", "rows"),
    ("serve.jobs_per_batch", "jobs"),
    ("serve.wait_ms", "ms"),
    ("serve.update_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.reembedded_rows", "rows"),
    ("serve.rejected", "count"),
    ("serve.setup.updater_ms", "ms"),
    ("serve.setup.scorer_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.build_peak_mib", "MiB"),
    ("obs.fit_peak_mib", "MiB"),
    ("loadgen.late_p99_ms", "ms"),
];

/// The workload inputs the probes run on.
pub struct ProbeInput<'a> {
    pub city: &'a CityConfig,
    pub seed: u64,
    pub urg: &'a Urg,
    /// Configuration of the fitted model in `store`.
    pub cfg: CmsfConfig,
    pub store: &'a MatrixStore,
    /// Training split of the fitted model (indices into `urg.labeled`).
    pub train: &'a [usize],
    /// Median `ShardedUrg::from_stream` wall time, when the workload
    /// already measured it; otherwise the probe times one.
    pub from_stream_ms: Option<f64>,
    pub smoke: bool,
}

/// Collected metrics; `get` reads one back for the derived ratios.
#[derive(Default)]
struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &'static str, value: f64) {
        let unit = LAYERS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not listed in LAYERS"));
        self.0.push(metric(name, value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Median of timings from `f` (ms each): at least `min_reps` calls and
/// until `min_ms` of samples, capped at 2000 calls.
fn median_ms(min_reps: usize, min_ms: f64, mut f: impl FnMut() -> f64) -> f64 {
    let mut xs = Vec::new();
    let mut total = 0.0;
    while xs.len() < min_reps || (total < min_ms && xs.len() < 2000) {
        let t = f();
        total += t;
        xs.push(t);
    }
    median(&xs)
}

fn time_ms(f: impl FnOnce()) -> f64 {
    timed(f).1
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn counter(counters: &[CounterStat], name: &str) -> f64 {
    counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

fn restored(inp: &ProbeInput) -> Cmsf {
    let mut model = Cmsf::new(inp.urg, inp.cfg);
    model
        .restore_from_store(inp.store)
        .expect("the workload's own checkpoint restores");
    model
}

/// Representation widths of the fitted architecture.
struct Dims {
    d_rep: usize,
    d_final: usize,
}

fn dims(inp: &ProbeInput) -> Dims {
    let d_rep = restored(inp).embedding_dim();
    let mut rng = seeded_rng(0);
    let d_final = if inp.cfg.use_hierarchy {
        FusionAgg::new("probe.fuse", inp.cfg.global_agg, d_rep, &mut rng).out_dim(d_rep)
    } else {
        d_rep
    };
    Dims { d_rep, d_final }
}

fn reps(inp: &ProbeInput) -> usize {
    if inp.smoke {
        2
    } else {
        3
    }
}

/// Master and slave tapes of the fitted model: record (forward), replay,
/// backward, optimizer step; the assignment freeze and MAGA inference.
fn core_tapes(inp: &ProbeInput, out: &mut Out) {
    let (urg, cfg) = (inp.urg, inp.cfg);
    let mut model = restored(inp);
    let (rows, targets, weights) = model.bce_vectors(urg, inp.train);
    let mut opt = Adam::new(cfg.lr);
    let (mut fwd, mut replay, mut bwd, mut step, mut epoch) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..reps(inp) {
        let mut g = Graph::new();
        let (loss, t) = timed(|| model.record_master_tape(&mut g, urg, &rows, &targets, &weights));
        fwd.push(t);
        // One replayed epoch, timed as a whole and by part.
        let t_epoch = Instant::now();
        replay.push(time_ms(|| {
            g.replay();
            black_box(g.scalar(loss));
        }));
        bwd.push(time_ms(|| g.backward(loss)));
        g.write_grads();
        let params = model.param_set();
        step.push(time_ms(|| {
            if cfg.grad_clip > 0.0 {
                params.clip_grad_norm(cfg.grad_clip);
            }
            opt.step(params);
        }));
        epoch.push(ms_since(t_epoch));
    }
    out.put("core.master.fwd_ms", median(&fwd));
    out.put("core.master.replay_ms", median(&replay));
    out.put("core.master.bwd_ms", median(&bwd));
    out.put("core.master.epoch_ms", median(&epoch));
    out.put("core.step_ms", median(&step));

    let fixed = model
        .fixed_assignment()
        .cloned()
        .expect("a fitted CMSF carries its frozen assignment");
    let (c1, c0) = fixed.partition();
    let mut g = Graph::new();
    let loss = model
        .record_slave_tape(&mut g, urg, &fixed, &c1, &c0, &rows, &targets, &weights)
        .expect("the fitted configuration has the slave stage");
    let (mut replay, mut bwd) = (vec![], vec![]);
    for _ in 0..reps(inp) {
        replay.push(time_ms(|| {
            g.replay();
            black_box(g.scalar(loss));
        }));
        bwd.push(time_ms(|| g.backward(loss)));
    }
    drop(g);
    out.put("core.slave.replay_ms", median(&replay));
    out.put("core.slave.bwd_ms", median(&bwd));

    let infer = median_ms(reps(inp), 0.0, || {
        time_ms(|| drop(black_box(model.x_tilde_matrix(urg))))
    });
    out.put("core.maga_infer_ms", infer);
    let freeze = median_ms(reps(inp), 0.0, || {
        time_ms(|| model.freeze_assignment(urg, inp.train))
    });
    out.put("core.freeze_ms", freeze);
}

/// Record `build` once on a fresh tape with a `sum_all` root, then time
/// forward replays and backward passes.
fn module(
    inp: &ProbeInput,
    out: &mut Out,
    fwd: &'static str,
    bwd: &'static str,
    build: impl FnOnce(&mut Graph) -> NodeId,
) {
    let mut g = Graph::new();
    let y = build(&mut g);
    let root = g.sum_all(y);
    let (mut f, mut b) = (vec![], vec![]);
    for _ in 0..reps(inp) {
        f.push(time_ms(|| g.replay()));
        b.push(time_ms(|| g.backward(root)));
    }
    out.put(fwd, median(&f));
    out.put(bwd, median(&b));
}

/// MAGA, GSCM, MS-Gate and the classifier head, each built standalone with
/// the fitted configuration's widths over the workload's regions.
fn core_modules(inp: &ProbeInput, out: &mut Out) {
    let (urg, cfg) = (inp.urg, inp.cfg);
    let n = urg.n;
    let d = dims(inp);
    let mut rng = seeded_rng(derive_seed(inp.seed, 0x9B0B));
    let d_img = if urg.has_image() { cfg.img_reduce } else { 0 };
    let maga = MagaStack::new(
        "probe.maga",
        urg.x_poi.cols(),
        d_img,
        cfg.hidden,
        cfg.n_heads,
        cfg.maga_layers,
        cfg.modal_agg,
        cfg.use_maga_cross,
        &mut rng,
    );
    let x_img = (d_img > 0).then(|| normal_matrix(n, d_img, 0.0, 1.0, &mut rng));
    module(inp, out, "core.maga.fwd_ms", "core.maga.bwd_ms", |g| {
        let xp = g.constant(urg.x_poi.clone());
        let xi = x_img.map(|m| g.constant(m));
        maga.forward(g, xp, xi, &urg.edges)
    });

    let x_rep = normal_matrix(n, d.d_rep, 0.0, 1.0, &mut rng);
    let gscm = Gscm::new("probe.gscm", d.d_rep, cfg.k_clusters, cfg.tau, &mut rng);
    module(inp, out, "core.gscm.fwd_ms", "core.gscm.bwd_ms", |g| {
        let x = g.variable(x_rep);
        gscm.forward(g, x, None).x_global
    });

    let clf = Mlp::new(
        "probe.clf",
        &[d.d_final, cfg.hidden, 1],
        Activation::Tanh,
        &mut rng,
    );
    let gate = MsGate::new(
        "probe.gate",
        d.d_rep,
        cfg.k_clusters,
        cfg.hidden,
        &clf,
        &mut rng,
    );
    let fixed: FixedAssignment = restored(inp)
        .fixed_assignment()
        .cloned()
        .expect("a fitted CMSF carries its frozen assignment");
    let h = normal_matrix(cfg.k_clusters, d.d_rep, 0.0, 1.0, &mut rng);
    let x_final = normal_matrix(n, d.d_final, 0.0, 1.0, &mut rng);
    module(inp, out, "core.gate.fwd_ms", "core.gate.bwd_ms", |g| {
        let hv = g.variable(h);
        let probs = gate.inclusion_probs(g, hv);
        let q = gate.context(g, &fixed, probs);
        let f = gate.filter(g, q);
        let x = g.variable(x_final.clone());
        gate.gated_forward(g, &clf, x, f)
    });
    module(inp, out, "core.head.fwd_ms", "core.head.bwd_ms", |g| {
        let x = g.variable(x_final);
        clf.forward(g, x)
    });
}

/// Mini-batch path: sample, induce and train on batches of the workload's
/// training split; a short prefetching fit for the prefetch counters.
fn core_batches(inp: &ProbeInput, out: &mut Out) {
    let (urg, cfg) = (inp.urg, inp.cfg);
    let fanout = if cfg.sample_fanout > 0 {
        cfg.sample_fanout
    } else {
        6
    };
    let batch = 256.min(inp.train.len() / 2).max(1);
    let n_batches = (inp.train.len() / batch).clamp(1, if inp.smoke { 2 } else { 4 });
    let model = restored(inp);
    let (mut sample, mut induced, mut fwd, mut replay, mut bwd) =
        (vec![], vec![], vec![], vec![], vec![]);
    for b in 0..n_batches {
        let idx = &inp.train[b * batch..(b + 1) * batch];
        let mut seeds: Vec<u32> = idx.iter().map(|&i| urg.labeled[i]).collect();
        seeds.sort_unstable();
        let sampler =
            NeighborSampler::new(derive_seed(inp.seed, b as u64), fanout, cfg.maga_layers);
        let (nodes, t) = timed(|| sampler.sample(&urg.edges, &seeds));
        sample.push(t);
        let nodes = nodes.expect("labelled seeds are in bounds");
        let (sub, t) = timed(|| urg.induced(&nodes));
        induced.push(t);
        let rows: Vec<u32> = idx
            .iter()
            .map(|&i| {
                nodes
                    .binary_search(&urg.labeled[i])
                    .expect("seed in its own sample") as u32
            })
            .collect();
        let targets: Vec<f32> = idx.iter().map(|&i| urg.y[i]).collect();
        let weights = vec![1.0f32; idx.len()];
        let (rows, targets, weights) = (Arc::new(rows), Arc::new(targets), Arc::new(weights));
        let mut g = Graph::new();
        let (loss, t) = timed(|| model.record_master_tape(&mut g, &sub, &rows, &targets, &weights));
        fwd.push(t);
        replay.push(time_ms(|| g.replay()));
        bwd.push(time_ms(|| g.backward(loss)));
    }
    out.put("tensor.sample_ms", median(&sample));
    out.put("urg.induced_ms", median(&induced));
    out.put("core.batch.fwd_ms", median(&fwd));
    out.put("core.batch.replay_ms", median(&replay));
    out.put("core.batch.bwd_ms", median(&bwd));

    let mut c = cfg;
    c.batch_size = batch;
    c.sample_fanout = fanout;
    c.master_epochs = 2;
    c.slave_epochs = 1;
    uvd_obs::reset();
    let mut m = Cmsf::new(urg, c);
    if let Some(err) = m.fit(urg, inp.train).error {
        panic!("prefetching mini-batch fit failed: {err}");
    }
    let counters = uvd_obs::counter_summary();
    let hit = counter(&counters, "batch.prefetch.hit");
    let miss = counter(&counters, "batch.prefetch.miss");
    out.put("core.prefetch_hit_ratio", ratio(hit, hit + miss));
    out.put(
        "core.prefetch_wait_ms",
        counter(&counters, "batch.prefetch.wait_ms"),
    );
}

/// Kernel rates at the workload's shapes, and the phase's kernel counters.
fn tensor_kernels(inp: &ProbeInput, counters: &[CounterStat], out: &mut Out) {
    let (urg, cfg) = (inp.urg, inp.cfg);
    let n = urg.n;
    let d = dims(inp);
    let mut rng = seeded_rng(derive_seed(inp.seed, 0x7E45));
    // The image-reduction layer: the widest dense matmul of an epoch.
    let a = if urg.has_image() {
        &urg.x_img
    } else {
        &urg.x_poi
    };
    let k = a.cols();
    let b = normal_matrix(k, cfg.img_reduce, 0.0, 1.0, &mut rng);
    let ms = median_ms(3, 50.0, || time_ms(|| drop(black_box(a.matmul(&b)))));
    out.put(
        "tensor.matmul_gflops",
        2.0 * (n * k * cfg.img_reduce) as f64 / (ms * 1e6),
    );

    let (dd, h) = (d.d_final, cfg.hidden);
    let x = normal_matrix(n, dd, 0.0, 1.0, &mut rng);
    let w = normal_matrix(dd, h, 0.0, 1.0, &mut rng);
    let f = uniform_matrix(n, dd * h, 0.0, 1.0, &mut rng);
    let mut y = vec![0.0f32; n * h];
    let ms = median_ms(3, 50.0, || {
        time_ms(|| gated_matmul_into(&x, &w, &f, &mut y))
    });
    // Three flops per (row, input, output) term: two products and a sum.
    out.put(
        "tensor.gated_gflops",
        3.0 * (n * dd * h) as f64 / (ms * 1e6),
    );

    let mut g = Graph::inference();
    let scores = g.constant(normal_matrix(urg.edges.n_edges(), 1, 0.0, 1.0, &mut rng));
    let hv = g.constant(normal_matrix(
        n,
        cfg.hidden * cfg.n_heads,
        0.0,
        1.0,
        &mut rng,
    ));
    let alpha = g.edge_softmax(scores, urg.edges.clone());
    g.edge_aggregate(alpha, hv, urg.edges.clone());
    out.put(
        "tensor.edge_attn_ms",
        median_ms(3, 50.0, || time_ms(|| g.replay())),
    );

    let hit = counter(counters, "gemm.pack_hit");
    let repack = counter(counters, "gemm.pack_repack");
    out.put("tensor.pack_hit_ratio", ratio(hit, hit + repack));
    let parallel = counter(counters, "par.dispatch.parallel");
    let serial = counter(counters, "par.dispatch.serial");
    out.put(
        "tensor.par_dispatch_ratio",
        ratio(parallel, parallel + serial),
    );
}

/// VGG-sim's three conv stages, `(c_in, side, c_out)`, as `VggSim::new`
/// builds them; the stage probe times their kernels at these shapes.
const VGG_STAGES: [(usize, usize, usize); 3] = [
    (IMG_CHANNELS, IMG_SIZE, 8),
    (8, IMG_SIZE / 2, 16),
    (16, IMG_SIZE / 4, 16),
];

/// The streamed build driven stepwise from one thread (kernels keep the
/// default pool): skeleton, topology, per tile render + fold, finish and
/// concatenation — whose parts sum to the stepwise wall time — plus the
/// edge, CSR and POI stages re-run on the same skeleton, VGG-sim timed on
/// sampled tiles and scaled to the city, and its per-stage kernels.
fn build_stages(inp: &ProbeInput, out: &mut Out) {
    let opts = UrgOptions::default();
    let tile_rows = crate::city::TILE_ROWS;
    let wall0 = Instant::now();
    let mut excluded = 0.0;
    let (mut stream, skeleton) = timed(|| CityStream::new(inp.city.clone(), inp.seed, tile_rows));
    let (mut builder, from_skeleton) = timed(|| ShardedUrgBuilder::from_skeleton(&stream, opts));

    let t_ex = Instant::now();
    let (w, h) = (stream.width(), stream.height());
    let n = w * h;
    let (pairs, edges_ms) = timed(|| {
        merge_pairs(vec![
            spatial_edges_dims(w, h),
            road_edges_from(stream.roads(), w, opts.road_hops),
        ])
    });
    let mut directed: Vec<(u32, u32)> = Vec::with_capacity(pairs.len() * 2 + n);
    let mut coo: Vec<(u32, u32, f32)> = Vec::with_capacity(pairs.len() * 2 + n);
    for &(a, b) in &pairs {
        directed.extend([(a, b), (b, a)]);
        coo.extend([(a, b, 1.0), (b, a, 1.0)]);
    }
    for i in 0..n as u32 {
        directed.push((i, i));
        coo.push((i, i, 1.0));
    }
    let csr_ms = time_ms(|| {
        black_box(EdgeIndex::from_pairs(n, directed));
        black_box(Csr::from_coo(n, n, coo).sym_normalized());
    });
    let index = PoiSpatialIndex::from_parts(w, h, stream.pois());
    let poi_ms: f64 = (0..h)
        .step_by(tile_rows)
        .map(|r| {
            let range = r * w..((r + tile_rows).min(h)) * w;
            time_ms(|| drop(black_box(poi_features_rows(&index, opts.poi, range))))
        })
        .sum();
    excluded += ms_since(t_ex);

    let sample_at = [0, stream.n_tiles() / 2];
    let (mut render, mut add) = (0.0, 0.0);
    let mut samples: Vec<Vec<f32>> = Vec::new();
    for k in 0.. {
        let (tile, t) = timed(|| stream.next_tile());
        render += t;
        let Some(tile) = tile else { break };
        add += time_ms(|| builder.add_tile(&tile));
        if sample_at.contains(&k) && samples.len() < sample_at.len() {
            samples.push(tile.images);
        }
    }
    let (labels, t) = timed(|| stream.finish());
    render += t;
    let (sharded, finish) = timed(|| builder.finish(&labels));
    let (urg, into) = timed(|| sharded.into_urg());
    let wall = ms_since(wall0) - excluded;
    drop(urg);
    let parts = skeleton + from_skeleton + render + add + finish + into;
    out.put("citysim.skeleton_ms", skeleton);
    out.put("citysim.render_ms", render);
    out.put("urg.from_skeleton_ms", from_skeleton);
    out.put("urg.edges_ms", edges_ms);
    out.put("urg.csr_ms", csr_ms);
    out.put("urg.poi_ms", poi_ms);
    out.put("urg.add_tile_ms", add);
    out.put("urg.finish_ms", finish);
    out.put("urg.into_urg_ms", into);
    out.put("urg.stepwise_sum_ratio", ratio(parts, wall));

    let from_stream_ms = inp.from_stream_ms.unwrap_or_else(|| {
        let stream = CityStream::new(inp.city.clone(), inp.seed, tile_rows);
        time_ms(|| drop(black_box(ShardedUrg::from_stream(stream, opts))))
    });
    out.put("urg.pipeline_ratio", ratio(render + add, from_stream_ms));

    let vgg = VggSim::new();
    let sampled: usize = samples.iter().map(|s| s.len() / IMG_LEN).sum();
    let vgg_ms: f64 = samples
        .iter()
        .map(|s| time_ms(|| drop(black_box(vgg.features(s)))))
        .sum();
    out.put("urg.vgg_ms", vgg_ms * ratio(n as f64, sampled as f64));

    // Per-stage kernels on up to 64 images, one thread (as inside the
    // pool workers VGG-sim runs on), scaled to every region of the city.
    let images = &samples[0][..samples[0].len().min(64 * IMG_LEN)];
    let count = images.len() / IMG_LEN;
    let mut rng = seeded_rng(derive_seed(inp.seed, 0x0766));
    let stages: Vec<(ConvMeta, Matrix, PoolMeta)> = VGG_STAGES
        .iter()
        .map(|&(c_in, side, c_out)| {
            let meta = ConvMeta {
                c_in,
                h_in: side,
                w_in: side,
                c_out,
                k: 3,
                stride: 1,
                pad: 1,
            };
            let (kr, kc) = meta.kernel_shape();
            let pool = PoolMeta {
                channels: c_out,
                h_in: side,
                w_in: side,
            };
            (meta, he_normal(kr, kc, &mut rng), pool)
        })
        .collect();
    let (mut t_cols, mut t_gemm, mut t_pool, mut flops) = (0.0, 0.0, 0.0, 0.0);
    par::serial_scope(|| {
        for img in images.chunks(IMG_LEN) {
            let mut x = img.to_vec();
            for (meta, kernel, pool) in &stages {
                let (cols, t) = timed(|| im2col(&x, meta));
                t_cols += t;
                let (mut y, t) = timed(|| kernel.matmul(&cols));
                t_gemm += t;
                flops += 2.0 * (kernel.rows() * kernel.cols() * cols.cols()) as f64;
                let ((pooled, _), t) = timed(|| {
                    for v in y.as_mut_slice() {
                        *v = v.max(0.0);
                    }
                    maxpool2(y.as_slice(), pool)
                });
                t_pool += t;
                x = pooled;
            }
        }
    });
    let scale = ratio(n as f64, count as f64);
    out.put("urg.vgg.im2col_ms", t_cols * scale);
    out.put("urg.vgg.gemm_ms", t_gemm * scale);
    out.put("urg.vgg.relu_pool_ms", t_pool * scale);
    out.put("urg.vgg.gemm_gflops", flops / (t_gemm * 1e6));
}

/// The serving engine's pieces called directly: restore, publish, parse,
/// replay at three batch fills, encode, and incremental POI updates.
fn serve_engine(inp: &ProbeInput, out: &mut Out) {
    let (urg, cfg) = (inp.urg, inp.cfg);
    let mut updaters: Vec<Updater> = Vec::new();
    let updater_ms = median_ms(2, 0.0, || {
        let owned = urg.clone();
        let (u, t) = timed(|| Updater::new(owned, cfg, inp.store).expect("checkpoint restores"));
        updaters.push(u);
        t
    });
    let mut updater = updaters.pop().expect("an updater was built");
    drop(updaters);
    out.put("serve.setup.updater_ms", updater_ms);
    out.put(
        "serve.publish_ms",
        median_ms(5, 0.0, || time_ms(|| drop(black_box(updater.caches())))),
    );
    let caches = updater.caches();
    let d_final = caches.x_final.cols();
    let gated = caches.filter.is_some();
    let mut scorers = Vec::new();
    let scorer_ms = median_ms(2, 0.0, || {
        let (s, t) = timed(|| {
            BatchScorer::new(urg, cfg, inp.store, 64, d_final, gated).expect("checkpoint restores")
        });
        scorers.push(s);
        t
    });
    out.put("serve.setup.scorer_ms", scorer_ms);
    let mut scorer = scorers.pop().expect("a scorer was built");

    let mut rng = seeded_rng(derive_seed(inp.seed, 0x5E4E));
    let ids: Vec<u32> = (0..64)
        .map(|_| rand::Rng::gen_range(&mut rng, 0..urg.n) as u32)
        .collect();
    let mut scores = Vec::with_capacity(64);
    for (rows, name) in [
        (8, "serve.replay_us.r8"),
        (16, "serve.replay_us.r16"),
        (64, "serve.replay_us.r64"),
    ] {
        let us = 1e3
            * median_ms(50, 20.0, || {
                scores.clear();
                time_ms(|| scorer.score_chunk(&caches, &ids[..rows], &mut scores))
            });
        out.put(name, us);
    }
    let list: Vec<String> = ids[..8].iter().map(u32::to_string).collect();
    let line = format!("{{\"op\":\"score\",\"ids\":[{}]}}", list.join(","));
    let parse = median_ms(200, 20.0, || {
        time_ms(|| drop(black_box(proto::parse_request(&line))))
    });
    out.put("serve.parse_us", parse * 1e3);
    let encode = median_ms(200, 20.0, || {
        time_ms(|| drop(black_box(proto::score_reply(&scores[..8], 0, None))))
    });
    out.put("serve.encode_us", encode * 1e3);

    let updates = if inp.smoke { 3 } else { 10 };
    let (mut update, mut rows) = (vec![], vec![]);
    for _ in 0..updates {
        let region = rand::Rng::gen_range(&mut rng, 0..urg.n);
        let row: Vec<f32> = urg.x_poi.row(region).iter().map(|v| v * 1.05).collect();
        let (r, t) = timed(|| updater.update_poi(region as u64, &row));
        let outcome = r.expect("an in-bounds, right-width update succeeds");
        update.push(t);
        rows.push(outcome.reembedded as f64);
    }
    out.put("serve.update_ms", median(&update));
    out.put("serve.reembedded_rows", crate::stats::mean(&rows));
}

/// A short served session against a fresh server on the fixture (400
/// req/s, 5% writes, one second): batch fill and queue wait from the
/// `stats` op and the `serve.request` / `serve.batch` spans, and how late
/// the generator ran.
fn serve_session(inp: &ProbeInput, out: &mut Out) {
    uvd_obs::reset();
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    let server =
        Server::start(inp.urg.clone(), inp.cfg, inp.store.clone(), opts).expect("server starts");
    let connect = || {
        let s = TcpStream::connect(server.addr()).expect("connect to the probe server");
        s.set_nodelay(true).expect("TCP_NODELAY");
        s
    };
    let mut conns = vec![connect(), connect()];
    let secs = if inp.smoke { 0.5 } else { 1.0 };
    let streams = serve::requests(inp.urg, inp.seed, 7, 400.0, secs, true);
    let results = serve::run_phase(&mut conns, streams);
    let late: Vec<f64> = results
        .iter()
        .flat_map(|(_, _, outs)| outs.iter().map(|o| o.late_ms))
        .collect();
    let stats = round_trip(&mut conns[0], r#"{"op":"stats"}"#)
        .ok()
        .and_then(|r| serde_json::from_str_value(&r).ok())
        .expect("stats reply");
    drop(conns);
    server.shutdown();
    let get = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let batches = get("batches");
    out.put("serve.fill_rows", ratio(get("rows_scored"), batches));
    out.put(
        "serve.jobs_per_batch",
        ratio(get("score_requests"), batches),
    );
    out.put("serve.rejected", get("rejected"));
    let spans = uvd_obs::span_summary();
    let mean_ms = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| ratio(s.total_ns as f64 / 1e6, s.count as f64))
    };
    out.put(
        "serve.wait_ms",
        mean_ms("serve.request") - mean_ms("serve.batch"),
    );
    out.put("loadgen.late_p99_ms", quantile_sorted(&sorted(&late), 0.99));
}

/// Run every probe group on `inp` (tracing must be on). `counters` is the
/// snapshot taken right after the workload's traced phase. A group that
/// panics is a failed operation; its metrics print as zero.
pub fn run(
    inp: &ProbeInput,
    counters: &[CounterStat],
    trace_overhead_pct: f64,
    build_peak_mib: f64,
    fit_peak_mib: f64,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let mut out = Out::default();
    out.put("obs.trace_overhead_pct", trace_overhead_pct);
    out.put("obs.build_peak_mib", build_peak_mib);
    out.put("obs.fit_peak_mib", fit_peak_mib);
    ledger.op("probe core tapes", || core_tapes(inp, &mut out));
    ledger.op("probe core modules", || core_modules(inp, &mut out));
    ledger.op("probe core batches", || core_batches(inp, &mut out));
    ledger.op("probe tensor kernels", || {
        tensor_kernels(inp, counters, &mut out)
    });
    ledger.op("probe build stages", || build_stages(inp, &mut out));
    ledger.op("probe serve engine", || serve_engine(inp, &mut out));
    ledger.op("probe serve session", || serve_session(inp, &mut out));

    let covered: f64 = [
        "core.maga.fwd_ms",
        "core.maga.bwd_ms",
        "core.gscm.fwd_ms",
        "core.gscm.bwd_ms",
        "core.head.fwd_ms",
        "core.head.bwd_ms",
        "core.step_ms",
    ]
    .iter()
    .map(|n| out.get(n))
    .sum();
    out.put(
        "core.epoch_coverage",
        ratio(covered, out.get("core.master.epoch_ms")),
    );

    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .0
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}
