//! Performance snapshot of the parallel tensor runtime.
//!
//! Times each rayon-backed kernel serially (one thread) and in parallel
//! (`UVD_THREADS` or the machine's core count, clamped to the workers the
//! host can actually run concurrently — oversubscribing a smaller host only
//! distorts the speedup columns), then writes the serial/parallel pairs and
//! speedups to `BENCH_tensor.json` at the repository root. Both the
//! requested and the effective worker counts are recorded in the snapshot.
//!
//! `--threads 1,2,4` sweeps the parallel column over the listed worker
//! counts instead of the single effective count (each entry still clamps to
//! the host); the speedup column then compares against the largest count.
//!
//! After the timed sections, one *untimed* pass re-runs a short CMSF fold
//! with the `uvd_obs` recorder on and prints the per-stage span breakdown
//! and counters next to the GFLOP/s columns (tracing stays off during every
//! timed section so it cannot perturb the committed numbers).
//!
//! The committed snapshot is a reference point for regressions, not a
//! promise: speedups depend on the host's physical core count, and on a
//! single-core machine the parallel column converges to the serial one.

use cmsf::{Cmsf, CmsfConfig};
use std::sync::Arc;
use std::time::Instant;
use uvd_bench::{repo_root_path, scale_city};
use uvd_citysim::{City, CityPreset, CityStream};
use uvd_obs::alloc::CountingAlloc;
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{par, Adam, Csr, EdgeIndex, Graph};
use uvd_urg::{ShardedUrg, Urg, UrgOptions};

/// Counting allocator so the snapshot header can report the process's peak
/// heap (two relaxed atomics per alloc — noise next to the timed kernels).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fastest of `reps` timed runs, in milliseconds. The minimum is the
/// noise-robust estimator on shared hosts: scheduler steal time and
/// frequency dips only ever add to a sample, so the fastest run is the
/// closest observation of the code's actual cost.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm the pool and the caches
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

struct Pair {
    name: &'static str,
    serial_ms: f64,
    /// Parallel time at each swept worker count, ascending.
    sweep: Vec<(usize, f64)>,
    /// Scalar flops of one run, when the kernel has a closed-form count
    /// (reported as GFLOP/s alongside the wall time). Counts marked
    /// estimates in the constructor comments stay proportional to the true
    /// work (e.g. nnz-scaled) without modeling every transcendental.
    flops: Option<f64>,
}

fn gflops(flops: Option<f64>, ms: f64) -> Option<f64> {
    flops.map(|fl| fl / (ms.max(1e-9) * 1e6))
}

fn pair(
    name: &'static str,
    sweep_threads: &[usize],
    reps: usize,
    flops: Option<f64>,
    mut f: impl FnMut(),
) -> Pair {
    let serial_ms = time_ms(reps, || par::serial_scope(&mut f));
    let sweep: Vec<(usize, f64)> = sweep_threads
        .iter()
        .map(|&t| (t, time_ms(reps, || par::with_threads(t, &mut f))))
        .collect();
    let parallel_ms = sweep.last().expect("non-empty sweep").1;
    let speedup = serial_ms / parallel_ms.max(1e-9);
    let rate = gflops(flops, serial_ms)
        .map(|g| format!("   {g:6.1} GF/s"))
        .unwrap_or_default();
    println!(
        "{name:32} serial {serial_ms:8.3} ms   par {parallel_ms:8.3} ms   x{speedup:.2}{rate}"
    );
    if sweep.len() > 1 {
        let cols: Vec<String> = sweep
            .iter()
            .map(|(t, ms)| format!("{t}T {ms:.3} ms"))
            .collect();
        println!("{:32}   sweep: {}", "", cols.join("   "));
    }
    Pair {
        name,
        serial_ms,
        sweep,
        flops,
    }
}

/// End-to-end CMSF fold: a full master + slave stage, trained once with the
/// replayed-plan path (`train_master` / `train_slave` record once, then
/// replay) and once with a fresh [`Graph`] per epoch — `record_*_tape`,
/// then `Cmsf::step`, then `opt.decay`, as `benches/e2e_epoch.rs` times a
/// single epoch. Reports epochs/sec for both and the peak workspace
/// footprint of the replayed path.
///
/// The rebuild column is a cost measurement only, not a second run of the
/// same fold: every fresh master tape recomputes GSCM's hard assignment
/// `B̃` from the current parameters, where replay holds the one taken when
/// the tape was recorded (DESIGN.md §3), so the two paths' parameters
/// drift apart.
fn e2e_cmsf(threads: usize, smoke: bool) -> serde_json::Value {
    let city = City::from_config(CityPreset::FuzhouLike.config(), 5);
    let urg = Urg::build(&city, UrgOptions::default());
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut cfg = CmsfConfig::fast_test();
    cfg.master_epochs = if smoke { 6 } else { 30 };
    cfg.slave_epochs = if smoke { 3 } else { 15 };
    let epochs = (cfg.master_epochs + cfg.slave_epochs) as f64;

    let mut model = Cmsf::new(&urg, cfg);

    let e2e_reps = if smoke { 1 } else { 5 };

    // Replayed-plan path (also freezes the assignment for the slave stage;
    // the extra freeze forward is charged against replay, not rebuild).
    let replay_ms = time_ms(e2e_reps, || {
        par::with_threads(threads, || {
            model.train_master(&urg, &train).expect("master trains");
            model.train_slave(&urg, &train).expect("slave trains");
        })
    });
    let peak_ws = model.peak_workspace_bytes();

    // Per-epoch rebuild: record, step and drop a whole tape every epoch.
    // The slave stage reuses the assignment the replayed path froze.
    let (rows, targets, weights) = model.bce_vectors(&urg, &train);
    let fixed = model.fixed_assignment().expect("after master").clone();
    let (c1, c0) = fixed.partition();
    let rebuild_ms = time_ms(e2e_reps, || {
        par::with_threads(threads, || {
            let mut opt = Adam::new(model.cfg.lr);
            for _ in 0..model.cfg.master_epochs {
                let mut g = Graph::new();
                let loss = model.record_master_tape(&mut g, &urg, &rows, &targets, &weights);
                model.step(&mut g, loss, &mut opt);
                opt.decay(model.cfg.lr_decay);
            }
            let mut opt = Adam::new(model.cfg.lr * 0.3);
            for _ in 0..model.cfg.slave_epochs {
                let mut g = Graph::new();
                let loss = model
                    .record_slave_tape(&mut g, &urg, &fixed, &c1, &c0, &rows, &targets, &weights)
                    .expect("slave tape records");
                model.step(&mut g, loss, &mut opt);
                opt.decay(model.cfg.lr_decay);
            }
        })
    });

    let replay_eps = epochs / (replay_ms / 1e3);
    let rebuild_eps = epochs / (rebuild_ms / 1e3);
    println!(
        "\ncmsf_fold_e2e ({epochs:.0} epochs)     rebuild {rebuild_eps:8.1} ep/s   replay {replay_eps:8.1} ep/s   x{:.2}   peak workspace {:.1} KiB",
        replay_eps / rebuild_eps,
        peak_ws as f64 / 1024.0
    );
    serde_json::json!({
        "name": "cmsf_fold_e2e",
        "epochs": epochs,
        "rebuild_epochs_per_sec": rebuild_eps,
        "replay_epochs_per_sec": replay_eps,
        "replay_speedup": replay_eps / rebuild_eps,
        "peak_workspace_bytes": peak_ws,
    })
}

/// Untimed traced pass: re-run a short CMSF fold with the in-memory recorder
/// on and report where the wall time went, stage by stage. Runs strictly
/// after every timed section, so tracing cannot perturb the committed
/// numbers; the recorder is switched back off before returning.
fn span_breakdown() -> serde_json::Value {
    uvd_obs::set_memory();
    let city = City::from_config(CityPreset::FuzhouLike.config(), 5);
    let urg = Urg::build(&city, UrgOptions::default());
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut cfg = CmsfConfig::fast_test();
    cfg.master_epochs = 6;
    cfg.slave_epochs = 3;
    let mut model = Cmsf::new(&urg, cfg);
    model.train_master(&urg, &train).expect("master trains");
    model.train_slave(&urg, &train).expect("slave trains");
    std::hint::black_box(model.predict_proba(&urg));

    let spans = uvd_obs::span_summary();
    let counters = uvd_obs::counter_summary();
    println!("\nspan breakdown (untimed traced fold):");
    for s in &spans {
        println!(
            "{:32} x{:<5}  {:9.3} ms",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6
        );
    }
    println!("counters:");
    for c in &counters {
        println!("{:32} {}", c.name, c.value);
    }
    uvd_obs::disable();

    let span_rows: Vec<serde_json::Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "count": s.count,
                "total_ms": s.total_ns as f64 / 1e6,
            })
        })
        .collect();
    let counter_rows: Vec<serde_json::Value> = counters
        .iter()
        .map(|c| serde_json::json!({ "name": c.name, "value": c.value }))
        .collect();
    serde_json::json!({ "spans": span_rows, "counters": counter_rows })
}

/// Build-path section: time the streamed URG build (`CityStream` →
/// `ShardedUrg` → `into_urg`) at each worker count of `sweep`, then re-run
/// it once with the in-memory recorder on for the `urg.features` /
/// `urg.edges` / `urg.csr` sub-span breakdown. One timed run per count —
/// the full-size build runs for seconds, so single-shot noise is small
/// against the serial/parallel gap being recorded. The committed numbers
/// stream the 50k-region scaling city (224×224, the same city the
/// `scaling` harness measures); smoke shrinks it to 64×64 so the check.sh
/// gate stays fast. The result is bitwise-identical at every count
/// (DESIGN.md §13), so only the wall time varies across the sweep.
fn build_path(sweep: &[usize], smoke: bool) -> serde_json::Value {
    const TILE_ROWS: usize = 16;
    let cfg = scale_city(if smoke { 64 } else { 224 });
    let build = || {
        ShardedUrg::from_stream(
            CityStream::new(cfg.clone(), 11, TILE_ROWS),
            UrgOptions::default(),
        )
    };

    println!("\nstreamed build ({}):", cfg.name);
    let mut rows = Vec::new();
    let mut n_regions = 0usize;
    let mut n_edges = 0usize;
    for &t in sweep {
        let t0 = Instant::now();
        let urg = par::with_threads(t, || build().into_urg());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        n_regions = urg.n;
        n_edges = urg.edges.n_edges();
        println!("  {t}T {ms:10.3} ms");
        rows.push(serde_json::json!({ "threads": t, "build_ms": ms }));
    }
    println!("  ({n_regions} regions, {n_edges} edges, {TILE_ROWS} rows/tile)");

    // Untimed traced pass at the largest count: where inside the build the
    // time goes (feature extraction vs. edge generation vs. CSR assembly).
    uvd_obs::set_memory();
    let top = *sweep.last().expect("non-empty sweep");
    par::with_threads(top, || std::hint::black_box(build()));
    let spans: Vec<serde_json::Value> = uvd_obs::span_summary()
        .iter()
        .filter(|s| s.name.starts_with("urg."))
        .map(|s| {
            let total_ms = s.total_ns as f64 / 1e6;
            println!("  {:24} x{:<4} {total_ms:10.3} ms", s.name, s.count);
            serde_json::json!({ "name": s.name, "count": s.count, "total_ms": total_ms })
        })
        .collect();
    uvd_obs::disable();

    serde_json::json!({
        "name": cfg.name,
        "tile_rows": TILE_ROWS,
        "n_regions": n_regions,
        "n_edges": n_edges,
        "thread_sweep": rows,
        "spans": spans,
    })
}

fn main() {
    // `--smoke`: a fast sanity pass for CI — few reps, short e2e schedule,
    // and no snapshot rewrite (the committed numbers stay authoritative).
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|arg| arg == "--smoke");
    // Time with the *effective* worker count: a request above the host's
    // available parallelism (e.g. the old floor of 4) only oversubscribes
    // the pool, and the snapshot should report the workers that actually
    // ran, not the ones requested.
    let requested = par::effective_threads();
    let threads = par::effective_workers(requested);
    if threads != requested {
        println!("perfsnap: requested {requested} threads, host supports {threads}");
    }
    // `--threads 1,2,4`: sweep the parallel column over these worker counts
    // (each clamped to the host) instead of the single effective count.
    let sweep: Vec<usize> = match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let list = args
                .get(i + 1)
                .expect("--threads takes a comma-separated list, e.g. --threads 1,2,4");
            let mut counts: Vec<usize> = list
                .split(',')
                .map(|s| {
                    let t: usize = s
                        .trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("bad --threads entry {s:?}"));
                    par::effective_workers(t.max(1))
                })
                .collect();
            counts.sort_unstable();
            counts.dedup();
            counts
        }
        None => vec![threads],
    };
    let reps = if smoke { 2 } else { 9 };
    println!(
        "perfsnap: timing kernels with {threads} parallel threads{}{}\n",
        if sweep.len() > 1 {
            format!(" (sweep: {sweep:?})")
        } else {
            String::new()
        },
        if smoke { " (smoke run)" } else { "" }
    );
    let mut rng = seeded_rng(42);
    let mut pairs = Vec::new();

    let a = normal_matrix(256, 256, 0.0, 1.0, &mut rng);
    let b = normal_matrix(256, 256, 0.0, 1.0, &mut rng);
    let mm_flops = Some(2.0 * 256.0 * 256.0 * 256.0);
    pairs.push(pair("matmul_256", &sweep, reps, mm_flops, || {
        std::hint::black_box(a.matmul(&b));
    }));
    pairs.push(pair("matmul_tn_256", &sweep, reps, mm_flops, || {
        std::hint::black_box(a.matmul_tn(&b));
    }));

    let mut coo = Vec::new();
    for r in 0..2000u32 {
        for j in 0..8u32 {
            coo.push((
                r,
                (r.wrapping_mul(2654435761).wrapping_add(j * 40503)) % 2000,
                0.5f32,
            ));
        }
    }
    let sp = Csr::from_coo(2000, 2000, coo);
    let xd = normal_matrix(2000, 64, 0.0, 1.0, &mut rng);
    let spmm_flops = Some(2.0 * sp.nnz() as f64 * 64.0);
    // Overwrite into a reused buffer — the replay-path shape of the kernel;
    // timing `spmm()` would charge a 500 KiB allocation per rep to it.
    let mut spmm_out = vec![0.0f32; 2000 * 64];
    pairs.push(pair("spmm_16k_nnz", &sweep, reps, spmm_flops, || {
        sp.spmm_to(&xd, &mut spmm_out);
        std::hint::black_box(&spmm_out);
    }));

    let n = 2000usize;
    let mut ep = Vec::new();
    for i in 0..n as u32 {
        for j in 0..12u32 {
            ep.push((
                (i.wrapping_mul(48271).wrapping_add(j * 16807)) % n as u32,
                i,
            ));
        }
    }
    let edges = Arc::new(EdgeIndex::from_pairs(n, ep));
    let scores = normal_matrix(edges.n_edges(), 1, 0.0, 1.0, &mut rng);
    let h = normal_matrix(n, 32, 0.0, 1.0, &mut rng);
    // nnz-proportional estimate: the softmax touches every edge a handful of
    // times (max-subtract, exp, sum, divide ≈ 4 ops/edge, counting exp as
    // one) and the aggregate does a multiply-add per edge per feature
    // (2·d ops/edge). Proportional to edge count, so a denser graph moves
    // the GF/s denominator with the work; no attempt to cost exp precisely.
    let agg_d = 32usize;
    let edge_flops = Some(edges.n_edges() as f64 * (4.0 + 2.0 * agg_d as f64));
    pairs.push(pair(
        "edge_softmax_aggregate",
        &sweep,
        reps,
        edge_flops,
        || {
            let mut g = Graph::new();
            let s = g.constant(scores.clone());
            let hn = g.constant(h.clone());
            let alpha = g.edge_softmax(s, edges.clone());
            let out = g.edge_aggregate(alpha, hn, edges.clone());
            std::hint::black_box(g.value(out).sum());
        },
    ));

    let meta = uvd_tensor::ConvMeta {
        c_in: 2,
        h_in: 32,
        w_in: 32,
        c_out: 8,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let xc = normal_matrix(16, meta.in_len(), 0.0, 1.0, &mut rng);
    let (co, klen) = meta.kernel_shape();
    let kern = normal_matrix(co, klen, 0.0, 0.3, &mut rng);
    let hw = (meta.h_out() * meta.w_out()) as f64;
    let conv_flops = Some(16.0 * 2.0 * co as f64 * klen as f64 * hw);
    pairs.push(pair(
        "conv2d_batch16_2x32x32",
        &sweep,
        reps,
        conv_flops,
        || {
            std::hint::black_box(uvd_tensor::conv::conv2d_batch(&xc, &kern, &meta));
        },
    ));

    let xg = normal_matrix(1000, 64, 0.0, 1.0, &mut rng);
    let wg = normal_matrix(64, 16, 0.0, 1.0, &mut rng);
    let fg = normal_matrix(1000, 64 * 16, 0.5, 0.1, &mut rng);
    // Three scalar ops per (i, k, j) lane: x*w, (x*w)*f, and the add. Timed
    // through the standalone kernel entry like the other kernel rows — the
    // graph-recording path would charge ~4 MiB of constant clones per rep
    // to the kernel.
    let gated_flops = Some(3.0 * 1000.0 * 64.0 * 16.0);
    let mut gated_out = vec![0.0f32; 1000 * 16];
    pairs.push(pair(
        "gated_matmul_1000x64x16",
        &sweep,
        reps,
        gated_flops,
        || {
            uvd_tensor::plan::gated_matmul_into(&xg, &wg, &fg, &mut gated_out);
            std::hint::black_box(&gated_out);
        },
    ));

    let kernels: Vec<serde_json::Value> = pairs
        .iter()
        .map(|p| {
            let parallel_ms = p.sweep.last().expect("non-empty sweep").1;
            let mut k = serde_json::json!({
                "name": p.name,
                "serial_ms": p.serial_ms,
                "parallel_ms": parallel_ms,
                "speedup": p.serial_ms / parallel_ms.max(1e-9),
                "thread_sweep": p.sweep.iter().map(|&(t, ms)| {
                    serde_json::json!({ "threads": t, "parallel_ms": ms })
                }).collect::<Vec<_>>(),
            });
            if let serde_json::Value::Object(fields) = &mut k {
                if let (Some(gs), Some(gp)) =
                    (gflops(p.flops, p.serial_ms), gflops(p.flops, parallel_ms))
                {
                    fields.push(("serial_gflops".into(), serde::to_value(&gs)));
                    fields.push(("parallel_gflops".into(), serde::to_value(&gp)));
                }
            }
            k
        })
        .collect();
    let e2e = e2e_cmsf(threads, smoke);
    let trace = span_breakdown();
    // Build-path sweep: honor an explicit `--threads` list; the default
    // single-count run still sweeps {1, 2, max} so the committed snapshot
    // always carries a real serial/parallel build curve.
    let build_sweep: Vec<usize> = if sweep.len() > 1 {
        sweep.clone()
    } else {
        let mut counts: Vec<usize> = [1, 2, threads]
            .into_iter()
            .map(par::effective_workers)
            .collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    };
    let build = build_path(&build_sweep, smoke);
    if smoke {
        println!("\nsmoke run: leaving BENCH_tensor.json untouched");
        return;
    }
    let mut doc = serde_json::json!({
        "requested_threads": requested,
        "threads": threads,
        "thread_sweep": sweep,
        "host_cores": std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
        // Process-wide peak heap over everything this snapshot ran (city
        // build, kernel reps, both e2e folds), from the counting allocator.
        "peak_bytes": uvd_obs::alloc::peak_bytes(),
        "kernels": kernels,
        "e2e": e2e,
        "trace": trace,
        "build": build,
    });
    let path = repo_root_path("BENCH_tensor.json");
    // Keys owned by other tools (`scaling`'s curve, `tasks_smoke`'s row,
    // anything future) ride along across rewrites so each tool can update
    // the snapshot independently.
    if let Some(serde_json::Value::Object(prev)) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str_value(&t).ok())
    {
        for (key, value) in prev {
            if doc.get(&key).is_none() {
                doc.set(&key, value);
            }
        }
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialize snapshot") + "\n",
    )
    .expect("write BENCH_tensor.json");
    println!("\nwrote {}", path.display());
}
