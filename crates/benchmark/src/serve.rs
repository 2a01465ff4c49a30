//! `serve_read` and `serve_mixed`: open-loop traffic against an in-process
//! `uvd_serve::Server` (2 workers, default batching options).
//!
//! Set-up builds the Fuzhou-like city and URG, fits a `fast_test` fixture
//! (20 + 5 epochs on every labelled region), starts the server and waits
//! for its first `health` reply. Two generator threads each own one
//! connection and send `score` requests of 8 uniform region ids on seeded
//! Poisson schedules, so every commit sees the same send times:
//!
//! 1. a nominal phase at 400 req/s gives the latency metrics: `p50_ms`
//!    and, as `tail_ms`, p90 — across seeds on a 2-core host p99 spread
//!    ~15% of its median while p90 stayed within ~5% (p99 is a detail);
//! 2. a saturation step offers 4× the nominal rate for 2 s; the replies
//!    completed per second inside that window are `throughput`, the highest
//!    rate the server sustains without a growing backlog. (Each connection
//!    is served one request at a time and every micro-batch waits out the
//!    2 ms fill deadline, so two connections saturate near 900 req/s.)
//! 3. a closed-loop sweep scores every labelled region for the AUC and the
//!    bitwise check against the fixture's own `Cmsf::predict`.
//!
//! `serve_mixed` makes 5% of requests `update_poi` writes (a random region
//! and a perturbed POI row of the right width); each connection writes its
//! own half of the regions, so the final state does not depend on how the
//! two connections interleave.

use crate::loadgen::{drive, poisson, round_trip, Outcome, Request};
use crate::probes::{self, ProbeInput};
use crate::report::{metric, mib, overhead_pct, repeated_setup, Ledger, Phase, Report};
use crate::stats::{median, quantile_sorted, sorted, supported_tail};
use crate::Params;
use cmsf::{Cmsf, CmsfConfig};
use rand::Rng;
use serde_json::Value;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use uvd_citysim::{City, CityPreset};
use uvd_eval::auc;
use uvd_obs::alloc;
use uvd_serve::{ServeOptions, Server};
use uvd_tensor::init::derive_seed;
use uvd_tensor::{seeded_rng, MatrixStore};
use uvd_urg::{Detector, Urg, UrgOptions};

/// Nominal offered load, requests per second over both connections.
const NOMINAL_RPS: f64 = 400.0;
const CONNECTIONS: usize = 2;
const IDS_PER_REQUEST: usize = 8;
const WRITE_SHARE: f64 = 0.05;
/// The saturation step's offered load, as a multiple of the nominal rate,
/// and its length.
const SATURATION_FACTOR: f64 = 4.0;
const SATURATION_SECS: f64 = 2.0;
/// Replies still missing this long after the last send are failures.
const GIVE_UP: Duration = Duration::from_secs(10);
/// Ids per request of the closed-loop sweep.
const SWEEP_CHUNK: usize = 64;

/// Lowest acceptable AUC of the served scores over the labelled regions
/// (the fixture is fitted on all of them): 0.05 below the lowest the seed
/// commit reached over seeds 1–20, rounded down to a multiple of 0.05.
const AUC_FLOOR: f64 = 0.80;
const SMOKE_AUC_FLOOR: f64 = 0.5;

fn fixture_config(smoke: bool) -> CmsfConfig {
    let mut cfg = CmsfConfig::fast_test();
    cfg.master_epochs = if smoke { 5 } else { 20 };
    cfg.slave_epochs = if smoke { 2 } else { 5 };
    cfg
}

struct Fixture {
    urg: Urg,
    cfg: CmsfConfig,
    store: MatrixStore,
    model: Cmsf,
    server: Server,
    build_peak: f64,
    fit_peak: f64,
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the in-process server");
    s.set_nodelay(true).expect("TCP_NODELAY");
    s
}

fn setup(p: &Params) -> Fixture {
    alloc::reset_peak();
    let city = City::from_config(CityPreset::FuzhouLike.config(), p.seed);
    let urg = Urg::build(&city, UrgOptions::default());
    let build_peak = mib(alloc::peak_bytes());
    alloc::reset_peak();
    let cfg = fixture_config(p.smoke);
    let all: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut model = Cmsf::new(&urg, cfg);
    let report = model.fit(&urg, &all);
    if let Some(err) = report.error {
        panic!("serve fixture failed to fit: {err}");
    }
    let fit_peak = mib(alloc::peak_bytes());
    let store = model.to_store();
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    let server = Server::start(urg.clone(), cfg, store.clone(), opts).expect("server starts");
    let health =
        round_trip(&mut connect(server.addr()), r#"{"op":"health"}"#).expect("health round trip");
    assert!(health.starts_with("{\"ok\":true"), "health reply: {health}");
    Fixture {
        urg,
        cfg,
        store,
        model,
        server,
        build_peak,
        fit_peak,
    }
}

/// Per-connection request streams for one phase: Poisson arrivals at
/// `rps / CONNECTIONS` each, seeded by `(seed, tag, connection)`.
pub fn requests(
    urg: &Urg,
    seed: u64,
    tag: u64,
    rps: f64,
    secs: f64,
    mixed: bool,
) -> Vec<(Vec<Request>, Vec<Vec<u32>>)> {
    let n = urg.n;
    (0..CONNECTIONS)
        .map(|c| {
            let mut rng = seeded_rng(derive_seed(derive_seed(seed, tag), c as u64));
            let times = poisson(&mut rng, rps / CONNECTIONS as f64, secs);
            let mut reqs = Vec::with_capacity(times.len());
            let mut ids_of = Vec::with_capacity(times.len());
            for at in times {
                if mixed && rng.gen::<f64>() < WRITE_SHARE {
                    // Connection c writes only regions ≡ c (mod CONNECTIONS).
                    let slots = (n - c).div_ceil(CONNECTIONS);
                    let region = rng.gen_range(0..slots) * CONNECTIONS + c;
                    let row: Vec<String> = urg
                        .x_poi
                        .row(region)
                        .iter()
                        .map(|&v| (v * (0.9 + 0.2 * rng.gen::<f32>())).to_string())
                        .collect();
                    reqs.push(Request {
                        at,
                        line: format!(
                            "{{\"op\":\"update_poi\",\"region\":{region},\"poi\":[{}]}}",
                            row.join(",")
                        ),
                        write: true,
                    });
                    ids_of.push(Vec::new());
                } else {
                    let ids: Vec<u32> = (0..IDS_PER_REQUEST)
                        .map(|_| rng.gen_range(0..n) as u32)
                        .collect();
                    let list: Vec<String> = ids.iter().map(u32::to_string).collect();
                    reqs.push(Request {
                        at,
                        line: format!("{{\"op\":\"score\",\"ids\":[{}]}}", list.join(",")),
                        write: false,
                    });
                    ids_of.push(ids);
                }
            }
            (reqs, ids_of)
        })
        .collect()
}

/// Run one open-loop phase over the connections; returns, per connection,
/// the requests, their ids and their outcomes.
pub fn run_phase(conns: &mut [TcpStream], streams: Vec<(Vec<Request>, Vec<Vec<u32>>)>) -> Results {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .map(|(conn, (reqs, ids))| {
                s.spawn(move || {
                    let out = drive(conn, &reqs, t0, GIVE_UP);
                    (reqs, ids, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// Summary of one open-loop phase.
#[derive(Default)]
struct Traffic {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Replies that arrived before the last scheduled send.
    completed_in_window: usize,
    /// Some request never got a reply: the connection is out of step.
    unanswered: bool,
}

impl Traffic {
    fn read_p99(&self) -> f64 {
        quantile_sorted(&sorted(&self.read_ms), 0.99)
    }
}

/// Per connection: the requests, their region ids, and their outcomes.
type Results = Vec<(Vec<Request>, Vec<Vec<u32>>, Vec<Outcome>)>;

/// Account a phase's requests in the ledger and summarize them.
fn tally(results: &Results, ledger: &mut Ledger) -> Traffic {
    let mut t = Traffic::default();
    for (reqs, _, outs) in results {
        ledger.attempted(reqs.len() as u64);
        let last_at = reqs.last().map_or(Duration::ZERO, |r| r.at);
        for (r, o) in reqs.iter().zip(outs) {
            t.late_ms.push(o.late_ms);
            match (o.ok(), o.latency_ms) {
                (true, Some(ms)) => {
                    if r.write {
                        t.write_ms.push(ms);
                    } else {
                        t.read_ms.push(ms);
                    }
                    if r.at + Duration::from_secs_f64(ms / 1e3) <= last_at {
                        t.completed_in_window += 1;
                    }
                }
                _ => {
                    t.unanswered |= o.reply.is_none();
                    ledger.fail(match &o.reply {
                        Some(reply) => format!("error reply: {reply}"),
                        None => "no reply before the give-up deadline".to_string(),
                    });
                }
            }
        }
    }
    t
}

/// Checks on a phase's replies: versions never decrease on a connection,
/// every write is acknowledged, and scores served at version 0 are bitwise
/// the fixture's own predictions.
fn check_replies(results: &Results, expected: &[f32], ledger: &mut Ledger) {
    for (c, (reqs, ids_of, outs)) in results.iter().enumerate() {
        let mut version = 0.0f64;
        for ((r, ids), o) in reqs.iter().zip(ids_of).zip(outs) {
            let Some(reply) = o.reply.as_deref() else {
                continue;
            };
            let Ok(v) = serde_json::from_str_value(reply) else {
                ledger.check(false, || {
                    format!("connection {c}: unparsable reply {reply}")
                });
                continue;
            };
            if r.write {
                ledger.check(o.ok(), || format!("write not acknowledged: {reply}"));
            }
            let Some(ver) = v.get("version").and_then(Value::as_f64) else {
                continue;
            };
            ledger.check(ver >= version, || {
                format!("connection {c}: version fell from {version} to {ver}")
            });
            version = version.max(ver);
            if r.write || ver > 0.0 {
                continue;
            }
            let Some(Value::Array(scores)) = v.get("scores") else {
                ledger.check(false, || format!("score reply without scores: {reply}"));
                continue;
            };
            let bitwise = scores.len() == ids.len()
                && scores.iter().zip(ids).all(|(s, &id)| {
                    s.as_f64()
                        .is_some_and(|s| (s as f32).to_bits() == expected[id as usize].to_bits())
                });
            ledger.check(bitwise, || {
                format!("connection {c}: served scores {reply} differ from predict for ids {ids:?}")
            });
        }
    }
}

/// The connections of one workload run and what they have sent so far.
struct Session<'a> {
    fx: &'a Fixture,
    conns: Vec<TcpStream>,
    seed: u64,
    mixed: bool,
    /// Phases run so far; each seeds its own schedule.
    tag: u64,
    /// Writes the server acknowledged, over every phase.
    acked_writes: usize,
}

impl Session<'_> {
    fn new(fx: &Fixture, seed: u64, mixed: bool) -> Session<'_> {
        Session {
            fx,
            conns: (0..CONNECTIONS)
                .map(|_| connect(fx.server.addr()))
                .collect(),
            seed,
            mixed,
            tag: 0,
            acked_writes: 0,
        }
    }

    /// One open-loop phase at `rps` for `secs`, tallied into `ledger`.
    /// Reconnects when a reply went missing, so the next phase starts in
    /// step.
    fn phase(&mut self, rps: f64, secs: f64, ledger: &mut Ledger) -> (Traffic, Results) {
        self.tag += 1;
        let streams = requests(&self.fx.urg, self.seed, self.tag, rps, secs, self.mixed);
        let results = run_phase(&mut self.conns, streams);
        let t = tally(&results, ledger);
        self.acked_writes += t.write_ms.len();
        if t.unanswered {
            self.conns = (0..CONNECTIONS)
                .map(|_| connect(self.fx.server.addr()))
                .collect();
        }
        (t, results)
    }

    /// Offer `factor` × the nominal rate for `secs`; the replies completed
    /// per second inside that window.
    fn saturation(&mut self, factor: f64, secs: f64, ledger: &mut Ledger) -> f64 {
        let (t, _) = self.phase(NOMINAL_RPS * factor, secs, ledger);
        t.completed_in_window as f64 / secs
    }
}

/// Score every labelled region through the server (closed loop); returns
/// the scores in `urg.labeled` order and the version they were served at.
fn sweep(fx: &Fixture, conn: &mut TcpStream, ledger: &mut Ledger) -> (Vec<f32>, Option<u64>) {
    let mut scores = Vec::with_capacity(fx.urg.labeled.len());
    let mut version = None;
    for chunk in fx.urg.labeled.chunks(SWEEP_CHUNK) {
        let list: Vec<String> = chunk.iter().map(u32::to_string).collect();
        let line = format!("{{\"op\":\"score\",\"ids\":[{}]}}", list.join(","));
        ledger.attempted(1);
        let reply = round_trip(conn, &line).map_err(|e| e.to_string());
        let parsed = reply
            .as_deref()
            .ok()
            .and_then(|r| serde_json::from_str_value(r).ok());
        let Some(Value::Array(xs)) = parsed.as_ref().and_then(|v| v.get("scores")) else {
            ledger.fail(format!("sweep request failed: {reply:?}"));
            break;
        };
        scores.extend(xs.iter().map(|x| x.as_f64().map_or(f32::NAN, |x| x as f32)));
        version = parsed
            .as_ref()
            .and_then(|v| v.get("version"))
            .and_then(Value::as_f64)
            .map(|v| v as u64);
    }
    (scores, version)
}

fn stats(conn: &mut TcpStream) -> Option<Value> {
    round_trip(conn, r#"{"op":"stats"}"#)
        .ok()
        .and_then(|r| serde_json::from_str_value(&r).ok())
}

pub fn run(p: &Params, mixed: bool) -> Report {
    let mut rep = Report::default();
    let (setup_s, fx) = repeated_setup(if p.smoke { 1 } else { 5 }, || setup(p));
    let expected = fx.model.predict(&fx.urg);
    let nominal_s = if p.smoke { 1.0 } else { p.seconds / 2.0 };
    let mut session = Session::new(&fx, p.seed, mixed);

    // Nominal phase, saturation step, sweep: one timed phase.
    alloc::reset_peak();
    let (nominal, results) = session.phase(NOMINAL_RPS, nominal_s, &mut rep.ledger);
    check_replies(&results, &expected, &mut rep.ledger);
    drop(results);
    let saturated = if p.smoke {
        session.saturation(2.0, 1.0, &mut rep.ledger)
    } else {
        session.saturation(SATURATION_FACTOR, SATURATION_SECS, &mut rep.ledger)
    };
    let (served, sweep_version) = sweep(&fx, &mut session.conns[0], &mut rep.ledger);
    let peak_mib = mib(alloc::peak_bytes());
    let server_stats = stats(&mut session.conns[0]);

    let served_auc = auc(&served, &fx.urg.y).unwrap_or(0.0);
    let phase = Phase {
        op_ms: nominal.read_ms.clone(),
        throughput: saturated,
        auc: served_auc,
        peak_mib,
        tail_pct: Some(90.0),
    };
    let (metrics, mut details) = phase.end_to_end(setup_s);
    rep.metrics = metrics;
    if mixed {
        let (write_pct, write_tail) = supported_tail(&sorted(&nominal.write_ms));
        details.push(metric("write_p50_ms", median(&nominal.write_ms), "ms"));
        details.push(metric("write_tail_ms", write_tail, "ms"));
        details.push(metric("write_tail_percentile", write_pct, "pct"));
        details.push(metric("writes", nominal.write_ms.len() as f64, "count"));
    }
    details.push(metric(
        "late_p99_ms",
        quantile_sorted(&sorted(&nominal.late_ms), 0.99),
        "ms",
    ));
    details.push(metric("p99_ms", nominal.read_p99(), "ms"));
    if let Some(s) = &server_stats {
        let get = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let batches = get("batches").max(1.0);
        details.push(metric("fill_rows", get("rows_scored") / batches, "rows"));
        details.push(metric(
            "jobs_per_batch",
            get("score_requests") / batches,
            "jobs",
        ));
        details.push(metric("rejected", get("rejected"), "count"));
    }
    rep.details = details;

    let l = &mut rep.ledger;
    l.check(served.len() == fx.urg.labeled.len(), || {
        format!(
            "sweep served {} of {} labelled regions",
            served.len(),
            fx.urg.labeled.len()
        )
    });
    l.check(served.iter().all(|s| s.is_finite()), || {
        "sweep served a non-finite score".to_string()
    });
    l.check(saturated > 0.0, || {
        "nothing completed under saturation".to_string()
    });
    // Each acknowledged write publishes exactly one new cache generation.
    let writes = session.acked_writes;
    l.check(sweep_version == Some(writes as u64), || {
        format!("sweep saw version {sweep_version:?} after {writes} acknowledged writes")
    });
    if !mixed {
        let bitwise = served.len() == fx.urg.labeled.len()
            && served
                .iter()
                .zip(&fx.urg.labeled)
                .all(|(s, &r)| s.to_bits() == expected[r as usize].to_bits());
        l.check(bitwise, || {
            "swept scores differ from the fixture's predict".to_string()
        });
    }
    let floor = if p.smoke { SMOKE_AUC_FLOOR } else { AUC_FLOOR };
    l.check(served_auc >= floor, || {
        format!("served AUC {served_auc:.4} below the floor {floor}")
    });

    if p.traced {
        uvd_obs::set_memory();
        let (traced, _) = session.phase(NOMINAL_RPS, nominal_s / 2.0, &mut rep.ledger);
        let counters = uvd_obs::counter_summary();
        let all: Vec<usize> = (0..fx.urg.labeled.len()).collect();
        let city = CityPreset::FuzhouLike.config();
        let input = ProbeInput {
            city: &city,
            seed: p.seed,
            urg: &fx.urg,
            cfg: fx.cfg,
            store: &fx.store,
            train: &all,
            from_stream_ms: None,
            smoke: p.smoke,
        };
        rep.layers = probes::run(
            &input,
            &counters,
            overhead_pct(median(&nominal.read_ms), median(&traced.read_ms)),
            fx.build_peak,
            fx.fit_peak,
            &mut rep.ledger,
        );
        uvd_obs::disable();
    }
    drop(session);
    fx.server.shutdown();
    rep
}
