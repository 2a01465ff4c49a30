//! The resident TCP service: listener, bounded request queue, worker
//! threads, updater thread.
//!
//! Thread layout (see DESIGN.md §12):
//!
//! * one **listener** thread accepting connections (non-blocking accept
//!   polled against the shutdown flag);
//! * one detached **connection** thread per client, reading NDJSON lines.
//!   `health`/`stats` answer inline; `score` enqueues a job carrying a
//!   reply channel and blocks on it (replies stay in request order per
//!   connection while batching happens *across* connections);
//!   `update_poi` forwards to the updater channel;
//! * `workers` **worker** threads, each owning a private restored model and
//!   recorded batch tape. A tick blocks for its first job, then takes
//!   whatever else is already queued, in FIFO order, while the rows taken
//!   stay below the tape capacity, and replays at once: batches fill from
//!   the backlog that builds up while workers are busy, never from a
//!   timer. A tick snapshots the current cache generation once and replays
//!   per chunk. A panic while scoring rebuilds the worker's tape and
//!   re-scores the tick's jobs one at a time, so only a job that panics
//!   again fails, with an `internal error` reply;
//! * one **updater** thread owning the authoritative model, the mutable
//!   URG and the head tape; it publishes a fresh `Arc<Caches>` per
//!   successful `update_poi`.
//!
//! Backpressure: the queue is bounded at `queue_cap`; a full queue answers
//! `{"ok":false,"error":"overloaded: ..."}` instead of buffering without
//! limit. Every crash path a long-lived process meets — malformed JSON,
//! out-of-bounds ids, width mismatches, checkpoint/architecture drift, a
//! panicking replay — is an error *reply*, never a dead thread.
//!
//! `stats` reports the service counters plus p50, p99 and count of four
//! always-on latency histograms, in microseconds: `queue` (enqueue → tick
//! pop), `replay` (one tick's scoring), `request` (enqueue → reply handed
//! back to the connection) and `update` (`update_poi` re-embed + publish).

use std::any::Any;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cmsf::CmsfConfig;
use serde_json::Value;
use uvd_obs::Histogram;
use uvd_tensor::MatrixStore;
use uvd_urg::Urg;

use crate::engine::{oob_error, BatchScorer, Caches, Updater};
use crate::proto::{self, Request};
use crate::{env, proto::error_reply};

static REQUESTS: uvd_obs::Counter = uvd_obs::Counter::new("serve.requests");
static BATCHES: uvd_obs::Counter = uvd_obs::Counter::new("serve.batches");
static QUEUE_ENQ: uvd_obs::Counter = uvd_obs::Counter::new("serve.queue.enq");
static QUEUE_DEQ: uvd_obs::Counter = uvd_obs::Counter::new("serve.queue.deq");

/// A queued score request: ids plus the channel the worker answers on.
struct ScoreJob {
    ids: Vec<u32>,
    tag: Option<Value>,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

/// An update request forwarded to the updater thread.
struct UpdateJob {
    region: u64,
    poi: Vec<f32>,
    tag: Option<Value>,
    reply: mpsc::Sender<String>,
}

/// Plain-`u64` service stats, separate from `uvd_obs` counters because
/// those only accumulate while tracing is on; `stats` must work always.
#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    score_requests: AtomicU64,
    batches: AtomicU64,
    rows_scored: AtomicU64,
    updates: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    latency: Latency,
}

/// Server-side latencies in microseconds, reported by `stats` as
/// `<name>_p50_us`, `<name>_p99_us` and `<name>_count`.
struct Latency {
    /// Enqueue → the tick that pops the job.
    queue: Histogram,
    /// One tick's scoring, all of its jobs.
    replay: Histogram,
    /// Enqueue → reply handed back to the connection.
    request: Histogram,
    /// `update_poi` re-embed + publish.
    update: Histogram,
}

impl Default for Latency {
    fn default() -> Self {
        Latency {
            queue: Histogram::new("queue"),
            replay: Histogram::new("replay"),
            request: Histogram::new("request"),
            update: Histogram::new("update"),
        }
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

struct SharedState {
    caches: RwLock<Arc<Caches>>,
    queue: Mutex<VecDeque<ScoreJob>>,
    not_empty: Condvar,
    queue_cap: usize,
    batch_cap: usize,
    shutdown: AtomicBool,
    stats: Stats,
    n_regions: usize,
    workers: usize,
}

/// Server construction options. `Default` reads `UVD_SERVE_BATCH`.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker (micro-batch scorer) thread count.
    pub workers: usize,
    /// Rows per micro-batch replay.
    pub batch: usize,
    /// Bounded queue capacity (jobs, not rows).
    pub queue_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let batch = env::env_serve_batch();
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            batch,
            queue_cap: 1024,
        }
    }
}

/// A running service. Dropping it shuts the service down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<SharedState>,
    threads: Vec<JoinHandle<()>>,
    update_tx: Option<mpsc::Sender<UpdateJob>>,
}

impl Server {
    /// Restore the checkpoint, record the tapes, bind the listener and
    /// spawn the thread fleet. Returns once the service is accepting
    /// connections.
    pub fn start(
        urg: Urg,
        cfg: CmsfConfig,
        store: MatrixStore,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        // Build the updater first: it validates the checkpoint against the
        // architecture (transactional restore) and produces generation 0.
        let updater = Updater::new(urg.clone(), cfg, &store)?;
        let caches0 = updater.caches();
        let d_final = caches0.x_final.cols();
        let gated = caches0.filter.is_some();

        let shared = Arc::new(SharedState {
            caches: RwLock::new(Arc::new(caches0)),
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            queue_cap: opts.queue_cap,
            batch_cap: opts.batch.max(1),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            n_regions: updater.n_regions(),
            workers: opts.workers.max(1),
        });

        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let mut threads = Vec::new();

        // Updater thread: owns the authoritative model. `Updater` is not
        // Send (Rc params), so it is *constructed* on this thread and a
        // second instance is moved piece-wise: we rebuild from the same
        // store, which restores bitwise-identical parameters.
        let (update_tx, update_rx) = mpsc::channel::<UpdateJob>();
        {
            let shared = Arc::clone(&shared);
            let urg = urg.clone();
            let store = store.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("uvd-serve-updater".to_string())
                    .spawn(move || {
                        let updater =
                            Updater::new(urg, cfg, &store).expect("store validated at startup");
                        updater_loop(updater, update_rx, shared);
                    })?,
            );
        }

        // Worker threads: each restores its own model from the shared
        // store and records a private batch tape.
        for w in 0..shared.workers {
            let shared = Arc::clone(&shared);
            let urg = urg.clone();
            let store = store.clone();
            let batch_cap = shared.batch_cap;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("uvd-serve-worker-{w}"))
                    .spawn(move || {
                        let rebuild = || {
                            let mut scorer =
                                BatchScorer::new(&urg, cfg, &store, batch_cap, d_final, gated)
                                    .expect("store validated at startup");
                            move |caches: &Caches, ids: &[u32], out: &mut Vec<f32>| {
                                scorer.score_chunk(caches, ids, out)
                            }
                        };
                        worker_loop(rebuild, shared);
                    })?,
            );
        }

        // Listener thread.
        {
            let shared = Arc::clone(&shared);
            let update_tx = update_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("uvd-serve-listener".to_string())
                    .spawn(move || listener_loop(listener, shared, update_tx))?,
            );
        }

        Ok(Server {
            addr,
            shared,
            threads,
            update_tx: Some(update_tx),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current cache generation.
    pub fn version(&self) -> u64 {
        self.shared.caches.read().expect("caches lock").version
    }

    /// Stop accepting, drain nothing further, join the fleet. Queued jobs
    /// that never ran answer with a shutdown error through their dropped
    /// reply channels.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.not_empty.notify_all();
        // Dropping the server's updater handle lets the updater thread see
        // channel disconnect promptly.
        self.update_tx.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn listener_loop(
    listener: TcpListener,
    shared: Arc<SharedState>,
    update_tx: mpsc::Sender<UpdateJob>,
) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let update_tx = update_tx.clone();
                // Detached: the thread exits when the client disconnects
                // or the shutdown flag flips (read timeout poll).
                let _ = std::thread::Builder::new()
                    .name("uvd-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, shared, update_tx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn connection_loop(
    stream: TcpStream,
    shared: Arc<SharedState>,
    update_tx: mpsc::Sender<UpdateJob>,
) {
    // One-line request/reply traffic stalls ~40ms per turn under Nagle +
    // delayed ACK; replies must leave the moment they are written.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let reply = handle_line(trimmed, &shared, &update_tx);
                if writer.write_all(reply.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
                    return;
                }
                let _ = writer.flush();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handle one request line and produce one reply line (no newline).
fn handle_line(line: &str, shared: &SharedState, update_tx: &mpsc::Sender<UpdateJob>) -> String {
    let mut span = uvd_obs::span("serve.request");
    REQUESTS.add(1);
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let req = match proto::parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            span.add_field("ok", 0.0);
            return error_reply(&msg, None);
        }
    };
    if let Some(id) = req.tag().and_then(Value::as_f64) {
        span.add_field("id", id);
    }
    let reply = match req {
        Request::Health { tag } => {
            let version = shared.caches.read().expect("caches lock").version;
            proto::health_reply(shared.n_regions, version, shared.workers, tag.as_ref())
        }
        Request::Stats { tag } => {
            let version = shared.caches.read().expect("caches lock").version;
            let depth = shared.queue.lock().expect("queue lock").len() as u64;
            let s = &shared.stats;
            let mut fields: Vec<(String, u64)> = [
                ("requests", s.requests.load(Ordering::Relaxed)),
                ("score_requests", s.score_requests.load(Ordering::Relaxed)),
                ("batches", s.batches.load(Ordering::Relaxed)),
                ("rows_scored", s.rows_scored.load(Ordering::Relaxed)),
                ("updates", s.updates.load(Ordering::Relaxed)),
                ("errors", s.errors.load(Ordering::Relaxed)),
                ("rejected", s.rejected.load(Ordering::Relaxed)),
                ("queue_depth", depth),
                ("regions", shared.n_regions as u64),
                ("version", version),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
            let l = &s.latency;
            for h in [&l.queue, &l.replay, &l.request, &l.update] {
                fields.push((format!("{}_p50_us", h.name()), h.quantile(0.5)));
                fields.push((format!("{}_p99_us", h.name()), h.quantile(0.99)));
                fields.push((format!("{}_count", h.name()), h.count()));
            }
            proto::stats_reply(&fields, tag.as_ref())
        }
        Request::Score { ids, tag } => {
            shared.stats.score_requests.fetch_add(1, Ordering::Relaxed);
            span.add_field("ids", ids.len() as f64);
            score_via_queue(ids, tag, shared)
        }
        Request::UpdatePoi { region, poi, tag } => {
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = UpdateJob {
                region,
                poi,
                tag: tag.clone(),
                reply: reply_tx,
            };
            if update_tx.send(job).is_err() {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                error_reply("shutting down", tag.as_ref())
            } else {
                match reply_rx.recv() {
                    Ok(r) => r,
                    Err(_) => {
                        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                        error_reply("shutting down", tag.as_ref())
                    }
                }
            }
        }
    };
    span.add_field("ok", 1.0);
    reply
}

/// Enqueue a score job (bounded) and block on the worker's reply.
fn score_via_queue(ids: Vec<u32>, tag: Option<Value>, shared: &SharedState) -> String {
    let (reply_tx, reply_rx) = mpsc::channel();
    let enqueued = Instant::now();
    {
        let mut q = shared.queue.lock().expect("queue lock");
        if q.len() >= shared.queue_cap {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            return error_reply(
                &format!("overloaded: queue at capacity {}", shared.queue_cap),
                tag.as_ref(),
            );
        }
        q.push_back(ScoreJob {
            ids,
            tag: tag.clone(),
            enqueued,
            reply: reply_tx,
        });
        QUEUE_ENQ.add(1);
    }
    shared.not_empty.notify_one();
    match reply_rx.recv() {
        Ok(r) => {
            shared
                .stats
                .latency
                .request
                .record(micros(enqueued.elapsed()));
            r
        }
        Err(_) => error_reply("shutting down", tag.as_ref()),
    }
}

/// One worker: tick until shutdown. `rebuild` makes the worker's scorer
/// — a recorded batch tape behind a `(caches, ids, out)` closure — at
/// start-up and again after a tick panics.
fn worker_loop<S>(rebuild: impl Fn() -> S, shared: Arc<SharedState>)
where
    S: FnMut(&Caches, &[u32], &mut Vec<f32>),
{
    let mut score = rebuild();
    while let Some((jobs, depth)) = next_tick(&shared) {
        tick(&mut score, &rebuild, jobs, depth, &shared);
    }
}

/// Block for a tick's first job, then take whatever else is already
/// queued, in FIFO order, while the rows taken stay below the tape
/// capacity. Never waits for more: a batch fills from the backlog that
/// built up while the workers were busy. Returns the jobs and the queue
/// depth left behind; `None` once the server shuts down.
fn next_tick(shared: &SharedState) -> Option<(Vec<ScoreJob>, usize)> {
    let mut q = shared.queue.lock().expect("queue lock");
    let first = loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(j) = q.pop_front() {
            break j;
        }
        let (guard, _) = shared
            .not_empty
            .wait_timeout(q, Duration::from_millis(50))
            .expect("queue lock");
        q = guard;
    };
    let mut rows = first.ids.len();
    let mut jobs = vec![first];
    while rows < shared.batch_cap {
        let Some(j) = q.pop_front() else { break };
        rows += j.ids.len();
        jobs.push(j);
    }
    Some((jobs, q.len()))
}

/// Score one tick's jobs against one cache snapshot and answer each.
/// An out-of-bounds id fails *its* job with the typed sampler error text;
/// the rest run. A panic while scoring replaces `score` with `rebuild()`
/// (a replay cut short can leave its tape half-written) and re-scores the
/// jobs one at a time, each under its own `catch_unwind`: only a job that
/// panics again is answered with `internal error: <panic message>`.
fn tick<S>(
    score: &mut S,
    rebuild: &impl Fn() -> S,
    jobs: Vec<ScoreJob>,
    depth: usize,
    shared: &SharedState,
) where
    S: FnMut(&Caches, &[u32], &mut Vec<f32>),
{
    let popped = Instant::now();
    let rows: usize = jobs.iter().map(|j| j.ids.len()).sum();
    QUEUE_DEQ.add(jobs.len() as u64);
    let span = uvd_obs::span("serve.batch")
        .field("jobs", jobs.len() as f64)
        .field("rows", rows as f64)
        .field("queue", depth as f64);
    BATCHES.add(1);
    let stats = &shared.stats;
    stats.batches.fetch_add(1, Ordering::Relaxed);

    // One snapshot per tick: every job in the batch scores against the
    // same cache generation.
    let caches = Arc::clone(&shared.caches.read().expect("caches lock"));

    let mut runnable: Vec<ScoreJob> = Vec::with_capacity(jobs.len());
    for job in jobs {
        stats.latency.queue.record(micros(popped - job.enqueued));
        match job.ids.iter().find(|&&id| id as usize >= shared.n_regions) {
            Some(&bad) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(error_reply(
                    &oob_error(bad, shared.n_regions),
                    job.tag.as_ref(),
                ));
            }
            None => runnable.push(job),
        }
    }

    let started = Instant::now();
    let cap = shared.batch_cap;
    let mut scored: usize = runnable.iter().map(|j| j.ids.len()).sum();
    let replies = match catch_unwind(AssertUnwindSafe(|| {
        score_replies(score, cap, &caches, &runnable)
    })) {
        Ok(replies) => replies,
        Err(_) => {
            *score = rebuild();
            let mut replies = Vec::with_capacity(runnable.len());
            for job in &runnable {
                let one = std::slice::from_ref(job);
                match catch_unwind(AssertUnwindSafe(|| score_replies(score, cap, &caches, one))) {
                    Ok(mut r) => replies.push(r.pop().expect("one reply per job")),
                    Err(payload) => {
                        *score = rebuild();
                        scored -= job.ids.len();
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                        replies.push(error_reply(
                            &format!("internal error: {}", panic_message(payload.as_ref())),
                            job.tag.as_ref(),
                        ));
                    }
                }
            }
            replies
        }
    };
    stats.latency.replay.record(micros(started.elapsed()));
    stats
        .rows_scored
        .fetch_add(scored as u64, Ordering::Relaxed);
    for (job, reply) in runnable.into_iter().zip(replies) {
        let _ = job.reply.send(reply);
    }
    drop(span);
}

/// One reply per job, every id in bounds. The jobs' ids are flattened and
/// replayed through `score` in chunks of at most `cap` rows.
fn score_replies<S>(score: &mut S, cap: usize, caches: &Caches, jobs: &[ScoreJob]) -> Vec<String>
where
    S: FnMut(&Caches, &[u32], &mut Vec<f32>),
{
    let flat: Vec<u32> = jobs.iter().flat_map(|j| j.ids.iter().copied()).collect();
    let mut scores: Vec<f32> = Vec::with_capacity(flat.len());
    for chunk in flat.chunks(cap) {
        score(caches, chunk, &mut scores);
    }
    let mut off = 0;
    jobs.iter()
        .map(|job| {
            let n = job.ids.len();
            off += n;
            proto::score_reply(&scores[off - n..off], caches.version, job.tag.as_ref())
        })
        .collect()
}

/// The message of a `panic!` payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The updater thread: applies POI edits, re-embeds the k-hop
/// neighborhood, publishes fresh cache generations.
fn updater_loop(mut updater: Updater, rx: mpsc::Receiver<UpdateJob>, shared: Arc<SharedState>) {
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => {
                let expected = updater.poi_width();
                if job.poi.len() != expected {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(error_reply(
                        &format!(
                            "poi width mismatch: expected {expected}, got {}",
                            job.poi.len()
                        ),
                        job.tag.as_ref(),
                    ));
                    continue;
                }
                let span = uvd_obs::span("serve.update");
                let started = Instant::now();
                match updater.update_poi(job.region, &job.poi) {
                    Ok(out) => {
                        *shared.caches.write().expect("caches lock") = Arc::new(updater.caches());
                        shared
                            .stats
                            .latency
                            .update
                            .record(micros(started.elapsed()));
                        shared.stats.updates.fetch_add(1, Ordering::Relaxed);
                        let _ = job.reply.send(proto::update_reply(
                            out.version,
                            out.reembedded,
                            out.subgraph,
                            job.tag.as_ref(),
                        ));
                    }
                    Err(msg) => {
                        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                        let _ = job.reply.send(error_reply(&msg, job.tag.as_ref()));
                    }
                }
                drop(span);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use uvd_tensor::Matrix;

    const VERSION: u64 = 3;

    fn state(n_regions: usize, batch_cap: usize) -> SharedState {
        SharedState {
            caches: RwLock::new(Arc::new(Caches {
                version: VERSION,
                x_final: Matrix::zeros(n_regions, 1),
                filter: None,
                scores: Vec::new(),
            })),
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            queue_cap: 16,
            batch_cap,
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            n_regions,
            workers: 1,
        }
    }

    fn job(ids: &[u32]) -> (ScoreJob, mpsc::Receiver<String>) {
        let (reply, rx) = mpsc::channel();
        let job = ScoreJob {
            ids: ids.to_vec(),
            tag: None,
            enqueued: Instant::now(),
            reply,
        };
        (job, rx)
    }

    fn enqueue(shared: &SharedState, ids: &[u32]) -> mpsc::Receiver<String> {
        let (job, rx) = job(ids);
        shared.queue.lock().unwrap().push_back(job);
        rx
    }

    fn ids_of(jobs: &[ScoreJob]) -> Vec<Vec<u32>> {
        jobs.iter().map(|j| j.ids.clone()).collect()
    }

    /// `Ok(scores)` or `Err(error text)` of one reply.
    fn reply(rx: &mpsc::Receiver<String>) -> Result<Vec<f64>, String> {
        let v = serde_json::from_str_value(&rx.try_recv().expect("job answered")).unwrap();
        match v.get("scores") {
            Some(Value::Array(a)) => {
                assert_eq!(
                    v.get("version").and_then(Value::as_f64),
                    Some(VERSION as f64)
                );
                Ok(a.iter().map(|x| x.as_f64().unwrap()).collect())
            }
            _ => Err(v.get("error").and_then(Value::as_str).unwrap().to_string()),
        }
    }

    #[test]
    fn a_tick_takes_what_is_queued_and_never_waits_for_more() {
        let shared = state(100, 4);
        // A lone job replays alone: nothing else is queued, so nothing is
        // waited for.
        let _rx = enqueue(&shared, &[1]);
        let (jobs, depth) = next_tick(&shared).expect("a queued job");
        assert_eq!((ids_of(&jobs), depth), (vec![vec![1]], 0));

        // FIFO while the rows taken are below capacity 4: 2, then 3, then
        // 5 rows; the fourth job stays queued for the next tick.
        let _rxs: Vec<_> = [&[10, 11][..], &[12], &[13, 14], &[15]]
            .into_iter()
            .map(|ids| enqueue(&shared, ids))
            .collect();
        let (jobs, depth) = next_tick(&shared).expect("queued jobs");
        assert_eq!(ids_of(&jobs), vec![vec![10, 11], vec![12], vec![13, 14]]);
        assert_eq!(depth, 1);
        let (jobs, depth) = next_tick(&shared).expect("the job left behind");
        assert_eq!((ids_of(&jobs), depth), (vec![vec![15]], 0));

        shared.shutdown.store(true, Ordering::Release);
        assert!(next_tick(&shared).is_none());
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_worker_serves_the_next_tick() {
        const POISON: u32 = 7;
        let shared = state(100, 4);
        let builds = Cell::new(0);
        let rebuild = || {
            builds.set(builds.get() + 1);
            |_: &Caches, ids: &[u32], out: &mut Vec<f32>| {
                assert!(!ids.contains(&POISON), "poisoned region {POISON}");
                out.extend(ids.iter().map(|&id| id as f32));
            }
        };
        let mut score = rebuild();

        let (jobs, rxs): (Vec<_>, Vec<_>) = [&[1, 2][..], &[POISON, 5], &[3]]
            .into_iter()
            .map(job)
            .unzip();
        tick(&mut score, &rebuild, jobs, 0, &shared);
        assert_eq!(reply(&rxs[0]), Ok(vec![1.0, 2.0]));
        assert_eq!(
            reply(&rxs[1]),
            Err(format!("internal error: poisoned region {POISON}"))
        );
        assert_eq!(reply(&rxs[2]), Ok(vec![3.0]));
        // Start-up, after the batched pass, after the poisoned job's retry.
        assert_eq!(builds.get(), 3);
        assert_eq!(shared.stats.errors.load(Ordering::Relaxed), 1);
        assert_eq!(shared.stats.rows_scored.load(Ordering::Relaxed), 3);

        let (next, rx) = job(&[4, 6]);
        tick(&mut score, &rebuild, vec![next], 0, &shared);
        assert_eq!(reply(&rx), Ok(vec![4.0, 6.0]));
        assert_eq!(builds.get(), 3);
        assert_eq!(shared.stats.latency.replay.count(), 2);
        assert_eq!(shared.stats.latency.queue.count(), 4);
    }
}
