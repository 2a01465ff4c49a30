//! Lightweight observability layer for the UVD stack: RAII span timers and
//! monotonic counters behind a single global recorder, plus always-on
//! lock-free [`Histogram`]s for service latencies.
//!
//! ## Gating
//!
//! The recorder is off by default and is switched on either by the
//! `UVD_TRACE` environment variable (read lazily, once) or programmatically:
//!
//! | `UVD_TRACE`    | effect                                               |
//! |----------------|------------------------------------------------------|
//! | unset / `0`    | disabled                                             |
//! | `1`            | in-memory aggregation (query via [`span_summary`])   |
//! | `jsonl:<path>` | aggregation **plus** one JSON record per span/counter |
//! | anything else  | disabled, with a one-shot warning on stderr          |
//!
//! The hot path is built so that instrumenting a kernel costs a single
//! relaxed atomic load when tracing is disabled: [`span`] returns a guard
//! whose timestamp is `None` and whose `Drop` is a branch on that `None`;
//! [`Counter::add`] early-returns before touching its cell. Neither path
//! allocates, so instrumented code keeps the steady-state zero-allocation
//! replay guarantee (gated by `crates/tensor/tests/alloc_replay.rs`).
//!
//! ## JSONL schema
//!
//! One object per line. Spans:
//! `{"type":"span","name":..,"start_us":..,"dur_us":..,"thread":..,"fields":{..}}`
//! — `start_us` is microseconds since the recorder was enabled. Span records
//! are flushed to the file as they are written, so a traced process that
//! exits (or dies) without calling [`flush`] still leaves a complete span
//! trail. Counters are emitted as a snapshot on [`flush`] / [`disable`]:
//! `{"type":"counter","name":..,"value":..}`.
//!
//! Tests and tools that need tracing regardless of the environment call
//! [`set_memory`] / [`set_jsonl`] and [`disable`] directly; those override
//! whatever `UVD_TRACE` said (last call wins, process-wide).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod alloc;

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Tri-state recorder flag: 0 = not yet initialised from the environment,
/// 1 = off, 2 = on. Everything hot loads this once with relaxed ordering.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is the recorder currently on? One relaxed load in the steady state; the
/// first call per process may parse `UVD_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNINIT => init_from_env() == STATE_ON,
        s => s == STATE_ON,
    }
}

#[cold]
fn init_from_env() -> u8 {
    let mut rec = recorder().lock().expect("obs recorder poisoned");
    // Another thread may have initialised while we waited on the lock.
    let cur = STATE.load(Ordering::Relaxed);
    if cur != STATE_UNINIT {
        return cur;
    }
    let state = match std::env::var("UVD_TRACE") {
        Err(_) => STATE_OFF,
        Ok(v) => match v.trim() {
            "" | "0" => STATE_OFF,
            "1" => {
                *rec = Some(Recorder::new(None));
                STATE_ON
            }
            s => {
                if let Some(path) = s.strip_prefix("jsonl:") {
                    match File::create(path) {
                        Ok(f) => {
                            *rec = Some(Recorder::new(Some(BufWriter::new(f))));
                            STATE_ON
                        }
                        Err(e) => {
                            warn_once(
                                "UVD_TRACE",
                                &format!("UVD_TRACE: cannot create '{path}': {e}; tracing off"),
                            );
                            STATE_OFF
                        }
                    }
                } else {
                    warn_once(
                        "UVD_TRACE",
                        &format!(
                            "UVD_TRACE: unrecognized value '{s}' \
                             (accepted: 0, 1, jsonl:<path>); tracing off"
                        ),
                    );
                    STATE_OFF
                }
            }
        },
    };
    STATE.store(state, Ordering::Relaxed);
    state
}

struct Recorder {
    /// Zero point for `start_us` timestamps.
    epoch: Instant,
    sink: Option<BufWriter<File>>,
    /// Per-name aggregation: (name, count, total duration ns). Span names are
    /// a small static taxonomy, so linear search beats a hash map here.
    spans: Vec<(&'static str, u64, u64)>,
}

impl Recorder {
    fn new(sink: Option<BufWriter<File>>) -> Self {
        Recorder {
            epoch: Instant::now(),
            sink,
            spans: Vec::new(),
        }
    }
}

fn recorder() -> &'static Mutex<Option<Recorder>> {
    static REC: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    REC.get_or_init(|| Mutex::new(None))
}

/// Enable tracing with in-memory aggregation only (no file output),
/// overriding `UVD_TRACE`. Resets previously aggregated spans.
pub fn set_memory() {
    let mut rec = recorder().lock().expect("obs recorder poisoned");
    *rec = Some(Recorder::new(None));
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Enable tracing with a JSONL sink at `path` (truncates an existing file),
/// overriding `UVD_TRACE`. Resets previously aggregated spans.
pub fn set_jsonl(path: impl AsRef<Path>) -> io::Result<()> {
    let f = File::create(path)?;
    let mut rec = recorder().lock().expect("obs recorder poisoned");
    *rec = Some(Recorder::new(Some(BufWriter::new(f))));
    STATE.store(STATE_ON, Ordering::Relaxed);
    Ok(())
}

/// Turn the recorder off (flushing a JSONL sink first), overriding
/// `UVD_TRACE`. Subsequent spans/counter bumps cost one relaxed load.
pub fn disable() {
    flush();
    let mut rec = recorder().lock().expect("obs recorder poisoned");
    *rec = None;
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// Write counter snapshot records and flush the JSONL sink, if any. No-op
/// when the recorder is off.
pub fn flush() {
    if !enabled() {
        return;
    }
    let mut rec = recorder().lock().expect("obs recorder poisoned");
    let Some(r) = rec.as_mut() else { return };
    if let Some(sink) = r.sink.as_mut() {
        // Assemble the whole snapshot into one buffer and write it with a
        // single `write_all` — same atomic-record discipline as span drops.
        let mut lines = String::new();
        for c in counter_registry().lock().expect("counter registry").iter() {
            lines.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}\n",
                escape(c.name),
                c.get()
            ));
        }
        let _ = sink.write_all(lines.as_bytes());
        let _ = sink.flush();
    }
}

/// Clear aggregated span statistics and zero every registered counter. The
/// recorder mode (off / memory / jsonl) is left as-is.
pub fn reset() {
    let mut rec = recorder().lock().expect("obs recorder poisoned");
    if let Some(r) = rec.as_mut() {
        r.spans.clear();
        r.epoch = Instant::now();
    }
    for c in counter_registry().lock().expect("counter registry").iter() {
        c.value.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Maximum number of key/value fields a span can carry; extra fields are
/// dropped. Fields live inline in the guard so attaching them never allocates.
pub const MAX_FIELDS: usize = 6;

/// RAII span timer: created by [`span`], records its duration on drop. When
/// the recorder is off the guard holds no timestamp and its drop is a branch
/// on `None` — no clock read, no lock, no allocation.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    fields: [(&'static str, f64); MAX_FIELDS],
    n_fields: u8,
}

/// Start a span named `name`. Names form a small static taxonomy
/// (`"cmsf.master"`, `"eval.fit"`, …) documented in DESIGN.md §10.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
        fields: [("", 0.0); MAX_FIELDS],
        n_fields: 0,
    }
}

impl Span {
    /// Attach a key/value field (builder form). Silently dropped beyond
    /// [`MAX_FIELDS`] or when the recorder is off.
    #[inline]
    pub fn field(mut self, key: &'static str, value: f64) -> Self {
        self.add_field(key, value);
        self
    }

    /// Attach a key/value field in place.
    #[inline]
    pub fn add_field(&mut self, key: &'static str, value: f64) {
        if self.start.is_none() {
            return;
        }
        let i = self.n_fields as usize;
        if i < MAX_FIELDS {
            self.fields[i] = (key, value);
            self.n_fields += 1;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        let mut rec = recorder().lock().expect("obs recorder poisoned");
        let Some(r) = rec.as_mut() else { return };
        let dur_ns = dur.as_nanos() as u64;
        match r.spans.iter_mut().find(|(n, _, _)| *n == self.name) {
            Some(slot) => {
                slot.1 += 1;
                slot.2 += dur_ns;
            }
            None => r.spans.push((self.name, 1, dur_ns)),
        }
        if let Some(sink) = r.sink.as_mut() {
            let start_us = start.duration_since(r.epoch).as_micros() as u64;
            let mut line = format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"thread\":{}",
                escape(self.name),
                start_us,
                dur_ns / 1_000,
                thread_ord(),
            );
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields[..self.n_fields as usize].iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                line.push_str(&escape(k));
                line.push_str("\":");
                push_json_number(&mut line, *v);
            }
            line.push_str("}}\n");
            // The record — newline included — goes down in a single
            // `write_all` while the recorder mutex is held, so concurrent
            // span drops can never interleave partial lines, and the flush
            // keeps span records on disk even for a process that exits (or
            // panics) without calling `flush()`. Tracing-on is never the
            // timed path.
            let _ = sink.write_all(line.as_bytes());
            let _ = sink.flush();
        }
    }
}

/// Aggregated statistics for one span name.
#[derive(Clone, Debug)]
pub struct SpanStat {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// Snapshot of per-name span aggregates, in first-seen order. Empty when the
/// recorder is off.
pub fn span_summary() -> Vec<SpanStat> {
    let rec = recorder().lock().expect("obs recorder poisoned");
    rec.as_ref()
        .map(|r| {
            r.spans
                .iter()
                .map(|&(name, count, total_ns)| SpanStat {
                    name,
                    count,
                    total_ns,
                })
                .collect()
        })
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A named monotonic counter, meant to live in a `static`:
///
/// ```
/// static PACK_HIT: uvd_obs::Counter = uvd_obs::Counter::new("gemm.pack_hit");
/// PACK_HIT.add(1);
/// ```
///
/// `add` is a no-op (one relaxed load) while the recorder is off; the first
/// enabled bump registers the counter in the global registry so it shows up
/// in [`counter_summary`] and flush snapshots.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicU8,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicU8::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current value (live even when the recorder is off, though bumps only
    /// accumulate while it is on).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        if self.registered.swap(1, Ordering::Relaxed) == 0 {
            counter_registry()
                .lock()
                .expect("counter registry")
                .push(self);
        }
    }
}

fn counter_registry() -> &'static Mutex<Vec<&'static Counter>> {
    static REG: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot of one counter.
#[derive(Clone, Debug)]
pub struct CounterStat {
    pub name: &'static str,
    pub value: u64,
}

/// Values of every counter that has ever been bumped while the recorder was
/// on, in registration order.
pub fn counter_summary() -> Vec<CounterStat> {
    counter_registry()
        .lock()
        .expect("counter registry")
        .iter()
        .map(|c| CounterStat {
            name: c.name,
            value: c.get(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two: every bucket is at most a quarter of its
/// lower bound wide, so a reported quantile is within 25% of the truth.
const HIST_SUB: u64 = 4;
/// Buckets covering all of `u64`: values below 8 get one bucket each,
/// then `HIST_SUB` per power of two up to 2^64.
const HIST_BUCKETS: usize = 252;

/// A lock-free log-linear histogram of `u64` samples (e.g. microseconds),
/// meant to live in a `static` or a shared struct:
///
/// ```
/// static WAIT_US: uvd_obs::Histogram = uvd_obs::Histogram::new("wait");
/// WAIT_US.record(180);
/// assert_eq!(WAIT_US.count(), 1);
/// ```
///
/// Unlike [`Counter`], a histogram is always on: `record` is one relaxed
/// `fetch_add` whatever the recorder mode, so a service can report its
/// latency percentiles with tracing off.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) as the midpoint of the bucket that
    /// holds the sample of rank ⌈q·count⌉; 0 when nothing was recorded.
    /// Concurrent `record`s may or may not be seen.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return lo + (hi - lo).div_ceil(2);
            }
        }
        unreachable!("rank ≤ total")
    }
}

/// Index of the bucket holding `value`.
fn bucket_of(value: u64) -> usize {
    if value < 2 * HIST_SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros() as u64; // ≥ 3
    let sub = (value >> (exp - 2)) & (HIST_SUB - 1);
    (HIST_SUB * (exp - 1) + sub) as usize
}

/// Inclusive `(lowest, highest)` value of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * HIST_SUB {
        return (i, i);
    }
    let exp = i / HIST_SUB + 1;
    let lo = (HIST_SUB + i % HIST_SUB) << (exp - 2);
    (lo, lo + ((1u64 << (exp - 2)) - 1))
}

// ---------------------------------------------------------------------------
// One-shot warnings
// ---------------------------------------------------------------------------

/// Print `msg` to stderr at most once per `key` for the process lifetime.
/// Active regardless of the trace mode — this is how misconfigured `UVD_*`
/// environment variables surface instead of being silently ignored.
pub fn warn_once(key: &'static str, msg: &str) {
    static WARNED: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let reg = WARNED.get_or_init(|| Mutex::new(Vec::new()));
    let mut w = reg.lock().expect("warn registry");
    if w.contains(&key) {
        return;
    }
    w.push(key);
    eprintln!("uvd: warning: {msg}");
    WARNED_KEYS_LEN.store(w.len(), Ordering::Relaxed);
}

static WARNED_KEYS_LEN: AtomicUsize = AtomicUsize::new(0);

/// Read the `UVD_*` environment knob `var` through `parse`. Returns `None`
/// when the variable is unset, and also when `parse` rejects its value —
/// which then warns once, naming the `accepted` forms, instead of silently
/// picking a number. Callers apply their own fallback with `unwrap_or`.
pub fn env_knob<T>(
    var: &'static str,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    let parsed = parse(&raw);
    if parsed.is_none() {
        warn_once(
            var,
            &format!(
                "{var}: unrecognized value '{}' (accepted: {accepted}); using the default",
                raw.trim()
            ),
        );
    }
    parsed
}

/// Number of distinct warning keys emitted so far (test hook).
pub fn warnings_emitted() -> usize {
    WARNED_KEYS_LEN.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Small dense process-local thread ordinal (std's `ThreadId` has no stable
/// numeric accessor).
fn thread_ord() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORD: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORD.with(|o| *o)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON has no NaN/Infinity literals; map non-finite field values to null.
fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Integers (epoch numbers, counts) print without a fraction; that is
        // still a valid JSON number.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; tests that flip its mode serialize on
    // this lock so `cargo test`'s threaded runner cannot interleave them.
    fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        match L.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn memory_mode_aggregates_spans() {
        let _g = mode_lock();
        set_memory();
        {
            let _s = span("test.outer").field("k", 2.0);
            let _inner = span("test.inner");
        }
        {
            let _s = span("test.outer");
        }
        let summary = span_summary();
        let outer = summary
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer aggregated");
        assert_eq!(outer.count, 2);
        assert!(summary.iter().any(|s| s.name == "test.inner"));
        disable();
    }

    #[test]
    fn disabled_spans_and_counters_record_nothing() {
        let _g = mode_lock();
        set_memory();
        reset();
        disable();
        static C: Counter = Counter::new("test.disabled_counter");
        C.add(5);
        {
            let _s = span("test.disabled_span").field("x", 1.0);
        }
        assert_eq!(C.get(), 0);
        assert!(span_summary().is_empty());
    }

    #[test]
    fn counters_accumulate_when_enabled() {
        let _g = mode_lock();
        set_memory();
        static C: Counter = Counter::new("test.enabled_counter");
        let before = C.get();
        C.add(3);
        C.add(4);
        assert_eq!(C.get(), before + 7);
        assert!(counter_summary()
            .iter()
            .any(|c| c.name == "test.enabled_counter"));
        disable();
    }

    #[test]
    fn jsonl_sink_writes_span_and_counter_records() {
        let _g = mode_lock();
        let dir = std::env::temp_dir().join("uvd_obs_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("trace.jsonl");
        set_jsonl(&path).expect("sink");
        {
            let _s = span("test.jsonl").field("epoch", 3.0).field("loss", 0.5);
        }
        static C: Counter = Counter::new("test.jsonl_counter");
        C.add(9);
        disable(); // flushes
        let text = std::fs::read_to_string(&path).expect("trace file");
        assert!(text
            .lines()
            .any(|l| l.contains("\"type\":\"span\"") && l.contains("\"name\":\"test.jsonl\"")));
        assert!(text.lines().any(|l| l.contains("\"epoch\":3")));
        assert!(text
            .lines()
            .any(|l| l.contains("\"type\":\"counter\"")
                && l.contains("\"name\":\"test.jsonl_counter\"")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn field_capacity_is_bounded() {
        let _g = mode_lock();
        set_memory();
        let mut s = span("test.capacity");
        for i in 0..(MAX_FIELDS + 3) {
            s.add_field("k", i as f64);
        }
        assert_eq!(s.n_fields as usize, MAX_FIELDS);
        drop(s);
        disable();
    }

    #[test]
    fn histogram_buckets_tile_u64_at_quarter_resolution() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bounds(HIST_BUCKETS - 1).1, u64::MAX);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_of(lo), i, "lowest value of bucket {i}");
            assert_eq!(bucket_of(hi), i, "highest value of bucket {i}");
            if i + 1 < HIST_BUCKETS {
                assert_eq!(bucket_bounds(i + 1).0, hi + 1, "gap after bucket {i}");
            }
            assert!(
                hi - lo <= lo / 4,
                "bucket {i} is wider than a quarter of {lo}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_land_in_the_true_bucket() {
        let h = Histogram::new("test.uniform");
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=10_000 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, truth) in [(0.5, 5_000), (0.9, 9_000), (0.99, 9_900), (1.0, 10_000)] {
            let got = h.quantile(q);
            assert_eq!(bucket_of(got), bucket_of(truth), "q {q}: {got} vs {truth}");
        }
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn histogram_concurrent_records_all_count() {
        static H: Histogram = Histogram::new("test.concurrent");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for v in 0..10_000 {
                        H.record(v * (t + 1));
                    }
                });
            }
        });
        assert_eq!(H.count(), 40_000);
    }

    #[test]
    fn warn_once_dedups_by_key() {
        let before = warnings_emitted();
        warn_once("test.warn_key", "first");
        warn_once("test.warn_key", "second");
        assert_eq!(warnings_emitted(), before + 1);
    }

    #[test]
    fn env_knob_ignores_unset_and_rejected_values() {
        let parse = |s: &str| s.trim().parse::<u8>().ok();
        assert_eq!(env_knob("UVD_TEST_KNOB_UNSET", "a byte", parse), None);
        std::env::set_var("UVD_TEST_KNOB_SET", " 7 ");
        assert_eq!(env_knob("UVD_TEST_KNOB_SET", "a byte", parse), Some(7));
        std::env::set_var("UVD_TEST_KNOB_BAD", "seven");
        assert_eq!(env_knob("UVD_TEST_KNOB_BAD", "a byte", parse), None);
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_fields_serialize_as_null() {
        let mut s = String::new();
        push_json_number(&mut s, f64::NAN);
        assert_eq!(s, "null");
        let mut s = String::new();
        push_json_number(&mut s, 2.5);
        assert_eq!(s, "2.5");
    }
}
