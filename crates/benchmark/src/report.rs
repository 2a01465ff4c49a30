//! What a workload hands back: its metrics, and the ledger of operations
//! attempted, failed, and output checks that did not hold.

use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed, with the failure texts, plus the
/// output checks that failed. An operation is a fold fit, a build, a fit,
/// or a request; a panic, a typed error, an error reply, a refusal or a
/// timeout fails it.
#[derive(Default, Debug)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub check_errors: Vec<String>,
}

/// Keep a bounded number of failure texts; counts stay exact.
const MAX_TEXTS: usize = 32;

impl Ledger {
    /// Run one operation under `catch_unwind`. A panic fails the operation
    /// with its payload text and the run continues.
    pub fn op<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                let text = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.fail(format!("{what} panicked: {text}"));
                None
            }
        }
    }

    /// Count `n` externally attempted operations (requests).
    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Fail an already-counted operation.
    pub fn fail(&mut self, text: String) {
        self.failed += 1;
        if self.failures.len() < MAX_TEXTS {
            self.failures.push(text);
        }
    }

    /// Record an output check; `msg` is only built when it fails.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if ok {
            return;
        }
        match self.check_errors.len() {
            n if n < MAX_TEXTS => self.check_errors.push(msg()),
            MAX_TEXTS => self
                .check_errors
                .push("(further check failures)".to_string()),
            _ => {}
        }
    }
}

/// What one timed phase measured, in the shape every workload reports.
#[derive(Default)]
pub struct Phase {
    /// Latency of each completed operation, in completion order.
    pub op_ms: Vec<f64>,
    /// Work completed per second (see each workload for its unit of work).
    pub throughput: f64,
    /// Detection quality of the phase's output.
    pub auc: f64,
    /// Peak heap while the phase ran.
    pub peak_mib: f64,
    /// Percentile `tail_ms` reports; `None` for the highest one the sample
    /// count supports.
    pub tail_pct: Option<f64>,
}

impl Phase {
    pub fn p50_ms(&self) -> f64 {
        crate::stats::median(&self.op_ms)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, plus the details
    /// saying which percentile the tail is, over how many samples, and the
    /// slowest operation.
    pub fn end_to_end(&self, setup_s: f64) -> (Vec<Metric>, Vec<Metric>) {
        let sorted = crate::stats::sorted(&self.op_ms);
        let (pct, tail) = match self.tail_pct {
            Some(p) => (p, crate::stats::quantile_sorted(&sorted, p / 100.0)),
            None => crate::stats::supported_tail(&sorted),
        };
        (
            vec![
                metric("setup_s", setup_s, "s"),
                metric("p50_ms", self.p50_ms(), "ms"),
                metric("tail_ms", tail, "ms"),
                metric("throughput", self.throughput, "1/s"),
                metric("auc", self.auc, "ratio"),
                metric("peak_mib", self.peak_mib, "MiB"),
            ],
            vec![
                metric("tail_percentile", pct, "pct"),
                metric("ops", self.op_ms.len() as f64, "count"),
                metric("slowest_ms", sorted.last().copied().unwrap_or(0.0), "ms"),
            ],
        )
    }
}

/// Bytes to MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

/// Run `setup` `n` times and keep the last result; report the median wall
/// time in seconds. Set-up is repeated so a single slow start (page faults,
/// pool spin-up) does not decide the metric.
pub fn repeated_setup<R>(n: usize, mut setup: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t0 = std::time::Instant::now();
        let r = setup();
        secs.push(t0.elapsed().as_secs_f64());
        // The previous result (e.g. a running server) drops untimed.
        last = Some(r);
    }
    (
        crate::stats::median(&secs),
        last.expect("at least one set-up ran"),
    )
}

/// What a time-bounded run of operations produced.
pub struct Ops<T> {
    /// Results of the operations that succeeded, in order.
    pub done: Vec<T>,
    /// Their latencies.
    pub op_ms: Vec<f64>,
    /// Operations tried, failed ones included.
    pub tried: usize,
    pub wall_s: f64,
}

/// Run operations `op(0)`, `op(1)`, … each under [`Ledger::op`] (an `Err`
/// fails it too): always until `min_ops` have been tried, then while at
/// least half an operation still fits in `seconds`.
pub fn time_bounded<T>(
    ledger: &mut Ledger,
    what: &str,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<T, String>,
) -> Ops<T> {
    let t0 = std::time::Instant::now();
    let mut ops = Ops {
        done: Vec::new(),
        op_ms: Vec::new(),
        tried: 0,
        wall_s: 0.0,
    };
    let mut last_s = 0.0;
    while ops.tried < min_ops || t0.elapsed().as_secs_f64() + 0.5 * last_s <= seconds {
        let i = ops.tried;
        let (r, ms) = crate::stats::timed(|| ledger.op(&format!("{what} {i}"), || op(i)));
        last_s = ms / 1e3;
        ops.tried += 1;
        match r {
            Some(Ok(t)) => {
                ops.done.push(t);
                ops.op_ms.push(ms);
            }
            Some(Err(e)) => ledger.fail(format!("{what} {i}: {e}")),
            None => {}
        }
    }
    ops.wall_s = t0.elapsed().as_secs_f64();
    ops
}

/// `obs.trace_overhead_pct`: how much slower the traced half ran.
pub fn overhead_pct(untraced_ms: f64, traced_ms: f64) -> f64 {
    if untraced_ms > 0.0 {
        (traced_ms / untraced_ms - 1.0) * 100.0
    } else {
        0.0
    }
}

/// A finished workload run.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics, measured with tracing off.
    pub metrics: Vec<Metric>,
    /// Workload-specific breakdown behind the end-to-end metrics.
    pub details: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub ledger: Ledger,
}

/// `{"name": {"value": v, "unit": u}, ...}`, names optionally prefixed
/// with `prefix.`.
pub fn object(ms: &[Metric], prefix: Option<&str>) -> Value {
    Value::Object(
        ms.iter()
            .map(|m| {
                (
                    match prefix {
                        Some(p) => format!("{p}.{}", m.name),
                        None => m.name.to_string(),
                    },
                    Value::Object(vec![
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

impl Report {
    /// The `--out` record of this run (one JSON line; `--compare` reads it).
    pub fn record(&self, workload: &str, header: &[(&'static str, Value)]) -> Value {
        let strs = |v: &[String]| Value::Array(v.iter().map(|s| Value::Str(s.clone())).collect());
        Value::Object(vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            (
                "header".to_string(),
                Value::Object(
                    header
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "correct".to_string(),
                Value::Bool(self.ledger.check_errors.is_empty()),
            ),
            (
                "attempted".to_string(),
                Value::Num(self.ledger.attempted as f64),
            ),
            ("failed".to_string(), Value::Num(self.ledger.failed as f64)),
            ("failures".to_string(), strs(&self.ledger.failures)),
            ("checks_failed".to_string(), strs(&self.ledger.check_errors)),
            ("metrics".to_string(), object(&self.metrics, None)),
            ("details".to_string(), object(&self.details, None)),
            ("layers".to_string(), object(&self.layers, None)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_become_failures_with_their_text() {
        let mut l = Ledger::default();
        let r: Option<()> = l.op("fold 0", || panic!("boom {}", 7));
        assert!(r.is_none());
        assert_eq!((l.attempted, l.failed), (1, 1));
        assert!(l.failures[0].contains("fold 0 panicked: boom 7"));
        assert_eq!(l.op("fold 1", || 3), Some(3));
        assert_eq!((l.attempted, l.failed), (2, 1));
    }
}
