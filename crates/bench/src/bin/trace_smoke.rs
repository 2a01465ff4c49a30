//! Release-mode tracing smoke (wired into `scripts/check.sh`): runs one
//! quick CMSF eval fold with `UVD_TRACE=jsonl:<tmp>` set through the real
//! environment-gated init path, then validates the emitted trace:
//!
//! 1. every line parses as JSON and matches the span/counter schema,
//! 2. every instrumented stage of the pipeline appears in the span set,
//! 3. every `cmsf.freeze` span carries the cluster occupancy fields, and
//!    its `|C₁| + |C₀|` is the configured K,
//! 4. the summed durations of the five top-level stages (URG build, master,
//!    slave, gate, evaluate) land within 10% of the measured wall time —
//!    i.e. the trace accounts for where the run actually went.
//!
//! The run executes under `par::serial_scope` so fold tasks cannot overlap
//! in time (overlapping stage spans would make the wall-time reconciliation
//! meaningless on multi-core hosts).

use cmsf::CmsfConfig;
use std::time::Instant;
use uvd_citysim::{City, CityPreset};
use uvd_eval::{run_method, MethodKind, RunSpec};
use uvd_tensor::par;
use uvd_urg::{Urg, UrgOptions};

/// Span names every traced fold must produce.
const EXPECTED_SPANS: &[&str] = &[
    "urg.build",
    "urg.features",
    "urg.edges",
    "urg.csr",
    "cmsf.master",
    "cmsf.master.epoch",
    "cmsf.freeze",
    "cmsf.slave",
    "cmsf.slave.epoch",
    "cmsf.gate",
    "cmsf.predict",
    "eval.fit",
    "eval.predict",
    "eval.evaluate",
];

/// Counter names every traced fold must produce.
const EXPECTED_COUNTERS: &[&str] = &[
    "par.dispatch.serial",
    "tensor.plan.record_nodes",
    "tensor.replay.count",
    "gemm.pack_repack",
];

/// Occupancy fields every `cmsf.freeze` span must carry.
const FREEZE_FIELDS: &[&str] = &["occupied", "largest_share", "c1", "c0", "c0_occupied"];

/// The five non-overlapping top-level stages reconciled against wall time.
const WALL_STAGES: &[&str] = &[
    "urg.build",
    "cmsf.master",
    "cmsf.slave",
    "cmsf.gate",
    "eval.evaluate",
];

fn main() {
    let path = std::env::temp_dir().join("uvd_trace_smoke.jsonl");
    // Set before the first instrumented call so the recorder initializes
    // through the same lazy env parse production runs use.
    std::env::set_var("UVD_TRACE", format!("jsonl:{}", path.display()));
    assert!(uvd_obs::enabled(), "UVD_TRACE=jsonl: must enable tracing");

    let city = City::from_config(CityPreset::FuzhouLike.config(), 9);
    let (wall_secs, k) = par::serial_scope(|| {
        let t0 = Instant::now();
        let urg = Urg::build(&city, UrgOptions::default());
        let k = CmsfConfig::for_city(&urg.name).k_clusters;
        let spec = RunSpec {
            folds: 2,
            seeds: vec![0],
            quick: true,
            ..Default::default()
        };
        let summary = run_method(MethodKind::Cmsf, &urg, &spec).expect("clean traced run");
        assert_eq!(summary.failed, 0, "traced smoke fold must not degrade");
        assert!(summary.fit_secs > 0.0, "stage timings must be measured");
        (t0.elapsed().as_secs_f64(), k)
    });
    uvd_obs::disable(); // flush the sink so the file is complete

    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let mut span_names: Vec<String> = Vec::new();
    let mut counter_names: Vec<String> = Vec::new();
    let mut stage_secs = 0.0f64;
    let mut records = 0usize;
    let mut freezes = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON: {e}", lineno + 1));
        records += 1;
        let typ = v
            .get("type")
            .and_then(|t| t.as_str())
            .unwrap_or_else(|| panic!("line {} has no string `type`", lineno + 1));
        let name = v
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or_else(|| panic!("line {} has no string `name`", lineno + 1))
            .to_string();
        match typ {
            "span" => {
                let start = v.get("start_us").and_then(|x| x.as_f64());
                let dur = v.get("dur_us").and_then(|x| x.as_f64());
                let thread = v.get("thread").and_then(|x| x.as_f64());
                assert!(
                    start.is_some_and(|x| x >= 0.0)
                        && dur.is_some_and(|x| x >= 0.0)
                        && thread.is_some(),
                    "span record on line {} missing start_us/dur_us/thread",
                    lineno + 1
                );
                assert!(
                    matches!(v.get("fields"), Some(serde_json::Value::Object(_))),
                    "span record on line {} missing `fields` object",
                    lineno + 1
                );
                if name == "cmsf.freeze" {
                    let field = |key: &str| {
                        v.get("fields")
                            .and_then(|f| f.get(key))
                            .and_then(|x| x.as_f64())
                            .unwrap_or_else(|| {
                                panic!("cmsf.freeze on line {} lacks `{key}`", lineno + 1)
                            })
                    };
                    for key in FREEZE_FIELDS {
                        field(key);
                    }
                    assert_eq!(
                        field("c1") as usize + field("c0") as usize,
                        k,
                        "cmsf.freeze on line {}: |C1| + |C0| must be K",
                        lineno + 1
                    );
                    freezes += 1;
                }
                if WALL_STAGES.contains(&name.as_str()) {
                    stage_secs += dur.unwrap_or(0.0) / 1e6;
                }
                span_names.push(name);
            }
            "counter" => {
                assert!(
                    v.get("value").is_some_and(|x| x.as_f64().is_some()),
                    "counter record on line {} missing numeric `value`",
                    lineno + 1
                );
                counter_names.push(name);
            }
            other => panic!("line {} has unknown record type `{other}`", lineno + 1),
        }
    }
    assert!(records > 0, "trace file is empty");
    assert!(freezes > 0, "no cmsf.freeze span to check");

    for want in EXPECTED_SPANS {
        assert!(
            span_names.iter().any(|n| n == want),
            "expected span `{want}` missing from trace (got: {span_names:?})"
        );
    }
    for want in EXPECTED_COUNTERS {
        assert!(
            counter_names.iter().any(|n| n == want),
            "expected counter `{want}` missing from trace (got: {counter_names:?})"
        );
    }

    let ratio = stage_secs / wall_secs;
    println!(
        "trace_smoke: {records} records, {} span names; stage sum {:.3}s / wall {:.3}s = {:.1}%",
        EXPECTED_SPANS.len(),
        stage_secs,
        wall_secs,
        ratio * 100.0
    );
    assert!(
        (0.9..=1.1).contains(&ratio),
        "top-level stage spans sum to {:.1}% of wall time (must be within 10%)",
        ratio * 100.0
    );

    let _ = std::fs::remove_file(&path);
    println!("trace_smoke: ok");
}
