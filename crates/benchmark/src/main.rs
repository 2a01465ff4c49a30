//! The repository benchmark: four seeded workloads over the whole user
//! path — region-graph build, CMSF training, and resident serving — with
//! output checks, failure accounting, and a traced mode of per-crate layer
//! probes. See `crates/benchmark/README.md` for why each workload exists
//! and what every metric means.
//!
//! ```text
//! uvd-benchmark --seed N [--workload fit_fuzhou|city_50k|serve_read|serve_mixed|all]
//!               [--seconds S] [--traced | --trace 0|1] [--smoke] [--out FILE]
//! uvd-benchmark --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Every metric prints as one `workload metric value unit` line. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--traced`. `--out` appends the full run
//! record (provenance header, details, failure texts) as one JSON line.

mod city;
mod compare;
mod fit;
mod folds;
mod loadgen;
mod probes;
mod report;
mod serve;
mod stats;

use report::Report;
use serde_json::Value;
use std::io::Write;
use std::process::ExitCode;
use uvd_obs::alloc::CountingAlloc;

/// Peak-heap accounting for `peak_mib` and the `obs.*_peak_mib` probes.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: uvd-benchmark --seed N [--workload fit_fuzhou|city_50k|serve_read|serve_mixed|all] \
[--seconds S] [--traced | --trace 0|1] [--smoke] [--out FILE]\n       uvd-benchmark --compare PARENT.jsonl CHANGE.jsonl";

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["fit_fuzhou", "city_50k", "serve_read", "serve_mixed"];

/// Default length of a workload's timed phase.
const DEFAULT_SECONDS: f64 = 24.0;

/// Settings shared by every workload of one invocation.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Nominal length of the timed phase. Training workloads also finish
    /// the minimum operation count their quality metric needs.
    pub seconds: f64,
    /// Also run the traced half and the layer probes.
    pub traced: bool,
    /// Scaled-down inputs for the integration test.
    pub smoke: bool,
}

struct Args {
    params: Params,
    workloads: Vec<&'static str>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let mut workloads = vec![WORKLOADS[0]];
    let mut out = None;
    let mut compare = None;
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value(&mut it, "--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--workload" => {
                let v = value(&mut it, "--workload")?;
                workloads = match v.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    name => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                };
            }
            "--trace" => {
                traced = match value(&mut it, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            "--out" => out = Some(value(&mut it, "--out")?),
            "--compare" => {
                let a = value(&mut it, "--compare")?;
                let b = value(&mut it, "--compare")?;
                compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = match (seed, &compare) {
        (Some(s), _) => s,
        (None, Some(_)) => 0,
        (None, None) => return Err("--seed is required".to_string()),
    };
    Ok(Args {
        params: Params {
            seed,
            // Smoke runs do each workload's minimum work only.
            seconds: if smoke { 0.0 } else { seconds },
            traced,
            smoke,
        },
        workloads,
        out,
        compare,
    })
}

/// Names of `UVD_*` variables in the environment. Each one silently changes
/// a workload (e.g. `UVD_BATCH` switches `Cmsf::new` to mini-batches), so
/// the benchmark refuses to run under any of them.
fn uvd_env_vars() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UVD_"))
        .collect();
    vars.sort();
    vars
}

/// The commit the run measured, read from `.git` when one is found above
/// the working directory.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|d| d.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        if is_x86_feature_detected!("sse4.2") {
            f.push("sse4.2");
        }
        if is_x86_feature_detected!("avx") {
            f.push("avx");
        }
        if is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        f.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Provenance stamped on every run, so two result files can be diffed.
fn header(p: &Params) -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", Value::Num(nproc as f64)),
        (
            "threads",
            Value::Num(uvd_tensor::par::effective_threads() as f64),
        ),
        ("cpu", Value::Str(cpu_features())),
        ("fast_math", Value::Bool(uvd_tensor::fastmath::enabled())),
        (
            "commit",
            Value::Str(git_commit().unwrap_or_else(|| "unknown".to_string())),
        ),
        ("seed", Value::Num(p.seed as f64)),
        ("seconds", Value::Num(p.seconds)),
        ("smoke", Value::Bool(p.smoke)),
        ("traced", Value::Bool(p.traced)),
    ]
}

fn run_workload(name: &str, p: &Params) -> Report {
    match name {
        "fit_fuzhou" => fit::run(p),
        "city_50k" => city::run(p),
        "serve_read" => serve::run(p, false),
        "serve_mixed" => serve::run(p, true),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

fn append_record(path: &str, record: &Value) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{}",
        serde_json::to_string(record).expect("record serialization is infallible")
    )?;
    f.flush()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("uvd-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    let vars = uvd_env_vars();
    if !vars.is_empty() {
        eprintln!(
            "uvd-benchmark: refusing to run with {} set: UVD_* variables change the workloads",
            vars.join(", ")
        );
        return ExitCode::from(2);
    }

    let p = args.params;
    let head = header(&p);
    for (k, v) in &head {
        println!("# {k} {}", serde_json::to_string(v).expect("header value"));
    }

    let mut reports = Vec::new();
    for &w in &args.workloads {
        let r = run_workload(w, &p);
        for m in r.metrics.iter().chain(&r.details).chain(&r.layers) {
            println!("{w} {} {} {}", m.name, m.value, m.unit);
        }
        println!(
            "{w} attempted {} failed {} checks_failed {}",
            r.ledger.attempted,
            r.ledger.failed,
            r.ledger.check_errors.len()
        );
        for f in &r.ledger.failures {
            println!("{w} failure {f}");
        }
        for c in &r.ledger.check_errors {
            println!("{w} check-failed {c}");
        }
        if let Some(path) = &args.out {
            let record = r.record(w, &head);
            if let Err(e) = append_record(path, &record) {
                eprintln!("uvd-benchmark: cannot append to {path}: {e}");
                return ExitCode::from(2);
            }
        }
        reports.push((w, r));
    }

    let correct = reports
        .iter()
        .all(|(_, r)| r.ledger.check_errors.is_empty());
    let attempted: u64 = reports.iter().map(|(_, r)| r.ledger.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.ledger.failed).sum();
    // One workload reports its metrics by name; `all` prefixes each name
    // with its workload.
    let single = reports.len() == 1;
    let mut metrics = Vec::new();
    for (w, r) in &reports {
        let ms = if p.traced { &r.layers } else { &r.metrics };
        if let Value::Object(fields) = report::object(ms, (!single).then_some(*w)) {
            metrics.extend(fields);
        }
    }
    let metrics = Value::Object(metrics);
    let summary = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(attempted.max(1) as f64)),
        ("failed".to_string(), Value::Num(failed as f64)),
        ("metrics".to_string(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary serialization is infallible")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn harness_flags_parse() {
        let a = args("--workload city_50k --seed 7 --seconds 12 --trace 1").expect("parses");
        assert_eq!(a.workloads, vec!["city_50k"]);
        assert_eq!(a.params.seed, 7);
        assert!(a.params.traced);
        assert!((a.params.seconds - 12.0).abs() < 1e-12);
        assert_eq!(args("--workload all --seed 1").unwrap().workloads.len(), 4);
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--trace 2 --seed 1").is_err());
        assert!(args("--workload fit_fuzhou").is_err(), "seed is required");
        assert!(args("--seed 1 --seconds -3").is_err());
        assert!(args("--compare only-one").is_err());
    }
}
