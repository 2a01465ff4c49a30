//! `--compare PARENT CHANGE`: judge two sets of runs (files of `--out`
//! records) metric by metric, with the bounds and directions declared in
//! `BENCHMARK.json` and the rule for runs whose spreads overlap:
//!
//! * **unresolved** — either side's spread (quartile distance over median)
//!   is wider than the bound, and not every change run beats every parent
//!   run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound;
//! * **better** — the change wins at least nine in ten pairs (runs paired in
//!   file order, ties count for neither) and the medians differ by more
//!   than the parent's own quartile distance;
//! * **within** — anything else.
//!
//! Per-layer metrics have no bound and are judged by the pair rule only.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::process::ExitCode;

/// One declared metric of `BENCHMARK.json`.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

/// The benchmark declaration: from the working directory (a checkout's
/// root), else from the repository this binary was built in.
fn load_declaration() -> Result<Vec<Declared>, String> {
    let built_in = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(built_in))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = serde_json::from_str_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        let Some(Value::Array(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        for m in items {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            out.push(Declared {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(out)
}

/// Run records from one `--out` file.
fn load_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str_value(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Values of `metric` over the runs of `workload`, in file order.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| {
            ["metrics", "layers"]
                .iter()
                .find_map(|k| r.get(k).and_then(|m| m.get(metric)))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        })
        .collect()
}

/// The verdict on one metric; `a` are the parent's runs, `c` the change's.
pub fn verdict(a: &[f64], c: &[f64], lower_is_better: bool, bound: Option<f64>) -> &'static str {
    let (ma, mc) = (median(a), median(c));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let spread = |xs: &[f64], m: f64| {
        let (q1, q3) = quartiles(xs);
        if m != 0.0 {
            (q3 - q1) / m.abs()
        } else {
            f64::INFINITY
        }
    };
    let pairs = a.len().min(c.len());
    let wins = (0..pairs).filter(|&i| better(c[i], a[i])).count();
    let (q1, q3) = quartiles(a);
    let clear_gain =
        pairs > 0 && wins * 10 >= pairs * 9 && (mc - ma).abs() > q3 - q1 && better(mc, ma);
    let dominates = a.iter().all(|&x| c.iter().all(|&y| better(y, x)));
    let Some(bound) = bound else {
        return if clear_gain { "better" } else { "within" };
    };
    if spread(a, ma) > bound || spread(c, mc) > bound {
        return if dominates { "better" } else { "unresolved" };
    }
    let worse_by = if lower_is_better { mc - ma } else { ma - mc };
    if ma != 0.0 && worse_by / ma.abs() > bound {
        "worse"
    } else if clear_gain {
        "better"
    } else {
        "within"
    }
}

pub fn run(parent: &str, change: &str) -> ExitCode {
    let (declared, a, c) = match (load_declaration(), load_runs(parent), load_runs(change)) {
        (Ok(d), Ok(a), Ok(c)) => (d, a, c),
        (d, a, c) => {
            for e in [d.err(), a.err(), c.err()].into_iter().flatten() {
                eprintln!("uvd-benchmark: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<String> = Vec::new();
    for r in a.iter().chain(&c) {
        if let Some(w) = r.get("workload").and_then(Value::as_str) {
            if !workloads.iter().any(|x| x == w) {
                workloads.push(w.to_string());
            }
        }
    }
    println!(
        "{:12} {:26} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "parent", "change", "bound"
    );
    for w in &workloads {
        let failed = |runs: &[Value]| -> f64 {
            runs.iter()
                .filter(|r| r.get("workload").and_then(Value::as_str) == Some(w.as_str()))
                .filter_map(|r| r.get("failed").and_then(Value::as_f64))
                .sum()
        };
        println!(
            "{w:12} {:26} {:>14} {:>14}",
            "failed_ops",
            failed(&a),
            failed(&c)
        );
        for d in &declared {
            let (va, vc) = (values(&a, w, &d.name), values(&c, w, &d.name));
            if va.is_empty() || vc.is_empty() {
                continue;
            }
            let bound = d.bound.map_or("-".to_string(), |b| format!("{b}"));
            println!(
                "{w:12} {:26} {:>14.6} {:>14.6} {bound:>7}  {}",
                d.name,
                median(&va),
                median(&vc),
                verdict(&va, &vc, d.lower_is_better, d.bound)
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_overlap_rule() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &faster, true, Some(0.1)), "better");
        assert_eq!(verdict(&parent, &slower, true, Some(0.1)), "worse");
        assert_eq!(verdict(&parent, &same, true, Some(0.1)), "within");
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(verdict(&parent, &slower, false, Some(0.1)), "better");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&noisy, &parent, true, Some(0.1)), "unresolved");
    }
}
