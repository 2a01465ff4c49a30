//! Runs the benchmark binary scaled down and traced over every workload and
//! checks that it prints every metric `BENCHMARK.json` declares, for every
//! declared workload, with a finite value and the declared unit, and that
//! its last line is the summary object (`correct`, `attempted`, `failed`,
//! `metrics`, in that order).

use serde_json::Value;
use std::process::Command;

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str_value(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("BENCHMARK.json {key}: {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("string field")
}

#[test]
fn smoke_run_prints_every_declared_metric() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_uvd-benchmark"));
    cmd.args(["--workload", "all", "--smoke", "--traced", "--seed", "1"]);
    // The benchmark refuses to run under UVD_* knobs; a test matrix that
    // sets them for the rest of the suite must not fail this test.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("UVD_") {
            cmd.env_remove(k);
        }
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = declaration();
    let declared: Vec<&Value> = list(&doc, "end_to_end")
        .iter()
        .chain(list(&doc, "per_layer"))
        .collect();
    for w in list(&doc, "workloads") {
        let w = field(w, "name");
        for m in &declared {
            let (name, unit) = (field(m, "name"), field(m, "unit"));
            let prefix = format!("{w} {name} ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line for {w} {name}"));
            let mut parts = line[prefix.len()..].split(' ');
            let value: f64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("unparsable value: {line}"));
            assert!(value.is_finite(), "{line}");
            assert_eq!(parts.next(), Some(unit), "{line}");
        }
    }

    let last = stdout.lines().last().expect("output");
    let summary = serde_json::from_str_value(last).expect("last line is JSON");
    let Value::Object(keys) = &summary else {
        panic!("summary is not an object: {last}");
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(summary.get("correct"), Some(&Value::Bool(true)), "{last}");
    assert_eq!(
        summary.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{last}"
    );
}
