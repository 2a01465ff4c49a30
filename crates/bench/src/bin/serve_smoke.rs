//! Release gate for the resident scoring service: 100 concurrent score
//! requests, 200 sequential ones on a single connection, plus one
//! malformed line and one out-of-bounds region id, against an in-process
//! `uvd-serve` server with a JSONL trace attached.
//!
//! Passes iff:
//! * every reply (including the two poisoned ones) is valid JSON — the
//!   process answered instead of dying;
//! * the 100 well-formed requests all come back `ok:true` with the right
//!   score count, the malformed line and the out-of-bounds id come back
//!   `ok:false`, and the OOB error carries the typed sampler message;
//! * the server-side `request` latency p50 from `stats` is below 1 ms: a
//!   tick never waits for more work, so a lone request is answered as soon
//!   as it is scored;
//! * the sequential requests' numeric `id`s reach their `serve.request`
//!   spans;
//! * the trace parses line-by-line and carries the `serve.request` /
//!   `serve.batch` span taxonomy (batching actually happened, requests
//!   were actually traced).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cmsf::{Cmsf, CmsfConfig};
use rand::Rng;
use uvd_citysim::{City, CityPreset};
use uvd_serve::{ServeOptions, Server};
use uvd_urg::{Detector, Urg, UrgOptions};

const CLIENTS: usize = 10;
const REQS_PER_CLIENT: usize = 10; // 100 well-formed requests total
const SEQUENTIAL: usize = 200;
/// Bound on the server-side p50 of enqueue → reply, in microseconds.
const REQUEST_P50_LIMIT_US: f64 = 1000.0;

fn send_line(addr: std::net::SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    reply.trim().to_string()
}

fn main() {
    let trace_path =
        std::env::temp_dir().join(format!("uvd_serve_smoke_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    uvd_obs::set_jsonl(&trace_path).expect("attach jsonl trace");

    println!("training the tiny fixture checkpoint ...");
    let city = City::from_config(CityPreset::tiny(), 51);
    let urg = Urg::build(&city, UrgOptions::default());
    let mut cfg = CmsfConfig::fast_test();
    cfg.master_epochs = 10;
    cfg.slave_epochs = 3;
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut model = Cmsf::new(&urg, cfg);
    model.fit(&urg, &train);
    let store = model.to_store();
    let n_regions = urg.n;

    let server = Server::start(
        urg,
        cfg,
        store,
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    // 100 concurrent well-formed score requests, each client on its own
    // connection, all released together by a barrier so micro-batching
    // actually sees concurrent load.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let ok_count = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let ok_count = Arc::clone(&ok_count);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut rng = uvd_tensor::seeded_rng(c as u64);
                barrier.wait();
                let mut reply = String::new();
                for r in 0..REQS_PER_CLIENT {
                    let n_ids = 1 + (r % 8);
                    let ids: Vec<String> = (0..n_ids)
                        .map(|_| rng.gen_range(0..n_regions).to_string())
                        .collect();
                    writer
                        .write_all(
                            format!("{{\"op\":\"score\",\"ids\":[{}]}}\n", ids.join(","))
                                .as_bytes(),
                        )
                        .unwrap();
                    writer.flush().unwrap();
                    reply.clear();
                    reader.read_line(&mut reply).expect("read reply");
                    let v = serde_json::from_str_value(reply.trim())
                        .expect("score reply is valid JSON");
                    assert_eq!(
                        v.get("ok"),
                        Some(&serde_json::Value::Bool(true)),
                        "score reply not ok: {reply}"
                    );
                    match v.get("scores") {
                        Some(serde_json::Value::Array(a)) => assert_eq!(a.len(), n_ids),
                        other => panic!("no scores array: {other:?}"),
                    }
                    ok_count.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    assert_eq!(ok_count.load(Ordering::Relaxed), CLIENTS * REQS_PER_CLIENT);

    // Sequential round trips on one connection: each request is alone in
    // the queue when its tick pops it.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        for r in 0..SEQUENTIAL {
            let line = format!(
                "{{\"op\":\"score\",\"ids\":[{}],\"id\":{r}}}\n",
                r % n_regions
            );
            writer.write_all(line.as_bytes()).unwrap();
            writer.flush().unwrap();
            reply.clear();
            reader.read_line(&mut reply).expect("read reply");
            let v = serde_json::from_str_value(reply.trim()).expect("score reply is valid JSON");
            assert_eq!(
                v.get("ok"),
                Some(&serde_json::Value::Bool(true)),
                "sequential reply not ok: {reply}"
            );
            assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(r as f64));
        }
    }

    // One malformed line: must be answered (valid JSON, ok:false), not
    // crash the connection handler.
    let reply = send_line(addr, "{\"op\":\"score\",\"ids\":[");
    let v = serde_json::from_str_value(&reply).expect("malformed-line reply is valid JSON");
    assert_eq!(v.get("ok"), Some(&serde_json::Value::Bool(false)));

    // One out-of-bounds id: the typed sampler error, as a reply.
    let reply = send_line(addr, &format!("{{\"op\":\"score\",\"ids\":[{n_regions}]}}"));
    let v = serde_json::from_str_value(&reply).expect("oob reply is valid JSON");
    assert_eq!(v.get("ok"), Some(&serde_json::Value::Bool(false)));
    let err = v.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(
        err.contains("out of bounds"),
        "oob error should carry the typed sampler message, got: {err}"
    );

    // The process is still alive and consistent after the poison.
    let reply = send_line(addr, "{\"op\":\"stats\"}");
    let v = serde_json::from_str_value(&reply).expect("stats reply is valid JSON");
    let served = v.get("requests").and_then(|x| x.as_f64()).unwrap_or(0.0) as usize;
    assert!(
        served >= CLIENTS * REQS_PER_CLIENT + SEQUENTIAL + 2,
        "stats lost requests: {reply}"
    );
    let stat = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_f64())
            .unwrap_or_else(|| panic!("stats has no {k}: {reply}"))
    };
    let request_p50 = stat("request_p50_us");
    assert!(
        stat("request_count") >= (CLIENTS * REQS_PER_CLIENT + SEQUENTIAL) as f64,
        "request histogram lost samples: {reply}"
    );
    assert!(
        request_p50 < REQUEST_P50_LIMIT_US,
        "server-side request p50 {request_p50} µs is not below {REQUEST_P50_LIMIT_US} µs"
    );

    server.shutdown();
    uvd_obs::flush();
    uvd_obs::disable();

    // Trace taxonomy: every line parses; serve.request covers every
    // request, serve.batch shows micro-batching ran.
    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    let mut n_request = 0usize;
    let mut n_batch = 0usize;
    let mut n_with_id = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = serde_json::from_str_value(line)
            .unwrap_or_else(|e| panic!("trace line {} is not valid JSON ({e}): {line}", i + 1));
        if v.get("type").and_then(|t| t.as_str()) == Some("span") {
            match v.get("name").and_then(|n| n.as_str()) {
                Some("serve.request") => {
                    n_request += 1;
                    if v.get("fields").and_then(|f| f.get("id")).is_some() {
                        n_with_id += 1;
                    }
                }
                Some("serve.batch") => n_batch += 1,
                _ => {}
            }
        }
    }
    let _ = std::fs::remove_file(&trace_path);
    assert!(
        n_request >= CLIENTS * REQS_PER_CLIENT + SEQUENTIAL + 2,
        "expected >= {} serve.request spans, got {n_request}",
        CLIENTS * REQS_PER_CLIENT + SEQUENTIAL + 2
    );
    assert_eq!(
        n_with_id, SEQUENTIAL,
        "only the sequential requests carry a numeric id on their serve.request span"
    );
    assert!(n_batch >= 1, "no serve.batch span in the trace");
    assert!(
        n_batch <= n_request,
        "batching should coalesce, not amplify: {n_batch} batches for {n_request} requests"
    );

    println!(
        "serve_smoke: ok ({} concurrent + {SEQUENTIAL} sequential score requests, \
         2 poison requests answered, request p50 {request_p50} µs, \
         {n_request} serve.request / {n_batch} serve.batch spans)",
        CLIENTS * REQS_PER_CLIENT
    );
}
