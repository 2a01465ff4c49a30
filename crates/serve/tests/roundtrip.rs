//! Restore→serve round trip: scores served over the wire must be bitwise
//! the scores `Cmsf::predict` computes from the same checkpoint — before
//! *and after* an incremental `update_poi` re-embed. Also exercises the
//! crash paths a resident process meets: malformed JSON, out-of-bounds
//! region ids and wrong-width POI rows must come back as error replies on
//! a connection that keeps working.
//!
//! The wire carries f64 with shortest-round-trip formatting, so an f32
//! score survives serialize→parse→`as f32` exactly; bitwise comparison
//! through the socket is legitimate.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use cmsf::{Cmsf, CmsfConfig};
use serde_json::Value;
use uvd_citysim::{City, CityPreset};
use uvd_serve::{ServeOptions, Server};
use uvd_urg::{Detector, Urg, UrgOptions};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        serde_json::from_str_value(reply.trim()).expect("reply is valid JSON")
    }

    fn score(&mut self, ids: &[usize]) -> (Vec<f32>, u64) {
        let ids_json: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        let v = self.roundtrip(&format!(
            r#"{{"op":"score","ids":[{}]}}"#,
            ids_json.join(",")
        ));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "reply: {v:?}");
        let scores = match v.get("scores") {
            Some(Value::Array(a)) => a
                .iter()
                .map(|s| s.as_f64().expect("score is a number") as f32)
                .collect(),
            other => panic!("no scores array: {other:?}"),
        };
        let version = v.get("version").and_then(|x| x.as_f64()).unwrap() as u64;
        (scores, version)
    }
}

fn trained_fixture() -> (Urg, CmsfConfig, Cmsf) {
    let city = City::from_config(CityPreset::tiny(), 51);
    let urg = Urg::build(&city, UrgOptions::default());
    let mut cfg = CmsfConfig::fast_test();
    cfg.master_epochs = 10;
    cfg.slave_epochs = 3;
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut model = Cmsf::new(&urg, cfg);
    model.fit(&urg, &train);
    (urg, cfg, model)
}

#[test]
fn served_scores_are_bitwise_predict_including_after_update_poi() {
    let (urg, cfg, model) = trained_fixture();
    let store = model.to_store();
    let expected = model.predict(&urg);
    let n = urg.n;

    let opts = ServeOptions {
        workers: 2,
        batch: 16,
        ..ServeOptions::default()
    };
    let server = Server::start(urg.clone(), cfg, store, opts).expect("server starts");
    let mut client = Client::connect(server.addr());

    // --- generation 0: every region, in odd-sized requests so batches
    // split and chunk across the 16-row tape.
    let mut got = Vec::with_capacity(n);
    let mut version = 0;
    for chunk in (0..n).collect::<Vec<_>>().chunks(7) {
        let (scores, v) = client.score(chunk);
        got.extend(scores);
        version = v;
    }
    assert_eq!(version, 0);
    assert_eq!(got.len(), n);
    for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "region {i}: served {g} != predict {e}"
        );
    }

    // --- crash paths on the same connection.
    let v = client.roundtrip("this is not json");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let v = client.roundtrip(&format!(r#"{{"op":"score","ids":[{n}]}}"#));
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let err = v.get("error").and_then(|e| e.as_str()).unwrap();
    assert!(err.contains("out of bounds"), "unexpected error: {err}");
    let v = client.roundtrip(r#"{"op":"update_poi","region":0,"poi":[1.0]}"#);
    assert_eq!(
        v.get("ok"),
        Some(&Value::Bool(false)),
        "width mismatch: {v:?}"
    );
    let v = client.roundtrip(&format!(
        r#"{{"op":"update_poi","region":{n},"poi":[{}]}}"#,
        vec!["0.0"; urg.x_poi.cols()].join(",")
    ));
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "oob region: {v:?}");
    // The connection survived all of it.
    let (scores, _) = client.score(&[0]);
    assert_eq!(scores[0].to_bits(), expected[0].to_bits());

    // --- incremental update: perturb one region's POI row, expect the
    // served scores to be bitwise what a full-city recompute would give.
    let region = 5usize;
    let mut new_poi: Vec<f32> = urg.x_poi.row(region).to_vec();
    for (j, x) in new_poi.iter_mut().enumerate() {
        *x = (*x * 0.5) + 0.01 * (j % 7) as f32;
    }
    let poi_json: Vec<String> = new_poi.iter().map(|x| format!("{x}")).collect();
    let v = client.roundtrip(&format!(
        r#"{{"op":"update_poi","region":{region},"poi":[{}]}}"#,
        poi_json.join(",")
    ));
    assert_eq!(
        v.get("ok"),
        Some(&Value::Bool(true)),
        "update failed: {v:?}"
    );
    assert_eq!(v.get("version").and_then(|x| x.as_f64()), Some(1.0));
    let reembedded = v.get("reembedded").and_then(|x| x.as_f64()).unwrap() as usize;
    assert!(reembedded >= 1 && reembedded <= n);

    // Full recompute on a locally updated URG. The wire carried the POI
    // row through shortest-round-trip f64 text, so parse it back the same
    // way the server did to feed both paths bit-identical features.
    let wire_poi: Vec<f32> = poi_json
        .iter()
        .map(|s| s.parse::<f64>().unwrap() as f32)
        .collect();
    let mut urg2 = urg.clone();
    urg2.update_poi(region, &wire_poi).unwrap();
    let expected2 = model.predict(&urg2);

    let mut got2 = Vec::with_capacity(n);
    for chunk in (0..n).collect::<Vec<_>>().chunks(11) {
        let (scores, v) = client.score(chunk);
        assert_eq!(v, 1, "scores must come from the updated generation");
        got2.extend(scores);
    }
    let mut changed = 0;
    for (i, (g, e)) in got2.iter().zip(expected2.iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "region {i} after update: served {g} != predict {e}"
        );
        if g.to_bits() != expected[i].to_bits() {
            changed += 1;
        }
    }
    // The edit must actually have moved some scores (else the test is
    // vacuous) but not re-scored the whole city through the k-hop patch.
    assert!(changed >= 1, "update_poi changed no scores");

    // Health/stats still coherent.
    let v = client.roundtrip(r#"{"op":"health","id":7}"#);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(v.get("version").and_then(|x| x.as_f64()), Some(1.0));
    assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(7.0));
    let v = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    assert!(v.get("errors").and_then(|x| x.as_f64()).unwrap() >= 4.0);

    server.shutdown();
}

#[test]
fn engine_caches_match_predict_without_a_socket() {
    let (urg, cfg, model) = trained_fixture();
    let store = model.to_store();
    let expected = model.predict(&urg);

    let updater = uvd_serve::Updater::new(urg, cfg, &store).expect("restore");
    let caches = updater.caches();
    assert_eq!(caches.version, 0);
    assert_eq!(caches.scores.len(), expected.len());
    for (g, e) in caches.scores.iter().zip(expected.iter()) {
        assert_eq!(g.to_bits(), e.to_bits());
    }
}
