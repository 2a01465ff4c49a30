//! Wire-level coverage for the `tasks` op: a server started with an
//! embedding store must answer land-use classes and accessibility indices
//! that are bitwise what a local [`TaskScorer`] computes from the same
//! store (class indices are integers; f32 access values survive the f64
//! shortest-round-trip wire exactly). A server started *without* a store
//! must answer a clean error, not crash.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use cmsf::{Cmsf, CmsfConfig};
use serde_json::Value;
use uvd_citysim::{land_use_classes, City, CityPreset};
use uvd_serve::{ServeOptions, Server, TaskScorer};
use uvd_tasks::{
    accessibility_targets, AccessibilityHead, EmbeddingStore, LandUseHead, TaskHeadConfig,
};
use uvd_urg::{Detector, Urg, UrgOptions};

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Value {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    serde_json::from_str_value(reply.trim()).expect("reply is valid JSON")
}

#[test]
fn tasks_op_serves_bitwise_head_outputs() {
    let city = City::from_config(CityPreset::tiny(), 51);
    let urg = Urg::build(&city, UrgOptions::default());
    let mut cfg = CmsfConfig::fast_test();
    cfg.master_epochs = 8;
    cfg.slave_epochs = 2;
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut model = Cmsf::new(&urg, cfg);
    model.fit(&urg, &train);

    // Pretrain once: embeddings + trained heads in one store.
    let mut emb_store = EmbeddingStore::new();
    model.export_embeddings(&urg, "tiny", &mut emb_store);
    let emb = emb_store.get(&cmsf::embedding_key("tiny")).unwrap().clone();
    let meta = emb_store
        .meta(&cmsf::embedding_key("tiny"))
        .unwrap()
        .clone();
    let head_cfg = TaskHeadConfig {
        epochs: 30,
        ..TaskHeadConfig::default()
    };
    let labels = land_use_classes(&city);
    let targets = accessibility_targets(&city);
    let idx: Vec<usize> = (0..urg.n).collect();
    let mut lu = LandUseHead::new(emb.cols(), &head_cfg);
    lu.fit(&emb, &labels, &idx, &head_cfg);
    let mut ac = AccessibilityHead::new(emb.cols(), &head_cfg);
    ac.fit(&emb, &targets, &idx, &head_cfg);
    lu.capture(&mut emb_store, &meta);
    ac.capture(&mut emb_store, &meta);

    let local = TaskScorer::new(&emb_store).expect("restore locally");
    let ids: Vec<u32> = vec![0, 3, 9, 1, 9];
    let (want_classes, want_access) = local.score(&ids);

    let opts = ServeOptions {
        workers: 2,
        batch: 8,
        embeddings: Some(emb_store),
        ..ServeOptions::default()
    };
    let server = Server::start(urg.clone(), cfg, model.to_store(), opts).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let ids_json: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
    let v = roundtrip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"op":"tasks","ids":[{}],"id":"t1"}}"#,
            ids_json.join(",")
        ),
    );
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "reply: {v:?}");
    assert_eq!(v.get("id").and_then(|x| x.as_str()), Some("t1"));
    let classes: Vec<u8> = match v.get("classes") {
        Some(Value::Array(a)) => a.iter().map(|c| c.as_f64().unwrap() as u8).collect(),
        other => panic!("no classes array: {other:?}"),
    };
    let access: Vec<f32> = match v.get("access") {
        Some(Value::Array(a)) => a.iter().map(|c| c.as_f64().unwrap() as f32).collect(),
        other => panic!("no access array: {other:?}"),
    };
    assert_eq!(classes, want_classes, "served classes must match local");
    assert_eq!(access.len(), want_access.len());
    for (i, (g, e)) in access.iter().zip(&want_access).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "access {i}: served {g} != {e}");
    }

    // Out-of-bounds id fails its request; the connection keeps working.
    let v = roundtrip(
        &mut reader,
        &mut writer,
        &format!(r#"{{"op":"tasks","ids":[{}]}}"#, urg.n),
    );
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));

    // The score path still answers on the same connection.
    let v = roundtrip(&mut reader, &mut writer, r#"{"op":"score","ids":[0]}"#);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));

    // Stats carry the new counter.
    let v = roundtrip(&mut reader, &mut writer, r#"{"op":"stats"}"#);
    assert!(v.get("task_requests").and_then(|x| x.as_f64()).unwrap() >= 2.0);

    server.shutdown();
}

#[test]
fn tasks_op_without_store_is_a_clean_error() {
    let city = City::from_config(CityPreset::tiny(), 51);
    let urg = Urg::build(&city, UrgOptions::default());
    let cfg = CmsfConfig::fast_test();
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let mut model = Cmsf::new(&urg, cfg);
    model.fit(&urg, &train);

    let server = Server::start(
        urg,
        cfg,
        model.to_store(),
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let v = roundtrip(&mut reader, &mut writer, r#"{"op":"tasks","ids":[0]}"#);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let err = v.get("error").and_then(|e| e.as_str()).unwrap();
    assert!(err.contains("embedding store"), "unexpected error: {err}");
    server.shutdown();
}
