//! Release gate + benchmark for the "pretrain once, serve many tasks"
//! path: pretrain the tiny fixture, export the frozen embeddings, train
//! all three downstream heads, persist everything into one `UVDT0002`
//! store, reload it from disk and assert the reloaded scores are **bitwise
//! identical** to the in-memory ones — including through an in-process
//! `uvd-serve` server answering the `tasks` op from the same file.
//!
//! Default (gate) mode leaves `BENCH_tensor.json` untouched. `--record`
//! additionally times one full CMSF retrain against training the three
//! heads from the already-exported store and writes the amortization
//! ratio into the `tasks` key of `BENCH_tensor.json`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cmsf::{embedding_key, Cmsf, CmsfConfig};
use uvd_bench::repo_root_path;
use uvd_citysim::{land_use_classes, City, CityPreset};
use uvd_serve::{ServeOptions, Server, TaskScorer};
use uvd_tasks::{
    accessibility_targets, best_region_search, AccessibilityHead, EmbeddingStore, LandUseHead,
    SearchOptions, TaskHeadConfig,
};
use uvd_urg::{Detector, Urg, UrgOptions};

fn check(ok: bool, what: &str) {
    if ok {
        println!("  ok: {what}");
    } else {
        eprintln!("  FAIL: {what}");
        std::process::exit(1);
    }
}

fn main() {
    let record = std::env::args().any(|a| a == "--record");

    println!("pretraining the tiny fixture ...");
    let city = City::from_config(CityPreset::tiny(), 51);
    let urg = Urg::build(&city, UrgOptions::default());
    // Gate mode keeps the scaled-down smoke epochs; the recorded
    // amortization row uses the realistic epoch budget (100/20), since
    // that is the pretrain cost the store actually amortizes.
    let cfg = if record {
        CmsfConfig::default()
    } else {
        let mut c = CmsfConfig::fast_test();
        c.master_epochs = 10;
        c.slave_epochs = 3;
        c
    };
    let train: Vec<usize> = (0..urg.labeled.len()).collect();
    let t0 = Instant::now();
    let mut model = Cmsf::new(&urg, cfg);
    model.fit(&urg, &train);
    let pretrain_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Export + train the heads from the frozen rows.
    let mut store = EmbeddingStore::new();
    model.export_embeddings(&urg, "tiny", &mut store);
    let emb = store.get(&embedding_key("tiny")).unwrap().clone();
    let meta = store.meta(&embedding_key("tiny")).unwrap().clone();
    let head_cfg = TaskHeadConfig::default();
    let labels = land_use_classes(&city);
    let targets = accessibility_targets(&city);
    let idx: Vec<usize> = (0..urg.n).collect();

    let t1 = Instant::now();
    let mut lu = LandUseHead::new(emb.cols(), &head_cfg);
    lu.fit(&emb, &labels, &idx, &head_cfg);
    let landuse_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let mut ac = AccessibilityHead::new(emb.cols(), &head_cfg);
    ac.fit(&emb, &targets, &idx, &head_cfg);
    let access_ms = t2.elapsed().as_secs_f64() * 1e3;
    let t3 = Instant::now();
    let region = best_region_search(&emb, &city, &urg, &SearchOptions::default());
    let search_ms = t3.elapsed().as_secs_f64() * 1e3;
    lu.capture(&mut store, &meta);
    ac.capture(&mut store, &meta);

    // In-memory reference outputs.
    let lu_probs = lu.probs(&emb);
    let ac_pred = ac.predict(&emb);

    // Persist, reload, restore — the invariant under test.
    let path = std::env::temp_dir().join(format!("uvd_tasks_smoke_{}.uvdt2", std::process::id()));
    store.save(&path).expect("save store");
    let reloaded = EmbeddingStore::load(&path).expect("load store");
    let _ = std::fs::remove_file(&path);
    check(reloaded == store, "store round-trips bit-exactly");

    let scorer = TaskScorer::new(&reloaded).expect("restore from reloaded store");
    check(scorer.n_regions() == urg.n, "scorer covers every region");
    let ids: Vec<u32> = (0..urg.n as u32).collect();
    let (classes, access) = scorer.score(&ids);
    let want_classes: Vec<u8> = (0..urg.n)
        .map(|r| {
            let row = lu_probs.row(r);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate().skip(1) {
                if v > row[best] {
                    best = j;
                }
            }
            best as u8
        })
        .collect();
    check(
        classes == want_classes,
        "reloaded land-use classes are bitwise the in-memory ones",
    );
    check(
        access
            .iter()
            .zip(&ac_pred)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "reloaded accessibility scores are bitwise the in-memory ones",
    );
    let region2 = best_region_search(
        &reloaded.get(&embedding_key("tiny")).unwrap().clone(),
        &city,
        &urg,
        &SearchOptions::default(),
    );
    check(
        region == region2,
        "best-region search is stable across save/load",
    );

    // Serve the same store through the wire.
    let server = Server::start(
        urg.clone(),
        cfg,
        model.to_store(),
        ServeOptions {
            workers: 2,
            batch: 8,
            embeddings: Some(reloaded),
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
    let probe: Vec<u32> = vec![0, 7, urg.n as u32 - 1];
    let probe_json: Vec<String> = probe.iter().map(|i| i.to_string()).collect();
    writer
        .write_all(format!("{{\"op\":\"tasks\",\"ids\":[{}]}}\n", probe_json.join(",")).as_bytes())
        .unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("tasks reply");
    let v = serde_json::from_str_value(reply.trim()).expect("tasks reply is JSON");
    check(
        v.get("ok") == Some(&serde_json::Value::Bool(true)),
        "served tasks op answers ok",
    );
    let served: Vec<u8> = match v.get("classes") {
        Some(serde_json::Value::Array(a)) => a.iter().map(|c| c.as_f64().unwrap() as u8).collect(),
        _ => {
            eprintln!("  FAIL: tasks reply has no classes array");
            std::process::exit(1);
        }
    };
    let want: Vec<u8> = probe.iter().map(|&i| want_classes[i as usize]).collect();
    check(served == want, "served classes match the in-memory heads");
    server.shutdown();

    let heads_total_ms = landuse_ms + access_ms + search_ms;
    println!("  pretrain      {pretrain_ms:9.1} ms");
    println!("  landuse head  {landuse_ms:9.1} ms");
    println!("  access head   {access_ms:9.1} ms");
    println!("  search        {search_ms:9.1} ms");
    println!("  heads total   {heads_total_ms:9.1} ms");

    if !record {
        println!("tasks_smoke: all checks passed (gate mode, BENCH_tensor.json untouched)");
        return;
    }

    // Amortization: what a user pays to add three tasks to an existing
    // checkpoint (three heads from the store) vs the retrain-per-task
    // world (one more full CMSF fit *per task*; one is enough to make the
    // point, so the recorded ratio is conservative).
    println!("timing one full CMSF retrain for the amortization row ...");
    let t4 = Instant::now();
    let mut retrained = Cmsf::new(&urg, cfg);
    retrained.fit(&urg, &train);
    let retrain_ms = t4.elapsed().as_secs_f64() * 1e3;
    let amortization = retrain_ms / heads_total_ms;
    println!("  retrain       {retrain_ms:9.1} ms");
    println!("  amortization  {amortization:9.2}x (one retrain vs all three heads)");

    let rows = uvd_eval::run_task_suite(&city, &urg, &emb, head_cfg.seed).expect("task suite");
    let metrics: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "task": r.task.clone(),
                "metric": r.metric.clone(),
                "value": r.value,
                "train_n": r.train_n,
                "test_n": r.test_n,
            })
        })
        .collect();
    let row = serde_json::json!({
        "city": "tiny",
        "regions": urg.n,
        "pretrain_ms": pretrain_ms,
        "retrain_ms": retrain_ms,
        "landuse_head_ms": landuse_ms,
        "access_head_ms": access_ms,
        "search_ms": search_ms,
        "heads_total_ms": heads_total_ms,
        "amortization": amortization,
        "metrics": serde_json::Value::Array(metrics),
    });
    let path = repo_root_path("BENCH_tensor.json");
    let mut doc: serde_json::Value = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str_value(&t).ok())
        .unwrap_or_else(|| serde_json::json!({}));
    doc.set("tasks", row);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialize snapshot") + "\n",
    )
    .expect("write BENCH_tensor.json");
    println!("wrote tasks row to {}", path.display());
}
