//! `uvd-serve` — the resident scoring service binary.
//!
//! ```text
//! uvd-serve --ckpt model.uvd [--city tiny] [--seed 7] [--addr 127.0.0.1:7878]
//!           [--workers 2] [--trace trace.jsonl]
//! ```
//!
//! The URG is rebuilt deterministically from the named city preset and
//! seed (the same pair used at training time), then the checkpoint is
//! restored into it and the service runs until SIGINT/EOF on stdin.

use std::io::Read;

use uvd_citysim::{City, CityPreset};
use uvd_serve::{ServeOptions, Server};
use uvd_tensor::MatrixStore;
use uvd_urg::{Urg, UrgOptions};

fn usage() -> ! {
    eprintln!(
        "usage: uvd-serve --ckpt <path> [--city tiny|shenzhen|fuzhou|beijing] [--seed N] \
         [--addr HOST:PORT] [--workers N] [--trace <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut ckpt: Option<String> = None;
    let mut city_name = "tiny".to_string();
    let mut seed: u64 = 7;
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeOptions::default()
    };
    let mut trace: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--ckpt" => ckpt = Some(val(&mut args)),
            "--city" => city_name = val(&mut args),
            "--seed" => seed = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--addr" => opts.addr = val(&mut args),
            "--workers" => opts.workers = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = Some(val(&mut args)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let ckpt = ckpt.unwrap_or_else(|| usage());

    if let Some(path) = &trace {
        if let Err(e) = uvd_obs::set_jsonl(path) {
            eprintln!("uvd-serve: cannot open trace {path}: {e}");
            std::process::exit(1);
        }
    }

    // The URG and architecture must match training exactly for the
    // transactional restore to accept the checkpoint.
    let (config, cfg) = match city_name.as_str() {
        "tiny" => (CityPreset::tiny(), cmsf::CmsfConfig::fast_test()),
        "shenzhen" | "shenzhen-like" => (
            CityPreset::ShenzhenLike.config(),
            cmsf::CmsfConfig::for_city("shenzhen-like"),
        ),
        "fuzhou" | "fuzhou-like" => (
            CityPreset::FuzhouLike.config(),
            cmsf::CmsfConfig::for_city("fuzhou-like"),
        ),
        "beijing" | "beijing-like" => (
            CityPreset::BeijingLike.config(),
            cmsf::CmsfConfig::for_city("beijing-like"),
        ),
        other => {
            eprintln!("uvd-serve: unknown city preset {other:?}");
            std::process::exit(2);
        }
    };
    let city = City::from_config(config, seed);
    let urg = Urg::build(&city, UrgOptions::default());

    let store = match MatrixStore::load(&ckpt) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("uvd-serve: cannot load checkpoint {ckpt}: {e}");
            std::process::exit(1);
        }
    };

    let server = match Server::start(urg, cfg, store, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("uvd-serve: startup failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("uvd-serve: listening on {}", server.addr());

    // Run until stdin closes (EOF) — the simplest portable stop signal for
    // both interactive use and scripted smoke tests.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    eprintln!("uvd-serve: stdin closed, shutting down");
    server.shutdown();
    uvd_obs::flush();
}
