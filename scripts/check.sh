#!/usr/bin/env bash
# Repository gate: formatting, lints as errors, full test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
# float_cmp is denied on top of warnings: exact == on floats is how the
# non-finite bugs this repo guards against slip back in.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::float_cmp
cargo test --workspace -q
# Thread-count matrix for the tensor runtime and the CMSF trainer in
# release mode: kernels must stay correct when concurrent callers share the
# pool and a waiting thread helps run another caller's chunks (thread-local
# scratch is never held across a dispatch), and the training pins (fit
# golden, including the fold recorded from the define-by-run engine, and
# prefetch equivalence) must hold bitwise, at one, two and more threads
# than cores.
for threads in 1 2 7; do
    UVD_THREADS=$threads cargo test -p uvd-tensor -p cmsf --release -q
done
# The same matrix for the resident server in release mode: served scores
# must stay bitwise equal to `Cmsf::predict` whatever the pool size, and
# the tick's drain and panic-isolation tests must hold without debug
# assertions.
for threads in 1 7; do
    UVD_THREADS=$threads cargo test -p uvd-serve --release -q
done
# Zero-allocation replay regression gate: steady-state epochs must not
# touch the heap (counting global allocator; release, single-threaded).
cargo test -p uvd-tensor --release --test alloc_replay -q
# Graceful-degradation gate in release mode: debug_assert-free builds must
# also record faulted (seed, fold) units instead of panicking.
cargo test -p uvd-eval --release --test fault_injection -q
# Build-path determinism gate in release mode: the one URG builder, run
# dense (one whole-city tile) and streamed (pipelined render/fold), must be
# bitwise identical to the serial build at every swept thread count and
# hash to the constants recorded before the dense path became a one-tile
# stream. Release matters here: debug builds never hit the vectorized
# kernels the parallel feature extraction dispatches to.
cargo test -p uvd-urg --release --test par_build -q
# ISA-tier gate: the direct conv stack against the packed-GEMM conv path,
# the fused edge-attention op against its seven-node chain, the URG build,
# the VGG-sim image-feature golden (`img_golden`, recorded before the
# stack replaced the im2col + GEMM loop) and the CMSF training pins
# (`fit_golden`) must reproduce the same bits on the AVX2 and scalar
# tiers as on the detected one.
for isa in scalar avx2; do
    UVD_GEMM_ISA=$isa cargo test -p uvd-tensor --release --test conv_stack -q
    UVD_GEMM_ISA=$isa cargo test -p uvd-tensor --release --test edge_attention_differential -q
    UVD_GEMM_ISA=$isa cargo test -p cmsf --release --test fit_golden -q
    UVD_GEMM_ISA=$isa cargo test -p uvd-urg --release --test par_build -q
    UVD_GEMM_ISA=$isa cargo test -p uvd-bench --release --test img_golden -q
done
# Bench harness must keep compiling even when nobody runs it.
cargo bench --workspace --no-run -q
# Release perfsnap smoke pass: exercise the packed GEMM tiers, the fused
# replay path, and the e2e fold end to end without rewriting the committed
# BENCH_tensor.json numbers.
cargo run --release -p uvd-bench --bin perfsnap -q -- --smoke
# Tracing smoke: one eval fold with UVD_TRACE=jsonl:<tmp>, validating the
# emitted records against the expected span/counter set and reconciling
# stage durations against wall time (within 10%).
cargo run --release -p uvd-bench --bin trace_smoke -q
# Streaming smoke: the 50k-region scaling city through the tile path
# (CityStream -> ShardedUrg) plus two neighbor-sampled master epochs,
# asserting peak heap stays under the streaming budget (less than the
# monolithic imagery buffer alone) and that the JSONL trace carries the
# urg.shard.build and cmsf.sample spans.
cargo run --release -p uvd-bench --bin scaling -q -- --smoke
# Resident-service smoke: 100 concurrent score requests, 200 sequential
# ones on one connection, plus poisoned inputs (one malformed line, one
# out-of-bounds region id) against an in-process uvd-serve. Zero panics,
# every reply valid JSON, the OOB id answered with the typed sampler
# error, the server-side request p50 from `stats` below 1 ms, and the
# serve.request / serve.batch span taxonomy present in the JSONL trace.
cargo run --release -p uvd-bench --bin serve_smoke -q
# Embedding-store smoke: pretrain the tiny city, export the frozen
# embeddings, train all three downstream heads, persist one UVDT0002
# store, reload it and assert the reloaded head scores (and the served
# "tasks" op) are bitwise identical to the in-memory ones. Leaves the
# committed BENCH_tensor.json untouched (the tasks row comes from
# --record runs).
cargo run --release -p uvd-bench --bin tasks_smoke -q
