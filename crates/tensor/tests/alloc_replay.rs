//! Steady-state allocation regression test: once a training tape has been
//! recorded and its gradient arena materialized (one warm epoch), replayed
//! epochs must perform **zero heap allocation** in forward + backward.
//!
//! The counting `#[global_allocator]` wraps [`uvd_obs::alloc`]'s; the test
//! runs under [`uvd_tensor::par::serial_scope`] so no thread-pool machinery
//! (task boxing, latches) allocates on the side.
//!
//! Allocations are counted per thread: the test harness and sibling tests
//! allocate on other threads while a window is measured, and under
//! `serial_scope` all of the measured work runs on the test's own thread.
//!
//! The replay path is instrumented with `uvd_obs` counters (`tensor.replay.*`,
//! `gemm.pack_*`), so the steady-state assertion here also pins the disabled
//! telemetry path to zero heap allocations.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::Arc;
use uvd_obs::alloc::CountingAlloc;
use uvd_tensor::{par, Adam, FusedAct, Graph, ParamRef, ParamSet};

thread_local! {
    /// `alloc`/`realloc` calls made by this thread. Const-initialized with
    /// no destructor, so the allocator can touch it without allocating.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// [`CountingAlloc`] plus a per-thread count of allocation events.
struct ThreadCountingAlloc;

// SAFETY: every call is forwarded unchanged to `CountingAlloc`, itself a
// pass-through to the system allocator; the thread-local bump neither
// allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCATIONS.set(THREAD_ALLOCATIONS.get() + 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { CountingAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCATIONS.set(THREAD_ALLOCATIONS.get() + 1);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// Allocation events made by the calling thread so far.
fn allocation_count() -> usize {
    THREAD_ALLOCATIONS.get()
}

#[test]
fn replayed_epoch_performs_zero_heap_allocations() {
    // Force the telemetry recorder off regardless of the ambient UVD_TRACE:
    // the gate pins the *disabled* instrumentation path at zero allocations.
    uvd_obs::disable();
    par::serial_scope(|| {
        let n = 32;
        let d = 12;
        let h = 8;
        let mut rng = uvd_tensor::seeded_rng(7);
        let x = uvd_tensor::init::normal_matrix(n, d, 0.0, 1.0, &mut rng);
        let w1 = ParamRef::new(
            "w1",
            uvd_tensor::init::normal_matrix(d, h, 0.0, 0.3, &mut rng),
        );
        let b1 = ParamRef::new(
            "b1",
            uvd_tensor::init::normal_matrix(1, h, 0.0, 0.3, &mut rng),
        );
        let w2 = ParamRef::new(
            "w2",
            uvd_tensor::init::normal_matrix(h, 1, 0.0, 0.3, &mut rng),
        );
        let mut set = ParamSet::new();
        set.track(w1.clone());
        set.track(b1.clone());
        set.track(w2.clone());
        let targets: Arc<Vec<f32>> = Arc::new((0..n).map(|i| (i % 2) as f32).collect());
        let weights = Arc::new(vec![1.0f32; n]);
        let rows: Arc<Vec<u32>> = Arc::new((0..n as u32).collect());

        let mut opt = Adam::new(0.01);
        let mut g = Graph::new();
        let xc = g.constant(x);
        let w1n = g.param(&w1);
        let b1n = g.param(&b1);
        // Fused node: exercises per-epoch repacking of a parameter RHS and
        // the fused dz scratch inside the zero-allocation guarantee.
        let h1 = g.matmul_bias_act(xc, w1n, b1n, FusedAct::Tanh);
        let w2n = g.param(&w2);
        let z = g.matmul(h1, w2n);
        let zl = g.gather_rows(z, rows);
        let loss = g.bce_with_logits(zl, targets, weights);

        let epoch = |g: &mut Graph, opt: &mut Adam, replay: bool| -> f32 {
            if replay {
                g.replay();
            }
            let lv = g.scalar(loss);
            g.backward(loss);
            g.write_grads();
            opt.step(&set);
            lv
        };

        // Warm epochs: materialize the gradient arena, the backward scratch
        // buffer and the Adam moment buffers.
        epoch(&mut g, &mut opt, false);
        epoch(&mut g, &mut opt, true);

        // Steady state: forward replay + backward must not allocate. The
        // optimizer step is included too — Adam updates in place.
        let before = allocation_count();
        let lv = epoch(&mut g, &mut opt, true);
        let after = allocation_count();
        assert!(lv.is_finite());
        assert_eq!(
            after - before,
            0,
            "steady-state replayed epoch allocated {} times",
            after - before
        );
    });
}

/// Same steady-state gate over a conv-bearing plan: the conv forward runs
/// from the workspace-cached kernel pack, and both backward halves (the
/// col2im `dx` pass and the `dk` GEMM accumulation) thread their im2col /
/// matmul temporaries through reused thread-local scratch — on the serial
/// replay path none of it may touch the heap. (Max-pool stays out of this
/// tape: its backward still allocates per sample, documented in conv.rs.)
#[test]
fn replayed_conv_epoch_performs_zero_heap_allocations() {
    uvd_obs::disable();
    par::serial_scope(|| {
        let meta = uvd_tensor::ConvMeta {
            c_in: 2,
            h_in: 8,
            w_in: 8,
            c_out: 4,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let n = 6;
        let mut rng = uvd_tensor::seeded_rng(13);
        let x = uvd_tensor::init::normal_matrix(n, meta.in_len(), 0.0, 1.0, &mut rng);
        let (co, klen) = meta.kernel_shape();
        let kern = ParamRef::new(
            "kern",
            uvd_tensor::init::normal_matrix(co, klen, 0.0, 0.3, &mut rng),
        );
        let cb = ParamRef::new(
            "cb",
            uvd_tensor::init::normal_matrix(1, co, 0.0, 0.3, &mut rng),
        );
        let w = ParamRef::new(
            "w",
            uvd_tensor::init::normal_matrix(meta.out_len(), 1, 0.0, 0.3, &mut rng),
        );
        let mut set = ParamSet::new();
        set.track(kern.clone());
        set.track(cb.clone());
        set.track(w.clone());
        let targets: Arc<Vec<f32>> = Arc::new((0..n).map(|i| (i % 2) as f32).collect());
        let weights = Arc::new(vec![1.0f32; n]);
        let rows: Arc<Vec<u32>> = Arc::new((0..n as u32).collect());

        let mut opt = Adam::new(0.01);
        let mut g = Graph::new();
        let xc = g.constant(x);
        let kn = g.param(&kern);
        let conv = g.conv2d(xc, kn, meta);
        let cbn = g.param(&cb);
        let hw = meta.h_out() * meta.w_out();
        let biased = g.add_chan_bias(conv, cbn, co, hw);
        let act = g.leaky_relu(biased, 0.1);
        let wn = g.param(&w);
        let z = g.matmul(act, wn);
        let zl = g.gather_rows(z, rows);
        let loss = g.bce_with_logits(zl, targets, weights);

        let epoch = |g: &mut Graph, opt: &mut Adam, replay: bool| -> f32 {
            if replay {
                g.replay();
            }
            let lv = g.scalar(loss);
            g.backward(loss);
            g.write_grads();
            opt.step(&set);
            lv
        };

        epoch(&mut g, &mut opt, false);
        epoch(&mut g, &mut opt, true);

        let before = allocation_count();
        let lv = epoch(&mut g, &mut opt, true);
        let after = allocation_count();
        assert!(lv.is_finite());
        assert_eq!(
            after - before,
            0,
            "steady-state replayed conv epoch allocated {} times",
            after - before
        );
    });
}

/// Same steady-state gate over a GAT-head tape: the fused `edge_attention`
/// node carries its two projections from forward to backward in a slot
/// sized at record time and takes its score gradients from the fused
/// scratch, so replay and backward stay allocation-free.
#[test]
fn replayed_gat_epoch_performs_zero_heap_allocations() {
    uvd_obs::disable();
    par::serial_scope(|| {
        let (n, d, h) = (24, 6, 4);
        let mut rng = uvd_tensor::seeded_rng(17);
        let x = uvd_tensor::init::normal_matrix(n, d, 0.0, 1.0, &mut rng);
        let mut pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
        pairs.extend((0..n as u32).map(|i| ((i * 7 + 3) % n as u32, i)));
        let edges = Arc::new(uvd_tensor::EdgeIndex::from_pairs(n, pairs));
        let param = |name: &str, r: usize, c: usize, rng: &mut uvd_tensor::Rng64| {
            ParamRef::new(name, uvd_tensor::init::normal_matrix(r, c, 0.0, 0.3, rng))
        };
        let w = param("w", d, h, &mut rng);
        let a_dst = param("a_dst", h, 1, &mut rng);
        let a_src = param("a_src", h, 1, &mut rng);
        let w_out = param("w_out", h, 1, &mut rng);
        let mut set = ParamSet::new();
        for p in [&w, &a_dst, &a_src, &w_out] {
            set.track(p.clone());
        }
        let targets: Arc<Vec<f32>> = Arc::new((0..n).map(|i| (i % 2) as f32).collect());
        let weights = Arc::new(vec![1.0f32; n]);

        let mut opt = Adam::new(0.01);
        let mut g = Graph::new();
        let xc = g.constant(x);
        let wn = g.param(&w);
        let hn = g.matmul(xc, wn);
        let adn = g.param(&a_dst);
        let asn = g.param(&a_src);
        let alpha = g.edge_attention(hn, hn, adn, asn, 0.2, edges.clone());
        let agg = g.edge_aggregate(alpha, hn, edges);
        let act = g.leaky_relu(agg, 0.2);
        let won = g.param(&w_out);
        let z = g.matmul(act, won);
        let loss = g.bce_with_logits(z, targets, weights);

        let epoch = |g: &mut Graph, opt: &mut Adam, replay: bool| -> f32 {
            if replay {
                g.replay();
            }
            let lv = g.scalar(loss);
            g.backward(loss);
            g.write_grads();
            opt.step(&set);
            lv
        };

        epoch(&mut g, &mut opt, false);
        epoch(&mut g, &mut opt, true);

        let before = allocation_count();
        let lv = epoch(&mut g, &mut opt, true);
        let after = allocation_count();
        assert!(lv.is_finite());
        assert_eq!(
            after - before,
            0,
            "steady-state replayed GAT epoch allocated {} times",
            after - before
        );
    });
}

#[test]
fn no_grad_inference_never_allocates_gradient_buffers() {
    par::serial_scope(|| {
        let mut rng = uvd_tensor::seeded_rng(11);
        let x = uvd_tensor::init::normal_matrix(16, 6, 0.0, 1.0, &mut rng);
        let w = ParamRef::new(
            "w",
            uvd_tensor::init::normal_matrix(6, 1, 0.0, 0.3, &mut rng),
        );
        let mut g = Graph::inference();
        let xc = g.constant(x);
        let wn = g.param(&w);
        let z = g.matmul(xc, wn);
        let p = g.sigmoid(z);
        assert_eq!(g.value(p).rows(), 16);
        // The value arena holds 4 node buffers; no gradient arena exists, so
        // the workspace charge is exactly the forward values plus the cached
        // RHS panel pack of the matmul weight.
        let value_bytes: usize = [16 * 6, 6, 16, 16]
            .iter()
            .map(|len| len * std::mem::size_of::<f32>())
            .sum();
        assert_eq!(g.workspace_bytes() - g.pack_bytes(), value_bytes);
    });
}
