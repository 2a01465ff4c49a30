//! Concurrent kernels on one shared pool.
//!
//! Several OS threads run above-threshold `matmul`, `conv2d_batch`, conv
//! backward and the direct conv stack at once. A thread waiting on its own
//! pool scope helps run queued jobs, which may be another thread's conv or
//! stack chunks; those chunks use the same thread-local pack, column and
//! stack scratch the waiting thread's kernel was called with. Every result
//! must still equal the one computed alone.

use std::sync::Arc;
use uvd_tensor::conv::{conv2d_backward_batch, conv2d_batch};
use uvd_tensor::init::{normal_matrix, seeded_rng};
use uvd_tensor::{par, ConvMeta, ConvPoolStack, Matrix};

/// 96×96×96 matmul: ~885k estimated ops, well above `MIN_PAR_WORK`.
const N: usize = 96;
const THREADS: usize = 4;
const ROUNDS: usize = 25;
/// Chunk count forced on every kernel, whatever `UVD_THREADS` says.
const POOL: usize = 3;

const META: ConvMeta = ConvMeta {
    c_in: 2,
    h_in: 16,
    w_in: 16,
    c_out: 4,
    k: 3,
    stride: 1,
    pad: 1,
};

/// A VGG-shaped stack (3×32×32 → 8 → 16 → 16): 16 images clear
/// `MIN_PAR_WORK` by far, so every call dispatches to the pool.
const STACK: [(usize, usize, usize); 3] = [(3, 32, 8), (8, 16, 16), (16, 8, 16)];

struct Inputs {
    a: Matrix,
    b: Matrix,
    x: Matrix,
    kernel: Matrix,
    dy: Matrix,
    stack: ConvPoolStack,
    images: Matrix,
}

type Outputs = (Matrix, Matrix, Matrix, Matrix, Matrix);

fn run(inp: &Inputs) -> Outputs {
    let (dx, dk) = conv2d_backward_batch(&inp.x, &inp.kernel, &inp.dy, &META);
    (
        inp.a.matmul(&inp.b),
        conv2d_batch(&inp.x, &inp.kernel, &META),
        dx,
        dk,
        inp.stack.forward(inp.images.as_slice()),
    )
}

#[test]
fn concurrent_kernels_match_isolated_runs() {
    let mut rng = seeded_rng(11);
    let n_img = 16;
    let (co, klen) = META.kernel_shape();
    let stages: Vec<(ConvMeta, Matrix)> = STACK
        .iter()
        .map(|&(c_in, side, c_out)| {
            let meta = ConvMeta {
                c_in,
                h_in: side,
                w_in: side,
                c_out,
                k: 3,
                stride: 1,
                pad: 1,
            };
            let (kr, kc) = meta.kernel_shape();
            (meta, normal_matrix(kr, kc, 0.0, 0.3, &mut rng))
        })
        .collect();
    let stack = ConvPoolStack::new(&stages);
    let images = normal_matrix(n_img, stack.in_len(), 0.0, 1.0, &mut rng);
    let inp = Arc::new(Inputs {
        a: normal_matrix(N, N, 0.0, 1.0, &mut rng),
        b: normal_matrix(N, N, 0.0, 1.0, &mut rng),
        x: normal_matrix(n_img, META.in_len(), 0.0, 1.0, &mut rng),
        kernel: normal_matrix(co, klen, 0.0, 0.3, &mut rng),
        dy: normal_matrix(n_img, META.out_len(), 0.0, 1.0, &mut rng),
        stack,
        images,
    });
    let expect = Arc::new(par::with_threads(POOL, || run(&inp)));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (inp, expect) = (Arc::clone(&inp), Arc::clone(&expect));
            std::thread::spawn(move || {
                par::with_threads(POOL, || {
                    for round in 0..ROUNDS {
                        // Stagger the kernel order so threads overlap in
                        // different kernels.
                        let got = if (t + round) % 2 == 0 {
                            run(&inp)
                        } else {
                            let feats = inp.stack.forward(inp.images.as_slice());
                            let conv = conv2d_batch(&inp.x, &inp.kernel, &META);
                            let mm = inp.a.matmul(&inp.b);
                            let (dx, dk) =
                                conv2d_backward_batch(&inp.x, &inp.kernel, &inp.dy, &META);
                            (mm, conv, dx, dk, feats)
                        };
                        assert!(got == *expect, "thread {t} round {round}: results differ");
                    }
                })
            })
        })
        .collect();
    for h in handles {
        if let Err(payload) = h.join() {
            std::panic::resume_unwind(payload);
        }
    }
}
