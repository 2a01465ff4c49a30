//! Parallel execution runtime for the tensor kernels.
//!
//! Every parallel kernel in this crate is built on three primitives here:
//!
//! * [`for_each_disjoint`] / [`for_each_row_block`] — partition an output
//!   buffer **along output rows** into contiguous chunks, one worker per
//!   chunk. Each output element therefore has exactly one writer, and the
//!   per-element reduction order inside a chunk is the same loop order the
//!   serial kernel uses — so row-partitioned kernels (matmul family, spmm,
//!   edge softmax/aggregate, pooling) are *bit-identical* to their serial
//!   counterparts at any thread count.
//! * [`map_chunks`] — map contiguous index ranges to partial results,
//!   returned in ascending chunk order so the caller can reduce them in a
//!   fixed order. The chunk count is a pure function of the work size and
//!   the configured thread count, so reductions built on it (e.g. the conv
//!   kernel gradient) are bit-deterministic for a fixed `UVD_THREADS`.
//! * [`run_tasks`] — coarse-grained fan-out of independent tasks (seed×fold
//!   experiment runs); results are returned in task-index order and each
//!   task body runs with nested kernel parallelism disabled, so the task's
//!   own numerics match a serial run exactly.
//!
//! ## Dispatch policy
//!
//! A kernel goes parallel only when its estimated scalar-op count reaches
//! [`MIN_PAR_WORK`] (small matrices stay serial — pool dispatch is not
//! free, see that constant) **and** the effective thread count is above one. The thread
//! count comes from, in priority order: a thread-local override installed by
//! [`with_threads`] (used by benches/tests), the `UVD_THREADS` environment
//! variable (read once), or the machine's available parallelism.
//!
//! On a host with a single effective hardware thread, dispatching through
//! the pool cannot help — the workers would only time-slice against the
//! caller, and the scope latch/queue traffic shows up as sub-1.0 "speedups"
//! on small kernels. The primitives therefore keep the *same* chunk
//! decomposition (so chunk-count-sensitive reductions stay bit-identical to
//! a multi-core run with equal `UVD_THREADS`) but execute the chunks inline
//! on the calling thread instead of going through `rayon::scope`.
//!
//! Worker closures always run with the "in worker" flag set, which forces
//! any kernel they invoke to take the serial path — parallelism never nests,
//! so the pool is never oversubscribed by recursive fan-out.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Minimum estimated scalar operations before a kernel goes parallel.
/// Below this, pool dispatch overhead rivals the compute itself.
///
/// That overhead is tens of µs, not the ~1 µs this value was chosen for.
/// Measured on a 2-vCPU AVX-512 VM: an empty 900×16 [`for_each_row_block`]
/// dispatch costs ~21 µs at 2 threads against ~1.6 µs inline, and a
/// Fuzhou-like CMSF fold ran slower at 2 threads than at 1 in 7 of 8
/// interleaved pairs. Why (worker wake latency, or the caller taking the
/// spawned chunk back while it waits) is an open ROADMAP item; the value
/// stays until that is known (DESIGN §6).
pub const MIN_PAR_WORK: usize = 1 << 16;

/// Parse a `UVD_THREADS` value. Accepted: a positive integer thread count.
/// Anything else (zero, negatives, non-numeric, empty) is rejected.
fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

fn env_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        uvd_obs::env_knob("UVD_THREADS", "a positive integer", parse_threads)
            .unwrap_or_else(rayon::current_num_threads)
    })
}

thread_local! {
    /// Per-thread override of the configured thread count (None = use env).
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while executing inside a parallel worker: forces serial kernels.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The thread count kernels on this thread would use, before any work-size
/// threshold: 1 inside workers, else the override / `UVD_THREADS` / cores.
pub fn effective_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(env_threads)
        .max(1)
}

/// Run `f` with kernels dispatching on exactly `n` threads, regardless of
/// `UVD_THREADS`. Used by benches and the equivalence tests; grows the pool
/// if `n` exceeds the core count.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let n = n.max(1);
    rayon::ensure_pool_size(n);
    let _restore = Restore::swap(&OVERRIDE, Some(n));
    f()
}

/// Run `f` with all kernel parallelism disabled on this thread.
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    with_threads(1, f)
}

/// Worker threads a parallel region configured for `requested` threads
/// actually runs on: `requested` clamped to the machine's available
/// parallelism. On a host with a single hardware thread the chunked
/// primitives keep the requested chunk decomposition but execute every chunk
/// inline on the calling thread, so the effective worker count is 1 no
/// matter how large the pool is; on any host, asking for more workers than
/// cores only time-slices them against each other. Benchmarks should report
/// this number alongside the requested one, so speedup rows aren't
/// attributed to parallelism that never dispatched.
pub fn effective_workers(requested: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    requested.clamp(1, cores)
}

/// True when called from inside a parallel worker closure.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Run a worker closure with nested kernels kept serial.
fn enter_worker<R>(f: impl FnOnce() -> R) -> R {
    let _restore = Restore::swap(&IN_WORKER, true);
    f()
}

/// Puts a thread-local cell's previous value back when dropped, so a scope
/// is restored on unwind too: the spawning thread runs the last chunk itself
/// under [`enter_worker`], and a caught panic there must not leave it
/// "in a worker" (serial for every later kernel) or under a stale thread
/// count.
struct Restore<T: Copy + 'static> {
    key: &'static std::thread::LocalKey<Cell<T>>,
    prev: T,
}

impl<T: Copy + 'static> Restore<T> {
    fn swap(key: &'static std::thread::LocalKey<Cell<T>>, value: T) -> Self {
        let prev = key.with(|c| c.replace(value));
        Self { key, prev }
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        let prev = self.prev;
        self.key.with(|c| c.set(prev));
    }
}

/// True when the machine exposes a single hardware thread. Chunked jobs then
/// run their chunks inline (same decomposition, no pool dispatch), since
/// workers could only time-slice against the calling thread.
fn single_core_host() -> bool {
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE.get_or_init(|| {
        // The configured pool size is irrelevant here: even a 4-thread pool
        // has one *effective* worker when the machine exposes one hardware
        // thread, and dispatching to it only adds scheduling overhead.
        std::thread::available_parallelism()
            .map(|c| c.get() <= 1)
            .unwrap_or(true)
    })
}

/// Dispatch-decision telemetry: how many kernel invocations went parallel
/// (multi-chunk) vs. stayed serial. Only accumulates while the `uvd_obs`
/// recorder is on.
static DISPATCH_PARALLEL: uvd_obs::Counter = uvd_obs::Counter::new("par.dispatch.parallel");
static DISPATCH_SERIAL: uvd_obs::Counter = uvd_obs::Counter::new("par.dispatch.serial");

/// Number of chunks a job of `work` estimated scalar ops over `items`
/// partitionable units should split into (1 = stay serial).
pub fn planned_chunks(items: usize, work: usize) -> usize {
    let chunks = if work < MIN_PAR_WORK {
        1
    } else {
        effective_threads().min(items).max(1)
    };
    if chunks > 1 {
        DISPATCH_PARALLEL.add(1);
    } else {
        DISPATCH_SERIAL.add(1);
    }
    chunks
}

/// Partition `out` into `n_items` logical items whose slice boundaries are
/// given by the monotone `bounds` map (`bounds(0) == 0`,
/// `bounds(n_items) == out.len()`), then process contiguous item ranges in
/// parallel: `f(item_range, chunk)` where `chunk` is
/// `out[bounds(range.start)..bounds(range.end)]`.
///
/// With uniform items (`bounds(i) = i * row_len`) this is plain row
/// partitioning; with ragged items (edge groups via `dst_ptr`) chunk
/// boundaries still align to item boundaries so every worker owns whole
/// items. Falls back to a single `f(0..n_items, out)` call when the work is
/// below threshold or one thread is configured.
pub fn for_each_disjoint<T, B, F>(out: &mut [T], n_items: usize, work: usize, bounds: B, f: F)
where
    T: Send,
    B: Fn(usize) -> usize,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    debug_assert_eq!(bounds(0), 0, "bounds must start at 0");
    debug_assert_eq!(bounds(n_items), out.len(), "bounds must cover out");
    let chunks = planned_chunks(n_items, work);
    if chunks <= 1 {
        f(0..n_items, out);
        return;
    }
    let base = n_items / chunks;
    let extra = n_items % chunks;
    if single_core_host() {
        // Same chunk boundaries, executed inline in ascending order.
        let mut rest = out;
        let mut item = 0usize;
        let mut off = 0usize;
        for c in 0..chunks {
            let end_item = item + base + usize::from(c < extra);
            let end_off = bounds(end_item);
            let (chunk, tail) = rest.split_at_mut(end_off - off);
            rest = tail;
            enter_worker(|| f(item..end_item, chunk));
            item = end_item;
            off = end_off;
        }
        return;
    }
    rayon::scope(|s| {
        let mut rest = out;
        let mut item = 0usize;
        let mut off = 0usize;
        let fr = &f;
        for c in 0..chunks {
            let end_item = item + base + usize::from(c < extra);
            let end_off = bounds(end_item);
            let (chunk, tail) = rest.split_at_mut(end_off - off);
            rest = tail;
            let range = item..end_item;
            if c + 1 == chunks {
                // The spawning thread takes the last chunk instead of
                // blocking idle while workers run.
                enter_worker(|| fr(range, chunk));
            } else {
                s.spawn(move || enter_worker(|| fr(range, chunk)));
            }
            item = end_item;
            off = end_off;
        }
    });
}

/// Two-buffer variant of [`for_each_disjoint`] for structure-of-arrays
/// outputs (a CSR's `indices`/`values`, an edge list's `src`/`dst`): both
/// slices share one `bounds` map and are partitioned at the same item
/// boundaries, so each worker owns the same contiguous item range in both.
/// Chunk decomposition, dispatch policy and execution order are exactly
/// [`for_each_disjoint`]'s.
pub fn for_each_disjoint2<T, U, B, F>(
    out_a: &mut [T],
    out_b: &mut [U],
    n_items: usize,
    work: usize,
    bounds: B,
    f: F,
) where
    T: Send,
    U: Send,
    B: Fn(usize) -> usize,
    F: Fn(Range<usize>, &mut [T], &mut [U]) + Sync,
{
    debug_assert_eq!(bounds(0), 0, "bounds must start at 0");
    debug_assert_eq!(bounds(n_items), out_a.len(), "bounds must cover out_a");
    debug_assert_eq!(out_a.len(), out_b.len(), "outputs must share a layout");
    let chunks = planned_chunks(n_items, work);
    if chunks <= 1 {
        f(0..n_items, out_a, out_b);
        return;
    }
    let base = n_items / chunks;
    let extra = n_items % chunks;
    if single_core_host() {
        let (mut rest_a, mut rest_b) = (out_a, out_b);
        let mut item = 0usize;
        let mut off = 0usize;
        for c in 0..chunks {
            let end_item = item + base + usize::from(c < extra);
            let end_off = bounds(end_item);
            let (chunk_a, tail_a) = rest_a.split_at_mut(end_off - off);
            let (chunk_b, tail_b) = rest_b.split_at_mut(end_off - off);
            rest_a = tail_a;
            rest_b = tail_b;
            enter_worker(|| f(item..end_item, chunk_a, chunk_b));
            item = end_item;
            off = end_off;
        }
        return;
    }
    rayon::scope(|s| {
        let (mut rest_a, mut rest_b) = (out_a, out_b);
        let mut item = 0usize;
        let mut off = 0usize;
        let fr = &f;
        for c in 0..chunks {
            let end_item = item + base + usize::from(c < extra);
            let end_off = bounds(end_item);
            let (chunk_a, tail_a) = rest_a.split_at_mut(end_off - off);
            let (chunk_b, tail_b) = rest_b.split_at_mut(end_off - off);
            rest_a = tail_a;
            rest_b = tail_b;
            let range = item..end_item;
            if c + 1 == chunks {
                enter_worker(|| fr(range, chunk_a, chunk_b));
            } else {
                s.spawn(move || enter_worker(|| fr(range, chunk_a, chunk_b)));
            }
            item = end_item;
            off = end_off;
        }
    });
}

/// Row-uniform specialization of [`for_each_disjoint`]: `out` is a row-major
/// buffer of rows of length `row_len`; `f(row_range, chunk)` gets the rows
/// in `row_range` as one contiguous mutable slice.
pub fn for_each_row_block<T, F>(out: &mut [T], row_len: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let rows = out.len().checked_div(row_len).unwrap_or(0);
    for_each_disjoint(out, rows, work, |i| i * row_len, f);
}

/// Map contiguous item ranges to partial results, returned in ascending
/// chunk order. Callers reduce the parts in that order, which makes the
/// reduction deterministic for a fixed thread configuration.
pub fn map_chunks<R, F>(n_items: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunks = planned_chunks(n_items, work);
    if chunks <= 1 {
        return vec![f(0..n_items)];
    }
    let base = n_items / chunks;
    let extra = n_items % chunks;
    if single_core_host() {
        let mut parts = Vec::with_capacity(chunks);
        let mut item = 0usize;
        for c in 0..chunks {
            let end_item = item + base + usize::from(c < extra);
            parts.push(enter_worker(|| f(item..end_item)));
            item = end_item;
        }
        return parts;
    }
    let mut slots: Vec<Option<R>> = (0..chunks).map(|_| None).collect();
    rayon::scope(|s| {
        let fr = &f;
        let mut item = 0usize;
        let mut rest = &mut slots[..];
        for c in 0..chunks {
            let end_item = item + base + usize::from(c < extra);
            let (slot, tail) = rest.split_first_mut().expect("one slot per chunk");
            rest = tail;
            let range = item..end_item;
            if c + 1 == chunks {
                enter_worker(|| *slot = Some(fr(range)));
            } else {
                s.spawn(move || enter_worker(|| *slot = Some(fr(range))));
            }
            item = end_item;
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("chunk completed"))
        .collect()
}

/// Run `n` independent coarse tasks (no work-size threshold — callers use
/// this for whole model fits, not kernels), returning results in task-index
/// order. One pool job per task, so heterogeneous task durations load-balance
/// across the configured threads. Each task runs with nested kernel
/// parallelism disabled.
pub fn run_tasks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    if single_core_host() {
        return (0..n).map(|i| enter_worker(|| f(i))).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    rayon::scope(|s| {
        let fr = &f;
        for (i, slot) in slots.iter_mut().enumerate() {
            s.spawn(move || enter_worker(|| *slot = Some(fr(i))));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_blocks_cover_everything_once() {
        let mut out = vec![0u32; 40];
        with_threads(4, || {
            // Force the parallel path with an inflated work estimate.
            for_each_row_block(&mut out, 4, MIN_PAR_WORK, |rows, chunk| {
                assert_eq!(chunk.len(), rows.len() * 4);
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += (rows.start * 4 + k) as u32;
                }
            });
        });
        // Every element written exactly once with its own index.
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn below_threshold_stays_serial_and_identical() {
        let mut a = vec![0u32; 16];
        let mut b = vec![0u32; 16];
        for_each_row_block(&mut a, 4, 10, |rows, chunk| {
            assert_eq!(rows, 0..4);
            chunk.iter_mut().for_each(|v| *v = 7);
        });
        with_threads(8, || {
            for_each_row_block(&mut b, 4, 10, |_, chunk| {
                chunk.iter_mut().for_each(|v| *v = 7);
            });
        });
        assert_eq!(a, b);
    }

    #[test]
    fn ragged_bounds_align_to_items() {
        // Items of ragged sizes 0,3,1,0,4,2 (prefix sums as bounds).
        let ptr = [0usize, 0, 3, 4, 4, 8, 10];
        let mut out = vec![0u8; 10];
        with_threads(3, || {
            for_each_disjoint(
                &mut out,
                6,
                MIN_PAR_WORK,
                |i| ptr[i],
                |items, chunk| {
                    assert_eq!(chunk.len(), ptr[items.end] - ptr[items.start]);
                    chunk.iter_mut().for_each(|v| *v += 1);
                },
            );
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn disjoint2_covers_both_buffers_once() {
        // Ragged items 0,3,1,0,4,2; both outputs partitioned identically.
        let ptr = [0usize, 0, 3, 4, 4, 8, 10];
        let mut a = vec![0u8; 10];
        let mut b = vec![0u16; 10];
        with_threads(3, || {
            for_each_disjoint2(
                &mut a,
                &mut b,
                6,
                MIN_PAR_WORK,
                |i| ptr[i],
                |items, ca, cb| {
                    assert_eq!(ca.len(), ptr[items.end] - ptr[items.start]);
                    assert_eq!(ca.len(), cb.len());
                    ca.iter_mut().for_each(|v| *v += 1);
                    cb.iter_mut().for_each(|v| *v += 2);
                },
            );
        });
        assert!(a.iter().all(|&v| v == 1));
        assert!(b.iter().all(|&v| v == 2));
    }

    #[test]
    fn map_chunks_orders_partials() {
        let parts = with_threads(4, || map_chunks(10, MIN_PAR_WORK, |r| r.clone()));
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.first().unwrap().start, 0);
        assert_eq!(parts.last().unwrap().end, 10);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn run_tasks_index_ordered_and_serial_inside() {
        let out = with_threads(4, || {
            run_tasks(9, |i| {
                assert!(in_worker());
                assert_eq!(effective_threads(), 1);
                i * i
            })
        });
        assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn effective_workers_clamps_to_available_parallelism() {
        assert_eq!(effective_workers(0), 1);
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        assert_eq!(effective_workers(4), 4.min(cores));
        // Oversubscription requests collapse to the core count rather than
        // reporting workers that can only time-slice.
        assert_eq!(effective_workers(cores + 100), cores);
        if cores <= 1 {
            assert_eq!(
                effective_workers(4),
                1,
                "inline dispatch must report one worker"
            );
        }
    }

    #[test]
    fn thread_env_parser_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("0"), None, "zero threads is meaningless");
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("2.5"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn workers_force_serial_nested_dispatch() {
        with_threads(4, || {
            for_each_row_block(&mut [0u8; 8], 1, MIN_PAR_WORK, |_, _| {
                assert_eq!(planned_chunks(8, MIN_PAR_WORK), 1, "nested stays serial");
            });
        });
    }
}
