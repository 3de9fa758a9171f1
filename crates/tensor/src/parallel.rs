//! Shared data-parallel runtime for the compute backend.
//!
//! DP-SGD's hot path is embarrassingly parallel along two axes: the M
//! dimension of every GEMM and the batch dimension of per-example gradient
//! derivation (paper Algorithm 1 lines 16–25 — each example's gradient,
//! norm and clip factor is independent). This module provides the one
//! scoped execution configuration every parallel kernel in the workspace
//! consults, [`Backend`], so nested parallel regions cannot oversubscribe
//! the machine and concurrent callers cannot observe each other's settings.
//!
//! Design notes:
//!
//! * Workers live in a **persistent keep-alive pool** (the crate-private
//!   `pool` module):
//!   lazily spawned on first use, parked on a condvar between regions, and
//!   never torn down. A region fixes task-to-data assignment before
//!   execution starts, so scheduling can never influence results (see the
//!   pool docs for the bit-stability argument); two back-to-back regions
//!   reuse the same OS threads instead of paying spawn/join per region as
//!   the original `std::thread::scope` design did. [`prewarm`] (or
//!   [`Backend::prewarm`]) spawns the workers ahead of the first hot
//!   region; [`pool_stats`] exposes occupancy and scheduling counters for
//!   tests, benches and `diva-serve`'s `/stats`.
//! * **Nested regions are scheduled hierarchically**, not serialized: a
//!   parallel call made from inside a region's task (the GEMM under a
//!   batch-parallel per-example backward, a cell's compute under the
//!   scenario grid) queues its tasks on the shared pool, where idle
//!   workers steal them; the nested caller executes its own queued tasks
//!   while it waits, so the nested region never deadlocks and never runs
//!   slower than running it serially. The *data* split of a nested region
//!   is still decided by its requested width before execution — scheduling
//!   decides who runs a task, never what a task computes.
//! * [`Backend`] is the only execution setting: a thread count and a GEMM
//!   [`Kernel`]. Installing one scopes both to a closure on the calling
//!   thread, which is how `DpTrainer`, `diva-serve` and the benches pick
//!   serial vs. parallel execution and the reference vs. blocked kernels
//!   without touching global state. The backend travels *with the region*:
//!   a task executing on a stolen worker sees the submitting thread's
//!   backend, not the worker's.
//!
//! A thread with no backend installed runs [`Backend::auto`]: the default
//! width ([`max_threads`]) on the best kernel the build and CPU support.

use crate::gemm::Kernel;
use crate::pool;
pub use crate::pool::PoolStats;
use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Regions nested deeper than this run serially: by then every level of
/// the machine is saturated and further task-splitting is pure overhead
/// (the depth is data-flow determined, so the cutoff is deterministic).
/// Depth 1 is an un-nested region; the deepest real chain in this
/// workspace is scenario grid → per-example backward → GEMM M-split = 3.
const MAX_REGION_DEPTH: usize = 4;

thread_local! {
    /// Nesting depth of the region task currently executing on this thread
    /// (0 = not inside any region). Tasks carry their submitting region's
    /// depth + 1, whichever thread they execute on.
    static REGION_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// The backend installed by [`Backend::install`]; `None` runs
    /// [`Backend::auto`]. Region tasks re-install their submitter's value
    /// while they run.
    static INSTALLED: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The nesting depth of the parallel region this thread is currently
/// executing a task of (0 = top level). Diagnostics/tests.
pub fn region_depth() -> usize {
    REGION_DEPTH.with(Cell::get)
}

/// The default worker-thread count: `DIVA_NUM_THREADS` if set to a positive
/// integer, else the number of available cores. Read once per process.
pub fn max_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("DIVA_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The thread count parallel kernels should use *right now* on this thread:
/// the installed [`Backend`]'s width — even inside an existing parallel
/// region, because nested regions are scheduled for real (their tasks run
/// on idle workers, or on the caller while it waits). Collapses to 1 only
/// inside a region already `MAX_REGION_DEPTH` levels deep.
pub fn effective_threads() -> usize {
    if REGION_DEPTH.with(Cell::get) >= MAX_REGION_DEPTH {
        1
    } else {
        Backend::current().threads()
    }
}

/// Spawns (and parks) the workers an `n`-way region needs — `n - 1`, since
/// the calling thread always executes the region's last task — so the first
/// hot region does not pay thread-spawn latency. Idempotent: the pool never
/// shrinks and existing workers count. A no-op for `n <= 1`.
pub fn prewarm(n: usize) {
    if n > 1 {
        pool::Pool::global().ensure_workers(n - 1);
    }
}

/// Occupancy of the persistent worker pool (see [`PoolStats`]).
pub fn pool_stats() -> PoolStats {
    pool::Pool::global().stats()
}

/// The scoped execution configuration of the compute backend: a
/// worker-thread count and the GEMM [`Kernel`], threaded through
/// `DpTrainer`, `diva-serve` and the bench drivers.
///
/// # Example
///
/// ```
/// use diva_tensor::{Backend, Kernel};
/// let serial = Backend::serial();
/// assert_eq!(serial.threads(), 1);
/// let auto = Backend::auto();
/// assert!(auto.threads() >= 1);
/// assert_eq!(auto.kernel(), Kernel::best());
/// // A request for an arm the build or CPU lacks runs the best one it has.
/// assert_eq!(serial.with_kernel(Kernel::Avx512).kernel(), Kernel::best());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Backend {
    threads: usize,
    kernel: Kernel,
}

impl Backend {
    /// A single-threaded backend on the best kernel.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A parallel backend of the default width ([`max_threads`]) on the
    /// best kernel.
    pub fn auto() -> Self {
        Self::with_threads(max_threads())
    }

    /// A parallel backend capped at `threads` workers, on the best kernel.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` (use [`Backend::auto`] for "default").
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "use Backend::auto() for the default count");
        Self {
            threads,
            kernel: Kernel::best(),
        }
    }

    /// This backend with its GEMMs on `kernel`, capped at [`Kernel::best`]:
    /// a build or CPU without an arm runs the fastest arm it has instead.
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        Self {
            kernel: kernel.min(Kernel::best()),
            ..self
        }
    }

    /// The backend in force on the calling thread: the one installed by
    /// [`Backend::install`] (or carried in by the region task it is
    /// executing), else [`Backend::auto`].
    pub(crate) fn current() -> Self {
        INSTALLED.with(Cell::get).unwrap_or_else(Backend::auto)
    }

    /// The worker-thread count this backend runs regions at.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The GEMM arm this backend runs.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// A short label for tables and benchmark records.
    pub fn label(&self) -> String {
        match self.threads {
            1 => "serial".to_string(),
            n => format!("parallel({n})"),
        }
    }

    /// Runs `f` with this backend installed on the current thread. The
    /// previous backend is restored on every exit path — normal return or
    /// unwinding panic — so a caller that catches a panic never observes a
    /// stale one.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = SetCell::new(&INSTALLED, Some(*self));
        f()
    }

    /// Ensures the shared keep-alive pool has the workers this backend's
    /// parallel regions will use (see [`prewarm`]). `DpTrainer`,
    /// `diva-serve` and the bench drivers call this at configuration time
    /// so the first training step, request or measured iteration runs at
    /// steady-state pool occupancy.
    pub fn prewarm(&self) {
        prewarm(self.threads);
    }
}

/// Sets a thread-local `Cell` and restores the previous value on drop, so
/// panics unwinding through a parallel region cannot leave the thread's
/// scheduling state (`REGION_DEPTH`, `INSTALLED`) permanently stuck.
struct SetCell<T: Copy + 'static> {
    key: &'static LocalKey<Cell<T>>,
    prev: T,
}

impl<T: Copy + 'static> SetCell<T> {
    fn new(key: &'static LocalKey<Cell<T>>, value: T) -> Self {
        let prev = key.with(Cell::get);
        key.with(|c| c.set(value));
        Self { key, prev }
    }
}

impl<T: Copy + 'static> Drop for SetCell<T> {
    fn drop(&mut self) {
        self.key.with(|c| c.set(self.prev));
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::auto()
    }
}

/// Splits `n` items into at most `parts` contiguous ranges of near-equal
/// length (first `n % parts` ranges get one extra item). Empty when `n == 0`.
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for w in 0..parts {
        let len = base + usize::from(w < rem);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Extracts a human-readable message from a caught panic payload
/// (`panic!` with a `&str` or formatted `String`; anything else reports
/// its opacity). Shared by [`try_par_map`] and the scenario layer's cell
/// supervisor, which classify caught panics into typed failure records.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The **fallible region variant** of [`par_map`]: maps `f` over `0..n`
/// on the shared keep-alive pool, catching each item's panic individually
/// instead of letting the region re-raise the first one. Every item runs
/// to completion — one panicking item cannot unwind the region or starve
/// its siblings — and the result preserves index order: `Ok(value)` for
/// items that returned, `Err(message)` for items that panicked.
///
/// This is the primitive behind the scenario engine's per-cell
/// supervisor: a grid of independent evaluations where one poisoned cell
/// must degrade to an error record, not abort the experiment.
///
/// Determinism matches [`par_map`]: task-to-data assignment is fixed
/// before execution, so results (including which items fail) are
/// identical for every worker-thread count.
pub fn try_par_map<T, F>(n: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    par_map(n, |i| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| panic_message(p.as_ref()))
    })
}

/// The scheduling context a region's tasks carry with them: the
/// submitter's installed backend and the region's nesting depth.
/// Installing it on the executing thread (worker, stealer, or helping
/// waiter) makes nested `Backend::current()` calls resolve exactly as they
/// would have on the submitting thread — context flows lexically with the
/// region tree, never with the OS thread, which is what keeps data splits
/// and kernel choices deterministic under work-stealing.
#[derive(Clone, Copy)]
struct RegionCtx {
    backend: Option<Backend>,
    depth: usize,
}

impl RegionCtx {
    /// The context tasks of a region submitted from this thread must run
    /// under: same backend, one level deeper.
    fn capture() -> Self {
        Self {
            backend: INSTALLED.with(Cell::get),
            depth: REGION_DEPTH.with(Cell::get) + 1,
        }
    }

    /// Installs the context for the duration of a task body.
    fn install(self) -> (SetCell<Option<Backend>>, SetCell<usize>) {
        (
            SetCell::new(&INSTALLED, self.backend),
            SetCell::new(&REGION_DEPTH, self.depth),
        )
    }
}

/// Maps `f` over `0..n` on the shared keep-alive pool, returning results in
/// index order. Runs serially when the effective thread count is 1 or
/// `n < 2`; a call nested inside another parallel region fans out onto
/// idle workers (see the module docs).
///
/// Determinism: range `w` of the deterministic `split_ranges` partition
/// always writes slots
/// `range.start..range.end`, whichever pool worker executes it, so the
/// output is identical for every thread count and scheduling order.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let ctx = RegionCtx::capture();
    let ranges = split_ranges(n, threads);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let f = &f;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
        let mut rest: &mut [Option<T>] = &mut slots;
        for range in ranges {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            tasks.push(Box::new(move || {
                let _ctx = ctx.install();
                for (slot, i) in head.iter_mut().zip(range) {
                    *slot = Some(f(i));
                }
            }));
        }
        // The last task runs inline on the calling thread; the rest are
        // queued for idle (or stealing) pool workers.
        pool::run_region(tasks, ctx.depth);
    }
    slots
        .into_iter()
        .map(|o| o.expect("parallel worker left a slot empty"))
        .collect()
}

/// Runs `f` over disjoint chunks of `data` (each `chunk_len` items, last one
/// shorter) on the shared keep-alive pool. `f` receives the chunk index and
/// the chunk.
///
/// This is the mutable-output primitive the blocked GEMM parallelizes over:
/// each region task owns a contiguous run of chunks (a contiguous row-block
/// of the output matrix), fixed before execution starts, so results are
/// identical for every thread count and scheduling order.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = effective_threads().min(n_chunks);
    if threads <= 1 {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    // Distribute whole chunks across tasks: task w handles a contiguous
    // run of chunks, so each worker still touches a contiguous byte range.
    let ctx = RegionCtx::capture();
    let ranges = split_ranges(n_chunks, threads);
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut rest: &mut [T] = data;
    let mut consumed = 0usize;
    for range in ranges {
        let end_item = (range.end * chunk_len).min(consumed + rest.len());
        let (head, tail) = rest.split_at_mut(end_item - consumed);
        rest = tail;
        consumed = end_item;
        tasks.push(Box::new(move || {
            let _ctx = ctx.install();
            for (off, chunk) in head.chunks_mut(chunk_len).enumerate() {
                f(range.start + off, chunk);
            }
        }));
    }
    pool::run_region(tasks, ctx.depth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matmul, matmul_reference, DivaRng, Tensor};
    use std::sync::{Barrier, Condvar, Mutex};
    use std::time::Duration;

    /// A blocked-path GEMM (K spans two panels, so the blocked kernels
    /// round differently from the reference) and its reference bits.
    fn blocked_case() -> (Tensor, Tensor, Vec<u32>) {
        let mut rng = DivaRng::seed_from_u64(9);
        let a = Tensor::uniform(&[97, 803], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform(&[803, 51], -1.0, 1.0, &mut rng);
        let reference = bits(&matmul_reference(&a, &b));
        (a, b, reference)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut data = vec![0u32; 103];
        par_chunks_mut(&mut data, 10, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + idx as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 10) as u32, "wrong value at {i}");
        }
    }

    #[test]
    fn nested_regions_track_depth_and_produce_identical_results() {
        // Force a real two-level region tree (a plain call would degrade to
        // serial on a single-core host) and check every inner task observes
        // depth 2 wherever it executed, with index-ordered results.
        let outer = Backend::with_threads(2)
            .install(|| par_map(4, |i| par_map(4, |j| (region_depth(), i * 10 + j))));
        for (i, inner) in outer.iter().enumerate() {
            for (j, (depth, v)) in inner.iter().enumerate() {
                assert_eq!(*depth, 2, "inner task at wrong depth");
                assert_eq!(*v, i * 10 + j);
            }
        }
        assert_eq!(region_depth(), 0, "depth must be restored after regions");
    }

    #[test]
    fn depth_cutoff_forces_serial_beyond_max_depth() {
        // Simulate a task executing at the cutoff depth: effective_threads
        // must collapse to 1 regardless of the configured width.
        let _depth = SetCell::new(&REGION_DEPTH, MAX_REGION_DEPTH);
        assert_eq!(effective_threads(), 1);
    }

    #[test]
    fn backend_install_scopes_thread_count() {
        let serial = Backend::serial();
        let observed = serial.install(effective_threads);
        assert_eq!(observed, 1);
        let two = Backend::with_threads(2);
        assert_eq!(two.install(effective_threads), 2);
        // Restored afterwards.
        assert_eq!(INSTALLED.with(Cell::get), None, "backend must be restored");
    }

    /// A region task runs under its submitter's backend wherever it
    /// executes: every item of a 4-wide `Reference` region is bitwise the
    /// reference GEMM, including items run by pool workers.
    #[test]
    fn tasks_carry_the_submitters_backend() {
        let (a, b, reference) = blocked_case();
        assert_ne!(
            bits(&matmul(&a, &b)),
            reference,
            "the default kernel must differ from the reference, or this test cannot fail"
        );
        let caller = std::thread::current().id();
        let (off_caller, started) = (Mutex::new(false), Condvar::new());
        let backend = Backend::with_threads(4).with_kernel(Kernel::Reference);
        let items = backend.install(|| {
            par_map(8, |_| {
                let mut ran = off_caller.lock().unwrap();
                if std::thread::current().id() == caller {
                    // Hold the caller until a worker has started an item, so
                    // it cannot run every task itself while it waits.
                    let timeout = Duration::from_secs(30);
                    drop(
                        started
                            .wait_timeout_while(ran, timeout, |ran| !*ran)
                            .unwrap(),
                    );
                } else {
                    *ran = true;
                    started.notify_all();
                    drop(ran);
                }
                bits(&matmul(&a, &b))
            })
        });
        assert!(*off_caller.lock().unwrap(), "no item ran off the caller");
        for (i, item) in items.iter().enumerate() {
            assert_eq!(*item, reference, "item {i} left the reference kernel");
        }
    }

    /// Two threads running GEMMs at the same time under different backends
    /// never see each other's kernel.
    #[test]
    fn concurrent_backends_do_not_leak() {
        let (a, b, reference) = blocked_case();
        let blocked = bits(&matmul(&a, &b));
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                Backend::auto().with_kernel(Kernel::Reference).install(|| {
                    start.wait();
                    for i in 0..50 {
                        assert_eq!(bits(&matmul(&a, &b)), reference, "reference GEMM {i}");
                    }
                });
            });
            s.spawn(|| {
                start.wait();
                for i in 0..50 {
                    assert_eq!(bits(&matmul(&a, &b)), blocked, "default GEMM {i}");
                }
            });
        });
    }

    #[test]
    fn install_restores_state_on_panic() {
        let result =
            std::panic::catch_unwind(|| Backend::with_threads(3).install(|| panic!("boom")));
        assert!(result.is_err());
        assert_eq!(
            INSTALLED.with(Cell::get),
            None,
            "backend must be restored after an unwinding panic"
        );
        let result = std::panic::catch_unwind(|| {
            par_map(2, |i| if i == 1 { panic!("worker boom") } else { i })
        });
        assert!(result.is_err());
        assert_eq!(
            REGION_DEPTH.with(Cell::get),
            0,
            "REGION_DEPTH must not stick after a worker panic"
        );
    }

    #[test]
    fn split_ranges_covers_everything() {
        for n in [0usize, 1, 7, 64, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
            }
        }
    }
}
