//! Shared data-parallel runtime for the compute backend.
//!
//! DP-SGD's hot path is embarrassingly parallel along two axes: the M
//! dimension of every GEMM and the batch dimension of per-example gradient
//! derivation (paper Algorithm 1 lines 16–25 — each example's gradient,
//! norm and clip factor is independent). This module provides the one
//! process-wide thread configuration every parallel kernel in the workspace
//! consults, so nested parallel regions and the figure binaries cannot
//! oversubscribe the machine.
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
//!   slower than the old collapse-to-serial behavior. The *data* split of
//!   a nested region is still decided by its requested width before
//!   execution — scheduling decides who runs a task, never what a task
//!   computes. [`set_nested_parallelism`] restores the legacy serial
//!   collapse (a bench/bisect hook; results are bit-identical either way).
//! * [`Backend`] is the user-facing knob. Installing one scopes a thread
//!   count to a closure, which is how `DpTrainer` and the benches sweep
//!   serial vs. parallel execution without touching global state. The
//!   override travels *with the region*: a task executing on a stolen
//!   worker sees the submitting thread's backend, not the worker's.
//!
//! The process-wide default is `DIVA_NUM_THREADS` if set, else the number of
//! available cores.

use crate::pool;
pub use crate::pool::PoolStats;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::LocalKey;

/// Process-wide default thread count; 0 means "not yet initialized".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// When cleared, nested parallel regions collapse to serial execution on
/// their calling thread (the pre-work-stealing behavior). Stored inverted
/// so the default (`false`) means "nested scheduling on".
static NESTED_DISABLED: AtomicBool = AtomicBool::new(false);

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
    /// Per-thread override installed by [`Backend::install`]; 0 = none.
    /// Region tasks re-install their submitter's override while they run.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Enables or disables hierarchical scheduling of nested parallel regions
/// process-wide. Disabled, a nested region runs serially on its calling
/// thread — the legacy behavior. Results are bit-identical either way
/// (pinned by the scenario/explorer byte-identity suites); only
/// scheduling, and therefore throughput, changes.
pub fn set_nested_parallelism(enabled: bool) {
    NESTED_DISABLED.store(!enabled, Ordering::Relaxed);
}

/// Whether nested parallel regions are currently scheduled hierarchically
/// (the default) rather than collapsed to serial.
pub fn nested_parallelism() -> bool {
    !NESTED_DISABLED.load(Ordering::Relaxed)
}

/// The nesting depth of the parallel region this thread is currently
/// executing a task of (0 = top level). Diagnostics/tests.
pub fn region_depth() -> usize {
    REGION_DEPTH.with(Cell::get)
}

fn default_threads() -> usize {
    std::env::var("DIVA_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The process-wide maximum number of worker threads.
pub fn max_threads() -> usize {
    let cur = GLOBAL_THREADS.load(Ordering::Relaxed);
    if cur != 0 {
        return cur;
    }
    let n = default_threads();
    // Racing initializers compute the same value; either store wins.
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Overrides the process-wide maximum worker-thread count.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn set_max_threads(n: usize) {
    assert!(n > 0, "thread count must be positive");
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The thread count parallel kernels should use *right now* on this thread:
/// the installed [`Backend`] override or the global default — even inside
/// an existing parallel region, because nested regions are scheduled for
/// real (their tasks run on idle workers, or on the caller while it waits).
/// Collapses to 1 inside a region only when nested parallelism is disabled
/// ([`set_nested_parallelism`]) or the region is already
/// `MAX_REGION_DEPTH` levels deep.
pub fn effective_threads() -> usize {
    let depth = REGION_DEPTH.with(Cell::get);
    if depth > 0 && (!nested_parallelism() || depth >= MAX_REGION_DEPTH) {
        return 1;
    }
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        max_threads()
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

/// Execution configuration for the compute backend, threaded through
/// `DpTrainer` and the bench drivers.
///
/// # Example
///
/// ```
/// use diva_tensor::Backend;
/// let serial = Backend::serial();
/// assert_eq!(serial.threads(), 1);
/// let auto = Backend::auto();
/// assert!(auto.threads() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Single-threaded reference execution.
    Serial,
    /// Parallel execution on the shared pool; `threads == 0` means "use the
    /// process-wide default" (see [`max_threads`]).
    Parallel {
        /// Worker-thread cap for this backend; 0 = process default.
        threads: usize,
    },
}

impl Backend {
    /// A single-threaded backend.
    pub fn serial() -> Self {
        Backend::Serial
    }

    /// A parallel backend using the process-wide default thread count.
    pub fn auto() -> Self {
        Backend::Parallel { threads: 0 }
    }

    /// A parallel backend capped at `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` (use [`Backend::auto`] for "default").
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "use Backend::auto() for the default count");
        Backend::Parallel { threads }
    }

    /// The concrete thread count this backend resolves to.
    pub fn threads(&self) -> usize {
        match self {
            Backend::Serial => 1,
            Backend::Parallel { threads: 0 } => max_threads(),
            Backend::Parallel { threads } => *threads,
        }
    }

    /// A short label for tables and benchmark records.
    pub fn label(&self) -> String {
        match self {
            Backend::Serial => "serial".to_string(),
            b => format!("parallel({})", b.threads()),
        }
    }

    /// Runs `f` with this backend's thread count installed on the current
    /// thread. The previous value is restored on every exit path — normal
    /// return or unwinding panic — so a caller that catches a panic never
    /// observes a stale override.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = SetCell::new(&THREAD_OVERRIDE, self.threads());
        f()
    }

    /// Ensures the shared keep-alive pool has the workers this backend's
    /// parallel regions will use (see [`prewarm`]). `DpTrainer` and the
    /// bench drivers call this at configuration time so the first training
    /// step or measured iteration runs at steady-state pool occupancy.
    pub fn prewarm(&self) {
        prewarm(self.threads());
    }
}

/// Sets a thread-local `Cell` and restores the previous value on drop, so
/// panics unwinding through a parallel region cannot leave the thread's
/// scheduling state (`REGION_DEPTH`, `THREAD_OVERRIDE`) permanently stuck.
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
/// submitter's backend override and the region's nesting depth. Installing
/// it on the executing thread (worker, stealer, or helping waiter) makes
/// nested `effective_threads()` calls resolve exactly as they would have
/// on the submitting thread — context flows lexically with the region
/// tree, never with the OS thread, which is what keeps data splits
/// deterministic under work-stealing.
#[derive(Clone, Copy)]
struct RegionCtx {
    thread_override: usize,
    depth: usize,
}

impl RegionCtx {
    /// The context tasks of a region submitted from this thread must run
    /// under: same override, one level deeper.
    fn capture() -> Self {
        Self {
            thread_override: THREAD_OVERRIDE.with(Cell::get),
            depth: REGION_DEPTH.with(Cell::get) + 1,
        }
    }

    /// Installs the context for the duration of a task body.
    fn install(self) -> (SetCell<usize>, SetCell<usize>) {
        (
            SetCell::new(&THREAD_OVERRIDE, self.thread_override),
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
    use std::sync::{Mutex, MutexGuard};

    /// Taken by the tests that flip or observe the process-wide nesting
    /// toggle, which the test harness would otherwise run concurrently.
    static NESTING_LOCK: Mutex<()> = Mutex::new(());

    fn nesting_guard() -> MutexGuard<'static, ()> {
        NESTING_LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
        let _guard = nesting_guard();
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
    fn nested_parallelism_toggle_collapses_inner_regions() {
        let _guard = nesting_guard();
        set_nested_parallelism(false);
        let counts = par_map(2, |_| par_map(2, |_| effective_threads()));
        set_nested_parallelism(true);
        // With the legacy collapse restored, any task that ran inside a
        // real (fanned-out) region must have seen width 1; tasks of a
        // serially-degraded outer region run at depth 0 and may see more.
        for inner in counts {
            for c in inner {
                assert!(c <= max_threads());
            }
        }
        assert!(nested_parallelism(), "toggle must be restored");
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
        assert_eq!(
            THREAD_OVERRIDE.with(Cell::get),
            0,
            "override must be restored"
        );
    }

    #[test]
    fn install_restores_state_on_panic() {
        let result =
            std::panic::catch_unwind(|| Backend::with_threads(3).install(|| panic!("boom")));
        assert!(result.is_err());
        assert_eq!(
            THREAD_OVERRIDE.with(Cell::get),
            0,
            "override must be restored after an unwinding panic"
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
