//! The persistent work-stealing worker pool behind [`crate::parallel`].
//!
//! # Lifecycle
//!
//! Workers are **lazily spawned and never exit**: the first parallel region
//! that needs `W` ways spawns `W - 1` worker threads (the calling thread is
//! always the region's last worker), and every later region reuses them.
//! Between regions a worker is *parked* on a condvar inside
//! [`Pool::worker_loop`] — it consumes no CPU and wakes only when a job is
//! submitted. The pool grows monotonically to the largest region width ever
//! requested and is shared by every parallel kernel in the workspace: the
//! GEMM M-split, the per-example backward fan-out, the clip-reduce, the
//! scenario runner's cell grid (`diva_bench::run_parallel`).
//!
//! # Hierarchical scheduling
//!
//! Earlier revisions forced any region nested inside another region to run
//! serially on its worker (a thread-local `IN_PARALLEL` flag). This pool
//! schedules nested regions for real, with two mechanisms:
//!
//! * **Per-worker deques + stealing.** Every worker owns a deque. A region
//!   submitted from a worker pushes its tasks onto that worker's own deque;
//!   a region submitted from a non-pool thread pushes onto a shared
//!   injector queue. A worker looking for work pops its own deque first
//!   (newest-first — the task whose data its caches are warm for), then
//!   the injector, then *steals* oldest-first from a sibling's deque. An
//!   idle worker therefore drains whatever region — outer grid cell or
//!   nested GEMM — currently has queued work, instead of sleeping while a
//!   sibling's nested region runs serially.
//! * **Helping waiters.** A region caller that reaches its completion latch
//!   with tasks still pending does not park immediately: it pops and runs
//!   pending jobs (its own region's first, then anything it can steal)
//!   until its latch opens. This is what makes nested regions deadlock-free
//!   — a worker blocked on an inner region's latch executes that region's
//!   queued tasks itself if no sibling is idle, so the inner region
//!   degrades to serial-on-the-worker in the worst case and fans out
//!   across idle workers in the best case.
//!
//! All queues hang off one pool mutex: queue operations are tens of
//! nanoseconds against region tasks that are microseconds at minimum (the
//! splitting heuristics in [`crate::parallel`] and the GEMM's
//! rows-per-worker floor see to that), so a single lock is not a
//! contention concern at the widths this repo targets, and it keeps the
//! park/wake protocol auditable. The deque *discipline* (own-newest /
//! steal-oldest) is what buys locality, not lock granularity.
//!
//! # Bit-stability under stealing
//!
//! [`run_region`] takes the region's tasks in range order; task-to-*data*
//! assignment is decided by the caller **before** submission (each task owns
//! its output range), so which OS thread happens to execute a task — worker,
//! stealer, or helping waiter — can never affect results. Scheduling moves
//! *execution*, never *data*. The byte-identity guarantees of the scenario
//! and explorer layers (same document at any thread count and under
//! kill/resume) rest on exactly this line.
//!
//! # Panics
//!
//! A task that panics does not kill its worker: the panic is caught, the
//! first payload is stashed in the region's latch, and [`run_region`]
//! re-raises it on the calling thread after the region completes — the same
//! observable behavior as `std::thread::scope`, including for a panic in a
//! *nested* region: it re-raises at the nested region's caller (inside the
//! outer task), and from there propagates like any other task panic.
//! Callers that need per-task failure *isolation* instead of region-wide
//! re-raise (the scenario engine's cell supervisor) use
//! [`crate::parallel::try_par_map`], which catches each item's panic inside
//! the task itself so the region always completes with a `Result` per item.
//!
//! # Why the one `unsafe` block is sound
//!
//! Tasks borrow the caller's stack (`&mut` output ranges, `&` operands), so
//! their true lifetime is the region's `'scope`, but the deques store
//! `'static` jobs. [`run_region`] erases the lifetime with a transmute and
//! restores soundness by construction: it does not return — not even by
//! unwinding, the inline task and every helped job run under
//! `catch_unwind` — until the latch counted every submitted job as
//! complete. The latch is decremented strictly *after* a job finished
//! (normally or by panic), so no job can outlive the borrows it holds.
//! Helping does not weaken the argument: a waiter executing a stolen job
//! runs it to completion on its own stack before re-checking its latch,
//! and the stolen job's borrows belong to a region whose caller is, by the
//! same argument, still pinned in its own `run_region` frame. This is the
//! same reasoning `std::thread::scope` makes via its internal `ScopeData`;
//! it is confined to this module and pinned by the keep-alive, panic and
//! nested-scheduling tests in `tests/pool_keepalive.rs`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Poison-proof lock acquisition. The soundness argument of [`run_region`]
/// requires that, once a region has submitted its first job, nothing on
/// its path to `wait_until_done` can panic — a poisoned mutex (from, say,
/// a worker-spawn failure on another thread) turning `submit` into a
/// panic would unwind the region while lifetime-erased jobs still borrow
/// its stack. Pool and latch state are plain counters and queues with no
/// invariant a mid-update panic could break (the only panic site while a
/// lock is held is `ensure_workers`' spawn `expect`, which mutates nothing
/// partially), so ignoring poison is both sound and required.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A type- and lifetime-erased unit of region work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Occupancy and scheduling counters of the persistent pool, for tests and
/// diagnostics (see [`crate::parallel::pool_stats`] and `diva-serve`'s
/// `/stats` endpoint). Counters are monotone over the process lifetime and
/// describe *scheduling*, which is explicitly allowed to vary run-to-run —
/// they must never feed a rendered document that promises byte-identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned since process start. Workers never exit, so
    /// this grows monotonically to the widest region ever requested; two
    /// back-to-back identical regions leave it unchanged.
    pub spawned: usize,
    /// Workers currently parked waiting for work.
    pub idle: usize,
    /// Jobs a thread took from *another* worker's deque (work-stealing
    /// transfers). Zero until some region overlaps another.
    pub steals: u64,
    /// Jobs a region caller executed itself while waiting on its own
    /// completion latch (helping). This is how nested regions make
    /// progress when every sibling worker is busy.
    pub inline_runs: u64,
    /// Deepest region nesting observed (an un-nested region is depth 1).
    pub max_depth: usize,
}

/// Where a submitting thread's tasks go: worker `i` pushes onto its own
/// deque, everything else onto the shared injector.
#[derive(Clone, Copy)]
enum Origin {
    Injector,
    Worker(usize),
}

struct State {
    /// Jobs submitted by non-pool threads, oldest first.
    injector: VecDeque<Job>,
    /// One deque per spawned worker; the owner pops newest-first, thieves
    /// steal oldest-first.
    locals: Vec<VecDeque<Job>>,
    spawned: usize,
    idle: usize,
    steals: u64,
    inline_runs: u64,
    max_depth: usize,
}

impl State {
    /// Pops the next job for `who`: own deque newest-first, then the
    /// injector, then the oldest job of the fullest sibling deque.
    /// `helping` attributes the run to the right counter.
    fn take(&mut self, who: Origin, helping: bool) -> Option<Job> {
        if let Origin::Worker(me) = who {
            if let Some(job) = self.locals[me].pop_back() {
                if helping {
                    self.inline_runs += 1;
                }
                return Some(job);
            }
        }
        if let Some(job) = self.injector.pop_front() {
            if helping {
                self.inline_runs += 1;
            }
            return Some(job);
        }
        let me = match who {
            Origin::Worker(i) => Some(i),
            Origin::Injector => None,
        };
        let victim = (0..self.locals.len())
            .filter(|&i| Some(i) != me && !self.locals[i].is_empty())
            .max_by_key(|&i| self.locals[i].len())?;
        let job = self.locals[victim].pop_front()?;
        self.steals += 1;
        if helping {
            self.inline_runs += 1;
        }
        Some(job)
    }
}

thread_local! {
    /// The pool-worker index of this thread, if it is a pool worker.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide keep-alive pool. See the module docs for the lifecycle.
pub(crate) struct Pool {
    state: Mutex<State>,
    /// Signaled when a job is queued *and* when a region latch opens:
    /// helping waiters park on this condvar too, and must wake for either
    /// event.
    work_ready: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process-wide pool instance (created empty; workers spawn on
    /// demand).
    pub(crate) fn global() -> &'static Pool {
        POOL.get_or_init(|| Pool {
            state: Mutex::new(State {
                injector: VecDeque::new(),
                locals: Vec::new(),
                spawned: 0,
                idle: 0,
                steals: 0,
                inline_runs: 0,
                max_depth: 0,
            }),
            work_ready: Condvar::new(),
        })
    }

    pub(crate) fn stats(&self) -> PoolStats {
        let st = lock_unpoisoned(&self.state);
        PoolStats {
            spawned: st.spawned,
            idle: st.idle,
            steals: st.steals,
            inline_runs: st.inline_runs,
            max_depth: st.max_depth,
        }
    }

    /// Records a region's nesting depth for the `max_depth` counter.
    pub(crate) fn note_depth(&self, depth: usize) {
        let mut st = lock_unpoisoned(&self.state);
        st.max_depth = st.max_depth.max(depth);
    }

    /// Spawns workers until at least `workers` exist. Existing (possibly
    /// busy) workers count; the pool never shrinks.
    pub(crate) fn ensure_workers(&'static self, workers: usize) {
        let mut st = lock_unpoisoned(&self.state);
        while st.spawned < workers {
            let idx = st.spawned;
            st.spawned += 1;
            st.locals.push(VecDeque::new());
            std::thread::Builder::new()
                .name(format!("diva-pool-{idx}"))
                .spawn(move || self.worker_loop(idx))
                .expect("failed to spawn pool worker");
        }
    }

    /// A worker's whole life: take a job (own deque, injector, or stolen)
    /// or park until one arrives, run it, repeat. Jobs are pre-wrapped by
    /// [`run_region`] to catch panics, so the loop (and the worker)
    /// survives panicking tasks.
    fn worker_loop(&'static self, index: usize) {
        WORKER_INDEX.with(|c| c.set(Some(index)));
        loop {
            let job = {
                let mut st = lock_unpoisoned(&self.state);
                loop {
                    if let Some(job) = st.take(Origin::Worker(index), false) {
                        break job;
                    }
                    st.idle += 1;
                    st = self.work_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                    st.idle -= 1;
                }
            };
            job();
        }
    }

    fn submit(&'static self, job: Job, origin: Origin) {
        let mut st = lock_unpoisoned(&self.state);
        match origin {
            Origin::Worker(i) => st.locals[i].push_back(job),
            Origin::Injector => st.injector.push_back(job),
        }
        drop(st);
        // If every worker is mid-job the notify is lost, but not the work:
        // a worker re-checks the queues after finishing its current job,
        // and a waiting region caller helps.
        self.work_ready.notify_one();
    }

    /// Blocks until `latch` opens, executing queued jobs while waiting.
    /// The executed jobs are *usually* this caller's own region's (its
    /// deque is popped first), but can be any region's — that is what
    /// keeps the whole pool live when regions nest.
    fn wait_until_done(&'static self, who: Origin, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            let job = {
                let mut st = lock_unpoisoned(&self.state);
                loop {
                    if latch.is_done() {
                        return;
                    }
                    if let Some(job) = st.take(who, true) {
                        break job;
                    }
                    // No runnable job anywhere and our region is still
                    // pending: its tasks are running on other threads.
                    // Park until a job is queued or a latch opens (both
                    // signal `work_ready`; see `Latch::complete`).
                    st = self.work_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            job();
        }
    }
}

/// Completion latch for one region: counts outstanding remote tasks and
/// stashes the first panic payload.
struct Latch {
    state: Mutex<LatchState>,
    /// Fast-path completion flag, readable without the latch lock (the
    /// helping waiter checks it while holding the *pool* lock; taking the
    /// latch lock there would order the two locks both ways round).
    done: AtomicBool,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(remaining: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                remaining,
                panic: None,
            }),
            done: AtomicBool::new(remaining == 0),
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn complete(&self, pool: &'static Pool, panic: Option<Box<dyn Any + Send>>) {
        let open = {
            let mut st = lock_unpoisoned(&self.state);
            st.remaining -= 1;
            if st.panic.is_none() {
                st.panic = panic;
            }
            st.remaining == 0
        };
        if open {
            self.done.store(true, Ordering::Release);
            // Wake the region's (possibly parked) caller. Taking the pool
            // lock before notifying closes the lost-wakeup window: the
            // waiter checks `is_done` while holding the pool lock, so this
            // store+notify cannot slip between its check and its wait.
            drop(lock_unpoisoned(&pool.state));
            pool.work_ready.notify_all();
        }
    }

    /// Takes the stashed panic after the region completed.
    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock_unpoisoned(&self.state).panic.take()
    }
}

/// Runs the region's tasks concurrently: all but the last are queued on the
/// pool (the submitting worker's own deque, or the injector from non-pool
/// threads), the last runs inline on the calling thread. While the queued
/// tasks are pending the caller *helps* — it executes queued jobs instead
/// of blocking — so a region nested inside a busy pool always makes
/// progress. Returns only after **every** task finished; the first panic,
/// remote or inline, is re-raised here afterwards.
///
/// `depth` is the region's nesting depth (1 = not nested), recorded in
/// [`PoolStats::max_depth`].
pub(crate) fn run_region(tasks: Vec<Box<dyn FnOnce() + Send + '_>>, depth: usize) {
    let mut tasks = tasks;
    let Some(inline_task) = tasks.pop() else {
        return;
    };
    if tasks.is_empty() {
        inline_task();
        return;
    }
    let pool = Pool::global();
    pool.note_depth(depth);
    // Workers are only guaranteed for the *outermost* region width (its
    // caller prewarms / ensure_workers covers it). A nested region must
    // not grow the pool: its tasks run on whoever is idle, or on the
    // caller itself via helping.
    if depth <= 1 {
        pool.ensure_workers(tasks.len());
    }
    let who = match WORKER_INDEX.with(Cell::get) {
        Some(i) => Origin::Worker(i),
        None => Origin::Injector,
    };
    let latch = Arc::new(Latch::new(tasks.len()));
    for task in tasks {
        let latch = Arc::clone(&latch);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(task));
            latch.complete(pool, result.err());
        });
        // SAFETY: this only erases the job's lifetime, not its type. The
        // job's borrows stay valid for the whole region because this
        // function cannot return (or unwind — the inline task below and
        // every job a helping waiter executes run under `catch_unwind`)
        // before `wait_until_done` has observed the job's completion; the
        // latch is decremented strictly after the task finished, even if
        // it panicked. See the module docs.
        #[allow(unsafe_code)]
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        pool.submit(job, who);
    }
    let inline_result = catch_unwind(AssertUnwindSafe(inline_task));
    pool.wait_until_done(who, &latch);
    let remote_panic = latch.take_panic();
    if let Err(payload) = inline_result {
        resume_unwind(payload);
    }
    if let Some(payload) = remote_panic {
        resume_unwind(payload);
    }
}
