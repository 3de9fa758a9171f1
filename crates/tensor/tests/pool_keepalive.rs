//! Lifecycle contract of the persistent worker pool behind
//! `diva_tensor::parallel`: workers are spawned lazily, parked between
//! regions, reused by later regions (never re-spawned per region, which is
//! what the old `std::thread::scope` design did), and nested regions are
//! scheduled hierarchically — their tasks go on the submitting worker's
//! deque, to be run inline while it waits or stolen by idle siblings, so
//! an inner region inside a pool worker fans out with its configured
//! width instead of degrading to serial.
//!
//! This suite lives in its own integration-test binary so its pool-growth
//! assertions see a process whose pool traffic it fully controls.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

use diva_tensor::parallel::{self, par_map, pool_stats, Backend};

/// The pool is process-global and the test harness runs tests concurrently;
/// every test that asserts on spawn counts takes this lock so another
/// test's pool growth cannot race its before/after reads.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_guard() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two back-to-back regions of the same width must reuse the workers the
/// first one spawned: the spawn count stays flat, and across many regions
/// the set of distinct worker threads stays bounded by that count instead
/// of growing per region.
#[test]
fn back_to_back_regions_reuse_workers() {
    const WIDTH: usize = 4;
    const REGIONS: usize = 6;
    let _guard = pool_guard();
    Backend::with_threads(WIDTH).install(|| {
        let caller = std::thread::current().id();
        // Warm-up region: allowed to spawn workers.
        let _ = par_map(WIDTH, |i| i);
        let spawned_after_first = pool_stats().spawned;
        assert!(
            spawned_after_first >= WIDTH - 1,
            "a {WIDTH}-way region needs at least {} workers, pool has {}",
            WIDTH - 1,
            spawned_after_first
        );

        let mut worker_ids: HashSet<ThreadId> = HashSet::new();
        for _ in 0..REGIONS {
            let ids = par_map(WIDTH, |_| std::thread::current().id());
            worker_ids.extend(ids.into_iter().filter(|id| *id != caller));
        }
        let spawned_after_all = pool_stats().spawned;
        assert_eq!(
            spawned_after_first, spawned_after_all,
            "equal-width regions must not grow the pool"
        );
        // Scoped threads would have produced up to REGIONS * (WIDTH - 1)
        // distinct ids; the keep-alive pool draws every region from the
        // same spawned set.
        assert!(
            worker_ids.len() <= spawned_after_all,
            "{} distinct worker threads across {REGIONS} regions, but only {} ever spawned",
            worker_ids.len(),
            spawned_after_all
        );
    });
}

/// Nested regions are scheduled for real: for every outer × inner width
/// combination the nested evaluation must produce exactly the values the
/// serial evaluation would — task-to-data assignment is fixed before
/// execution, so which worker (or the waiting submitter) runs each task
/// cannot leak into the output.
#[test]
fn nested_regions_execute_across_width_matrix() {
    let _guard = pool_guard();
    let expected: Vec<Vec<usize>> = (0..4)
        .map(|i| (0..6).map(|j| i * 100 + j * 7).collect())
        .collect();
    for outer_w in [1usize, 2, 4] {
        for inner_w in [1usize, 2, 4] {
            let got = Backend::with_threads(outer_w).install(|| {
                par_map(4, |i| {
                    Backend::with_threads(inner_w).install(|| par_map(6, |j| i * 100 + j * 7))
                })
            });
            assert_eq!(got, expected, "outer={outer_w} inner={inner_w} diverged");
        }
    }
}

/// The scheduler sees both levels of a two-level region tree: the inner
/// tasks observe region depth 2, the pool's high-water depth counter
/// records it, and the steal / inline-run counters only ever move forward.
#[test]
fn nested_region_depth_and_counters_are_sane() {
    let _guard = pool_guard();
    let before = pool_stats();
    Backend::with_threads(2).install(|| {
        let depths = par_map(2, |_| {
            assert_eq!(parallel::region_depth(), 1, "outer task depth");
            par_map(2, |_| parallel::region_depth())
        });
        assert_eq!(depths, vec![vec![2, 2], vec![2, 2]]);
    });
    let after = pool_stats();
    assert!(
        after.max_depth >= 2,
        "a nested region must raise the pool's depth high-water (got {})",
        after.max_depth
    );
    assert!(
        after.steals >= before.steals,
        "steal counter went backwards"
    );
    assert!(
        after.inline_runs >= before.inline_runs,
        "inline-run counter went backwards"
    );
}

/// A panic inside an *inner* region must re-raise through the outer
/// region to the caller, without wedging either region's latch and
/// without costing the pool a worker.
#[test]
fn panic_in_inner_region_reraises_through_outer() {
    let _guard = pool_guard();
    Backend::with_threads(3).install(|| {
        let _ = par_map(3, |i| i); // warm up
        let spawned_before = pool_stats().spawned;
        let result = std::panic::catch_unwind(|| {
            par_map(3, |i| {
                par_map(3, move |j| {
                    assert!(!(i == 1 && j == 2), "deliberate inner panic");
                    i * 10 + j
                })
            })
        });
        assert!(result.is_err(), "inner panic must reach the outer caller");
        // Both latches resolved and the workers survived: an ordinary
        // two-level region still works, with no replacement spawns.
        let out = par_map(2, |i| par_map(2, move |j| i * 2 + j));
        assert_eq!(out, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(
            pool_stats().spawned,
            spawned_before,
            "a panicking nested region must not cost a worker"
        );
    });
}

/// `prewarm` spawns workers ahead of the first region, and `Backend::prewarm`
/// resolves its configured width the same way its regions will.
#[test]
fn prewarm_spawns_and_parks_workers() {
    let _guard = pool_guard();
    parallel::prewarm(3);
    assert!(pool_stats().spawned >= 2, "prewarm(3) must leave 2 workers");
    Backend::with_threads(6).prewarm();
    let stats = pool_stats();
    assert!(
        stats.spawned >= 5,
        "Backend::with_threads(6).prewarm() must leave 5 workers, have {}",
        stats.spawned
    );
    // Workers are parked, not burning a queue: an immediate region works.
    let out = Backend::with_threads(6).install(|| par_map(12, |i| i * 2));
    assert_eq!(out, (0..12).map(|i| i * 2).collect::<Vec<_>>());
}

/// The fallible region variant: `try_par_map` isolates each item's panic
/// into an `Err` slot — every other item still completes, the region
/// returns normally, and the pool survives without re-spawning.
#[test]
fn try_par_map_isolates_per_item_panics() {
    let _guard = pool_guard();
    Backend::with_threads(4).install(|| {
        let _ = par_map(4, |i| i); // warm up
        let spawned_before = pool_stats().spawned;
        let out = parallel::try_par_map(8, |i| {
            if i % 3 == 0 {
                panic!("injected failure at {i}");
            }
            i * 10
        });
        assert_eq!(out.len(), 8);
        for (i, slot) in out.iter().enumerate() {
            if i % 3 == 0 {
                let msg = slot.as_ref().expect_err("multiples of 3 panic");
                assert_eq!(msg, &format!("injected failure at {i}"));
            } else {
                assert_eq!(slot.as_ref().expect("others succeed"), &(i * 10));
            }
        }
        // The failures stayed inside their slots: the pool is intact and
        // an ordinary region still works on the same workers.
        assert_eq!(par_map(4, |i| i + 1), vec![1, 2, 3, 4]);
        assert_eq!(pool_stats().spawned, spawned_before);
    });
}

/// `try_par_map` is bit-stable across thread counts, including in *which*
/// items fail: failure assignment is data-determined, never
/// scheduling-determined.
#[test]
fn try_par_map_failures_are_thread_count_stable() {
    // Its 8-wide region grows the pool, so it must not run while another
    // test compares spawn counts.
    let _guard = pool_guard();
    let run = |threads: usize| {
        Backend::with_threads(threads).install(|| {
            parallel::try_par_map(13, |i| {
                if i % 5 == 2 {
                    panic!("boom {i}");
                }
                i
            })
        })
    };
    assert_eq!(run(1), run(4));
    assert_eq!(run(1), run(8));
}

/// A panic in a pool worker must propagate to the region caller (matching
/// the old scoped behavior) and must not kill the worker: the pool stays
/// usable afterwards without re-spawning.
#[test]
fn worker_panic_propagates_and_pool_survives() {
    let _guard = pool_guard();
    Backend::with_threads(4).install(|| {
        let _ = par_map(4, |i| i); // warm up
        let spawned_before = pool_stats().spawned;
        let result = std::panic::catch_unwind(|| {
            par_map(4, |i| {
                assert!(i != 0, "deliberate test panic");
                i
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool still works, with the same workers.
        let out = par_map(8, |i| i + 1);
        assert_eq!(out, (1..9).collect::<Vec<_>>());
        assert_eq!(
            pool_stats().spawned,
            spawned_before,
            "a panicking task must not cost a worker"
        );
    });
}
