//! Integration tests for the design-space explorer, driven through the
//! public `diva_explore` surface (the same engine the CLI, the
//! `explore_frontier` scenario and `diva-serve`'s `/explore` share):
//! seeded Pareto-dominance properties on a 500-candidate search,
//! byte-identity of the rendered frontier across worker-thread counts
//! and across a kill/`--resume` boundary, and memo-cache hit accounting
//! under racing batch evaluations.

use std::path::PathBuf;

use diva_explore::{
    dominates, explore, render, ExploreConfig, Knob, SearchSpace, Strategy, Workload,
};
use diva_tensor::Backend;

fn knob(param: &str, values: &[&str]) -> Knob {
    Knob {
        param: param.to_string(),
        values: values.iter().map(|v| v.to_string()).collect(),
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diva-explore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fast search config: one small workload over the default 6-knob
/// space keeps a 500-candidate run in test time.
fn big_search() -> ExploreConfig {
    let mut cfg = ExploreConfig::new(SearchSpace::default_space());
    cfg.strategy = Strategy::Random;
    cfg.seed = 1234;
    cfg.budget = 500;
    cfg.batch_size = 32;
    cfg.workloads = vec![Workload::parse("squeezenet@8").expect("workload")];
    cfg
}

/// The acceptance-criterion property test: a seeded 500-candidate search
/// over the 6-knob default space yields an *exact* Pareto frontier — no
/// frontier point is dominated by any evaluated point, and every pruned
/// point is dominated by a surviving frontier point.
#[test]
fn seeded_500_candidate_search_has_an_exact_frontier() {
    let result = explore(&big_search()).expect("search runs");
    assert_eq!(result.evaluated.len(), 500, "budget fully spent");
    assert!(result.complete);

    let frontier_specs: Vec<&str> = result
        .frontier
        .points()
        .iter()
        .map(|p| p.spec.as_str())
        .collect();
    assert!(!frontier_specs.is_empty());

    for survivor in result.frontier.points() {
        let sv = survivor.objective_values();
        for other in &result.evaluated {
            assert!(
                !dominates(&other.objective_values(), &sv),
                "frontier point {} is dominated by evaluated point {}",
                survivor.spec,
                other.spec
            );
        }
    }
    for pruned in result
        .evaluated
        .iter()
        .filter(|p| !frontier_specs.contains(&p.spec.as_str()))
    {
        let pv = pruned.objective_values();
        assert!(
            result
                .frontier
                .points()
                .iter()
                .any(|s| dominates(&s.objective_values(), &pv)),
            "pruned point {} is not dominated by any frontier survivor",
            pruned.spec
        );
    }

    // The frontier's internal order is its public contract: sorted by
    // objective vector with the spec string breaking ties.
    let points = result.frontier.points();
    for pair in points.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let key = |p: &diva_explore::EvaluatedPoint| (p.objective_values(), p.spec.clone());
        assert!(
            key(a) <= key(b),
            "frontier order broken between {} and {}",
            a.spec,
            b.spec
        );
    }
}

/// The same search renders byte-identical JSON for every worker-thread
/// count: candidate generation is sequential, the batch fold replays
/// results in candidate order, and inside nested regions task-to-data
/// assignment is fixed before execution — scheduling (including
/// work-stealing) never touches bytes.
#[test]
fn frontier_json_is_byte_identical_across_thread_counts_and_nesting() {
    let mut cfg = big_search();
    cfg.budget = 96;
    let reference = Backend::serial().install(|| explore(&cfg).expect("serial search"));
    let reference_json = render::render_json(&reference);
    let reference_csv = render::render_csv(&reference);
    for threads in [1usize, 2, 8] {
        let run = Backend::with_threads(threads).install(|| explore(&cfg).expect("search"));
        assert_eq!(
            reference_json,
            render::render_json(&run),
            "frontier JSON differs at threads={threads}"
        );
        assert_eq!(
            reference_csv,
            render::render_csv(&run),
            "frontier CSV differs at threads={threads}"
        );
        assert_eq!(
            reference.stats, run.stats,
            "counters differ at threads={threads}"
        );
    }
}

/// Kill/resume byte-identity through the journal: a search stopped by
/// `kill_after` mid-run and resumed from its journal renders the same
/// document as an uninterrupted run of the same config.
#[test]
fn killed_search_resumes_byte_identically() {
    let dir = tempdir("resume");
    let mut cfg = big_search();
    cfg.budget = 48;
    cfg.batch_size = 8;

    let mut fresh_cfg = cfg.clone();
    fresh_cfg.journal_dir = None;
    let fresh = explore(&fresh_cfg).expect("fresh search");

    let mut killed_cfg = cfg.clone();
    killed_cfg.journal_dir = Some(dir.clone());
    killed_cfg.kill_after = Some(13);
    let killed = explore(&killed_cfg).expect("killed search");
    assert!(!killed.complete, "kill_after must mark the run incomplete");
    assert!(killed.evaluated.len() < fresh.evaluated.len());

    let mut resumed_cfg = cfg.clone();
    resumed_cfg.journal_dir = Some(dir.clone());
    let resumed = explore(&resumed_cfg).expect("resumed search");
    assert!(resumed.complete);
    assert!(
        resumed.stats.journal_reused >= 13,
        "resume must replay the journaled points, reused {}",
        resumed.stats.journal_reused
    );
    assert_eq!(
        render::render_json(&fresh),
        render::render_json(&resumed),
        "resumed search renders different bytes than an uninterrupted run"
    );

    // A third run replays everything from the journal: zero fresh
    // simulations, same bytes again.
    let replayed = explore(&resumed_cfg).expect("replayed search");
    assert_eq!(
        replayed.stats.memo.lookups, 0,
        "full replay simulates nothing"
    );
    assert_eq!(render::render_json(&fresh), render::render_json(&replayed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Memo-cache accounting under racing evaluations: a grid whose knob
/// values are spelled redundantly (`8` vs `8.0`) collapses 32 candidate
/// specs onto 8 canonical configs. With the whole grid dispatched as one
/// parallel batch, racing workers must still compute each config exactly
/// once — and produce the same frontier as the unmemoized baseline.
#[test]
fn memo_cache_accounts_hits_under_racing_evaluations() {
    let space = SearchSpace {
        base: diva_core::DesignPoint::Diva,
        knobs: vec![
            knob("sram_mib", &["8", "8.0", "16", "16.0"]),
            knob("freq_mhz", &["470", "470.0", "940", "940.0"]),
            knob("drain_rows", &["4", "8"]),
        ],
    };
    let mut cfg = ExploreConfig::new(space);
    cfg.strategy = Strategy::Grid;
    cfg.budget = 32;
    cfg.batch_size = 32; // the whole grid races in one dispatch
    cfg.workloads = vec![Workload::parse("squeezenet@4").expect("workload")];

    let memoized = Backend::with_threads(8).install(|| explore(&cfg).expect("memoized search"));
    assert_eq!(memoized.evaluated.len(), 32);
    assert_eq!(memoized.stats.memo.lookups, 32);
    assert_eq!(
        memoized.stats.memo.computed, 8,
        "canonical config keying must collapse the redundant spellings"
    );

    let mut nomemo_cfg = cfg.clone();
    nomemo_cfg.memo = false;
    let nomemo = explore(&nomemo_cfg).expect("unmemoized search");
    assert_eq!(
        nomemo.stats.memo.computed, 32,
        "baseline simulates every spec"
    );
    assert_eq!(
        render::render_json(&memoized),
        render::render_json(&nomemo),
        "memoization changed the rendered result"
    );
}
