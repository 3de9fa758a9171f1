//! End-to-end tests of the fault-tolerance layer: supervised execution,
//! `--keep-going` error records, the checkpoint/resume journal and the
//! deterministic fault-injection harness — including the acceptance pin
//! that a killed-and-resumed run's JSON document is byte-identical to a
//! fresh run's at any worker-thread count.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use diva_bench::faults::{FaultKind, FaultPlan};
use diva_bench::scenario::json::{parse_scenario_json, to_json};
use diva_bench::scenario::render::to_csv;
use diva_bench::scenario::{
    run_experiment, Axis, AxisValue, Cell, CellCtx, Experiment, FailKind, Normalize, ReduceKind,
    Reduction, RowStatus, RunOptions, ScenarioError,
};
use diva_tensor::parallel::Backend;

/// A synthetic 4×2 experiment (v = 10·model + point + 1, speedup vs p0)
/// whose eval bumps `counter` — the counter proves which cells actually
/// re-ran on resume.
fn toy(counter: Arc<AtomicUsize>) -> Experiment {
    Experiment::new(
        "ft_toy",
        "fault tolerance toy",
        Arc::new(move |ctx: &CellCtx| {
            counter.fetch_add(1, Ordering::SeqCst);
            let m: f64 = ctx
                .label("model")
                .strip_prefix('m')
                .unwrap()
                .parse()
                .unwrap();
            let p: f64 = ctx
                .label("point")
                .strip_prefix('p')
                .unwrap()
                .parse()
                .unwrap();
            Cell::new()
                .metric("v", 10.0 * m + p + 1.0)
                .note("policy", "fixed")
        }),
    )
    .axis(Axis::new(
        "model",
        (0..4).map(|i| AxisValue::label(format!("m{i}"))),
    ))
    .axis(Axis::new(
        "point",
        (0..2).map(|i| AxisValue::label(format!("p{i}"))),
    ))
    .derive(Normalize::speedup("v", &[("point", "p0")], "ratio"))
    .reduce(
        Reduction::new("mean ratio at p1", "ratio", ReduceKind::Mean).filter(&[("point", "p1")]),
    )
}

/// The runner's cell keys for the toy grid, in grid order.
fn toy_keys() -> Vec<String> {
    let mut keys = Vec::new();
    for m in 0..4 {
        for p in 0..2 {
            keys.push(format!("model=m{m}|point=p{p}"));
        }
    }
    keys
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diva-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Finds a seed whose sticky panic plan (p = 0.4) hits *some but not all*
/// toy cells — deterministic (FNV decisions), so the test never flakes.
fn mixed_seed() -> (u64, usize) {
    for seed in 0..256 {
        let plan = FaultPlan::single(FaultKind::Panic, 0.4, seed).sticky();
        let hits = toy_keys()
            .iter()
            .filter(|k| plan.decide(k, 0).is_some())
            .count();
        if hits > 0 && hits < toy_keys().len() {
            return (seed, hits);
        }
    }
    panic!("no mixed seed in 0..256 — the fault hash is broken");
}

/// The acceptance pin: inject deterministic panics with a journal
/// attached (the "killed" run), then resume without faults — the resumed
/// document must be byte-identical to a fresh run's, at worker-thread
/// counts 1 and 8, and only the failed cells may re-run.
#[test]
fn killed_run_resumes_byte_identically_at_any_thread_count() {
    let fresh = run_experiment(&toy(Arc::default()), &RunOptions::default()).expect("clean run");
    let fresh_doc = to_json(&fresh);

    let (seed, hits) = mixed_seed();
    let dir = tempdir("resume");

    // The "kill": some cells settle as failures, completed cells are
    // journaled, the run aborts with the typed error.
    let inject = RunOptions::default()
        .faults(FaultPlan::single(FaultKind::Panic, 0.4, seed).sticky())
        .resume(&dir);
    let err = run_experiment(&toy(Arc::default()), &inject).expect_err("injected run fails");
    let ScenarioError::CellsFailed {
        failures,
        completed,
    } = &err
    else {
        panic!("expected CellsFailed, got {err}");
    };
    // Normalize may add DepFailed dependents on top of the direct hits.
    assert!(failures.len() >= hits, "{} < {hits}", failures.len());
    assert!(*completed > 0, "a mixed seed must complete some cells");
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("--resume"), "{err}");

    // Resume without faults, single-threaded: only the journaled-failed
    // cells re-run, and the document matches the fresh run byte for byte.
    let calls = Arc::new(AtomicUsize::new(0));
    let resumed = Backend::with_threads(1)
        .install(|| {
            run_experiment(
                &toy(Arc::clone(&calls)),
                &RunOptions::default().resume(&dir),
            )
        })
        .expect("resume");
    assert_eq!(to_json(&resumed), fresh_doc, "byte-identical at 1 thread");
    assert_eq!(
        calls.load(Ordering::SeqCst),
        hits,
        "only the directly-injected cells re-run (dep-failed cells were journaled ok)"
    );

    // A second resume finds everything cached: zero evaluations, same
    // bytes — now at 8 worker threads.
    let calls = Arc::new(AtomicUsize::new(0));
    let resumed = Backend::with_threads(8)
        .install(|| {
            run_experiment(
                &toy(Arc::clone(&calls)),
                &RunOptions::default().resume(&dir),
            )
        })
        .expect("cached resume");
    assert_eq!(to_json(&resumed), fresh_doc, "byte-identical at 8 threads");
    assert_eq!(calls.load(Ordering::SeqCst), 0, "fully cached");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A process killed mid-append leaves a torn final journal line; the next
/// resume must drop exactly that cell, re-run it, and still land on the
/// byte-identical document.
#[test]
fn torn_journal_line_recovers_to_identical_bytes() {
    let fresh = run_experiment(&toy(Arc::default()), &RunOptions::default()).expect("clean run");
    let fresh_doc = to_json(&fresh);

    let dir = tempdir("torn");
    run_experiment(&toy(Arc::default()), &RunOptions::default().resume(&dir)).expect("journaled");
    let path = dir.join("ft_toy.journal.jsonl");
    let full = std::fs::read_to_string(&path).expect("journal exists");
    let cut = full.rfind("\"v\"").expect("has cell records");
    std::fs::write(&path, &full[..cut]).expect("tear the final line");

    let calls = Arc::new(AtomicUsize::new(0));
    let resumed = run_experiment(
        &toy(Arc::clone(&calls)),
        &RunOptions::default().resume(&dir),
    )
    .expect("resume over torn journal");
    assert_eq!(to_json(&resumed), fresh_doc);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "only the torn cell re-ran");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against a journal written under a different grid shape is
/// refused (exit code 4) instead of silently mixing incompatible cells.
#[test]
fn resume_against_mismatched_journal_is_refused() {
    let dir = tempdir("mismatch");
    run_experiment(&toy(Arc::default()), &RunOptions::default().resume(&dir)).expect("journaled");
    let err = run_experiment(
        &toy(Arc::default()),
        &RunOptions::default()
            .filter("model", &["m0", "m1"])
            .resume(&dir),
    )
    .expect_err("different axes, same journal");
    assert!(matches!(err, ScenarioError::Journal(_)), "{err}");
    assert_eq!(err.exit_code(), 4);
    assert!(err.to_string().contains("fingerprint"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Non-sticky injected faults recover through one retry, leaving no trace
/// in the artifact.
#[test]
fn retries_erase_transient_faults_from_the_artifact() {
    let fresh = run_experiment(&toy(Arc::default()), &RunOptions::default()).expect("clean run");
    let recovered = run_experiment(
        &toy(Arc::default()),
        &RunOptions::default()
            .faults(FaultPlan::single(FaultKind::Panic, 1.0, 11))
            .max_retries(1),
    )
    .expect("every cell recovers on its retry");
    assert_eq!(to_json(&recovered), to_json(&fresh));
}

/// Sticky faults exhaust the retry budget; under `--keep-going` every
/// cell becomes an explicit error record with full retry history, the
/// artifact says so in every format, and the result is thread-count
/// stable.
#[test]
fn sticky_faults_keep_going_records_errors_everywhere() {
    let opts = RunOptions::default()
        .faults(FaultPlan::single(FaultKind::NanMetric, 1.0, 3).sticky())
        .max_retries(2)
        .keep_going();
    let result = run_experiment(&toy(Arc::default()), &opts).expect("keep-going returns a result");
    assert_eq!(result.failures.len(), 8);
    for failure in &result.failures {
        assert_eq!(failure.kind, FailKind::Invalid);
        assert_eq!(failure.attempts, 3, "1 try + 2 retries");
        assert_eq!(failure.history.len(), 3);
        assert!(failure.error.contains("non-finite"), "{}", failure.error);
    }
    for row in &result.rows {
        assert!(
            matches!(row.status, RowStatus::Failed { .. }),
            "every row failed"
        );
        assert!(row.metrics.is_empty());
    }
    assert!(
        result.summaries.is_empty(),
        "groups with zero surviving cells emit no summary"
    );

    let doc = to_json(&result);
    assert!(doc.contains("\"failed\": 8,"), "{doc}");
    assert!(doc.contains("\"status\": \"invalid\""), "{doc}");
    let parsed = parse_scenario_json(&doc).expect("error records still parse");
    assert_eq!(parsed.records.len(), 8);

    let csv = to_csv(&result);
    assert!(
        csv.lines().next().unwrap().contains("status,error"),
        "{csv}"
    );
    assert!(csv.contains("invalid,"), "{csv}");

    // Same failure artifact at a different worker-thread count.
    let again = Backend::with_threads(1)
        .install(|| run_experiment(&toy(Arc::default()), &opts))
        .expect("keep-going at 1 thread");
    assert_eq!(to_json(&again), doc, "failures are thread-count stable");
}

/// The malformed-input satellite: truncated, corrupted and non-finite
/// `diva-scenario/v1` documents produce errors, never panics.
#[test]
fn malformed_documents_error_instead_of_panicking() {
    let fresh = run_experiment(&toy(Arc::default()), &RunOptions::default()).expect("clean run");
    let doc = to_json(&fresh);

    // Empty and truncated-at-every-boundary inputs.
    assert!(parse_scenario_json("").is_err());
    assert!(parse_scenario_json("{").is_err());
    for frac in [1, 2, 3] {
        let cut = doc.len() * frac / 4;
        // Stay on a char boundary (the doc is ASCII, but be explicit).
        let truncated = &doc[..cut];
        assert!(
            parse_scenario_json(truncated).is_err(),
            "truncation at {cut} must error"
        );
    }

    // A non-finite numeric literal is corruption, not data.
    let bad = doc.replacen("\"v\": 1,", "\"v\": NaN,", 1);
    assert_ne!(bad, doc, "fixture metric v=1 exists");
    let err = parse_scenario_json(&bad).expect_err("NaN literal");
    assert!(err.contains("non-finite"), "{err}");
    let inf = doc.replacen("\"v\": 1,", "\"v\": inf,", 1);
    assert!(parse_scenario_json(&inf).is_err());

    // Duplicate cell coordinates are corruption too.
    let row = "{\"name\": \"ft_toy\", \"model\": \"m0\", \"point\": \"p0\", \
               \"policy\": \"fixed\", \"v\": 1, \"ratio\": 1}";
    let dup = doc.replacen(row, &format!("{row},\n    {row}"), 1);
    assert_ne!(dup, doc, "fixture row exists verbatim");
    let err = parse_scenario_json(&dup).expect_err("duplicate coordinates");
    assert!(err.contains("duplicate cell coordinates"), "{err}");
    assert!(err.contains("model=m0|point=p0"), "{err}");
}

/// A failure message that Debug-prints a struct carries `{`, `}` and
/// quotes inside a JSON string; the document must still parse, and the
/// message must read back verbatim.
#[test]
fn braces_inside_failure_messages_parse_back() {
    #[derive(Debug)]
    #[allow(dead_code)] // read only through Debug
    enum BadConfig {
        InvalidValue { param: String, value: String },
    }
    let exp = Experiment::new(
        "braces",
        "braces in panic messages",
        Arc::new(|ctx: &CellCtx| {
            if ctx.label("point") == "p1" {
                let err = BadConfig::InvalidValue {
                    param: "x".to_string(),
                    value: "y".to_string(),
                };
                panic!("bad config: {err:?}");
            }
            Cell::new().metric("v", 1.0)
        }),
    )
    .axis(Axis::new(
        "point",
        (0..2).map(|i| AxisValue::label(format!("p{i}"))),
    ));
    let result = run_experiment(&exp, &RunOptions::default().keep_going()).expect("keep-going");
    let doc = to_json(&result);
    let message = "bad config: InvalidValue { param: \"x\", value: \"y\" }";
    assert!(doc.contains(&message.replace('"', "\\\"")), "{doc}");
    let parsed = parse_scenario_json(&doc).expect("braces inside strings parse");
    assert_eq!(parsed.records.len(), 2);
    assert_eq!(parsed.records[1].tag_value("error"), Some(message));
    assert_eq!(parsed.records[0].metric_value("v"), Some(1.0));
}

/// Unknown scenarios surface the typed error with the available list.
#[test]
fn unknown_scenario_is_a_typed_error() {
    let err = diva_bench::scenario::run_with("no_such_scenario", &RunOptions::default())
        .expect_err("unknown");
    let ScenarioError::UnknownScenario { name, available } = &err else {
        panic!("expected UnknownScenario, got {err}");
    };
    assert_eq!(name, "no_such_scenario");
    assert!(available.iter().any(|s| s == "fig13"));
    assert_eq!(err.exit_code(), 1);
}
