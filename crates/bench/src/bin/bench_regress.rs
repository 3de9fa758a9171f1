//! Bench-smoke regression gate: diffs the conv / DP-step rows of a fresh
//! `BENCH_perf.json` against the committed record and fails on a >25%
//! throughput regression on the same backend.
//!
//! Usage: `bench_regress <baseline.json> <current.json> [threshold]`
//! (threshold is the allowed fractional regression, default `0.25`; also
//! settable via `DIVA_BENCH_REGRESS_THRESHOLD`).
//!
//! Exit codes distinguish the failure modes so CI can triage without
//! parsing stderr: `0` all gated rows present and within threshold, `1`
//! at least one row regressed, `2` usage/parse error or no gated rows,
//! `3` gated rows missing from the current run (no regression among the
//! rows that were present). A regression wins over a missing row when
//! both occur — it is the more actionable signal.
//!
//! Comparison metric: the *relative* speedup columns
//! (`speedup_vs_scalar` / `speedup_vs_naive`), not wall-clock. Both sides
//! of each speedup are measured in the same process on the same host, so
//! the ratio survives the heterogeneous CI runners that absolute
//! milliseconds do not. Gated rows are the matmul, convolution, DP-step,
//! accounting-throughput and serve-latency records (names containing
//! `matmul`, `conv`, `step`, `eps` or `serve`). The serve rows gate on
//! `speedup_vs_uncached` — the memo-cache hit's edge over a cold request,
//! measured against the same in-process server. The nested-scaling step
//! row gates on `speedup_vs_nonested` — full-width versus serial trainers
//! inside an outer region, same process, same host.

use diva_bench::perf::{parse_perf_json, PerfRecord};

/// Metrics eligible as the throughput proxy, in preference order.
const SPEEDUP_METRICS: [&str; 5] = [
    "speedup_vs_scalar",
    "speedup_vs_naive",
    "speedup_vs_uncached",
    "speedup_vs_nomemo",
    "speedup_vs_nonested",
];

fn gated(record: &PerfRecord) -> bool {
    (record.name.contains("matmul")
        || record.name.contains("conv")
        || record.name.contains("step")
        || record.name.contains("eps")
        || record.name.contains("serve")
        || record.name.contains("explore"))
        && SPEEDUP_METRICS
            .iter()
            .any(|m| record.metric_value(m).is_some())
}

fn speedup(record: &PerfRecord) -> Option<(&'static str, f64)> {
    SPEEDUP_METRICS
        .iter()
        .find_map(|&m| record.metric_value(m).map(|v| (m, v)))
}

fn load(path: &str) -> Vec<PerfRecord> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_regress: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_perf_json(&text).unwrap_or_else(|e| {
        eprintln!("bench_regress: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, current_path) = match args.as_slice() {
        [b, c] | [b, c, _] => (b.as_str(), c.as_str()),
        _ => {
            eprintln!("usage: bench_regress <baseline.json> <current.json> [threshold]");
            std::process::exit(2);
        }
    };
    let threshold: f64 = args
        .get(2)
        .cloned()
        .or_else(|| std::env::var("DIVA_BENCH_REGRESS_THRESHOLD").ok())
        .map(|s| s.parse().expect("threshold must be a number"))
        .unwrap_or(0.25);

    let baseline = load(baseline_path);
    let current = load(current_path);

    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    let mut checked = 0usize;
    println!(
        "{:<36} {:<10} {:>10} {:>10} {:>8}",
        "record", "backend", "baseline", "current", "ratio"
    );
    for base in baseline.iter().filter(|r| gated(r)) {
        let backend = base.tag_value("backend").unwrap_or("");
        // The scalar/naive/uncached/nomemo baseline rows' speedup is 1.0
        // by construction — nothing to gate.
        if backend == "scalar" || backend == "naive" || backend == "uncached" || backend == "nomemo"
        {
            continue;
        }
        let Some((metric, base_speedup)) = speedup(base) else {
            continue;
        };
        let Some(cur) = current
            .iter()
            .find(|r| r.name == base.name && r.tag_value("backend") == Some(backend))
        else {
            missing.push(format!(
                "{} [{}]: row missing from current run (renamed or deleted \
                 benchmark still in the committed record?)",
                base.name, backend
            ));
            continue;
        };
        let Some(cur_speedup) = cur.metric_value(metric) else {
            missing.push(format!(
                "{} [{}]: current run lost metric {metric} (present in the baseline row)",
                cur.name, backend
            ));
            continue;
        };
        checked += 1;
        let ratio = cur_speedup / base_speedup;
        println!(
            "{:<36} {:<10} {:>9.2}x {:>9.2}x {:>8.3}",
            base.name, backend, base_speedup, cur_speedup, ratio
        );
        if ratio < 1.0 - threshold {
            regressions.push(format!(
                "{} [{}]: {metric} regressed {:.2}x -> {:.2}x ({:.0}% below baseline, \
                 allowed {:.0}%)",
                base.name,
                backend,
                base_speedup,
                cur_speedup,
                (1.0 - ratio) * 100.0,
                threshold * 100.0
            ));
        }
    }

    // Report collected failures before any "nothing was checked" verdict,
    // so an all-rows-missing current run surfaces the real diagnosis
    // instead of a misleading complaint about the baseline.
    if !regressions.is_empty() || !missing.is_empty() {
        if !regressions.is_empty() {
            eprintln!("\nbench_regress: {} regression(s):", regressions.len());
            for f in &regressions {
                eprintln!("  {f}");
            }
        }
        if !missing.is_empty() {
            eprintln!("\nbench_regress: {} missing row(s):", missing.len());
            for f in &missing {
                eprintln!("  {f}");
            }
        }
        eprintln!(
            "\nhow to read this: each gated row's speedup is the ratio of the scalar/naive\n\
             baseline's time to the optimized path's time, with BOTH sides measured in the\n\
             same process on the same host — so a drop means the optimized path lost ground\n\
             relative to its own baseline, not that the machine is slow. Likely causes, in\n\
             order: (1) a change to the blocked GEMM, packing, patch-reuse or pool code\n\
             made the optimized path genuinely slower (fix it, or re-record\n\
             BENCH_perf.json with justification in the PR); (2) the scalar reference was\n\
             accidentally optimized, shrinking the ratio (check gemm_reference /\n\
             Kernel::Reference call sites); (3) a missing row means the bench\n\
             stopped emitting it — usually a renamed or deleted benchmark still in the\n\
             committed record. See ARCHITECTURE.md ('Benchmarks and the regression\n\
             gate') for the full contract."
        );
        // Regressions exit 1; a missing-rows-only failure exits 3 so CI
        // can tell "the code got slower" from "the record went stale".
        std::process::exit(if regressions.is_empty() { 3 } else { 1 });
    }
    if checked == 0 {
        eprintln!("bench_regress: no gated conv/DP-step rows found in {baseline_path}");
        std::process::exit(2);
    }
    println!(
        "\nbench_regress: {checked} rows within {:.0}% of the committed record",
        threshold * 100.0
    );
}
