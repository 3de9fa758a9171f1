//! The repository benchmark: DP-SGD and DP-SGD(R) training steps and a
//! `diva-serve` request mix, measured end to end (untraced mode) and layer
//! by layer (traced mode) through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path dpbench/Cargo.toml -- \
//!     --workload train_dpsgd|train_dpsgdr|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! It prints a host fingerprint line, one line per metric and output
//! check, and, last, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. See `dpbench/README.md` for the metric table.

mod inputs;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::time::Instant;

use diva_dp::TrainingAlgorithm;
use diva_tensor::{avx512_enabled, simd_available, simd_enabled, Backend};

use stats::{median, tail, Outcome, Tally};

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
const PER_LAYER: [(&str, &str); 46] = [
    ("phase.fwd_ms", "ms"),
    ("phase.bwd_per_example_grad_ms", "ms"),
    ("phase.bwd_grad_norm_ms", "ms"),
    ("phase.bwd_grad_clip_ms", "ms"),
    ("phase.reduce_ms", "ms"),
    ("phase.bwd_per_batch_grad_ms", "ms"),
    ("phase.noise_ms", "ms"),
    ("phase.weight_update_ms", "ms"),
    ("phase.unattributed_ms", "ms"),
    ("phase.step_ms", "ms"),
    ("nn.conv1.fwd_ms", "ms"),
    ("nn.conv1.bwd_ms", "ms"),
    ("nn.conv1.bwd2_ms", "ms"),
    ("nn.conv2.fwd_ms", "ms"),
    ("nn.conv2.bwd_ms", "ms"),
    ("nn.conv2.bwd2_ms", "ms"),
    ("nn.fc1.fwd_ms", "ms"),
    ("nn.fc1.bwd_ms", "ms"),
    ("nn.fc1.bwd2_ms", "ms"),
    ("nn.fc2.fwd_ms", "ms"),
    ("nn.fc2.bwd_ms", "ms"),
    ("nn.fc2.bwd2_ms", "ms"),
    ("nn.other_ms", "ms"),
    ("pool.steals_per_step", "count"),
    ("pool.inline_runs_per_step", "count"),
    ("pool.spawned", "count"),
    ("ref.sgd_step_ms", "ms"),
    ("ref.dp_overhead_x", "x"),
    ("dp.privacy_spent_ms", "ms"),
    ("dp.pld_query_ms", "ms"),
    ("dp.rdp_query_ms", "ms"),
    ("api.epsilon_p50_ms", "ms"),
    ("api.run_p50_ms", "ms"),
    ("api.explore_p50_ms", "ms"),
    ("serve.hit_p50_us", "us"),
    ("serve.overhead_p50_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.computed", "count"),
    ("cache.joined", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.span_floor_ns", "ns"),
    ("e2e.tail_pct", "pct"),
    ("e2e.samples", "count"),
    ("e2e.fail_ratio", "ratio"),
    ("e2e.attempted", "count"),
    ("e2e.failed", "count"),
];

/// One output check of a run.
pub struct Check {
    name: &'static str,
    outcome: Outcome,
    detail: String,
}

impl Check {
    /// A check whose failure fails the run.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Self {
            name,
            outcome: Outcome::from(ok),
            detail,
        }
    }

    /// A check whose failure refuses the run's per-layer numbers.
    pub fn refusing(name: &'static str, ok: bool, detail: String) -> Self {
        Self {
            name,
            outcome: if ok { Outcome::Ok } else { Outcome::Refused },
            detail,
        }
    }
}

/// What one workload run measured.
pub struct Measured {
    /// Operations (steps or requests) and their outcomes.
    pub tally: Tally,
    /// Output checks, run after the timed window.
    pub checks: Vec<Check>,
    /// Untraced per-operation wall times, milliseconds.
    pub op_ms: Vec<f64>,
    /// Examples (training) or requests (serving) per second.
    pub work_per_s: f64,
    /// Median time to steady state, seconds.
    pub setup_s: f64,
    /// `VmHWM` when the timed window closed, MiB.
    pub peak_rss_mib: f64,
    /// Per-layer metrics this workload measured, by name.
    pub layer: BTreeMap<String, f64>,
}

/// Milliseconds since `since`.
pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `Threads`, ...), with
/// its unit dropped; `None` where `/proc` is unavailable.
pub fn status_field(name: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))?;
    value.split_whitespace().next()?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").map_or(0.0, |kib| kib / 1024.0)
}

/// The mean cost of one empty span (two clock reads), nanoseconds. A
/// per-layer time a workload never enters reads at this floor.
fn span_floor_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..SPANS {
        std::hint::black_box(Instant::now().elapsed());
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(SPANS)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrainDpsgd,
    TrainDpsgdr,
    ServeMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("train_dpsgd", Workload::TrainDpsgd),
        ("train_dpsgdr", Workload::TrainDpsgdr),
        ("serve_mix", Workload::ServeMix),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::TrainDpsgd,
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds wants (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host and build a result was measured on. The benchmark flips no
/// process-global kernel toggle, so this is the production dispatch.
fn fingerprint(args: &Args) -> String {
    let pool_width = match args.workload {
        Workload::ServeMix => Backend::auto().threads(),
        _ => train::THREADS,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let target: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu\": {}, \
         \"nproc\": {nproc}, \"pool_width\": {pool_width}, \"clients\": {}, \
         \"simd_available\": {}, \"simd_enabled\": {}, \"avx512_enabled\": {}, \
         \"build\": {}, \"target_features\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model()),
        serve::CLIENTS,
        simd_available(),
        simd_enabled(),
        avx512_enabled(),
        json_str("release profile, default features"),
        json_str(&target.join(",")),
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpbench: {e}");
            eprintln!(
                "usage: dpbench --workload train_dpsgd|train_dpsgdr|serve_mix \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    println!("host {}", fingerprint(&args));
    let floor_ns = span_floor_ns();
    let mut m = match args.workload {
        Workload::TrainDpsgd => train::run(
            TrainingAlgorithm::DpSgd,
            args.seed,
            args.seconds,
            args.trace,
        ),
        Workload::TrainDpsgdr => train::run(
            TrainingAlgorithm::DpSgdReweighted,
            args.seed,
            args.seconds,
            args.trace,
        ),
        Workload::ServeMix => serve::run(args.seed, args.seconds, args.trace),
    };
    for check in &m.checks {
        m.tally.record(check.outcome);
        let verdict = match check.outcome {
            Outcome::Ok => "ok",
            Outcome::Failed => "FAILED",
            Outcome::Refused => "REFUSED",
        };
        println!("check {verdict} {}: {}", check.name, check.detail);
    }

    let tail = tail(&m.op_ms);
    let fail_ratio = m.tally.fail_ratio();
    let end_to_end = [
        median(&m.op_ms),
        tail.value,
        m.work_per_s,
        1.0 - fail_ratio,
        m.setup_s,
        m.peak_rss_mib,
    ];
    let (op, work) = match args.workload {
        Workload::ServeMix => ("req", "req_per_s"),
        _ => ("step", "examples_per_s"),
    };
    println!(
        "metric {op}_p50_ms {} ms ({} untraced samples)",
        end_to_end[0], tail.samples
    );
    println!(
        "metric {op}_tail_ms {} ms (p{:.2}, {} samples beyond)",
        tail.value, tail.percentile, tail.beyond
    );
    if !args.trace {
        // The traced mode interleaves traced work, so its rate is not
        // the user's.
        println!("metric {work} {} 1/s", m.work_per_s);
    }
    println!(
        "metric fail_ratio {fail_ratio} ratio ({} of {})",
        m.tally.not_ok(),
        m.tally.attempted
    );
    println!("metric setup_s {} s", m.setup_s);
    println!("metric peak_rss_mib {} MiB", m.peak_rss_mib);

    let mut layer = std::mem::take(&mut m.layer);
    layer.insert("trace.span_floor_ns".into(), floor_ns);
    layer.insert("e2e.tail_pct".into(), tail.percentile);
    layer.insert("e2e.samples".into(), tail.samples as f64);
    layer.insert("e2e.fail_ratio".into(), fail_ratio);
    layer.insert("e2e.attempted".into(), m.tally.attempted as f64);
    layer.insert("e2e.failed".into(), m.tally.not_ok() as f64);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layer.get(name).copied().unwrap_or(match unit {
                    "ms" => floor_ns * 1e-6,
                    "us" => floor_ns * 1e-3,
                    _ => 0.0,
                });
                println!("metric {name} {value} {unit}");
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = finite && m.tally.not_ok() == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.tally.attempted,
        m.tally.not_ok(),
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_default() {
        let a = args(&["--workload", "serve_mix"]).unwrap();
        assert!(a.workload == Workload::ServeMix);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (inputs::DEFAULT_SEED, 10.0, false)
        );
        let a = args(&[
            "--workload",
            "train_dpsgdr",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(a.workload == Workload::TrainDpsgdr);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve_mix", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve_mix", "--seconds"]).is_err());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let count = |pat: &str| doc.matches(pat).count();
        for (name, _) in Workload::ALL {
            assert_eq!(
                count(&format!("\"name\": \"{name}\"")),
                1,
                "workload {name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(count(&entry), 1, "metric {name} [{unit}]");
        }
        assert_eq!(
            count("\"unit\": "),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the program does not print"
        );
    }
}
