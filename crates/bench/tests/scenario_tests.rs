//! Integration tests for the scenario/experiment layer: registry
//! completeness, JSON schema stability (golden structure on a 2-model
//! subset), round-tripping through the in-tree parser, axis-filter
//! semantics, and bit-identical results across worker-thread counts.

use diva_bench::scenario::{
    self,
    json::{parse_scenario_json, to_json, SCHEMA},
    render::to_csv,
    RunOptions,
};
use diva_tensor::Backend;

/// The small fig13 subset every schema test runs: 2 models × 2 points.
fn small_fig13_opts() -> RunOptions {
    RunOptions::default()
        .filter("model", &["mobilenet", "squeezenet"])
        .filter("point", &["ws", "diva"])
}

#[test]
fn every_registered_scenario_is_listed() {
    let names = scenario::list();
    assert_eq!(names.len(), 28);
    // Every paper figure/table/ablation has its scenario, plus
    // the design-space exploration starters, the accounting grid and the
    // explorer's regression gate.
    for expected in [
        "dse_frequency",
        "explore_frontier",
        "fig04",
        "fig05",
        "fig06",
        "fig07",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "table1",
        "table2",
        "table3",
        "maxbatch",
        "ppu_traffic",
        "roofline",
        "sensitivity_image",
        "sensitivity_seq",
        "dse_pe_scale",
        "dse_drain_rate",
        "dse_sram",
        "dse_bandwidth",
        "ablation_drain_overlap",
        "ablation_sram",
        "ablation_vanilla_dpsgd",
        "training_run_cost",
        "dp_accounting",
    ] {
        assert!(names.contains(&expected), "missing scenario {expected}");
    }
}

/// Golden structure snapshot of the fig13 JSON document on a 2-model
/// subset: schema id, axes, record count and the exact derived-metric
/// column set are pinned, so the `diva-scenario/v1` schema cannot drift
/// silently.
#[test]
fn fig13_json_golden_structure() {
    let result = scenario::run_with("fig13", &small_fig13_opts()).expect("fig13 runs");
    let doc = to_json(&result);
    let parsed = parse_scenario_json(&doc).expect("parses");

    assert_eq!(parsed.schema, SCHEMA);
    assert_eq!(parsed.scenario, "fig13");
    let axes: Vec<(&str, Vec<&str>)> = parsed
        .axes
        .iter()
        .map(|(n, vs)| (n.as_str(), vs.iter().map(String::as_str).collect()))
        .collect();
    assert_eq!(
        axes,
        vec![
            ("model", vec!["SqueezeNet", "MobileNet"]),
            ("point", vec!["WS", "DiVa"]),
            ("algorithm", vec!["DP-SGD(R)", "SGD"]),
            ("batch", vec!["paper"]),
        ]
    );
    // 2 models × 2 points × 2 algorithms × 1 batch.
    assert_eq!(parsed.records.len(), 8);
    for record in &parsed.records {
        assert_eq!(record.name, "fig13");
        for axis in ["model", "point", "algorithm", "batch"] {
            assert!(record.tag_value(axis).is_some(), "record misses {axis}");
        }
        // The derived columns are schema-stable.
        for metric in ["seconds", "speedup", "speedup_same_alg", "vs_ws_sgd"] {
            assert!(
                record.metric_value(metric).is_some(),
                "record misses {metric}"
            );
        }
    }
    // The headline reductions survive the subset (arms whose cells were
    // filtered out simply produce no summary).
    let labels: Vec<&str> = parsed.reductions.iter().map(|r| r.name.as_str()).collect();
    assert!(
        labels.contains(&"DiVa speedup vs WS (geomean)"),
        "{labels:?}"
    );
    for r in &parsed.reductions {
        assert!(r.metric_value("value").is_some(), "{} has no value", r.name);
        assert!(r.tag_value("kind").is_some());
    }
}

/// The JSON document round-trips: every metric value of every record
/// survives serialize → parse exactly (f64 Display is round-trip-precise).
#[test]
fn fig13_json_round_trips_values() {
    let result = scenario::run_with("fig13", &small_fig13_opts()).expect("fig13 runs");
    let parsed = parse_scenario_json(&to_json(&result)).expect("parses");
    assert_eq!(parsed.records.len(), result.rows.len());
    for (record, row) in parsed.records.iter().zip(&result.rows) {
        for (axis, label) in &row.coords {
            assert_eq!(record.tag_value(axis), Some(label.as_str()));
        }
        for (metric, value) in &row.metrics {
            if value.is_finite() {
                assert_eq!(
                    record.metric_value(metric),
                    Some(*value),
                    "metric {metric} did not round-trip"
                );
            } else {
                assert_eq!(record.metric_value(metric), None);
            }
        }
    }
    assert_eq!(parsed.reductions.len(), result.summaries.len());
    for (red, summary) in parsed.reductions.iter().zip(&result.summaries) {
        assert_eq!(red.name, summary.label);
        assert_eq!(red.metric_value("value"), Some(summary.value));
        assert_eq!(red.metric_value("count"), Some(summary.count as f64));
    }
}

/// The runner must be bit-identical across worker-thread counts: the grid
/// assignment is fixed before execution and task-to-data assignment
/// inside nested regions (scheduled hierarchically on the shared pool) is
/// data-determined, so every thread count renders byte-identical JSON.
#[test]
fn runner_is_bit_identical_across_thread_counts_and_nesting() {
    let opts = small_fig13_opts();
    let reference =
        Backend::serial().install(|| scenario::run_with("fig13", &opts).expect("serial run"));
    let reference_json = to_json(&reference);
    for threads in [1usize, 2, 8] {
        let run = Backend::with_threads(threads)
            .install(|| scenario::run_with("fig13", &opts).expect("run"));
        assert_eq!(reference, run, "results differ at threads={threads}");
        assert_eq!(
            reference_json,
            to_json(&run),
            "JSON differs at threads={threads}"
        );
    }
}

/// `--batch` replaces the symbolic paper batch with fixed sizes.
#[test]
fn batch_override_replaces_the_batch_axis() {
    let opts = small_fig13_opts().batches(&[8, 16]);
    let result = scenario::run_with("fig13", &opts).expect("runs");
    assert_eq!(result.rows.len(), 16); // 2 × 2 × 2 × 2 batches
    let batches: Vec<&str> = result
        .axes
        .iter()
        .find(|a| a.name == "batch")
        .unwrap()
        .labels
        .iter()
        .map(String::as_str)
        .collect();
    assert_eq!(batches, vec!["8", "16"]);
    assert!(result
        .rows
        .iter()
        .all(|r| matches!(r.coord("batch"), Some("8") | Some("16"))));
}

/// Filtering away the WS baseline must not kill the speedup column: the
/// runner evaluates hidden baseline arms for derived metrics.
#[test]
fn sensitivity_keeps_speedups_without_the_baseline_arm() {
    let opts = RunOptions::default()
        .filter("model", &["vgg16"])
        .filter("scale", &["32x32", "64x64"])
        .filter("point", &["diva"]);
    let result = scenario::run_with("sensitivity_image", &opts).expect("runs");
    assert_eq!(result.rows.len(), 2);
    for row in &result.rows {
        assert_eq!(row.coord("point"), Some("DiVa"));
        let speedup = row.get("speedup").expect("derived vs hidden WS arm");
        assert!(speedup > 1.0, "DiVa should win: {speedup}");
    }
    // Speedups narrow as the image grows (the paper's Section VI-C trend).
    assert!(result.rows[1].get("speedup") < result.rows[0].get("speedup"));
}

#[test]
fn unknown_scenario_and_bad_filters_error_cleanly() {
    assert!(scenario::run_with("nope", &RunOptions::default())
        .unwrap_err()
        .to_string()
        .contains("available:"));
    let err = scenario::run_with(
        "fig13",
        &RunOptions::default().filter("model", &["not-a-model"]),
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("not-a-model"), "{err}");
    // A filter naming an axis the scenario doesn't have must error, not
    // silently return the full unfiltered grid.
    let err = scenario::run_with("table1", &RunOptions::default().filter("point", &["ws"]))
        .unwrap_err()
        .to_string();
    assert!(err.contains("no axis named"), "{err}");
    assert!(err.contains("dataflow"), "lists available axes: {err}");
    // Same for a --batch override on a scenario without a batch axis.
    let err = scenario::run_with("maxbatch", &RunOptions::default().batches(&[32]))
        .unwrap_err()
        .to_string();
    assert!(err.contains("batch"), "{err}");
}

/// CSV carries one column per axis plus every metric, one line per row.
#[test]
fn csv_has_header_plus_one_line_per_row() {
    let result = scenario::run_with("fig13", &small_fig13_opts()).expect("runs");
    let csv = to_csv(&result);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + result.rows.len());
    assert!(lines[0].starts_with("model,point,algorithm,batch,"));
    assert!(lines[0].contains("speedup"));
}

/// Small non-sweep scenarios run end to end through the registry.
#[test]
fn degenerate_scenarios_run() {
    for name in ["table1", "table2", "fig06"] {
        let result = scenario::run_with(name, &RunOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!result.rows.is_empty(), "{name} produced no rows");
        let doc = to_json(&result);
        parse_scenario_json(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The small dse_drain_rate subset the design-space tests run.
fn small_dse_opts() -> RunOptions {
    RunOptions::default()
        .filter("model", &["resnet50"])
        .filter("drain_rows", &["2", "8"])
}

/// The satellite contract: a `dse_*` scenario is byte-identical across
/// worker-thread counts (the config-axis materialization is part of the
/// deterministic pre-execution grid setup).
#[test]
fn dse_scenario_is_bit_identical_across_thread_counts() {
    let opts = small_dse_opts();
    let serial = Backend::serial()
        .install(|| scenario::run_with("dse_drain_rate", &opts).expect("serial run"));
    let parallel = Backend::with_threads(8)
        .install(|| scenario::run_with("dse_drain_rate", &opts).expect("parallel run"));
    assert_eq!(serial, parallel, "results differ across thread counts");
    assert_eq!(
        to_json(&serial),
        to_json(&parallel),
        "JSON differs across thread counts"
    );
    // The sweep actually moved the knob: DiVa is slower at R=2 than R=8,
    // while the WS baseline (no output-stationary drain) is flat.
    let get = |point: &str, drain: &str| {
        serial
            .rows
            .iter()
            .find(|r| r.coord("point") == Some(point) && r.coord("drain_rows") == Some(drain))
            .and_then(|r| r.get("seconds"))
            .expect("cell present")
    };
    assert!(get("DiVa", "2") > get("DiVa", "8"));
    assert_eq!(get("WS", "2"), get("WS", "8"));
}

/// `--sweep key=v1,v2` injects the same config axis ad hoc: sweeping
/// drain_rows over fig13 must reproduce dse_drain_rate's cells exactly.
#[test]
fn ad_hoc_sweep_matches_the_registered_dse_scenario() {
    let sweep_opts = RunOptions::default()
        .filter("model", &["resnet50"])
        .filter("point", &["ws", "diva"])
        .filter("algorithm", &["dp-sgd-r"])
        .sweep("drain_rows", &["2", "8"]);
    let swept = scenario::run_with("fig13", &sweep_opts).expect("fig13 sweeps");
    let axis_names: Vec<&str> = swept.axes.iter().map(|a| a.name.as_str()).collect();
    assert!(axis_names.contains(&"drain_rows"), "{axis_names:?}");
    // Pre-declared reductions are re-grouped by the injected axis: no
    // summary may pool cells across swept configurations.
    assert!(!swept.summaries.is_empty());
    for summary in &swept.summaries {
        assert!(
            summary.group.iter().any(|(axis, _)| axis == "drain_rows"),
            "summary {:?} pools across drain_rows values",
            summary.label
        );
    }
    let dse = scenario::run_with("dse_drain_rate", &small_dse_opts()).expect("dse runs");
    for row in &dse.rows {
        let point = row.coord("point").unwrap();
        let drain = row.coord("drain_rows").unwrap();
        let twin = swept
            .rows
            .iter()
            .find(|r| r.coord("point") == Some(point) && r.coord("drain_rows") == Some(drain))
            .unwrap_or_else(|| panic!("fig13 sweep misses ({point}, {drain})"));
        assert_eq!(
            twin.get("seconds"),
            row.get("seconds"),
            "({point}, R={drain}) differs between --sweep and dse_drain_rate"
        );
    }
}

/// `--set key=value` shifts every accelerator arm; `--sweep`/`--set`
/// reject typos (with the registry listing) and scenarios without an
/// accelerator axis.
#[test]
fn set_override_and_error_paths() {
    let base_opts = RunOptions::default()
        .filter("model", &["squeezenet"])
        .filter("point", &["diva"])
        .filter("algorithm", &["dp-sgd-r"]);
    let base = scenario::run_with("fig13", &base_opts).expect("base runs");
    let slow =
        scenario::run_with("fig13", &base_opts.clone().set("drain_rows", "1")).expect("--set runs");
    assert!(
        slow.rows[0].get("seconds") > base.rows[0].get("seconds"),
        "draining one row per cycle must slow DiVa down"
    );
    // Typo'd parameter names list the registry.
    let err = scenario::run_with("fig13", &base_opts.clone().set("dram_rows", "4"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("drain_rows"), "{err}");
    let err = scenario::run_with("fig13", &RunOptions::default().sweep("dram_rows", &["2"]))
        .unwrap_err()
        .to_string();
    assert!(err.contains("available"), "{err}");
    // Out-of-range values are errors, not panics.
    let err = scenario::run_with("fig13", &base_opts.clone().set("drain_rows", "4096"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("drain rate"), "{err}");
    // Scenarios without an accelerator-carrying axis reject both flags.
    for opts in [
        RunOptions::default().set("drain_rows", "4"),
        RunOptions::default().sweep("drain_rows", &["2", "4"]),
    ] {
        let err = scenario::run_with("table1", &opts).unwrap_err().to_string();
        assert!(err.contains("accelerator"), "{err}");
    }
}

/// The satellite pin: the re-based sensitivity scenarios (whose DiVa arm
/// is now the WS preset retargeted through registered parameter
/// overrides) reproduce the pre-refactor values **bit-for-bit**, computed
/// here the legacy way from the closed DesignPoint presets.
#[test]
fn sensitivity_matches_legacy_design_points() {
    use diva_core::{Accelerator, DesignPoint};
    use diva_workload::Algorithm;

    let opts = RunOptions::default()
        .filter("model", &["vgg16"])
        .filter("scale", &["32x32", "64x64"]);
    let result = scenario::run_with("sensitivity_image", &opts).expect("runs");
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    // The override-built DiVa arm resolves to the preset's exact config.
    for row in &result.rows {
        let scale = match row.coord("scale") {
            Some("32x32") => 32,
            Some("64x64") => 64,
            other => panic!("unexpected scale {other:?}"),
        };
        let model = diva_workload::zoo::vgg16_at(scale);
        let batch = diva_bench::paper_batch(&model);
        let accel = match row.coord("point") {
            Some("WS") => &ws,
            Some("DiVa") => &diva,
            other => panic!("unexpected point {other:?}"),
        };
        let legacy = accel.run(&model, Algorithm::DpSgdReweighted, batch);
        assert_eq!(
            row.get("seconds"),
            Some(legacy.seconds),
            "{:?} diverged from the legacy design-point path",
            row.coords
        );
        let legacy_speedup =
            ws.run(&model, Algorithm::DpSgdReweighted, batch).seconds / legacy.seconds;
        assert_eq!(row.get("speedup"), Some(legacy_speedup));
    }
}

/// fig05/fig07/fig17/table3 moved their closure-captured accelerators
/// onto axes so `--set`/`--sweep` apply; these pins hold every migrated
/// scenario's metric values bit-for-bit to the legacy (closure-built)
/// computation.
#[test]
fn migrated_point_axis_scenarios_match_legacy_values() {
    use diva_core::{bottleneck_accel_seconds, bottleneck_gpu_seconds, Accelerator, DesignPoint};
    use diva_gpu::{GpuModel, Precision};
    use diva_workload::{zoo, Algorithm};

    let model = zoo::squeezenet();
    let batch = diva_bench::paper_batch(&model);
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();

    // fig05: the WS arm on the new single-value point axis must simulate
    // exactly what the old closure-captured baseline did.
    let result = scenario::run_with(
        "fig05",
        &RunOptions::default().filter("model", &["squeezenet"]),
    )
    .expect("fig05 runs");
    assert!(!result.rows.is_empty());
    for row in &result.rows {
        assert_eq!(row.coord("point"), Some("WS"));
        let alg = Algorithm::ALL
            .iter()
            .copied()
            .find(|a| Some(a.label()) == row.coord("algorithm"))
            .expect("algorithm label");
        let legacy = ws.run(&model, alg, batch);
        assert_eq!(
            row.get("total_cycles"),
            Some(legacy.timing.total_cycles() as f64),
            "fig05 {:?} diverged from the legacy closure path",
            row.coords
        );
    }

    // fig07: utilization metrics come from the same WS run.
    let result = scenario::run_with(
        "fig07",
        &RunOptions::default().filter("model", &["squeezenet"]),
    )
    .expect("fig07 runs");
    let legacy = ws.run(&model, Algorithm::DpSgdReweighted, batch);
    let fwd = legacy
        .timing
        .phases
        .get(&diva_core::Phase::Forward)
        .expect("forward phase");
    let legacy_util = fwd.macs as f64 / (fwd.cycles as f64 * ws.config().pe.macs() as f64);
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0].get("util_fwd"), Some(legacy_util));

    // fig17: GPU arms are untouched labels; the DiVa arm now rides the
    // axis but is built from the identical preset config.
    let result = scenario::run_with(
        "fig17",
        &RunOptions::default().filter("model", &["squeezenet"]),
    )
    .expect("fig17 runs");
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let v100 = GpuModel::v100();
    let a100 = GpuModel::a100();
    for row in &result.rows {
        let legacy = match row.coord("device").expect("device coord") {
            "V100 (FP32)" => bottleneck_gpu_seconds(&model, batch, &v100, Precision::Fp32),
            "V100 (FP16)" => {
                bottleneck_gpu_seconds(&model, batch, &v100, Precision::Fp16TensorCore)
            }
            "A100 (FP32)" => bottleneck_gpu_seconds(&model, batch, &a100, Precision::Fp32),
            "A100 (FP16)" => {
                bottleneck_gpu_seconds(&model, batch, &a100, Precision::Fp16TensorCore)
            }
            "DiVa (BF16)" => bottleneck_accel_seconds(&diva, &model, batch),
            other => panic!("unexpected device {other:?}"),
        };
        assert_eq!(
            row.get("seconds"),
            Some(legacy),
            "fig17 {:?} diverged from the legacy closure path",
            row.coords
        );
    }

    // table3: the DiVa engine row must reproduce the legacy
    // closure-computed effective-TFLOPS + Table III values.
    let result = scenario::run_with("table3", &RunOptions::default()).expect("table3 runs");
    let (mut flops, mut seconds) = (0.0f64, 0.0f64);
    for m in zoo::all_models() {
        let r = diva.run(&m, Algorithm::DpSgdReweighted, diva_bench::paper_batch(&m));
        flops += 2.0 * r.timing.total_macs() as f64;
        seconds += r.seconds;
    }
    let mut effective = [0.0f64; 3];
    effective[2] = flops / seconds / 1e12;
    let legacy_row = diva_energy::table_iii(
        &DesignPoint::Diva.config(),
        &diva_energy::SynthesisModel::calibrated(),
        effective,
    )
    .into_iter()
    .nth(2)
    .expect("three engine rows");
    let diva_row = result
        .rows
        .iter()
        .find(|r| r.coord("engine") == Some("DiVa"))
        .expect("DiVa engine row");
    assert_eq!(diva_row.get("peak_tflops"), Some(legacy_row.peak_tflops));
    assert_eq!(
        diva_row.get("effective_tflops"),
        Some(legacy_row.effective_tflops)
    );
    assert_eq!(diva_row.get("power_w"), Some(legacy_row.power_w));
    assert_eq!(diva_row.get("area_mm2"), Some(legacy_row.area_mm2));
    assert_eq!(
        diva_row.get("tflops_per_watt"),
        Some(legacy_row.tflops_per_watt)
    );
}

/// The payoff of the migration: every one of the re-based scenarios
/// accepts `--set`/`--sweep`, and the overrides actually reshape the
/// hardware arms (while fig17's GPU label arms stay untouched).
#[test]
fn migrated_point_axis_scenarios_accept_set_and_sweep() {
    let base = scenario::run_with(
        "fig05",
        &RunOptions::default()
            .filter("model", &["squeezenet"])
            .filter("algorithm", &["dp-sgd-r"]),
    )
    .expect("fig05 runs");
    let shrunk = scenario::run_with(
        "fig05",
        &RunOptions::default()
            .filter("model", &["squeezenet"])
            .filter("algorithm", &["dp-sgd-r"])
            .set("pe.rows", "64"),
    )
    .expect("fig05 accepts --set");
    assert!(
        shrunk.rows[0].get("total_cycles") > base.rows[0].get("total_cycles"),
        "a quarter-size PE array must cost cycles"
    );

    let swept = scenario::run_with(
        "fig07",
        &RunOptions::default()
            .filter("model", &["squeezenet"])
            .sweep("drain_rows", &["4", "8"]),
    )
    .expect("fig07 accepts --sweep");
    assert_eq!(swept.rows.len(), 2, "one row per swept drain rate");

    let swept = scenario::run_with(
        "fig17",
        &RunOptions::default()
            .filter("model", &["squeezenet"])
            .sweep("freq_mhz", &["470", "940"]),
    )
    .expect("fig17 accepts --sweep on its mixed device axis");
    let seconds_of = |device: &str, freq: &str| {
        swept
            .rows
            .iter()
            .find(|r| r.coord("device") == Some(device) && r.coord("freq_mhz") == Some(freq))
            .and_then(|r| r.get("seconds"))
            .unwrap_or_else(|| panic!("no {device}@{freq} row"))
    };
    assert!(
        seconds_of("DiVa (BF16)", "470") > seconds_of("DiVa (BF16)", "940"),
        "halving the clock must slow the accelerator arm"
    );
    assert_eq!(
        seconds_of("V100 (FP16)", "470"),
        seconds_of("V100 (FP16)", "940"),
        "hardware knobs must not touch the GPU label arms"
    );

    let result = scenario::run_with("table3", &RunOptions::default().set("sram_mib", "16"))
        .expect("table3 accepts --set");
    assert_eq!(result.rows.len(), 3);
}

/// The JSON document names its derived (ratio) metrics, so `--compare`
/// can gate on them.
#[test]
fn json_declares_derived_metrics() {
    let result = scenario::run_with("dse_drain_rate", &small_dse_opts()).expect("runs");
    assert_eq!(result.derived_metrics, vec!["speedup".to_string()]);
    let parsed = parse_scenario_json(&to_json(&result)).expect("parses");
    assert_eq!(parsed.derived, vec!["speedup".to_string()]);
}
