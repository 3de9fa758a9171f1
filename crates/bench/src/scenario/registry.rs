//! The scenario registry: every paper figure, table and ablation under a
//! stable name, plus the entry point that runs one by name.

use super::defs::{ablations, accounting, dse, explore, figures, sensitivity, tables};
use super::error::ScenarioError;
use super::runner::{run_experiment, RunOptions, ScenarioResult};
use super::Experiment;

/// One registry entry: a stable name, a one-line summary, and the builder
/// producing the scenario's [`Experiment`].
#[derive(Clone, Copy)]
pub struct ScenarioInfo {
    /// Stable scenario name (the `diva-report` CLI argument).
    pub name: &'static str,
    /// One-line summary shown by `diva-report --list`.
    pub summary: &'static str,
    /// Builds the experiment.
    pub build: fn() -> Experiment,
}

/// All registered scenarios, in the paper's presentation order.
pub const REGISTRY: &[ScenarioInfo] = &[
    ScenarioInfo {
        name: "maxbatch",
        summary: "Section III-A: max mini-batch per model and algorithm under 16 GB HBM",
        build: tables::maxbatch,
    },
    ScenarioInfo {
        name: "fig04",
        summary: "Figure 4: training-memory breakdown per algorithm, normalized to SGD",
        build: figures::fig04,
    },
    ScenarioInfo {
        name: "fig05",
        summary: "Figure 5: WS-baseline training-time breakdown per algorithm",
        build: figures::fig05,
    },
    ScenarioInfo {
        name: "fig06",
        summary: "Figure 6: representative GEMM (M, K, N) per training phase",
        build: figures::fig06,
    },
    ScenarioInfo {
        name: "fig07",
        summary: "Figure 7: WS-baseline FLOPS utilization per GEMM class",
        build: figures::fig07,
    },
    ScenarioInfo {
        name: "roofline",
        summary: "Section III-C: roofline placement of DP-SGD(R)'s GEMM classes",
        build: tables::roofline_analysis,
    },
    ScenarioInfo {
        name: "table1",
        summary: "Table I: SRAM bandwidth requirements per dataflow",
        build: tables::table1,
    },
    ScenarioInfo {
        name: "table2",
        summary: "Table II: the DiVa architecture configuration",
        build: tables::table2,
    },
    ScenarioInfo {
        name: "fig13",
        summary: "Figure 13: end-to-end speedup vs the WS systolic baseline",
        build: figures::fig13,
    },
    ScenarioInfo {
        name: "fig14",
        summary: "Figure 14: DP-SGD(R) latency breakdown per design point",
        build: figures::fig14,
    },
    ScenarioInfo {
        name: "fig15",
        summary: "Figure 15: FLOPS-utilization improvement per GEMM class vs WS",
        build: figures::fig15,
    },
    ScenarioInfo {
        name: "fig16",
        summary: "Figure 16: chip-wide step energy normalized to the WS baseline",
        build: figures::fig16,
    },
    ScenarioInfo {
        name: "fig17",
        summary: "Figure 17: DiVa vs V100/A100 on the per-example-gradient bottleneck",
        build: figures::fig17,
    },
    ScenarioInfo {
        name: "table3",
        summary: "Table III: engine power/area and effective DP-SGD(R) throughput",
        build: tables::table3,
    },
    ScenarioInfo {
        name: "ppu_traffic",
        summary: "Section IV-C/VI-A: the PPU's post-processing traffic reduction",
        build: tables::ppu_traffic,
    },
    ScenarioInfo {
        name: "sensitivity_image",
        summary: "Section VI-C: DiVa's edge as image area grows (five CNNs)",
        build: sensitivity::sensitivity_image,
    },
    ScenarioInfo {
        name: "sensitivity_seq",
        summary: "Section VI-C: DiVa's edge as sequence length grows (BERT/LSTM)",
        build: sensitivity::sensitivity_seq,
    },
    ScenarioInfo {
        name: "dse_pe_scale",
        summary: "DSE: DiVa-vs-WS speedup as the PE array scales 32x32..256x256",
        build: dse::dse_pe_scale,
    },
    ScenarioInfo {
        name: "dse_drain_rate",
        summary: "DSE: drain-rate R sweep (rows/cycle) on both design points",
        build: dse::dse_drain_rate,
    },
    ScenarioInfo {
        name: "dse_sram",
        summary: "DSE: SRAM capacity sweep through the parameter registry",
        build: dse::dse_sram,
    },
    ScenarioInfo {
        name: "dse_bandwidth",
        summary: "DSE: DRAM bandwidth sweep (GB/s) on both design points",
        build: dse::dse_bandwidth,
    },
    ScenarioInfo {
        name: "dse_frequency",
        summary: "DSE: clock sweep under the V-prop-f DVFS energy model (perf + energy)",
        build: dse::dse_frequency,
    },
    ScenarioInfo {
        name: "explore_frontier",
        summary: "Explorer: small fixed-seed Pareto search per strategy (regression gate)",
        build: explore::explore_frontier,
    },
    ScenarioInfo {
        name: "ablation_drain_overlap",
        summary: "Ablation: shadow-accumulator drain/compute overlap on DiVa",
        build: ablations::ablation_drain_overlap,
    },
    ScenarioInfo {
        name: "ablation_sram",
        summary: "Ablation: SRAM capacity sweep on WS and DiVa",
        build: ablations::ablation_sram,
    },
    ScenarioInfo {
        name: "ablation_vanilla_dpsgd",
        summary: "Ablation: DiVa's win under vanilla DP-SGD vs DP-SGD(R)",
        build: ablations::ablation_vanilla_dpsgd,
    },
    ScenarioInfo {
        name: "training_run_cost",
        summary: "Capstone: hours / watt-hours / epsilon of a full private run",
        build: tables::training_run_cost,
    },
    ScenarioInfo {
        name: "dp_accounting",
        summary: "DP accounting: epsilon per accountant (rdp/pld), q, sigma, steps",
        build: accounting::dp_accounting,
    },
];

/// Looks up a scenario by (case-insensitively normalized) name.
pub fn find(name: &str) -> Option<&'static ScenarioInfo> {
    let wanted = super::norm_label(name);
    REGISTRY
        .iter()
        .find(|s| super::norm_label(s.name) == wanted)
}

/// All registered scenario names, in registry order.
pub fn list() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name).collect()
}

/// Builds and runs a registered scenario with explicit options.
///
/// # Errors
///
/// [`ScenarioError::UnknownScenario`] when `name` is not registered;
/// otherwise whatever [`run_experiment`] reports (invalid options, failed
/// cells, journal problems...).
pub fn run_with(name: &str, opts: &RunOptions) -> Result<ScenarioResult, ScenarioError> {
    let info = find(name).ok_or_else(|| ScenarioError::UnknownScenario {
        name: name.to_string(),
        available: list().iter().map(|s| s.to_string()).collect(),
    })?;
    run_experiment(&(info.build)(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names = list();
        assert_eq!(
            names.len(),
            28,
            "expected 21 paper artifacts + 5 dse scenarios + dp_accounting + explore_frontier"
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28);
        assert!(find("dp_accounting").is_some());
        assert!(find("dse_frequency").is_some());
        assert!(find("explore_frontier").is_some());
        assert!(find("fig13").is_some());
        assert!(find("FIG13").is_some(), "lookup is case-insensitive");
        assert!(find("dse_drain_rate").is_some());
        assert!(find("nope").is_none());
        // The acceptance bar: at least four registered dse_* scenarios.
        assert!(names.iter().filter(|n| n.starts_with("dse_")).count() >= 4);
    }

    #[test]
    fn every_registered_experiment_builds_with_nonempty_axes() {
        for info in REGISTRY {
            let exp = (info.build)();
            assert_eq!(exp.name, info.name, "experiment/registry name mismatch");
            assert!(!exp.axes.is_empty(), "{} has no axes", info.name);
            for axis in &exp.axes {
                assert!(
                    !axis.values.is_empty(),
                    "{}: axis {} is empty",
                    info.name,
                    axis.name
                );
            }
        }
    }
}
