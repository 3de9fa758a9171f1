//! The registered scenario definitions — one [`Experiment`](super::Experiment)
//! builder per paper figure, table and ablation, grouped by artifact family.
//!
//! These are pure *declarations*: each builder wires axes, a per-cell
//! closure over the simulation/energy/memory substrate, derived-metric
//! rules and reductions. All execution, filtering, aggregation and output
//! formatting lives in the shared scenario runner.

pub(super) mod ablations;
pub(super) mod accounting;
pub(super) mod dse;
pub(super) mod explore;
pub(super) mod figures;
pub(super) mod sensitivity;
pub(super) mod tables;

use super::{Axis, AxisValue};
use diva_core::{Accelerator, DesignPoint, DesignSpec};
use diva_workload::{zoo, Algorithm};

/// The full nine-model zoo as a `"model"` axis.
pub(super) fn models_axis() -> Axis {
    Axis::new("model", zoo::all_models().into_iter().map(AxisValue::model))
}

/// The given design points as a `"point"` axis of built accelerators.
pub(super) fn points_axis(points: &[DesignPoint]) -> Axis {
    Axis::new(
        "point",
        points.iter().map(|&p| {
            AxisValue::accel(Accelerator::from_design_point(p).expect("preset configs validate"))
        }),
    )
}

/// A `"point"` axis built from [`DesignSpec`]s — the preset+override path
/// of the design-point layer. Specs are scenario-definition constants, so
/// a bad one is a build bug (panic), not a user error.
pub(super) fn spec_points_axis(specs: &[DesignSpec]) -> Axis {
    Axis::new(
        "point",
        specs.iter().map(|s| {
            AxisValue::accel(
                Accelerator::from_spec(s).unwrap_or_else(|e| panic!("design spec {s}: {e}")),
            )
        }),
    )
}

/// A single-parameter **config axis** named after the registered
/// parameter: each value carries the override the runner applies to the
/// cell's accelerator arm (see [`super::Payload::Overrides`]).
pub(super) fn config_axis(param: &'static str, values: &[&str]) -> Axis {
    Axis::new(
        param,
        values
            .iter()
            .map(|v| AxisValue::overrides(*v, &[(param, v)])),
    )
}

/// The given algorithms as an `"algorithm"` axis.
pub(super) fn algorithms_axis(algs: &[Algorithm]) -> Axis {
    Axis::new("algorithm", algs.iter().copied().map(AxisValue::algorithm))
}

/// The paper batch policy as a single-valued `"batch"` axis (replaceable
/// via `--batch`).
pub(super) fn paper_batch_axis() -> Axis {
    Axis::new("batch", [AxisValue::batch_paper()])
}

/// A fixed batch size as a single-valued `"batch"` axis.
pub(super) fn fixed_batch_axis(b: u64) -> Axis {
    Axis::new("batch", [AxisValue::batch(b)])
}
