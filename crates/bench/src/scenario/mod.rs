//! The declarative **scenario/experiment API** behind every paper artifact.
//!
//! Every figure, table and ablation of the evaluation is expressed as one
//! [`Experiment`]: a set of named [`Axis`] definitions (models, design
//! points, algorithms, batches, …), a per-grid-cell evaluation closure
//! returning a typed [`Cell`], a list of declared [`Normalize`] rules that
//! derive ratio metrics against a baseline arm (speedups, normalized
//! energy/memory/latency), and a list of declared [`Reduction`]s
//! (mean/geomean/max summaries, optionally grouped and filtered). A single
//! [`runner`] executes the grid deterministically over the workspace-wide
//! keep-alive pool and renders the result as an aligned text table
//! ([`render`]), machine-readable JSON ([`json`], schema
//! `diva-scenario/v1`, reusing the flat-record conventions of
//! [`crate::perf`]) or CSV.
//!
//! The [`registry`] names every paper artifact; the `diva-report` binary
//! drives it from the command line:
//!
//! ```text
//! diva-report --list
//! diva-report fig13 --json out.json --models mobilenet,vgg16 --points ws,diva
//! ```
//!
//! Axis filters (`--models`, `--points`, `--algs`, `--batch`,
//! `--axis NAME=a,b`) restrict any registered scenario without
//! per-scenario code. Filter labels are matched case-insensitively with
//! punctuation stripped, so `--points diva-w/o-ppu` matches the
//! `"DiVa w/o PPU"` arm. When a filter removes an arm that a [`Normalize`]
//! rule needs as its baseline, the runner still *evaluates* that arm
//! (hidden from the output) so derived metrics stay available.

pub mod compare;
pub mod error;
pub mod journal;
pub mod json;
pub mod registry;
pub mod render;
pub mod runner;
pub mod supervisor;

mod defs;

use std::sync::Arc;

use diva_core::{Accelerator, RunReport};
use diva_workload::{Algorithm, ModelSpec};

pub use error::{CellFailure, FailKind, ScenarioError};
pub use registry::{find, list, run_with, ScenarioInfo};
pub use runner::{
    run_experiment, AxisMeta, ResultRow, RowStatus, RunOptions, ScenarioResult, Summary,
};

/// How the mini-batch of a grid cell is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSpec {
    /// The paper's batch policy ([`crate::paper_batch`]): the largest
    /// power-of-two mini-batch vanilla DP-SGD fits in 16 GB, resolved per
    /// model.
    Paper,
    /// A fixed explicit batch size.
    Fixed(u64),
}

/// The typed payload carried by one axis value, consumed by the
/// experiment's evaluation closure through [`CellCtx`].
#[derive(Clone, Debug)]
pub enum Payload {
    /// A workload model (axis conventionally named `"model"`).
    Model(Box<ModelSpec>),
    /// A fully built accelerator (axis conventionally named `"point"`).
    Accel(Arc<Accelerator>),
    /// A training algorithm (axis conventionally named `"algorithm"`).
    Algorithm(Algorithm),
    /// A batch policy (axis conventionally named `"batch"`).
    Batch(BatchSpec),
    /// A named number (SRAM bytes, image side, sequence length, …).
    Num(f64),
    /// A bare label; the evaluation closure interprets it.
    Label,
    /// A **config axis** value: `(parameter name, value string)` pairs
    /// resolved through the `diva_arch::params` registry. The runner
    /// materializes each cell's accelerator by applying these overrides to
    /// the cell's accelerator-axis arm (validated, never panicking), so
    /// any registered Table II knob is sweepable — this is what the CLI's
    /// `--sweep key=v1,v2` injects and what the `dse_*` scenarios declare.
    Overrides(Vec<(String, String)>),
}

/// One value of an [`Axis`]: a display/filter label plus a typed payload.
#[derive(Clone, Debug)]
pub struct AxisValue {
    /// The label shown in tables and matched (normalized) by CLI filters.
    pub label: String,
    /// The typed payload behind the label.
    pub payload: Payload,
}

impl AxisValue {
    /// A model value labelled with the model's name.
    pub fn model(spec: ModelSpec) -> Self {
        Self {
            label: spec.name.clone(),
            payload: Payload::Model(Box::new(spec)),
        }
    }

    /// An accelerator value labelled with the accelerator's name.
    pub fn accel(accel: Accelerator) -> Self {
        Self {
            label: accel.name().to_string(),
            payload: Payload::Accel(Arc::new(accel)),
        }
    }

    /// An algorithm value labelled with the paper's algorithm label.
    pub fn algorithm(alg: Algorithm) -> Self {
        Self {
            label: alg.label().to_string(),
            payload: Payload::Algorithm(alg),
        }
    }

    /// The paper batch policy, labelled `"paper"`.
    pub fn batch_paper() -> Self {
        Self {
            label: "paper".to_string(),
            payload: Payload::Batch(BatchSpec::Paper),
        }
    }

    /// A fixed batch size, labelled with its decimal value.
    pub fn batch(b: u64) -> Self {
        Self {
            label: b.to_string(),
            payload: Payload::Batch(BatchSpec::Fixed(b)),
        }
    }

    /// A labelled number.
    pub fn num(label: impl Into<String>, value: f64) -> Self {
        Self {
            label: label.into(),
            payload: Payload::Num(value),
        }
    }

    /// A bare label.
    pub fn label(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            payload: Payload::Label,
        }
    }

    /// A config-axis value: named parameter overrides applied to the
    /// cell's accelerator arm (see [`Payload::Overrides`]).
    pub fn overrides(label: impl Into<String>, pairs: &[(&str, &str)]) -> Self {
        Self {
            label: label.into(),
            payload: Payload::Overrides(
                pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            ),
        }
    }
}

/// One named axis of an experiment's sweep grid.
#[derive(Clone, Debug)]
pub struct Axis {
    /// Axis name; `"model"`, `"point"`, `"algorithm"` and `"batch"` have
    /// dedicated CLI flags, any other name is reachable via `--axis`.
    pub name: String,
    /// The values swept along this axis, in presentation order.
    pub values: Vec<AxisValue>,
}

impl Axis {
    /// Builds an axis from a value iterator.
    pub fn new(name: impl Into<String>, values: impl IntoIterator<Item = AxisValue>) -> Self {
        Self {
            name: name.into(),
            values: values.into_iter().collect(),
        }
    }
}

/// The evaluation result of one grid cell: named numeric metrics plus
/// optional string-valued annotations (GEMM shape strings, bound labels).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cell {
    /// Numeric metrics, e.g. `("seconds", 1.2e-3)`.
    pub metrics: Vec<(String, f64)>,
    /// String annotations, e.g. `("gemm", "(32, 9, 64)")`.
    pub notes: Vec<(String, String)>,
}

impl Cell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a numeric metric (builder style).
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// Adds a string annotation (builder style).
    pub fn note(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.notes.push((key.into(), value.into()));
        self
    }

    /// The value of metric `key`, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

impl From<&RunReport> for Cell {
    /// Bridges a simulated training step into a cell, importing the full
    /// [`RunReport::flat_metrics`] set (timing, energy, traffic, per-phase
    /// cycles).
    fn from(report: &RunReport) -> Self {
        Cell {
            metrics: report.flat_metrics(),
            notes: Vec::new(),
        }
    }
}

/// The coordinates of one grid cell, handed to the evaluation closure.
#[derive(Clone, Debug)]
pub struct CellCtx<'a> {
    /// `(axis name, axis value)` pairs in axis-declaration order.
    pub coords: Vec<(&'a str, &'a AxisValue)>,
    /// The accelerator materialized for this cell when any coordinate is a
    /// config-axis value ([`Payload::Overrides`]): the accelerator-axis
    /// arm with the cell's overrides applied and validated. `None` on
    /// grids without config axes.
    pub accel_override: Option<Arc<Accelerator>>,
}

impl CellCtx<'_> {
    /// The value of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the experiment has no such axis (a scenario-definition
    /// bug, not a user error).
    pub fn value(&self, axis: &str) -> &AxisValue {
        self.coords
            .iter()
            .find(|(name, _)| *name == axis)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("experiment has no axis named {axis:?}"))
    }

    /// The label of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the experiment has no such axis.
    pub fn label(&self, axis: &str) -> &str {
        &self.value(axis).label
    }

    /// The model carried by the `"model"` axis.
    ///
    /// # Panics
    ///
    /// Panics if there is no `"model"` axis or its values are not
    /// [`Payload::Model`].
    pub fn model(&self) -> &ModelSpec {
        match &self.value("model").payload {
            Payload::Model(m) => m,
            other => panic!("axis \"model\" does not carry ModelSpec payloads: {other:?}"),
        }
    }

    /// The cell's accelerator: the config-axis materialization when any
    /// coordinate carries [`Payload::Overrides`], otherwise the arm of the
    /// `"point"` axis, otherwise the first coordinate carrying a
    /// [`Payload::Accel`] value (so axes named `"engine"` or `"device"`
    /// work too).
    ///
    /// # Panics
    ///
    /// Panics if there is no materialized accelerator and no coordinate
    /// carries [`Payload::Accel`] values.
    pub fn accel(&self) -> &Accelerator {
        if let Some(accel) = &self.accel_override {
            return accel;
        }
        if let Some((_, v)) = self.coords.iter().find(|(name, _)| *name == "point") {
            match &v.payload {
                Payload::Accel(a) => return a,
                other => panic!("axis \"point\" does not carry Accelerator payloads: {other:?}"),
            }
        }
        self.coords
            .iter()
            .find_map(|(_, v)| match &v.payload {
                Payload::Accel(a) => Some(a.as_ref()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("cell has no accelerator coordinate: {:?}", self.coords))
    }

    /// The algorithm carried by the `"algorithm"` axis.
    ///
    /// # Panics
    ///
    /// Panics if there is no `"algorithm"` axis or its values are not
    /// [`Payload::Algorithm`].
    pub fn algorithm(&self) -> Algorithm {
        match &self.value("algorithm").payload {
            Payload::Algorithm(a) => *a,
            other => panic!("axis \"algorithm\" does not carry Algorithm payloads: {other:?}"),
        }
    }

    /// The number carried by axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or its values are not [`Payload::Num`].
    pub fn num(&self, axis: &str) -> f64 {
        match &self.value(axis).payload {
            Payload::Num(v) => *v,
            other => panic!("axis {axis:?} does not carry numeric payloads: {other:?}"),
        }
    }

    /// The cell's batch policy: the `"batch"` axis value if present,
    /// otherwise [`BatchSpec::Paper`].
    ///
    /// # Panics
    ///
    /// Panics if a `"batch"` axis exists but does not carry
    /// [`Payload::Batch`] values.
    pub fn batch_spec(&self) -> BatchSpec {
        self.coords
            .iter()
            .find(|(name, _)| *name == "batch")
            .map(|(_, v)| match &v.payload {
                Payload::Batch(spec) => *spec,
                other => panic!("axis \"batch\" does not carry BatchSpec payloads: {other:?}"),
            })
            .unwrap_or(BatchSpec::Paper)
    }

    /// Resolves the cell's mini-batch for `model`: the `"batch"` axis value
    /// if present ([`BatchSpec::Paper`] applies [`crate::paper_batch`] to
    /// `model`), otherwise the paper policy.
    pub fn batch_for(&self, model: &ModelSpec) -> u64 {
        match self.batch_spec() {
            BatchSpec::Paper => crate::paper_batch(model),
            BatchSpec::Fixed(b) => b,
        }
    }

    /// Resolves the cell's mini-batch for the model on the `"model"` axis.
    ///
    /// # Panics
    ///
    /// Panics if the batch policy is [`BatchSpec::Paper`] and there is no
    /// `"model"` axis carrying [`Payload::Model`] values.
    pub fn batch(&self) -> u64 {
        self.batch_for(self.model())
    }
}

/// How a [`Normalize`] rule names its derived metrics.
#[derive(Clone, Debug)]
pub enum Rename {
    /// Appends a suffix: metric `m` derives `m<suffix>`.
    Suffix(String),
    /// Replaces the name outright; valid only for single-metric rules.
    To(String),
}

/// A declared derived-metric rule: for every cell, divide (or invert) a
/// metric against the cell's *baseline arm* — the cell with the same
/// coordinates except that the axes listed in [`Normalize::baseline`] are
/// pinned to the given labels.
///
/// This is the one mechanism behind every speedup / normalized-energy /
/// normalized-latency column of the paper figures, replacing the
/// per-binary hand-rolled ratio loops.
#[derive(Clone, Debug)]
pub struct Normalize {
    /// Numerator metrics read from each cell.
    pub metrics: Vec<String>,
    /// The metric read from the baseline cell; `None` means "the same
    /// metric as the numerator" (per-metric normalization, e.g. per-class
    /// utilization improvements).
    pub denom_metric: Option<String>,
    /// `(axis name, baseline label)` pins identifying the baseline arm.
    pub baseline: Vec<(String, String)>,
    /// If `true` the derived value is `baseline / cell` (a speedup);
    /// otherwise `cell / baseline` (a normalized fraction).
    pub invert: bool,
    /// Naming of the derived metrics.
    pub rename: Rename,
}

impl Normalize {
    /// The derived metric's name for `metric` under this rule's renaming —
    /// the single naming used both when the runner appends the derived
    /// values and when it declares them in `ScenarioResult::derived_metrics`
    /// (and thus the JSON `derived` field `--compare` gates on).
    pub fn derived_name(&self, metric: &str) -> String {
        match &self.rename {
            Rename::Suffix(s) => format!("{metric}{s}"),
            Rename::To(n) => n.clone(),
        }
    }

    /// The classic speedup rule: `new_name = baseline(metric) / metric`.
    pub fn speedup(
        metric: impl Into<String>,
        baseline: &[(&str, &str)],
        new_name: impl Into<String>,
    ) -> Self {
        Self {
            metrics: vec![metric.into()],
            denom_metric: None,
            baseline: baseline
                .iter()
                .map(|(a, l)| (a.to_string(), l.to_string()))
                .collect(),
            invert: true,
            rename: Rename::To(new_name.into()),
        }
    }

    /// The normalized-fraction rule: each listed metric is divided by the
    /// baseline cell's `denom_metric` (or itself when `None`), suffixed.
    pub fn fraction(
        metrics: &[&str],
        denom_metric: Option<&str>,
        baseline: &[(&str, &str)],
        suffix: impl Into<String>,
    ) -> Self {
        Self {
            metrics: metrics.iter().map(|m| m.to_string()).collect(),
            denom_metric: denom_metric.map(str::to_string),
            baseline: baseline
                .iter()
                .map(|(a, l)| (a.to_string(), l.to_string()))
                .collect(),
            invert: false,
            rename: Rename::Suffix(suffix.into()),
        }
    }
}

/// The aggregation function of a [`Reduction`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceKind {
    /// Arithmetic mean.
    Mean,
    /// Geometric mean (via [`diva_core::geomean`], the workspace's single
    /// numeric implementation).
    Geomean,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl ReduceKind {
    /// A stable lowercase identifier for JSON output.
    pub fn slug(&self) -> &'static str {
        match self {
            ReduceKind::Mean => "mean",
            ReduceKind::Geomean => "geomean",
            ReduceKind::Max => "max",
            ReduceKind::Min => "min",
        }
    }
}

/// A declared aggregate summary over the result grid.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// Display label, e.g. `"DiVa speedup vs WS"`.
    pub label: String,
    /// The (possibly derived) metric to aggregate.
    pub metric: String,
    /// The aggregation function.
    pub kind: ReduceKind,
    /// Axis names whose values index separate summary rows (empty for one
    /// scalar over the whole grid).
    pub group_by: Vec<String>,
    /// `(axis name, label)` pins restricting which cells contribute.
    pub filter: Vec<(String, String)>,
    /// The paper's reference value, printed alongside for comparison.
    pub paper: Option<&'static str>,
}

impl Reduction {
    /// A reduction over all visible cells carrying `metric`.
    pub fn new(label: impl Into<String>, metric: impl Into<String>, kind: ReduceKind) -> Self {
        Self {
            label: label.into(),
            metric: metric.into(),
            kind,
            group_by: Vec::new(),
            filter: Vec::new(),
            paper: None,
        }
    }

    /// Restricts contributing cells to those matching the axis pins.
    pub fn filter(mut self, pins: &[(&str, &str)]) -> Self {
        self.filter = pins
            .iter()
            .map(|(a, l)| (a.to_string(), l.to_string()))
            .collect();
        self
    }

    /// Produces one summary row per value combination of the given axes.
    pub fn group_by(mut self, axes: &[&str]) -> Self {
        self.group_by = axes.iter().map(|a| a.to_string()).collect();
        self
    }

    /// Attaches the paper's reference value for display.
    pub fn paper(mut self, reference: &'static str) -> Self {
        self.paper = Some(reference);
        self
    }
}

/// Optional text-table pivot: show `metric` as a 2-D table with the values
/// of `axis` as columns (JSON and CSV always stay in long form).
#[derive(Clone, Debug)]
pub struct Pivot {
    /// The axis whose values become table columns.
    pub axis: String,
    /// The metric rendered in the pivoted cells.
    pub metric: String,
}

/// The per-cell evaluation closure.
pub type EvalFn = Arc<dyn Fn(&CellCtx) -> Cell + Send + Sync>;

/// A declarative experiment: axes × eval closure × derived metrics ×
/// reductions, executable by [`runner::run_experiment`].
#[derive(Clone)]
pub struct Experiment {
    /// Stable registry name (`"fig13"`, `"sensitivity_image"`, …).
    pub name: &'static str,
    /// Table title (matches the paper artifact it reproduces).
    pub title: String,
    /// The sweep axes, in declaration (and rendering) order.
    pub axes: Vec<Axis>,
    /// The per-cell evaluation closure.
    pub eval: EvalFn,
    /// Declared derived-metric rules, applied after evaluation.
    pub derived: Vec<Normalize>,
    /// Declared aggregate summaries.
    pub reductions: Vec<Reduction>,
    /// Metrics shown in the *text* table (all metrics always reach JSON and
    /// CSV); empty means "show everything".
    pub display_metrics: Vec<String>,
    /// Optional text-table pivot.
    pub pivot: Option<Pivot>,
    /// Commentary lines printed after the table (paper cross-references).
    pub notes: Vec<String>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("title", &self.title)
            .field("axes", &self.axes)
            .field("derived", &self.derived)
            .field("reductions", &self.reductions)
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// Starts an experiment; axes, rules and reductions are added by the
    /// builder-style methods below.
    pub fn new(name: &'static str, title: impl Into<String>, eval: EvalFn) -> Self {
        Self {
            name,
            title: title.into(),
            axes: Vec::new(),
            eval,
            derived: Vec::new(),
            reductions: Vec::new(),
            display_metrics: Vec::new(),
            pivot: None,
            notes: Vec::new(),
        }
    }

    /// Adds an axis.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Adds a derived-metric rule.
    pub fn derive(mut self, rule: Normalize) -> Self {
        self.derived.push(rule);
        self
    }

    /// Adds a reduction.
    pub fn reduce(mut self, reduction: Reduction) -> Self {
        self.reductions.push(reduction);
        self
    }

    /// Restricts the text table to the listed metrics.
    pub fn display(mut self, metrics: &[&str]) -> Self {
        self.display_metrics = metrics.iter().map(|m| m.to_string()).collect();
        self
    }

    /// Sets the text-table pivot.
    pub fn pivot_on(mut self, axis: &str, metric: &str) -> Self {
        self.pivot = Some(Pivot {
            axis: axis.to_string(),
            metric: metric.to_string(),
        });
        self
    }

    /// Adds a commentary line.
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.notes.push(line.into());
        self
    }
}

/// Normalizes a label for filter matching: lowercase, alphanumerics only.
/// `"DiVa w/o PPU"` → `"divawoppu"`, so `--points diva-w/o-ppu` matches.
/// Re-exported from `diva_arch` — the one implementation shared with
/// dataflow and design-point preset parsing.
pub use diva_arch::norm_label;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_normalization_strips_punctuation_and_case() {
        assert_eq!(norm_label("DiVa w/o PPU"), "divawoppu");
        assert_eq!(norm_label("DP-SGD(R)"), "dpsgdr");
        assert_eq!(norm_label("VGG-16"), "vgg16");
        assert_eq!(norm_label("OS+PPU"), "osppu");
    }

    #[test]
    fn cell_builder_and_lookup() {
        let cell = Cell::new().metric("seconds", 1.5).note("bound", "memory");
        assert_eq!(cell.get("seconds"), Some(1.5));
        assert_eq!(cell.get("missing"), None);
        assert_eq!(cell.notes[0].1, "memory");
    }

    #[test]
    fn run_report_bridges_to_cell() {
        let model = diva_workload::zoo::lstm_small();
        let accel = Accelerator::from_design_point(diva_core::DesignPoint::Diva).unwrap();
        let report = accel.run(&model, Algorithm::DpSgdReweighted, 8);
        let cell = Cell::from(&report);
        assert_eq!(cell.get("seconds"), Some(report.seconds));
        assert!(cell.get("cycles_bwd_per_batch_grad").unwrap() > 0.0);
    }
}
