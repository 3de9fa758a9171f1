//! Typed request/response layer: flat-JSON request bodies in, canonical
//! cache keys and deterministic JSON documents out.
//!
//! Request bodies are flat JSON objects (string and numeric values), read
//! by [`diva_bench::perf::parse_flat_json_object`], so `/run` bodies read
//! like the `diva-report` command line they replace:
//!
//! ```json
//! {"scenario": "fig13", "models": "mobilenet,squeezenet",
//!  "points": "ws,diva", "set.sram_mib": "8", "sweep.drain_rows": "2,4"}
//! ```
//!
//! `/run` responses are produced by the same
//! [`scenario::run_with`] → [`json::to_json`] pipeline `diva-report
//! --json` writes, so a served document is byte-identical to the CLI
//! artifact for the same cell — the property the memo cache's perfect-hit
//! semantics and the e2e suite both lean on. The other replies
//! (`diva-epsilon/v1`, `diva-compare/v1`, `diva-scenarios/v1` and the
//! error body) are written by [`diva_bench::perf`]'s `JsonObject` and
//! `JsonDocument`, like every other document of the workspace.

use diva_bench::explore::{
    self as explore_engine, ExploreConfig, Knob, Objective, SearchSpace, Strategy, Workload,
};
use diva_bench::perf::{parse_flat_json_object, JsonDocument, JsonObject, PerfRecord};
use diva_bench::scenario::{
    self, compare::compare_docs, json, norm_label, RunOptions, ScenarioError,
};
use diva_dp::{answer_epsilon_query, AccountError, AccountantKind, EpsilonAnswer, EpsilonQuery};
use std::fmt::Write as _;

use crate::http::HttpError;

/// One API-level failure: a status code, a stable kind slug, and the
/// user-facing message. Rendered as `{"error": kind, "message": ...}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status.
    pub status: u16,
    /// Stable machine-readable slug (`"unknown-scenario"`, `"config"`...).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// Builds an error.
    pub fn new(status: u16, kind: &str, message: impl Into<String>) -> Self {
        Self {
            status,
            kind: kind.to_string(),
            message: message.into(),
        }
    }

    /// A 400 with kind `"bad-request"`.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad-request", message)
    }

    /// The JSON error body.
    pub fn body(&self) -> Vec<u8> {
        JsonObject::new()
            .string("error", &self.kind)
            .string("message", &self.message)
            .line()
    }

    /// Maps the scenario engine's taxonomy onto statuses: unknown
    /// scenario is the caller's 404, malformed options/config are 400s,
    /// everything else (cells failed without `keep_going`, journal, io)
    /// is a 500 that still names the failure kind.
    pub fn from_scenario(err: &ScenarioError) -> Self {
        let (status, kind) = match err {
            ScenarioError::UnknownScenario { .. } => (404, "unknown-scenario"),
            ScenarioError::InvalidOptions(_) => (400, "invalid-options"),
            ScenarioError::Config(_) => (400, "config"),
            ScenarioError::Definition(_) => (500, "definition"),
            ScenarioError::CellsFailed { .. } => (500, "cells-failed"),
            ScenarioError::Journal(_) => (500, "journal"),
            ScenarioError::Io { .. } => (500, "io"),
            ScenarioError::Parse(_) => (500, "parse"),
        };
        Self::new(status, kind, err.to_string())
    }

    /// Maps accounting errors: every one is a caller error (bad q, σ, δ,
    /// or an unanswerable query) — 400 with kind `"account"`.
    pub fn from_account(err: &AccountError) -> Self {
        Self::new(400, "account", err.to_string())
    }

    /// Maps protocol-level failures onto their status/kind.
    pub fn from_http(err: &HttpError) -> Self {
        Self::new(err.status(), err.kind(), err.message())
    }
}

/// How a `/run` request wants to be executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Let the server decide by estimated grid size (the default).
    Auto,
    /// Force a synchronous response.
    Sync,
    /// Force `202 + /jobs/{id}`.
    Job,
}

/// A parsed `/run` request: the canonical scenario name, runner options,
/// and execution mode.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// Registry-canonical scenario name.
    pub scenario: String,
    /// The options handed to [`scenario::run_with`].
    pub opts: RunOptions,
    /// Sync/job routing.
    pub mode: RunMode,
}

fn split_list(raw: &str) -> Vec<String> {
    raw.split([',', '|'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn config_error(e: &diva_arch::ConfigError) -> ApiError {
    ApiError::new(400, "config", diva_core::spec::config_message(e))
}

/// Reads a request body: one flat JSON object.
fn parse_body(body: &[u8]) -> Result<PerfRecord, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    parse_flat_json_object(text)
        .map_err(|e| ApiError::bad_request(format!("malformed JSON body: {e}")))
}

/// Formats a numeric body value the way its JSON literal reads (integers
/// without a trailing `.0`).
fn num_string(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Parses a `/run` body.
///
/// # Errors
///
/// 400 for malformed JSON, unknown fields, malformed `set.*`/`sweep.*`
/// assignments or unregistered parameter names (the same message the CLI
/// prints); 404 for an unknown scenario.
pub fn parse_run_request(body: &[u8]) -> Result<RunRequest, ApiError> {
    let record = parse_body(body)?;

    let mut scenario_name: Option<String> = None;
    let mut opts = RunOptions::default();
    let mut mode = RunMode::Auto;

    for (key, value) in &record.tags {
        match key.as_str() {
            "scenario" => scenario_name = Some(value.clone()),
            "models" => opts.filters.push(("model".to_string(), split_list(value))),
            "points" => opts.filters.push(("point".to_string(), split_list(value))),
            "algs" => opts
                .filters
                .push(("algorithm".to_string(), split_list(value))),
            "batch" => {
                opts.batch_override = Some(parse_batches(value)?);
            }
            "mode" => {
                mode = match value.as_str() {
                    "auto" => RunMode::Auto,
                    "sync" => RunMode::Sync,
                    "job" => RunMode::Job,
                    other => {
                        return Err(ApiError::bad_request(format!(
                            "unknown mode {other:?} (want auto, sync or job)"
                        )))
                    }
                };
            }
            "keep_going" => {
                opts.keep_going = match value.as_str() {
                    "true" | "yes" | "on" | "1" => true,
                    "false" | "no" | "off" | "0" => false,
                    other => {
                        return Err(ApiError::bad_request(format!(
                            "keep_going wants a boolean, got {other:?}"
                        )))
                    }
                };
            }
            _ if key.starts_with("axis.") => {
                let axis = &key["axis.".len()..];
                if axis.is_empty() {
                    return Err(ApiError::bad_request("axis.NAME wants a non-empty NAME"));
                }
                opts.filters.push((axis.to_string(), split_list(value)));
            }
            _ if key.starts_with("set.") => {
                let spec = format!("{}={}", &key["set.".len()..], value);
                let (k, v) =
                    diva_core::spec::parse_set_spec(&spec).map_err(|e| config_error(&e))?;
                opts.set_overrides.push((k, v));
            }
            _ if key.starts_with("sweep.") => {
                let spec = format!("{}={}", &key["sweep.".len()..], value);
                let (k, vs) =
                    diva_core::spec::parse_sweep_spec(&spec).map_err(|e| config_error(&e))?;
                opts.sweeps.push((k, vs));
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown field {other:?}; known fields: scenario, models, points, algs, \
                     axis.NAME, batch, set.KEY, sweep.KEY, keep_going, max_retries, mode"
                )))
            }
        }
    }
    for (key, value) in &record.metrics {
        match key.as_str() {
            "batch" => opts.batch_override = Some(parse_batches(&num_string(*value))?),
            "max_retries" => {
                if *value < 0.0 || value.fract() != 0.0 {
                    return Err(ApiError::bad_request(format!(
                        "max_retries wants a non-negative integer, got {value}"
                    )));
                }
                opts.max_retries = *value as u32;
            }
            "keep_going" => opts.keep_going = *value != 0.0,
            _ if key.starts_with("set.") => {
                let spec = format!("{}={}", &key["set.".len()..], num_string(*value));
                let (k, v) =
                    diva_core::spec::parse_set_spec(&spec).map_err(|e| config_error(&e))?;
                opts.set_overrides.push((k, v));
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown numeric field {other:?}"
                )))
            }
        }
    }

    let requested = scenario_name
        .ok_or_else(|| ApiError::bad_request("missing required field \"scenario\""))?;
    // Canonicalize through the registry so differently-spelled names
    // share one cache entry; unknown names are the 404.
    let info = scenario::find(&requested).ok_or_else(|| {
        ApiError::from_scenario(&ScenarioError::UnknownScenario {
            name: requested.clone(),
            available: scenario::list().iter().map(|s| s.to_string()).collect(),
        })
    })?;
    Ok(RunRequest {
        scenario: info.name.to_string(),
        opts,
        mode,
    })
}

fn parse_batches(raw: &str) -> Result<Vec<u64>, ApiError> {
    let batches: Result<Vec<u64>, _> = split_list(raw).iter().map(|b| b.parse()).collect();
    let batches =
        batches.map_err(|e| ApiError::bad_request(format!("batch wants integers: {e}")))?;
    if batches.is_empty() || batches.contains(&0) {
        return Err(ApiError::bad_request("batch wants positive integers"));
    }
    Ok(batches)
}

/// The canonical cache key of a `/run` request: scenario plus every
/// result-shaping option, in option order (filter order is semantic —
/// the runner honors the first filter per axis — so keys preserve it).
/// `mode` is excluded: sync and job execution share one cache entry.
pub fn run_cache_key(req: &RunRequest) -> String {
    let mut key = format!("run;scenario={}", req.scenario);
    for (axis, labels) in &req.opts.filters {
        let _ = write!(key, ";filter:{axis}={}", labels.join(","));
    }
    if let Some(batches) = &req.opts.batch_override {
        let joined: Vec<String> = batches.iter().map(u64::to_string).collect();
        let _ = write!(key, ";batch={}", joined.join(","));
    }
    for (k, v) in &req.opts.set_overrides {
        let _ = write!(key, ";set:{k}={v}");
    }
    for (k, vs) in &req.opts.sweeps {
        let _ = write!(key, ";sweep:{k}={}", vs.join(","));
    }
    if req.opts.keep_going {
        key.push_str(";keep_going");
    }
    if req.opts.max_retries > 0 {
        let _ = write!(key, ";max_retries={}", req.opts.max_retries);
    }
    key
}

/// Estimates the grid size of `req` without evaluating anything: the
/// product of per-axis visible label counts (after the first filter per
/// axis, mirroring the runner), the batch override, and injected sweep
/// axes. Used to route grid-sized requests to the job queue.
pub fn estimate_cells(req: &RunRequest) -> usize {
    let Some(info) = scenario::find(&req.scenario) else {
        return 0;
    };
    let exp = (info.build)();
    let mut cells: usize = 1;
    for axis in &exp.axes {
        let batch_override = req
            .opts
            .batch_override
            .as_ref()
            .filter(|_| axis.name == "batch");
        let count = if let Some(batches) = batch_override {
            batches.len()
        } else if let Some((_, labels)) = req.opts.filters.iter().find(|(a, _)| *a == axis.name) {
            let wanted: Vec<String> = labels.iter().map(|l| norm_label(l)).collect();
            axis.values
                .iter()
                .filter(|v| wanted.contains(&norm_label(&v.label)))
                .count()
        } else {
            axis.values.len()
        };
        cells = cells.saturating_mul(count);
    }
    for (_, values) in &req.opts.sweeps {
        cells = cells.saturating_mul(values.len());
    }
    cells
}

/// Runs the scenario and renders the `diva-scenario/v1` document —
/// byte-identical to what `diva-report --json` writes for the same
/// options.
///
/// # Errors
///
/// The mapped [`ScenarioError`] taxonomy (see
/// [`ApiError::from_scenario`]).
pub fn execute_run(req: &RunRequest) -> Result<Vec<u8>, ApiError> {
    let result =
        scenario::run_with(&req.scenario, &req.opts).map_err(|e| ApiError::from_scenario(&e))?;
    Ok(json::to_json(&result).into_bytes())
}

/// A parsed `/explore` request: the search handed to the design-space
/// explorer, plus execution routing.
#[derive(Clone, Debug)]
pub struct ExploreRequest {
    /// The search [`explore_engine::explore`] runs. Served searches never
    /// journal (`journal_dir` stays `None`) — resumability belongs to the
    /// CLI; the server's idempotence comes from the memo cache instead.
    pub config: ExploreConfig,
    /// Sync/job routing. Defaults to [`RunMode::Job`]: a search is
    /// grid-sized by construction, so `/explore` answers `202 +
    /// /jobs/{id}` unless the body forces `"mode": "sync"`.
    pub mode: RunMode,
}

/// Parses an `/explore` body. All fields are optional — an empty object
/// runs the default 6-knob search around the DiVa preset.
///
/// String fields: `strategy` (`grid`/`random`/`halving`), `objectives`
/// (comma list of `latency`/`energy`/`area`), `workloads` (comma list of
/// `model@batch`), `base` (preset name), `mode`, and repeatable
/// `knob.NAME` entries (`"knob.pe.rows": "64|128"`) which together
/// replace the default knob grid. Numeric fields: `budget`, `seed`,
/// `batch_size`.
///
/// # Errors
///
/// 400 for malformed JSON, unknown fields, unknown strategy/objective/
/// workload/preset names, unregistered knob parameters, or non-integer
/// numeric fields.
pub fn parse_explore_request(body: &[u8]) -> Result<ExploreRequest, ApiError> {
    let record = parse_body(body)?;

    let mut config = ExploreConfig::new(SearchSpace::default_space());
    let mut knobs: Vec<Knob> = Vec::new();
    let mut mode = RunMode::Job;

    for (key, value) in &record.tags {
        match key.as_str() {
            "strategy" => {
                config.strategy = Strategy::parse(value).map_err(ApiError::bad_request)?
            }
            "objectives" => {
                config.objectives = Objective::parse_list(value).map_err(ApiError::bad_request)?;
            }
            "workloads" => {
                let parsed: Result<Vec<Workload>, String> = split_list(value)
                    .iter()
                    .map(|w| Workload::parse(w))
                    .collect();
                config.workloads = parsed.map_err(ApiError::bad_request)?;
                if config.workloads.is_empty() {
                    return Err(ApiError::bad_request(
                        "workloads wants at least one model@batch",
                    ));
                }
            }
            "base" => {
                config.space.base =
                    diva_core::DesignPoint::parse(value).map_err(|e| config_error(&e))?;
            }
            "mode" => {
                mode = match value.as_str() {
                    "sync" => RunMode::Sync,
                    "job" => RunMode::Job,
                    other => {
                        return Err(ApiError::bad_request(format!(
                            "unknown mode {other:?} (want sync or job)"
                        )))
                    }
                };
            }
            _ if key.starts_with("knob.") => {
                let name = &key["knob.".len()..];
                knobs.push(Knob::parse(&format!("{name}={value}")).map_err(ApiError::bad_request)?);
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown field {other:?}; known fields: strategy, budget, seed, \
                     batch_size, objectives, workloads, base, knob.NAME, mode"
                )))
            }
        }
    }
    let int_field = |value: f64, name: &str| -> Result<u64, ApiError> {
        if value < 0.0 || value.fract() != 0.0 {
            return Err(ApiError::bad_request(format!(
                "{name} wants a non-negative integer, got {value}"
            )));
        }
        Ok(value as u64)
    };
    for (key, value) in &record.metrics {
        match key.as_str() {
            "budget" => config.budget = int_field(*value, "budget")? as usize,
            "seed" => config.seed = int_field(*value, "seed")?,
            "batch_size" => config.batch_size = int_field(*value, "batch_size")? as usize,
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown numeric field {other:?}; known numeric fields: budget, seed, \
                     batch_size"
                )))
            }
        }
    }
    if !knobs.is_empty() {
        config.space.knobs = knobs;
    }
    Ok(ExploreRequest { config, mode })
}

/// The canonical cache key of an `/explore` request: everything that
/// shapes the candidate sequence or a point's metrics, in a fixed field
/// order (knob order is semantic — it fixes the grid odometer and the
/// random choice order — so keys preserve it). `mode` is excluded: sync
/// and job execution share one cache entry.
pub fn explore_cache_key(req: &ExploreRequest) -> String {
    let cfg = &req.config;
    let mut key = format!(
        "explore;base={};strategy={};seed={};budget={};batch={}",
        cfg.space.base.label(),
        cfg.strategy.slug(),
        cfg.seed,
        cfg.budget,
        cfg.batch_size
    );
    for k in &cfg.space.knobs {
        let _ = write!(key, ";knob:{}={}", k.param, k.values.join("|"));
    }
    for w in &cfg.workloads {
        let _ = write!(key, ";workload={}", w.spec_string());
    }
    for o in &cfg.objectives {
        let _ = write!(key, ";objective={}", o.metric());
    }
    key
}

/// Runs the search and renders the `diva-explore/v1` frontier document —
/// byte-identical to what `diva-explore --json` writes for the same
/// configuration.
///
/// # Errors
///
/// The mapped [`ScenarioError`] taxonomy (an ill-formed search is a 400
/// `invalid-options`).
pub fn execute_explore(req: &ExploreRequest) -> Result<Vec<u8>, ApiError> {
    let result = explore_engine::explore(&req.config).map_err(|e| ApiError::from_scenario(&e))?;
    Ok(explore_engine::render::render_json(&result).into_bytes())
}

/// A parsed `/epsilon` request: the base query evaluated under one or
/// more accountants.
#[derive(Clone, Debug, PartialEq)]
pub struct EpsilonRequest {
    /// The accountants to answer under, in response order.
    pub kinds: Vec<AccountantKind>,
    /// Poisson sampling rate q.
    pub sampling_rate: f64,
    /// Noise multiplier σ.
    pub noise_multiplier: f64,
    /// Composed step count.
    pub steps: u64,
    /// The δ target.
    pub delta: f64,
    /// Optional ε-vs-steps curve points.
    pub step_counts: Vec<u64>,
}

/// Parses an `/epsilon` body: `q`, `sigma` and `steps` are required
/// numbers; `delta` defaults to `1e-5`; `accountant` defaults to
/// `"pld,rdp"` (both engines); `step_counts` is an optional list.
///
/// # Errors
///
/// 400 for malformed JSON, missing/invalid fields or unknown accountant
/// names.
pub fn parse_epsilon_request(body: &[u8]) -> Result<EpsilonRequest, ApiError> {
    let record = parse_body(body)?;
    let known_tags = ["accountant", "step_counts"];
    let known_metrics = ["q", "sigma", "steps", "delta"];
    for (key, _) in &record.tags {
        if !known_tags.contains(&key.as_str()) {
            return Err(ApiError::bad_request(format!(
                "unknown field {key:?}; known fields: q, sigma, steps, delta, accountant, \
                 step_counts"
            )));
        }
    }
    for (key, _) in &record.metrics {
        if !known_metrics.contains(&key.as_str()) {
            return Err(ApiError::bad_request(format!(
                "unknown numeric field {key:?}"
            )));
        }
    }
    let need = |key: &str| {
        record
            .metric_value(key)
            .ok_or_else(|| ApiError::bad_request(format!("missing required number {key:?}")))
    };
    let steps_raw = need("steps")?;
    if steps_raw < 1.0 || steps_raw.fract() != 0.0 {
        return Err(ApiError::bad_request(format!(
            "steps wants a positive integer, got {steps_raw}"
        )));
    }
    let kinds = match record.tag_value("accountant") {
        None => vec![AccountantKind::Pld, AccountantKind::Rdp],
        Some(raw) => {
            let mut kinds = Vec::new();
            for name in split_list(raw) {
                kinds.push(AccountantKind::parse(&name).map_err(|e| ApiError::from_account(&e))?);
            }
            if kinds.is_empty() {
                return Err(ApiError::bad_request("accountant wants at least one name"));
            }
            kinds
        }
    };
    let step_counts = match record.tag_value("step_counts") {
        None => Vec::new(),
        Some(raw) => {
            let parsed: Result<Vec<u64>, _> = split_list(raw).iter().map(|v| v.parse()).collect();
            parsed.map_err(|e| ApiError::bad_request(format!("step_counts wants integers: {e}")))?
        }
    };
    Ok(EpsilonRequest {
        kinds,
        sampling_rate: need("q")?,
        noise_multiplier: need("sigma")?,
        steps: steps_raw as u64,
        delta: record.metric_value("delta").unwrap_or(1e-5),
        step_counts,
    })
}

/// The canonical cache key of an `/epsilon` request.
pub fn epsilon_cache_key(req: &EpsilonRequest) -> String {
    let kinds: Vec<&str> = req.kinds.iter().map(|k| k.label()).collect();
    let counts: Vec<String> = req.step_counts.iter().map(u64::to_string).collect();
    format!(
        "epsilon;kinds={};q={};sigma={};steps={};delta={};counts={}",
        kinds.join(","),
        req.sampling_rate,
        req.noise_multiplier,
        req.steps,
        req.delta,
        counts.join(",")
    )
}

/// Answers the query under every requested accountant and renders the
/// `diva-epsilon/v1` document (flat records, parseable by
/// [`diva_bench::perf::parse_perf_json`]).
///
/// # Errors
///
/// 400 with kind `"account"` carrying the accountant's typed message.
pub fn execute_epsilon(req: &EpsilonRequest) -> Result<Vec<u8>, ApiError> {
    let mut answers: Vec<(AccountantKind, EpsilonAnswer)> = Vec::new();
    for &kind in &req.kinds {
        let answer = answer_epsilon_query(&EpsilonQuery {
            accountant: kind,
            sampling_rate: req.sampling_rate,
            noise_multiplier: req.noise_multiplier,
            steps: req.steps,
            delta: req.delta,
            step_counts: req.step_counts.clone(),
        })
        .map_err(|e| ApiError::from_account(&e))?;
        answers.push((kind, answer));
    }
    let head = JsonObject::new()
        .string("schema", "diva-epsilon/v1")
        .number("q", req.sampling_rate)
        .number("sigma", req.noise_multiplier)
        .integer("steps", req.steps)
        .number("delta", req.delta);
    let mut records = Vec::new();
    for (kind, answer) in &answers {
        let record = |name: &str| JsonObject::named(name).string("accountant", kind.label());
        records.push(record("epsilon").number("epsilon", answer.epsilon));
        for &(count, eps) in &answer.curve {
            records.push(
                record("epsilon_curve")
                    .integer("steps", count)
                    .number("epsilon", eps),
            );
        }
    }
    Ok(JsonDocument::new(head)
        .array("records", records)
        .finish()
        .into_bytes())
}

/// Parses and gates a `/compare` body: two `diva-scenario/v1` documents
/// joined by a `\n---\n` separator line, gated at `tolerance`. Returns
/// `(passed, rendered report document)`.
///
/// # Errors
///
/// 400 for a missing separator or unparseable documents.
pub fn execute_compare(body: &[u8], tolerance: f64) -> Result<(bool, Vec<u8>), ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    let (doc_a, doc_b) = text.split_once("\n---\n").ok_or_else(|| {
        ApiError::bad_request(
            "compare wants two diva-scenario/v1 documents separated by a \"---\" line",
        )
    })?;
    let report = compare_docs(doc_a, doc_b, tolerance)
        .map_err(|e| ApiError::new(400, "parse", format!("parse error: {e}")))?;
    let passed = report.passed();
    let head = JsonObject::new()
        .string("schema", "diva-compare/v1")
        .string("scenario", &report.scenario)
        .boolean("passed", passed)
        .integer("matched", report.matched as u64)
        .integer("violations", report.violations().len() as u64)
        .string("report", &report.render());
    Ok((passed, JsonDocument::new(head).finish().into_bytes()))
}

/// Renders the `/scenarios` document: every registry entry with its axis
/// shape and summary, then every `--set`/`--sweep` parameter with its
/// DiVa-preset default — one flat `records` array. The registry is
/// static, so the server builds this once.
pub fn scenarios_document() -> Vec<u8> {
    let scenarios = scenario::registry::REGISTRY.iter().map(|info| {
        let axes: Vec<String> = (info.build)()
            .axes
            .iter()
            .map(|a| format!("{}({})", a.name, a.values.len()))
            .collect();
        JsonObject::named(info.name)
            .string("kind", "scenario")
            .string("axes", &axes.join(" x "))
            .string("summary", info.summary)
    });
    let default = diva_core::DesignPoint::Diva.config();
    let params = diva_arch::params::PARAMS.iter().map(|p| {
        JsonObject::named(p.name)
            .string("kind", "param")
            .string("default", &(p.get)(&default).format())
            .string("doc", p.doc)
    });
    JsonDocument::new(JsonObject::new().string("schema", "diva-scenarios/v1"))
        .array("records", scenarios.chain(params))
        .finish()
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_bench::perf::json_string;

    #[test]
    fn run_request_parses_filters_overrides_and_mode() {
        let req = parse_run_request(
            br#"{"scenario": "FIG13", "models": "mobilenet,squeezenet", "points": "ws|diva",
                 "axis.algorithm": "dp-sgd-r", "batch": "32,64", "set.sram_mib": "8",
                 "sweep.drain_rows": "2,4", "keep_going": "true", "max_retries": 1,
                 "mode": "sync"}"#,
        )
        .unwrap();
        assert_eq!(req.scenario, "fig13", "canonicalized through the registry");
        assert_eq!(req.mode, RunMode::Sync);
        assert_eq!(req.opts.filters.len(), 3);
        assert_eq!(req.opts.filters[0].1, vec!["mobilenet", "squeezenet"]);
        assert_eq!(req.opts.filters[1].1, vec!["ws", "diva"]);
        assert_eq!(req.opts.batch_override, Some(vec![32, 64]));
        assert_eq!(
            req.opts.set_overrides,
            vec![("sram_mib".to_string(), "8".to_string())]
        );
        assert_eq!(req.opts.sweeps[0].0, "drain_rows");
        assert!(req.opts.keep_going);
        assert_eq!(req.opts.max_retries, 1);
    }

    #[test]
    fn run_request_errors_are_typed() {
        let err = parse_run_request(b"{\"models\": \"x\"}").unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("scenario"));

        let err = parse_run_request(b"{\"scenario\": \"nope\"}").unwrap_err();
        assert_eq!((err.status, err.kind.as_str()), (404, "unknown-scenario"));
        assert!(err.message.contains("fig13"), "lists the registry");

        let err =
            parse_run_request(b"{\"scenario\": \"fig13\", \"set.sram_gb\": \"8\"}").unwrap_err();
        assert_eq!((err.status, err.kind.as_str()), (400, "config"));
        // The shared diva_core::spec path: identical words to the CLI.
        assert_eq!(
            err.message,
            diva_core::spec::config_message(&diva_arch::ConfigError::UnknownParameter(
                "sram_gb".to_string()
            ))
        );

        let err = parse_run_request(b"{\"scenario\": \"fig13\", \"bogus\": \"x\"}").unwrap_err();
        assert!(err.message.contains("unknown field"));

        assert!(parse_run_request(b"not json").is_err());
    }

    #[test]
    fn cache_key_is_order_preserving_and_mode_free() {
        let a = parse_run_request(
            br#"{"scenario": "fig13", "models": "a", "points": "b", "mode": "sync"}"#,
        )
        .unwrap();
        let b = parse_run_request(
            br#"{"scenario": "fig13", "models": "a", "points": "b", "mode": "job"}"#,
        )
        .unwrap();
        assert_eq!(run_cache_key(&a), run_cache_key(&b));
        let c =
            parse_run_request(br#"{"scenario": "fig13", "points": "b", "models": "a"}"#).unwrap();
        assert_ne!(
            run_cache_key(&a),
            run_cache_key(&c),
            "filter order is semantic (first filter per axis wins)"
        );
    }

    #[test]
    fn cell_estimate_honors_filters_sweeps_and_batch() {
        let full = parse_run_request(b"{\"scenario\": \"fig13\"}").unwrap();
        let filtered = parse_run_request(
            br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva",
                 "sweep.drain_rows": "2,4", "batch": "32,64"}"#,
        )
        .unwrap();
        let full_cells = estimate_cells(&full);
        let filtered_cells = estimate_cells(&filtered);
        assert!(full_cells > 0 && filtered_cells > 0);
        assert!(filtered_cells < full_cells * 4, "filters shrink the grid");
        // 1 model x 2 points x 2 sweep values x 2 batches x other axes.
        assert_eq!(filtered_cells % (2 * 2 * 2), 0);
    }

    #[test]
    fn explore_request_defaults_and_overrides() {
        let req = parse_explore_request(b"{}").unwrap();
        assert_eq!(req.mode, RunMode::Job, "searches default to the job queue");
        assert_eq!(req.config.space.knobs.len(), 6, "default knob grid");
        assert_eq!(req.config.budget, 64);

        let req = parse_explore_request(
            br#"{"strategy": "halving", "budget": 10, "seed": 7, "batch_size": 4,
                 "objectives": "latency,area", "workloads": "squeezenet@8",
                 "base": "ws", "knob.pe.rows": "64|128",
                 "knob.freq_mhz": "470|940", "mode": "sync"}"#,
        )
        .unwrap();
        assert_eq!(req.mode, RunMode::Sync);
        assert_eq!(req.config.strategy, Strategy::Halving);
        assert_eq!(
            (req.config.budget, req.config.seed, req.config.batch_size),
            (10, 7, 4)
        );
        assert_eq!(
            req.config.objectives,
            vec![Objective::Latency, Objective::Area]
        );
        assert_eq!(req.config.workloads.len(), 1);
        assert_eq!(req.config.space.base, diva_core::DesignPoint::WsBaseline);
        assert_eq!(
            req.config.space.knobs.len(),
            2,
            "knob.* replaces the default grid"
        );
        assert_eq!(req.config.space.knobs[0].param, "pe.rows");
        assert!(
            req.config.journal_dir.is_none(),
            "served searches never journal"
        );
    }

    #[test]
    fn explore_request_errors_are_typed() {
        for body in [
            br#"{"strategy": "annealing"}"#.as_slice(),
            br#"{"objectives": "speed"}"#.as_slice(),
            br#"{"workloads": "gpt4@8"}"#.as_slice(),
            br#"{"base": "gpu"}"#.as_slice(),
            br#"{"knob.sram_gb": "8|16"}"#.as_slice(),
            br#"{"budget": 1.5}"#.as_slice(),
            br#"{"mode": "auto"}"#.as_slice(),
            br#"{"bogus": "x"}"#.as_slice(),
        ] {
            let err = parse_explore_request(body).unwrap_err();
            assert_eq!(err.status, 400, "{}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn explore_cache_key_is_mode_free_and_knob_order_preserving() {
        let sync = parse_explore_request(br#"{"knob.pe.rows": "64|128", "mode": "sync"}"#).unwrap();
        let job = parse_explore_request(br#"{"knob.pe.rows": "64|128", "mode": "job"}"#).unwrap();
        assert_eq!(explore_cache_key(&sync), explore_cache_key(&job));
        let a = parse_explore_request(br#"{"knob.pe.rows": "64|128", "knob.sram_mib": "8|16"}"#)
            .unwrap();
        let b = parse_explore_request(br#"{"knob.sram_mib": "8|16", "knob.pe.rows": "64|128"}"#)
            .unwrap();
        assert_ne!(
            explore_cache_key(&a),
            explore_cache_key(&b),
            "knob order fixes the candidate sequence"
        );
    }

    #[test]
    fn explore_document_matches_the_cli_renderer() {
        let body = br#"{"strategy": "grid", "budget": 4, "batch_size": 2,
                        "workloads": "squeezenet@4", "knob.pe.rows": "64|128",
                        "knob.drain_rows": "4|8"}"#;
        let req = parse_explore_request(body).unwrap();
        let served = execute_explore(&req).unwrap();
        let direct = explore_engine::explore(&req.config).unwrap();
        assert_eq!(
            served,
            explore_engine::render::render_json(&direct).into_bytes(),
            "served /explore document differs from diva-explore --json bytes"
        );
        let text = String::from_utf8(served).unwrap();
        assert!(text.contains("\"schema\": \"diva-explore/v1\""), "{text}");
    }

    #[test]
    fn epsilon_request_defaults_and_validation() {
        let req = parse_epsilon_request(br#"{"q": 0.01, "sigma": 1.1, "steps": 1000}"#).unwrap();
        assert_eq!(req.kinds, vec![AccountantKind::Pld, AccountantKind::Rdp]);
        assert_eq!(req.delta, 1e-5);
        assert!(req.step_counts.is_empty());

        let req = parse_epsilon_request(
            br#"{"accountant": "rdp", "q": 0.02, "sigma": 1.5, "steps": 500,
                 "delta": 0.000001, "step_counts": "100,250,500"}"#,
        )
        .unwrap();
        assert_eq!(req.kinds, vec![AccountantKind::Rdp]);
        assert_eq!(req.step_counts, vec![100, 250, 500]);

        assert!(parse_epsilon_request(b"{\"q\": 0.01, \"sigma\": 1.1}").is_err());
        assert!(parse_epsilon_request(
            br#"{"accountant": "magic", "q": 0.01, "sigma": 1.1, "steps": 10}"#
        )
        .is_err());
        assert!(
            parse_epsilon_request(br#"{"q": 0.01, "sigma": 1.1, "steps": 10, "nonsense": 1}"#)
                .is_err()
        );
    }

    #[test]
    fn epsilon_document_matches_direct_queries() {
        let req = parse_epsilon_request(
            br#"{"q": 0.01, "sigma": 1.1, "steps": 200, "step_counts": "100,200"}"#,
        )
        .unwrap();
        let doc = String::from_utf8(execute_epsilon(&req).unwrap()).unwrap();
        let records = diva_bench::perf::parse_perf_json(&doc).unwrap();
        // 2 accountants x (1 headline + 2 curve points).
        assert_eq!(records.len(), 6);
        let headline = |label: &str| {
            records
                .iter()
                .find(|r| r.name == "epsilon" && r.tag_value("accountant") == Some(label))
                .and_then(|r| r.metric_value("epsilon"))
                .unwrap()
        };
        let direct = diva_dp::event_epsilon(
            AccountantKind::Pld,
            &diva_dp::DpEvent::dp_sgd(0.01, 1.1, 200),
            1e-5,
        )
        .unwrap();
        assert!((headline("pld") - direct).abs() < 1e-12);
        assert!(headline("pld") <= headline("rdp"), "PLD is tighter");
    }

    #[test]
    fn error_body_bytes_are_pinned() {
        let err = ApiError::new(400, "bad-request", "field \"q\" wants\ta number\n\u{7}");
        assert_eq!(
            err.body(),
            b"{\"error\": \"bad-request\", \"message\": \"field \\\"q\\\" wants\\ta number\\n\\u0007\"}\n"
        );
    }

    #[test]
    fn epsilon_document_bytes_are_pinned() {
        let req = parse_epsilon_request(
            br#"{"accountant": "rdp,pld", "q": 0.02, "sigma": 1.5, "steps": 300,
                 "delta": 0.000001, "step_counts": "100,300"}"#,
        )
        .unwrap();
        let doc = String::from_utf8(execute_epsilon(&req).unwrap()).unwrap();
        assert_eq!(
            doc,
            concat!(
                "{\n",
                "  \"schema\": \"diva-epsilon/v1\",\n",
                "  \"q\": 0.02,\n",
                "  \"sigma\": 1.5,\n",
                "  \"steps\": 300,\n",
                "  \"delta\": 0.000001,\n",
                "  \"records\": [\n",
                "    {\"name\": \"epsilon\", \"accountant\": \"rdp\", ",
                "\"epsilon\": 1.6065344756898718},\n",
                "    {\"name\": \"epsilon_curve\", \"accountant\": \"rdp\", \"steps\": 100, ",
                "\"epsilon\": 1.142913523803914},\n",
                "    {\"name\": \"epsilon_curve\", \"accountant\": \"rdp\", \"steps\": 300, ",
                "\"epsilon\": 1.6065344756898718},\n",
                "    {\"name\": \"epsilon\", \"accountant\": \"pld\", ",
                "\"epsilon\": 1.2263946653842746},\n",
                "    {\"name\": \"epsilon_curve\", \"accountant\": \"pld\", \"steps\": 100, ",
                "\"epsilon\": 0.7385060422275408},\n",
                "    {\"name\": \"epsilon_curve\", \"accountant\": \"pld\", \"steps\": 300, ",
                "\"epsilon\": 1.2264344570147292}\n",
                "  ]\n",
                "}\n"
            )
        );
    }

    #[test]
    fn compare_document_bytes_are_pinned() {
        let doc = |v: &str| {
            format!(
                "{{\n  \"schema\": \"diva-scenario/v1\",\n  \"scenario\": \"toy\",\n  \
                 \"title\": \"Toy\",\n  \"derived\": \"ratio\",\n  \"overrides\": \"\",\n  \
                 \"axes\": [\n    {{\"name\": \"point\", \"values\": \"p0|p1\"}}\n  ],\n  \
                 \"reductions\": [\n  ],\n  \"records\": [\n    \
                 {{\"name\": \"toy\", \"point\": \"p0\", \"ratio\": 1}},\n    \
                 {{\"name\": \"toy\", \"point\": \"p1\", \"ratio\": {v}}}\n  ]\n}}\n"
            )
        };
        let body = format!("{}---\n{}", doc("2"), doc("3"));
        let (passed, report) = execute_compare(body.as_bytes(), 0.05).unwrap();
        assert!(!passed);
        assert_eq!(
            String::from_utf8(report).unwrap(),
            concat!(
                "{\n",
                "  \"schema\": \"diva-compare/v1\",\n",
                "  \"scenario\": \"toy\",\n",
                "  \"passed\": false,\n",
                "  \"matched\": 2,\n",
                "  \"violations\": 1,\n",
                "  \"report\": \"compare toy: 2 matched cells, tolerance 5.0% on [ratio]\\n",
                "  [gated] ratio                            max drift   50.000% over 2 cells  ",
                "(worst: point=p1)  <-- VIOLATION\\nFAIL: 1 gated metric(s) drifted more than ",
                "5.0%\\n\"\n",
                "}\n"
            )
        );
    }

    #[test]
    fn scenarios_document_bytes_are_pinned() {
        let mut rows: Vec<String> = Vec::new();
        for info in scenario::registry::REGISTRY {
            let exp = (info.build)();
            let axes: Vec<String> = exp
                .axes
                .iter()
                .map(|a| format!("{}({})", a.name, a.values.len()))
                .collect();
            rows.push(format!(
                "    {{\"name\": {}, \"kind\": \"scenario\", \"axes\": {}, \"summary\": {}}}",
                json_string(info.name),
                json_string(&axes.join(" x ")),
                json_string(info.summary)
            ));
        }
        let default = diva_core::DesignPoint::Diva.config();
        for p in diva_arch::params::PARAMS {
            rows.push(format!(
                "    {{\"name\": {}, \"kind\": \"param\", \"default\": {}, \"doc\": {}}}",
                json_string(p.name),
                json_string(&(p.get)(&default).format()),
                json_string(p.doc)
            ));
        }
        let expected = format!(
            "{{\n  \"schema\": \"diva-scenarios/v1\",\n  \"records\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        assert_eq!(String::from_utf8(scenarios_document()).unwrap(), expected);
    }

    #[test]
    fn compare_self_diff_passes_and_split_is_required() {
        let result = scenario::run_with(
            "dp_accounting",
            &RunOptions::default()
                .filter("q", &["0.01"])
                .filter("sigma", &["1"]),
        )
        .unwrap();
        let doc = json::to_json(&result);
        let body = format!("{doc}---\n{doc}");
        let (passed, report) = execute_compare(body.as_bytes(), 0.05).unwrap();
        assert!(passed, "{}", String::from_utf8_lossy(&report));
        assert!(execute_compare(doc.as_bytes(), 0.05).is_err());
    }

    #[test]
    fn scenarios_document_lists_registry_and_params() {
        let doc = String::from_utf8(scenarios_document()).unwrap();
        let records = diva_bench::perf::parse_perf_json(&doc).unwrap();
        assert!(records.iter().any(|r| r.name == "fig13"));
        assert!(records
            .iter()
            .any(|r| r.name == "drain_rows" && r.tag_value("kind") == Some("param")));
    }
}
