//! The `diva-scenario/v1` JSON schema: serialization of a
//! [`ScenarioResult`] and a matching parser.
//!
//! The document is a flat document of [`crate::perf`], which writes and
//! reads it:
//!
//! ```json
//! {
//!   "schema": "diva-scenario/v1",
//!   "scenario": "fig13",
//!   "title": "Figure 13: ...",
//!   "axes": [
//!     {"name": "model", "values": "VGG-16|ResNet-50"},
//!     {"name": "point", "values": "WS|DiVa"}
//!   ],
//!   "reductions": [
//!     {"name": "DiVa speedup vs WS", "metric": "speedup", "kind": "geomean",
//!      "group": "", "filter": "point=DiVa", "paper": "avg 3.6x", "value": 3.4,
//!      "count": 9}
//!   ],
//!   "records": [
//!     {"name": "fig13", "model": "VGG-16", "point": "WS", "batch": "64",
//!      "seconds": 0.0123, "speedup": 1.0}
//!   ]
//! }
//! ```
//!
//! Every array element is a flat object of string and numeric values, so
//! [`crate::perf::parse_perf_json`] reads the `records` array as perf
//! records; axis value lists are `|`-joined into one string. Non-finite
//! metrics serialize as `null` and are dropped on parse.
//!
//! Failure records (`--keep-going`): a failed cell serializes with
//! `"status"`, `"error"` and `"attempts"` string tags and **no metrics**;
//! the document gains a top-level `"failed": N` count. Clean runs emit
//! neither — a document from a fully-successful run is byte-identical to
//! one from before the fault-tolerance layer, which is what makes the
//! `--resume` byte-identity guarantee testable against fresh runs.

use super::runner::{RowStatus, ScenarioResult, Summary};
use crate::perf::{self, JsonDocument, JsonObject, PerfRecord};

/// The schema identifier emitted by [`to_json`].
pub const SCHEMA: &str = "diva-scenario/v1";

/// Serializes a result to the `diva-scenario/v1` document.
pub fn to_json(result: &ScenarioResult) -> String {
    let mut head = JsonObject::new()
        .string("schema", SCHEMA)
        .string("scenario", &result.name)
        .string("title", &result.title)
        .string("derived", &result.derived_metrics.join("|"))
        .string("overrides", &join_pins(&result.overrides));
    if !result.failures.is_empty() {
        head = head.integer("failed", result.failures.len() as u64);
    }
    let axes = result
        .axes
        .iter()
        .map(|axis| JsonObject::named(&axis.name).string("values", &axis.labels.join("|")));
    let reductions = result.summaries.iter().map(|s| {
        let mut object = JsonObject::named(&s.label)
            .string("metric", &s.metric)
            .string("kind", s.kind.slug())
            .string("group", &join_pins(&s.group));
        if let Some(paper) = s.paper {
            object = object.string("paper", paper);
        }
        object = object
            .number("value", s.value)
            .integer("count", s.count as u64);
        if s.skipped > 0 {
            object = object.integer("skipped", s.skipped as u64);
        }
        object
    });
    let records = result.rows.iter().map(|row| {
        let mut object = JsonObject::named(&result.name).strings(&row.coords);
        if let RowStatus::Failed {
            kind,
            error,
            attempts,
        } = &row.status
        {
            object = object
                .string("status", kind.slug())
                .string("error", error)
                .string("attempts", &attempts.to_string());
        }
        object.strings(&row.notes).numbers(&row.metrics)
    });
    JsonDocument::new(head)
        .array("axes", axes)
        .array("reductions", reductions)
        .array("records", records)
        .finish()
}

/// A parsed `diva-scenario/v1` document.
#[derive(Clone, Debug)]
pub struct ParsedScenario {
    /// The schema identifier (must be [`SCHEMA`]).
    pub schema: String,
    /// The scenario's registry name.
    pub scenario: String,
    /// The table title.
    pub title: String,
    /// Names of the scenario's ratio-normalized (derived) metrics — the
    /// metrics `diva-report --compare` gates its exit code on. Empty for
    /// documents predating the field or scenarios without derived rules.
    pub derived: Vec<String>,
    /// The `--set` overrides the document was produced under, in the
    /// flat `key=value,key=value` form (empty for a baseline run).
    pub overrides: String,
    /// Parsed axes: `(name, labels)`.
    pub axes: Vec<(String, Vec<String>)>,
    /// Reduction summaries as flat records (`name` = label; the value is
    /// in the `"value"` metric, contributing cells in `"count"`).
    pub reductions: Vec<PerfRecord>,
    /// Result rows as flat records (`name` = scenario, axis/note tags,
    /// numeric metrics).
    pub records: Vec<PerfRecord>,
}

/// Parses a document produced by [`to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed construct, including a
/// schema mismatch.
pub fn parse_scenario_json(text: &str) -> Result<ParsedScenario, String> {
    let mut doc = perf::parse_flat_document(text)?;
    let schema = doc.string("schema")?;
    if schema != SCHEMA {
        return Err(format!("unexpected schema {schema:?} (want {SCHEMA:?})"));
    }
    let scenario = doc.string("scenario")?;
    let title = doc.string("title")?;
    // Optional (documents from before the design-space layer lack it).
    let derived: Vec<String> = doc
        .string("derived")
        .map(|s| {
            s.split('|')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    // Optional like "derived": absent in pre-design-space documents.
    let overrides = doc.string("overrides").unwrap_or_default();
    let axes: Vec<(String, Vec<String>)> = doc
        .take_array("axes")?
        .into_iter()
        .map(|r| {
            let values = r
                .tag_value("values")
                .map(|v| v.split('|').map(str::to_string).collect())
                .unwrap_or_default();
            (r.name, values)
        })
        .collect();
    let reductions = doc.take_array("reductions")?;
    let records = doc.take_array("records")?;
    // Duplicate cell coordinates are corruption (e.g. a concatenated or
    // double-written document), not something later consumers should
    // silently last-write-win on.
    let axis_names: Vec<&str> = axes.iter().map(|(name, _)| name.as_str()).collect();
    let mut seen_keys: Vec<String> = Vec::new();
    for record in &records {
        let key: Vec<String> = axis_names
            .iter()
            .filter_map(|a| record.tag_value(a).map(|l| format!("{a}={l}")))
            .collect();
        if key.is_empty() {
            continue;
        }
        let key = key.join("|");
        if seen_keys.contains(&key) {
            return Err(format!("duplicate cell coordinates [{key}] in records"));
        }
        seen_keys.push(key);
    }
    Ok(ParsedScenario {
        schema,
        scenario,
        title,
        derived,
        overrides,
        axes,
        reductions,
        records,
    })
}

/// Joins `(axis, label)` pins into the flat `axis=label,axis=label` form.
fn join_pins(pins: &[(String, String)]) -> String {
    pins.iter()
        .map(|(a, l)| format!("{a}={l}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Formats a [`Summary`]'s group for display/JSON (public for the report
/// binary's self-check).
pub fn summary_group(summary: &Summary) -> String {
    join_pins(&summary.group)
}

#[cfg(test)]
mod tests {
    use super::super::runner::{AxisMeta, ResultRow, ScenarioResult, Summary};
    use super::super::ReduceKind;
    use super::*;

    fn sample() -> ScenarioResult {
        ScenarioResult {
            name: "toy".into(),
            title: "Toy \"scenario\"".into(),
            axes: vec![
                AxisMeta {
                    name: "model".into(),
                    labels: vec!["VGG-16".into(), "ResNet-50".into()],
                },
                AxisMeta {
                    name: "point".into(),
                    labels: vec!["WS".into(), "DiVa".into()],
                },
            ],
            rows: vec![ResultRow {
                coords: vec![
                    ("model".into(), "VGG-16".into()),
                    ("point".into(), "WS".into()),
                ],
                metrics: vec![("seconds".into(), 0.125), ("bad".into(), f64::NAN)],
                notes: vec![("bound".into(), "memory".into())],
                status: RowStatus::Ok,
            }],
            summaries: vec![Summary {
                label: "mean seconds".into(),
                metric: "seconds".into(),
                kind: ReduceKind::Mean,
                group: vec![("point".into(), "DiVa".into())],
                value: 0.125,
                count: 1,
                skipped: 0,
                paper: Some("0.1"),
            }],
            display_metrics: Vec::new(),
            pivot: None,
            notes: Vec::new(),
            derived_metrics: vec!["speedup".into()],
            overrides: vec![("sram_mib".into(), "8".into())],
            failures: Vec::new(),
        }
    }

    #[test]
    fn round_trips_through_parser() {
        let doc = to_json(&sample());
        let parsed = parse_scenario_json(&doc).expect("parse");
        assert_eq!(parsed.schema, SCHEMA);
        assert_eq!(parsed.scenario, "toy");
        assert_eq!(parsed.title, "Toy \"scenario\"");
        assert_eq!(parsed.derived, vec!["speedup".to_string()]);
        assert_eq!(parsed.overrides, "sram_mib=8");
        assert_eq!(parsed.axes.len(), 2);
        assert_eq!(parsed.axes[0].0, "model");
        assert_eq!(parsed.axes[0].1, vec!["VGG-16", "ResNet-50"]);
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.records[0].tag_value("model"), Some("VGG-16"));
        assert_eq!(parsed.records[0].tag_value("bound"), Some("memory"));
        assert_eq!(parsed.records[0].metric_value("seconds"), Some(0.125));
        assert_eq!(parsed.records[0].metric_value("bad"), None); // NaN → null
        assert_eq!(parsed.reductions.len(), 1);
        assert_eq!(parsed.reductions[0].name, "mean seconds");
        assert_eq!(parsed.reductions[0].tag_value("group"), Some("point=DiVa"));
        assert_eq!(parsed.reductions[0].metric_value("value"), Some(0.125));
        assert_eq!(parsed.reductions[0].metric_value("count"), Some(1.0));
    }

    #[test]
    fn records_array_is_perf_record_compatible() {
        let doc = to_json(&sample());
        let records = crate::perf::parse_perf_json(&doc).expect("perf-compatible");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "toy");
        assert_eq!(records[0].metric_value("seconds"), Some(0.125));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let doc = to_json(&sample()).replace(SCHEMA, "other/v9");
        assert!(parse_scenario_json(&doc).is_err());
    }

    #[test]
    fn balanced_braces() {
        let doc = to_json(&sample());
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn clean_run_emits_no_failure_fields() {
        let doc = to_json(&sample());
        assert!(!doc.contains("\"failed\""));
        assert!(!doc.contains("\"status\""));
        assert!(!doc.contains("\"skipped\""));
    }

    #[test]
    fn failed_rows_serialize_as_error_records() {
        use super::super::error::{CellFailure, FailKind};
        let mut result = sample();
        result.rows.push(ResultRow {
            coords: vec![
                ("model".into(), "VGG-16".into()),
                ("point".into(), "DiVa".into()),
            ],
            metrics: Vec::new(),
            notes: Vec::new(),
            status: RowStatus::Failed {
                kind: FailKind::Panicked,
                error: "index out of \"bounds\"".into(),
                attempts: 2,
            },
        });
        result.failures.push(CellFailure {
            coords: result.rows[1].coords.clone(),
            kind: FailKind::Panicked,
            error: "index out of \"bounds\"".into(),
            attempts: 2,
            history: vec!["first".into(), "index out of \"bounds\"".into()],
        });
        result.summaries[0].skipped = 1;
        let doc = to_json(&result);
        assert!(doc.contains("\"failed\": 1,"), "{doc}");
        assert!(doc.contains("\"skipped\": 1"), "{doc}");
        let parsed = parse_scenario_json(&doc).expect("parse");
        let failed = &parsed.records[1];
        assert_eq!(failed.tag_value("status"), Some("panicked"));
        assert_eq!(failed.tag_value("error"), Some("index out of \"bounds\""));
        assert_eq!(failed.tag_value("attempts"), Some("2"));
        assert!(failed.metrics.is_empty());
    }

    /// `sample()` under `--keep-going`: a failed cell, a reduction that
    /// skipped it and whose value is NaN, and a second reduction without
    /// a paper reference.
    fn keep_going_sample() -> ScenarioResult {
        use super::super::error::{CellFailure, FailKind};
        let mut result = sample();
        let coords = vec![
            ("model".to_string(), "ResNet-50".to_string()),
            ("point".to_string(), "DiVa".to_string()),
        ];
        result.rows.push(ResultRow {
            coords: coords.clone(),
            metrics: Vec::new(),
            notes: Vec::new(),
            status: RowStatus::Failed {
                kind: FailKind::Panicked,
                error: "bad config: InvalidValue { param: \"x\" }\n\u{1}".into(),
                attempts: 3,
            },
        });
        result.failures.push(CellFailure {
            coords,
            kind: FailKind::Panicked,
            error: "bad config".into(),
            attempts: 3,
            history: Vec::new(),
        });
        result.summaries[0].skipped = 1;
        result.summaries[0].value = f64::NAN;
        result.summaries.push(Summary {
            label: "max seconds".into(),
            metric: "seconds".into(),
            kind: ReduceKind::Max,
            group: Vec::new(),
            value: 0.125,
            count: 1,
            skipped: 0,
            paper: None,
        });
        result
    }

    #[test]
    fn clean_document_bytes_are_pinned() {
        assert_eq!(
            to_json(&sample()),
            concat!(
                "{\n",
                "  \"schema\": \"diva-scenario/v1\",\n",
                "  \"scenario\": \"toy\",\n",
                "  \"title\": \"Toy \\\"scenario\\\"\",\n",
                "  \"derived\": \"speedup\",\n",
                "  \"overrides\": \"sram_mib=8\",\n",
                "  \"axes\": [\n",
                "    {\"name\": \"model\", \"values\": \"VGG-16|ResNet-50\"},\n",
                "    {\"name\": \"point\", \"values\": \"WS|DiVa\"}\n",
                "  ],\n",
                "  \"reductions\": [\n",
                "    {\"name\": \"mean seconds\", \"metric\": \"seconds\", \"kind\": \"mean\", ",
                "\"group\": \"point=DiVa\", \"paper\": \"0.1\", \"value\": 0.125, \"count\": 1}\n",
                "  ],\n",
                "  \"records\": [\n",
                "    {\"name\": \"toy\", \"model\": \"VGG-16\", \"point\": \"WS\", ",
                "\"bound\": \"memory\", \"seconds\": 0.125, \"bad\": null}\n",
                "  ]\n",
                "}\n"
            )
        );
    }

    #[test]
    fn keep_going_document_bytes_are_pinned() {
        assert_eq!(
            to_json(&keep_going_sample()),
            concat!(
                "{\n",
                "  \"schema\": \"diva-scenario/v1\",\n",
                "  \"scenario\": \"toy\",\n",
                "  \"title\": \"Toy \\\"scenario\\\"\",\n",
                "  \"derived\": \"speedup\",\n",
                "  \"overrides\": \"sram_mib=8\",\n",
                "  \"failed\": 1,\n",
                "  \"axes\": [\n",
                "    {\"name\": \"model\", \"values\": \"VGG-16|ResNet-50\"},\n",
                "    {\"name\": \"point\", \"values\": \"WS|DiVa\"}\n",
                "  ],\n",
                "  \"reductions\": [\n",
                "    {\"name\": \"mean seconds\", \"metric\": \"seconds\", \"kind\": \"mean\", ",
                "\"group\": \"point=DiVa\", \"paper\": \"0.1\", \"value\": null, \"count\": 1, ",
                "\"skipped\": 1},\n",
                "    {\"name\": \"max seconds\", \"metric\": \"seconds\", \"kind\": \"max\", ",
                "\"group\": \"\", \"value\": 0.125, \"count\": 1}\n",
                "  ],\n",
                "  \"records\": [\n",
                "    {\"name\": \"toy\", \"model\": \"VGG-16\", \"point\": \"WS\", ",
                "\"bound\": \"memory\", \"seconds\": 0.125, \"bad\": null},\n",
                "    {\"name\": \"toy\", \"model\": \"ResNet-50\", \"point\": \"DiVa\", ",
                "\"status\": \"panicked\", ",
                "\"error\": \"bad config: InvalidValue { param: \\\"x\\\" }\\n\\u0001\", ",
                "\"attempts\": \"3\"}\n",
                "  ]\n",
                "}\n"
            )
        );
        // Every cell failed: no reductions survive.
        let mut all_failed = keep_going_sample();
        all_failed.rows.remove(0);
        all_failed.summaries.clear();
        assert_eq!(
            to_json(&all_failed),
            concat!(
                "{\n",
                "  \"schema\": \"diva-scenario/v1\",\n",
                "  \"scenario\": \"toy\",\n",
                "  \"title\": \"Toy \\\"scenario\\\"\",\n",
                "  \"derived\": \"speedup\",\n",
                "  \"overrides\": \"sram_mib=8\",\n",
                "  \"failed\": 1,\n",
                "  \"axes\": [\n",
                "    {\"name\": \"model\", \"values\": \"VGG-16|ResNet-50\"},\n",
                "    {\"name\": \"point\", \"values\": \"WS|DiVa\"}\n",
                "  ],\n",
                "  \"reductions\": [\n",
                "  ],\n",
                "  \"records\": [\n",
                "    {\"name\": \"toy\", \"model\": \"ResNet-50\", \"point\": \"DiVa\", ",
                "\"status\": \"panicked\", ",
                "\"error\": \"bad config: InvalidValue { param: \\\"x\\\" }\\n\\u0001\", ",
                "\"attempts\": \"3\"}\n",
                "  ]\n",
                "}\n"
            )
        );
    }

    #[test]
    fn duplicate_cell_coordinates_are_rejected() {
        let mut result = sample();
        let dup = result.rows[0].clone();
        result.rows.push(dup);
        let err = parse_scenario_json(&to_json(&result)).unwrap_err();
        assert!(err.contains("duplicate cell coordinates"), "{err}");
        assert!(err.contains("model=VGG-16|point=WS"), "{err}");
    }
}
