//! Frontier renderers: text table, JSON document and CSV.
//!
//! The JSON document is a flat document of [`crate::perf`] (floats in
//! their shortest round-trip form, the `u64` seed exact) under its own
//! `diva-explore/v1` schema tag. Because every value in an
//! [`ExploreResult`] is deterministic, the rendered bytes are the artifact
//! the thread-count and kill/resume identity tests `cmp`.

use std::fmt::Write as _;

use crate::perf::{JsonDocument, JsonObject};

use super::{ExploreResult, Objective};

/// Renders the search's JSON document (`diva-explore/v1`).
pub fn render_json(result: &ExploreResult) -> String {
    let cfg = &result.config;
    let knobs = cfg
        .space
        .knobs
        .iter()
        .map(|k| format!("{}={}", k.param, k.values.join("|")))
        .collect::<Vec<_>>()
        .join(";");
    let workloads = cfg
        .workloads
        .iter()
        .map(|w| w.spec_string())
        .collect::<Vec<_>>()
        .join(",");
    let objectives = cfg
        .objectives
        .iter()
        .map(|o| o.metric())
        .collect::<Vec<_>>()
        .join(",");

    // Run-variant counters (journal reuse, memo hits) are deliberately
    // absent: a resumed search must render byte-identically to a fresh
    // one. They live in the text summary and in `ExploreResult::stats`.
    let head = JsonObject::named("explore")
        .string("schema", "diva-explore/v1")
        .string("base", cfg.space.base.label())
        .string("strategy", cfg.strategy.slug())
        .integer("seed", cfg.seed)
        .integer("budget", cfg.budget as u64)
        .string("objectives", &objectives)
        .string("workloads", &workloads)
        .string("knobs", &knobs)
        .integer("evaluated", result.evaluated.len() as u64)
        .integer("generated", result.stats.generated)
        .integer("invalid", result.stats.invalid)
        .integer("frontier_size", result.frontier.len() as u64)
        .boolean("complete", result.complete);
    let points = result.frontier.points().iter().enumerate().map(|(i, p)| {
        JsonObject::named("point")
            .integer("rank", i as u64 + 1)
            .string("spec", &p.spec)
            .string("config", &p.config_key)
            .numbers(&p.metrics)
    });
    JsonDocument::new(head).array("frontier", points).finish()
}

/// Renders the frontier as CSV: `rank,spec` plus the canonical metric
/// columns. The spec cell is quoted (it contains commas).
pub fn render_csv(result: &ExploreResult) -> String {
    let mut out = String::from("rank,spec");
    if let Some(first) = result.frontier.points().first() {
        for (k, _) in &first.metrics {
            let _ = write!(out, ",{k}");
        }
    } else {
        for o in &result.config.objectives {
            let _ = write!(out, ",{}", o.metric());
        }
    }
    out.push('\n');
    for (i, p) in result.frontier.points().iter().enumerate() {
        let _ = write!(out, "{},\"{}\"", i + 1, p.spec.replace('"', "\"\""));
        for (_, v) in &p.metrics {
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

/// Renders the human-facing summary and frontier table.
pub fn render_text(result: &ExploreResult) -> String {
    let cfg = &result.config;
    let memo = result.stats.memo;
    let hit_rate = if memo.lookups > 0 {
        (memo.lookups - memo.computed) as f64 / memo.lookups as f64
    } else {
        0.0
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== diva-explore: {} search over {} ({} knobs, {} grid points) ==",
        cfg.strategy.slug(),
        cfg.space.base.label(),
        cfg.space.knobs.len(),
        cfg.space.grid_size()
    );
    let _ = writeln!(
        out,
        "evaluated {} / budget {} (reused {}, invalid {}), memo hit rate {:.0}%{}",
        result.evaluated.len(),
        cfg.budget,
        result.stats.journal_reused,
        result.stats.invalid,
        hit_rate * 100.0,
        if result.complete {
            ""
        } else {
            "  [killed early]"
        }
    );
    let _ = writeln!(
        out,
        "frontier: {} non-dominated point(s) over ({})",
        result.frontier.len(),
        cfg.objectives
            .iter()
            .map(|o| o.metric())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Frontier table: rank, spec, the searched objectives.
    let mut headers = vec!["rank".to_string(), "spec".to_string()];
    headers.extend(cfg.objectives.iter().map(|o| o.metric().to_string()));
    let rows: Vec<Vec<String>> = result
        .frontier
        .points()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut row = vec![(i + 1).to_string(), p.spec.clone()];
            row.extend(p.objectives.iter().map(|(_, v)| format!("{v:.4e}")));
            row
        })
        .collect();
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(c, h)| {
            rows.iter()
                .map(|r| r[c].len())
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let _ = writeln!(out, "{}", fmt_row(&headers));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in &rows {
        let _ = writeln!(out, "{}", fmt_row(row));
    }
    out
}

/// The minimum value each searched objective attains over the frontier —
/// the "best corner" scalars the `explore_frontier` scenario gates on.
pub fn best_per_objective(result: &ExploreResult) -> Vec<(Objective, f64)> {
    result
        .config
        .objectives
        .iter()
        .map(|o| {
            let best = result
                .frontier
                .points()
                .iter()
                .filter_map(|p| {
                    p.objectives
                        .iter()
                        .find(|(k, _)| k == o.metric())
                        .map(|(_, v)| *v)
                })
                .fold(f64::INFINITY, f64::min);
            (*o, best)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::{EvaluatedPoint, ExploreConfig, ExploreResult, ExploreStats, Frontier};
    use super::*;

    fn tiny_result() -> ExploreResult {
        let cfg = ExploreConfig::new(super::super::SearchSpace::default_space());
        let mut frontier = Frontier::new();
        let point = EvaluatedPoint {
            spec: "DiVa:pe.rows=64".to_string(),
            config_key: "pe.rows=64,...".to_string(),
            objectives: vec![
                ("latency_s".to_string(), 0.5),
                ("energy_j".to_string(), 2.0),
                ("area_mm2".to_string(), 100.0),
            ],
            metrics: vec![
                ("latency_s".to_string(), 0.5),
                ("energy_j".to_string(), 2.0),
                ("area_mm2".to_string(), 100.0),
            ],
        };
        frontier.offer(point.clone());
        ExploreResult {
            config: cfg,
            evaluated: vec![point],
            frontier,
            stats: ExploreStats::default(),
            complete: true,
        }
    }

    #[test]
    fn json_is_balanced_and_tagged() {
        let json = render_json(&tiny_result());
        assert!(json.contains("\"schema\": \"diva-explore/v1\""));
        assert!(json.contains("\"frontier_size\": 1"));
        assert!(json.contains("\"complete\": true"));
        assert!(json.contains("\"spec\": \"DiVa:pe.rows=64\""));
        assert!(json.contains("\"latency_s\": 0.5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn seeded_search_document_bytes_are_pinned() {
        use super::super::{Knob, Strategy, Workload};
        let mut cfg = ExploreConfig::new(super::super::SearchSpace::default_space());
        cfg.space.knobs = vec![
            Knob::parse("pe.rows=64|128").unwrap(),
            Knob::parse("drain_rows=4|8").unwrap(),
        ];
        cfg.workloads = vec![Workload::parse("squeezenet@4").unwrap()];
        cfg.strategy = Strategy::Random;
        // Above 2^53: an f64 round trip would print 9007199254740996.
        cfg.seed = (1 << 53) + 5;
        cfg.budget = 2;
        cfg.batch_size = 2;
        let result = super::super::explore(&cfg).expect("search runs");
        let config = |drain: u32| {
            format!(
                "pe.rows=64,pe.cols=128,freq_mhz=940,sram_mib=16,mem.bandwidth_gbps=450,\
                 mem.channels=16,mem.latency_cycles=100,dataflow=diva,rhs_fill_rows=8,\
                 drain_rows={drain},ppu=true,drain_overlap=false"
            )
        };
        let expected = format!(
            concat!(
                "{{\n",
                "  \"name\": \"explore\",\n",
                "  \"schema\": \"diva-explore/v1\",\n",
                "  \"base\": \"DiVa\",\n",
                "  \"strategy\": \"random\",\n",
                "  \"seed\": 9007199254740997,\n",
                "  \"budget\": 2,\n",
                "  \"objectives\": \"latency_s,energy_j,area_mm2\",\n",
                "  \"workloads\": \"squeezenet@4\",\n",
                "  \"knobs\": \"pe.rows=64|128;drain_rows=4|8\",\n",
                "  \"evaluated\": 2,\n",
                "  \"generated\": 2,\n",
                "  \"invalid\": 0,\n",
                "  \"frontier_size\": 2,\n",
                "  \"complete\": true,\n",
                "  \"frontier\": [\n",
                "    {{\"name\": \"point\", \"rank\": 1, \"spec\": \"DiVa:pe.rows=64,drain_rows=8\", ",
                "\"config\": \"{}\", \"latency_s\": 0.00018050425531914894, ",
                "\"energy_j\": 0.014726448974808511, \"area_mm2\": 44.022, ",
                "\"seconds_squeezenet\": 0.00018050425531914894, ",
                "\"energy_j_squeezenet\": 0.014726448974808511}},\n",
                "    {{\"name\": \"point\", \"rank\": 2, \"spec\": \"DiVa:pe.rows=64,drain_rows=4\", ",
                "\"config\": \"{}\", \"latency_s\": 0.00018897978723404256, ",
                "\"energy_j\": 0.015014198707659574, \"area_mm2\": 42.522, ",
                "\"seconds_squeezenet\": 0.00018897978723404256, ",
                "\"energy_j_squeezenet\": 0.015014198707659574}}\n",
                "  ]\n",
                "}}\n"
            ),
            config(8),
            config(4)
        );
        assert_eq!(render_json(&result), expected);
    }

    #[test]
    fn csv_quotes_specs_and_lists_metrics() {
        let csv = render_csv(&tiny_result());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("rank,spec,latency_s,energy_j,area_mm2"));
        assert_eq!(lines.next(), Some("1,\"DiVa:pe.rows=64\",0.5,2,100"));
    }

    #[test]
    fn text_mentions_the_frontier() {
        let text = render_text(&tiny_result());
        assert!(text.contains("frontier: 1 non-dominated point(s)"));
        assert!(text.contains("DiVa:pe.rows=64"));
    }

    #[test]
    fn best_per_objective_takes_minima() {
        let best = best_per_objective(&tiny_result());
        assert_eq!(best.len(), 3);
        assert_eq!(best[0].1, 0.5);
        assert_eq!(best[1].1, 2.0);
    }
}
