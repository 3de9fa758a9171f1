//! End-to-end `diva-serve` tests over a real socket: every endpoint,
//! with the load-bearing property checked byte-for-byte — a served
//! `/run` document is identical to what `diva-report --json` (the
//! `run_with` → `to_json` pipeline) writes for the same options, and a
//! memo hit returns those bytes verbatim.

use diva_bench::scenario::{self, json, RunOptions};
use diva_dp::{event_epsilon, AccountantKind, DpEvent};
use diva_serve::{api, client, Server, ServerConfig};

fn start() -> Server {
    Server::start(ServerConfig::default()).expect("starting in-process server")
}

/// The fig13 subset used across these tests (squeezenet at the ws
/// baseline + DiVa point, one batch) and its CLI-equivalent options.
const RUN_BODY: &[u8] =
    br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva", "batch": "32"}"#;

fn run_body_options() -> RunOptions {
    RunOptions::default()
        .filter("model", &["squeezenet"])
        .filter("point", &["ws", "diva"])
        .batches(&[32])
}

#[test]
fn scenarios_endpoint_lists_registry_and_params() {
    let server = start();
    let response = client::get(server.addr(), "/scenarios").unwrap();
    assert_eq!(response.status, 200);
    let records = diva_bench::perf::parse_perf_json(&response.text()).unwrap();
    for name in scenario::list() {
        assert!(
            records.iter().any(|r| r.name == name),
            "scenario {name} missing from /scenarios"
        );
    }
    assert!(
        records
            .iter()
            .any(|r| r.name == "sram_mib" && r.tag_value("kind") == Some("param")),
        "design-space parameters missing from /scenarios"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn run_response_is_byte_identical_to_diva_report_json() {
    let server = start();
    let expected = json::to_json(&scenario::run_with("fig13", &run_body_options()).unwrap());

    let first = client::post_json(server.addr(), "/run", RUN_BODY).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(
        first.body,
        expected.as_bytes(),
        "served /run document differs from the CLI pipeline's bytes"
    );

    // The second request is a perfect hit: same bytes, no recompute.
    let second = client::post_json(server.addr(), "/run", RUN_BODY).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.body, first.body);
    let stats = client::get(server.addr(), "/stats").unwrap();
    let records = diva_bench::perf::parse_perf_json(&stats.text()).unwrap();
    let cache = records.iter().find(|r| r.name == "cache").unwrap();
    assert!(
        cache.metric_value("hits").unwrap() >= 1.0,
        "repeat POST /run did not hit the memo cache: {}",
        stats.text()
    );
    assert_eq!(cache.metric_value("computed"), Some(1.0));
    // The buffer-pool record follows the cache record and shares none of
    // its counter names, so a reader taking the first `"hits"` or
    // `"computed"` in the document still reads the cache's.
    let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names[..2], ["cache", "buffers"], "{}", stats.text());
    let fields: Vec<&str> = records[1].metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(fields, ["reused", "allocated", "evicted", "idle_bytes"]);
    server.shutdown();
    server.wait();
}

#[test]
fn run_with_keep_going_and_overrides_matches_cli_pipeline() {
    let server = start();
    let body = br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva",
                    "batch": "16", "set.sram_mib": "8", "keep_going": "true"}"#;
    let opts = RunOptions::default()
        .filter("model", &["squeezenet"])
        .filter("point", &["ws", "diva"])
        .batches(&[16])
        .set("sram_mib", "8")
        .keep_going();
    let expected = json::to_json(&scenario::run_with("fig13", &opts).unwrap());
    let response = client::post_json(server.addr(), "/run", body).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.body, expected.as_bytes());
    server.shutdown();
    server.wait();
}

#[test]
fn epsilon_endpoint_matches_in_process_accounting() {
    let server = start();
    let response = client::post_json(
        server.addr(),
        "/epsilon",
        br#"{"q": 0.01, "sigma": 1.1, "steps": 1000, "step_counts": "500,1000"}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let records = diva_bench::perf::parse_perf_json(&response.text()).unwrap();
    let headline = |accountant: &str| {
        records
            .iter()
            .find(|r| r.name == "epsilon" && r.tag_value("accountant") == Some(accountant))
            .and_then(|r| r.metric_value("epsilon"))
            .unwrap_or_else(|| panic!("no {accountant} headline in {}", response.text()))
    };
    for kind in [AccountantKind::Pld, AccountantKind::Rdp] {
        let direct = event_epsilon(kind, &DpEvent::dp_sgd(0.01, 1.1, 1000), 1e-5).unwrap();
        let served = headline(kind.label());
        assert!(
            (served - direct).abs() <= 1e-9 * direct,
            "{}: served {served} vs direct {direct}",
            kind.label()
        );
    }
    assert!(headline("pld") <= headline("rdp"), "PLD must be tighter");
    assert_eq!(
        records.iter().filter(|r| r.name == "epsilon_curve").count(),
        4,
        "2 accountants x 2 curve points"
    );

    // Identical body → identical bytes from the cache.
    let again = client::post_json(
        server.addr(),
        "/epsilon",
        br#"{"q": 0.01, "sigma": 1.1, "steps": 1000, "step_counts": "500,1000"}"#,
    )
    .unwrap();
    assert_eq!(again.body, response.body);
    server.shutdown();
    server.wait();
}

#[test]
fn compare_endpoint_gates_server_side() {
    let server = start();
    let opts = RunOptions::default()
        .filter("q", &["0.01"])
        .filter("sigma", &["1"]);
    let doc = json::to_json(&scenario::run_with("dp_accounting", &opts).unwrap());

    let self_diff = format!("{doc}---\n{doc}");
    let response = client::post_json(server.addr(), "/compare", self_diff.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"passed\": true"));

    // Same grid, different sigma values: every cell's epsilon moves well
    // past any tolerance the gate would accept at 1e-6.
    let other_opts = RunOptions::default()
        .filter("q", &["0.01"])
        .filter("sigma", &["1.5"]);
    let other = json::to_json(&scenario::run_with("dp_accounting", &other_opts).unwrap());
    let mismatch = format!("{doc}---\n{other}");
    let response = client::post_json(
        server.addr(),
        "/compare?tolerance=0.000001",
        mismatch.as_bytes(),
    )
    .unwrap();
    // Disjoint sigma labels mean no matched cells; a moved metric means a
    // violation — either way the gate must not pass.
    assert_eq!(response.status, 409, "{}", response.text());
    server.shutdown();
    server.wait();
}

#[test]
fn job_mode_defers_and_returns_the_sync_bytes() {
    let server = start();
    let sync_body =
        br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva", "batch": "48"}"#;
    let job_body = br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva", "batch": "48", "mode": "job"}"#;

    let accepted = client::post_json(server.addr(), "/run", job_body).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let estimate = api::estimate_cells(&api::parse_run_request(job_body).unwrap());
    assert_eq!(
        accepted.text(),
        format!("{{\"job_id\": 1, \"poll\": \"/jobs/1\", \"estimated_cells\": {estimate}}}\n")
    );
    let poll_path = "/jobs/1";

    let mut job_bytes = None;
    for _ in 0..600 {
        let poll = client::get(server.addr(), poll_path).unwrap();
        match poll.status {
            200 => {
                job_bytes = Some(poll.body);
                break;
            }
            202 => std::thread::sleep(std::time::Duration::from_millis(20)),
            other => panic!("job poll answered {other}: {}", poll.text()),
        }
    }
    let job_bytes = job_bytes.expect("job never completed");

    // The sync path shares the cache entry the job stored: same bytes.
    let sync = client::post_json(server.addr(), "/run", sync_body).unwrap();
    assert_eq!(sync.status, 200);
    assert_eq!(sync.body, job_bytes);

    let missing = client::get(server.addr(), "/jobs/99999").unwrap();
    assert_eq!(missing.status, 404);
    server.shutdown();
    server.wait();
}

#[test]
fn explore_endpoint_defers_to_a_job_and_matches_the_cli_document() {
    let server = start();
    let body = br#"{"strategy": "grid", "budget": 6, "batch_size": 3,
                    "workloads": "squeezenet@4", "knob.pe.rows": "64|128",
                    "knob.drain_rows": "2|4|8"}"#;

    let accepted = client::post_json(server.addr(), "/explore", body).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    assert_eq!(
        accepted.text(),
        "{\"job_id\": 1, \"poll\": \"/jobs/1\", \"budget\": 6}\n"
    );
    let poll_path = "/jobs/1";

    let mut job_bytes = None;
    for _ in 0..600 {
        let poll = client::get(server.addr(), poll_path).unwrap();
        match poll.status {
            200 => {
                job_bytes = Some(poll.body);
                break;
            }
            202 => std::thread::sleep(std::time::Duration::from_millis(20)),
            other => panic!("explore job poll answered {other}: {}", poll.text()),
        }
    }
    let job_bytes = job_bytes.expect("explore job never completed");

    // The served document is byte-identical to diva-explore --json for
    // the same search.
    let req = diva_serve::api::parse_explore_request(body).unwrap();
    let direct = diva_bench::explore::explore(&req.config).unwrap();
    assert_eq!(
        job_bytes,
        diva_bench::explore::render::render_json(&direct).into_bytes(),
        "served /explore document differs from the CLI renderer's bytes"
    );

    // "mode": "sync" on the same search is a perfect cache hit.
    let sync_body = br#"{"strategy": "grid", "budget": 6, "batch_size": 3,
                    "workloads": "squeezenet@4", "knob.pe.rows": "64|128",
                    "knob.drain_rows": "2|4|8", "mode": "sync"}"#;
    let sync = client::post_json(server.addr(), "/explore", sync_body).unwrap();
    assert_eq!(sync.status, 200, "{}", sync.text());
    assert_eq!(sync.body, job_bytes);

    // A malformed search is the caller's 400, not a queued failure.
    let bad =
        client::post_json(server.addr(), "/explore", br#"{"strategy": "annealing"}"#).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    server.shutdown();
    server.wait();
}

/// A server whose job queue holds nothing refuses every deferred request
/// with 429 `queue-full` — `/run` forced into job mode and a default
/// (job-mode) `/explore` alike — while inline requests still answer 200.
#[test]
fn full_job_queue_answers_429_and_sync_runs_still_succeed() {
    let server = Server::start(ServerConfig {
        job_capacity: 0,
        ..ServerConfig::default()
    })
    .expect("starting in-process server");
    let job_run = br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva", "batch": "32", "mode": "job"}"#;
    let explore = br#"{"strategy": "grid", "budget": 6, "batch_size": 3,
                       "workloads": "squeezenet@4", "knob.pe.rows": "64|128",
                       "knob.drain_rows": "2|4|8"}"#;
    for (path, body) in [("/run", &job_run[..]), ("/explore", &explore[..])] {
        let refused = client::post_json(server.addr(), path, body).unwrap();
        assert_eq!(refused.status, 429, "{path}: {}", refused.text());
        assert_eq!(
            refused.text(),
            "{\"error\": \"queue-full\", \"message\": \"job queue is full (0 deferred runs); \
             retry after polling existing jobs\"}\n",
            "{path}"
        );
    }
    let sync = client::post_json(server.addr(), "/run", RUN_BODY).unwrap();
    assert_eq!(sync.status, 200, "{}", sync.text());
    let cli = json::to_json(&scenario::run_with("fig13", &run_body_options()).unwrap());
    assert_eq!(sync.body, cli.into_bytes());
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let server = start();
    let response = client::post_json(server.addr(), "/shutdown", b"{}").unwrap();
    assert_eq!(response.status, 200);
    // wait() returning proves the accept loop exited and the job worker
    // drained; a fresh request must now fail (refused or reset).
    server.wait();
    assert!(
        client::get(server.addr(), "/scenarios").is_err(),
        "server still answering after shutdown"
    );
}
