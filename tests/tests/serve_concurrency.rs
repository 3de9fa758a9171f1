//! Concurrency tests for `diva-serve`: N clients racing on one cold key
//! must trigger exactly one computation (single-flight), every response
//! must be byte-identical, and — the determinism contract underneath the
//! memo cache — the served bytes must not depend on the compute pool's
//! thread count.

use std::sync::Arc;

use diva_bench::scenario::{self, json, RunOptions};
use diva_serve::{client, Server, ServerConfig};
use diva_tensor::Backend;

fn cache_stats(server: &Server) -> (f64, f64, f64, f64) {
    let stats = client::get(server.addr(), "/stats").unwrap();
    let records = diva_bench::perf::parse_perf_json(&stats.text()).unwrap();
    let cache = records.iter().find(|r| r.name == "cache").unwrap();
    let metric = |key: &str| cache.metric_value(key).unwrap();
    (
        metric("hits"),
        metric("misses"),
        metric("joined"),
        metric("computed"),
    )
}

#[test]
fn racing_requests_share_one_computation() {
    let server = Arc::new(Server::start(ServerConfig::default()).unwrap());
    const CLIENTS: usize = 8;
    let body: &[u8] =
        br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva", "batch": "40"}"#;

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let response = client::post_json(server.addr(), "/run", body).unwrap();
                assert_eq!(response.status, 200, "{}", response.text());
                response.body
            })
        })
        .collect();
    let bodies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "racing clients saw different bytes"
    );
    let (hits, misses, joined, computed) = cache_stats(&server);
    assert_eq!(
        computed, 1.0,
        "single-flight failed: {computed} computations"
    );
    assert_eq!(misses, 1.0, "exactly one leader");
    assert_eq!(
        hits + joined,
        (CLIENTS - 1) as f64,
        "every follower either joined the flight or hit the store"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn distinct_keys_compute_independently() {
    let server = Arc::new(Server::start(ServerConfig::default()).unwrap());
    let handles: Vec<_> = [16u64, 24, 48, 64]
        .into_iter()
        .map(|batch| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let body = format!(
                    "{{\"scenario\": \"fig13\", \"models\": \"squeezenet\", \
                     \"points\": \"ws,diva\", \"batch\": \"{batch}\"}}"
                );
                let response = client::post_json(server.addr(), "/run", body.as_bytes()).unwrap();
                assert_eq!(response.status, 200, "{}", response.text());
                response.body
            })
        })
        .collect();
    let bodies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        bodies.windows(2).all(|w| w[0] != w[1]),
        "distinct batches must produce distinct documents"
    );
    let (_, _, _, computed) = cache_stats(&server);
    assert_eq!(computed, 4.0, "four distinct keys, four computations");
    server.shutdown();
    server.wait();
}

/// The byte-identity contract behind the cache: the same request served
/// by a server on a serial backend returns exactly the bytes the
/// default-width pool produced. (The expected document is computed
/// in-process at the default width first; the server then evaluates the
/// same cell grid cold at width 1.)
#[test]
fn responses_are_stable_across_thread_counts() {
    let opts = RunOptions::default()
        .filter("model", &["squeezenet"])
        .filter("point", &["ws", "diva"])
        .batches(&[56]);
    let expected = json::to_json(&scenario::run_with("fig13", &opts).unwrap());

    let server = Server::start(ServerConfig {
        backend: Backend::serial(),
        ..ServerConfig::default()
    })
    .unwrap();
    let response = client::post_json(
        server.addr(),
        "/run",
        br#"{"scenario": "fig13", "models": "squeezenet", "points": "ws,diva", "batch": "56"}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(
        response.body,
        expected.as_bytes(),
        "served bytes changed with the worker thread count"
    );
    server.shutdown();
    server.wait();
}
