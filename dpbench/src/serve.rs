//! `serve_mix`: a closed loop of two keep-alive clients against an
//! in-process `diva-serve`.
//!
//! A run is a sequence of passes. Each pass starts a fresh server, so its
//! cache is cold, and the two clients work through the seeded request
//! stream, each sending its next request only after the previous reply
//! arrived. Passes repeat until the run's time is spent. Every reply is
//! checked against the first reply for its key, and every key against the
//! library `api::execute_*` output for the same body. In the traced mode,
//! every other pass also snapshots the compute pool around each request,
//! and the per-body library times are reported.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use diva_dp::{answer_epsilon_query, AccountantKind, EpsilonQuery};
use diva_serve::{api, Connection, Server, ServerConfig};
use diva_tensor::parallel;

use crate::inputs::{self, Endpoint, Request};
use crate::stats::{median, Outcome, Tally};
use crate::{ms, peak_rss_mib, status_field, Check, Measured};

/// Concurrent clients of the closed loop.
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fixed warm-up requests, one per endpoint, run against each set-up
/// server (never against a measured one, whose cache must start cold).
fn warmup_requests() -> Vec<Request> {
    let post = |endpoint, body: &str| Request {
        endpoint,
        body: body.to_string(),
    };
    vec![
        post(
            Endpoint::Epsilon,
            r#"{"q": 0.01, "sigma": 1.1, "steps": 100}"#,
        ),
        post(
            Endpoint::Run,
            r#"{"scenario": "fig13", "models": "squeezenet", "points": "ws", "mode": "sync"}"#,
        ),
        post(
            Endpoint::Explore,
            r#"{"strategy": "random", "budget": 8, "mode": "sync"}"#,
        ),
        post(Endpoint::Scenarios, ""),
    ]
}

fn start_server() -> Server {
    Server::start(ServerConfig::default()).expect("bind an ephemeral loopback port")
}

/// Shuts `server` down, then waits until the connection threads it
/// detached have exited too (back to `threads_before`, the process's
/// thread count before it started), so no thread of one pass overlaps the
/// next and each pass starts from the same allocator state.
fn stop(server: Server, threads_before: Option<f64>) {
    server.shutdown();
    server.wait();
    let Some(before) = threads_before else { return };
    let deadline = Instant::now() + Duration::from_secs(2);
    while status_field("Threads").is_some_and(|n| n > before) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How one request ended, as the client saw it.
enum Reply {
    Ok { ms: f64, status: u16, body: Vec<u8> },
    Io,
}

/// One client's replies, by stream position, and its pool-counter deltas
/// (steals, inline runs).
type ClientLog = (Vec<(usize, Reply)>, [u64; 2]);

/// Sends every request of `stream` from [`CLIENTS`] closed-loop clients.
/// With `snapshot_pool`, each client also reads the pool counters around
/// each of its requests and returns their summed deltas.
fn drive(addr: SocketAddr, stream: &[Request], snapshot_pool: bool) -> (Vec<Reply>, [u64; 2]) {
    let next = AtomicUsize::new(0);
    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Connection::open(addr).ok();
                    let mut out = Vec::new();
                    let mut pool = [0u64; 2];
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = stream.get(i) else { break };
                        if conn.is_none() {
                            conn = Connection::open(addr).ok();
                        }
                        let before = snapshot_pool.then(parallel::pool_stats);
                        let t = Instant::now();
                        let sent = conn.as_mut().map(|c| {
                            c.send(req.endpoint.method(), req.endpoint.path(), req.body_bytes())
                        });
                        let elapsed = ms(t);
                        if let Some(before) = before {
                            let after = parallel::pool_stats();
                            pool[0] += after.steals - before.steals;
                            pool[1] += after.inline_runs - before.inline_runs;
                        }
                        let reply = match sent {
                            Some(Ok(r)) => Reply::Ok {
                                ms: elapsed,
                                status: r.status,
                                body: r.body,
                            },
                            _ => {
                                // The connection state is undefined after an
                                // I/O error: reopen for the next request.
                                conn = None;
                                Reply::Io
                            }
                        };
                        out.push((i, reply));
                    }
                    (out, pool)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut replies: Vec<Option<Reply>> = (0..stream.len()).map(|_| None).collect();
    let mut pool = [0u64; 2];
    for (out, p) in per_client {
        for (i, reply) in out {
            replies[i] = Some(reply);
        }
        pool[0] += p[0];
        pool[1] += p[1];
    }
    let replies = replies
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one client"))
        .collect();
    (replies, pool)
}

/// The numeric value of the first `"field": N` in a flat JSON document.
fn json_number(doc: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\": ");
    let start = doc.find(&pat)? + pat.len();
    let rest = &doc[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The library's answer to `req`, as `diva-serve` would render it.
fn library(req: &Request) -> Result<Vec<u8>, api::ApiError> {
    let body = req.body.as_bytes();
    match req.endpoint {
        Endpoint::Epsilon => api::execute_epsilon(&api::parse_epsilon_request(body)?),
        Endpoint::Run => api::execute_run(&api::parse_run_request(body)?),
        Endpoint::Explore => api::execute_explore(&api::parse_explore_request(body)?),
        Endpoint::Scenarios => Ok(api::scenarios_document()),
    }
}

/// Runs `serve_mix` for `seconds` and checks every reply.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Measured {
    let stream = inputs::request_stream(seed);
    // Requests that share a key share a slot; `GET /scenarios` is one slot.
    let keys: Vec<String> = stream
        .iter()
        .map(|r| r.cache_key().unwrap_or_else(|| "GET /scenarios".into()))
        .collect();
    let mut slot_of_key: HashMap<&str, usize> = HashMap::new();
    let mut first_index = Vec::new();
    let slot: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            *slot_of_key.entry(k).or_insert_with(|| {
                first_index.push(i);
                first_index.len() - 1
            })
        })
        .collect();
    let distinct = inputs::distinct_keys(&stream);

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let threads = status_field("Threads");
        let server = start_server();
        let mut conn = Connection::open(server.addr()).expect("connect to the set-up server");
        for req in warmup_requests() {
            let reply = conn.send(req.endpoint.method(), req.endpoint.path(), req.body_bytes());
            assert!(
                matches!(&reply, Ok(r) if r.status == 200),
                "warm-up request {} failed",
                req.endpoint.path()
            );
        }
        setup_s.push(t.elapsed().as_secs_f64());
        drop(conn);
        stop(server, threads);
    }

    let mut tally = Tally::default();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut hit_us = Vec::new();
    // Per slot: the first reply's bytes, and its latency in every pass.
    let mut reference: Vec<Option<Vec<u8>>> = vec![None; first_index.len()];
    let mut miss_ms: Vec<Vec<f64>> = vec![Vec::new(); first_index.len()];
    let mut passes = 0usize;
    let mut traced_requests = 0usize;
    let mut pool = [0u64; 2];
    let mut cache = [0.0f64; 3];
    let mut computed_ok = true;
    let mut computed_seen = Vec::new();
    let mut wall_s = 0.0;

    let spawned_before = parallel::pool_stats().spawned;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && passes % 2 == 1;
        let order = inputs::pass_order(seed, passes);
        let pass: Vec<Request> = order.iter().map(|&i| stream[i].clone()).collect();
        let threads = status_field("Threads");
        let server = start_server();
        let t = Instant::now();
        let (replies, p) = drive(server.addr(), &pass, traced);
        if !traced {
            wall_s += t.elapsed().as_secs_f64();
        }
        let stats = diva_serve::get(server.addr(), "/stats").map(|r| r.text());
        stop(server, threads);

        let stats = stats.unwrap_or_default();
        let field = |name| json_number(&stats, name).unwrap_or(f64::NAN);
        let (hits, misses, joined, computed) = (
            field("hits"),
            field("misses"),
            field("joined"),
            field("computed"),
        );
        cache[0] += hits / (hits + misses + joined);
        cache[1] += computed;
        cache[2] += joined;
        computed_seen.push(computed);
        computed_ok &= computed == distinct as f64;
        if traced {
            pool[0] += p[0];
            pool[1] += p[1];
            traced_requests += stream.len();
        }

        let mut seen = vec![false; first_index.len()];
        for (&i, reply) in order.iter().zip(replies) {
            let Reply::Ok { ms, status, body } = reply else {
                tally.record(Outcome::Failed);
                continue;
            };
            if traced {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(ms);
            let s = slot[i];
            if !std::mem::replace(&mut seen[s], true) {
                miss_ms[s].push(ms);
            } else if stream[i].endpoint != Endpoint::Scenarios {
                hit_us.push(ms * 1e3);
            }
            let outcome = match status {
                200..=299 => match &reference[s] {
                    None => {
                        reference[s] = Some(body);
                        Outcome::Ok
                    }
                    Some(first) => Outcome::from(*first == body),
                },
                429 | 503 => Outcome::Refused,
                _ => Outcome::Failed,
            };
            tally.record(outcome);
        }
        passes += 1;
    }
    let spawned = parallel::pool_stats().spawned - spawned_before;
    let rss = peak_rss_mib();
    let requests = untraced_ms.len();

    // Replay every distinct body into the library, one at a time.
    let mut lib_ms = vec![0.0; first_index.len()];
    let mut lib_by_endpoint: BTreeMap<Endpoint, Vec<f64>> = BTreeMap::new();
    let mut query_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut mismatched = Vec::new();
    for (s, &i) in first_index.iter().enumerate() {
        let req = &stream[i];
        let t = Instant::now();
        let expected = library(req);
        lib_ms[s] = ms(t);
        lib_by_endpoint
            .entry(req.endpoint)
            .or_default()
            .push(lib_ms[s]);
        let equal = matches!((&expected, &reference[s]), (Ok(e), Some(r)) if e == r);
        if !equal {
            mismatched.push(req.endpoint.path());
        }
        if trace && req.endpoint == Endpoint::Epsilon {
            let parsed = api::parse_epsilon_request(req.body.as_bytes())
                .expect("generated /epsilon body parses");
            for (k, kind) in [AccountantKind::Pld, AccountantKind::Rdp]
                .into_iter()
                .enumerate()
            {
                let t = Instant::now();
                let answer = answer_epsilon_query(&EpsilonQuery {
                    accountant: kind,
                    sampling_rate: parsed.sampling_rate,
                    noise_multiplier: parsed.noise_multiplier,
                    steps: parsed.steps,
                    delta: parsed.delta,
                    step_counts: parsed.step_counts.clone(),
                });
                query_ms[k].push(ms(t));
                tally.record(Outcome::from(answer.is_ok()));
            }
        }
    }

    let checks = vec![
        Check::new(
            "every reply byte-equal to the library api::execute_* output",
            mismatched.is_empty(),
            format!(
                "{} of {} distinct bodies differ {mismatched:?}",
                mismatched.len(),
                first_index.len()
            ),
        ),
        Check::new(
            "cache.computed equals the stream's distinct keys in every pass",
            computed_ok,
            format!("{distinct} distinct keys, computed per pass {computed_seen:?}"),
        ),
    ];

    let mut layer = BTreeMap::new();
    layer.insert("pool.spawned".into(), spawned as f64);
    if trace {
        let p50 = |e: Endpoint| median(lib_by_endpoint.get(&e).map_or(&[][..], Vec::as_slice));
        layer.insert("api.epsilon_p50_ms".into(), p50(Endpoint::Epsilon));
        layer.insert("api.run_p50_ms".into(), p50(Endpoint::Run));
        layer.insert("api.explore_p50_ms".into(), p50(Endpoint::Explore));
        layer.insert("dp.pld_query_ms".into(), median(&query_ms[0]));
        layer.insert("dp.rdp_query_ms".into(), median(&query_ms[1]));
        layer.insert("serve.hit_p50_us".into(), median(&hit_us));
        let overhead: Vec<f64> = first_index
            .iter()
            .enumerate()
            .filter(|&(_, &i)| stream[i].endpoint != Endpoint::Scenarios)
            .map(|(s, _)| median(&miss_ms[s]) - lib_ms[s])
            .collect();
        layer.insert("serve.overhead_p50_ms".into(), median(&overhead));
        let n = passes as f64;
        layer.insert("cache.hit_ratio".into(), cache[0] / n);
        layer.insert("cache.computed".into(), cache[1] / n);
        layer.insert("cache.joined".into(), cache[2] / n);
        let per_request = traced_requests.max(1) as f64;
        layer.insert("pool.steals_per_step".into(), pool[0] as f64 / per_request);
        layer.insert(
            "pool.inline_runs_per_step".into(),
            pool[1] as f64 / per_request,
        );
        layer.insert(
            "trace.overhead_ms".into(),
            median(&traced_ms) - median(&untraced_ms),
        );
    }

    Measured {
        tally,
        checks,
        op_ms: untraced_ms,
        work_per_s: requests as f64 / wall_s,
        setup_s: median(&setup_s),
        peak_rss_mib: rss,
        layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_reads_the_first_field() {
        let doc = "{\"records\": [{\"name\": \"cache\", \"hits\": 40, \"joined\": 0, \
                   \"computed\": 68}, {\"name\": \"pool\", \"steals\": 3}]}";
        assert_eq!(json_number(doc, "hits"), Some(40.0));
        assert_eq!(json_number(doc, "computed"), Some(68.0));
        assert_eq!(json_number(doc, "steals"), Some(3.0));
        assert_eq!(json_number(doc, "missing"), None);
    }
}
