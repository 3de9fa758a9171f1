//! Request-level latency of `diva-serve` over a real socket: p50/p99 for
//! `/epsilon` and a single-cell `/run`, cached versus uncached.
//!
//! Requests go over one keep-alive connection per series (the
//! [`diva_serve::Connection`] client), so the measured latency is the
//! request path — parse, route, compute or hit, respond — not TCP
//! connect or per-connection thread spawn. "Uncached" varies a body
//! field per request so every key is cold; "cached" repeats one warmed
//! body so every request is a perfect hit served from stored bytes. The
//! cached rows carry `speedup_vs_uncached`, which `bench_regress` gates
//! like the kernel speedups — a regression in the memo path (or an
//! accidentally cache-busting key change) trips CI.
//!
//! Results are merged into `BENCH_perf.json` (or `DIVA_BENCH_OUT`)
//! alongside the compute rows: merged, not overwritten, so running this
//! bench alone refreshes only the serve rows.
//!
//! Prewarm note: `Server::start` prewarms its `ServerConfig::backend`
//! (`Backend::auto()` by default), so the compute pool's `n - 1` workers
//! are spawned and parked before
//! the listener accepts traffic. The `serve_first_request` row records
//! the very first post-bind request's latency; before the prewarm call
//! that request also paid worker thread-spawn (~100-300 us per worker
//! on multi-core hosts). On a single-core host `prewarm(1)` is a no-op
//! and the row simply documents cold-start (allocator + route) cost.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use diva_bench::perf::{PerfRecord, PerfSink};
use diva_serve::{client, Connection, Server, ServerConfig};

/// Collects per-request latencies until the time budget (and a minimum
/// sample count) is met, then returns `(p50_us, p99_us)`.
fn measure(budget: Duration, mut request: impl FnMut(usize)) -> (f64, f64) {
    const MIN_SAMPLES: usize = 5;
    const MAX_SAMPLES: usize = 500;
    let mut latencies = Vec::new();
    let start = Instant::now();
    for i in 0..MAX_SAMPLES {
        let t = Instant::now();
        request(i);
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        if start.elapsed() >= budget && latencies.len() >= MIN_SAMPLES {
            break;
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let percentile = |p: f64| {
        let idx = (p / 100.0 * (latencies.len() - 1) as f64).round() as usize;
        latencies[idx]
    };
    (percentile(50.0), percentile(99.0))
}

fn post_ok(conn: &mut Connection, path: &str, body: String) {
    let response = conn
        .send("POST", path, Some(body.as_bytes()))
        .expect("request failed");
    assert_eq!(
        response.status,
        200,
        "{path} answered {}: {}",
        response.status,
        response.text()
    );
}

fn main() {
    let budget = Duration::from_secs_f64(
        std::env::var("DIVA_BENCH_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0),
    );
    let server = Server::start(ServerConfig::default()).expect("starting in-process server");
    let addr: SocketAddr = server.addr();
    let mut conn = Connection::open(addr).expect("opening keep-alive connection");
    let mut sink = PerfSink::new();

    // --- /epsilon: a PLD+RDP query with a three-point curve. Uncached
    // varies `steps` per request (every key cold); cached repeats one
    // warmed body.
    let eps_body = |steps: u64| {
        format!(
            "{{\"q\": 0.01, \"sigma\": 1.1, \"steps\": {steps}, \
             \"step_counts\": \"500,1000,2000\"}}"
        )
    };
    // First request after bind: with the startup prewarm, this no longer
    // includes pool thread-spawn — recorded as its own row (see module
    // docs) so the cold-start cost stays visible across revisions.
    let t_first = Instant::now();
    post_ok(&mut conn, "/epsilon", eps_body(1999)); // warm the pool/allocator
    let first_us = t_first.elapsed().as_secs_f64() * 1e6;
    let (eps_unc_p50, eps_unc_p99) = measure(budget, |i| {
        post_ok(&mut conn, "/epsilon", eps_body(2000 + i as u64));
    });
    post_ok(&mut conn, "/epsilon", eps_body(2000)); // warm the cached key
    let (eps_hit_p50, eps_hit_p99) = measure(budget, |_| {
        post_ok(&mut conn, "/epsilon", eps_body(2000));
    });

    // --- /run: one simulator-backed fig13 cell (the deepest model in
    // the zoo at a large batch, one point, one algorithm). Uncached
    // varies the batch override; cached repeats batch 128.
    let run_body = |batch: usize| {
        format!(
            "{{\"scenario\": \"fig13\", \"models\": \"ResNet-152\", \"points\": \"diva\", \
             \"algs\": \"dp-sgd-r\", \"batch\": \"{batch}\", \"mode\": \"sync\"}}"
        )
    };
    post_ok(&mut conn, "/run", run_body(127)); // warm
    let (run_unc_p50, run_unc_p99) =
        measure(budget, |i| post_ok(&mut conn, "/run", run_body(128 + i)));
    post_ok(&mut conn, "/run", run_body(128)); // warm the cached key
    let (run_hit_p50, run_hit_p99) = measure(budget, |_| {
        post_ok(&mut conn, "/run", run_body(128));
    });

    drop(conn);
    // One cold-connection request documents the end-to-end path still
    // works outside keep-alive before the server goes down.
    let response = client::get(addr, "/stats").expect("cold-connection /stats");
    assert_eq!(response.status, 200);
    server.shutdown();
    server.wait();

    println!("serve_load (budget {budget:?} per series, keep-alive connection)");
    println!("  serve_first_request (post-bind, pool prewarmed): {first_us:>10.1} us");
    sink.push(
        PerfRecord::new("serve_first_request")
            .tag("backend", "prewarmed")
            .metric("first_us", first_us),
    );
    let mut report = |name: &str, backend: &str, p50: f64, p99: f64, speedup: Option<f64>| {
        println!("  {name:>17}/{backend:<8}  p50 {p50:>10.1} us   p99 {p99:>10.1} us");
        let mut record = PerfRecord::new(name)
            .tag("backend", backend)
            .metric("p50_us", p50)
            .metric("p99_us", p99);
        if let Some(speedup) = speedup {
            record = record.metric("speedup_vs_uncached", speedup);
        }
        sink.push(record);
    };
    report(
        "serve_eps_request",
        "uncached",
        eps_unc_p50,
        eps_unc_p99,
        None,
    );
    report(
        "serve_eps_request",
        "cached",
        eps_hit_p50,
        eps_hit_p99,
        Some(eps_unc_p50 / eps_hit_p50),
    );
    report("serve_run_cell", "uncached", run_unc_p50, run_unc_p99, None);
    report(
        "serve_run_cell",
        "cached",
        run_hit_p50,
        run_hit_p99,
        Some(run_unc_p50 / run_hit_p50),
    );

    // The acceptance bar: a perfect hit skips the whole accountant /
    // simulator, so anything under 10x means the memo path broke.
    assert!(
        eps_unc_p50 / eps_hit_p50 >= 10.0,
        "cached /epsilon is only {:.1}x faster than uncached",
        eps_unc_p50 / eps_hit_p50
    );
    assert!(
        run_unc_p50 / run_hit_p50 >= 10.0,
        "cached /run is only {:.1}x faster than uncached",
        run_unc_p50 / run_hit_p50
    );

    match sink.write_merged(None) {
        Ok(path) => println!("\nmerged serve rows into {}", path.display()),
        Err(e) => eprintln!("failed to write serve rows: {e}"),
    }
}
