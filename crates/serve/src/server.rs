//! The server proper: a thread-per-connection HTTP/1.1 accept loop wired
//! to the typed API layer, the memo cache, and the job queue.
//!
//! Every connection gets a keep-alive loop: read one request
//! ([`crate::http::read_request`]), route it, write one response. A
//! protocol error renders its typed 4xx and closes the connection (the
//! stream is unsynchronized after a malformed head); a handler panic is
//! caught per-request, counted, and rendered as a 500 without taking the
//! connection thread down. Shutdown is cooperative: `POST /shutdown` (or
//! [`Server::shutdown`]) flips a flag, wakes the accept loop with a
//! self-connection, and drains the job queue's worker.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use diva_tensor::Backend;

use crate::api::{self, ApiError, RunMode};
use crate::cache::MemoCache;
use crate::http;
use crate::jobs::{JobQueue, JobStatus};

/// Tunables for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Memo-cache byte budget.
    pub cache_bytes: usize,
    /// Job-queue capacity (excess submissions get 429).
    pub job_capacity: usize,
    /// `/run` requests estimated above this many grid cells are routed
    /// to the job queue (unless the body forces `"mode": "sync"`).
    pub job_cell_threshold: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Socket read timeout (a stalled client gets 408 and a close).
    pub read_timeout_ms: u64,
    /// The compute backend every request and job runs under; prewarmed at
    /// start and installed on the connection threads and the job worker.
    pub backend: Backend,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            cache_bytes: 64 << 20,
            job_capacity: 32,
            job_cell_threshold: 128,
            max_body_bytes: 1 << 20,
            read_timeout_ms: 10_000,
            backend: Backend::auto(),
        }
    }
}

struct AppState {
    config: ServerConfig,
    cache: MemoCache<ApiError>,
    jobs: JobQueue<ApiError>,
    scenarios_doc: Vec<u8>,
    internal_errors: AtomicU64,
    shutting_down: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
}

impl AppState {
    /// Idempotently flips the shutdown flag, wakes the accept loop with
    /// a self-connection, and drains the job worker.
    fn trigger_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = *self.addr.lock().unwrap() {
            // The accept loop re-checks the flag per connection; this
            // no-op connection is only the wake-up.
            let _ = TcpStream::connect(addr);
        }
        self.jobs.shutdown();
    }
}

/// A running `diva-serve` instance.
pub struct Server {
    state: Arc<AppState>,
    addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds `config.addr` and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        // Spin up (and park) the compute pool's workers before accepting
        // traffic, so the first `/run` or `/epsilon` request does not pay
        // thread-spawn latency inside its measured handler. See the
        // `serve_load` bench notes for the measured first-request delta.
        config.backend.prewarm();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(AppState {
            jobs: JobQueue::start(
                config.job_capacity,
                ApiError::new(503, "shutting-down", "server shut down before this job ran"),
                config.backend,
            ),
            cache: MemoCache::new(config.cache_bytes),
            scenarios_doc: api::scenarios_document(),
            internal_errors: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            addr: Mutex::new(Some(addr)),
            config,
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("diva-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        Ok(Self {
            state,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (with the actual port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown without waiting for it to finish.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// Blocks until the accept loop has exited (after [`Self::shutdown`]
    /// or a served `POST /shutdown`) and the job worker is drained.
    pub fn wait(&self) {
        if let Some(handle) = self.accept.lock().unwrap().take() {
            let _ = handle.join();
        }
        self.state.jobs.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<AppState>) {
    for stream in listener.incoming() {
        if state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let conn_state = Arc::clone(state);
        let backend = state.config.backend;
        let _ = std::thread::Builder::new()
            .name("diva-serve-conn".to_string())
            .spawn(move || backend.install(|| handle_connection(&conn_state, stream)));
    }
}

struct Response {
    status: u16,
    body: Vec<u8>,
    shutdown_after: bool,
}

impl Response {
    fn json(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            body,
            shutdown_after: false,
        }
    }

    fn error(err: &ApiError) -> Self {
        Self::json(err.status, err.body())
    }
}

fn handle_connection(state: &Arc<AppState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(state.config.read_timeout_ms)));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let request = match http::read_request(&mut reader, state.config.max_body_bytes) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                // The stream is unsynchronized after a malformed head:
                // answer with the typed status and close. Drain what the
                // client is still sending first — closing with unread
                // bytes queued turns into an RST that can destroy the
                // error response before the client reads it.
                let api = ApiError::from_http(&e);
                let _ = http::write_response(
                    &mut writer,
                    api.status,
                    "application/json",
                    &api.body(),
                    false,
                );
                let _ = writer.shutdown(std::net::Shutdown::Write);
                let mut scratch = [0u8; 4096];
                for _ in 0..256 {
                    match reader.read(&mut scratch) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                return;
            }
        };
        let response = match catch_unwind(AssertUnwindSafe(|| route(state, &request))) {
            Ok(response) => response,
            Err(_) => {
                state.internal_errors.fetch_add(1, Ordering::SeqCst);
                Response::error(&ApiError::new(
                    500,
                    "internal",
                    format!("handler for {} {} panicked", request.method, request.path),
                ))
            }
        };
        let keep_alive = !request.wants_close()
            && !response.shutdown_after
            && !state.shutting_down.load(Ordering::SeqCst);
        let write_ok = http::write_response(
            &mut writer,
            response.status,
            "application/json",
            &response.body,
            keep_alive,
        )
        .is_ok();
        if response.shutdown_after {
            // The 200 is already on the wire; now take the server down.
            state.trigger_shutdown();
        }
        if !write_ok || !keep_alive {
            return;
        }
    }
}

fn route(state: &Arc<AppState>, request: &http::Request) -> Response {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/scenarios") => Response::json(200, state.scenarios_doc.clone()),
        ("GET", "/stats") => Response::json(200, stats_document(state)),
        ("POST", "/run") => handle_run(state, &request.body),
        ("POST", "/explore") => handle_explore(state, &request.body),
        ("POST", "/epsilon") => handle_epsilon(state, &request.body),
        ("POST", "/compare") => handle_compare(request),
        ("POST", "/shutdown") => Response {
            status: 200,
            body: b"{\"ok\": true, \"message\": \"shutting down\"}\n".to_vec(),
            shutdown_after: true,
        },
        ("GET", _) if path.starts_with("/jobs/") => handle_job_poll(state, path),
        _ if matches!(path, "/scenarios" | "/stats") || path.starts_with("/jobs/") => {
            Response::error(&ApiError::new(
                405,
                "method-not-allowed",
                format!("{path} wants GET, not {method}"),
            ))
        }
        (_, "/run" | "/explore" | "/epsilon" | "/compare" | "/shutdown") => {
            Response::error(&ApiError::new(
                405,
                "method-not-allowed",
                format!("{path} wants POST, not {method}"),
            ))
        }
        _ => Response::error(&ApiError::new(
            404,
            "unknown-path",
            format!(
                "no endpoint {path}; endpoints: GET /scenarios, POST /run, POST /explore, \
                 POST /epsilon, POST /compare, GET /jobs/ID, GET /stats, POST /shutdown"
            ),
        )),
    }
}

fn handle_run(state: &Arc<AppState>, body: &[u8]) -> Response {
    let parsed = match api::parse_run_request(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(&e),
    };
    let key = api::run_cache_key(&parsed);
    let as_job = |parsed: &api::RunRequest| {
        let estimate = api::estimate_cells(parsed);
        let deferred = match parsed.mode {
            RunMode::Sync => false,
            RunMode::Job => true,
            RunMode::Auto => estimate > state.config.job_cell_threshold,
        };
        deferred.then(|| format!("\"estimated_cells\": {estimate}"))
    };
    answer_cached(state, key, parsed, as_job, api::execute_run)
}

fn handle_explore(state: &Arc<AppState>, body: &[u8]) -> Response {
    let parsed = match api::parse_explore_request(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(&e),
    };
    let key = api::explore_cache_key(&parsed);
    // A search is grid-sized by construction, so Job is the parsed
    // default; "mode": "sync" opts into an inline answer for small
    // budgets (RunMode::Auto never reaches here — the parser only
    // produces Sync or Job).
    let as_job = |parsed: &api::ExploreRequest| {
        (parsed.mode != RunMode::Sync).then(|| format!("\"budget\": {}", parsed.config.budget))
    };
    answer_cached(state, key, parsed, as_job, api::execute_explore)
}

/// The shared tail of `/run` and `/explore`. A perfect hit goes out before
/// any routing work (`as_job` may be expensive: `/run` rebuilds the
/// experiment's axes to estimate its grid). On a miss, `as_job` either
/// returns the field the 202 body reports after the poll URL, and the
/// request is deferred to the job queue (429 when full), or `None`, and
/// the answer is computed inline through the memo cache.
fn answer_cached<T: Send + 'static>(
    state: &Arc<AppState>,
    key: String,
    parsed: T,
    as_job: impl FnOnce(&T) -> Option<String>,
    execute: fn(&T) -> Result<Vec<u8>, ApiError>,
) -> Response {
    if let Some(bytes) = state.cache.peek(&key) {
        return Response::json(200, bytes.to_vec());
    }
    let Some(job_field) = as_job(&parsed) else {
        return match state.cache.get_or_compute(&key, || execute(&parsed)).0 {
            Ok(bytes) => Response::json(200, bytes.to_vec()),
            Err(e) => Response::error(&e),
        };
    };
    let job_state = Arc::clone(state);
    let work = Box::new(move || job_state.cache.get_or_compute(&key, || execute(&parsed)).0);
    match state.jobs.submit(work) {
        Ok(id) => Response::json(
            202,
            format!("{{\"job_id\": {id}, \"poll\": \"/jobs/{id}\", {job_field}}}\n").into_bytes(),
        ),
        Err(()) => Response::error(&ApiError::new(
            429,
            "queue-full",
            format!(
                "job queue is full ({} deferred runs); retry after polling existing jobs",
                state.config.job_capacity
            ),
        )),
    }
}

fn handle_epsilon(state: &Arc<AppState>, body: &[u8]) -> Response {
    let parsed = match api::parse_epsilon_request(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(&e),
    };
    let key = api::epsilon_cache_key(&parsed);
    match state
        .cache
        .get_or_compute(&key, || api::execute_epsilon(&parsed))
        .0
    {
        Ok(bytes) => Response::json(200, bytes.to_vec()),
        Err(e) => Response::error(&e),
    }
}

fn handle_compare(request: &http::Request) -> Response {
    let tolerance = match request.query_value("tolerance") {
        None => 0.05,
        Some(raw) => match raw.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => {
                return Response::error(&ApiError::bad_request(format!(
                    "tolerance wants a non-negative number, got {raw:?}"
                )))
            }
        },
    };
    match api::execute_compare(&request.body, tolerance) {
        Ok((true, doc)) => Response::json(200, doc),
        Ok((false, doc)) => Response::json(409, doc),
        Err(e) => Response::error(&e),
    }
}

fn handle_job_poll(state: &Arc<AppState>, path: &str) -> Response {
    let raw_id = path.strip_prefix("/jobs/").unwrap_or_default();
    let Ok(id) = raw_id.parse::<u64>() else {
        return Response::error(&ApiError::bad_request(format!(
            "job id wants an integer, got {raw_id:?}"
        )));
    };
    match state.jobs.status(id) {
        None => Response::error(&ApiError::new(
            404,
            "unknown-job",
            format!("no job {id} (never submitted, or expired from the finished-job history)"),
        )),
        Some(JobStatus::Queued) => Response::json(
            202,
            format!("{{\"job_id\": {id}, \"state\": \"queued\"}}\n").into_bytes(),
        ),
        Some(JobStatus::Running) => Response::json(
            202,
            format!("{{\"job_id\": {id}, \"state\": \"running\"}}\n").into_bytes(),
        ),
        Some(JobStatus::Done(bytes)) => Response::json(200, bytes.to_vec()),
        Some(JobStatus::Failed(e)) => Response::error(&e),
    }
}

fn stats_document(state: &AppState) -> Vec<u8> {
    let cache = state.cache.stats();
    let (queued, running) = state.jobs.depth();
    let internal = state.internal_errors.load(Ordering::SeqCst);
    let pool = diva_tensor::parallel::pool_stats();
    let buffers = diva_tensor::buffer_stats();
    format!(
        "{{\n  \"schema\": \"diva-stats/v1\",\n  \"records\": [\n    \
         {{\"name\": \"cache\", \"hits\": {}, \"misses\": {}, \"joined\": {}, \"computed\": {}, \
         \"evictions\": {}, \"entries\": {}, \"bytes\": {}}},\n    \
         {{\"name\": \"buffers\", \"reused\": {}, \"allocated\": {}, \"evicted\": {}, \
         \"idle_bytes\": {}}},\n    \
         {{\"name\": \"jobs\", \"queued\": {queued}, \"running\": {running}}},\n    \
         {{\"name\": \"pool\", \"workers\": {}, \"idle\": {}, \"steals\": {}, \
         \"inline_runs\": {}, \"max_region_depth\": {}}},\n    \
         {{\"name\": \"errors\", \"internal\": {internal}}}\n  ]\n}}\n",
        cache.hits,
        cache.misses,
        cache.joined,
        cache.computed,
        cache.evictions,
        cache.entries,
        cache.bytes,
        buffers.reused,
        buffers.allocated,
        buffers.evicted,
        buffers.idle_bytes,
        pool.spawned,
        pool.idle,
        pool.steals,
        pool.inline_runs,
        pool.max_depth,
    )
    .into_bytes()
}
