//! The bounded background-job queue behind `202 + /jobs/{id}` polling.
//!
//! Grid-sized `/run` requests can take long enough that a synchronous
//! response would hold a connection (and its thread) open for minutes.
//! Instead the handler enqueues the work here and immediately answers
//! `202 Accepted` with a job id; the client polls `GET /jobs/{id}` until
//! the result is ready. Failure semantics, in order of appearance:
//!
//! * **Queue full** — [`JobQueue::submit`] refuses (the caller renders
//!   `429 Too Many Requests`). The bound is the backpressure: a client
//!   storm cannot accumulate unbounded deferred work.
//! * **Job failed** — the work closure runs through the same supervised
//!   runner (and shared memo cache) as synchronous requests, so a
//!   panicking cell settles into a typed error; the status endpoint
//!   replays it to every poll.
//! * **Shutdown** — the worker exits after the job it is running;
//!   still-queued jobs are marked failed ("server shutting down") so a
//!   final poll gets a definite answer instead of `queued` forever.
//!
//! Completed statuses are retained for the most recent
//! [`HISTORY_LIMIT`] jobs; polling an expired (or never-issued) id is a
//! 404.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use diva_tensor::Backend;

/// How many finished jobs keep their status visible for polling.
pub const HISTORY_LIMIT: usize = 256;

/// The work a job runs: produces response bytes or a shared error.
pub type JobWork<E> = Box<dyn FnOnce() -> Result<Arc<[u8]>, E> + Send>;

/// The visible status of a job.
#[derive(Clone, Debug)]
pub enum JobStatus<E> {
    /// Waiting in the queue.
    Queued,
    /// The worker is executing it.
    Running,
    /// Finished; the stored bytes are the response body.
    Done(Arc<[u8]>),
    /// Finished with an error (or abandoned at shutdown).
    Failed(E),
}

struct State<E> {
    queue: VecDeque<(u64, JobWork<E>)>,
    status: HashMap<u64, JobStatus<E>>,
    finished: VecDeque<u64>,
    next_id: u64,
    shutdown: bool,
}

struct Shared<E> {
    state: Mutex<State<E>>,
    cv: Condvar,
    capacity: usize,
}

/// A bounded FIFO job queue drained by one background worker thread.
pub struct JobQueue<E> {
    shared: Arc<Shared<E>>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<E: Clone + Send + 'static> JobQueue<E> {
    /// Starts the queue and its worker thread, which runs every job under
    /// `backend`. `shutdown_error` is the status given to jobs abandoned in
    /// the queue at shutdown.
    pub fn start(capacity: usize, shutdown_error: E, backend: Backend) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                status: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("diva-serve-jobs".to_string())
            .spawn(move || backend.install(|| worker_loop(&worker_shared, shutdown_error)))
            .expect("spawning the job worker");
        Self {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Enqueues `work`; `Err(())` means the queue is at capacity (render
    /// 429) or shutting down.
    #[allow(clippy::result_unit_err)]
    pub fn submit(&self, work: JobWork<E>) -> Result<u64, ()> {
        let mut state = self.shared.state.lock().unwrap();
        if state.shutdown || state.queue.len() >= self.shared.capacity {
            return Err(());
        }
        let id = state.next_id;
        state.next_id += 1;
        state.queue.push_back((id, work));
        state.status.insert(id, JobStatus::Queued);
        self.shared.cv.notify_one();
        Ok(id)
    }

    /// The status of job `id`, if it exists and has not expired from the
    /// finished-job history.
    pub fn status(&self, id: u64) -> Option<JobStatus<E>> {
        self.shared.state.lock().unwrap().status.get(&id).cloned()
    }

    /// `(queued, running)` depths for the stats endpoint.
    pub fn depth(&self) -> (usize, usize) {
        let state = self.shared.state.lock().unwrap();
        let running = state
            .status
            .values()
            .filter(|s| matches!(s, JobStatus::Running))
            .count();
        (state.queue.len(), running)
    }

    /// Stops accepting jobs, fails everything still queued, and joins
    /// the worker after the job it is currently running.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop<E: Clone>(shared: &Shared<E>, shutdown_error: E) {
    loop {
        let (id, work) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.status.insert(job.0, JobStatus::Running);
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.cv.wait(state).unwrap();
            }
        };
        let result = work();
        let mut state = shared.state.lock().unwrap();
        let status = match result {
            Ok(bytes) => JobStatus::Done(bytes),
            Err(e) => JobStatus::Failed(e),
        };
        state.status.insert(id, status);
        state.finished.push_back(id);
        while state.finished.len() > HISTORY_LIMIT {
            if let Some(expired) = state.finished.pop_front() {
                state.status.remove(&expired);
            }
        }
        if state.shutdown {
            // Give abandoned queued jobs a terminal answer before exiting.
            let abandoned: Vec<u64> = state.queue.drain(..).map(|(id, _)| id).collect();
            for id in abandoned {
                state
                    .status
                    .insert(id, JobStatus::Failed(shutdown_error.clone()));
                state.finished.push_back(id);
            }
            return;
        }
    }
}

impl<E> Drop for JobQueue<E> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.shutdown = true;
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn wait_done(q: &JobQueue<String>, id: u64) -> JobStatus<String> {
        for _ in 0..500 {
            match q.status(id) {
                Some(JobStatus::Done(_)) | Some(JobStatus::Failed(_)) => {
                    return q.status(id).unwrap()
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        panic!("job {id} never finished");
    }

    #[test]
    fn jobs_run_in_order_and_report_results() {
        let q: JobQueue<String> = JobQueue::start(4, "down".to_string(), Backend::serial());
        let a = q.submit(Box::new(|| Ok(Arc::from(&b"one"[..])))).unwrap();
        let b = q.submit(Box::new(|| Err("boom".to_string()))).unwrap();
        match wait_done(&q, a) {
            JobStatus::Done(bytes) => assert_eq!(&bytes[..], b"one"),
            other => panic!("unexpected {other:?}"),
        }
        match wait_done(&q, b) {
            JobStatus::Failed(e) => assert_eq!(e, "boom"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(q.status(999).is_none());
        q.shutdown();
    }

    #[test]
    fn queue_bound_rejects_excess_submissions() {
        let q: JobQueue<String> = JobQueue::start(1, "down".to_string(), Backend::serial());
        // Park the worker on a slow job, then fill the single queue slot.
        let slow = q
            .submit(Box::new(|| {
                std::thread::sleep(Duration::from_millis(100));
                Ok(Arc::from(&b"slow"[..]))
            }))
            .unwrap();
        // Wait until the slow job is running (queue drained).
        for _ in 0..200 {
            if matches!(q.status(slow), Some(JobStatus::Running)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = q.submit(Box::new(|| Ok(Arc::from(&b"q"[..])))).unwrap();
        assert!(
            q.submit(Box::new(|| Ok(Arc::from(&b"x"[..])))).is_err(),
            "second queued job exceeds capacity 1"
        );
        wait_done(&q, queued);
        q.shutdown();
    }

    #[test]
    fn shutdown_fails_abandoned_jobs() {
        let q: JobQueue<String> = JobQueue::start(8, "down".to_string(), Backend::serial());
        let slow = q
            .submit(Box::new(|| {
                std::thread::sleep(Duration::from_millis(50));
                Ok(Arc::from(&b"slow"[..]))
            }))
            .unwrap();
        for _ in 0..200 {
            if matches!(q.status(slow), Some(JobStatus::Running)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let abandoned = q.submit(Box::new(|| Ok(Arc::from(&b"never"[..])))).unwrap();
        q.shutdown();
        assert!(matches!(q.status(slow), Some(JobStatus::Done(_))));
        match q.status(abandoned) {
            Some(JobStatus::Failed(e)) => assert_eq!(e, "down"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
