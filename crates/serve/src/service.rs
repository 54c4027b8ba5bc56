//! The service core: routing, the bounded job queue, backpressure, the
//! result cache, deadlines, and graceful shutdown.
//!
//! # Threading model
//!
//! ```text
//! accept thread ── polls Transport::accept, spawns one handler/connection
//!   handler ────── parses HTTP under the per-connection I/O deadline,
//!                  routes; /run checks the cache, then try_sends a job
//!                  (with its request deadline) into the bounded queue
//!                  (full → 429 + Retry-After) and waits on its private
//!                  reply channel until the deadline
//! workers ×threads each takes one job off the queue as soon as it is
//!                  free; a watchdog sheds a job whose deadline passed in
//!                  the queue, otherwise it runs through ExperimentRunner
//!                  (panic + budget isolated), fills the cache, and
//!                  answers the job's reply channel
//! ```
//!
//! The workers are work-conserving: a job never waits while a worker is
//! idle, so `threads` cache misses run concurrently instead of queueing
//! behind one another.
//!
//! The queue is a `std::sync::mpsc::sync_channel` of fixed capacity: a
//! `/run` that cannot `try_send` is rejected with **429** immediately —
//! the service never holds more than `queue_capacity` experiments of
//! deferred work, so memory stays bounded no matter how fast clients
//! submit.
//!
//! # Deadlines (the no-hang guarantee)
//!
//! Two budgets bound every connection. The **I/O deadline**
//! ([`ServeConfig::io_deadline`]) caps each read/write loop on the wire,
//! so a slow-loris peer or stalled stream cannot pin a handler: an
//! expired read answers 408 and closes (counted in
//! `stem_serve_io_deadline_total`). The **request deadline**
//! ([`RequestDeadline`], from the client's `deadline_ms` or the service
//! default) travels with the job; the handler stops waiting at it
//! (503 + `Retry-After`, counted in `stem_serve_deadline_shed_total`)
//! and the executor watchdog refuses to start work whose requester
//! already gave up. Every 429/503 carries a deterministic `Retry-After`
//! derived from the current queue depth.
//!
//! # Determinism
//!
//! A `/run` response body is a pure function of the canonical request:
//! the canonical echo plus the executor's deterministic result, rendered
//! by the deterministic JSON writer. Cache hits replay stored bytes.
//! Identical requests therefore return byte-identical bodies at any
//! `STEM_THREADS`, any queue depth, regardless of cache state — and, as
//! the chaos campaign proves, regardless of how hostile the *other*
//! connections are. `deadline_ms` is excluded from the canonical form,
//! so patience never splits a cache entry.
//!
//! # Shutdown
//!
//! `POST /shutdown` (or [`ServiceHandle::shutdown`]) flips the stop flag.
//! The accept thread stops accepting at its next poll, joins every
//! handler (in-flight requests finish normally), drops the queue sender,
//! and the workers exit once the queue drains — a graceful drain, not an
//! abort.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use stem_bench::resilience::ExperimentRunner;
use stem_sim_core::Json;

use crate::cache::{ResultCache, SnapshotCache};
use crate::exec::{expired_before_execution, Executor, RequestDeadline};
use crate::http::{read_request_deadline, write_response_deadline, Deadline, HttpRequest};
use crate::metrics::Metrics;
use crate::request::RunRequest;
use crate::transport::{Connection, Transport};

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded queue slots; a `/run` arriving when all are occupied gets
    /// 429.
    pub queue_capacity: usize,
    /// Result-cache entries (LRU beyond this).
    pub cache_capacity: usize,
    /// Warm-state snapshot-cache entries for the production executor
    /// (LRU beyond this; 0 disables warm-prefix reuse entirely). Only
    /// consulted by [`start`] — [`start_with_executor`] callers own their
    /// executor's caching.
    pub snapshot_slots: usize,
    /// Executor workers: each runs one queued experiment at a time, so up
    /// to this many run concurrently.
    pub threads: usize,
    /// Per-experiment wall-clock budget.
    pub budget: Duration,
    /// Per-connection read/write deadline: the longest one HTTP
    /// read-request or write-response loop may take on the wire.
    pub io_deadline: Duration,
    /// Pre-built metrics to share with decorators (e.g. a
    /// [`ChaosTransport`](crate::chaos::ChaosTransport) counting its
    /// injections); `None` creates fresh metrics.
    pub metrics: Option<Arc<Metrics>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 8,
            cache_capacity: ResultCache::DEFAULT_CAPACITY,
            snapshot_slots: SnapshotCache::DEFAULT_CAPACITY,
            threads: stem_bench::pool::configured_threads(),
            budget: Duration::from_secs(600),
            io_deadline: Duration::from_secs(10),
            metrics: None,
        }
    }
}

/// Why a queued job produced no response body.
enum JobError {
    /// The experiment ran and failed (panic, budget, or simulation
    /// error) — the handler answers 500.
    Failed(String),
    /// The executor watchdog shed the job because its deadline passed in
    /// the queue — the handler (if still waiting) answers 503.
    Shed,
}

/// What a worker sends back to the waiting handler: the response body,
/// or why there is none.
type Reply = Result<Arc<Vec<u8>>, JobError>;

/// One queued experiment.
struct Job {
    request: RunRequest,
    key: u64,
    canonical: String,
    deadline: RequestDeadline,
    reply: mpsc::Sender<Reply>,
}

/// State shared by handlers and the executor.
struct Shared {
    stop: AtomicBool,
    metrics: Arc<Metrics>,
    cache: Mutex<ResultCache>,
    /// `Some` while the service accepts work; taken at drain time so the
    /// workers' `recv` loops terminate.
    queue: Mutex<Option<SyncSender<Job>>>,
    budget: Duration,
    io_deadline: Duration,
}

/// A running service. Dropping the handle does *not* stop it; call
/// [`shutdown`](Self::shutdown) + [`join`](Self::join) (or hit
/// `POST /shutdown`).
pub struct ServiceHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The live metrics (shared with the running service).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Requests a graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested (by handle or HTTP).
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop, all handlers, and the executor workers
    /// to finish. Call [`shutdown`](Self::shutdown) first (or rely on
    /// `POST /shutdown`), otherwise this blocks until a client stops the
    /// service.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Starts the service on `transport` with the production simulation
/// executor, including the warm-state snapshot cache when
/// [`ServeConfig::snapshot_slots`] is nonzero. The executor shares the
/// service's metrics so snapshot traffic shows up on `/metrics`.
pub fn start(transport: Box<dyn Transport>, mut config: ServeConfig) -> ServiceHandle {
    let metrics = config
        .metrics
        .take()
        .unwrap_or_else(|| Arc::new(Metrics::new()));
    config.metrics = Some(Arc::clone(&metrics));
    let executor = crate::exec::simulation_executor_with(config.snapshot_slots, metrics);
    start_with_executor(transport, config, executor)
}

/// Starts the service with an arbitrary executor (tests inject blocking
/// or instant ones to probe backpressure and caching).
pub fn start_with_executor(
    transport: Box<dyn Transport>,
    config: ServeConfig,
    executor: Executor,
) -> ServiceHandle {
    assert!(config.queue_capacity > 0, "queue needs at least one slot");
    let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity);
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        metrics: config.metrics.unwrap_or_else(|| Arc::new(Metrics::new())),
        cache: Mutex::new(ResultCache::new(config.cache_capacity)),
        queue: Mutex::new(Some(tx)),
        budget: config.budget,
        io_deadline: config.io_deadline,
    });

    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..config.threads.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            let executor = Arc::clone(&executor);
            thread::Builder::new()
                .name("stem-serve-exec".into())
                .spawn(move || worker_loop(&shared, &rx, &executor))
                .expect("spawn executor worker")
        })
        .collect();

    let accept_thread = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("stem-serve-accept".into())
            .spawn(move || accept_loop(transport, &shared))
            .expect("spawn accept thread")
    };

    ServiceHandle {
        shared,
        accept_thread: Some(accept_thread),
        workers,
    }
}

/// Polls the transport until the stop flag rises, then drains: joins all
/// handlers and drops the queue sender so the workers can exit.
fn accept_loop(transport: Box<dyn Transport>, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match transport.accept() {
            Ok(Some(conn)) => {
                let shared = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name("stem-serve-conn".into())
                    .spawn(move || {
                        // A handler panic must not take the service down;
                        // the connection just closes without a response.
                        // The no-panic invariant is that this counter
                        // stays zero under any input.
                        if catch_unwind(AssertUnwindSafe(|| handle_connection(conn, &shared)))
                            .is_err()
                        {
                            shared.metrics.panicked();
                        }
                    })
                    .expect("spawn connection handler");
                handlers.push(handle);
                handlers.retain(|h| !h.is_finished());
            }
            Ok(None) => {}
            Err(_) => break, // transport died; drain what is in flight
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    // With every handler done, no sender clones remain outside `queue`;
    // taking it disconnects the channel once queued jobs are consumed.
    shared.queue.lock().expect("queue lock").take();
}

/// One executor worker: takes the next job off the shared queue as soon
/// as it is free, runs it, answers its reply channel, and exits once the
/// queue is closed and empty.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>, executor: &Executor) {
    let mut runner = ExperimentRunner::with_budget(shared.budget);
    loop {
        // The lock is held only while this worker waits for a job; the
        // guard drops at the end of the statement, before the job runs.
        let Ok(job) = rx.lock().expect("queue receiver lock").recv() else {
            return;
        };
        shared.metrics.job_started();
        let reply = run_job(shared, &mut runner, executor, &job);
        // The handler may have timed out and gone; ignore send errors.
        let _ = job.reply.send(reply);
    }
}

/// Runs one dequeued job: the deadline watchdog, the panic- and
/// budget-isolated experiment, and the result-cache fill. The runner's
/// outcome log is drained every time, so a long-lived worker holds no
/// per-job state.
fn run_job(
    shared: &Shared,
    runner: &mut ExperimentRunner,
    executor: &Executor,
    job: &Job,
) -> Reply {
    // Watchdog: a job that outlived its deadline in the queue is dead on
    // arrival — executing it would wedge live work behind an answer
    // nobody is waiting for. (The waiting handler counts the shed when it
    // answers 503, so this does not double-count.)
    if expired_before_execution(&job.deadline) {
        return Err(JobError::Shed);
    }
    let request = job.request.clone();
    let executor = Arc::clone(executor);
    let result = runner.run_value(&job.canonical, move || executor(&request));
    let outcome = runner.take_outcomes().pop();
    match result {
        Some(Ok(json)) => {
            shared.metrics.sim_executed();
            let body = Arc::new(render_run_body(job, &json));
            shared.cache.lock().expect("cache lock").insert(
                job.key,
                job.canonical.clone(),
                Arc::clone(&body),
            );
            Ok(body)
        }
        Some(Err(e)) => {
            shared.metrics.worker_failed();
            Err(JobError::Failed(format!("experiment failed: {e}")))
        }
        None => {
            shared.metrics.worker_failed();
            let failure = outcome
                .and_then(|o| o.failure)
                .map_or_else(|| "unknown failure".to_owned(), |f| f.to_string());
            Err(JobError::Failed(format!("experiment {failure}")))
        }
    }
}

/// The complete `/run` response body for a finished experiment: canonical
/// request echo, content hash, and the executor's result.
fn render_run_body(job: &Job, result: &Json) -> Vec<u8> {
    Json::Obj(vec![
        ("request".to_owned(), job.request.canonical()),
        ("key".to_owned(), Json::str(format!("{:016x}", job.key))),
        ("result".to_owned(), result.clone()),
    ])
    .pretty()
    .into_bytes()
}

fn error_body(detail: &str) -> Vec<u8> {
    Json::Obj(vec![("error".to_owned(), Json::str(detail))])
        .pretty()
        .into_bytes()
}

/// The deterministic `Retry-After` value (whole seconds) for shed work:
/// one second of patience per queued job, plus one, capped at a minute.
/// Derived only from the queue-depth gauge, so identical load states
/// advertise identical values.
fn retry_after_secs(shared: &Shared) -> u64 {
    (shared.metrics.queue_depth() + 1).min(60)
}

/// One fully routed response: status, content type, extra headers, body.
struct Routed {
    route: &'static str,
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Routed {
    fn json(route: &'static str, status: u16, body: Vec<u8>) -> Routed {
        Routed {
            route,
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }
}

/// Reads one request, routes it, writes one response, closes. Reading
/// and writing each get one I/O deadline; an expired read answers 408
/// (best-effort) and counts toward `stem_serve_io_deadline_total`.
fn handle_connection(mut conn: Box<dyn Connection>, shared: &Arc<Shared>) {
    let t0 = std::time::Instant::now();
    let read_deadline = Deadline::after(shared.io_deadline);
    let request = match read_request_deadline(&mut conn, read_deadline) {
        Ok(r) => r,
        Err(e) => {
            let (route, status) = if e.is_deadline() {
                shared.metrics.io_deadline_hit();
                ("timeout", 408)
            } else {
                ("bad", 400)
            };
            // The write gets its own (fresh) deadline: the read consumed
            // the first one, and an unresponsive peer must not hold the
            // 408/400 write open either.
            let _ = write_response_deadline(
                &mut conn,
                status,
                "application/json",
                &[],
                &error_body(&e.to_string()),
                Deadline::after(shared.io_deadline),
            );
            shared.metrics.record_request(route, status, t0.elapsed());
            return;
        }
    };
    let routed = route(&request, shared);
    if write_response_deadline(
        &mut conn,
        routed.status,
        routed.content_type,
        &routed.headers,
        &routed.body,
        Deadline::after(shared.io_deadline),
    )
    .is_err_and(|e| e.kind() == std::io::ErrorKind::TimedOut)
    {
        shared.metrics.io_deadline_hit();
    }
    let _ = conn.flush();
    shared
        .metrics
        .record_request(routed.route, routed.status, t0.elapsed());
}

/// Dispatches a parsed request to its route.
fn route(req: &HttpRequest, shared: &Arc<Shared>) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Routed::json(
            "healthz",
            200,
            Json::Obj(vec![("status".to_owned(), Json::str("ok"))])
                .pretty()
                .into_bytes(),
        ),
        ("GET", "/metrics") => Routed {
            route: "metrics",
            status: 200,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: shared.metrics.render().into_bytes(),
        },
        ("POST", "/run") => handle_run(&req.body, shared),
        ("POST", "/shutdown") => {
            shared.stop.store(true, Ordering::SeqCst);
            Routed::json(
                "shutdown",
                200,
                Json::Obj(vec![("status".to_owned(), Json::str("draining"))])
                    .pretty()
                    .into_bytes(),
            )
        }
        (_, "/healthz" | "/metrics" | "/run" | "/shutdown") => Routed::json(
            "method_not_allowed",
            405,
            error_body(&format!("method {} not allowed here", req.method)),
        ),
        _ => Routed::json(
            "not_found",
            404,
            error_body(&format!("no route {:?}", req.path)),
        ),
    }
}

/// A 429/503 with the deterministic `Retry-After` header attached.
fn shed_response(route: &'static str, status: u16, detail: &str, shared: &Shared) -> Routed {
    let mut r = Routed::json(route, status, error_body(detail));
    r.headers
        .push(("retry-after", retry_after_secs(shared).to_string()));
    r
}

/// The `/run` route: validate → cache → enqueue (or 429) → await result
/// until the request deadline.
fn handle_run(body: &[u8], shared: &Arc<Shared>) -> Routed {
    let request = match RunRequest::parse(body) {
        Ok(r) => r,
        Err(e) => return Routed::json("run", 400, error_body(&e.to_string())),
    };
    if request.fidelity == stem_bench::config::Fidelity::Sampled {
        shared.metrics.sampled_request();
    }
    if request.mix.is_some() {
        shared.metrics.mix_request();
    }
    let canonical = request.canonical().to_string();
    let key = request.cache_key();

    if let Some(hit) = shared
        .cache
        .lock()
        .expect("cache lock")
        .get(key, &canonical)
    {
        shared.metrics.cache_hit();
        return Routed::json("run", 200, hit.as_ref().clone());
    }
    shared.metrics.cache_miss();

    // The default wait covers the executor budget (timeouts included)
    // plus queue slack for everything ahead of this job; a client
    // deadline_ms overrides it with a tighter budget.
    let default_wait = shared
        .budget
        .saturating_mul(2)
        .saturating_add(Duration::from_secs(30));
    let deadline = RequestDeadline::for_request(&request, default_wait);

    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        request,
        key,
        canonical,
        deadline,
        reply: reply_tx,
    };
    // Clone the sender out of the lock so a slow experiment cannot block
    // other handlers on the mutex.
    let sender = shared.queue.lock().expect("queue lock").clone();
    let Some(sender) = sender else {
        return Routed::json("run", 503, error_body("service is shutting down"));
    };
    match sender.try_send(job) {
        Ok(()) => shared.metrics.job_enqueued(),
        Err(TrySendError::Full(_)) => {
            shared.metrics.rejected();
            return shed_response(
                "run",
                429,
                "experiment queue is full; retry after a running experiment finishes",
                shared,
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            return Routed::json("run", 503, error_body("service is shutting down"));
        }
    }

    match reply_rx.recv_timeout(deadline.remaining()) {
        Ok(Ok(body)) => Routed::json("run", 200, body.as_ref().clone()),
        Ok(Err(JobError::Failed(detail))) => Routed::json("run", 500, error_body(&detail)),
        Ok(Err(JobError::Shed)) | Err(_) => {
            shared.metrics.deadline_shed();
            shed_response(
                "run",
                503,
                "request deadline exceeded before the experiment finished",
                shared,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_sim_core::SimError;

    fn job(benchmark: &str) -> (Job, mpsc::Receiver<Reply>) {
        let body = format!(r#"{{"benchmark": "{benchmark}", "scheme": "lru"}}"#);
        let request = RunRequest::parse(body.as_bytes()).expect("valid request");
        let (reply, rx) = mpsc::channel();
        let job = Job {
            key: request.cache_key(),
            canonical: request.canonical().to_string(),
            deadline: RequestDeadline::for_request(&request, Duration::from_secs(60)),
            request,
            reply,
        };
        (job, rx)
    }

    #[test]
    fn a_long_lived_worker_keeps_no_per_job_state() {
        let shared = Shared {
            stop: AtomicBool::new(false),
            metrics: Arc::new(Metrics::new()),
            cache: Mutex::new(ResultCache::new(4)),
            queue: Mutex::new(None),
            budget: Duration::from_secs(60),
            io_deadline: Duration::from_secs(10),
        };
        // Every third job panics, so the failure path drains too.
        let executor: Executor = Arc::new(|req| {
            assert_ne!(req.benchmark, "art", "injected failure");
            Ok::<_, SimError>(Json::str(req.benchmark.clone()))
        });
        let mut runner = ExperimentRunner::with_budget(shared.budget);
        for i in 0..100 {
            let name = ["mcf", "omnetpp", "art"][i % 3];
            let (job, _rx) = job(name);
            let reply = run_job(&shared, &mut runner, &executor, &job);
            assert_eq!(reply.is_ok(), name != "art", "job {i} ({name})");
            assert!(
                runner.outcomes().is_empty(),
                "job {i} left {} outcome(s) on the runner",
                runner.outcomes().len()
            );
        }
        assert_eq!(shared.metrics.sim_executions(), 67);
    }
}
