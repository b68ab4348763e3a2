//! The daemon: accept loop, routes, worker pool, and graceful drain.
//!
//! Availability model in one paragraph: the accept loop never blocks on a
//! job (handlers run on short-lived connection threads), admission is
//! bounded by the job queue (full → `429` + `Retry-After`, draining →
//! `503`), poison specs are refused up front by the circuit breaker
//! (`409`), repeat specs are answered from the certificate cache without
//! touching a worker, and SIGTERM/`POST /shutdown` stops admission while
//! queued and running jobs run to a terminal state before `join` returns.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cppll_json::ObjectBuilder;
use cppll_trace::{TraceLevel, Tracer};
use cppll_verify::checkpoint::{fingerprint_hex, CacheEntry, CertificateCache, DEFAULT_RUNS_DIR};
use cppll_verify::Durability;

use crate::breaker::CircuitBreaker;
use crate::gc::{gc_runs, GcPolicy};
use crate::http::{read_request, Response};
use crate::job::{JobRecord, JobRegistry, JobRequest, JobState};
use crate::pool::{run_job, JobContext, JobOutcome, JobRunner, WorkerSupervision};
use crate::queue::{BoundedQueue, Pop, PushError};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Worker threads.
    pub workers: usize,
    /// Job queue capacity (admission bound).
    pub queue_capacity: usize,
    /// Base directory for run journals and the certificate cache.
    pub runs_dir: PathBuf,
    /// Journal/cache durability.
    pub durability: Durability,
    /// Whether the certificate cache answers repeat specs.
    pub cache_enabled: bool,
    /// Consecutive worker-exhaustion failures before a fingerprint is
    /// quarantined.
    pub breaker_threshold: u32,
    /// `Retry-After` seconds suggested on `429`/`503`.
    pub retry_after_secs: u64,
    /// How jobs execute.
    pub runner: JobRunner,
    /// Worker supervision defaults.
    pub supervision: WorkerSupervision,
    /// Retention GC applied after every terminal job (inactive by default).
    pub gc: GcPolicy,
    /// Counter/gauge sink (also serves `/metrics`).
    pub tracer: Tracer,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            runs_dir: PathBuf::from(DEFAULT_RUNS_DIR),
            durability: Durability::Fast,
            cache_enabled: true,
            breaker_threshold: 3,
            retry_after_secs: 2,
            runner: JobRunner::InProcess,
            supervision: WorkerSupervision::default(),
            gc: GcPolicy::default(),
            tracer: Tracer::new(TraceLevel::Stage),
        }
    }
}

/// One queued unit of work.
struct QueuedJob {
    id: u64,
    fp: u64,
    req: JobRequest,
}

struct Inner {
    opt: ServeOptions,
    queue: BoundedQueue<QueuedJob>,
    registry: JobRegistry,
    breaker: CircuitBreaker,
    cache: CertificateCache,
    draining: AtomicBool,
    next_id: AtomicU64,
}

impl Inner {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn refresh_gauges(&self) {
        let t = &self.opt.tracer;
        t.gauge("queue_depth", self.queue.len() as f64);
        t.gauge("jobs_inflight", self.registry.inflight() as f64);
        t.gauge(
            "quarantined_fingerprints",
            self.breaker.quarantined() as f64,
        );
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and the worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Bind or runs-directory creation failures.
    pub fn start(opt: ServeOptions) -> std::io::Result<Server> {
        std::fs::create_dir_all(&opt.runs_dir)?;
        let listener = TcpListener::bind(&opt.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(opt.queue_capacity),
            registry: JobRegistry::new(),
            breaker: CircuitBreaker::new(opt.breaker_threshold),
            cache: CertificateCache::new(opt.runs_dir.join("cache"), opt.durability),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            opt,
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        let workers = (0..inner.opt.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();

        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The breaker (exposed for tests and operator tooling).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.inner.breaker
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.draining()
    }

    /// Begins a graceful drain: stop accepting, let queued and running
    /// jobs finish. Idempotent.
    pub fn shutdown(&self) {
        self.inner.begin_drain();
    }

    /// Waits for the acceptor and every worker to exit. Call after
    /// [`Server::shutdown`] (or after `/shutdown` was posted).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        if inner.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(inner);
                // Short-lived connection thread: one request, one response.
                std::thread::spawn(move || handle_connection(stream, &inner));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let response = match read_request(&mut stream) {
        Err(_) => return, // transport failure: nothing to answer
        Ok(Err(e)) => Response::json(
            e.status(),
            ObjectBuilder::new()
                .field("error", format!("{e:?}"))
                .build()
                .to_compact_string(),
        ),
        Ok(Ok(req)) => route(inner, &req.method, &req.path, &req.body),
    };
    let _ = response.write_to(&mut stream);
}

fn json_error(status: u16, message: impl Into<String>) -> Response {
    Response::json(
        status,
        ObjectBuilder::new()
            .field("error", message.into())
            .build()
            .to_compact_string(),
    )
}

fn route(inner: &Arc<Inner>, method: &str, path: &str, body: &[u8]) -> Response {
    match (method, path) {
        ("POST", "/jobs") => submit(inner, body),
        ("GET", "/jobs") => {
            let jobs: Vec<_> = inner
                .registry
                .all()
                .iter()
                .map(JobRecord::to_json)
                .collect();
            Response::json(
                200,
                ObjectBuilder::new()
                    .field("jobs", jobs)
                    .field("inflight", inner.registry.inflight() as u64)
                    .build()
                    .to_compact_string(),
            )
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let raw = &p["/jobs/".len()..];
            let id = raw.strip_prefix("job-").unwrap_or(raw).parse::<u64>().ok();
            match id.and_then(|id| inner.registry.get(id)) {
                Some(rec) => Response::json(200, rec.to_json().to_compact_string()),
                None => json_error(404, format!("no such job: {raw}")),
            }
        }
        ("GET", "/metrics") => {
            inner.refresh_gauges();
            Response::text(200, inner.opt.tracer.to_prometheus())
        }
        ("GET", "/healthz") => {
            let status = if inner.draining() { "draining" } else { "ok" };
            Response::json(
                200,
                ObjectBuilder::new()
                    .field("status", status)
                    .field("queue_depth", inner.queue.len() as u64)
                    .field("queue_capacity", inner.queue.capacity() as u64)
                    .field("inflight", inner.registry.inflight() as u64)
                    .field("workers", inner.opt.workers as u64)
                    .field("quarantined", inner.breaker.quarantined() as u64)
                    .build()
                    .to_compact_string(),
            )
        }
        ("POST", "/shutdown") => {
            inner.begin_drain();
            Response::json(200, r#"{"status":"draining"}"#)
        }
        ("GET" | "POST", _) => json_error(404, format!("no such endpoint: {path}")),
        _ => json_error(405, format!("method not allowed: {method}")),
    }
}

fn submit(inner: &Arc<Inner>, body: &[u8]) -> Response {
    let tracer = &inner.opt.tracer;
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            tracer.counter("jobs_rejected", 1);
            return json_error(400, "body is not UTF-8");
        }
    };
    let req = match JobRequest::from_json_str(text) {
        Ok(r) => r,
        Err(e) => {
            tracer.counter("jobs_rejected", 1);
            return json_error(400, e.to_string());
        }
    };
    let fp = match req.fingerprint() {
        Ok(fp) => fp,
        Err(e) => {
            tracer.counter("jobs_rejected", 1);
            return json_error(400, e.to_string());
        }
    };

    if inner.breaker.is_quarantined(fp) {
        tracer.counter("jobs_rejected", 1);
        return Response::json(
            409,
            ObjectBuilder::new()
                .field("error", "fingerprint quarantined by circuit breaker")
                .field("fingerprint", fingerprint_hex(fp))
                .build()
                .to_compact_string(),
        );
    }

    // Answer repeats from the certificate cache without touching a worker.
    if inner.opt.cache_enabled {
        if let Some(entry) = inner.cache.lookup(fp) {
            let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
            inner.registry.insert(JobRecord {
                id,
                fingerprint: fp,
                run_id: entry.run_id.clone(),
                state: JobState::Completed {
                    verified: entry.verified,
                    digest: entry.digest.clone(),
                    restarts: 0,
                    cached: true,
                },
                accepted_at: Instant::now(),
                elapsed_secs: Some(0.0),
            });
            tracer.counter("jobs_accepted", 1);
            tracer.counter("cache_hits", 1);
            let rec = inner.registry.get(id).expect("just inserted");
            return Response::json(200, rec.to_json().to_compact_string());
        }
    }

    if inner.draining() {
        tracer.counter("jobs_rejected", 1);
        return json_error(503, "draining")
            .with_header("Retry-After", inner.opt.retry_after_secs.to_string());
    }

    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    inner.registry.insert(JobRecord {
        id,
        fingerprint: fp,
        run_id: format!("job-{id}"),
        state: JobState::Queued,
        accepted_at: Instant::now(),
        elapsed_secs: None,
    });
    match inner.queue.try_push(QueuedJob { id, fp, req }) {
        Ok(depth) => {
            tracer.counter("jobs_accepted", 1);
            tracer.gauge("queue_depth", depth as f64);
            Response::json(
                202,
                ObjectBuilder::new()
                    .field("id", id)
                    .field("job", format!("job-{id}"))
                    .field("fingerprint", fingerprint_hex(fp))
                    .field("state", "queued")
                    .field("queue_depth", depth as u64)
                    .build()
                    .to_compact_string(),
            )
        }
        Err(PushError::Full) => {
            inner.registry.remove(id);
            tracer.counter("jobs_rejected", 1);
            json_error(429, "queue full")
                .with_header("Retry-After", inner.opt.retry_after_secs.to_string())
        }
        Err(PushError::Closed) => {
            inner.registry.remove(id);
            tracer.counter("jobs_rejected", 1);
            json_error(503, "draining")
                .with_header("Retry-After", inner.opt.retry_after_secs.to_string())
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        match inner.queue.pop(Duration::from_millis(200)) {
            Pop::Item(job) => process_job(inner, job),
            Pop::TimedOut => continue,
            Pop::Drained => return,
        }
    }
}

fn process_job(inner: &Arc<Inner>, job: QueuedJob) {
    let tracer = &inner.opt.tracer;
    inner.registry.mark_running(job.id);
    inner.refresh_gauges();

    // Second-chance cache lookup: an identical job may have completed
    // while this one sat in the queue.
    if inner.opt.cache_enabled {
        if let Some(entry) = inner.cache.lookup(job.fp) {
            inner.registry.finish(
                job.id,
                JobState::Completed {
                    verified: entry.verified,
                    digest: entry.digest,
                    restarts: 0,
                    cached: true,
                },
            );
            tracer.counter("cache_hits", 1);
            tracer.counter("jobs_completed", 1);
            after_terminal(inner);
            return;
        }
    }

    let run_id = format!("job-{}", job.id);
    let ctx = JobContext {
        runner: &inner.opt.runner,
        supervision: &inner.opt.supervision,
        runs_dir: &inner.opt.runs_dir,
        durability: inner.opt.durability,
        run_id: &run_id,
        tracer: Some(tracer),
    };
    let started = Instant::now();
    match run_job(&ctx, &job.req) {
        JobOutcome::Final {
            verified,
            digest,
            verdict,
            restarts,
        } => {
            inner.breaker.record_success(job.fp);
            if inner.opt.cache_enabled {
                let entry = CacheEntry {
                    fingerprint: fingerprint_hex(job.fp),
                    digest: digest.clone(),
                    verified,
                    verdict,
                    run_id: run_id.clone(),
                    elapsed_secs: started.elapsed().as_secs_f64(),
                };
                if inner.cache.publish(job.fp, &entry, None).is_err() {
                    // The cache is advisory; a failed publish only costs a
                    // future recompute.
                    tracer.counter("cache_publish_errors", 1);
                }
            }
            inner.registry.finish(
                job.id,
                JobState::Completed {
                    verified,
                    digest,
                    restarts,
                    cached: false,
                },
            );
            tracer.counter("jobs_completed", 1);
        }
        JobOutcome::Exhausted {
            attempts,
            stderr_tail,
        } => {
            if inner.breaker.record_failure(job.fp) {
                tracer.counter("jobs_quarantined", 1);
            }
            inner.registry.finish(
                job.id,
                JobState::Failed {
                    reason: format!("worker restart budget exhausted after {attempts} attempts"),
                    stderr_tail,
                },
            );
            tracer.counter("jobs_failed", 1);
        }
        JobOutcome::Error {
            reason,
            stderr_tail,
        } => {
            inner.registry.finish(
                job.id,
                JobState::Failed {
                    reason,
                    stderr_tail,
                },
            );
            tracer.counter("jobs_failed", 1);
        }
    }
    after_terminal(inner);
}

/// Housekeeping after any job reaches a terminal state: refresh gauges and
/// apply retention GC with in-flight runs protected.
fn after_terminal(inner: &Arc<Inner>) {
    inner.refresh_gauges();
    if inner.opt.gc.is_active() {
        let protected: HashSet<String> = inner.registry.protected_run_ids().into_iter().collect();
        let _ = gc_runs(&inner.opt.runs_dir, &inner.opt.gc, &protected, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cppll-serve-server").join(test);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn toy_job_body() -> &'static str {
        r#"{"kind":"verify","spec":{
          "states": 1,
          "modes": [{"name": "only", "flow": ["-1 x0"]}],
          "boundary": ["2 - 1 x0", "2 + 1 x0"],
          "initial_radii": [1.0]
        }}"#
    }

    fn wait_terminal(addr: &str, id: u64) -> String {
        for _ in 0..600 {
            let (status, body) = client_request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
            assert_eq!(status, 200, "{body}");
            if body.contains("\"state\":\"completed\"") || body.contains("\"state\":\"failed\"") {
                return body;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("job {id} never reached a terminal state");
    }

    fn extract_id(body: &str) -> u64 {
        let idx = body.find("\"id\":").expect("id field") + 5;
        body[idx..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    }

    #[test]
    fn submit_complete_cache_hit_and_drain() {
        let dir = scratch("lifecycle");
        let server = Server::start(ServeOptions {
            runs_dir: dir.clone(),
            workers: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        // Health first.
        let (status, health) = client_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(health.contains("\"status\":\"ok\""), "{health}");

        // Submit and wait.
        let (status, body) = client_request(&addr, "POST", "/jobs", Some(toy_job_body())).unwrap();
        assert_eq!(status, 202, "{body}");
        let id = extract_id(&body);
        let done = wait_terminal(&addr, id);
        assert!(done.contains("\"state\":\"completed\""), "{done}");
        assert!(done.contains("\"verified\":true"), "{done}");
        assert!(done.contains("\"cached\":false"), "{done}");

        // The identical spec is now a synchronous cache hit (200, not 202).
        let (status, hit) = client_request(&addr, "POST", "/jobs", Some(toy_job_body())).unwrap();
        assert_eq!(status, 200, "{hit}");
        assert!(hit.contains("\"cached\":true"), "{hit}");
        let digest = |b: &str| {
            let i = b.find("\"digest\":\"").unwrap() + 10;
            b[i..i + 16].to_string()
        };
        assert_eq!(
            digest(&done),
            digest(&hit),
            "cache must preserve the digest"
        );

        // Metrics reflect both paths.
        let (_, metrics) = client_request(&addr, "GET", "/metrics", None).unwrap();
        assert!(metrics.contains("cppll_jobs_accepted_total 2"), "{metrics}");
        assert!(metrics.contains("cppll_cache_hits_total 1"), "{metrics}");
        assert!(metrics.contains("cppll_queue_depth"), "{metrics}");

        // Drain: no new work, clean exit.
        let (status, _) = client_request(&addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        // The acceptor may already be gone; a refused connection counts as
        // drained too.
        let status = client_request(&addr, "POST", "/jobs", Some(toy_job_body()))
            .map(|(s, _)| s)
            .unwrap_or(503);
        assert_eq!(status, 503);
        server.join();
    }

    #[test]
    fn full_queue_rejects_with_retry_after_and_loses_nothing() {
        let dir = scratch("backpressure");
        // No workers: the queue fills and stays full.
        let server = Server::start(ServeOptions {
            runs_dir: dir,
            workers: 0,
            queue_capacity: 2,
            cache_enabled: false,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..5 {
            let (status, _) = client_request(&addr, "POST", "/jobs", Some(toy_job_body())).unwrap();
            match status {
                202 => accepted += 1,
                429 => rejected += 1,
                other => panic!("unexpected status {other}"),
            }
        }
        assert_eq!(accepted, 2, "exactly the queue capacity is admitted");
        assert_eq!(rejected, 3);

        // Every accepted job is visible; none were lost.
        let (_, jobs) = client_request(&addr, "GET", "/jobs", None).unwrap();
        assert!(jobs.contains("\"inflight\":2"), "{jobs}");

        let (_, metrics) = client_request(&addr, "GET", "/metrics", None).unwrap();
        assert!(metrics.contains("cppll_jobs_accepted_total 2"), "{metrics}");
        assert!(metrics.contains("cppll_jobs_rejected_total 3"), "{metrics}");

        server.shutdown();
        server.join();
    }

    #[test]
    fn quarantined_fingerprints_are_refused_up_front() {
        let dir = scratch("quarantine");
        let server = Server::start(ServeOptions {
            runs_dir: dir,
            workers: 0,
            breaker_threshold: 1,
            cache_enabled: false,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        let fp = JobRequest::from_json_str(toy_job_body())
            .unwrap()
            .fingerprint()
            .unwrap();
        server.breaker().record_failure(fp);
        let (status, body) = client_request(&addr, "POST", "/jobs", Some(toy_job_body())).unwrap();
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("quarantined"), "{body}");

        server.shutdown();
        server.join();
    }

    #[test]
    fn unknown_paths_and_bad_bodies_get_clean_errors() {
        let dir = scratch("errors");
        let server = Server::start(ServeOptions {
            runs_dir: dir,
            workers: 0,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        let (status, _) = client_request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(&addr, "POST", "/jobs", Some("not json")).unwrap();
        assert_eq!(status, 400);
        let (status, _) = client_request(&addr, "GET", "/jobs/999", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(&addr, "DELETE", "/jobs", None).unwrap();
        assert_eq!(status, 405);

        server.shutdown();
        server.join();
    }
}
