//! End-to-end tests of the `cppll serve` daemon through the real binary:
//! submission, certificate-cache hits, backpressure, quarantine, graceful
//! SIGTERM drain, and the chaos acceptance run — a third-order PLL job
//! whose worker is SIGKILLed mid-solve on a deterministic schedule and
//! must still land the pinned paper digest after resume.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cppll_serve::client_request;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cppll")
}

/// A fresh scratch directory for one test, wiped before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppll-serve-cli").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the built-in example spec (from `cppll schema`) into `dir`.
fn toy_spec(dir: &Path) -> PathBuf {
    let out = Command::new(bin()).arg("schema").output().unwrap();
    assert!(out.status.success());
    let path = dir.join("toy.json");
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A daemon child process bound to an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
    log: Arc<Mutex<String>>,
}

impl Daemon {
    /// Starts `cppll serve --addr 127.0.0.1:0 --runs-dir <dir>/runs` plus
    /// `extra` flags and waits for the announced address.
    fn start(dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(bin())
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--runs-dir")
            .arg(dir.join("runs"))
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            if let Some(a) = line.trim().strip_prefix("serve: listening on ") {
                addr = Some(a.to_string());
                break;
            }
            line.clear();
        }
        let addr = addr.expect("daemon never announced its address");
        let log = Arc::new(Mutex::new(String::new()));
        {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut rest = String::new();
                let _ = reader.read_to_string(&mut rest);
                log.lock().unwrap().push_str(&rest);
            });
        }
        Daemon { child, addr, log }
    }

    /// SIGTERMs the daemon and asserts a clean (exit 0) drain.
    fn terminate_cleanly(mut self) -> String {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .unwrap();
        assert!(ok.success(), "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.child.try_wait().unwrap() {
                Some(status) => {
                    assert!(status.success(), "daemon must drain and exit 0: {status:?}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not drain within the deadline");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        std::thread::sleep(Duration::from_millis(100));
        self.log.lock().unwrap().clone()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

/// One raw HTTP exchange, returning the full response text (status line,
/// headers, body) — for assertions on headers like `Retry-After`.
fn raw_request(addr: &str, method: &str, path: &str, body: Option<&str>) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some(b) = body {
        req.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    req.push_str("\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    s.write_all(req.as_bytes()).unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    text
}

#[test]
fn submit_completes_and_identical_spec_hits_the_cache() {
    let dir = scratch("cache-hit");
    let spec = toy_spec(&dir);
    let spec = spec.to_str().unwrap();
    let daemon = Daemon::start(&dir, &["--workers", "1"]);

    let first = run(&["submit", spec, "--server", &daemon.addr, "--wait"]);
    let text = stdout(&first);
    assert!(first.status.success(), "{text}");
    assert!(text.contains("\"state\":\"completed\""), "{text}");
    assert!(text.contains("\"verified\":true"), "{text}");
    assert!(text.contains("\"cached\":false"), "{text}");
    let digest_of = |t: &str| {
        let i = t.find("\"digest\":\"").unwrap() + 10;
        t[i..i + 16].to_string()
    };
    let want = digest_of(&text);

    // Identical spec: answered from the certificate cache, fast, same
    // digest, no second worker run.
    let started = Instant::now();
    let second = run(&["submit", spec, "--server", &daemon.addr]);
    let hit = stdout(&second);
    assert!(second.status.success(), "{hit}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "cache hits are fast"
    );
    assert!(hit.contains("\"cached\":true"), "{hit}");
    assert_eq!(digest_of(&hit), want, "{hit}");

    let (_, metrics) = client_request(&daemon.addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("cppll_jobs_accepted_total 2"), "{metrics}");
    assert!(metrics.contains("cppll_cache_hits_total 1"), "{metrics}");

    let log = daemon.terminate_cleanly();
    assert!(log.contains("drained cleanly"), "{log}");
}

#[test]
fn saturated_queue_answers_429_with_retry_after() {
    let dir = scratch("backpressure");
    let spec = toy_spec(&dir);
    let spec_text = std::fs::read_to_string(&spec).unwrap();
    let body = format!(r#"{{"kind":"verify","spec":{spec_text}}}"#);
    // No workers and a 2-slot queue: the third submission must shed load.
    let daemon = Daemon::start(
        &dir,
        &[
            "--workers",
            "0",
            "--queue-cap",
            "2",
            "--no-cache",
            "--retry-after",
            "7",
        ],
    );

    let mut accepted = 0;
    let mut rejected = 0;
    for _ in 0..5 {
        let resp = raw_request(&daemon.addr, "POST", "/jobs", Some(&body));
        if resp.starts_with("HTTP/1.1 202") {
            accepted += 1;
        } else {
            assert!(resp.starts_with("HTTP/1.1 429"), "{resp}");
            assert!(resp.contains("Retry-After: 7\r\n"), "{resp}");
            rejected += 1;
        }
    }
    assert_eq!(accepted, 2, "exactly the queue capacity is admitted");
    assert_eq!(rejected, 3);

    // Nothing was lost: every accepted job is tracked.
    let (_, jobs) = client_request(&daemon.addr, "GET", "/jobs", None).unwrap();
    assert!(jobs.contains("\"inflight\":2"), "{jobs}");
    let (_, metrics) = client_request(&daemon.addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("cppll_jobs_accepted_total 2"), "{metrics}");
    assert!(metrics.contains("cppll_jobs_rejected_total 3"), "{metrics}");
}

#[test]
fn repeatedly_dying_spec_is_quarantined_and_drain_survives_it() {
    let dir = scratch("quarantine");
    // 1ms heartbeats, kill after the first one, no restart budget: the
    // worker is murdered long before the third-order PLL solve (several
    // seconds) finishes, and one exhaustion trips the threshold-1 breaker.
    let daemon = Daemon::start(
        &dir,
        &[
            "--workers",
            "1",
            "--heartbeat",
            "1",
            "--breaker-threshold",
            "1",
        ],
    );

    let failed = run(&[
        "submit",
        "pll",
        "3",
        "4",
        "--server",
        &daemon.addr,
        "--wait",
        "--chaos-kill-after",
        "1",
        "--max-restarts",
        "0",
    ]);
    let text = stdout(&failed);
    assert!(!failed.status.success(), "{text}");
    assert!(text.contains("\"state\":\"failed\""), "{text}");
    assert!(text.contains("restart budget exhausted"), "{text}");

    // The fingerprint is now quarantined: same spec is refused up front.
    let refused = run(&["submit", "pll", "3", "4", "--server", &daemon.addr]);
    let text = stdout(&refused);
    assert!(!refused.status.success(), "{text}");
    assert!(text.contains("quarantined"), "{text}");

    let (_, metrics) = client_request(&daemon.addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics.contains("cppll_jobs_quarantined_total 1"),
        "{metrics}"
    );

    let log = daemon.terminate_cleanly();
    assert!(log.contains("drained cleanly"), "{log}");
}

#[test]
fn sigterm_drains_queued_jobs_before_exiting() {
    let dir = scratch("drain");
    let spec = toy_spec(&dir);
    let spec_text = std::fs::read_to_string(&spec).unwrap();
    let body = format!(r#"{{"kind":"verify","spec":{spec_text}}}"#);
    let daemon = Daemon::start(&dir, &["--workers", "1", "--no-cache"]);

    for _ in 0..3 {
        let resp = raw_request(&daemon.addr, "POST", "/jobs", Some(&body));
        assert!(resp.starts_with("HTTP/1.1 202"), "{resp}");
    }
    // SIGTERM with jobs still queued: the daemon must finish them, not
    // abandon them, and still exit 0.
    let log = daemon.terminate_cleanly();
    assert!(log.contains("drained cleanly"), "{log}");
    // All three runs journaled to completion on disk.
    let runs = dir.join("runs");
    for id in 1..=3 {
        assert!(
            runs.join(format!("job-{id}/journal.jsonl")).exists(),
            "job-{id} must have journaled before exit"
        );
    }
}

/// The issue's service acceptance criterion: a third-order CP PLL job whose
/// worker is SIGKILLed mid-solve on a deterministic chaos schedule (kill
/// after 4 heartbeats, doubling, journal tail chopped after each kill)
/// must resume from the journal and land the pinned paper digest, with
/// the resume visible in `/metrics`.
#[test]
fn pll_job_killed_mid_solve_resumes_to_the_pinned_digest() {
    let dir = scratch("pll-chaos");
    let daemon = Daemon::start(&dir, &["--workers", "1", "--heartbeat", "250"]);

    let out = run(&[
        "submit",
        "pll",
        "3",
        "4",
        "--server",
        &daemon.addr,
        "--wait",
        "--chaos-kill-after",
        "4",
        "--chaos-corrupt-tail",
        "20",
        "--max-restarts",
        "12",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("\"state\":\"completed\""), "{text}");
    assert!(text.contains("\"verified\":true"), "{text}");
    // Support-reduced compile digest; the unreduced 6215e8021be1aef1 digest
    // is pinned on the `--no-reduce` run of the CI `reduction-smoke` job.
    assert!(
        text.contains("\"digest\":\"33fe4216157e7520\""),
        "the pinned third-order PLL digest must survive the kill loop: {text}"
    );

    // The kill schedule guarantees at least one murder + resume.
    let restarts: u64 = text
        .split("\"restarts\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    assert!(
        restarts >= 1,
        "chaos must have killed the worker at least once: {text}"
    );

    let (_, metrics) = client_request(&daemon.addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("cppll_jobs_resumed_total"), "{metrics}");
    assert!(metrics.contains("cppll_worker_restarts_total"), "{metrics}");

    let log = daemon.terminate_cleanly();
    assert!(log.contains("drained cleanly"), "{log}");
}

#[test]
fn runs_gc_applies_retention_and_respects_dry_run() {
    let dir = scratch("runs-gc");
    let runs = dir.join("runs");
    for name in ["job-1", "job-2", "job-3"] {
        std::fs::create_dir_all(runs.join(name)).unwrap();
        std::fs::write(runs.join(name).join("journal.jsonl"), "x\n").unwrap();
    }
    let dry = run(&[
        "runs",
        "gc",
        "--runs-dir",
        runs.to_str().unwrap(),
        "--gc-keep",
        "1",
        "--dry-run",
    ]);
    let text = stdout(&dry);
    assert!(dry.status.success(), "{text}");
    assert!(text.contains("(dry run)"), "{text}");
    assert!(text.contains("removed 2"), "{text}");
    assert!(runs.join("job-1").exists() && runs.join("job-3").exists());

    let real = run(&[
        "runs",
        "gc",
        "--runs-dir",
        runs.to_str().unwrap(),
        "--gc-keep",
        "1",
    ]);
    assert!(real.status.success());
    let survivors = std::fs::read_dir(&runs).unwrap().count();
    assert_eq!(survivors, 1, "keep-1 leaves exactly one run directory");

    // Without a policy the command refuses rather than silently no-ops.
    let none = run(&["runs", "gc", "--runs-dir", runs.to_str().unwrap()]);
    assert!(!none.status.success());
}
