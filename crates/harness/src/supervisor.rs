//! The supervision loop: spawn a worker, watch it, kill it when it
//! misbehaves, restart it with resume arguments until it finishes.
//!
//! Exit-code vocabulary (shared with the CLI): `0` verified, `1` usage or
//! input error, `2` not-verified — all three are *final* verdicts and end
//! supervision. Any other exit code, and any signal death (including our
//! own kills), is an abnormal exit answered by a restart with
//! [`WorkerSpec::resume_args`], up to [`HarnessOptions::max_restarts`].
//! The checkpoint journal makes those restarts cheap and bit-exact.

use std::collections::VecDeque;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use cppll_trace::Tracer;

use crate::protocol::{parse_line, WorkerLine};

/// Lines of worker stderr retained per attempt. A panicking worker prints
/// its message and backtrace head well within this; a worker spewing
/// megabytes of diagnostics is bounded to the newest tail.
const STDERR_TAIL_LINES: usize = 64;

/// Longest stderr line retained verbatim; longer lines are truncated with a
/// marker so one pathological line cannot blow the bounded buffer's memory.
const STDERR_LINE_CAP: usize = 2048;

/// How to launch (and relaunch) a worker process.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Worker executable.
    pub program: PathBuf,
    /// Arguments for the first attempt.
    pub initial_args: Vec<String>,
    /// Arguments for every restart — typically the initial arguments with
    /// `--run-id` swapped for `--resume` and one-shot injection flags
    /// stripped (an injected fault simulates a one-time environmental
    /// failure; replaying it forever would turn chaos into livelock).
    pub resume_args: Vec<String>,
    /// Extra environment variables for the worker.
    pub envs: Vec<(String, String)>,
}

impl WorkerSpec {
    /// A worker that journals under `run_id`: the first attempt starts the
    /// run with `base_args --run-id <id>`, every restart resumes it with
    /// `base_args --resume <id>`.
    pub fn journaled(program: PathBuf, base_args: Vec<String>, run_id: &str) -> Self {
        let with = |flag: &str| {
            let mut args = base_args.clone();
            args.extend([flag.to_string(), run_id.to_string()]);
            args
        };
        WorkerSpec {
            program,
            initial_args: with("--run-id"),
            resume_args: with("--resume"),
            envs: Vec::new(),
        }
    }
}

/// Parent-side chaos schedule: murder the worker at deterministic points
/// and optionally vandalise its journal tail, to prove kill-and-resume
/// converges from anywhere.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Kill the worker after this many heartbeats of its current attempt.
    pub kill_after_heartbeats: u64,
    /// Multiply the kill threshold by this after every chaos kill. A
    /// factor ≥ 2 guarantees eventual completion: the worker is always
    /// granted more time than any previous attempt survived.
    pub growth: u64,
    /// After each chaos kill, chop this many bytes off the end of the file
    /// (the worker's journal) — simulating a torn final append that the
    /// journal's self-healing resume must recover.
    pub corrupt_tail: Option<(PathBuf, u64)>,
}

/// Supervision parameters.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Liveness watchdog: kill the worker when *no* stdout line (heartbeat
    /// or output) arrives within this window.
    pub watchdog: Duration,
    /// Progress stall: kill the worker when its progress file has not been
    /// modified within this window. Catches a hung solve whose heartbeat
    /// thread is still beating.
    pub stall_timeout: Option<Duration>,
    /// The file whose mtime is the worker's progress signal (its run
    /// journal). Required for `stall_timeout` to act.
    pub progress_file: Option<PathBuf>,
    /// Kill the worker when its self-reported RSS exceeds this (KiB).
    pub max_rss_kb: Option<u64>,
    /// Restarts allowed before giving up.
    pub max_restarts: usize,
    /// Deterministic kill schedule (chaos testing).
    pub chaos: Option<ChaosPlan>,
    /// Counter sink (`worker_killed`, `heartbeat_missed`, `worker_stalled`,
    /// `worker_restarted`).
    pub tracer: Option<Tracer>,
    /// Echo worker output lines to this process's stdout as they arrive.
    pub forward_output: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            watchdog: Duration::from_secs(30),
            stall_timeout: None,
            progress_file: None,
            max_rss_kb: None,
            max_restarts: 3,
            chaos: None,
            tracer: None,
            forward_output: false,
        }
    }
}

/// Why the supervisor killed a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillReason {
    /// No stdout line within the watchdog window.
    Watchdog,
    /// Progress file untouched within the stall window.
    Stall,
    /// Self-reported RSS above the ceiling.
    Rss,
    /// Scheduled chaos kill.
    Chaos,
}

impl KillReason {
    /// Human-readable label for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            KillReason::Watchdog => "watchdog",
            KillReason::Stall => "stall",
            KillReason::Rss => "rss",
            KillReason::Chaos => "chaos",
        }
    }
}

/// What supervision observed, returned when the worker reached a final
/// exit code.
#[derive(Debug, Clone, Default)]
pub struct HarnessReport {
    /// The worker's final exit code (0, 1, or 2).
    pub exit_code: i32,
    /// Restarts performed.
    pub restarts: usize,
    /// Every kill the supervisor performed, in order.
    pub kills: Vec<KillReason>,
    /// Heartbeats received across all attempts.
    pub heartbeats: u64,
    /// Output lines of the final (completed) attempt.
    pub output: Vec<String>,
    /// Bounded tail of worker stderr from the most recent attempt that
    /// wrote any — a dead worker's panic message survives here even when
    /// a later attempt succeeded silently.
    pub stderr_tail: Vec<String>,
}

/// Why supervision failed outright.
#[derive(Debug)]
pub enum HarnessError {
    /// The worker could not be spawned at all.
    Spawn {
        /// Executable involved.
        program: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The restart budget ran out without a final exit.
    GaveUp {
        /// Attempts performed (1 initial + restarts).
        attempts: usize,
        /// Kills performed along the way.
        kills: Vec<KillReason>,
        /// Bounded tail of the last attempt's stderr — the worker's dying
        /// words, captured so they are never lost to interleaved output.
        stderr_tail: Vec<String>,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Spawn { program, source } => {
                write!(f, "failed to spawn worker {}: {source}", program.display())
            }
            HarnessError::GaveUp {
                attempts,
                kills,
                stderr_tail,
            } => {
                write!(
                    f,
                    "worker failed to finish after {attempts} attempts ({} kills)",
                    kills.len()
                )?;
                if let Some(last) = stderr_tail.last() {
                    write!(f, "; last stderr: {last}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// Age of the progress signal: time since the file's mtime or the attempt
/// start, whichever is more recent — a worker that has not yet touched the
/// journal it inherited must not be blamed for its predecessor's mtime.
fn progress_age(path: &Path, attempt_started: SystemTime) -> Option<Duration> {
    let mtime = std::fs::metadata(path).ok()?.modified().ok()?;
    let anchor = mtime.max(attempt_started);
    SystemTime::now().duration_since(anchor).ok()
}

/// Chops `chop` bytes off the file's tail, never cutting into the header
/// (first) line — simulated torn-append damage must stay recoverable.
fn corrupt_tail(path: &Path, chop: u64) {
    let Ok(bytes) = std::fs::read(path) else {
        return;
    };
    let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
        return;
    };
    let min_len = (header_end + 1) as u64;
    let len = bytes.len() as u64;
    let new_len = len.saturating_sub(chop).max(min_len);
    if new_len >= len {
        return;
    }
    if let Ok(f) = std::fs::OpenOptions::new().write(true).open(path) {
        let _ = f.set_len(new_len);
    }
}

/// Pushes a (length-capped) stderr line into a bounded ring buffer.
fn push_stderr_line(ring: &Mutex<VecDeque<String>>, mut line: String) {
    if line.len() > STDERR_LINE_CAP {
        let mut cut = STDERR_LINE_CAP;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line.truncate(cut);
        line.push_str(" …[truncated]");
    }
    let mut ring = ring.lock().unwrap();
    if ring.len() == STDERR_TAIL_LINES {
        ring.pop_front();
    }
    ring.push_back(line);
}

/// One-time process-wide latch for the "RSS ceiling unenforceable" warning.
static RSS_WARNING_EMITTED: AtomicBool = AtomicBool::new(false);

/// Runs a worker under supervision until it exits with a final code.
///
/// # Errors
///
/// [`HarnessError::Spawn`] when the worker cannot start at all,
/// [`HarnessError::GaveUp`] when the restart budget runs out.
pub fn run_supervised(
    spec: &WorkerSpec,
    opt: &HarnessOptions,
) -> Result<HarnessReport, HarnessError> {
    let mut report = HarnessReport::default();
    if opt.max_rss_kb.is_some()
        && !crate::rss::rss_self_report_supported()
        && !RSS_WARNING_EMITTED.swap(true, Ordering::Relaxed)
    {
        // The ceiling compares against the worker's *self-reported* RSS,
        // which comes from /proc and is Linux-only: elsewhere the heartbeat
        // reports 0 KiB and the limit can never fire. Say so once instead
        // of silently not enforcing.
        eprintln!(
            "harness: warning: an RSS ceiling is configured but RSS \
             self-reporting is unsupported on this platform (Linux-only); \
             the ceiling will not be enforced"
        );
        if let Some(t) = &opt.tracer {
            t.counter("rss_unenforceable", 1);
        }
    }
    let mut chaos_threshold = opt.chaos.as_ref().map(|c| c.kill_after_heartbeats.max(1));
    let counter = |name: &'static str| {
        if let Some(t) = &opt.tracer {
            t.counter(name, 1);
        }
    };

    for attempt in 0..=opt.max_restarts {
        let args = if attempt == 0 {
            &spec.initial_args
        } else {
            &spec.resume_args
        };
        let mut cmd = Command::new(&spec.program);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in &spec.envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().map_err(|e| HarnessError::Spawn {
            program: spec.program.clone(),
            source: e,
        })?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");

        // Stderr reader: drain into a bounded ring so a dead worker's panic
        // message is preserved without ever inheriting the terminal (which
        // interleaves) or buffering unboundedly. Not joined: the ring is
        // shared, and a killed worker's grandchildren may hold the pipe.
        let stderr_ring = Arc::new(Mutex::new(VecDeque::with_capacity(STDERR_TAIL_LINES)));
        {
            let ring = Arc::clone(&stderr_ring);
            let forward = opt.forward_output;
            std::thread::spawn(move || {
                for line in std::io::BufReader::new(stderr).lines() {
                    let Ok(l) = line else { break };
                    if forward {
                        eprintln!("{l}");
                    }
                    push_stderr_line(&ring, l);
                }
            });
        }

        // Reader thread: worker stdout → channel. The channel disconnect
        // (reader done, all lines drained) is the exit signal — a closed
        // stdout means the worker is gone or as good as.
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send(l).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });

        let attempt_started = SystemTime::now();
        let mut last_line = Instant::now();
        let mut attempt_heartbeats = 0u64;
        let mut attempt_output = Vec::new();
        let mut kill: Option<KillReason> = None;

        let status = loop {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(line) => {
                    last_line = Instant::now();
                    match parse_line(&line) {
                        WorkerLine::Heartbeat { rss_kb, .. } => {
                            attempt_heartbeats += 1;
                            report.heartbeats += 1;
                            if kill.is_none() {
                                if let Some(ceiling) = opt.max_rss_kb {
                                    if rss_kb > ceiling {
                                        kill = Some(KillReason::Rss);
                                    }
                                }
                            }
                            if kill.is_none() {
                                if let Some(threshold) = chaos_threshold {
                                    if attempt_heartbeats >= threshold {
                                        kill = Some(KillReason::Chaos);
                                    }
                                }
                            }
                        }
                        WorkerLine::Output(l) => {
                            if opt.forward_output {
                                println!("{l}");
                            }
                            attempt_output.push(l);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if kill.is_none() && last_line.elapsed() > opt.watchdog {
                        counter("heartbeat_missed");
                        kill = Some(KillReason::Watchdog);
                    }
                    if kill.is_none() {
                        if let (Some(stall), Some(pf)) = (opt.stall_timeout, &opt.progress_file) {
                            // A missing progress file counts from attempt
                            // start: a worker hung before creating its
                            // journal is still hung.
                            let age = progress_age(pf, attempt_started)
                                .or_else(|| SystemTime::now().duration_since(attempt_started).ok());
                            if age.is_some_and(|a| a > stall) {
                                counter("worker_stalled");
                                kill = Some(KillReason::Stall);
                            }
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break child.wait();
                }
            }
            if kill.is_some() {
                // SIGKILL and reap directly: waiting for stdout EOF here
                // could hang forever if the worker leaked the pipe to a
                // grandchild the kill does not reach.
                let _ = child.kill();
                let status = child.wait();
                while let Ok(line) = rx.try_recv() {
                    if let WorkerLine::Output(l) = parse_line(&line) {
                        if opt.forward_output {
                            println!("{l}");
                        }
                        attempt_output.push(l);
                    }
                }
                break status;
            }
        };
        if kill.is_none() {
            let _ = reader.join();
        }
        drop(rx);
        let status = status.map_err(|e| HarnessError::Spawn {
            program: spec.program.clone(),
            source: e,
        })?;

        // Keep the newest attempt's stderr tail; a silent later attempt
        // must not erase the dying words of the one that crashed.
        {
            let ring = stderr_ring.lock().unwrap();
            if !ring.is_empty() {
                report.stderr_tail = ring.iter().cloned().collect();
            }
        }

        if let Some(reason) = kill {
            counter("worker_killed");
            report.kills.push(reason);
            if reason == KillReason::Chaos {
                if let Some(chaos) = &opt.chaos {
                    if let Some((path, chop)) = &chaos.corrupt_tail {
                        corrupt_tail(path, *chop);
                    }
                    chaos_threshold =
                        chaos_threshold.map(|t| t.saturating_mul(chaos.growth.max(2)));
                }
            }
        }

        // Final verdicts end supervision; anything else is an abnormal
        // exit and restarts. (A kill that raced a clean exit is a clean
        // exit: the exit status wins.)
        if let Some(code @ 0..=2) = status.code() {
            report.exit_code = code;
            report.output = attempt_output;
            return Ok(report);
        }

        if attempt < opt.max_restarts {
            counter("worker_restarted");
            report.restarts += 1;
        }
    }

    Err(HarnessError::GaveUp {
        attempts: opt.max_restarts + 1,
        kills: report.kills,
        stderr_tail: report.stderr_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> (PathBuf, Vec<String>) {
        (
            PathBuf::from("/bin/sh"),
            vec!["-c".to_string(), script.to_string()],
        )
    }

    fn spec(initial: &str, resume: &str) -> WorkerSpec {
        let (program, initial_args) = sh(initial);
        let (_, resume_args) = sh(resume);
        WorkerSpec {
            program,
            initial_args,
            resume_args,
            envs: Vec::new(),
        }
    }

    fn fast_opts() -> HarnessOptions {
        HarnessOptions {
            watchdog: Duration::from_millis(400),
            max_restarts: 3,
            ..HarnessOptions::default()
        }
    }

    #[test]
    fn journaled_workers_start_then_resume_the_run() {
        let base = vec!["verify".to_string(), "toy.json".to_string()];
        let s = WorkerSpec::journaled(PathBuf::from("cppll"), base, "r1");
        assert_eq!(s.initial_args, ["verify", "toy.json", "--run-id", "r1"]);
        assert_eq!(s.resume_args, ["verify", "toy.json", "--resume", "r1"]);
    }

    #[test]
    fn clean_worker_finishes_first_try() {
        let s = spec("echo done; exit 0", "echo resumed; exit 0");
        let report = run_supervised(&s, &fast_opts()).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.output, vec!["done".to_string()]);
        assert!(report.kills.is_empty());
    }

    #[test]
    fn not_verified_exit_code_is_final_not_restarted() {
        let s = spec("exit 2", "echo should-not-run; exit 0");
        let report = run_supervised(&s, &fast_opts()).unwrap();
        assert_eq!(report.exit_code, 2);
        assert_eq!(report.restarts, 0);
    }

    #[test]
    fn crash_exit_code_restarts_with_resume_args() {
        let s = spec("echo first; exit 7", "echo resumed; exit 0");
        let report = run_supervised(&s, &fast_opts()).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.output, vec!["resumed".to_string()]);
    }

    #[test]
    fn silent_worker_is_killed_by_watchdog_and_replaced() {
        let rec = cppll_trace::TraceRecorder::new(cppll_trace::TraceLevel::Stage);
        let s = spec("sleep 30", "echo resumed; exit 0");
        let mut opt = fast_opts();
        opt.tracer = Some(rec.tracer());
        let started = Instant::now();
        let report = run_supervised(&s, &opt).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.kills, vec![KillReason::Watchdog]);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "watchdog must fire within its window, not wait for the sleep"
        );
        assert_eq!(rec.counter_total("heartbeat_missed"), 1);
        assert_eq!(rec.counter_total("worker_killed"), 1);
        assert_eq!(rec.counter_total("worker_restarted"), 1);
    }

    #[test]
    fn heartbeats_keep_a_busy_worker_alive_but_stalled_progress_kills_it() {
        // The worker heartbeats forever (liveness OK) but never touches
        // its progress file (no progress): only the stall detector can
        // catch this — exactly the hung-solve scenario.
        let dir = std::env::temp_dir().join("cppll-harness-tests/stall");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let progress = dir.join("journal.jsonl");
        std::fs::write(&progress, "header\n").unwrap();

        let rec = cppll_trace::TraceRecorder::new(cppll_trace::TraceLevel::Stage);
        let s = spec(
            "while true; do printf '@cppll-hb seq=0 rss_kb=1\\n'; sleep 0.05; done",
            "echo resumed; exit 0",
        );
        let mut opt = fast_opts();
        opt.watchdog = Duration::from_secs(30);
        opt.stall_timeout = Some(Duration::from_millis(300));
        opt.progress_file = Some(progress);
        opt.tracer = Some(rec.tracer());
        let report = run_supervised(&s, &opt).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.kills, vec![KillReason::Stall]);
        assert!(
            report.heartbeats > 0,
            "heartbeats were flowing the whole time"
        );
        assert_eq!(rec.counter_total("worker_stalled"), 1);
    }

    #[test]
    fn rss_ceiling_kills_a_bloated_worker() {
        let s = spec(
            "printf '@cppll-hb seq=0 rss_kb=999999999\\n'; sleep 30",
            "echo resumed; exit 0",
        );
        let mut opt = fast_opts();
        opt.max_rss_kb = Some(1024);
        let report = run_supervised(&s, &opt).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.kills, vec![KillReason::Rss]);
    }

    #[test]
    fn chaos_kill_fires_after_the_scheduled_heartbeat_count() {
        let s = spec(
            "while true; do printf '@cppll-hb seq=0 rss_kb=1\\n'; sleep 0.02; done",
            "echo resumed; exit 0",
        );
        let mut opt = fast_opts();
        opt.chaos = Some(ChaosPlan {
            kill_after_heartbeats: 3,
            growth: 2,
            corrupt_tail: None,
        });
        let report = run_supervised(&s, &opt).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.kills, vec![KillReason::Chaos]);
    }

    #[test]
    fn restart_budget_exhaustion_gives_up() {
        let s = spec("exit 9", "exit 9");
        let mut opt = fast_opts();
        opt.max_restarts = 2;
        match run_supervised(&s, &opt) {
            Err(HarnessError::GaveUp { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected GaveUp, got {other:?}"),
        }
    }

    #[test]
    fn crashed_workers_stderr_survives_a_silent_successful_resume() {
        let s = spec("echo boom >&2; exit 7", "exit 0");
        let report = run_supervised(&s, &fast_opts()).unwrap();
        assert_eq!(report.exit_code, 0);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.stderr_tail, vec!["boom".to_string()]);
    }

    #[test]
    fn gave_up_error_carries_the_last_stderr_tail() {
        let s = spec(
            "echo first-death >&2; exit 9",
            "echo later-death >&2; exit 9",
        );
        let mut opt = fast_opts();
        opt.max_restarts = 2;
        match run_supervised(&s, &opt) {
            Err(HarnessError::GaveUp {
                attempts,
                stderr_tail,
                ..
            }) => {
                assert_eq!(attempts, 3);
                assert_eq!(stderr_tail, vec!["later-death".to_string()]);
                let display = run_supervised(&s, &opt).unwrap_err().to_string();
                assert!(display.contains("later-death"), "{display}");
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
    }

    #[test]
    fn stderr_tail_is_bounded_to_the_newest_lines() {
        let s = spec("seq 1 500 >&2; exit 0", "exit 0");
        let report = run_supervised(&s, &fast_opts()).unwrap();
        assert_eq!(report.stderr_tail.len(), STDERR_TAIL_LINES);
        assert_eq!(report.stderr_tail.last().unwrap(), "500");
        assert_eq!(
            report.stderr_tail.first().unwrap(),
            &(500 - STDERR_TAIL_LINES + 1).to_string()
        );
    }

    #[test]
    fn pathological_stderr_lines_are_truncated_not_buffered() {
        let ring = Mutex::new(VecDeque::new());
        push_stderr_line(&ring, "x".repeat(1_000_000));
        let got = ring.lock().unwrap().pop_front().unwrap();
        assert!(got.len() < STDERR_LINE_CAP + 32);
        assert!(got.ends_with("…[truncated]"));
    }

    #[test]
    fn corrupt_tail_never_cuts_into_the_header() {
        let dir = std::env::temp_dir().join("cppll-harness-tests/corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::write(&path, "header-line\nrecord-line\n").unwrap();
        corrupt_tail(&path, 1_000_000);
        let left = std::fs::read_to_string(&path).unwrap();
        assert_eq!(left, "header-line\n");
        // Chopping nothing leaves the file alone.
        corrupt_tail(&path, 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "header-line\n");
    }
}
