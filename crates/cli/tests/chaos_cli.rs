//! End-to-end chaos tests of the `cppll` binary's `--isolate` supervisor:
//! a worker process that is murdered, stalled, or crash-injected at
//! deterministic points must still converge to the same result digest as an
//! unharmed run, courtesy of the self-healing run journal.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cppll")
}

/// A fresh scratch directory for one test, wiped before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppll-chaos-cli").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the built-in example spec (from `cppll schema`) into `dir`.
fn toy_spec(dir: &std::path::Path) -> PathBuf {
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

/// Extracts the `result digest: <hex16>` line.
fn digest(text: &str) -> String {
    text.lines()
        .find_map(|l| l.strip_prefix("result digest: "))
        .unwrap_or_else(|| panic!("no result digest in output:\n{text}"))
        .to_string()
}

/// Extracts the `harness: ...` summary line.
fn harness_line(text: &str) -> String {
    text.lines()
        .find(|l| l.starts_with("harness: "))
        .unwrap_or_else(|| panic!("no harness summary in output:\n{text}"))
        .to_string()
}

#[test]
fn isolated_clean_run_matches_the_unsupervised_digest() {
    let dir = scratch("clean");
    let spec = toy_spec(&dir);
    let spec = spec.to_str().unwrap();

    let plain = run(&["verify", spec]);
    assert!(plain.status.success());
    let want = digest(&stdout(&plain));

    let runs = dir.join("runs");
    let isolated = run(&[
        "verify",
        spec,
        "--isolate",
        "--run-id",
        "clean",
        "--runs-dir",
        runs.to_str().unwrap(),
        "--heartbeat",
        "50",
    ]);
    let text = stdout(&isolated);
    assert!(isolated.status.success(), "{text}");
    assert_eq!(digest(&text), want);
    assert!(harness_line(&text).contains("worker exit 0"), "{text}");
}

#[test]
fn chaos_kill_loop_converges_to_the_unharmed_digest() {
    let dir = scratch("killloop");
    let spec = toy_spec(&dir);
    let spec = spec.to_str().unwrap();

    let plain = run(&["verify", spec]);
    let want = digest(&stdout(&plain));

    // Chaos kills from the very first heartbeat (threshold doubles after
    // every murder), the journal tail is vandalised after each kill, and an
    // injected exit(3) guarantees at least one abnormal exit even if the
    // tiny toy run outraces the first kill. The run must still converge.
    let runs = dir.join("runs");
    let out = run(&[
        "verify",
        spec,
        "--isolate",
        "--run-id",
        "chaos",
        "--runs-dir",
        runs.to_str().unwrap(),
        "--heartbeat",
        "25",
        "--chaos-kill-after",
        "1",
        "--chaos-corrupt-tail",
        "9",
        "--inject-crash",
        "advection:0",
        "--max-restarts",
        "15",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert_eq!(digest(&text), want, "{text}");
    let summary = harness_line(&text);
    assert!(summary.contains("worker exit 0"), "{summary}");
    let restarts: usize = summary
        .split("after ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(
        restarts >= 1,
        "the injected crash forces a restart: {summary}"
    );
}

#[test]
fn stalled_worker_is_killed_within_the_stall_timeout_and_replaced() {
    let dir = scratch("stall");
    let spec = toy_spec(&dir);
    let spec = spec.to_str().unwrap();

    let plain = run(&["verify", spec]);
    let want = digest(&stdout(&plain));

    // The worker hangs forever at its first Lyapunov solve while its
    // heartbeat thread keeps beating: only the journal-mtime stall detector
    // can catch it. The restart strips the injection and completes.
    let runs = dir.join("runs");
    let started = std::time::Instant::now();
    let out = run(&[
        "verify",
        spec,
        "--isolate",
        "--run-id",
        "stall",
        "--runs-dir",
        runs.to_str().unwrap(),
        "--heartbeat",
        "50",
        "--watchdog",
        "60",
        "--stall-timeout",
        "1",
        "--inject-stall",
        "lyapunov:0",
    ]);
    let elapsed = started.elapsed();
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "a hung worker must be detected within the stall window, took {elapsed:?}"
    );
    assert_eq!(digest(&text), want);
    let summary = harness_line(&text);
    assert!(summary.contains("stall"), "{summary}");
    assert!(summary.contains("worker exit 0"), "{summary}");
}

#[test]
fn validate_flag_reports_the_monte_carlo_block() {
    let dir = scratch("validate");
    let spec = toy_spec(&dir);
    let out = run(&["verify", spec.to_str().unwrap(), "--validate", "25"]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("validation (25 trials"), "{text}");
    assert!(text.contains("all certified claims held"), "{text}");
}

/// The issue's acceptance criterion: the third-order CP PLL verification,
/// murdered on a deterministic schedule with its journal tail vandalised
/// after every kill, still completes with the pinned paper digest.
#[test]
fn third_order_pll_kill_loop_completes_with_the_pinned_digest() {
    let runs = scratch("pll-killloop").join("runs");
    let out = run(&[
        "pll",
        "3",
        "4",
        "--isolate",
        "--run-id",
        "pll3",
        "--runs-dir",
        runs.to_str().unwrap(),
        "--heartbeat",
        "250",
        "--chaos-kill-after",
        "4",
        "--chaos-corrupt-tail",
        "20",
        "--max-restarts",
        "12",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    // The default run compiles with support-driven multiplier bases; the
    // unreduced digest 6215e8021be1aef1 is pinned on the `--no-reduce` run
    // of the CI `reduction-smoke` job.
    assert_eq!(
        digest(&text),
        "33fe4216157e7520",
        "the pinned third-order PLL digest must survive the kill loop: {text}"
    );
    assert!(harness_line(&text).contains("worker exit 0"), "{text}");
}
