//! End-to-end determinism acceptance tests for `cppll sweep`: the canonical
//! atlas artefact must be byte-identical across worker-thread counts, and
//! across a mid-sweep crash followed by `--resume` through the run journal.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cppll")
}

/// A fresh scratch directory for one test, wiped before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppll-sweep-cli").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the built-in example sweep (from `cppll schema sweep`) into `dir`.
fn toy_sweep(dir: &std::path::Path) -> PathBuf {
    let out = Command::new(bin())
        .args(["schema", "sweep"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let path = dir.join("sweep.json");
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Extracts the `atlas digest: <hex16>` line.
fn digest(text: &str) -> String {
    text.lines()
        .find_map(|l| l.strip_prefix("atlas digest: "))
        .unwrap_or_else(|| panic!("no atlas digest in output:\n{text}"))
        .to_string()
}

#[test]
fn atlas_is_byte_identical_across_thread_counts() {
    let dir = scratch("threads");
    let spec = toy_sweep(&dir);
    let spec = spec.to_str().unwrap();

    let mut canonical: Option<Vec<u8>> = None;
    let mut want_digest: Option<String> = None;
    for threads in ["1", "2", "4", "8"] {
        let out_dir = dir.join(format!("atlas-t{threads}"));
        let out = run(&[
            "sweep",
            spec,
            "--threads",
            threads,
            "--out",
            out_dir.to_str().unwrap(),
        ]);
        let text = stdout(&out);
        assert!(out.status.success(), "threads={threads}:\n{text}");
        let d = digest(&text);
        let bytes = std::fs::read(out_dir.join("atlas.canonical.json")).unwrap();
        match (&canonical, &want_digest) {
            (None, _) => {
                canonical = Some(bytes);
                want_digest = Some(d);
            }
            (Some(want), Some(wd)) => {
                assert_eq!(&d, wd, "digest diverged at threads={threads}");
                assert!(
                    bytes == *want,
                    "canonical atlas bytes diverged at threads={threads}"
                );
            }
            _ => unreachable!(),
        }
        // The full artefact set is written alongside the canonical file.
        assert!(out_dir.join("atlas.json").is_file());
        assert!(out_dir.join("contour.json").is_file());
    }
}

#[test]
fn atlas_survives_a_mid_sweep_kill_and_resume() {
    let dir = scratch("killresume");
    let spec = toy_sweep(&dir);
    let spec = spec.to_str().unwrap();
    let runs = dir.join("runs");
    let runs = runs.to_str().unwrap();

    // Reference: one uninterrupted run.
    let ref_dir = dir.join("atlas-ref");
    let reference = run(&[
        "sweep",
        spec,
        "--threads",
        "2",
        "--out",
        ref_dir.to_str().unwrap(),
    ]);
    let ref_text = stdout(&reference);
    assert!(reference.status.success(), "{ref_text}");
    let want = std::fs::read(ref_dir.join("atlas.canonical.json")).unwrap();

    // Crash after 5 freshly solved cells: the process dies mid-sweep with
    // journal records for exactly the cells it finished.
    let crashed = run(&[
        "sweep",
        spec,
        "--threads",
        "2",
        "--run-id",
        "kr",
        "--runs-dir",
        runs,
        "--sweep-crash-after",
        "5",
    ]);
    assert_eq!(
        crashed.status.code(),
        Some(3),
        "crash-injected sweep must die with exit 3:\n{}",
        stdout(&crashed)
    );
    let journal = PathBuf::from(runs).join("kr").join("journal.jsonl");
    assert!(journal.is_file(), "crash left no journal behind");

    // Resume: replays the journaled cells, solves the rest, and lands on
    // byte-identical canonical output.
    let out_dir = dir.join("atlas-resumed");
    let resumed = run(&[
        "sweep",
        spec,
        "--threads",
        "2",
        "--resume",
        "kr",
        "--runs-dir",
        runs,
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    let text = stdout(&resumed);
    assert!(resumed.status.success(), "{text}");
    assert_eq!(digest(&text), digest(&ref_text));
    let replay_line = text
        .lines()
        .find(|l| l.contains("cell(s) replayed"))
        .unwrap_or_else(|| panic!("no replay summary in output:\n{text}"));
    assert!(
        !replay_line.contains("journal: 0 cell(s) replayed"),
        "resume replayed nothing: {replay_line}"
    );
    let got = std::fs::read(out_dir.join("atlas.canonical.json")).unwrap();
    assert!(
        got == want,
        "resumed canonical atlas differs from reference"
    );
}
