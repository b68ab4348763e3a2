//! Self-healing journal acceptance tests: a run journal whose *final*
//! record was torn — by a crash mid-append, a supervisor kill, or filesystem
//! damage — must be recovered by truncating to the last valid framed record
//! and resuming, producing a report bit-identical to an uninterrupted run.
//! Damage anywhere else (mid-file) stays a hard error: the framing makes
//! tail damage provably distinguishable from interior damage.

use std::path::PathBuf;
use std::sync::Arc;

use cppll::hybrid::{HybridSystem, Jump, Mode};
use cppll::poly::Polynomial;
use cppll::verify::{
    CheckpointConfig, CheckpointError, CrashMode, FaultInjector, FaultPlan, InevitabilityVerifier,
    JournalFault, PipelineOptions, Region, TraceLevel, TraceRecorder, VerifyError,
};

/// Planar two-mode switched system from `toy_inevitability.rs` — cheap
/// enough to run the pipeline several times per test.
fn two_mode_spiral() -> HybridSystem {
    let right = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], -1.0)]),
    ];
    let left = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 0.5)]),
        Polynomial::from_terms(2, &[(&[1, 0], -0.5), (&[0, 1], -1.0)]),
    ];
    let x = Polynomial::var(2, 0);
    let m0 = Mode::new("right", right).with_flow_set(vec![x.clone()]);
    let m1 = Mode::new("left", left).with_flow_set(vec![x.scale(-1.0)]);
    let guard = vec![Polynomial::var(2, 0)];
    let jumps = vec![
        Jump::identity(0, 1).with_guard_eq(guard.clone()),
        Jump::identity(1, 0).with_guard_eq(guard),
    ];
    HybridSystem::new(2, vec![m0, m1], jumps)
}

fn toy_boundary() -> Vec<Polynomial> {
    let mut boundary = Vec::new();
    for i in 0..2 {
        let xi = Polynomial::var(2, i);
        boundary.push(&Polynomial::constant(2, 3.0) - &xi);
        boundary.push(&Polynomial::constant(2, 3.0) + &xi);
    }
    boundary
}

fn runs_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppll-selfheal-tests").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Chops `chop` bytes off the end of a file.
fn chop_tail(path: &PathBuf, chop: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len.saturating_sub(chop)).unwrap();
}

#[test]
fn torn_journal_tail_is_recovered_and_resume_matches_plain_run() {
    let dir = runs_dir("torn-tail");
    let sys = two_mode_spiral();
    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));

    let plain = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("toy verifies");

    // Complete a checkpointed run, then vandalise the journal tail: the
    // last record loses its end, exactly like a torn final append.
    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir));
    verifier.verify(&opt).expect("checkpointed toy verifies");
    let journal = dir.join("toy/journal.jsonl");
    chop_tail(&journal, 17);

    let recorder = TraceRecorder::new(TraceLevel::Stage);
    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    opt.trace = Some(recorder.tracer());
    let resumed = verifier.verify(&opt).expect("recovered journal resumes");

    assert_eq!(
        resumed.canonical_result_json(),
        plain.canonical_result_json(),
        "self-healed resume must reproduce the plain result bit for bit"
    );
    assert_eq!(
        resumed.resume.journal_recovered_records, 1,
        "exactly the torn final record is dropped: {:?}",
        resumed.resume
    );
    // The torn stage is simply recomputed.
    assert!(resumed.resume.stages_fresh >= 1, "{:?}", resumed.resume);
    assert_eq!(recorder.counter_total("journal_recovered"), 1);

    // The healed journal is fully valid again: a second resume replays
    // everything without recovery.
    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    let again = verifier.verify(&opt).expect("healed journal resumes");
    assert_eq!(again.resume.journal_recovered_records, 0);
    assert_eq!(again.resume.stages_fresh, 0);
    assert_eq!(again.canonical_result_json(), plain.canonical_result_json());
}

#[test]
fn mid_file_journal_damage_is_a_hard_error_not_a_silent_heal() {
    let dir = runs_dir("mid-file");
    let sys = two_mode_spiral();
    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));

    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir));
    verifier.verify(&opt).expect("checkpointed toy verifies");

    // Flip a payload byte in an interior record: the CRC catches it, and
    // because later records exist, truncating would silently discard good
    // work — this must be a hard Corrupt error instead.
    let journal = dir.join("toy/journal.jsonl");
    let mut bytes = std::fs::read(&journal).unwrap();
    let lines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i))
        .collect();
    assert!(lines.len() >= 3, "need header + at least two records");
    let target = lines[0] + 40; // inside the first record line
    bytes[target] ^= 0x01;
    std::fs::write(&journal, bytes).unwrap();

    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    match verifier.verify(&opt) {
        Err(VerifyError::Checkpoint {
            source: CheckpointError::Corrupt { line, .. },
        }) => assert_eq!(line, 2, "damage was in the first record (journal line 2)"),
        other => panic!("expected a corrupt-journal rejection, got {other:?}"),
    }
}

#[test]
fn injected_enospc_fails_cleanly_and_the_journal_resumes() {
    let dir = runs_dir("enospc");
    let sys = two_mode_spiral();
    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));

    let plain = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("toy verifies");

    // The second journal append hits a full disk: the run must fail with a
    // checkpoint error (not a panic, not a silent loss).
    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir));
    opt.resilience.fault = Some(Arc::new(FaultInjector::new(
        FaultPlan::default().fault_journal_append(1, JournalFault::Enospc),
    )));
    match verifier.verify(&opt) {
        Err(VerifyError::Checkpoint {
            source: CheckpointError::Io { source, .. },
        }) => assert_eq!(source.raw_os_error(), Some(28), "ENOSPC"),
        other => panic!("expected a journal I/O failure, got {other:?}"),
    }

    // The failed append wrote nothing: the journal is still valid, and a
    // resume (with space back) completes and matches the plain run.
    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    let resumed = verifier.verify(&opt).expect("resume after ENOSPC");
    assert_eq!(resumed.resume.journal_recovered_records, 0);
    assert_eq!(
        resumed.canonical_result_json(),
        plain.canonical_result_json()
    );
}

#[test]
fn in_process_torn_write_crash_heals_on_resume() {
    let dir = runs_dir("torn-write");
    let sys = two_mode_spiral();

    // The process dies mid-append, leaving half a framed record on disk —
    // the classic torn write the CRC framing exists for.
    let crashed = {
        let sys = sys.clone();
        let dir = dir.clone();
        std::thread::spawn(move || {
            let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));
            let mut opt = PipelineOptions::degree(2);
            opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir));
            opt.resilience.fault = Some(Arc::new(FaultInjector::new(
                FaultPlan::default().fault_journal_append(
                    1,
                    JournalFault::TornWrite {
                        keep_bytes: 25,
                        then: CrashMode::Panic,
                    },
                ),
            )));
            let _ = verifier.verify(&opt);
        })
        .join()
    };
    assert!(crashed.is_err(), "the torn write must kill the run");
    let journal = dir.join("toy/journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        !text.ends_with('\n'),
        "the tail must actually be torn: {text:?}"
    );

    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));
    let plain = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("toy verifies");
    let recorder = TraceRecorder::new(TraceLevel::Stage);
    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    opt.trace = Some(recorder.tracer());
    let resumed = verifier.verify(&opt).expect("torn journal heals on resume");
    assert_eq!(resumed.resume.journal_recovered_records, 1);
    assert_eq!(recorder.counter_total("journal_recovered"), 1);
    assert_eq!(
        resumed.canonical_result_json(),
        plain.canonical_result_json()
    );
    assert!(resumed.verdict.is_verified());
}
