//! Crash-safe checkpoint/resume acceptance tests: a run that is killed
//! mid-pipeline and resumed must produce a report **bit-identical** to an
//! uninterrupted run — same verdict, same certificates, same advection
//! trace — while replaying journaled stages instead of recomputing them.

use std::path::PathBuf;
use std::sync::Arc;

use cppll::hybrid::{HybridSystem, Jump, Mode};
use cppll::pll::{PllModelBuilder, PllOrder, UncertaintySelection};
use cppll::poly::Polynomial;
use cppll::verify::{
    CheckpointConfig, CheckpointError, CrashMode, FaultInjector, FaultPlan, InevitabilityVerifier,
    PipelineOptions, Region, VerifyError,
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

/// A fresh runs directory for one test, wiped before use so reruns never
/// see a previous invocation's journals.
fn runs_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppll-resume-tests").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn toy_checkpointed_run_matches_plain_run_and_replays_on_resume() {
    let dir = runs_dir("toy-roundtrip");
    let sys = two_mode_spiral();
    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));

    let plain = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("toy verifies");

    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir));
    let fresh = verifier.verify(&opt).expect("checkpointed toy verifies");
    assert_eq!(
        fresh.canonical_result_json(),
        plain.canonical_result_json(),
        "journaling a run must not change its result"
    );
    assert_eq!(fresh.resume.run_id.as_deref(), Some("toy"));
    assert_eq!(fresh.resume.stages_replayed, 0);
    assert!(fresh.resume.stages_fresh >= 3, "{:?}", fresh.resume);

    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    let resumed = verifier.verify(&opt).expect("resumed toy verifies");
    assert_eq!(
        resumed.canonical_result_json(),
        plain.canonical_result_json(),
        "replayed stages must reproduce the original result bit for bit"
    );
    // The first run completed, so the resume replays everything.
    assert_eq!(resumed.resume.stages_replayed, fresh.resume.stages_fresh);
    assert_eq!(resumed.resume.stages_fresh, 0);
    // Replay absorbs the journaled ledger snapshot: solve totals match the
    // fresh run even though no SDP ran at all.
    assert_eq!(resumed.solve_stats, fresh.solve_stats);
}

#[test]
fn stale_journal_is_rejected_when_options_change() {
    let dir = runs_dir("toy-stale");
    let sys = two_mode_spiral();
    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));

    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir));
    verifier.verify(&opt).expect("checkpointed toy verifies");

    // Same run id, different advection step size: the journal's fingerprint
    // no longer matches, and silently replaying it would splice together
    // two different verification problems.
    let mut opt = PipelineOptions::degree(2);
    opt.advection.h *= 0.5;
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    match verifier.verify(&opt) {
        Err(VerifyError::Checkpoint {
            source: CheckpointError::Stale { .. },
        }) => {}
        other => panic!("expected a stale-journal rejection, got {other:?}"),
    }
}

#[test]
fn crashed_toy_run_resumes_and_completes() {
    let dir = runs_dir("toy-crash");
    let sys = two_mode_spiral();

    // Crash (panic) at the very first advection inclusion solve. The run
    // dies after journaling the Lyapunov and level-set stages.
    let crashed = {
        let sys = sys.clone();
        let dir = dir.clone();
        std::thread::spawn(move || {
            let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));
            let mut opt = PipelineOptions::degree(2);
            opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir));
            opt.resilience.fault = Some(Arc::new(FaultInjector::new(
                FaultPlan::default().crash_at_stage_solve("advection", 0, CrashMode::Panic),
            )));
            let _ = verifier.verify(&opt);
        })
        .join()
    };
    assert!(crashed.is_err(), "injected crash should panic the run");
    let journal = dir.join("toy/journal.jsonl");
    assert!(
        journal.exists(),
        "crashed run must leave its journal behind"
    );

    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));
    let plain = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("toy verifies");
    let mut opt = PipelineOptions::degree(2);
    opt.checkpoint = Some(CheckpointConfig::new("toy").with_dir(&dir).resuming());
    let resumed = verifier.verify(&opt).expect("resume completes the run");
    assert!(resumed.verdict.is_verified());
    assert_eq!(
        resumed.canonical_result_json(),
        plain.canonical_result_json()
    );
    assert!(resumed.resume.stages_replayed >= 2, "{:?}", resumed.resume);
    assert!(resumed.resume.stages_fresh >= 1, "{:?}", resumed.resume);
}

/// The issue's acceptance criterion: kill the third-order PLL verification
/// mid-advection, resume, and get a report bit-identical to an
/// uninterrupted run, with at least one stage replayed from the journal.
#[test]
fn third_order_pll_crash_mid_advection_resumes_bit_identically() {
    let dir = runs_dir("pll-crash");
    let model = PllModelBuilder::new(PllOrder::Third)
        .with_uncertainty(UncertaintySelection::Nominal)
        .build();

    // Uninterrupted checkpointed run: the reference result.
    let verifier = InevitabilityVerifier::for_pll(&model);
    let mut opt = PipelineOptions::degree(4);
    opt.checkpoint = Some(CheckpointConfig::new("uncrashed").with_dir(&dir));
    let uninterrupted = verifier.verify(&opt).expect("third-order PLL verifies");
    assert!(uninterrupted.verdict.is_verified());

    // Killed run: panic at the 6th inclusion solve of the advection stage,
    // i.e. several advection steps into the run.
    let crashed = {
        let model = model.clone();
        let dir = dir.clone();
        std::thread::spawn(move || {
            let verifier = InevitabilityVerifier::for_pll(&model);
            let mut opt = PipelineOptions::degree(4);
            opt.checkpoint = Some(CheckpointConfig::new("crashed").with_dir(&dir));
            opt.resilience.fault = Some(Arc::new(FaultInjector::new(
                FaultPlan::default().crash_at_stage_solve("advection", 5, CrashMode::Panic),
            )));
            let _ = verifier.verify(&opt);
        })
        .join()
    };
    assert!(crashed.is_err(), "injected crash should panic the run");
    let journal_text = std::fs::read_to_string(dir.join("crashed/journal.jsonl"))
        .expect("crashed run must leave its journal behind");
    assert!(
        journal_text.contains("\"record\":\"advection-step\""),
        "crash happened mid-advection, after at least one completed step"
    );

    // Resume and compare against the uninterrupted reference.
    let mut opt = PipelineOptions::degree(4);
    opt.checkpoint = Some(CheckpointConfig::new("crashed").with_dir(&dir).resuming());
    let resumed = verifier.verify(&opt).expect("resume completes the run");

    assert!(resumed.verdict.is_verified(), "{:?}", resumed.verdict);
    assert_eq!(
        resumed.canonical_result_json(),
        uninterrupted.canonical_result_json(),
        "resumed report must be bit-identical to the uninterrupted run"
    );
    assert_eq!(resumed.result_digest(), uninterrupted.result_digest());
    assert!(
        resumed.resume.stages_replayed >= 1,
        "at least one stage must be replayed from the journal: {:?}",
        resumed.resume
    );
    // Absorbed ledger snapshot + redone tail = the uninterrupted totals:
    // pre-crash work is not forgotten and not double-counted.
    assert_eq!(resumed.solve_stats, uninterrupted.solve_stats);
}
