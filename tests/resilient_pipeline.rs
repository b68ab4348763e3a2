//! Resilience of the verification pipeline under injected solver faults:
//! retries rescue transient failures, exhausted retries degrade into
//! partial reports (never panics, never loses earlier stages' results),
//! and deadlines cut runs short cooperatively.

use std::sync::Arc;
use std::time::Duration;

use cppll::hybrid::{HybridSystem, Jump, Mode};
use cppll::poly::Polynomial;
use cppll::sdp::{FaultInjector, FaultKind, FaultPlan, SdpStatus};
use cppll::verify::{
    InevitabilityVerifier, PipelineOptions, PipelineStage, Region, ResilienceConfig, Verdict,
};

/// The same planar two-mode switched system as `toy_inevitability.rs`:
/// both modes spiral into the origin, identity jumps at `x = 0`.
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

fn toy_verifier(sys: &HybridSystem) -> InevitabilityVerifier<'_> {
    let mut boundary = Vec::new();
    for i in 0..2 {
        let xi = Polynomial::var(2, i);
        boundary.push(&Polynomial::constant(2, 3.0) - &xi);
        boundary.push(&Polynomial::constant(2, 3.0) + &xi);
    }
    InevitabilityVerifier::new(sys, boundary, Region::ball(2, 2.0))
}

#[test]
fn retries_rescue_first_solve_faults_in_every_stage() {
    // The first solve of each pipeline stage stalls; one retry per solve
    // must be enough to recover a full Inevitable verdict.
    let sys = two_mode_spiral();
    let verifier = toy_verifier(&sys);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new().fault_first_solve_per_stage(FaultKind::Stall),
    ));
    let mut opt = PipelineOptions::degree(2);
    opt.resilience = ResilienceConfig::with_retries(1);
    opt.resilience.fault = Some(injector.clone());
    let report = verifier.verify(&opt).expect("retries absorb the faults");
    assert!(
        report.verdict.is_verified(),
        "verdict: {:?}",
        report.verdict
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(injector.fired() >= 1, "no fault was actually injected");
    assert!(
        report.solve_stats.retries >= injector.fired(),
        "every injected fault should have cost a retry: {} faults, stats {}",
        injector.fired(),
        report.solve_stats
    );
    assert_eq!(report.solve_stats.failures, 0);
}

#[test]
fn exhausted_retries_degrade_with_a_failure_report() {
    // Same fault schedule, but no retries allowed: the very first Lyapunov
    // solve fails terminally and the pipeline degrades instead of erroring.
    // Pinned to the unreduced compile — under the default support mode a
    // failed reduced attempt falls back to the unreduced compile, which
    // absorbs the injected fault (see `pll_resilience.rs` for the
    // support-mode contract).
    let sys = two_mode_spiral();
    let verifier = toy_verifier(&sys);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new().fault_first_solve_per_stage(FaultKind::Stall),
    ));
    let mut opt = PipelineOptions::degree(2);
    opt.reduction = cppll::verify::Reduction::Off;
    opt.resilience.retries = 0;
    opt.resilience.fault = Some(injector.clone());
    let report = verifier.verify(&opt).expect("degrades, does not error");
    match &report.verdict {
        Verdict::Degraded { stage, .. } => assert_eq!(*stage, PipelineStage::Lyapunov),
        other => panic!("expected a degraded verdict, got {other:?}"),
    }
    assert!(report.certificates.is_none());
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert_eq!(failure.stage, PipelineStage::Lyapunov);
    assert!(
        !failure.attempts.is_empty(),
        "failure report must carry the attempt log"
    );
    assert_eq!(failure.attempts[0].status, SdpStatus::Stalled);
    assert!(report.solve_stats.failures >= 1);
}

#[test]
fn advection_faults_keep_certificates_and_level_in_the_partial_report() {
    // P1 succeeds; every solve of the advection and escape stages fails.
    // The partial report must still carry the Lyapunov certificates and
    // the attractive-invariant level — degradation never discards what was
    // already proven.
    let sys = two_mode_spiral();
    let verifier = toy_verifier(&sys);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new()
            .fault_at_stage("advection", FaultKind::Stall)
            .fault_at_stage("escape", FaultKind::Cholesky),
    ));
    let mut opt = PipelineOptions::degree(2);
    opt.max_advection_iters = 3; // every inclusion check fails anyway
    opt.resilience.fault = Some(injector.clone());
    let report = verifier.verify(&opt).expect("degrades, does not error");
    assert!(
        report.certificates.is_some(),
        "P1 certificates must survive the degradation"
    );
    assert!(
        report.levels.level > 0.0,
        "the AI level must survive the degradation"
    );
    assert!(
        report.verdict.is_degraded(),
        "verdict: {:?}",
        report.verdict
    );
    assert!(!report.failures.is_empty());
    assert!(report
        .failures
        .iter()
        .any(|f| f.stage == PipelineStage::Advection || f.stage == PipelineStage::Escape));
}

#[test]
fn an_expired_deadline_degrades_cooperatively() {
    // A zero deadline means every solve hits the cooperative deadline check
    // on its first iteration; the run degrades at the Lyapunov stage with
    // DeadlineExceeded attempts (which are, by design, not retried).
    let sys = two_mode_spiral();
    let verifier = toy_verifier(&sys);
    let mut opt = PipelineOptions::degree(2);
    opt.resilience.retries = 5; // must not matter: deadline is terminal
    opt.resilience.deadline = Some(Duration::ZERO);
    let report = verifier.verify(&opt).expect("degrades, does not error");
    match &report.verdict {
        Verdict::Degraded { stage, .. } => assert_eq!(*stage, PipelineStage::Lyapunov),
        other => panic!("expected a degraded verdict, got {other:?}"),
    }
    let failure = &report.failures[0];
    assert_eq!(failure.attempts.len(), 1, "deadline must not be retried");
    assert_eq!(failure.attempts[0].status, SdpStatus::DeadlineExceeded);
}
