//! Acceptance scenario from the robustness work: the third-order CP PLL
//! verification survives a fault schedule that stalls the first solve of
//! every pipeline stage when one retry is allowed, and degrades into a
//! structured partial report (not a bare error) when retries are disabled.

use std::sync::Arc;

use cppll::pll::{PllModelBuilder, PllOrder, UncertaintySelection};
use cppll::sdp::{FaultInjector, FaultKind, FaultPlan};
use cppll::verify::{
    InevitabilityVerifier, PipelineOptions, PipelineStage, Reduction, ResilienceConfig, Verdict,
};

fn nominal_model() -> cppll::pll::VerificationModel {
    PllModelBuilder::new(PllOrder::Third)
        .with_uncertainty(UncertaintySelection::Nominal)
        .build()
}

#[test]
fn third_order_pll_survives_stage_faults_with_one_retry() {
    let model = nominal_model();
    let verifier = InevitabilityVerifier::for_pll(&model);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new().fault_first_solve_per_stage(FaultKind::Stall),
    ));
    let mut opt = PipelineOptions::degree(4);
    opt.resilience = ResilienceConfig::with_retries(1);
    opt.resilience.fault = Some(injector.clone());
    let report = verifier.verify(&opt).expect("retries absorb the faults");
    assert!(
        report.verdict.is_verified(),
        "verdict: {:?}",
        report.verdict
    );
    assert!(report.levels.level > 0.1, "c* = {}", report.levels.level);
    assert!(injector.fired() >= 1, "no fault was injected");
    assert!(
        report.solve_stats.retries >= injector.fired(),
        "faults {} vs stats {}",
        injector.fired(),
        report.solve_stats
    );
    // Note: `solve_stats.failures` may legitimately be nonzero even on a
    // verified run — inclusion checks near the feasibility boundary can
    // fail numerically and are absorbed as "not included". What must hold
    // is that no stage *degraded*.
    assert!(!report.verdict.is_degraded());
}

#[test]
fn third_order_pll_degrades_without_retries() {
    // The very same schedule with retries disabled: the first Lyapunov
    // solve fails terminally and `verify` returns a partial report with a
    // populated failure log instead of an error. Pinned to the unreduced
    // compile: support mode deliberately absorbs a failed first attempt by
    // falling back to the unreduced compile (see the companion test
    // below), so the terminal-failure contract is a property of a compile
    // without a fallback.
    let model = nominal_model();
    let verifier = InevitabilityVerifier::for_pll(&model);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new().fault_first_solve_per_stage(FaultKind::Stall),
    ));
    let mut opt = PipelineOptions::degree(4);
    opt.reduction = Reduction::Off;
    opt.resilience.retries = 0;
    opt.resilience.fault = Some(injector);
    let report = verifier.verify(&opt).expect("degrades, does not error");
    match &report.verdict {
        Verdict::Degraded { stage, .. } => assert_eq!(*stage, PipelineStage::Lyapunov),
        other => panic!("expected a degraded verdict, got {other:?}"),
    }
    assert!(!report.failures.is_empty());
    assert!(!report.failures[0].attempts.is_empty());
}

#[test]
fn support_mode_absorbs_stage_faults_even_without_retries() {
    // Under the default support-reduced compile the same fault schedule is
    // survivable with zero retries: a failed reduced attempt falls back to
    // the unreduced compile (a screen miss where the support compile pruned
    // the program; the level stage's re-solve of a failed margin program,
    // which it never prunes), which acts as a second independent attempt.
    let model = nominal_model();
    let verifier = InevitabilityVerifier::for_pll(&model);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new().fault_first_solve_per_stage(FaultKind::Stall),
    ));
    let mut opt = PipelineOptions::degree(4);
    opt.resilience.retries = 0;
    opt.resilience.fault = Some(injector.clone());
    let report = verifier.verify(&opt).expect("fallback absorbs the faults");
    assert!(
        report.verdict.is_verified(),
        "verdict: {:?}",
        report.verdict
    );
    assert!(injector.fired() >= 1, "no fault was injected");
    assert!(report.levels.level > 0.1, "c* = {}", report.levels.level);
}
