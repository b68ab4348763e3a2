//! Chaos determinism: a pipeline run under a fixed fault schedule repeats
//! exactly — the same result digest, the same attempt log, and the same
//! number of injected faults fired. Fault injection keys off deterministic
//! solve indices — never off scheduling or wall-clock time — so chaos tests
//! are reproducible on any machine.

use std::sync::Arc;

use cppll::hybrid::{HybridSystem, Jump, Mode};
use cppll::poly::Polynomial;
use cppll::verify::{
    FaultInjector, FaultKind, FaultPlan, InevitabilityVerifier, PipelineOptions, Region,
};

/// Planar two-mode switched system from `toy_inevitability.rs` — cheap
/// enough to run the pipeline twice.
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

/// One faulted run: transient stalls on the first solve of every stage,
/// absorbed by retries. Returns the digest, the canonical attempt log, and
/// how many faults actually fired.
fn chaotic_run() -> (String, Vec<String>, usize) {
    let sys = two_mode_spiral();
    let verifier = InevitabilityVerifier::new(&sys, toy_boundary(), Region::ball(2, 2.0));
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::default().fault_first_solve_per_stage(FaultKind::Stall),
    ));
    let mut opt = PipelineOptions::degree(2);
    opt.resilience.retries = 2;
    opt.resilience.fault = Some(Arc::clone(&injector));
    let report = verifier
        .verify(&opt)
        .expect("toy verifies through the chaos");
    assert!(report.verdict.is_verified());
    let log: Vec<String> = report
        .failures
        .iter()
        .flat_map(|f| f.attempts.iter().map(|a| a.log_line()))
        .collect();
    (report.result_digest(), log, injector.fired())
}

#[test]
fn chaotic_pipeline_repeats_exactly() {
    let (digest_1, log_1, fired_1) = chaotic_run();
    assert!(fired_1 > 0, "the fault schedule must actually fire");
    let (digest, log, fired) = chaotic_run();
    assert_eq!(digest, digest_1, "result digest diverged on the rerun");
    assert_eq!(log, log_1, "attempt log diverged on the rerun");
    assert_eq!(fired, fired_1, "fault count diverged on the rerun");
}
