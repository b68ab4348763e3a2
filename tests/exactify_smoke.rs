//! Smoke test for the exact-arithmetic certificate upgrade: run the full
//! numeric pipeline on the toy two-mode spiral, then re-state its Lyapunov
//! claims as exact rational theorems through `exactify_certificates`.
//!
//! This wires the previously library-only `cppll-verify::exactify` module
//! into the end-to-end suite: the certificates being upgraded here are the
//! ones the inevitability pipeline actually produced, not ones synthesised
//! specially for the test.

use cppll::hybrid::{HybridSystem, Jump, Mode};
use cppll::poly::Polynomial;
use cppll::verify::{
    exactify_certificates, ExactifyOptions, InevitabilityVerifier, PipelineOptions, Region,
};

/// Planar two-mode switched system split at `x = 0`, both modes spiralling
/// into the origin, identity jumps on the switching line.
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

#[test]
fn pipeline_certificates_exactify_on_the_toy_system() {
    let sys = two_mode_spiral();
    let mut boundary = Vec::new();
    for i in 0..2 {
        let xi = Polynomial::var(2, i);
        boundary.push(&Polynomial::constant(2, 3.0) - &xi);
        boundary.push(&Polynomial::constant(2, 3.0) + &xi);
    }
    let verifier = InevitabilityVerifier::new(&sys, boundary, Region::ball(2, 2.0));
    let report = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("toy system verifies");
    assert!(report.verdict.is_verified());
    let certs = report
        .certificates
        .as_ref()
        .expect("verified run has certificates");

    // Upgrade the numeric claims on the box |x|, |y| ≤ 2 covering the
    // certified attractive invariant.
    let exact = exactify_certificates(&sys, certs, &[2.0, 2.0], &ExactifyOptions::default())
        .expect("toy certificates exactify");

    // Every claim upgraded: nothing left resting on floating point.
    assert!(
        exact.complete(),
        "unproven claims: {}",
        exact.unproven.len()
    );
    assert!(exact.claims() >= 2, "claims: {}", exact.claims());
    // Decrease must be certified per mode and parameter vertex (the toy
    // system has no parameters, so one vertex per mode).
    assert_eq!(exact.decrease.len(), sys.modes().len());

    // Audit one proof against its exact target: positivity of V − δ(‖x‖²
    // + ‖x‖^deg) for the (shared or per-mode) certificate.
    let delta = ExactifyOptions::default().delta;
    let v = certs.for_mode(0);
    let eps = &Polynomial::norm_squared(2).scale(delta)
        + &Polynomial::norm_squared(2)
            .pow(certs.degree() / 2)
            .scale(delta);
    let target = v - &eps;
    assert!(
        exact.positivity[0].is_valid_for(&target),
        "positivity proof does not re-verify against its target"
    );
}
