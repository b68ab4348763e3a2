//! End-to-end equivalence of the verification pipeline with and without
//! problem-size reduction: same verdict on the toy two-mode system, with the
//! reduction layer engaged on every Gram and the no-reduce run untouched.
//!
//! Note the reduced run is *not* expected to shrink here: the pipeline's
//! Lyapunov/multiplier encodings use full degree-envelope bases, so every
//! Gram's support is the whole simplex and the Newton polytope is exactly
//! the envelope; the affine guard polynomials likewise break sign symmetry.
//! See DESIGN.md §10 — the reductions fire on structured targets (covered
//! by `crates/sos/tests/proptest_reduce.rs`), and this test pins down that
//! running them on dense programs is verdict- and certificate-neutral.

use cppll_hybrid::{HybridSystem, Jump, Mode};
use cppll_poly::Polynomial;
use cppll_verify::{
    InevitabilityVerifier, PipelineOptions, Reduction, Region, TraceLevel, TraceRecorder,
};

/// Two contracting planar modes switching on the line `x = 0` (the toy
/// inevitability benchmark used throughout the test suite).
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
fn toy_pipeline_verdict_agrees_with_reduction_on_and_off() {
    let sys = two_mode_spiral();
    let mut boundary = Vec::new();
    for i in 0..2 {
        let xi = Polynomial::var(2, i);
        boundary.push(&Polynomial::constant(2, 3.0) - &xi);
        boundary.push(&Polynomial::constant(2, 3.0) + &xi);
    }
    let verifier = InevitabilityVerifier::new(&sys, boundary, Region::ball(2, 2.0));

    let reduced = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("reduced run succeeds");

    let mut opt = PipelineOptions::degree(2);
    opt.reduction = Reduction::Off;
    let rec = TraceRecorder::new(TraceLevel::Stage);
    opt.trace = Some(rec.tracer());
    let unreduced = verifier.verify(&opt).expect("unreduced run succeeds");

    assert_eq!(
        reduced.verdict.is_verified(),
        unreduced.verdict.is_verified(),
        "verdict flipped under reduction: {:?} vs {:?}",
        reduced.verdict,
        unreduced.verdict
    );
    assert!(reduced.verdict.is_verified(), "toy system must verify");

    // The reduced run must have engaged the reduction layer on every Gram
    // (one block per Gram when term sparsity splits none, never fewer) without
    // growing any basis. The unreduced run must report untouched bases.
    let r = &reduced.reduction;
    assert!(r.grams > 0, "reduced run saw no Gram blocks");
    assert!(r.blocks >= r.grams, "lost Gram blocks in reduction: {r}");
    assert!(r.basis_after <= r.basis_before, "pruning grew a basis: {r}");
    let u = &unreduced.reduction;
    assert_eq!(
        u.basis_after, u.basis_before,
        "no-reduce run pruned anyway: {u}"
    );
    assert_eq!(u.blocks, u.grams, "no-reduce run split anyway: {u}");

    // The unreduced run accumulated solver time, none of it inside the
    // reduction stage (its counter is zero or absent).
    assert!(rec.counter_total(cppll_sdp::TOTAL_COUNTER) > 0);
    assert_eq!(rec.counter_total(cppll_sdp::REDUCTION_COUNTER), 0);
}
