//! End-to-end inevitability verification of a small hand-made hybrid system
//! — exercises every pipeline stage (P1 certificates, level maximisation,
//! piecewise advection, inclusion, escape fallback) without the cost of the
//! PLL benchmarks.

use cppll::hybrid::{HybridSystem, Jump, Mode, Simulator};
use cppll::poly::Polynomial;
use cppll::verify::{
    step_times, InevitabilityVerifier, PipelineOptions, Region, TraceLevel, TraceRecorder,
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
fn toy_system_is_inevitable() {
    let sys = two_mode_spiral();
    // Verified region: the box |x|, |y| ≤ 3.
    let mut boundary = Vec::new();
    for i in 0..2 {
        let xi = Polynomial::var(2, i);
        boundary.push(&Polynomial::constant(2, 3.0) - &xi);
        boundary.push(&Polynomial::constant(2, 3.0) + &xi);
    }
    let initial = Region::ball(2, 2.0);
    let verifier = InevitabilityVerifier::new(&sys, boundary, initial);
    let rec = TraceRecorder::new(TraceLevel::Stage);
    let mut opt = PipelineOptions::degree(2);
    opt.trace = Some(rec.tracer());
    let report = verifier.verify(&opt).expect("toy system verifies");
    assert!(
        report.verdict.is_verified(),
        "verdict: {:?}",
        report.verdict
    );
    assert!(report.levels.level > 0.0);
    // The stage spans time every Table-2 step.
    let tree = rec.span_tree();
    let steps = step_times(&tree);
    let names: Vec<_> = steps.iter().map(|&(name, _)| name).collect();
    assert!(names.contains(&"attractive invariant"));
    assert!(names.contains(&"max level curves"));
    assert!(names.contains(&"advection"));
    assert!(names.contains(&"checking set inclusion"));
    // The rows and `unaccounted` add up to the `pipeline` span exactly.
    assert_eq!(names.last(), Some(&"unaccounted"));
    let pipeline = tree
        .iter()
        .find(|n| n.name == "pipeline")
        .expect("pipeline span");
    let total: u64 = steps.iter().map(|&(_, ns)| ns).sum();
    assert_eq!(Some(total), pipeline.duration_ns);
}

#[test]
fn certificates_hold_along_simulated_arcs() {
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
        .expect("verifies");
    let certs = report
        .certificates
        .as_ref()
        .expect("verified run has certificates");
    // Trajectories respect the certificate and land near the origin.
    let sim = Simulator::new(&sys).with_step(1e-3).with_thinning(20);
    for &start in &[[1.5f64, 0.5], [-1.0, 1.2], [0.5, -1.8]] {
        let mode0 = if start[0] >= 0.0 { 0 } else { 1 };
        let arc = sim.simulate(&start, mode0, 12.0);
        let mut prev = f64::INFINITY;
        for s in arc.samples() {
            let v = certs.for_mode(s.mode).eval(&s.state);
            assert!(
                v <= prev * (1.0 + 1e-6) + 1e-9,
                "V increased along the arc at {:?}",
                s.state
            );
            prev = v;
        }
        let fin = arc.final_state();
        let norm = (fin[0] * fin[0] + fin[1] * fin[1]).sqrt();
        assert!(norm < 1e-3, "did not converge: {fin:?}");
        // The arc must enter the certified attractive invariant.
        assert!(
            arc.samples()
                .iter()
                .any(|s| report.levels.contains(&sys, &s.state, 0.0)),
            "arc never entered the attractive invariant"
        );
    }
}

#[test]
fn unstable_toy_system_is_rejected() {
    // One stable, one UNSTABLE mode: certificates must not exist.
    let stable = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0)]),
        Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
    ];
    let unstable = vec![
        Polynomial::from_terms(2, &[(&[1, 0], 1.0)]),
        Polynomial::from_terms(2, &[(&[0, 1], 1.0)]),
    ];
    let x = Polynomial::var(2, 0);
    let m0 = Mode::new("stable", stable).with_flow_set(vec![x.clone()]);
    let m1 = Mode::new("unstable", unstable).with_flow_set(vec![x.scale(-1.0)]);
    let sys = HybridSystem::new(2, vec![m0, m1], vec![]);
    let boundary = vec![
        &Polynomial::constant(2, 3.0) - &Polynomial::var(2, 0),
        &Polynomial::constant(2, 3.0) + &Polynomial::var(2, 0),
    ];
    let verifier = InevitabilityVerifier::new(&sys, boundary, Region::ball(2, 1.0));
    let r = verifier.verify(&PipelineOptions::degree(2));
    assert!(
        r.is_err(),
        "unstable system must fail certificate synthesis"
    );
}
