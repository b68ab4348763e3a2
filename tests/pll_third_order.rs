//! Integration test of the paper's headline claim at reduced cost: the
//! third-order CP PLL (nominal parameters, degree-4 certificates) inevitably
//! phase-locks, and the certificates agree with simulation.

use cppll::pll::{PllModelBuilder, PllOrder, UncertaintySelection};
use cppll::sos::SosOptions;
use cppll::verify::validation::Validator;
use cppll::verify::{InevitabilityVerifier, LyapunovOptions, LyapunovSynthesizer, PipelineOptions};

fn nominal_model() -> cppll::pll::VerificationModel {
    PllModelBuilder::new(PllOrder::Third)
        .with_uncertainty(UncertaintySelection::Nominal)
        .build()
}

#[test]
fn third_order_pll_inevitability_nominal_degree4() {
    let model = nominal_model();
    let verifier = InevitabilityVerifier::for_pll(&model);
    let report = verifier
        .verify(&PipelineOptions::degree(4))
        .expect("synthesis feasible");
    assert!(
        report.verdict.is_verified(),
        "verdict: {:?}",
        report.verdict
    );
    // The attractive invariant is a substantial region, not a numerical
    // sliver.
    assert!(report.levels.level > 0.1, "c* = {}", report.levels.level);
    // P2 concluded: either advection immersed the front or escape
    // certificates covered the leftover.
    let by_advection = report.included_after().is_some();
    let by_escape = !report.escape_certificates.is_empty();
    assert!(by_advection || by_escape);

    // Monte-Carlo cross-validation on the actual hybrid dynamics.
    let certs = report
        .certificates
        .as_ref()
        .expect("verified run has certificates");
    let validator = Validator::new(model.system());
    let v = validator.validate(certs, &report.levels, &[0.7, 0.7, 0.9], 12, 42);
    assert_eq!(v.trials, 12);
    assert_eq!(
        v.locked, v.trials,
        "some trajectories failed to lock: {v:?}"
    );
    assert_eq!(
        v.reached_ai, v.trials,
        "some trajectories missed the attractive invariant: {v:?}"
    );
    assert_eq!(
        v.monotone, v.trials,
        "certificate increased along a trajectory: {v:?}"
    );
}

#[test]
fn third_order_certificate_rejects_degree_two() {
    // The saturated modes genuinely require quartic certificates: at degree
    // 2 the synthesis must fail (matching the paper's need for degrees ≥ 4).
    let model = nominal_model();
    let r = LyapunovSynthesizer::new(model.system())
        .synthesize(&LyapunovOptions::degree(2), &SosOptions::default());
    assert!(r.is_err(), "degree-2 common certificate should not exist");
}

#[test]
fn certificate_decreases_on_all_mode_domains() {
    let model = nominal_model();
    let certs = LyapunovSynthesizer::new(model.system())
        .synthesize_auto(&LyapunovOptions::degree(4), &SosOptions::default())
        .expect("feasible");
    let sys = model.system();
    let nominal = sys.params().nominal();
    // Sample each mode's flow set and check the certified inequalities.
    let samples: &[(usize, [f64; 3])] = &[
        (0, [0.3, -0.2, 0.5]),
        (0, [-0.5, 0.4, -0.9]),
        (1, [0.2, 0.1, 1.5]),
        (1, [-0.6, 0.8, 1.9]),
        (2, [0.2, -0.1, -1.5]),
        (2, [0.7, -0.8, -1.9]),
    ];
    for &(mode, x) in samples {
        let (v, vdot) = certs.check_at(sys, mode, &x, &nominal);
        assert!(v > 0.0, "V ≤ 0 at {x:?} (mode {mode})");
        assert!(vdot < 0.0, "V̇ ≥ 0 at {x:?} (mode {mode}): {vdot}");
    }
}
