//! The two robustness encodings (vertex enumeration and the paper's
//! S-procedure over the parameter box) must agree on conclusions, and the
//! certificates each produces must be valid under the *other* encoding's
//! acceptance check.

use cppll::hybrid::{HybridSystem, Mode, ParamBox};
use cppll::poly::Polynomial;
use cppll::sos::SosOptions;
use cppll::verify::{LyapunovCertificates, LyapunovOptions, LyapunovSynthesizer, RobustEncoding};

/// Degree-2 synthesis under the `robust` encoding.
fn synthesize(sys: &HybridSystem, robust: RobustEncoding) -> Option<LyapunovCertificates> {
    let opt = LyapunovOptions::degree(2).with_robust(robust);
    let sos = SosOptions::default();
    LyapunovSynthesizer::new(sys).synthesize(&opt, &sos).ok()
}

/// Uncertain planar system ẋ = −u·x + y, ẏ = −u·y with u ∈ [0.5, 1.5]
/// (ring: 2 states + 1 parameter).
fn uncertain_spiral() -> HybridSystem {
    let f = vec![
        Polynomial::from_terms(3, &[(&[1, 0, 1], -1.0), (&[0, 1, 0], 1.0)]),
        Polynomial::from_terms(3, &[(&[0, 1, 1], -1.0)]),
    ];
    let g = vec![
        &Polynomial::constant(2, 2.0) - &Polynomial::var(2, 0),
        &Polynomial::constant(2, 2.0) + &Polynomial::var(2, 0),
    ];
    HybridSystem::with_params(
        2,
        vec![Mode::new("m", f).with_flow_set(g)],
        vec![],
        ParamBox::new(vec![0.5], vec![1.5]),
    )
}

#[test]
fn vertex_and_sprocedure_encodings_agree() {
    let sys = uncertain_spiral();
    let vert = synthesize(&sys, RobustEncoding::Vertices).expect("vertex encoding feasible");
    let sproc = synthesize(&sys, RobustEncoding::SProcedure).expect("s-procedure feasible");
    // Both certificates decrease at both box vertices across samples.
    for certs in [&vert, &sproc] {
        for &u in &[0.5, 1.5, 1.0] {
            for &(x, y) in &[(1.0, 0.5), (-0.5, 1.0), (0.3, -0.7)] {
                let (v, vdot) = certs.check_at(&sys, 0, &[x, y], &[u]);
                assert!(v > 0.0, "V must be positive at ({x},{y})");
                assert!(vdot < 0.0, "V̇ must be negative at ({x},{y}), u={u}");
            }
        }
    }
    // Both certificates live in the state-only ring.
    assert_eq!(vert.for_mode(0).nvars(), 2);
    assert_eq!(sproc.for_mode(0).nvars(), 2);
}

#[test]
fn both_encodings_reject_vertex_unstable_systems() {
    // ẋ = u·x with u ∈ [−1, 1]: unstable at the u = 1 vertex. Neither
    // encoding may produce a certificate.
    let f = vec![Polynomial::from_terms(2, &[(&[1, 1], 1.0)])];
    let g = vec![
        &Polynomial::constant(1, 1.0) - &Polynomial::var(1, 0),
        &Polynomial::constant(1, 1.0) + &Polynomial::var(1, 0),
    ];
    let sys = HybridSystem::with_params(
        1,
        vec![Mode::new("m", f).with_flow_set(g)],
        vec![],
        ParamBox::new(vec![-1.0], vec![1.0]),
    );
    assert!(synthesize(&sys, RobustEncoding::Vertices).is_none());
    assert!(synthesize(&sys, RobustEncoding::SProcedure).is_none());
}
