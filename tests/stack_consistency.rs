//! Cross-crate consistency checks that exercise the whole stack from
//! polynomial arithmetic down to the interior-point solver on instances
//! with known answers.

use cppll::poly::Polynomial;
use cppll::sos::{check_inclusion, PolyExpr, SosOptions, SosProgram};

/// The largest `t ∈ [lo, hi]`, to within `tol`, with `feasible(t)`, for a
/// `feasible` that holds below a threshold; `None` when `lo` is infeasible.
fn maximize_bisect(lo: f64, hi: f64, tol: f64, feasible: impl Fn(f64) -> bool) -> Option<f64> {
    if !feasible(lo) {
        return None;
    }
    if feasible(hi) {
        return Some(hi);
    }
    let (mut good, mut bad) = (lo, hi);
    while bad - good > tol {
        let mid = 0.5 * (good + bad);
        if feasible(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

/// Global minimum of a univariate quartic via SOS: max c s.t. p − c ∈ Σ.
#[test]
fn univariate_minimum_matches_calculus() {
    // p(x) = x⁴ − 4x³ + 6x² − 4x + 5 = (x−1)⁴ + 4 ⇒ min = 4 at x = 1.
    let p = Polynomial::from_terms(
        1,
        &[
            (&[4], 1.0),
            (&[3], -4.0),
            (&[2], 6.0),
            (&[1], -4.0),
            (&[0], 5.0),
        ],
    );
    let c = maximize_bisect(0.0, 10.0, 1e-4, |c| {
        let mut prog = SosProgram::new(1);
        let expr = PolyExpr::from(&p - &Polynomial::constant(1, c));
        prog.require_sos(expr);
        prog.solve(&SosOptions::default()).is_ok()
    })
    .expect("p is bounded below");
    assert!((c - 4.0).abs() < 1e-2, "min = {c}, expected 4");
}

/// Constrained positivity via the S-procedure against a known threshold.
#[test]
fn constrained_bound_on_interval() {
    // p(x) = x² − x on {0 ≤ x ≤ 1} has minimum −1/4.
    let p = Polynomial::from_terms(1, &[(&[2], 1.0), (&[1], -1.0)]);
    let x = Polynomial::var(1, 0);
    let domain = vec![x.clone(), &Polynomial::constant(1, 1.0) - &x];
    let c = maximize_bisect(-2.0, 1.0, 1e-4, |c| {
        let mut prog = SosProgram::new(1);
        let expr = PolyExpr::from(&p - &Polynomial::constant(1, c));
        prog.require_nonneg_on(expr, &domain, 1);
        prog.solve(&SosOptions::default()).is_ok()
    })
    .expect("bounded below on the interval");
    assert!((c + 0.25).abs() < 1e-2, "min = {c}, expected -0.25");
}

/// Inclusion chains must be transitive and asymmetric.
#[test]
fn inclusion_chain_transitivity() {
    let disc =
        |r2: f64| -> Polynomial { &Polynomial::norm_squared(2) - &Polynomial::constant(2, r2) };
    let small = disc(0.5);
    let mid = disc(2.0);
    let big = disc(8.0);
    let sos = SosOptions::default();
    assert!(check_inclusion(&small, &mid, &[], 1, &sos));
    assert!(check_inclusion(&mid, &big, &[], 1, &sos));
    assert!(check_inclusion(&small, &big, &[], 1, &sos));
    assert!(!check_inclusion(&big, &small, &[], 1, &sos));
    assert!(!check_inclusion(&mid, &small, &[], 1, &sos));
}

/// The SOS relaxation of a copositivity-style instance: the Choi–Lam-like
/// quartic `x⁴ + y⁴ + 1 − 3x²y²·t` stops being SOS between t = 2/3 and
/// t = 1 even while still nonnegative near the AM–GM threshold; the solver
/// must find the SOS boundary consistently by bisection.
#[test]
fn sos_boundary_is_monotone() {
    let is_sos = |t: f64| {
        let p = Polynomial::from_terms(
            2,
            &[
                (&[4, 0], 1.0),
                (&[0, 4], 1.0),
                (&[0, 0], 1.0),
                (&[2, 2], -3.0 * t),
            ],
        );
        let mut prog = SosProgram::new(2);
        prog.require_sos(p.into());
        prog.solve(&SosOptions::default()).is_ok()
    };
    // By AM–GM, nonnegative for t ≤ 1; SOS threshold is somewhere in (0, 1].
    assert!(is_sos(0.3));
    assert!(!is_sos(1.2));
    let boundary = maximize_bisect(0.0, 1.2, 1e-3, is_sos).expect("sos for small t");
    assert!(
        (0.3..=1.01).contains(&boundary),
        "sos boundary at t = {boundary}"
    );
    // Monotonicity sanity: below the boundary stays SOS.
    assert!(is_sos(boundary * 0.9));
}

/// Polynomial calculus consistency against the SOS layer: the Lie-derivative
/// expression compiled by the program equals the numeric Lie derivative of
/// the recovered certificate.
#[test]
fn compiled_lie_derivative_matches_numeric() {
    let f = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -2.0), (&[0, 1], 1.0)]),
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], -3.0)]),
    ];
    let mut prog = SosProgram::new(2);
    let v = prog.new_poly_of_degree(2, 2);
    let eps = Polynomial::norm_squared(2).scale(1e-2);
    prog.require_sos(prog.poly(v).sub(&eps.clone().into()));
    prog.require_sos(prog.poly_lie_derivative(v, &f).neg().sub(&eps.into()));
    let sol = prog.solve(&SosOptions::default()).expect("stable system");
    let vp = sol.poly_value(v);
    // The numeric Lie derivative must indeed be negative where certified.
    for &(x, y) in &[(1.0, 0.0), (0.0, 1.0), (-1.0, 2.0), (0.5, -0.5)] {
        let vd = vp.lie_derivative(&f).eval(&[x, y]);
        assert!(vd < 0.0, "V̇({x},{y}) = {vd}");
    }
}
