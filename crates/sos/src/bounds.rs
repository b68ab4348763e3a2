//! SOS-certified bounds on the range of a polynomial over a semialgebraic
//! set.
//!
//! `certified_upper_bound` solves one SOS program, the smallest `u` with a
//! Positivstellensatz certificate for `p(x) ≤ u` on `{gⱼ(x) ≥ 0}`; the
//! lower bound is the mirror image. Together they bound the *range* of `p`
//! on the set — used, e.g., to turn an escape certificate `E` with
//! `Ė ≤ −ε` into an explicit dwell-time bound `(sup E − inf E)/ε`
//! (Proposition 1 of the paper).

use cppll_poly::Polynomial;

use crate::program::{SosOptions, SosProgram, OBJECTIVE_TRACE_WEIGHT};
use crate::{PolyExpr, Reduction};

/// Certified `u` with `p ≤ u` on `{gⱼ ≥ 0}`: the smallest `u` with
/// `u − p − Σⱼ τⱼ gⱼ` SOS (`τⱼ` SOS of half-degree `mult_half_degree`), or
/// `None` if the program has no solution (e.g. the set is unbounded in a
/// growing direction of `p`, or the multiplier degree is too low). The
/// bound is accepted only when its certificate satisfies the polynomial
/// identity to `1e-5` of the problem's scale.
///
/// The program solves under `sos` with the [`OBJECTIVE_TRACE_WEIGHT`] and
/// always compiles with [`Reduction::Off`]: the support compile restricts
/// multiplier bases, so its optimum is a valid but possibly looser bound.
///
/// # Examples
///
/// ```
/// use cppll_poly::Polynomial;
/// use cppll_sos::{certified_upper_bound, SosOptions};
///
/// // p = x on {x² ≤ 4}: sup = 2.
/// let p = Polynomial::var(1, 0);
/// let disc = Polynomial::from_terms(1, &[(&[0], 4.0), (&[2], -1.0)]);
/// let u = certified_upper_bound(&p, &[disc], 1, &SosOptions::default()).unwrap();
/// assert!((u - 2.0).abs() < 0.01);
/// ```
pub fn certified_upper_bound(
    p: &Polynomial,
    domain: &[Polynomial],
    mult_half_degree: u32,
    sos: &SosOptions,
) -> Option<f64> {
    let sos = SosOptions {
        trace_weight: OBJECTIVE_TRACE_WEIGHT,
        reduction: Reduction::Off,
        ..sos.clone()
    };
    let mut prog = SosProgram::new(p.nvars());
    let u = prog.new_scalar();
    let expr = prog.scalar(u).sub(&PolyExpr::from(p.clone()));
    let (cid, _) = prog.require_nonneg_on(expr, domain, mult_half_degree);
    prog.minimize(&[(u, 1.0)]);
    let sol = prog.solve(&sos).ok()?;
    let bound = sol.scalar_value(u);
    let scale = p.max_abs_coefficient().max(1.0).max(bound.abs());
    (sol.residual_of(cid) <= 1e-5 * scale).then_some(bound)
}

/// Certified `l` with `p ≥ l` on `{gⱼ ≥ 0}` — mirror of
/// [`certified_upper_bound`].
pub fn certified_lower_bound(
    p: &Polynomial,
    domain: &[Polynomial],
    mult_half_degree: u32,
    sos: &SosOptions,
) -> Option<f64> {
    certified_upper_bound(&p.scale(-1.0), domain, mult_half_degree, sos).map(|u| -u)
}

/// Certified range `[l, u]` of `p` on `{gⱼ ≥ 0}` (both bounds must exist).
pub fn certified_range(
    p: &Polynomial,
    domain: &[Polynomial],
    mult_half_degree: u32,
    sos: &SosOptions,
) -> Option<(f64, f64)> {
    let u = certified_upper_bound(p, domain, mult_half_degree, sos)?;
    let l = certified_lower_bound(p, domain, mult_half_degree, sos)?;
    Some((l, u))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(lo: f64, hi: f64) -> Vec<Polynomial> {
        let x = Polynomial::var(1, 0);
        vec![
            &x - &Polynomial::constant(1, lo),
            &Polynomial::constant(1, hi) - &x,
        ]
    }

    #[test]
    fn linear_on_interval() {
        let p = Polynomial::var(1, 0);
        let (l, u) =
            certified_range(&p, &interval(-1.0, 3.0), 1, &SosOptions::default()).expect("bounded");
        assert!((u - 3.0).abs() < 0.01, "u = {u}");
        assert!((l + 1.0).abs() < 0.01, "l = {l}");
    }

    #[test]
    fn quadratic_on_disc() {
        // p = x² + y on the unit disc: sup = 1.25 (at y = -... actually
        // maximise x²+y s.t. x²+y² ≤ 1 ⇒ x² = 1−y², p = 1−y²+y max at
        // y = 1/2 ⇒ 5/4); inf = −1 (x = 0, y = −1).
        let p = Polynomial::from_terms(2, &[(&[2, 0], 1.0), (&[0, 1], 1.0)]);
        let disc = &Polynomial::constant(2, 1.0) - &Polynomial::norm_squared(2);
        // Half-degree 2: a tighter S-procedure for the curvy disc.
        let (l, u) = certified_range(&p, &[disc], 2, &SosOptions::default()).expect("bounded");
        assert!((1.25 - 1e-6..1.35).contains(&u), "u = {u}");
        assert!(l <= -1.0 + 1e-6 && l > -1.15, "l = {l}");
    }

    #[test]
    fn unbounded_direction_returns_none() {
        // p = x on {x ≥ 0} has no upper bound.
        let p = Polynomial::var(1, 0);
        let dom = vec![Polynomial::var(1, 0)];
        let sos = SosOptions::default();
        assert!(certified_upper_bound(&p, &dom, 1, &sos).is_none());
        // …but a certified lower bound 0 exists.
        let l = certified_lower_bound(&p, &dom, 1, &sos).expect("bounded below");
        assert!(l.abs() < 0.01, "l = {l}");
    }
}
