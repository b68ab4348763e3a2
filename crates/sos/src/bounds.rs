//! SOS-certified bounds on the range of a polynomial over a semialgebraic
//! set.
//!
//! `certified_upper_bound` finds (by bisection) a value `u` with a
//! Positivstellensatz certificate for `p(x) ≤ u` on `{gⱼ(x) ≥ 0}`; the
//! lower bound is the mirror image. Together they bound the *range* of `p`
//! on the set — used, e.g., to turn an escape certificate `E` with
//! `Ė ≤ −ε` into an explicit dwell-time bound `(sup E − inf E)/ε`
//! (Proposition 1 of the paper).

use cppll_poly::Polynomial;

use crate::program::{SosOptions, SosProgram};
use crate::{maximize_bisect, PolyExpr};

/// Options for the certified range bounds.
#[derive(Debug, Clone)]
pub struct BoundOptions {
    /// Half-degree of the S-procedure multipliers.
    pub mult_half_degree: u32,
    /// Bisection resolution (absolute).
    pub tolerance: f64,
    /// Search window half-width: bounds are searched inside
    /// `[−window, window]` around zero. Pick generously; the certified
    /// value is still tight to `tolerance`.
    pub window: f64,
    /// Half-width of the numeric pre-check box (defaults to the window):
    /// candidate bounds that are visibly violated at sampled domain points
    /// inside this box are rejected before any SDP is solved — both an
    /// optimisation and a guard against solver false-positives at large
    /// scales (samples can only *reject*, never accept). A result at the
    /// window ceiling is reported as `None` (unbounded within the window).
    pub sample_box: Option<f64>,
    /// SOS options per probe.
    pub sos: SosOptions,
}

impl Default for BoundOptions {
    fn default() -> Self {
        BoundOptions {
            mult_half_degree: 1,
            tolerance: 1e-3,
            window: 1e3,
            sample_box: None,
            sos: SosOptions::default(),
        }
    }
}

/// Certified `u` with `p ≤ u` on `{gⱼ ≥ 0}`, or `None` if none exists in
/// the search window (e.g. the set is unbounded in a growing direction of
/// `p`, or the multiplier degree is too low).
///
/// # Examples
///
/// ```
/// use cppll_poly::Polynomial;
/// use cppll_sos::{certified_upper_bound, BoundOptions};
///
/// // p = x on {x² ≤ 4}: sup = 2.
/// let p = Polynomial::var(1, 0);
/// let disc = Polynomial::from_terms(1, &[(&[0], 4.0), (&[2], -1.0)]);
/// let u = certified_upper_bound(&p, &[disc], &BoundOptions::default()).unwrap();
/// assert!((u - 2.0).abs() < 0.01);
/// ```
pub fn certified_upper_bound(
    p: &Polynomial,
    domain: &[Polynomial],
    opt: &BoundOptions,
) -> Option<f64> {
    let nvars = p.nvars();
    // Numeric witnesses: sampled domain points whose p-value lower-bounds
    // the supremum (sound rejections only).
    let mut witness_max = f64::NEG_INFINITY;
    {
        let sample_box = opt.sample_box.unwrap_or(opt.window);
        let steps = if nvars <= 3 { 11 } else { 5 };
        let mut idx = vec![0usize; nvars];
        loop {
            let x: Vec<f64> = idx
                .iter()
                .map(|&i| -sample_box + 2.0 * sample_box * (i as f64) / ((steps - 1) as f64))
                .collect();
            if domain.iter().all(|g| g.eval(&x) >= 0.0) {
                witness_max = witness_max.max(p.eval(&x));
            }
            let mut k = 0;
            loop {
                if k == nvars {
                    break;
                }
                idx[k] += 1;
                if idx[k] < steps {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == nvars {
                break;
            }
        }
    }
    let scale = p.max_abs_coefficient().max(1.0);
    let run = |sos: &SosOptions| -> Option<f64> {
        let feasible = |u: f64| {
            if u < witness_max - opt.tolerance {
                return false; // a sampled point already beats this bound
            }
            let mut prog = SosProgram::new(nvars);
            let expr = PolyExpr::from(&Polynomial::constant(nvars, u) - p);
            let (cid, _) = prog.require_nonneg_on(expr, domain, opt.mult_half_degree);
            match prog.solve(sos) {
                // Accept only when the returned certificate genuinely
                // satisfies the polynomial identity (interior-point answers
                // on marginally infeasible programs do not).
                Ok(sol) => sol.residual_of(cid) <= 1e-5 * scale.max(u.abs()),
                Err(_) => false,
            }
        };
        // Feasibility is monotone increasing in u; bisect on −u to minimise.
        let r = maximize_bisect(-opt.window, opt.window, opt.tolerance, |t| feasible(-t));
        let u = -r.best?;
        // A value at the window ceiling means no certified bound exists
        // inside the search window — report honestly.
        if u > opt.window - 10.0 * opt.tolerance {
            return None;
        }
        Some(u)
    };
    // Bound bisection tolerates a conservative "no" from the support-reduced
    // compile: a spurious rejection only widens the certified bound, and the
    // accepted bound always carries a real certificate. Only when the whole
    // bisection comes up empty is it re-run under the legacy compile, so
    // support-mode over-restriction never loses a bound legacy would find.
    let mut probe_sos = opt.sos.clone();
    probe_sos.trust_infeasible = true;
    run(&probe_sos).or_else(|| {
        let mut legacy = opt.sos.clone();
        legacy.reduction = opt.sos.reduction.legacy_fallback()?;
        run(&legacy)
    })
}

/// Certified `l` with `p ≥ l` on `{gⱼ ≥ 0}` — mirror of
/// [`certified_upper_bound`].
pub fn certified_lower_bound(
    p: &Polynomial,
    domain: &[Polynomial],
    opt: &BoundOptions,
) -> Option<f64> {
    certified_upper_bound(&p.scale(-1.0), domain, opt).map(|u| -u)
}

/// Certified range `[l, u]` of `p` on `{gⱼ ≥ 0}` (both bounds must exist).
pub fn certified_range(
    p: &Polynomial,
    domain: &[Polynomial],
    opt: &BoundOptions,
) -> Option<(f64, f64)> {
    let u = certified_upper_bound(p, domain, opt)?;
    let l = certified_lower_bound(p, domain, opt)?;
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
            certified_range(&p, &interval(-1.0, 3.0), &BoundOptions::default()).expect("bounded");
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
        let opt = BoundOptions {
            mult_half_degree: 2, // tighter S-procedure for the curvy disc
            ..Default::default()
        };
        let (l, u) = certified_range(&p, &[disc], &opt).expect("bounded");
        assert!((1.25 - 1e-6..1.35).contains(&u), "u = {u}");
        assert!(l <= -1.0 + 1e-6 && l > -1.15, "l = {l}");
    }

    #[test]
    fn unbounded_direction_returns_none() {
        // p = x on {x ≥ 0} has no upper bound.
        let p = Polynomial::var(1, 0);
        let dom = vec![Polynomial::var(1, 0)];
        let opt = BoundOptions {
            window: 50.0,
            ..Default::default()
        };
        assert!(certified_upper_bound(&p, &dom, &opt).is_none());
        // …but a certified lower bound 0 exists.
        let l = certified_lower_bound(&p, &dom, &opt).expect("bounded below");
        assert!(l.abs() < 0.01, "l = {l}");
    }
}
