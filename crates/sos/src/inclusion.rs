//! Polynomial sublevel-set inclusion via SOS (Lemma 1 of the paper).

use cppll_poly::Polynomial;

use crate::program::{SosOptions, SosProgram};
use crate::PolyExpr;

/// Checks the sublevel-set inclusion `S(p₁) ∩ D ⊆ S(p₂)` where
/// `S(p) = {x : p(x) ≤ 0}` and `D = {x : gⱼ(x) ≥ 0}`.
///
/// Implements Lemma 1 of the paper (with an S-procedure extension for the
/// ambient domain): find SOS `σ₀, σ₁, τⱼ` such that
///
/// ```text
/// −p₂ − σ₁·(−p₁) − Σⱼ τⱼ gⱼ = σ₀   (SOS)
/// ```
///
/// For `x ∈ S(p₁) ∩ D` we have `−p₁(x) ≥ 0` and `gⱼ(x) ≥ 0`, hence
/// `−p₂(x) ≥ σ₁·(−p₁) + Σ τⱼ gⱼ ≥ 0`, i.e. `x ∈ S(p₂)`.
///
/// The feasibility program solves under `sos`. Returns `true` when a
/// certificate of the requested degree exists and satisfies the identity
/// above to `1e-5` of the problem's scale (the largest absolute
/// coefficient of `p₁` and `p₂`, at least 1): a solver answer that misses
/// the identity by more certifies nothing. A `false` answer is
/// **inconclusive** (the relaxation is sound but incomplete), matching the
/// paper's use of SOS relaxations.
///
/// # Examples
///
/// ```
/// use cppll_poly::Polynomial;
/// use cppll_sos::{check_inclusion, SosOptions};
///
/// // {x² ≤ 1} ⊆ {x² ≤ 4}:  p1 = x²−1, p2 = x²−4.
/// let p1 = Polynomial::from_terms(1, &[(&[2], 1.0), (&[0], -1.0)]);
/// let p2 = Polynomial::from_terms(1, &[(&[2], 1.0), (&[0], -4.0)]);
/// let sos = SosOptions::default();
/// assert!(check_inclusion(&p1, &p2, &[], 1, &sos));
/// assert!(!check_inclusion(&p2, &p1, &[], 1, &sos));
/// ```
pub fn check_inclusion(
    p1: &Polynomial,
    p2: &Polynomial,
    domain: &[Polynomial],
    mult_half_degree: u32,
    sos: &SosOptions,
) -> bool {
    let nvars = p1.nvars();
    assert_eq!(p2.nvars(), nvars, "polynomial ring mismatch");
    let mut prog = SosProgram::new(nvars);
    // −p₂ − σ₁·(−p₁) − Σ τⱼ gⱼ  is SOS.
    let s1 = prog.new_sos_poly(mult_half_degree);
    let mut expr = PolyExpr::from(p2.scale(-1.0));
    expr = expr.sub(&prog.sos_poly(s1).mul_poly(&p1.scale(-1.0)));
    for g in domain {
        assert_eq!(g.nvars(), nvars, "domain polynomial ring mismatch");
        let tj = prog.new_sos_poly(mult_half_degree);
        expr = expr.sub(&prog.sos_poly(tj).mul_poly(g));
    }
    let cid = prog.require_sos(expr);
    let Ok(sol) = prog.solve(sos) else {
        return false;
    };
    let scale = p1
        .max_abs_coefficient()
        .max(p2.max_abs_coefficient())
        .max(1.0);
    sol.residual_of(cid) <= 1e-5 * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disc(r2: f64) -> Polynomial {
        // ‖x‖² − r²  (sublevel set = disc of radius r).
        &Polynomial::norm_squared(2) - &Polynomial::constant(2, r2)
    }

    #[test]
    fn nested_discs() {
        let small = disc(1.0);
        let big = disc(4.0);
        let sos = SosOptions::default();
        assert!(check_inclusion(&small, &big, &[], 1, &sos));
        assert!(!check_inclusion(&big, &small, &[], 1, &sos));
    }

    #[test]
    fn inclusion_with_domain_restriction() {
        // {x² + y² ≤ 4} ∩ {x ≥ 3} is empty ⇒ included in anything,
        // certified with the τ multiplier on g = x − 3.
        let big = disc(4.0);
        let tiny = disc(0.01);
        let g = Polynomial::from_terms(2, &[(&[1, 0], 1.0), (&[0, 0], -3.0)]);
        assert!(check_inclusion(
            &big,
            &tiny,
            &[g],
            1,
            &SosOptions::default()
        ));
    }

    #[test]
    fn ellipse_in_disc() {
        // {x²/4 + y² ≤ 1} ⊆ {x² + y² ≤ 4}.
        let ellipse =
            Polynomial::from_terms(2, &[(&[2, 0], 0.25), (&[0, 2], 1.0), (&[0, 0], -1.0)]);
        let big = disc(4.0);
        assert!(check_inclusion(
            &ellipse,
            &big,
            &[],
            1,
            &SosOptions::default()
        ));
        // But not in the unit disc.
        let unit = disc(1.0);
        assert!(!check_inclusion(
            &ellipse,
            &unit,
            &[],
            1,
            &SosOptions::default()
        ));
    }
}
