//! Rounding, projection and exact verification of SOS certificates.

use std::collections::BTreeMap;

use cppll_poly::{Monomial, Polynomial};
use cppll_sos::{PolyExpr, SosOptions, SosProgram};

use crate::rpoly::RationalPoly as RPoly;
use crate::{BigInt, Rational, RationalMatrix};

/// Options for the exact verification pipeline.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Rounding grid: Gram entries are rounded to multiples of
    /// `1/denominator` before projection. Powers of two keep the rationals
    /// small. Larger values round less (tighter to the numeric solution)
    /// but grow the exact arithmetic.
    pub denominator: u64,
    /// Half-degree of the S-procedure multipliers in
    /// [`prove_nonneg_on`]'s numeric pre-solve.
    pub mult_half_degree: u32,
    /// Minimum degree of the multiplier basis monomials. Set to 1 when the
    /// target vanishes at the origin (every Lyapunov decrease claim does):
    /// multipliers must then vanish there too, or the rounding nudge pushes
    /// `Σ σ̃ g` above the target at 0 and exactification fails.
    pub mult_min_degree: u32,
    /// Slack shape of the interior maximisation: `false` restricts the
    /// slack to the target's own degree range (always dominable by σ·g);
    /// `true` spans the full main Gram basis (stronger interior — succeeds
    /// only when the multipliers can dominate the top degrees, which holds
    /// at some degree parities and not others; callers ladder over both).
    pub slack_full_basis: bool,
    /// Options of the numeric pre-solve.
    pub sos: SosOptions,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            denominator: 1 << 24,
            mult_half_degree: 1,
            mult_min_degree: 0,
            slack_full_basis: false,
            // The rounding grid and interior-slack maximisation are
            // calibrated against the full-envelope multiplier bases:
            // support-pruned bases shrink the interior margin the
            // projection needs, so the numeric pre-solve compiles the
            // unreduced program.
            sos: SosOptions {
                reduction: cppll_sos::Reduction::Off,
                ..SosOptions::default()
            },
        }
    }
}

/// Why exact verification failed.
#[derive(Debug)]
pub enum ExactError {
    /// The numeric pre-solve already failed — nothing to exactify.
    NumericSolve(cppll_sos::SosError),
    /// A monomial of the target cannot be produced by any basis pair, so
    /// the projection cannot repair the identity.
    UnrepresentableMonomial(Monomial),
    /// The projected rational Gram matrix is not PSD — the numeric
    /// certificate is too close to the cone boundary for this rounding
    /// grid (retry with a larger denominator or a strictness margin).
    NotPsd {
        /// Which Gram failed ("main" or "multiplier k").
        stage: String,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::NumericSolve(e) => write!(f, "numeric pre-solve failed: {e}"),
            ExactError::UnrepresentableMonomial(m) => {
                write!(f, "monomial {m} not representable by the gram basis")
            }
            ExactError::NotPsd { stage } => {
                write!(f, "projected gram not positive semidefinite at {stage}")
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// An exact SOS proof: `p = z(x)ᵀ Q z(x)` with rational `Q ⪰ 0`, both facts
/// checked in exact arithmetic.
#[derive(Debug, Clone)]
pub struct ExactProof {
    basis: Vec<Monomial>,
    gram: RationalMatrix,
}

impl ExactProof {
    /// Dimension of the exact Gram matrix.
    pub fn gram_dimension(&self) -> usize {
        self.gram.dim()
    }

    /// The monomial basis of the Gram representation.
    pub fn basis(&self) -> &[Monomial] {
        &self.basis
    }

    /// The exact Gram matrix.
    pub fn gram(&self) -> &RationalMatrix {
        &self.gram
    }

    /// Re-checks the proof from scratch: exact identity against `p` and
    /// exact PSD-ness. Intended for audits; `true` is a theorem.
    pub fn is_valid_for(&self, p: &Polynomial) -> bool {
        let target = RPoly::from_f64_poly(p);
        self.matches(&target) && self.gram.is_psd()
    }

    fn matches(&self, target: &RPoly) -> bool {
        self.reconstruct().equals(target)
    }

    /// The exact polynomial `z(x)ᵀ Q z(x)` this proof certifies.
    pub fn reconstruct(&self) -> RPoly {
        let nvars = self.basis.first().map_or(0, Monomial::nvars);
        let mut out = RPoly::zero(nvars);
        for (i, mi) in self.basis.iter().enumerate() {
            for (j, mj) in self.basis.iter().enumerate() {
                let q = self.gram.get(i, j);
                if !q.is_zero() {
                    out.add_term(mi.mul(mj), q.clone());
                }
            }
        }
        out
    }
}

/// An exact proof of `p ≥ 0` on `{gⱼ ≥ 0}`:
/// `p = main + Σⱼ σⱼ gⱼ` with exact SOS proofs for `main` and every `σⱼ`.
#[derive(Debug)]
pub struct NonnegProof {
    /// Exact SOS proofs of the multipliers σⱼ (in domain order).
    pub multipliers: Vec<ExactProof>,
    /// Exact SOS proof of the main part `p − Σ σⱼ gⱼ`.
    pub main: ExactProof,
}

/// Gram basis for a target polynomial: the degree envelope used throughout
/// the crate (total degree between ⌈min/2⌉ and ⌊max/2⌋).
fn gram_basis_for(nvars: usize, min_deg: u32, max_deg: u32) -> Vec<Monomial> {
    let hi = max_deg / 2;
    let lo = min_deg.div_ceil(2).min(hi);
    cppll_poly::monomials_up_to(nvars, hi)
        .into_iter()
        .filter(|m| m.degree() >= lo)
        .collect()
}

/// Numeric Gram of `expr = target (− Σ σ g)` with **maximised interior
/// slack**: solves `expr − t·Σ_{m∈basis} m² ∈ Σ, max t`, and returns the
/// Gram of `expr` itself (slack folded back onto the diagonal). A Gram with
/// maximal minimum-eigenvalue is what survives rounding; the min-trace
/// feasibility answer sits on the cone boundary and does not.
fn slack_maximised_gram(
    prog: &mut SosProgram,
    expr: PolyExpr,
    basis: &[Monomial],
    slack_basis: &[Monomial],
    sos: &SosOptions,
) -> Result<(cppll_sos::SosSolution, cppll_linalg::Matrix, f64), ExactError> {
    let nvars = prog.nvars();
    let t = prog.new_scalar();
    // The slack term must stay within the degree range the rest of the
    // identity can dominate: `slack_basis ⊆ basis` spanning only the
    // target's own degrees (a full-basis slack has higher top degree than
    // any σ·g product and forces t ≤ 0 at infinity).
    let mut w = Polynomial::zero(nvars);
    for m in slack_basis {
        w.add_term(m.mul(m), 1.0);
    }
    let slacked = expr.sub(&prog.scalar(t).mul_poly(&w));
    let cid = prog.require_sos_with_basis(slacked, basis.to_vec());
    prog.maximize_scalar(t);
    let mut opts = sos.clone();
    opts.trace_weight = 1e-6;
    let sol = prog.solve(&opts).map_err(ExactError::NumericSolve)?;
    let t_raw = sol.scalar_value(t);
    if t_raw <= 0.0 {
        // No strictly-interior Gram exists: the polynomial sits on (or
        // outside) the SOS-cone boundary — rounding cannot succeed.
        return Err(ExactError::NotPsd {
            stage: format!("main (max interior slack {t_raw:.2e} ≤ 0)"),
        });
    }
    // Fold back a slightly conservative share of the slack so the folded
    // Gram certifies `expr` itself with strict interior.
    let t_star = t_raw;
    let (b, g) = sol.constraint_gram(cid).expect("sos constraint");
    debug_assert_eq!(b.len(), basis.len());
    let mut gram = g.clone();
    for (i, m) in basis.iter().enumerate() {
        if slack_basis.contains(m) {
            gram[(i, i)] += t_star;
        }
    }
    Ok((sol, gram, t_star))
}

/// Proves `p` is a sum of squares with an exact rational certificate.
///
/// Numerically solves the Gram SDP with maximised interior slack, rounds
/// the Gram to the option grid, projects it back onto the
/// coefficient-matching subspace (exact, closed form) and verifies positive
/// semidefiniteness in rational arithmetic.
///
/// # Errors
///
/// See [`ExactError`]. In particular, polynomials on the *boundary* of the
/// SOS cone (those with real zeros) generally cannot be exactified — add a
/// strictness margin first.
pub fn prove_sos(p: &Polynomial, opt: &ExactOptions) -> Result<ExactProof, ExactError> {
    let nvars = p.nvars();
    let (mut min_deg, mut max_deg) = (u32::MAX, 0u32);
    for (m, _) in p.terms() {
        min_deg = min_deg.min(m.degree());
        max_deg = max_deg.max(m.degree());
    }
    if min_deg == u32::MAX {
        min_deg = 0;
    }
    let basis = gram_basis_for(nvars, min_deg, max_deg);
    let mut prog = SosProgram::new(nvars);
    let (_sol, gram, _t) =
        slack_maximised_gram(&mut prog, p.clone().into(), &basis, &basis, &opt.sos)?;
    let target = RPoly::from_f64_poly(p);
    exactify_gram(&basis, &gram, &target, opt.denominator, "main")
}

/// Proves `p ≥ 0` on the semialgebraic set `{gⱼ ≥ 0}` with exact rational
/// certificates for every piece of the S-procedure decomposition.
///
/// Thin wrapper over [`prove_nonneg_on_rational`] (the claim is lifted
/// exactly — every `f64` is a dyadic rational).
///
/// # Errors
///
/// See [`ExactError`].
pub fn prove_nonneg_on(
    p: &Polynomial,
    domain: &[Polynomial],
    opt: &ExactOptions,
) -> Result<NonnegProof, ExactError> {
    let target = RPoly::from_f64_poly(p);
    let domain_rat: Vec<RPoly> = domain.iter().map(RPoly::from_f64_poly).collect();
    prove_nonneg_on_rational(&target, &domain_rat, opt)
}

/// Like [`prove_nonneg_on`], but the claim is stated with **exact
/// rational** data: `target ≥ 0` on `{gⱼ ≥ 0}` where both `target` and the
/// domain are [`RationalPoly`] values (no float rounding between the claim
/// and the theorem). The numeric pre-solve uses nearest-float projections
/// internally; all verification is exact.
///
/// # Errors
///
/// See [`ExactError`].
pub fn prove_nonneg_on_rational(
    target: &crate::RationalPoly,
    domain: &[crate::RationalPoly],
    opt: &ExactOptions,
) -> Result<NonnegProof, ExactError> {
    let nvars = target.nvars();
    let p_f64 = target.to_f64_poly();
    let domain_f64: Vec<Polynomial> = domain.iter().map(RPoly::to_f64_poly).collect();
    let mut prog = SosProgram::new(nvars);
    // S-procedure with explicit multiplier bases respecting mult_min_degree.
    let sigma_basis: Vec<Monomial> = cppll_poly::monomials_up_to(nvars, opt.mult_half_degree)
        .into_iter()
        .filter(|m| m.degree() >= opt.mult_min_degree)
        .collect();
    let mut expr: PolyExpr = p_f64.clone().into();
    let mut mult_ids = Vec::with_capacity(domain_f64.len());
    for g in &domain_f64 {
        let sigma = prog.new_sos_poly_with_basis(sigma_basis.clone());
        // Mild trace regularisation on the multipliers: the interior-slack
        // objective below already rewards a well-conditioned main Gram, so
        // the multipliers only need to be kept from drifting.
        prog.set_sos_poly_trace_weight(sigma, 1e-3 * (1.0 + g.max_abs_coefficient()));
        mult_ids.push(sigma);
        expr = expr.sub(&prog.sos_poly(sigma).mul_poly(g));
    }
    // Main Gram basis covering the target and every σ·g product.
    let (mut min_deg, mut max_deg) = (u32::MAX, 0u32);
    for (m, _) in p_f64.terms() {
        min_deg = min_deg.min(m.degree());
        max_deg = max_deg.max(m.degree());
    }
    if min_deg == u32::MAX {
        min_deg = 0;
    }
    let sigma_deg = 2 * opt.mult_half_degree;
    let sigma_min = 2 * opt.mult_min_degree;
    for g in &domain_f64 {
        let gdeg = g.degree();
        max_deg = max_deg.max(sigma_deg + gdeg);
        let g_min = g.terms().map(|(m, _)| m.degree()).min().unwrap_or(0);
        min_deg = min_deg.min(sigma_min + g_min);
    }
    // Slack shape: when the multipliers may carry constant terms
    // (mult_min_degree == 0, i.e. the domain excludes the origin and the
    // claim is strictly positive there), a pure CONSTANT slack suffices and
    // never outgrows the σ·g terms. Otherwise (claims vanishing at the
    // origin) the slack spans the target's own degree range.
    let constant_slack = opt.mult_min_degree == 0;
    let main_basis = if constant_slack {
        gram_basis_for(nvars, 0, max_deg)
    } else {
        gram_basis_for(nvars, min_deg, max_deg)
    };
    let (mut t_min, mut t_max) = (u32::MAX, 0u32);
    for (m, _) in p_f64.terms() {
        t_min = t_min.min(m.degree());
        t_max = t_max.max(m.degree());
    }
    if t_min == u32::MAX {
        t_min = 0;
    }
    let (slack_lo, slack_hi) = if opt.slack_full_basis {
        (0u32, u32::MAX)
    } else if constant_slack {
        (0u32, 0u32)
    } else {
        let lo = t_min.div_ceil(2);
        (lo, (t_max / 2).max(lo))
    };
    let slack_basis: Vec<Monomial> = main_basis
        .iter()
        .filter(|m| (slack_lo..=slack_hi).contains(&m.degree()))
        .cloned()
        .collect();
    // Solve with maximised interior slack on the main Gram.
    let (sol, main_gram, _t) =
        slack_maximised_gram(&mut prog, expr, &main_basis, &slack_basis, &opt.sos)?;
    let main_basis = main_basis.as_slice();
    let main_gram = &main_gram;
    let mut representable: std::collections::BTreeSet<Monomial> = std::collections::BTreeSet::new();
    for mi in main_basis {
        for mj in main_basis {
            representable.insert(mi.mul(mj));
        }
    }
    let mut multipliers = Vec::with_capacity(mult_ids.len());
    let mut exact_target = target.clone();
    for (k, (gid, g_rat)) in mult_ids.iter().zip(domain).enumerate() {
        let (basis, gram) = sol.sos_poly_gram(*gid);
        let keep: Vec<usize> = (0..basis.len())
            .filter(|&i| {
                basis.iter().all(|mj| {
                    g_rat
                        .terms()
                        .all(|(mg, _)| representable.contains(&basis[i].mul(mj).mul(mg)))
                })
            })
            .collect();
        let sub_basis: Vec<Monomial> = keep.iter().map(|&i| basis[i].clone()).collect();
        let mut q = RationalMatrix::zeros(keep.len());
        for (r, &ir) in keep.iter().enumerate() {
            for (c, &ic) in keep.iter().enumerate() {
                q.set(r, c, Rational::from_f64(gram[(ir, ic)]));
            }
        }
        round_matrix(&mut q, opt.denominator);
        q.symmetrize();
        let nudge = Rational::new(
            BigInt::from(q.dim().max(1) as i64),
            BigInt::from(opt.denominator as i64),
        );
        for i in 0..q.dim() {
            q.add_to(i, i, &nudge);
        }
        if !q.is_psd() {
            return Err(ExactError::NotPsd {
                stage: format!("multiplier {k}"),
            });
        }
        let proof = ExactProof {
            basis: sub_basis,
            gram: q,
        };
        exact_target = exact_target.sub(&proof.reconstruct().mul(g_rat));
        multipliers.push(proof);
    }
    let main = exactify_gram(
        main_basis,
        main_gram,
        &exact_target,
        opt.denominator,
        "main",
    )?;
    Ok(NonnegProof { multipliers, main })
}

/// Rounds, projects onto `{Q : z(x)ᵀQz(x) = target}` and PSD-checks.
fn exactify_gram(
    basis: &[Monomial],
    gram: &cppll_linalg::Matrix,
    target: &RPoly,
    denominator: u64,
    stage: &str,
) -> Result<ExactProof, ExactError> {
    let n = basis.len();
    let mut q = RationalMatrix::from_f64(gram);
    round_matrix(&mut q, denominator);
    q.symmetrize();

    // Group Gram positions by the monomial they produce.
    let mut groups: BTreeMap<Monomial, Vec<(usize, usize)>> = BTreeMap::new();
    for (i, mi) in basis.iter().enumerate() {
        for (j, mj) in basis.iter().enumerate() {
            groups.entry(mi.mul(mj)).or_default().push((i, j));
        }
    }
    // Every target monomial must be representable.
    for (m, c) in target.terms() {
        if !c.is_zero() && !groups.contains_key(m) {
            return Err(ExactError::UnrepresentableMonomial(m.clone()));
        }
    }
    // Orthogonal projection: per monomial α, spread the defect uniformly
    // over the (ordered) positions producing α.
    for (alpha, positions) in &groups {
        let mut achieved = Rational::zero();
        for &(i, j) in positions {
            achieved = achieved.add(q.get(i, j));
        }
        let wanted = target.coefficient(alpha);
        let defect = wanted.sub(&achieved);
        if defect.is_zero() {
            continue;
        }
        let share = defect.div(&Rational::from_int(positions.len() as i64));
        for &(i, j) in positions {
            q.add_to(i, j, &share);
        }
    }
    debug_assert!(n == q.dim());
    if !q.is_psd() {
        return Err(ExactError::NotPsd {
            stage: stage.to_string(),
        });
    }
    Ok(ExactProof {
        basis: basis.to_vec(),
        gram: q,
    })
}

fn round_matrix(q: &mut RationalMatrix, denominator: u64) {
    let n = q.dim();
    for r in 0..n {
        for c in 0..n {
            let v = q.get(r, c).round_to(denominator);
            q.set(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_quadratic_exactifies() {
        // 2x² − 2xy + y² + 1 = (x − y)² + x² + 1: strictly SOS.
        let p = Polynomial::from_terms(
            2,
            &[
                (&[2, 0], 2.0),
                (&[1, 1], -2.0),
                (&[0, 2], 1.0),
                (&[0, 0], 1.0),
            ],
        );
        let proof = prove_sos(&p, &ExactOptions::default()).expect("exact proof");
        assert!(proof.is_valid_for(&p), "audit must re-verify");
    }

    #[test]
    fn indefinite_polynomial_is_rejected() {
        // x² − y² is indefinite: the max-interior-slack pre-solve finds a
        // negative optimum and the exactifier must fail (with either a
        // numeric-solve error or the ≤-0-slack guard — never a "proof").
        let p = Polynomial::from_terms(2, &[(&[2, 0], 1.0), (&[0, 2], -1.0)]);
        assert!(prove_sos(&p, &ExactOptions::default()).is_err());
    }

    #[test]
    fn nonneg_on_compact_interval_exactifies() {
        // p(x) = x + 2 ≥ 1 on the compact interval encoded by
        // (1+x)(1−x) ≥ 0: strictly positive with interior slack.
        let x = Polynomial::var(1, 0);
        let p = &x + &Polynomial::constant(1, 2.0);
        let box1 = Polynomial::from_terms(1, &[(&[0], 1.0), (&[2], -1.0)]); // 1 − x²
        let proof = prove_nonneg_on(&p, &[box1], &ExactOptions::default()).expect("exact proof");
        assert_eq!(proof.multipliers.len(), 1);
        assert!(proof.main.gram_dimension() >= 1);
        // Exact audit: reconstruct main + σ·g and compare to p.
        let g = Polynomial::from_terms(1, &[(&[0], 1.0), (&[2], -1.0)]);
        let total = proof.main.reconstruct().add(
            &proof.multipliers[0]
                .reconstruct()
                .mul(&RPoly::from_f64_poly(&g)),
        );
        assert!(
            total.equals(&RPoly::from_f64_poly(&p)),
            "identity must be exact"
        );
    }

    #[test]
    fn tight_at_infinity_is_rejected_not_faked() {
        // x + 2 on the unbounded {x ≥ −1}: the decomposition is tight at
        // infinity; the exactifier must fail honestly, never "prove" it.
        let x = Polynomial::var(1, 0);
        let p = &x + &Polynomial::constant(1, 2.0);
        let domain = vec![&x + &Polynomial::constant(1, 1.0)];
        assert!(prove_nonneg_on(&p, &domain, &ExactOptions::default()).is_err());
    }

    #[test]
    fn rounding_grid_too_coarse_can_fail_gracefully() {
        // A thin SOS: x² + 10⁻⁶ — roundable at fine grids; at an absurdly
        // coarse grid the projected matrix may lose PSD-ness, which must be
        // reported as NotPsd (never a wrong "proof").
        let p = Polynomial::from_terms(1, &[(&[2], 1.0), (&[0], 1e-6)]);
        let fine = prove_sos(&p, &ExactOptions::default());
        assert!(fine.is_ok(), "fine grid must succeed");
        let coarse = prove_sos(
            &p,
            &ExactOptions {
                denominator: 4,
                ..Default::default()
            },
        );
        if let Ok(proof) = coarse {
            // If it *does* succeed, it must still be a genuine theorem.
            assert!(proof.is_valid_for(&p));
        }
    }

    #[test]
    fn proof_rejects_wrong_polynomial() {
        let p = Polynomial::from_terms(
            2,
            &[
                (&[2, 0], 2.0),
                (&[1, 1], -2.0),
                (&[0, 2], 1.0),
                (&[0, 0], 1.0),
            ],
        );
        let proof = prove_sos(&p, &ExactOptions::default()).expect("exact proof");
        let other = Polynomial::from_terms(2, &[(&[2, 0], 1.0), (&[0, 0], 1.0)]);
        assert!(!proof.is_valid_for(&other));
    }
}
