//! Property-based soundness tests for the problem-size reduction layer
//! (Newton-polytope basis pruning + term-sparsity block splitting).
//!
//! Newton pruning removes only Gram freedom that provably cannot appear in
//! any certificate; term-sparsity blocks restrict the program, and a failed
//! reduced attempt is re-solved unreduced. So (a) strictly-interior SOS
//! instances must still certify with reduction on, (b) the blocked Gram must
//! reassemble to exactly the polynomial the monolithic Gram represents, and
//! (c) feasibility verdicts must agree with reduction on vs off.

use cppll_linalg::Matrix;
use cppll_poly::{monomials_up_to, Monomial, Polynomial};
use cppll_sos::{Reduction, SosDecomposition, SosOptions, SosProgram};
use proptest::prelude::*;

const NVARS: usize = 2;

fn options_with(reduction: Reduction) -> SosOptions {
    SosOptions {
        reduction,
        ..Default::default()
    }
}

/// Random polynomial of degree ≤ 2 in two variables.
fn small_poly() -> impl Strategy<Value = Polynomial> {
    let basis = monomials_up_to(NVARS, 2);
    let n = basis.len();
    prop::collection::vec(-2.0f64..2.0, n).prop_map(move |coeffs| {
        let mut p = Polynomial::zero(NVARS);
        for (m, c) in basis.iter().zip(coeffs) {
            p.add_term(m.clone(), c);
        }
        p
    })
}

/// Random *even* polynomial of degree ≤ 2 (every monomial has even exponents),
/// so the full variable-flip group ±x, ±y fixes it and term sparsity keeps
/// monomials of different flip parity in different blocks.
fn small_even_poly() -> impl Strategy<Value = Polynomial> {
    let basis: Vec<Monomial> = monomials_up_to(NVARS, 2)
        .into_iter()
        .filter(|m| (0..NVARS).all(|i| m.exp(i) % 2 == 0))
        .collect();
    let n = basis.len();
    prop::collection::vec(-2.0f64..2.0, n).prop_map(move |coeffs| {
        let mut p = Polynomial::zero(NVARS);
        for (m, c) in basis.iter().zip(coeffs) {
            p.add_term(m.clone(), c);
        }
        p
    })
}

/// `q₁² + q₂² + δ·Σ mᵢ⁴` — strictly interior to the SOS cone.
fn strict_sos(q1: &Polynomial, q2: &Polynomial) -> Polynomial {
    let mut p = &(q1 * q1) + &(q2 * q2);
    let delta = 1e-1 * p.max_abs_coefficient().max(1.0);
    for m in monomials_up_to(NVARS, 2) {
        p.add_term(m.mul(&m), delta);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Newton pruning + term-sparsity splitting keep certificates
    /// sound: every strictly-interior SOS instance that certifies with
    /// reduction on has the residual quality of the unreduced encoding.
    #[test]
    fn pruned_basis_still_certifies(q1 in small_poly(), q2 in small_poly()) {
        let p = strict_sos(&q1, &q2);
        let mut prog = SosProgram::new(NVARS);
        let c = prog.require_sos(p.clone().into());
        let sol = prog.solve(&options_with(Reduction::Support));
        prop_assume!(sol.is_ok());
        let sol = sol.unwrap();
        let stats = sol.reduction_stats();
        prop_assert!(stats.grams >= 1);
        prop_assert!(stats.basis_after <= stats.basis_before);
        let dec = sol.sos_decomposition(c).unwrap();
        let res = dec.residual(&p);
        prop_assert!(res < 1e-5 * p.max_abs_coefficient().max(1.0), "residual {res}");
    }

    /// (b) The blocked Gram is exactly the monolithic Gram in disguise:
    /// reassembling the full matrix and extracting a decomposition from it
    /// agrees with the per-block extraction to 1e-9 — same represented
    /// polynomial, no mass lost across blocks.
    #[test]
    fn blocked_reconstruction_matches_assembled(q1 in small_even_poly(),
                                                q2 in small_even_poly()) {
        let p = strict_sos(&q1, &q2);
        let mut prog = SosProgram::new(NVARS);
        let c = prog.require_sos(p.clone().into());
        let sol = prog.solve(&options_with(Reduction::Support));
        prop_assume!(sol.is_ok());
        let sol = sol.unwrap();
        let (basis, gram) = sol.constraint_gram(c).unwrap();
        let blocks = sol.constraint_gram_blocks(c).unwrap();
        let full = SosDecomposition::from_gram(basis, &gram);
        let blocked = SosDecomposition::from_blocks(NVARS, &blocks);
        let drift =
            (full.reconstruction() - blocked.reconstruction()).max_abs_coefficient();
        prop_assert!(drift < 1e-9, "blocked reassembly drifted by {drift}");
        // The reassembled matrix must be block-diagonal across term-sparsity
        // blocks: its total Frobenius mass equals the blocks' mass.
        let total: f64 = (0..gram.nrows())
            .flat_map(|r| (0..gram.ncols()).map(move |cc| (r, cc)))
            .map(|(r, cc)| gram[(r, cc)] * gram[(r, cc)])
            .sum();
        let block_mass: f64 = blocks
            .iter()
            .map(|(_, b): &(Vec<Monomial>, Matrix)| {
                (0..b.nrows())
                    .flat_map(|r| (0..b.ncols()).map(move |cc| (r, cc)))
                    .map(|(r, cc)| b[(r, cc)] * b[(r, cc)])
                    .sum::<f64>()
            })
            .sum();
        prop_assert!((total - block_mass).abs() < 1e-18 + 1e-12 * total);
    }

    /// (c) Feasibility verdicts agree with reduction on vs off: reduction
    /// must neither lose certificates (strict SOS stays feasible) nor invent
    /// them (polynomials that are negative somewhere stay infeasible).
    #[test]
    fn verdicts_agree_on_and_off(q1 in small_poly(), q2 in small_poly()) {
        let p = strict_sos(&q1, &q2);
        for target in [
            p.clone(),
            // Shift far below the minimum: negative at the origin, so
            // certainly not SOS.
            &p - &Polynomial::constant(NVARS, p.eval(&[0.0, 0.0]).abs() + 10.0),
        ] {
            let solve = |reduction: Reduction| {
                let mut prog = SosProgram::new(NVARS);
                prog.require_sos(target.clone().into());
                prog.solve(&options_with(reduction)).is_ok()
            };
            let reduced = solve(Reduction::Support);
            let unreduced = solve(Reduction::Off);
            prop_assert_eq!(
                reduced, unreduced,
                "verdict flipped under reduction for {}", target
            );
        }
    }

    /// (d) Support-driven multiplier bases never flip a verdict on a
    /// *constrained* program: certifying `p ≥ 0` on the unit disc through
    /// S-procedure multipliers agrees between the default support mode and
    /// the unreduced compile, for feasible and infeasible targets alike.
    #[test]
    fn support_and_unreduced_verdicts_agree(q1 in small_poly(), q2 in small_poly()) {
        let p = strict_sos(&q1, &q2);
        let disc = Polynomial::from_terms(
            NVARS,
            &[(&[0, 0], 1.0), (&[2, 0], -1.0), (&[0, 2], -1.0)],
        );
        for target in [
            p.clone(),
            &p - &Polynomial::constant(NVARS, p.eval(&[0.0, 0.0]).abs() + 10.0),
        ] {
            let solve = |reduction: Reduction| {
                let mut prog = SosProgram::new(NVARS);
                prog.require_nonneg_on(target.clone().into(), std::slice::from_ref(&disc), 1);
                prog.solve(&options_with(reduction)).is_ok()
            };
            prop_assert_eq!(
                solve(Reduction::Support),
                solve(Reduction::Off),
                "support/unreduced verdict flipped for {}", target
            );
        }
    }

    /// (e) A certificate extracted from the support-reduced compile still
    /// satisfies the polynomial identities it claims: the largest residual
    /// across all constraints (target and multipliers) stays at solver
    /// precision even when multiplier bases were pruned.
    #[test]
    fn support_certificates_satisfy_identities(q1 in small_poly(), q2 in small_poly()) {
        let p = strict_sos(&q1, &q2);
        let disc = Polynomial::from_terms(
            NVARS,
            &[(&[0, 0], 1.0), (&[2, 0], -1.0), (&[0, 2], -1.0)],
        );
        let mut prog = SosProgram::new(NVARS);
        prog.require_nonneg_on(p.clone().into(), &[disc], 1);
        let sol = prog.solve(&options_with(Reduction::Support));
        prop_assume!(sol.is_ok());
        let sol = sol.unwrap();
        let res = sol.max_residual();
        prop_assert!(
            res < 1e-5 * p.max_abs_coefficient().max(1.0),
            "support-mode certificate violates its identity by {res}"
        );
    }
}

/// Deterministic check that the reductions fire on even polynomials. (They
/// are not the PLL's shapes: term sparsity splits no Gram of the third- and
/// fourth-order PLL programs, so there only Newton pruning and the support
/// filter shrink anything.) For `x⁴ + x²y² + y⁴ + x²` the degree envelope
/// declares the basis `{x, y, x², xy, y²}`, but the Newton polytope is the
/// triangle `(2,0), (4,0), (0,4)` which excludes `2·y = (0,2)` — pruning
/// drops `y`. Term sparsity then splits the survivors into `{x}`,
/// `{x², y²}` and `{xy}`: with every support monomial even, no product of
/// two survivors of different flip parity lands in the support.
#[test]
fn even_target_splits_and_prunes() {
    let p = Polynomial::from_terms(
        2,
        &[
            (&[4, 0], 1.0),
            (&[2, 2], 1.0),
            (&[0, 4], 1.0),
            (&[2, 0], 1.0),
        ],
    );
    let mut prog = SosProgram::new(2);
    let c = prog.require_sos(p.clone().into());
    let sol = prog
        .solve(&options_with(Reduction::Support))
        .expect("even quartic is strictly SOS");
    let stats = sol.reduction_stats();
    assert!(
        stats.basis_after < stats.basis_before,
        "Newton pruning should drop basis monomials: {stats}"
    );
    assert!(
        stats.blocks > stats.grams,
        "term sparsity should split the Gram into blocks: {stats}"
    );
    let dec = sol.sos_decomposition(c).expect("gram available");
    assert!(dec.residual(&p) < 1e-6, "residual {}", dec.residual(&p));
}
