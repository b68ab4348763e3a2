//! Barrier certificates for hybrid safety (Prajna & Jadbabaie — reference
//! [11] of the paper).
//!
//! Inevitability says "everything eventually reaches the lock"; its safety
//! companion says "nothing ever reaches a bad set". A barrier certificate
//! `B` separates an initial set from an unsafe set with a surface no
//! trajectory can cross:
//!
//! * `B(x) ≤ 0` on the initial set,
//! * `B(x) ≥ ε > 0` on the unsafe set,
//! * `Ḃ(x) ≤ 0` on every mode's flow set (robust over parameter vertices),
//! * `B(R(x)) ≤ B(x)` across every jump.
//!
//! All four become SOS constraints over one decision polynomial — including
//! the jump condition, thanks to
//! [`cppll_sos::SosProgram::poly_composed`].

use cppll_hybrid::HybridSystem;
use cppll_poly::{monomials_up_to, Polynomial};
use cppll_sos::{SosOptions, SosProgram};

use crate::VerifyError;

/// Options for [`BarrierSynthesizer`].
#[derive(Debug, Clone)]
pub struct BarrierOptions {
    /// Degree of the barrier polynomial.
    pub degree: u32,
    /// Separation margin `ε` required on the unsafe set.
    pub epsilon: f64,
    /// Half-degree of the S-procedure multipliers.
    pub mult_half_degree: u32,
}

impl BarrierOptions {
    /// Defaults for a given degree (`ε = 1`).
    ///
    /// Barriers are scale-free (`B` works iff `2B` does); a sizeable `ε`
    /// pins the scale and keeps the SDP well conditioned — tiny margins
    /// leave a near-degenerate scaling ray that stalls the interior-point
    /// method.
    pub fn degree(degree: u32) -> Self {
        BarrierOptions {
            degree,
            epsilon: 1.0,
            mult_half_degree: 1,
        }
    }
}

/// A synthesised barrier certificate.
#[derive(Debug, Clone)]
pub struct BarrierCertificate {
    /// The barrier polynomial `B`.
    pub b: Polynomial,
    /// Certified separation margin on the unsafe set.
    pub epsilon: f64,
}

impl BarrierCertificate {
    /// Numeric check: `Ḃ` at a state for one mode and parameter sample.
    pub fn derivative_at(&self, system: &HybridSystem, mode: usize, x: &[f64], u: &[f64]) -> f64 {
        let f = system.flow_with_params(mode, u);
        self.b.lie_derivative(&f).eval(x)
    }

    /// `true` when the point is on the certified-safe side (`B ≤ 0`).
    pub fn is_safe_side(&self, x: &[f64]) -> bool {
        self.b.eval(x) <= 0.0
    }
}

/// Synthesises barrier certificates for a hybrid system.
///
/// # Examples
///
/// ```no_run
/// use cppll_hybrid::{HybridSystem, Mode};
/// use cppll_poly::Polynomial;
/// use cppll_sos::SosOptions;
/// use cppll_verify::barrier::{BarrierOptions, BarrierSynthesizer};
///
/// // ẋ = −x: starting in {x ≤ 1}, the state never reaches {x ≥ 2}.
/// let f = vec![Polynomial::from_terms(1, &[(&[1], -1.0)])];
/// let sys = HybridSystem::new(1, vec![Mode::new("m", f)], vec![]);
/// let initial = vec![&Polynomial::constant(1, 1.0) - &Polynomial::var(1, 0)];
/// let unsafe_set = vec![&Polynomial::var(1, 0) - &Polynomial::constant(1, 2.0)];
/// let cert = BarrierSynthesizer::new(&sys)
///     .synthesize(&initial, &unsafe_set, &BarrierOptions::degree(2), &SosOptions::default())?;
/// assert!(cert.is_safe_side(&[0.5]));
/// # Ok::<(), cppll_verify::VerifyError>(())
/// ```
pub struct BarrierSynthesizer<'s> {
    system: &'s HybridSystem,
}

impl<'s> BarrierSynthesizer<'s> {
    /// Creates a synthesizer.
    pub fn new(system: &'s HybridSystem) -> Self {
        BarrierSynthesizer { system }
    }

    /// Searches a barrier certificate separating `{g_init ≥ 0}` from
    /// `{g_unsafe ≥ 0}` under all system flows and jumps, solving one SOS
    /// program under `sos`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Infeasible`] when no certificate of this degree
    /// exists — including the case where the sets are actually connected by
    /// a trajectory (safety is false); the relaxation cannot distinguish
    /// the two, matching the paper's sound-but-incomplete framing.
    pub fn synthesize(
        &self,
        initial: &[Polynomial],
        unsafe_set: &[Polynomial],
        opt: &BarrierOptions,
        sos: &SosOptions,
    ) -> Result<BarrierCertificate, VerifyError> {
        let n = self.system.nstates();
        let mut prog = SosProgram::new(n);
        let basis = monomials_up_to(n, opt.degree);
        let b = prog.new_poly(basis);

        // B ≤ 0 on the initial set.
        prog.require_nonneg_on(prog.poly(b).neg(), initial, opt.mult_half_degree);
        // B ≥ ε on the unsafe set.
        let eps = Polynomial::constant(n, opt.epsilon);
        prog.require_nonneg_on(
            prog.poly(b).sub(&eps.into()),
            unsafe_set,
            opt.mult_half_degree,
        );
        // Ḃ ≤ 0 on every flow set, robust over parameter vertices.
        for (mi, mode) in self.system.modes().iter().enumerate() {
            let domain = mode.flow_set().to_vec();
            for f in self.system.flow_vertices(mi) {
                let bdot = prog.poly_lie_derivative(b, &f);
                prog.require_nonneg_on(bdot.neg(), &domain, opt.mult_half_degree);
            }
        }
        // B(R(x)) ≤ B(x) across jumps.
        for jump in self.system.jumps() {
            if jump.is_identity_reset() {
                continue; // trivially satisfied
            }
            let after = prog.poly_composed(b, &jump.reset);
            let mut expr = prog.poly(b).sub(&after);
            for h in &jump.guard_eq {
                let mu = prog.new_poly_of_degree(0, opt.degree.saturating_sub(1));
                expr = expr.sub(&prog.poly(mu).mul_poly(h));
            }
            prog.require_nonneg_on(expr, &jump.guard, opt.mult_half_degree);
        }

        let sol = prog
            .solve(sos)
            .map_err(|e| VerifyError::from_sos("barrier certificate", e))?;
        Ok(BarrierCertificate {
            b: sol.poly_value(b).prune(1e-12),
            epsilon: opt.epsilon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_hybrid::{HybridSystem, Jump, Mode, Simulator};

    fn interval(lo: f64, hi: f64) -> Vec<Polynomial> {
        let x = Polynomial::var(1, 0);
        vec![
            &x - &Polynomial::constant(1, lo),
            &Polynomial::constant(1, hi) - &x,
        ]
    }

    #[test]
    fn decay_cannot_escape_upward() {
        // ẋ = −x from [−1, 1] never reaches [2, 3].
        let f = vec![Polynomial::var(1, 0).scale(-1.0)];
        let sys = HybridSystem::new(1, vec![Mode::new("decay", f)], vec![]);
        let cert = BarrierSynthesizer::new(&sys)
            .synthesize(
                &interval(-1.0, 1.0),
                &interval(2.0, 3.0),
                &BarrierOptions::degree(2),
                &SosOptions::default(),
            )
            .expect("safe");
        // Initial on safe side, unsafe on the other, with margin.
        assert!(cert.is_safe_side(&[0.9]));
        assert!(cert.b.eval(&[2.5]) >= cert.epsilon * 0.99);
        // Ḃ ≤ 0 along the flow.
        for &x in &[-2.0, 0.5, 3.0] {
            assert!(cert.derivative_at(&sys, 0, &[x], &[]) <= 1e-9);
        }
    }

    #[test]
    fn unsafe_reachable_is_rejected() {
        // ẋ = +1 from [0, 1] DOES reach [2, 3]: no barrier may exist.
        let f = vec![Polynomial::constant(1, 1.0)];
        let sys = HybridSystem::new(1, vec![Mode::new("drift", f)], vec![]);
        let r = BarrierSynthesizer::new(&sys).synthesize(
            &interval(0.0, 1.0),
            &interval(2.0, 3.0),
            &BarrierOptions::degree(4),
            &SosOptions::default(),
        );
        assert!(r.is_err(), "reachable unsafe set must not be certified");
    }

    #[test]
    fn barrier_respects_jump_resets() {
        // Planar system: x is neutral, y falls (ẏ = −1) on {y ≥ 0}; at the
        // floor y = 0 a jump re-launches to y = 1 while HALVING x. The x
        // coordinate can never grow, so {|x| ≥ 3} is unreachable from
        // {‖(x,y)‖ small} — and the certificate must exploit the reset
        // (compiled through `poly_composed`).
        let f = vec![Polynomial::zero(2), Polynomial::constant(2, -1.0)];
        let x = Polynomial::var(2, 0);
        let y = Polynomial::var(2, 1);
        let mode = Mode::new("fall", f).with_flow_set(vec![y.clone()]);
        let jump = Jump::identity(0, 0)
            .with_guard_eq(vec![y.clone()])
            .with_reset(vec![x.scale(0.5), Polynomial::constant(2, 1.0)]);
        let sys = HybridSystem::new(2, vec![mode], vec![jump]);
        // Sanity: simulation keeps |x| bounded by its start value.
        let sim = Simulator::new(&sys).with_step(1e-3).with_thinning(50);
        let arc = sim.simulate(&[0.5, 1.0], 0, 5.0);
        assert!(arc.max_over(|s| s[0].abs()) <= 0.5 + 1e-6);
        // Initial: x² ≤ 1/4 and 0 ≤ y ≤ 1. Unsafe: x² ≥ 9.
        let initial = vec![
            &Polynomial::constant(2, 0.25) - &(&x * &x),
            y.clone(),
            &Polynomial::constant(2, 1.0) - &y,
        ];
        let unsafe_set = vec![&(&x * &x) - &Polynomial::constant(2, 9.0)];
        let cert = BarrierSynthesizer::new(&sys)
            .synthesize(
                &initial,
                &unsafe_set,
                &BarrierOptions::degree(2),
                &SosOptions::default(),
            )
            .expect("safe with reset");
        assert!(cert.is_safe_side(&[0.0, 0.5]));
        assert!(!cert.is_safe_side(&[3.5, 0.5]));
    }

    #[test]
    fn planar_orbit_avoidance() {
        // Damped rotation from a small disc never reaches a far annulus.
        let f = vec![
            Polynomial::from_terms(2, &[(&[0, 1], -1.0), (&[1, 0], -0.2)]),
            Polynomial::from_terms(2, &[(&[1, 0], 1.0), (&[0, 1], -0.2)]),
        ];
        let sys = HybridSystem::new(2, vec![Mode::new("spiral", f)], vec![]);
        let n2 = Polynomial::norm_squared(2);
        let initial = vec![&Polynomial::constant(2, 1.0) - &n2]; // ‖x‖ ≤ 1
        let unsafe_set = vec![&n2 - &Polynomial::constant(2, 4.0)]; // ‖x‖ ≥ 2
        let cert = BarrierSynthesizer::new(&sys)
            .synthesize(
                &initial,
                &unsafe_set,
                &BarrierOptions::degree(2),
                &SosOptions::default(),
            )
            .expect("contraction is safe");
        assert!(cert.is_safe_side(&[0.5, 0.5]));
        assert!(!cert.is_safe_side(&[2.0, 1.5]));
    }
}
