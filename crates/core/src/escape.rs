//! Escape certificates (Proposition 1 of the paper): prove that all
//! trajectories leave a compact set in finite time by exhibiting a function
//! strictly decreasing along the flow.

use cppll_hybrid::HybridSystem;
use cppll_poly::{monomials_up_to, Polynomial};
use cppll_sos::{SosOptions, SosProgram};

use crate::VerifyError;

/// Options for [`EscapeSynthesizer`].
#[derive(Debug, Clone)]
pub struct EscapeOptions {
    /// Degree of the escape certificate `E`. The paper uses degree 4.
    pub degree: u32,
    /// Required decrease rate `ε > 0`: `Ė ≤ −ε` on the set.
    pub epsilon: f64,
    /// Half-degree of the S-procedure multipliers.
    pub mult_half_degree: u32,
}

impl EscapeOptions {
    /// Defaults for a given degree (`ε = 10⁻²`).
    pub fn degree(degree: u32) -> Self {
        EscapeOptions {
            degree,
            epsilon: 1e-2,
            mult_half_degree: 1,
        }
    }
}

/// A synthesised escape certificate for one mode.
#[derive(Debug, Clone)]
pub struct EscapeCertificate {
    /// The certificate polynomial `E`.
    pub e: Polynomial,
    /// Mode it certifies.
    pub mode: usize,
    /// Certified decrease rate.
    pub epsilon: f64,
}

impl EscapeCertificate {
    /// Numeric check of the decrease `Ė(x) ≤ −ε` at a point, for a given
    /// parameter sample.
    pub fn decrease_at(&self, system: &HybridSystem, x: &[f64], u: &[f64]) -> f64 {
        let f = system.flow_with_params(self.mode, u);
        self.e.lie_derivative(&f).eval(x)
    }

    /// Certified **dwell-time bound**: by Proposition 1, a trajectory can
    /// stay in the set `{gⱼ ≥ 0}` for at most `(sup E − inf E)/ε` time.
    /// The range of `E` over the set is bounded with SOS certificates
    /// ([`cppll_sos::certified_range`]); returns `None` when the range
    /// cannot be certified (e.g. the set is unbounded).
    ///
    /// This extends the paper's escape argument into the explicit
    /// "time-to-lock" style bounds of the related work it compares against.
    pub fn dwell_time_bound(
        &self,
        set: &[Polynomial],
        opt: &cppll_sos::BoundOptions,
    ) -> Option<f64> {
        let (lo, hi) = cppll_sos::certified_range(&self.e, set, opt)?;
        Some((hi - lo) / self.epsilon)
    }
}

/// Synthesises escape certificates: finds `E` with `∇E·fᵢ(x, u) ≤ −ε` for
/// all `x` in a compact semialgebraic set and all parameter vertices.
///
/// By Proposition 1, every trajectory remaining in the mode must leave the
/// set within time `(sup E − inf E)/ε`.
pub struct EscapeSynthesizer<'s> {
    system: &'s HybridSystem,
}

impl<'s> EscapeSynthesizer<'s> {
    /// Creates a synthesizer.
    pub fn new(system: &'s HybridSystem) -> Self {
        EscapeSynthesizer { system }
    }

    /// Searches an escape certificate for `mode` on the set
    /// `{gⱼ(x) ≥ 0} ∩ Cᵢ`, solving with `sos`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Infeasible`] when no certificate of the requested
    /// degree exists — e.g. when the set contains an equilibrium or limit
    /// cycle of the mode (escape is then genuinely impossible).
    pub fn synthesize(
        &self,
        mode: usize,
        set: &[Polynomial],
        opt: &EscapeOptions,
        sos: &SosOptions,
    ) -> Result<EscapeCertificate, VerifyError> {
        let n = self.system.nstates();
        let mut prog = SosProgram::new(n);
        // E has no constant term (it is only defined up to constants).
        let basis: Vec<_> = monomials_up_to(n, opt.degree)
            .into_iter()
            .filter(|m| m.degree() >= 1)
            .collect();
        let e = prog.new_poly(basis);
        let mut domain: Vec<Polynomial> = set.to_vec();
        domain.extend(self.system.modes()[mode].flow_set().iter().cloned());
        for f in self.system.flow_vertices(mode) {
            let edot = prog.poly_lie_derivative(e, &f);
            let expr = edot.neg().sub(&Polynomial::constant(n, opt.epsilon).into());
            prog.require_nonneg_on(expr, &domain, opt.mult_half_degree);
        }
        let sol = prog
            .solve(sos)
            .map_err(|er| VerifyError::from_sos("escape certificate", er))?;
        Ok(EscapeCertificate {
            e: sol.poly_value(e).prune(1e-12),
            mode,
            epsilon: opt.epsilon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_hybrid::{HybridSystem, Mode};

    /// ẋ = 1 (constant drift): trajectories must escape any compact set.
    #[test]
    fn drift_escapes_interval() {
        let f = vec![Polynomial::constant(1, 1.0)];
        let sys = HybridSystem::new(1, vec![Mode::new("drift", f)], vec![]);
        // Set: {x² ≤ 1} encoded as 1 − x² ≥ 0.
        let set = vec![
            &Polynomial::constant(1, 1.0) - &(&Polynomial::var(1, 0) * &Polynomial::var(1, 0)),
        ];
        let cert = EscapeSynthesizer::new(&sys)
            .synthesize(0, &set, &EscapeOptions::degree(2), &SosOptions::default())
            .expect("escape exists");
        // Ė ≤ −ε across the set.
        for &x in &[-0.9, 0.0, 0.9] {
            let d = cert.decrease_at(&sys, &[x], &[]);
            assert!(d <= -cert.epsilon * 0.99, "Ė({x}) = {d}");
        }
        // Dwell time: ẋ = 1 crosses [−1, 1] in exactly 2 time units; the
        // certified bound must be ≥ 2 and finite.
        let bound = cert
            .dwell_time_bound(&set, &cppll_sos::BoundOptions::default())
            .expect("compact set, bounded E");
        assert!(
            bound >= 2.0 - 1e-3,
            "dwell bound {bound} below true crossing time"
        );
        assert!(bound.is_finite());
    }

    /// ẋ = −x has an equilibrium inside the unit interval: escape must fail.
    #[test]
    fn no_escape_from_equilibrium() {
        let f = vec![Polynomial::var(1, 0).scale(-1.0)];
        let sys = HybridSystem::new(1, vec![Mode::new("m", f)], vec![]);
        let set = vec![
            &Polynomial::constant(1, 1.0) - &(&Polynomial::var(1, 0) * &Polynomial::var(1, 0)),
        ];
        let (opt, sos) = (EscapeOptions::degree(4), SosOptions::default());
        let r = EscapeSynthesizer::new(&sys).synthesize(0, &set, &opt, &sos);
        assert!(r.is_err(), "escape from a set containing an equilibrium");
    }

    /// Rotation ẋ = −y, ẏ = x on an annulus: no escape (closed orbits), but
    /// adding inward drift creates escape through the inner boundary.
    #[test]
    fn annulus_with_drift_escapes() {
        let f = vec![
            Polynomial::from_terms(2, &[(&[0, 1], -1.0), (&[1, 0], -0.5)]),
            Polynomial::from_terms(2, &[(&[1, 0], 1.0), (&[0, 1], -0.5)]),
        ];
        let sys = HybridSystem::new(2, vec![Mode::new("spiral", f)], vec![]);
        // Annulus 0.25 ≤ ‖x‖² ≤ 4.
        let n2 = Polynomial::norm_squared(2);
        let set = vec![
            &n2 - &Polynomial::constant(2, 0.25),
            &Polynomial::constant(2, 4.0) - &n2,
        ];
        let cert = EscapeSynthesizer::new(&sys)
            .synthesize(0, &set, &EscapeOptions::degree(2), &SosOptions::default())
            .expect("spiral escapes annulus");
        let d = cert.decrease_at(&sys, &[1.0, 0.0], &[]);
        assert!(d < 0.0);
    }
}
