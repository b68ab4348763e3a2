//! Level-curve maximisation (the paper's second SOS program): grow the
//! sublevel sets of the Lyapunov certificates as far as the verified region
//! allows; their union is the attractive invariant `S1`.

use cppll_hybrid::HybridSystem;
use cppll_poly::Polynomial;
use cppll_sos::{check_inclusion, maximize_bisect, InclusionOptions, SosOptions};

use crate::lyapunov::{CertificateScheme, LyapunovCertificates};
use crate::region::Region;

/// Options for [`LevelSetMaximizer`].
#[derive(Debug, Clone)]
pub struct LevelSetOptions {
    /// Absolute bisection resolution on the level value (floored at
    /// `hi/32` — each probe is a full SDP solve, so the budget is capped at
    /// roughly seven probes).
    pub tolerance: f64,
    /// Upper bound for the bisection; estimated from boundary samples when
    /// `None`.
    pub hi: Option<f64>,
    /// Half-degree of the inclusion-certificate multipliers; `None` picks
    /// `max(1, degree(V)/2)`. (A weaker `degree/2 − 1` is cheaper but was
    /// observed to under-certify the fourth-order level value enough to
    /// break the downstream P2 inclusion.)
    pub mult_half_degree: Option<u32>,
}

impl Default for LevelSetOptions {
    fn default() -> Self {
        LevelSetOptions {
            tolerance: 1e-3,
            hi: None,
            mult_half_degree: None,
        }
    }
}

/// Result of the level maximisation: the attractive invariant
/// `S1 = ∪ᵢ {Vᵢ ≤ c*} ∩ Cᵢ`.
#[derive(Debug, Clone, Default)]
pub struct LevelSetResult {
    /// The common maximised level value `c*`.
    pub level: f64,
    /// Sublevel polynomials `Vᵢ − c*` per mode.
    pub ai_polys: Vec<Polynomial>,
    /// Number of SOS feasibility probes spent in the bisection.
    pub probes: usize,
}

impl LevelSetResult {
    /// The attractive-invariant piece for `mode`, as a [`Region`]
    /// (`{Vᵢ − c* ≤ 0}` intersected with the mode's flow set).
    pub fn ai_region(&self, system: &HybridSystem, mode: usize) -> Region {
        let mut r = Region::sublevel(self.ai_polys[mode].clone());
        for g in system.modes()[mode].flow_set() {
            r = r.with_side(g.clone());
        }
        r
    }

    /// Membership test for the union `S1` (within `tol`).
    pub fn contains(&self, system: &HybridSystem, x: &[f64], tol: f64) -> bool {
        (0..self.ai_polys.len())
            .any(|mi| self.ai_polys[mi].eval(x) <= tol && system.modes()[mi].contains(x, tol))
    }
}

/// Maximises the certified level `c` such that every sublevel piece
/// `{Vᵢ ≤ c} ∩ Cᵢ` stays inside the verified region `{gⱼ ≥ 0}`.
///
/// Each probe of the bisection checks, per mode and per region boundary
/// polynomial `g`, the implication `Vᵢ ≤ c ∧ x ∈ Cᵢ ⟹ g ≥ 0` through the
/// Lemma-1 inclusion certificate.
pub struct LevelSetMaximizer<'s> {
    system: &'s HybridSystem,
    /// Region boundary inequalities `g(x) ≥ 0` (the modeled envelope).
    boundary: Vec<Polynomial>,
}

impl<'s> LevelSetMaximizer<'s> {
    /// Creates a maximizer; `boundary` describes the region on which the
    /// Lyapunov conditions were verified (e.g. `|e| ≤ θ_max`).
    pub fn new(system: &'s HybridSystem, boundary: Vec<Polynomial>) -> Self {
        LevelSetMaximizer { system, boundary }
    }

    /// Runs the bisection; every probe solves with `sos`.
    ///
    /// Returns `None` when even an arbitrarily small level cannot be
    /// certified (which indicates a certificate/region mismatch).
    pub fn maximize(
        &self,
        certs: &LyapunovCertificates,
        opt: &LevelSetOptions,
        sos: &SosOptions,
    ) -> Option<LevelSetResult> {
        let hi = opt.hi.unwrap_or_else(|| self.estimate_hi(certs));
        // Bisection probes accept the support-reduced compile's "no" as a
        // conservative answer: a spurious rejection only lowers the level we
        // settle on, and every accepted level carries a real certificate.
        let mut probe_sos = sos.clone();
        probe_sos.trust_infeasible = true;
        let inc_opt = InclusionOptions {
            mult_half_degree: opt
                .mult_half_degree
                .unwrap_or_else(|| (certs.degree() / 2).max(1)),
            sos: probe_sos,
        };
        let modes: Vec<usize> = match certs.scheme() {
            CertificateScheme::Common => vec![0],
            CertificateScheme::Multiple => (0..self.system.modes().len()).collect(),
        };
        let result = maximize_bisect(hi * 1e-4, hi, opt.tolerance.max(hi / 32.0), |c| {
            modes.iter().all(|&mi| {
                let v = certs.for_mode(mi);
                let level = v - &Polynomial::constant(v.nvars(), c);
                let domain: Vec<Polynomial> = match certs.scheme() {
                    CertificateScheme::Common => Vec::new(),
                    CertificateScheme::Multiple => self.system.modes()[mi].flow_set().to_vec(),
                };
                self.boundary.iter().all(|g| {
                    let neg_g = g.scale(-1.0); // S(−g) = {g ≥ 0}
                    check_inclusion(&level, &neg_g, &domain, &inc_opt)
                })
            })
        });
        let level = result.best?;
        let ai_polys: Vec<Polynomial> = (0..self.system.modes().len())
            .map(|mi| {
                let v = certs.for_mode(mi);
                v - &Polynomial::constant(v.nvars(), level)
            })
            .collect();
        Some(LevelSetResult {
            level,
            ai_polys,
            probes: result.probes,
        })
    }

    /// Upper bound for the bisection: the smallest certificate value found
    /// on a grid sample of the region boundary (the level curve cannot grow
    /// past the first boundary touch).
    fn estimate_hi(&self, certs: &LyapunovCertificates) -> f64 {
        let n = self.system.nstates();
        // Bounding box radius: where the boundary polynomials change sign.
        let bound = 4.0;
        let steps = 9usize;
        let mut hi = f64::INFINITY;
        let mut idx = vec![0usize; n];
        loop {
            let point: Vec<f64> = idx
                .iter()
                .map(|&i| -bound + 2.0 * bound * (i as f64) / ((steps - 1) as f64))
                .collect();
            // Outside the verified region?
            if self.boundary.iter().any(|g| g.eval(&point) < 0.0) {
                for v in certs.all() {
                    hi = hi.min(v.eval(&point));
                }
            }
            let mut k = 0;
            loop {
                if k == n {
                    return if hi.is_finite() && hi > 0.0 { hi } else { 1.0 };
                }
                idx[k] += 1;
                if idx[k] < steps {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lyapunov::{LyapunovOptions, LyapunovSynthesizer};
    use cppll_hybrid::{HybridSystem, Mode};

    /// ẋ = −x + y, ẏ = −y on the strip {|x| ≤ 2}.
    fn stable_strip() -> HybridSystem {
        let f = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
            Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
        ];
        let g = vec![
            &Polynomial::constant(2, 2.0) - &Polynomial::var(2, 0),
            &Polynomial::constant(2, 2.0) + &Polynomial::var(2, 0),
        ];
        HybridSystem::new(2, vec![Mode::new("m", f).with_flow_set(g)], vec![])
    }

    #[test]
    fn level_set_touches_strip_boundary() {
        let sys = stable_strip();
        let certs = LyapunovSynthesizer::new(&sys)
            .synthesize(&LyapunovOptions::degree(2), &SosOptions::default())
            .expect("stable");
        let boundary = sys.modes()[0].flow_set().to_vec();
        let max = LevelSetMaximizer::new(&sys, boundary);
        let res = max
            .maximize(&certs, &LevelSetOptions::default(), &SosOptions::default())
            .expect("level found");
        assert!(res.level > 0.0, "level = {}", res.level);
        // The level set must contain a neighbourhood of the origin …
        assert!(res.contains(&sys, &[0.1, 0.1], 0.0));
        // … and stay inside the strip: V(x) ≤ c ⟹ |x1| ≤ 2. Check on a grid.
        let v = certs.for_mode(0);
        for i in 0..100 {
            let x = -3.0 + 6.0 * (i as f64) / 99.0;
            for j in 0..100 {
                let y = -3.0 + 6.0 * (j as f64) / 99.0;
                if v.eval(&[x, y]) <= res.level {
                    assert!(
                        x.abs() <= 2.0 + 1e-6,
                        "level set leaks outside the strip at ({x},{y})"
                    );
                }
            }
        }
    }
}
