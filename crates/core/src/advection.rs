//! Bounded advection of polynomial level sets (Section 2.5 / Eq. 6 of the
//! paper, extended to hybrid systems as in Section 3).
//!
//! One advection step maps the front `S(p) = {p ≤ 0}` forward by time `h`
//! under the flow. For each mode the backward Taylor flow map
//! `Φ₋ₕ(x) ≈ x − h·fᵢ(x) (+ h²/2·(∂fᵢ/∂x)fᵢ(x))` is *composed* with `p`,
//! giving the exactly-advected piece `Tᵢ = p ∘ Φ₋ₕ` on `Cᵢ` (for the CP
//! PLL's affine modes the composition is exact in degree). The pieces are
//! then merged into a single polynomial `q` of fixed degree by the SOS
//! sandwich
//!
//! ```text
//! Tᵢ − γ ≤ q ≤ Tᵢ   on Cᵢ   (all modes i)
//! ```
//!
//! with the tightness `γ` minimised in the same SOS program — `S(q)` is then an
//! **over-approximation** of the advected union with certified slack `γ`,
//! which is the conservative direction Algorithm 1 needs. The first-order
//! Taylor truncation error (the `‖∇²p‖h²/2` terms of Eq. 6) is estimated on
//! a sample grid and reported per step so the inclusion check can inflate
//! its margin.

use cppll_hybrid::HybridSystem;
use cppll_poly::{monomials_up_to, Polynomial};
use cppll_sos::{PolyExpr, Reduction, SosOptions, SosProgram};

/// Options for [`Advection`].
#[derive(Debug, Clone)]
pub struct AdvectionOptions {
    /// Advection time step `h`.
    pub h: f64,
    /// Taylor order of the flow map (1 or 2).
    pub taylor_order: u32,
    /// Degree of the merged front polynomial.
    pub degree: u32,
    /// Slack added to the optimal merge tightness γ*, which the solver
    /// meets only to its tolerances.
    pub gamma_tol: f64,
    /// Largest merge tightness γ accepted.
    pub gamma_max: f64,
    /// Half-degree of the S-procedure multipliers in the merge program.
    pub mult_half_degree: u32,
    /// Half-widths of the coordinate box used when sampling error
    /// estimates (Taylor truncation, guard mismatch).
    pub error_box: Vec<f64>,
    /// Extra inequalities `g(x) ≥ 0` bounding the region of interest during
    /// the piece merge. The mode flow sets of the CP PLL are slabs —
    /// unbounded in the voltage coordinates — and no fixed-degree polynomial
    /// can wedge between the advected pieces over an unbounded slab; the
    /// bounding box (anything containing the reachable tube of the initial
    /// set) restores feasibility. Conservatism note: `S(q)` over-approximates
    /// the advected union *within* this box.
    pub bounding: Vec<cppll_poly::Polynomial>,
}

impl Default for AdvectionOptions {
    fn default() -> Self {
        AdvectionOptions {
            h: 0.1,
            taylor_order: 1,
            degree: 2,
            gamma_tol: 1e-3,
            gamma_max: 10.0,
            mult_half_degree: 1,
            error_box: Vec::new(),
            bounding: Vec::new(),
        }
    }
}

/// One advection step's outcome.
#[derive(Debug, Clone)]
pub struct AdvectionStep {
    /// The merged advected front polynomial.
    pub front: Polynomial,
    /// Certified merge slack γ (0 for single-mode exact advection).
    pub gamma: f64,
    /// Grid-estimated Taylor truncation error of this step.
    pub taylor_error: f64,
}

/// Advects polynomial level sets under a hybrid system's (nominal) flow.
pub struct Advection<'s> {
    system: &'s HybridSystem,
    /// Per-mode state-ring flow maps at nominal parameters.
    flows: Vec<Vec<Polynomial>>,
}

impl<'s> Advection<'s> {
    /// Creates an advection operator using nominal parameters.
    pub fn new(system: &'s HybridSystem) -> Self {
        let nominal = system.params().nominal();
        let flows = (0..system.modes().len())
            .map(|mi| system.flow_with_params(mi, &nominal))
            .collect();
        Advection { system, flows }
    }

    /// The backward Taylor flow map `Φ₋ₕ` of `mode` as a substitution.
    fn backward_map(&self, mode: usize, opt: &AdvectionOptions) -> Vec<Polynomial> {
        let n = self.system.nstates();
        let f = &self.flows[mode];
        let mut subs: Vec<Polynomial> = (0..n)
            .map(|i| {
                let xi = Polynomial::var(n, i);
                &xi - &f[i].scale(opt.h)
            })
            .collect();
        if opt.taylor_order >= 2 {
            // + h²/2 · (∂f/∂x) f per component.
            for (i, s) in subs.iter_mut().enumerate() {
                let mut acc = Polynomial::zero(n);
                for j in 0..n {
                    acc = &acc + &(&f[i].partial_derivative(j) * &f[j]);
                }
                *s = &*s + &acc.scale(0.5 * opt.h * opt.h);
            }
        }
        subs
    }

    /// Exactly advected piece `p ∘ Φ₋ₕ` for one mode.
    pub fn advect_mode(&self, p: &Polynomial, mode: usize, opt: &AdvectionOptions) -> Polynomial {
        p.compose(&self.backward_map(mode, opt))
    }

    /// One advection step of a **piecewise** front: piece `i` (valid on flow
    /// set `Cᵢ`) is advected by its own mode field. This is the hybrid
    /// extension the paper sketches in Section 3: with identity jumps there
    /// are no reset constraints on the level sets (Remark 2), and for fields
    /// continuous across the guards the per-piece backward images agree on
    /// the switching surfaces up to the Taylor truncation order (tracked by
    /// [`Advection::guard_mismatch`]).
    ///
    /// No SDP is involved — for the CP PLL's affine mode fields the
    /// composition is exact and degree-preserving.
    ///
    /// # Panics
    ///
    /// Panics if `pieces.len()` differs from the number of modes.
    pub fn step_pieces(&self, pieces: &[Polynomial], opt: &AdvectionOptions) -> Vec<Polynomial> {
        assert_eq!(
            pieces.len(),
            self.system.modes().len(),
            "one piece per mode required"
        );
        pieces
            .iter()
            .enumerate()
            .map(|(mi, p)| self.advect_mode(p, mi, opt))
            .collect()
    }

    /// Maximum disagreement `|pᵢ − pⱼ|` between adjacent pieces on the jump
    /// guards (sampled within `opt.error_box`) — the consistency diagnostic
    /// of the piecewise front representation.
    pub fn guard_mismatch(&self, pieces: &[Polynomial], opt: &AdvectionOptions) -> f64 {
        let n = self.system.nstates();
        let ebox = self.error_box(opt);
        let mut worst = 0.0f64;
        for jump in self.system.jumps() {
            let d = &pieces[jump.from] - &pieces[jump.to];
            if d.is_zero() {
                continue;
            }
            for h in &jump.guard_eq {
                // Affine guards: solve h(x) = 0 for its dominating
                // coordinate at grid points of the remaining coordinates.
                let origin = vec![0.0; n];
                let grad = h.gradient();
                let (pin, slope) = match grad
                    .iter()
                    .enumerate()
                    .map(|(i, g)| (i, g.eval(&origin)))
                    .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                {
                    Some((i, v)) if v.abs() > 1e-12 => (i, v),
                    _ => continue,
                };
                let steps = 5usize;
                let mut idx = vec![0usize; n];
                'grid: loop {
                    let mut x: Vec<f64> = idx
                        .iter()
                        .zip(&ebox)
                        .map(|(&i, &b)| -b + 2.0 * b * (i as f64) / ((steps - 1) as f64))
                        .collect();
                    x[pin] = 0.0;
                    x[pin] = -(h.eval(&x)) / slope;
                    if x[pin].abs() <= ebox[pin] {
                        worst = worst.max(d.eval(&x).abs());
                    }
                    let mut k = 0;
                    loop {
                        if k == n {
                            break 'grid;
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
        worst
    }

    /// Effective error-sampling box (defaults to half-width 2 per axis).
    fn error_box(&self, opt: &AdvectionOptions) -> Vec<f64> {
        let n = self.system.nstates();
        if opt.error_box.len() == n {
            opt.error_box.clone()
        } else {
            vec![2.0; n]
        }
    }

    /// One full advection step of the front across all modes, merged back
    /// to a degree-`opt.degree` polynomial by one merge program solved with
    /// `sos`.
    ///
    /// Returns `None` when the merge program fails or its tightness exceeds
    /// `gamma_max` (which indicates the degree is too low for the front).
    pub fn step(
        &self,
        p: &Polynomial,
        opt: &AdvectionOptions,
        sos: &SosOptions,
    ) -> Option<AdvectionStep> {
        let pieces: Vec<Polynomial> = (0..self.system.modes().len())
            .map(|mi| self.advect_mode(p, mi, opt))
            .collect();
        let taylor_error = self.estimate_taylor_error(p, opt);
        if pieces.len() == 1 {
            return Some(AdvectionStep {
                front: pieces.into_iter().next().expect("one piece"),
                gamma: 0.0,
                taylor_error,
            });
        }
        let (front, gamma) = self.merge(&pieces, opt, sos)?;
        let gamma = gamma.max(0.0) + opt.gamma_tol;
        (gamma <= opt.gamma_max).then_some(AdvectionStep {
            front,
            gamma,
            taylor_error,
        })
    }

    /// Merge program: the smallest γ, and its `q`, with `Tᵢ − γ ≤ q ≤ Tᵢ`
    /// on every `Cᵢ`.
    fn merge(
        &self,
        pieces: &[Polynomial],
        opt: &AdvectionOptions,
        sos: &SosOptions,
    ) -> Option<(Polynomial, f64)> {
        let n = self.system.nstates();
        let mut prog = SosProgram::new(n);
        let basis = monomials_up_to(n, opt.degree);
        let q = prog.new_poly(basis);
        let gamma = prog.new_scalar();
        for (mi, t) in pieces.iter().enumerate() {
            let mut domain = self.system.modes()[mi].flow_set().to_vec();
            domain.extend(opt.bounding.iter().cloned());
            // T − q ≥ 0 on Cᵢ  (over-approximation: q ≤ T ⇒ S(q) ⊇ S(T))
            let over = PolyExpr::from(t.clone()).sub(&prog.poly(q));
            prog.require_nonneg_on(over, &domain, opt.mult_half_degree);
            // q − T + γ ≥ 0 on Cᵢ  (tightness)
            let tight = prog.poly(q).sub(&t.clone().into()).add(&prog.scalar(gamma));
            prog.require_nonneg_on(tight, &domain, opt.mult_half_degree);
        }
        prog.minimize(&[(gamma, 1.0)]);
        // The support compile restricts multiplier bases, so its optimal γ
        // is valid but possibly looser: compile the full program instead.
        let sos = SosOptions {
            trace_weight: SosOptions::with_objective().trace_weight,
            reduction: Reduction::Off,
            ..sos.clone()
        };
        let sol = prog.solve(&sos).ok()?;
        Some((sol.poly_value(q).prune(1e-12), sol.scalar_value(gamma)))
    }

    /// Grid estimate of the Taylor truncation error of one advection step:
    /// compares the configured Taylor order with the next-higher order on
    /// sample points of the error box (a cheap, honest surrogate for
    /// Eq. 6's Hessian bound).
    pub fn estimate_taylor_error(&self, p: &Polynomial, opt: &AdvectionOptions) -> f64 {
        let n = self.system.nstates();
        let ebox = self.error_box(opt);
        // Surrogate: difference between Taylor orders 1 and 2; when the
        // configured order is already 2 the next-order term is approximated
        // by scaling this difference with h (the map error is O(h^{k+1})).
        let mut opt1 = opt.clone();
        opt1.taylor_order = 1;
        let mut opt2 = opt.clone();
        opt2.taylor_order = 2;
        let scale = if opt.taylor_order >= 2 { opt.h } else { 1.0 };
        let mut err = 0.0f64;
        for mi in 0..self.system.modes().len() {
            let t1 = p.compose(&self.backward_map(mi, &opt1));
            let t2 = p.compose(&self.backward_map(mi, &opt2));
            let d = &t1 - &t2;
            // Sample on a small grid of the error box.
            let steps = 5usize;
            let mut idx = vec![0usize; n];
            loop {
                let x: Vec<f64> = idx
                    .iter()
                    .zip(&ebox)
                    .map(|(&i, &b)| -b + 2.0 * b * (i as f64) / ((steps - 1) as f64))
                    .collect();
                err = err.max(scale * d.eval(&x).abs());
                let mut k = 0;
                loop {
                    if k == n {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < steps {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_hybrid::{HybridSystem, Mode};

    /// Single-mode contraction ẋ = −x (2-D).
    fn contraction() -> HybridSystem {
        let f = vec![
            Polynomial::var(2, 0).scale(-1.0),
            Polynomial::var(2, 1).scale(-1.0),
        ];
        HybridSystem::new(2, vec![Mode::new("m", f)], vec![])
    }

    #[test]
    fn ball_shrinks_under_contraction() {
        let sys = contraction();
        let adv = Advection::new(&sys);
        let opt = AdvectionOptions {
            h: 0.1,
            ..Default::default()
        };
        // p = ‖x‖² − 1 (unit ball).
        let p = &Polynomial::norm_squared(2) - &Polynomial::constant(2, 1.0);
        let sos = SosOptions::default();
        let step = adv.step(&p, &opt, &sos).expect("single mode");
        assert_eq!(step.gamma, 0.0);
        // Advected ball: {‖x − h(−x)… ‖} — backward map x ↦ x + h x = (1+h)x
        // wait: backward is x − h·f(x) = x + h·x = (1.1)x ⇒ front
        // p((1.1)x) = 1.21‖x‖² − 1 ⇒ radius shrinks to 1/1.1.
        let r_new = (1.0f64 / 1.21).sqrt();
        assert!((step.front.eval(&[r_new, 0.0])).abs() < 1e-12);
        // Origin stays inside.
        assert!(step.front.eval(&[0.0, 0.0]) < 0.0);
    }

    #[test]
    fn taylor_order_two_is_closer_to_exact() {
        let sys = contraction();
        let adv = Advection::new(&sys);
        let p = &Polynomial::norm_squared(2) - &Polynomial::constant(2, 1.0);
        let h: f64 = 0.2;
        // Exact flow: x(t+h) = e^{-h} x ⇒ advected radius e^{-h}.
        let exact_radius = (-h).exp();
        for (order, tol) in [(1u32, 0.03), (2u32, 0.005)] {
            let opt = AdvectionOptions {
                h,
                taylor_order: order,
                ..Default::default()
            };
            let front = adv.advect_mode(&p, 0, &opt);
            // Find the front's zero radius along the x-axis by bisection.
            let mut lo = 0.0;
            let mut hi = 1.0;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if front.eval(&[mid, 0.0]) < 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let err = (lo - exact_radius).abs();
            assert!(err < tol, "order {order}: radius err {err}");
        }
    }

    /// Two-mode system with identical flows: merge must be (near-)exact.
    #[test]
    fn merge_of_identical_pieces_is_tight() {
        let f = || {
            vec![
                Polynomial::var(2, 0).scale(-1.0),
                Polynomial::var(2, 1).scale(-1.0),
            ]
        };
        let x = Polynomial::var(2, 0);
        let m0 = Mode::new("r", f()).with_flow_set(vec![x.clone()]);
        let m1 = Mode::new("l", f()).with_flow_set(vec![x.scale(-1.0)]);
        let sys = HybridSystem::new(2, vec![m0, m1], vec![]);
        let adv = Advection::new(&sys);
        let p = &Polynomial::norm_squared(2) - &Polynomial::constant(2, 1.0);
        let opt = AdvectionOptions {
            h: 0.1,
            ..Default::default()
        };
        let sos = SosOptions::default();
        let step = adv.step(&p, &opt, &sos).expect("merge feasible");
        assert!(step.gamma < 0.05, "gamma = {}", step.gamma);
        // Merged front still contains the origin and excludes far points.
        assert!(step.front.eval(&[0.0, 0.0]) < 0.0);
        assert!(step.front.eval(&[3.0, 0.0]) > 0.0);
    }
}
