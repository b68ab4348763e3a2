//! Multiple Lyapunov certificate synthesis (the paper's first SOS program,
//! conditions (a), (b), (c) of Section 3).

use cppll_hybrid::HybridSystem;
use cppll_poly::{monomials_up_to, Polynomial};
use cppll_sos::{SosOptions, SosProgram};

use crate::VerifyError;

/// Whether to search one common certificate or one per mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertificateScheme {
    /// One `V` valid in every mode. Jump conditions become vacuous for
    /// identity resets; the smallest and most robust SOS program.
    Common,
    /// One `Vᵢ` per mode with decrease conditions across jumps
    /// (condition (c) of the paper). More expressive; larger program.
    Multiple,
}

/// How uncertainty over the parameter box enters the Lie-derivative
/// conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobustEncoding {
    /// One Lie condition per vertex of the parameter box. Exact (not
    /// conservative) for flows affine in the parameters — which the CP PLL
    /// flows are — and keeps the indeterminate count at the state dimension.
    Vertices,
    /// The paper's encoding: parameters become extra indeterminates and the
    /// box enters through S-procedure multipliers (constraint (b)'s
    /// `σ₃ʲ(x) hⱼ(u)` terms). More general, much larger SDPs.
    SProcedure,
}

/// Options for [`LyapunovSynthesizer`].
#[derive(Debug, Clone)]
pub struct LyapunovOptions {
    /// Certificate degree (even, ≥ 2). The paper uses 6 for the third-order
    /// and 4 for the fourth-order PLL.
    pub degree: u32,
    /// Positivity margin `ε`: conditions are `V − ε‖x‖² ∈ Σ` and
    /// `−V̇ − ε‖x‖² ∈ Σ` on the respective domains.
    pub epsilon: f64,
    /// Half-degree of the S-procedure multipliers σ.
    pub multiplier_half_degree: u32,
    /// Certificate scheme.
    pub scheme: CertificateScheme,
    /// Robustness encoding.
    pub robust: RobustEncoding,
}

impl LyapunovOptions {
    /// Defaults for a given certificate degree: `ε = 10⁻⁴`, multiplier
    /// degree `degree`, common scheme, vertex robustness.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is odd or zero.
    pub fn degree(degree: u32) -> Self {
        assert!(
            degree >= 2 && degree.is_multiple_of(2),
            "degree must be even and ≥ 2"
        );
        LyapunovOptions {
            degree,
            epsilon: 1e-4,
            multiplier_half_degree: (degree / 2).max(1),
            scheme: CertificateScheme::Common,
            robust: RobustEncoding::Vertices,
        }
    }

    /// Switches to the multiple-certificate scheme (builder style).
    pub fn with_scheme(mut self, scheme: CertificateScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Switches the robustness encoding (builder style).
    pub fn with_robust(mut self, robust: RobustEncoding) -> Self {
        self.robust = robust;
        self
    }
}

/// The synthesised certificates together with the data needed downstream.
#[derive(Debug, Clone)]
pub struct LyapunovCertificates {
    /// Per-mode certificate `Vᵢ` over the state ring (all clones of one
    /// polynomial for the common scheme).
    vs: Vec<Polynomial>,
    /// The options used (degree, margins) — downstream steps reuse them.
    degree: u32,
    epsilon: f64,
    scheme: CertificateScheme,
}

impl LyapunovCertificates {
    /// Certificate for `mode`.
    pub fn for_mode(&self, mode: usize) -> &Polynomial {
        &self.vs[mode]
    }

    /// All certificates in mode order.
    pub fn all(&self) -> &[Polynomial] {
        &self.vs
    }

    /// Certificate degree.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Positivity/decrease margin used during synthesis.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Scheme used.
    pub fn scheme(&self) -> CertificateScheme {
        self.scheme
    }

    /// Reassembles certificates from their parts — used by checkpoint
    /// replay, which must rebuild the exact struct the crashed run
    /// journaled without re-running synthesis.
    pub(crate) fn from_parts(
        vs: Vec<Polynomial>,
        degree: u32,
        epsilon: f64,
        scheme: CertificateScheme,
    ) -> Self {
        LyapunovCertificates {
            vs,
            degree,
            epsilon,
            scheme,
        }
    }

    /// Rescales all certificates by a common factor so the largest
    /// coefficient is 1 — Lyapunov conditions are scale-invariant, and the
    /// downstream level-set arithmetic is much better conditioned this way.
    pub fn normalized(mut self) -> Self {
        let scale = self
            .vs
            .iter()
            .map(Polynomial::max_abs_coefficient)
            .fold(0.0f64, f64::max);
        if scale > 0.0 {
            for v in &mut self.vs {
                *v = v.scale(1.0 / scale);
            }
        }
        self
    }

    /// Numeric sanity check: `V > 0` and `V̇ < 0` at a state (for a given
    /// mode and parameter sample). Used by tests and Monte-Carlo validation.
    pub fn check_at(&self, system: &HybridSystem, mode: usize, x: &[f64], u: &[f64]) -> (f64, f64) {
        let v = &self.vs[mode];
        let f = system.flow_with_params(mode, u);
        (v.eval(x), v.lie_derivative(&f).eval(x))
    }
}

/// Synthesises multiple Lyapunov certificates for a hybrid system whose
/// equilibrium is the origin.
///
/// Implements the paper's first SOS program:
///
/// * **(a)** `Vᵢ − ε‖x‖² − Σₖ σ₁ⁱᵏ gᵢₖ ∈ Σ` — positive definiteness on the
///   flow set `Cᵢ = {gᵢₖ ≥ 0}`;
/// * **(b)** `−∇Vᵢ·fᵢ(x, u) − ε‖x‖² − Σₖ σ₂ⁱᵏ gᵢₖ − Σⱼ σ₃ʲ hⱼ(u) ∈ Σ` —
///   strict decrease along flows, robust over the parameter box (via
///   vertices or the S-procedure depending on [`RobustEncoding`]);
/// * **(c)** `Vᵢ'(x) − Vᵢ(Rᵢ(x)) − μ·h_guard − Σ σ₅ g_guard ∈ Σ` — decrease
///   across jumps (multiple scheme only; vacuous for the common scheme with
///   identity resets, cf. Remark 2).
///
/// # Examples
///
/// ```no_run
/// use cppll_pll::{PllModelBuilder, PllOrder};
/// use cppll_sos::SosOptions;
/// use cppll_verify::{LyapunovOptions, LyapunovSynthesizer};
///
/// let model = PllModelBuilder::new(PllOrder::Third).build();
/// let synth = LyapunovSynthesizer::new(model.system());
/// let certs = synth.synthesize(&LyapunovOptions::degree(2), &SosOptions::default())?;
/// assert!(certs.for_mode(0).eval(&[0.1, 0.1, 0.1]) > 0.0);
/// # Ok::<(), cppll_verify::VerifyError>(())
/// ```
pub struct LyapunovSynthesizer<'s> {
    system: &'s HybridSystem,
}

impl<'s> LyapunovSynthesizer<'s> {
    /// Creates a synthesizer for `system` (equilibrium must be the origin).
    pub fn new(system: &'s HybridSystem) -> Self {
        LyapunovSynthesizer { system }
    }

    /// Runs the synthesis; every solve uses `sos`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Infeasible`] when no certificate of the requested
    /// degree exists (the relaxation is incomplete — retry with a higher
    /// degree), [`VerifyError::Numerical`] on solver failure.
    pub fn synthesize(
        &self,
        opt: &LyapunovOptions,
        sos: &SosOptions,
    ) -> Result<LyapunovCertificates, VerifyError> {
        match opt.robust {
            RobustEncoding::Vertices => self.synthesize_vertices(opt, sos),
            RobustEncoding::SProcedure => self.synthesize_sprocedure(opt, sos),
        }
    }

    /// Like [`LyapunovSynthesizer::synthesize`], but retries with a
    /// geometrically smaller margin `ε` (down to `ε/100`) when the first
    /// attempt is infeasible: robust programs over parameter vertices are
    /// often feasible only under a slimmer margin than nominal ones.
    ///
    /// Numerical failures are *not* retried here — shrinking `ε` does not
    /// address them, and re-solves with adjusted numerical parameters are
    /// the solve supervisor's job (`SosOptions::resilience`).
    pub fn synthesize_auto(
        &self,
        opt: &LyapunovOptions,
        sos: &SosOptions,
    ) -> Result<LyapunovCertificates, VerifyError> {
        let mut attempt = opt.clone();
        let mut last_err = None;
        for _ in 0..3 {
            match self.synthesize(&attempt, sos) {
                Ok(c) => return Ok(c),
                Err(e @ VerifyError::Numerical { .. }) => return Err(e),
                Err(e) => last_err = Some(e),
            }
            attempt.epsilon /= 10.0;
        }
        Err(last_err.expect("at least one attempt"))
    }

    fn synthesize_vertices(
        &self,
        opt: &LyapunovOptions,
        sos: &SosOptions,
    ) -> Result<LyapunovCertificates, VerifyError> {
        let n = self.system.nstates();
        let nmodes = self.system.modes().len();
        let mut prog = SosProgram::new(n);
        let basis: Vec<_> = monomials_up_to(n, opt.degree)
            .into_iter()
            .filter(|m| m.degree() >= 2)
            .collect();
        let nv = match opt.scheme {
            CertificateScheme::Common => 1,
            CertificateScheme::Multiple => nmodes,
        };
        let vids: Vec<_> = (0..nv).map(|_| prog.new_poly(basis.clone())).collect();
        let vid_of = |mode: usize| vids[mode.min(nv - 1)];
        let eps = Polynomial::norm_squared(n).scale(opt.epsilon);
        // Positivity margin coercive at every scale: ε(‖x‖² + ‖x‖^deg).
        // The top-degree part matters for downstream exact rounding — it
        // keeps the Gram interior in the highest-order directions too.
        let eps_pos = &eps
            + &Polynomial::norm_squared(n)
                .pow(opt.degree / 2)
                .scale(opt.epsilon);

        for (mi, mode) in self.system.modes().iter().enumerate() {
            let domain = mode.flow_set().to_vec();
            // (a) positivity. Certified *globally* (no S-procedure term):
            // slightly stronger than the paper's per-domain condition but it
            // makes every sublevel set of V compact and free of spurious
            // far-away components — which the level-curve characterisation
            // of the attractive invariant (Theorem 2) silently relies on.
            let pos = prog.poly(vid_of(mi)).sub(&eps_pos.clone().into());
            prog.require_sos(pos);
            // (b) decrease along every vertex flow, on the flow set.
            for f in self.system.flow_vertices(mi) {
                let vdot = prog.poly_lie_derivative(vid_of(mi), &f);
                let expr = vdot.neg().sub(&eps.clone().into());
                prog.require_nonneg_on(expr, &domain, opt.multiplier_half_degree);
            }
        }

        // (c) jump conditions for the multiple scheme.
        if matches!(opt.scheme, CertificateScheme::Multiple) {
            for jump in self.system.jumps() {
                let v_from = vid_of(jump.from);
                let v_to = vid_of(jump.to);
                if v_from == v_to && jump.is_identity_reset() {
                    continue; // vacuous (Remark 2)
                }
                // V_from(x) − V_to(R(x)) − Σ μⱼ hⱼ − Σ σₖ gₖ ∈ Σ on the guard.
                let v_to_after = if jump.is_identity_reset() {
                    prog.poly(v_to)
                } else {
                    prog.poly_composed(v_to, &jump.reset)
                };
                let mut expr = prog.poly(v_from).sub(&v_to_after);
                for h in &jump.guard_eq {
                    // Free polynomial multiplier on the equality surface.
                    let mu = prog.new_poly_of_degree(0, opt.degree.saturating_sub(1));
                    expr = expr.sub(&prog.poly(mu).mul_poly(h));
                }
                prog.require_nonneg_on(expr, &jump.guard, opt.multiplier_half_degree);
            }
        }

        let sol = prog
            .solve(sos)
            .map_err(|e| VerifyError::from_sos("lyapunov synthesis", e))?;
        let vs: Vec<Polynomial> = (0..nmodes)
            .map(|mi| sol.poly_value(vid_of(mi)).prune(1e-12))
            .collect();
        self.sample_check(&vs, opt)?;
        Ok(LyapunovCertificates {
            vs,
            degree: opt.degree,
            epsilon: opt.epsilon,
            scheme: opt.scheme,
        }
        .normalized())
    }

    /// A-posteriori guard against numerical false positives: the SDP is
    /// solved to finite tolerance, so an *infeasible-by-ε* program can come
    /// back "solved" once the margin ε is small. Sample each mode's flow
    /// set (within a box) at every parameter vertex and reject certificates
    /// that visibly violate positivity or decrease.
    fn sample_check(&self, vs: &[Polynomial], _opt: &LyapunovOptions) -> Result<(), VerifyError> {
        let n = self.system.nstates();
        let steps = if n <= 3 { 9 } else { 5 };
        let bound = 2.0f64;
        for (mi, mode) in self.system.modes().iter().enumerate() {
            let v = &vs[mi.min(vs.len() - 1)];
            let scale = v.max_abs_coefficient().max(1e-300);
            let fields = self.system.flow_vertices(mi);
            let vdots: Vec<Polynomial> = fields.iter().map(|f| v.lie_derivative(f)).collect();
            let mut idx = vec![0usize; n];
            loop {
                let x: Vec<f64> = idx
                    .iter()
                    .map(|&i| -bound + 2.0 * bound * (i as f64) / ((steps - 1) as f64))
                    .collect();
                let r2: f64 = x.iter().map(|v| v * v).sum();
                if r2 > 1e-4 && mode.contains(&x, 0.0) {
                    // Positivity with generous numerical slack.
                    if v.eval(&x) < -1e-7 * scale * (1.0 + r2 * r2) {
                        return Err(VerifyError::Infeasible {
                            step: "lyapunov sample check (positivity)",
                            source: cppll_sos::SosError::Infeasible {
                                status: cppll_sdp::SdpStatus::NearOptimal,
                            },
                        });
                    }
                    for vd in &vdots {
                        if vd.eval(&x) > 1e-7 * scale * (1.0 + r2 * r2) {
                            return Err(VerifyError::Infeasible {
                                step: "lyapunov sample check (decrease)",
                                source: cppll_sos::SosError::Infeasible {
                                    status: cppll_sdp::SdpStatus::NearOptimal,
                                },
                            });
                        }
                    }
                }
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
        Ok(())
    }

    /// The paper's original encoding: parameters as indeterminates with
    /// S-procedure box multipliers.
    fn synthesize_sprocedure(
        &self,
        opt: &LyapunovOptions,
        sos: &SosOptions,
    ) -> Result<LyapunovCertificates, VerifyError> {
        let n = self.system.nstates();
        let k = self.system.params().len();
        let ring = n + k;
        let nmodes = self.system.modes().len();
        let mut prog = SosProgram::new(ring);
        // V depends on the state variables only.
        let basis: Vec<_> = monomials_up_to(ring, opt.degree)
            .into_iter()
            .filter(|m| m.degree() >= 2 && (n..ring).all(|i| m.exp(i) == 0))
            .collect();
        let nv = match opt.scheme {
            CertificateScheme::Common => 1,
            CertificateScheme::Multiple => nmodes,
        };
        let vids: Vec<_> = (0..nv).map(|_| prog.new_poly(basis.clone())).collect();
        let vid_of = |mode: usize| vids[mode.min(nv - 1)];
        // ε‖x‖² over the state block of the extended ring.
        let mut eps = Polynomial::zero(ring);
        for i in 0..n {
            let xi = Polynomial::var(ring, i);
            eps = &eps + &(&xi * &xi).scale(opt.epsilon);
        }
        let box_constraints = self.system.params().constraints(n);

        for (mi, mode) in self.system.modes().iter().enumerate() {
            let domain: Vec<Polynomial> = mode.flow_set().iter().map(|g| g.extend(ring)).collect();
            // (a) positivity, certified globally (see the vertex encoding
            // for why domain-free positivity is used).
            let pos = prog.poly(vid_of(mi)).sub(&eps.clone().into());
            prog.require_sos(pos);
            // (b) decrease with box multipliers σ₃ʲ hⱼ(u).
            let mut field: Vec<Polynomial> = mode.flow().to_vec();
            // Parameters do not flow: append zero components.
            field.resize(ring, Polynomial::zero(ring));
            let vdot = prog.poly_lie_derivative(vid_of(mi), &field);
            let mut full_domain = domain.clone();
            full_domain.extend(box_constraints.iter().cloned());
            let expr = vdot.neg().sub(&eps.clone().into());
            prog.require_nonneg_on(expr, &full_domain, opt.multiplier_half_degree);
        }

        if matches!(opt.scheme, CertificateScheme::Multiple) {
            for jump in self.system.jumps() {
                let v_from = vid_of(jump.from);
                let v_to = vid_of(jump.to);
                if v_from == v_to && jump.is_identity_reset() {
                    continue;
                }
                let v_to_after = if jump.is_identity_reset() {
                    prog.poly(v_to)
                } else {
                    let mut reset: Vec<Polynomial> =
                        jump.reset.iter().map(|r| r.extend(ring)).collect();
                    for i in n..ring {
                        reset.push(Polynomial::var(ring, i));
                    }
                    // poly_composed expects arity == ring.
                    prog.poly_composed(v_to, &reset)
                };
                let mut expr = prog.poly(v_from).sub(&v_to_after);
                for h in &jump.guard_eq {
                    let mu = prog.new_poly_of_degree(0, opt.degree.saturating_sub(1));
                    expr = expr.sub(&prog.poly(mu).mul_poly(&h.extend(ring)));
                }
                let guard: Vec<Polynomial> = jump.guard.iter().map(|g| g.extend(ring)).collect();
                prog.require_nonneg_on(expr, &guard, opt.multiplier_half_degree);
            }
        }

        let sol = prog
            .solve(sos)
            .map_err(|e| VerifyError::from_sos("lyapunov synthesis (s-procedure)", e))?;
        // Project back to the state ring.
        let subs: Vec<Polynomial> = (0..n)
            .map(|i| Polynomial::var(n, i))
            .chain((0..k).map(|_| Polynomial::zero(n)))
            .collect();
        let vs: Vec<Polynomial> = (0..nmodes)
            .map(|mi| sol.poly_value(vid_of(mi)).compose(&subs).prune(1e-12))
            .collect();
        self.sample_check(&vs, opt)?;
        Ok(LyapunovCertificates {
            vs,
            degree: opt.degree,
            epsilon: opt.epsilon,
            scheme: opt.scheme,
        }
        .normalized())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_hybrid::{HybridSystem, Jump, Mode, ParamBox};

    /// Two-mode planar switched system, both modes stable, identity jumps at
    /// x = 0: mode 0 on {x ≥ 0}, mode 1 on {x ≤ 0}.
    fn switched_stable() -> HybridSystem {
        let f0 = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], -1.0)]),
        ];
        let f1 = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 0.5)]),
            Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
        ];
        let x = Polynomial::var(2, 0);
        let m0 = Mode::new("right", f0).with_flow_set(vec![x.clone()]);
        let m1 = Mode::new("left", f1).with_flow_set(vec![x.scale(-1.0)]);
        let guard_eq = vec![Polynomial::var(2, 0)];
        let jumps = vec![
            Jump::identity(0, 1).with_guard_eq(guard_eq.clone()),
            Jump::identity(1, 0).with_guard_eq(guard_eq),
        ];
        HybridSystem::new(2, vec![m0, m1], jumps)
    }

    #[test]
    fn common_certificate_for_switched_system() {
        let sys = switched_stable();
        let synth = LyapunovSynthesizer::new(&sys);
        let certs = synth
            .synthesize(&LyapunovOptions::degree(2), &SosOptions::default())
            .expect("feasible");
        // V positive and decreasing at sample points in both modes.
        for &(x, y) in &[(0.5, 0.3), (1.0, -1.0)] {
            let (v, vdot) = certs.check_at(&sys, 0, &[x, y], &[]);
            assert!(v > 0.0 && vdot < 0.0, "mode0 at ({x},{y}): V={v} V̇={vdot}");
        }
        for &(x, y) in &[(-0.5, 0.3), (-1.0, -1.0)] {
            let (v, vdot) = certs.check_at(&sys, 1, &[x, y], &[]);
            assert!(v > 0.0 && vdot < 0.0, "mode1 at ({x},{y}): V={v} V̇={vdot}");
        }
    }

    #[test]
    fn multiple_certificates_also_feasible() {
        let sys = switched_stable();
        let synth = LyapunovSynthesizer::new(&sys);
        let opt = LyapunovOptions::degree(2).with_scheme(CertificateScheme::Multiple);
        let certs = synth
            .synthesize(&opt, &SosOptions::default())
            .expect("feasible");
        assert_eq!(certs.all().len(), 2);
        // Jump condition: V₁ ≤ V₀ on the guard x = 0 (both directions ⇒ equal).
        let v0 = certs.for_mode(0);
        let v1 = certs.for_mode(1);
        for &y in &[0.5, -0.7, 1.0] {
            let d = (v0.eval(&[0.0, y]) - v1.eval(&[0.0, y])).abs();
            let scale = v0.eval(&[0.0, y]).abs().max(1.0);
            assert!(d < 1e-4 * scale, "guard mismatch at y={y}: {d}");
        }
    }

    #[test]
    fn unstable_system_is_infeasible() {
        // ẋ = +x: no Lyapunov certificate exists.
        let f = vec![Polynomial::from_terms(1, &[(&[1], 1.0)])];
        let sys = HybridSystem::new(
            1,
            vec![Mode::new("unstable", f).with_flow_set(vec![
                // bounded domain |x| ≤ 1 so the S-procedure could "help"
                &Polynomial::constant(1, 1.0) - &Polynomial::var(1, 0),
                &Polynomial::constant(1, 1.0) + &Polynomial::var(1, 0),
            ])],
            vec![],
        );
        let r = LyapunovSynthesizer::new(&sys)
            .synthesize(&LyapunovOptions::degree(2), &SosOptions::default());
        assert!(r.is_err(), "unstable system must not yield a certificate");
    }

    #[test]
    fn robust_over_parameter_box_vertices() {
        // ẋ = -u x with u ∈ [0.5, 2]: common V = x² works for all u.
        let f = vec![Polynomial::from_terms(2, &[(&[1, 1], -1.0)])];
        let sys = HybridSystem::with_params(
            1,
            vec![Mode::new("m", f)],
            vec![],
            ParamBox::new(vec![0.5], vec![2.0]),
        );
        let certs = LyapunovSynthesizer::new(&sys)
            .synthesize(&LyapunovOptions::degree(2), &SosOptions::default())
            .expect("feasible");
        let v = certs.for_mode(0);
        assert!(v.eval(&[1.0]) > 0.0);
    }

    #[test]
    fn sprocedure_encoding_matches_vertices() {
        let f = vec![Polynomial::from_terms(2, &[(&[1, 1], -1.0)])];
        let sys = HybridSystem::with_params(
            1,
            vec![Mode::new("m", f).with_flow_set(vec![
                &Polynomial::constant(1, 4.0) - &(&Polynomial::var(1, 0) * &Polynomial::var(1, 0)),
            ])],
            vec![],
            ParamBox::new(vec![0.5], vec![2.0]),
        );
        let opt = LyapunovOptions::degree(2).with_robust(RobustEncoding::SProcedure);
        let certs = LyapunovSynthesizer::new(&sys)
            .synthesize(&opt, &SosOptions::default())
            .expect("feasible");
        let v = certs.for_mode(0);
        assert_eq!(v.nvars(), 1, "certificate projected to the state ring");
        assert!(v.eval(&[1.0]) > 0.0);
        let (_, vdot) = certs.check_at(&sys, 0, &[1.0], &[0.5]);
        assert!(vdot < 0.0);
    }
}
