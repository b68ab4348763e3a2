//! Upgrading numeric Lyapunov certificates to exact rational theorems.
//!
//! The SOS pipeline works in floating point; this module re-states its key
//! inequalities with exact rational data (lifting `V` and the flows exactly
//! — Lie derivatives are recomputed in rational arithmetic, not trusted from
//! floats) and certifies them through `cppll-exact`'s rounding + projection
//! + exact-PSD kernel:
//!
//! * **positivity** — `V − δ‖x‖²` is SOS (globally);
//! * **decrease** — `−V̇ − δ‖x‖²` is nonnegative on each mode's flow set
//!   intersected with a user-supplied compact box, at every parameter
//!   vertex. (The box keeps the decomposition away from tightness at
//!   infinity; pick it to cover the attractive invariant.)
//!
//! A successful [`ExactificationReport`] means those inequalities are
//! *theorems* — checked end to end in exact arithmetic.

use cppll_exact::{prove_nonneg_on_rational, prove_sos, ExactOptions, NonnegProof, RationalPoly};
use cppll_hybrid::HybridSystem;
use cppll_poly::Polynomial;

use crate::lyapunov::LyapunovCertificates;

/// Options for [`exactify_certificates`].
#[derive(Debug, Clone)]
pub struct ExactifyOptions {
    /// Strictness margin δ re-certified exactly (smaller than the synthesis
    /// margin so the numeric certificate has room).
    pub delta: f64,
    /// Exact-kernel options (rounding grid, multiplier degrees).
    pub exact: ExactOptions,
}

impl Default for ExactifyOptions {
    fn default() -> Self {
        ExactifyOptions {
            delta: 1e-8,
            exact: ExactOptions::default(),
        }
    }
}

/// One exactly-certified decrease claim.
#[derive(Debug)]
pub struct DecreaseClaim {
    /// Mode index.
    pub mode: usize,
    /// Parameter-vertex index.
    pub vertex: usize,
    /// The exact proof object.
    pub proof: NonnegProof,
}

/// Everything that was exactly certified, plus explicit accounting of the
/// claims that could not be upgraded (those remain backed by the numeric
/// certificate only).
#[derive(Debug)]
pub struct ExactificationReport {
    /// Exact SOS proofs of `Vᵢ − δ‖x‖²` per distinct certificate.
    pub positivity: Vec<cppll_exact::ExactProof>,
    /// Exact decrease proofs per (mode, vertex).
    pub decrease: Vec<DecreaseClaim>,
    /// Decrease claims that resisted exactification: `(mode, vertex,
    /// reason)`. Typical cause: the S-procedure degree needed to certify a
    /// thin saturated-mode slab exceeds the practical Putinar ladder.
    pub unproven: Vec<(usize, usize, String)>,
}

impl ExactificationReport {
    /// Total number of exactly certified inequalities.
    pub fn claims(&self) -> usize {
        self.positivity.len() + self.decrease.len()
    }

    /// `true` when every stated claim was exactly certified.
    pub fn complete(&self) -> bool {
        self.unproven.is_empty()
    }
}

/// Errors of the exactification step.
#[derive(Debug)]
pub enum ExactifyError {
    /// A positivity claim failed.
    Positivity(cppll_exact::ExactError),
    /// A decrease claim failed (mode, vertex, cause).
    Decrease(usize, usize, cppll_exact::ExactError),
}

impl std::fmt::Display for ExactifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactifyError::Positivity(e) => write!(f, "exact positivity failed: {e}"),
            ExactifyError::Decrease(m, v, e) => {
                write!(f, "exact decrease failed at mode {m}, vertex {v}: {e}")
            }
        }
    }
}

impl std::error::Error for ExactifyError {}

/// Exactly certifies the Lyapunov claims on `box_halfwidths`-sized boxes.
///
/// # Errors
///
/// Returns the first failing claim; the numeric certificates stand but
/// could not be upgraded at this rounding grid / box / margin.
pub fn exactify_certificates(
    system: &HybridSystem,
    certs: &LyapunovCertificates,
    box_halfwidths: &[f64],
    opt: &ExactifyOptions,
) -> Result<ExactificationReport, ExactifyError> {
    let n = system.nstates();
    assert_eq!(box_halfwidths.len(), n, "box dimension mismatch");
    let norm2 = Polynomial::norm_squared(n).scale(opt.delta);

    // Positivity per distinct certificate, with a coercive margin matching
    // the synthesis margin's shape: δ(‖x‖² + ‖x‖^deg).
    let mut positivity = Vec::new();
    let mut seen: Vec<&Polynomial> = Vec::new();
    for mi in 0..system.modes().len() {
        let v = certs.for_mode(mi);
        if seen.contains(&v) {
            continue;
        }
        seen.push(v);
        let eps_pos = &norm2
            + &Polynomial::norm_squared(n)
                .pow(certs.degree() / 2)
                .scale(opt.delta);
        let target = v - &eps_pos;
        positivity.push(prove_sos(&target, &opt.exact).map_err(ExactifyError::Positivity)?);
    }

    // Decrease per mode and parameter vertex, on flow set ∩ box.
    let mut decrease = Vec::new();
    let mut unproven = Vec::new();
    for (mi, mode) in system.modes().iter().enumerate() {
        let v_exact = RationalPoly::from_f64_poly(certs.for_mode(mi));
        let mut domain: Vec<RationalPoly> = mode
            .flow_set()
            .iter()
            .map(RationalPoly::from_f64_poly)
            .collect();
        for (i, &b) in box_halfwidths.iter().enumerate() {
            // b² − xᵢ² ≥ 0
            let mut g = Polynomial::constant(n, b * b);
            let xi = Polynomial::var(n, i);
            g = &g - &(&xi * &xi);
            domain.push(RationalPoly::from_f64_poly(&g));
        }
        // Redundant ball constraint R² − ‖x‖² ≥ 0 (R² = Σ bᵢ²): classic
        // strengthening of Putinar certificates at fixed degree.
        let r2: f64 = box_halfwidths.iter().map(|b| b * b).sum();
        let ball = &Polynomial::constant(n, r2) - &Polynomial::norm_squared(n);
        domain.push(RationalPoly::from_f64_poly(&ball));
        // When the origin lies in the mode's domain, the decrease target
        // vanishes there and the multipliers must too (min degree 1). For
        // saturated modes (origin outside the flow set) the multipliers
        // need constant terms to exploit the violated constraints near 0.
        let origin = vec![0.0; n];
        let origin_in_domain = mode.flow_set().iter().all(|g| g.eval(&origin) >= 0.0);
        let mut exact_opt = opt.exact.clone();
        if origin_in_domain {
            exact_opt.mult_min_degree = exact_opt.mult_min_degree.max(1);
        }
        for (vi, field) in system.flow_vertices(mi).into_iter().enumerate() {
            let field_exact: Vec<RationalPoly> =
                field.iter().map(RationalPoly::from_f64_poly).collect();
            // −V̇ − δ‖x‖², all recomputed in exact arithmetic. The claim
            // is scale-invariant; rescale it so the *margin* (not the
            // coefficients) is O(1) — the interior-slack optimum of a
            // normalized certificate sits near the SDP solver's noise
            // floor otherwise. The margin is grid-estimated (samples only
            // choose the scaling; the proof itself stays exact).
            let vdot = v_exact.lie_derivative(&field_exact);
            let raw = vdot.neg().sub(&RationalPoly::from_f64_poly(&norm2));
            let raw_f64 = raw.to_f64_poly();
            let domain_f64: Vec<Polynomial> =
                domain.iter().map(RationalPoly::to_f64_poly).collect();
            let margin = grid_margin(&raw_f64, &domain_f64, box_halfwidths, certs.degree());
            let scale_exp = if margin > 0.0 {
                (1.0 / margin).log2().round().clamp(-60.0, 60.0) as i32
            } else {
                0
            };
            let target = raw.scale(&cppll_exact::Rational::from_f64(2f64.powi(scale_exp)));
            // Ladder the multiplier degree and the slack shape: different
            // modes need different S-procedure strength (the equilibrium
            // mode is the tightest) and different interior shapes.
            let mut last_err = None;
            let mut proof = None;
            'ladder: for extra in 0..=2u32 {
                for full in [false, true] {
                    let mut attempt = exact_opt.clone();
                    attempt.mult_half_degree = exact_opt.mult_half_degree + extra;
                    attempt.slack_full_basis = full;
                    match prove_nonneg_on_rational(&target, &domain, &attempt) {
                        Ok(pr) => {
                            proof = Some(pr);
                            break 'ladder;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
            }
            match proof {
                Some(proof) => decrease.push(DecreaseClaim {
                    mode: mi,
                    vertex: vi,
                    proof,
                }),
                None => unproven.push((
                    mi,
                    vi,
                    last_err
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "no attempt ran".into()),
                )),
            }
        }
    }
    Ok(ExactificationReport {
        positivity,
        decrease,
        unproven,
    })
}

/// Grid estimate of `min expr(x)/w(x)` over the boxed domain, where `w`
/// mimics the main Gram's slack polynomial (`‖x‖² + ‖x‖^deg`).
fn grid_margin(expr: &Polynomial, domain: &[Polynomial], boxh: &[f64], degree: u32) -> f64 {
    let n = boxh.len();
    let steps = if n <= 3 { 13 } else { 7 };
    let mut worst = f64::INFINITY;
    let mut idx = vec![0usize; n];
    loop {
        let x: Vec<f64> = idx
            .iter()
            .zip(boxh)
            .map(|(&i, &b)| -b + 2.0 * b * (i as f64) / ((steps - 1) as f64))
            .collect();
        let r2: f64 = x.iter().map(|v| v * v).sum();
        if r2 > 1e-6 && domain.iter().all(|g| g.eval(&x) >= 0.0) {
            let w = r2 + r2.powi((degree / 2) as i32);
            worst = worst.min(expr.eval(&x) / w);
        }
        let mut k = 0;
        loop {
            if k == n {
                return if worst.is_finite() { worst } else { 0.0 };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lyapunov::{LyapunovOptions, LyapunovSynthesizer};
    use cppll_hybrid::Mode;
    use cppll_sos::SosOptions;

    #[test]
    fn linear_system_certificate_exactifies() {
        // ẋ = −x + y, ẏ = −y: synthesise numerically, certify exactly.
        let f = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
            Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
        ];
        let sys = HybridSystem::new(2, vec![Mode::new("m", f)], vec![]);
        let certs = LyapunovSynthesizer::new(&sys)
            .synthesize(&LyapunovOptions::degree(2), &SosOptions::default())
            .expect("stable");
        let report = exactify_certificates(&sys, &certs, &[2.0, 2.0], &ExactifyOptions::default())
            .expect("exactifiable");
        assert_eq!(report.positivity.len(), 1);
        assert_eq!(report.decrease.len(), 1);
        assert_eq!(report.claims(), 2);
        // Audit: the positivity proof re-verifies against the exact target.
        let v = certs.for_mode(0);
        let delta = ExactifyOptions::default().delta;
        let eps_pos =
            &Polynomial::norm_squared(2).scale(delta) + &Polynomial::norm_squared(2).scale(delta); // degree 2: both terms are ‖x‖²
        let target = v - &eps_pos;
        assert!(report.positivity[0].is_valid_for(&target));
    }

    #[test]
    fn two_mode_system_exactifies_per_mode() {
        let right = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], -1.0)]),
        ];
        let left = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 0.5)]),
            Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
        ];
        let x = Polynomial::var(2, 0);
        let sys = HybridSystem::new(
            2,
            vec![
                Mode::new("r", right).with_flow_set(vec![x.clone()]),
                Mode::new("l", left).with_flow_set(vec![x.scale(-1.0)]),
            ],
            vec![],
        );
        let certs = LyapunovSynthesizer::new(&sys)
            .synthesize(&LyapunovOptions::degree(2), &SosOptions::default())
            .expect("stable");
        let report = exactify_certificates(&sys, &certs, &[2.0, 2.0], &ExactifyOptions::default())
            .expect("exactifiable");
        // Common certificate ⇒ one positivity proof; decrease per mode.
        assert_eq!(report.positivity.len(), 1);
        assert_eq!(report.decrease.len(), 2);
    }
}
