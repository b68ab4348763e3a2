//! Level-curve maximisation (the paper's second SOS program): grow the
//! sublevel sets of the Lyapunov certificates as far as the verified region
//! allows; their union is the attractive invariant `S1`.

use cppll_hybrid::HybridSystem;
use cppll_poly::Polynomial;
use cppll_sos::{PolyExpr, SosError, SosOptions, SosProgram};

use crate::lyapunov::{CertificateScheme, LyapunovCertificates};

/// Options for [`LevelSetMaximizer`].
#[derive(Debug, Clone, Default)]
pub struct LevelSetOptions {
    /// Cap on the level `c*`.
    pub hi: Option<f64>,
}

/// Relative back-off of `c*` below the optimum, which the solver meets
/// only to its tolerances.
const BACK_OFF: f64 = 1e-6;

/// Result of the level maximisation: the attractive invariant
/// `S1 = ∪ᵢ {Vᵢ ≤ c*} ∩ Cᵢ`.
#[derive(Debug, Clone, Default)]
pub struct LevelSetResult {
    /// The common maximised level value `c*`.
    pub level: f64,
    /// Sublevel polynomials `Vᵢ − c*` per mode.
    pub ai_polys: Vec<Polynomial>,
    /// SOS programs solved: one per (mode, boundary) pair, plus unreduced
    /// re-solves and emptiness checks.
    pub probes: usize,
}

impl LevelSetResult {
    /// Membership test for the union `S1` (within `tol`).
    pub fn contains(&self, system: &HybridSystem, x: &[f64], tol: f64) -> bool {
        (0..self.ai_polys.len())
            .any(|mi| self.ai_polys[mi].eval(x) <= tol && system.modes()[mi].contains(x, tol))
    }
}

/// Maximises the certified level `c` such that every sublevel piece
/// `{Vᵢ ≤ c} ∩ Cᵢ` stays inside the verified region `{gⱼ ≥ 0}`: per
/// certified mode `i` and boundary polynomial `g`, one linear SOS program
/// (the margin form) maximises `c` with `Vᵢ − c + σ·g − Σⱼ τⱼ hⱼ` SOS, where
/// `σ, τⱼ` are SOS and the `hⱼ ≥ 0` are the flow set `Cᵢ` under
/// [`CertificateScheme::Multiple`] (none under `Common`). On
/// `{g ≤ 0} ∩ Cᵢ` the identity gives `Vᵢ ≥ c`, so `{Vᵢ < c} ∩ Cᵢ` lies in
/// `{g > 0}`.
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

    /// Solves one margin program per (mode, boundary) pair under `sos`
    /// with the objective's trace weight. `c*` is the smallest optimum,
    /// backed off by a relative `1e-6` and capped at
    /// [`LevelSetOptions::hi`]; a piece certified empty bounds nothing.
    /// `None` when a program fails, when `c* ≤ 0`, or when nothing bounds
    /// the level.
    pub fn maximize(
        &self,
        certs: &LyapunovCertificates,
        opt: &LevelSetOptions,
        sos: &SosOptions,
    ) -> Option<LevelSetResult> {
        let sos = SosOptions {
            trace_weight: SosOptions::with_objective().trace_weight,
            ..sos.clone()
        };
        let modes: Vec<usize> = match certs.scheme() {
            CertificateScheme::Common => vec![0],
            CertificateScheme::Multiple => (0..self.system.modes().len()).collect(),
        };
        let mut margin = f64::INFINITY;
        let mut probes = 0;
        for mi in modes {
            let v = certs.for_mode(mi);
            let domain: &[Polynomial] = match certs.scheme() {
                CertificateScheme::Common => &[],
                CertificateScheme::Multiple => self.system.modes()[mi].flow_set(),
            };
            for g in &self.boundary {
                probes += 1;
                let mut answer = solve_piece(v, g, domain, &sos, true);
                // The support compile prunes no margin program, so the
                // supervisor's screen never fires for one: a numerical
                // failure is re-solved once under the unreduced compile here.
                if let (Err(SosError::Numerical { .. }), Some(reduction)) =
                    (&answer, sos.reduction.fallback())
                {
                    probes += 1;
                    let full = SosOptions {
                        reduction,
                        ..sos.clone()
                    };
                    answer = solve_piece(v, g, domain, &full, true);
                }
                match answer {
                    Ok(c) => margin = margin.min(c),
                    // `Vᵢ` is SOS, so the program is feasible at `c = 0` and
                    // "infeasible" means unbounded: skip the piece only on
                    // a certificate that it is empty.
                    Err(SosError::Infeasible { .. }) => {
                        probes += 1;
                        solve_piece(v, g, domain, &sos, false).ok()?;
                    }
                    Err(_) => return None,
                }
            }
        }
        // Only a positive margin can give a level, so scaling backs it off.
        let level = (margin * (1.0 - BACK_OFF)).min(opt.hi.unwrap_or(f64::INFINITY));
        if !(level > 0.0 && level.is_finite()) {
            return None;
        }
        let ai_polys: Vec<Polynomial> = (0..self.system.modes().len())
            .map(|mi| {
                let v = certs.for_mode(mi);
                v - &Polynomial::constant(v.nvars(), level)
            })
            .collect();
        Some(LevelSetResult {
            level,
            ai_polys,
            probes,
        })
    }
}

/// Solves one program for the piece `{g ≤ 0} ∩ {hⱼ ≥ 0}`, each multiplier
/// `σ` of a known `p` of the largest half-degree with `deg(σ·p) ≤ deg v`
/// (quadratic `σ` for quartic `v` and linear `p`). With `margin`, the
/// largest `c` with `v − c + σ·g − Σⱼ τⱼ hⱼ` SOS: a lower bound on `v` over
/// the piece. Without, `−1 + σ·g − Σⱼ τⱼ hⱼ` SOS, which certifies the
/// piece empty (`Ok(∞)`): on it the left side is at most `−1`.
fn solve_piece(
    v: &Polynomial,
    g: &Polynomial,
    domain: &[Polynomial],
    sos: &SosOptions,
    margin: bool,
) -> Result<f64, SosError> {
    let half = |p: &Polynomial| v.degree().saturating_sub(p.degree()) / 2;
    let mut prog = SosProgram::new(v.nvars());
    let c = margin.then(|| prog.new_scalar());
    let mut expr = match c {
        Some(c) => PolyExpr::from(v.clone()).sub(&prog.scalar(c)),
        None => PolyExpr::from(Polynomial::constant(v.nvars(), -1.0)),
    };
    let sigma = prog.new_sos_poly(half(g));
    expr = expr.add(&prog.sos_poly(sigma).mul_poly(g));
    for h in domain {
        let tau = prog.new_sos_poly(half(h));
        expr = expr.sub(&prog.sos_poly(tau).mul_poly(h));
    }
    prog.require_sos(expr);
    if let Some(c) = c {
        prog.maximize_scalar(c);
    }
    let sol = prog.solve(sos)?;
    Ok(c.map_or(f64::INFINITY, |c| sol.scalar_value(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lyapunov::{LyapunovOptions, LyapunovSynthesizer};
    use cppll_hybrid::{HybridSystem, Jump, Mode};
    use cppll_sos::{check_inclusion, InclusionOptions};

    /// The largest `t ∈ [lo, hi]`, to within `tol`, with `feasible(t)`,
    /// for a `feasible` that holds below a threshold; `None` when `lo` is
    /// infeasible.
    fn maximize_bisect(lo: f64, hi: f64, tol: f64, feasible: impl Fn(f64) -> bool) -> Option<f64> {
        if !feasible(lo) {
            return None;
        }
        if feasible(hi) {
            return Some(hi);
        }
        let (mut good, mut bad) = (lo, hi);
        while bad - good > tol {
            let mid = 0.5 * (good + bad);
            if feasible(mid) {
                good = mid;
            } else {
                bad = mid;
            }
        }
        Some(good)
    }

    /// Resolution of the bisection oracle. Its Lemma-1 probes accept levels
    /// up to about 1e-3 above the strip's true minimum (certificates whose
    /// residual is within `check_inclusion`'s bound), so a finer resolution
    /// would not make the bound tighter.
    const ORACLE_TOL: f64 = 1e-2;

    /// Asserts that `res` is no lower than the bisection the margin
    /// programs replaced, less its resolution: the largest
    /// `c ∈ [hi·1e-4, hi]`, `hi = 2·c*`, whose Lemma-1 probes
    /// `{Vᵢ ≤ c} ∩ Cᵢ ⊆ {g ≥ 0}` on the strip all succeed.
    fn assert_at_least_the_oracle(
        sys: &HybridSystem,
        certs: &LyapunovCertificates,
        res: &LevelSetResult,
    ) {
        let inc_opt = InclusionOptions {
            mult_half_degree: (certs.degree() / 2).max(1),
            sos: SosOptions::default(),
        };
        let modes: Vec<usize> = match certs.scheme() {
            CertificateScheme::Common => vec![0],
            CertificateScheme::Multiple => (0..sys.modes().len()).collect(),
        };
        let hi = 2.0 * res.level;
        let oracle = maximize_bisect(hi * 1e-4, hi, ORACLE_TOL, |c| {
            modes.iter().all(|&mi| {
                let v = certs.for_mode(mi);
                let level = v - &Polynomial::constant(v.nvars(), c);
                let domain: &[Polynomial] = match certs.scheme() {
                    CertificateScheme::Common => &[],
                    CertificateScheme::Multiple => sys.modes()[mi].flow_set(),
                };
                strip()
                    .iter()
                    .all(|g| check_inclusion(&level, &g.scale(-1.0), domain, &inc_opt))
            })
        })
        .expect("the oracle certifies some level");
        assert!(
            res.level >= oracle - ORACLE_TOL,
            "margin c* = {} below the oracle's {oracle}",
            res.level
        );
    }

    /// `{x: |x₀| ≤ 2}` in the plane.
    fn strip() -> Vec<Polynomial> {
        vec![
            &Polynomial::constant(2, 2.0) - &Polynomial::var(2, 0),
            &Polynomial::constant(2, 2.0) + &Polynomial::var(2, 0),
        ]
    }

    /// ẋ = −x + y, ẏ = −y on the strip {|x| ≤ 2}.
    fn stable_strip() -> HybridSystem {
        let f = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
            Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
        ];
        HybridSystem::new(2, vec![Mode::new("m", f).with_flow_set(strip())], vec![])
    }

    /// Two stable modes on the half planes `x ≥ 0` and `x ≤ 0`, switching
    /// on `x = 0`.
    fn switched_halves() -> HybridSystem {
        let f0 = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], -1.0)]),
        ];
        let f1 = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 0.5)]),
            Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
        ];
        let x = Polynomial::var(2, 0);
        let guard_eq = vec![x.clone()];
        HybridSystem::new(
            2,
            vec![
                Mode::new("right", f0).with_flow_set(vec![x.clone()]),
                Mode::new("left", f1).with_flow_set(vec![x.scale(-1.0)]),
            ],
            vec![
                Jump::identity(0, 1).with_guard_eq(guard_eq.clone()),
                Jump::identity(1, 0).with_guard_eq(guard_eq),
            ],
        )
    }

    fn certify(sys: &HybridSystem, opt: &LyapunovOptions) -> LyapunovCertificates {
        LyapunovSynthesizer::new(sys)
            .synthesize(opt, &SosOptions::default())
            .expect("stable")
    }

    /// No point of the grid on `[−3, 3]²` inside `S1` leaves the strip.
    fn assert_no_leak(sys: &HybridSystem, res: &LevelSetResult) {
        for i in 0..100 {
            let x = -3.0 + 6.0 * (i as f64) / 99.0;
            for j in 0..100 {
                let y = -3.0 + 6.0 * (j as f64) / 99.0;
                if res.contains(sys, &[x, y], 0.0) {
                    assert!(
                        x.abs() <= 2.0 + 1e-6,
                        "level set leaks outside the strip at ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn level_set_touches_strip_boundary() {
        let sys = stable_strip();
        let certs = certify(&sys, &LyapunovOptions::degree(2));
        let res = LevelSetMaximizer::new(&sys, strip())
            .maximize(&certs, &LevelSetOptions::default(), &SosOptions::default())
            .expect("level found");
        assert!(res.level > 0.0, "level = {}", res.level);
        assert_eq!(res.probes, 2, "one margin program per boundary side");
        // The level set must contain a neighbourhood of the origin …
        assert!(res.contains(&sys, &[0.1, 0.1], 0.0));
        // … and stay inside the strip: V(x) ≤ c ⟹ |x₀| ≤ 2.
        assert_no_leak(&sys, &res);
        // It touches the boundary: min V on |x₀| = 2 is c*.
        let v = certs.for_mode(0);
        let touch = (0..=400)
            .map(|j| -20.0 + 40.0 * (j as f64) / 400.0)
            .flat_map(|y| [v.eval(&[2.0, y]), v.eval(&[-2.0, y])])
            .fold(f64::INFINITY, f64::min);
        assert!(
            (touch - res.level).abs() <= 1e-3 * touch,
            "c* = {} against min V on the boundary {touch}",
            res.level
        );
        assert_at_least_the_oracle(&sys, &certs, &res);
    }

    #[test]
    fn multiple_scheme_skips_empty_pieces_and_matches_the_oracle() {
        let sys = switched_halves();
        let opt = LyapunovOptions::degree(2).with_scheme(CertificateScheme::Multiple);
        let certs = certify(&sys, &opt);
        let res = LevelSetMaximizer::new(&sys, strip())
            .maximize(&certs, &LevelSetOptions::default(), &SosOptions::default())
            .expect("level found");
        // Two modes × two sides; the right mode never meets `x ≤ −2` and the
        // left never meets `x ≥ 2`, so two pieces need an emptiness check.
        assert_eq!(res.probes, 6);
        assert_no_leak(&sys, &res);
        assert_at_least_the_oracle(&sys, &certs, &res);
    }

    /// Lemma-1 probes past the level are refused. `c*` is the minimum of
    /// `V` on the strip's boundary (see above), so no level from
    /// `c* + 1e-3` to `c* + 4e-3` is included in the strip. The solver
    /// still returns solutions for some of these probes, but their
    /// certificates miss the identity by 7e-5 to 2.3e-4, beyond
    /// `check_inclusion`'s bound of `1e-5` of the scale (4e-5 here).
    #[test]
    fn levels_past_the_boundary_minimum_are_not_included() {
        let sys = stable_strip();
        let certs = certify(&sys, &LyapunovOptions::degree(2));
        let res = LevelSetMaximizer::new(&sys, strip())
            .maximize(&certs, &LevelSetOptions::default(), &SosOptions::default())
            .expect("level found");
        let v = certs.for_mode(0);
        let inc_opt = InclusionOptions {
            mult_half_degree: 1,
            sos: SosOptions::default(),
        };
        let included = |c: f64| {
            let level = v - &Polynomial::constant(2, c);
            strip()
                .iter()
                .all(|g| check_inclusion(&level, &g.scale(-1.0), &[], &inc_opt))
        };
        assert!(included(res.level), "c* = {} itself is refused", res.level);
        for k in 4..=16 {
            let c = res.level + k as f64 * 2.5e-4;
            assert!(
                !included(c),
                "level {c} above c* = {} is accepted",
                res.level
            );
        }
    }

    #[test]
    fn hi_caps_the_level() {
        let sys = stable_strip();
        let certs = certify(&sys, &LyapunovOptions::degree(2));
        let max = LevelSetMaximizer::new(&sys, strip());
        let free = max
            .maximize(&certs, &LevelSetOptions::default(), &SosOptions::default())
            .expect("level found");
        let cap = |hi: f64| {
            max.maximize(
                &certs,
                &LevelSetOptions { hi: Some(hi) },
                &SosOptions::default(),
            )
            .expect("level found")
            .level
        };
        assert_eq!(cap(0.5 * free.level), 0.5 * free.level);
        let uncapped = cap(2.0 * free.level);
        assert_eq!(uncapped, free.level, "a loose cap changes nothing");
    }
}
