//! The SOS program builder and its compilation to an SDP.

use std::collections::{BTreeMap, BTreeSet};

use cppll_linalg::Matrix;
use cppll_poly::{monomials_up_to, prune_gram_basis, Monomial, NewtonPolytope, Polynomial};
use cppll_sdp::{BlockId, FreeVarId, SdpProblem, SdpSolution, SdpStatus, SolverOptions};
use cppll_trace::TraceLevel;

use crate::decomposition::SosDecomposition;
use crate::expr::{GramVarId, PolyExpr, PolyOp, PolyVarId, ScalarVarId};
use crate::reduce::{refine_by_term_sparsity, Reduction, ReductionStats, TsGram};
use crate::supervisor::{attempt_options, AttemptRecord, ResilienceOptions};

/// Identifier of an SOS constraint (used to read back Gram matrices and
/// decompositions from a solution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SosConstraintId(usize);

/// Options controlling compilation and the underlying SDP solve.
#[derive(Debug, Clone)]
pub struct SosOptions {
    /// Weight of `Σ tr(Gram)` added to the objective. For pure feasibility
    /// problems this regularises the solution towards small Gram matrices
    /// and guarantees dual strict feasibility; when a linear objective is
    /// present it should be small.
    pub trace_weight: f64,
    /// Options forwarded to the SDP solver.
    pub sdp: SolverOptions,
    /// Supervision of the solve: retry count, budgets, fault hooks. The
    /// default is inert (single attempt, no timeouts).
    pub resilience: ResilienceOptions,
    /// Problem-size reduction applied during compilation (support-driven
    /// multiplier bases, Newton-polytope pruning, term-sparsity blocks).
    /// On by default; [`Reduction::Off`] reproduces the unreduced SDP bit
    /// for bit.
    pub reduction: Reduction,
}

impl Default for SosOptions {
    fn default() -> Self {
        SosOptions {
            trace_weight: 1.0,
            sdp: SolverOptions::default(),
            resilience: ResilienceOptions::default(),
            reduction: Reduction::default(),
        }
    }
}

impl SosOptions {
    /// Options suited to problems with a meaningful linear objective: the
    /// Gram trace regularisation is made negligible.
    pub fn with_objective() -> Self {
        SosOptions {
            trace_weight: 1e-6,
            ..Default::default()
        }
    }
}

/// Error returned when an SOS program cannot be solved.
#[derive(Debug, Clone)]
pub enum SosError {
    /// The SDP solver flagged (likely) infeasibility — no certificate of the
    /// requested form exists (or the relaxation degree is too low).
    Infeasible {
        /// Underlying solver status.
        status: SdpStatus,
    },
    /// The solver failed numerically before reaching an answer, after
    /// exhausting any configured retries. Carries the final iterate's
    /// residuals and the full attempt log for diagnosis.
    Numerical {
        /// Underlying solver status of the final attempt.
        status: SdpStatus,
        /// Final relative primal infeasibility.
        primal_infeasibility: f64,
        /// Final relative dual infeasibility.
        dual_infeasibility: f64,
        /// Final relative duality gap.
        gap: f64,
        /// Interior-point iterations of the final attempt.
        iterations: usize,
        /// Every attempt made, in order.
        attempts: Vec<AttemptRecord>,
    },
}

impl SosError {
    /// The supervised attempt log, when one exists. Infeasibility carries
    /// no attempts — it is an answer reached on the first try that counts,
    /// not a failure history.
    pub fn attempts(&self) -> &[AttemptRecord] {
        match self {
            SosError::Infeasible { .. } => &[],
            SosError::Numerical { attempts, .. } => attempts,
        }
    }
}

impl std::fmt::Display for SosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SosError::Infeasible { status } => {
                write!(f, "sos program is infeasible ({status})")
            }
            SosError::Numerical {
                status,
                primal_infeasibility,
                dual_infeasibility,
                gap,
                iterations,
                attempts,
            } => {
                write!(
                    f,
                    "sdp solver failed numerically ({status}) after {} attempt(s): \
                     pinf={primal_infeasibility:.2e} dinf={dual_infeasibility:.2e} \
                     gap={gap:.2e} iters={iterations}",
                    attempts.len().max(1)
                )
            }
        }
    }
}

impl std::error::Error for SosError {}

struct PolyVarInfo {
    basis: Vec<Monomial>,
}

struct GramVarInfo {
    basis: Vec<Monomial>,
    /// Per-variable override of the objective trace weight.
    trace_weight: Option<f64>,
}

enum ConstraintKind {
    /// Expression must equal `z(x)ᵀ P z(x)` for some `P ⪰ 0`.
    Sos {
        basis_override: Option<Vec<Monomial>>,
    },
    /// Expression must be identically zero.
    Zero,
}

struct Constraint {
    expr: PolyExpr,
    kind: ConstraintKind,
}

/// A sum-of-squares program: decision scalars/polynomials plus SOS and
/// zero-equality constraints over them, compiled to one block SDP.
///
/// See the crate-level documentation for the programming model and an
/// example.
pub struct SosProgram {
    nvars: usize,
    num_scalars: usize,
    polys: Vec<PolyVarInfo>,
    grams: Vec<GramVarInfo>,
    constraints: Vec<Constraint>,
    /// `minimise Σ w·s` objective terms on scalar variables.
    objective: Vec<(ScalarVarId, f64)>,
}

impl SosProgram {
    /// Creates an empty program over `nvars` indeterminates.
    pub fn new(nvars: usize) -> Self {
        SosProgram {
            nvars,
            num_scalars: 0,
            polys: Vec::new(),
            grams: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
        }
    }

    /// Number of indeterminates.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Adds a scalar decision variable.
    pub fn new_scalar(&mut self) -> ScalarVarId {
        self.num_scalars += 1;
        ScalarVarId(self.num_scalars - 1)
    }

    /// Adds a coefficient decision polynomial spanning `basis`.
    ///
    /// # Panics
    ///
    /// Panics if a basis monomial lives over the wrong number of variables.
    pub fn new_poly(&mut self, basis: Vec<Monomial>) -> PolyVarId {
        for m in &basis {
            assert_eq!(m.nvars(), self.nvars, "basis monomial ring mismatch");
        }
        self.polys.push(PolyVarInfo { basis });
        PolyVarId(self.polys.len() - 1)
    }

    /// Adds a coefficient decision polynomial spanning all monomials with
    /// total degree in `[min_degree, max_degree]`.
    pub fn new_poly_of_degree(&mut self, min_degree: u32, max_degree: u32) -> PolyVarId {
        let basis = monomials_up_to(self.nvars, max_degree)
            .into_iter()
            .filter(|m| m.degree() >= min_degree)
            .collect();
        self.new_poly(basis)
    }

    /// Adds a Gram-backed SOS decision polynomial of degree `2·half_degree`
    /// (an S-procedure multiplier). The polynomial is SOS by construction.
    pub fn new_sos_poly(&mut self, half_degree: u32) -> GramVarId {
        let basis = monomials_up_to(self.nvars, half_degree);
        self.grams.push(GramVarInfo {
            basis,
            trace_weight: None,
        });
        GramVarId(self.grams.len() - 1)
    }

    /// Overrides the objective trace weight of one SOS multiplier. Heavier
    /// weights push the solver towards *small* multipliers — useful when a
    /// downstream consumer (e.g. exact rounding) needs the main Gram to
    /// keep interior slack instead of being traded against the multipliers.
    pub fn set_sos_poly_trace_weight(&mut self, g: GramVarId, weight: f64) {
        self.grams[g.0].trace_weight = Some(weight);
    }

    /// Adds a Gram-backed SOS decision polynomial over an explicit basis.
    ///
    /// # Panics
    ///
    /// Panics if a basis monomial lives over the wrong number of variables.
    pub fn new_sos_poly_with_basis(&mut self, basis: Vec<Monomial>) -> GramVarId {
        for m in &basis {
            assert_eq!(m.nvars(), self.nvars, "basis monomial ring mismatch");
        }
        self.grams.push(GramVarInfo {
            basis,
            trace_weight: None,
        });
        GramVarId(self.grams.len() - 1)
    }

    /// Expression consisting of the single scalar variable `s`.
    pub fn scalar(&self, s: ScalarVarId) -> PolyExpr {
        let mut e = PolyExpr::zero(self.nvars);
        e.scalar_terms
            .push((s, Polynomial::constant(self.nvars, 1.0)));
        e
    }

    /// Expression consisting of the decision polynomial `v`.
    pub fn poly(&self, v: PolyVarId) -> PolyExpr {
        let mut e = PolyExpr::zero(self.nvars);
        e.poly_terms
            .push((v, PolyOp::Mul(Polynomial::constant(self.nvars, 1.0))));
        e
    }

    /// Expression for the composition `v(R(x))` of decision polynomial `v`
    /// with a known polynomial map `R` — affine in `v`'s coefficients. Used
    /// for jump conditions `V(R(x)) − V(x) ≤ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `subs.len() != self.nvars()` or the components live in a
    /// different ring.
    pub fn poly_composed(&self, v: PolyVarId, subs: &[Polynomial]) -> PolyExpr {
        assert_eq!(subs.len(), self.nvars, "substitution arity mismatch");
        for s in subs {
            assert_eq!(s.nvars(), self.nvars, "substitution ring mismatch");
        }
        let mut e = PolyExpr::zero(self.nvars);
        e.poly_terms.push((
            v,
            PolyOp::ComposeMul(subs.to_vec(), Polynomial::constant(self.nvars, 1.0)),
        ));
        e
    }

    /// Expression consisting of the SOS multiplier `g`.
    pub fn sos_poly(&self, g: GramVarId) -> PolyExpr {
        let mut e = PolyExpr::zero(self.nvars);
        e.gram_terms
            .push((g, Polynomial::constant(self.nvars, 1.0)));
        e
    }

    /// Expression for the Lie derivative `∇v · f` of decision polynomial `v`
    /// along the known vector field `f`.
    ///
    /// The Lie derivative is linear in `v`'s coefficients, so the result is
    /// still an affine expression.
    ///
    /// # Panics
    ///
    /// Panics if `f.len() != self.nvars()`.
    pub fn poly_lie_derivative(&self, v: PolyVarId, f: &[Polynomial]) -> PolyExpr {
        assert_eq!(f.len(), self.nvars, "vector field dimension mismatch");
        // ∇(Σλm)·f = Σᵢ (∂V/∂xᵢ) · fᵢ — each summand is a linear operation
        // on V's coefficients.
        let mut e = PolyExpr::zero(self.nvars);
        for (i, fi) in f.iter().enumerate() {
            e = e.add(&self.poly_partial_derivative(v, i).mul_poly(fi));
        }
        e
    }

    /// Expression for `∂v/∂xᵢ` of decision polynomial `v` — affine in the
    /// coefficients of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nvars()`.
    pub fn poly_partial_derivative(&self, v: PolyVarId, i: usize) -> PolyExpr {
        assert!(i < self.nvars, "variable index out of range");
        let mut e = PolyExpr::zero(self.nvars);
        e.poly_terms.push((
            v,
            PolyOp::DerivMul(i, Polynomial::constant(self.nvars, 1.0)),
        ));
        e
    }

    /// Adds the constraint `expr(x)` is SOS; returns an id for reading the
    /// Gram matrix back.
    ///
    /// # Panics
    ///
    /// Panics if `expr` lives over a different number of variables.
    pub fn require_sos(&mut self, expr: PolyExpr) -> SosConstraintId {
        assert_eq!(expr.nvars(), self.nvars, "expression ring mismatch");
        self.constraints.push(Constraint {
            expr,
            kind: ConstraintKind::Sos {
                basis_override: None,
            },
        });
        SosConstraintId(self.constraints.len() - 1)
    }

    /// Adds the constraint `expr(x)` is SOS with an explicit Gram basis.
    ///
    /// # Panics
    ///
    /// Panics on ring mismatches.
    pub fn require_sos_with_basis(
        &mut self,
        expr: PolyExpr,
        basis: Vec<Monomial>,
    ) -> SosConstraintId {
        assert_eq!(expr.nvars(), self.nvars, "expression ring mismatch");
        for m in &basis {
            assert_eq!(m.nvars(), self.nvars, "basis monomial ring mismatch");
        }
        self.constraints.push(Constraint {
            expr,
            kind: ConstraintKind::Sos {
                basis_override: Some(basis),
            },
        });
        SosConstraintId(self.constraints.len() - 1)
    }

    /// Adds the constraint `expr(x) ≡ 0` (coefficient-wise).
    ///
    /// # Panics
    ///
    /// Panics if `expr` lives over a different number of variables.
    pub fn require_zero(&mut self, expr: PolyExpr) {
        assert_eq!(expr.nvars(), self.nvars, "expression ring mismatch");
        self.constraints.push(Constraint {
            expr,
            kind: ConstraintKind::Zero,
        });
    }

    /// S-procedure helper: requires `expr ≥ 0` on the semialgebraic set
    /// `{x : gⱼ(x) ≥ 0}` by adding `expr − Σ σⱼ gⱼ` SOS with fresh SOS
    /// multipliers `σⱼ` of degree `2·mult_half_degree`.
    ///
    /// Returns the multiplier ids (useful for diagnostics).
    ///
    /// # Panics
    ///
    /// Panics on ring mismatches.
    pub fn require_nonneg_on(
        &mut self,
        expr: PolyExpr,
        domain: &[Polynomial],
        mult_half_degree: u32,
    ) -> (SosConstraintId, Vec<GramVarId>) {
        let mut e = expr;
        let mut mults = Vec::with_capacity(domain.len());
        for g in domain {
            assert_eq!(g.nvars(), self.nvars, "domain polynomial ring mismatch");
            let sigma = self.new_sos_poly(mult_half_degree);
            mults.push(sigma);
            e = e.sub(&self.sos_poly(sigma).mul_poly(g));
        }
        let id = self.require_sos(e);
        (id, mults)
    }

    /// Sets the objective to `minimise Σ wᵢ sᵢ` over scalar variables.
    pub fn minimize(&mut self, terms: &[(ScalarVarId, f64)]) {
        self.objective = terms.to_vec();
    }

    /// Sets the objective to `maximise s` (i.e. minimise `−s`).
    pub fn maximize_scalar(&mut self, s: ScalarVarId) {
        self.objective = vec![(s, -1.0)];
    }

    /// Compiles and solves the program under the supervision configured in
    /// [`SosOptions::resilience`]: retryable failures (stalls, iteration
    /// limits) are re-solved at once with escalated regularisation, a
    /// rescaled trace weight, and a jittered step fraction, up to
    /// [`ResilienceOptions::retries`]; each attempt respects the solve
    /// timeout and pipeline deadline. The default options perform exactly
    /// one attempt.
    ///
    /// # Errors
    ///
    /// [`SosError::Infeasible`] when the solver reports (likely)
    /// infeasibility (never retried — it is an answer about the problem);
    /// [`SosError::Numerical`] once retries are exhausted, carrying the
    /// final residuals and the full attempt log.
    pub fn solve(&self, options: &SosOptions) -> Result<SosSolution, SosError> {
        let mut base = options.clone();
        let res = &options.resilience;
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let max_attempts = res.retries + 1;

        let _sos_span = res.tracer.as_ref().map(|t| {
            t.span(
                TraceLevel::Solve,
                "sos_solve",
                format!(
                    "constraints={} polys={} scalars={}",
                    self.constraints.len(),
                    self.polys.len(),
                    self.num_scalars
                ),
            )
        });

        let mut counters_emitted = false;
        'modes: loop {
            for attempt in 0..max_attempts {
                let _attempt_span = res
                    .tracer
                    .as_ref()
                    .map(|t| t.span(TraceLevel::Solve, "attempt", format!("attempt={attempt}")));
                let attempt_options = attempt_options(&base, attempt);
                if let Some(fault) = &res.fault {
                    fault.set_attempt(attempt);
                }
                let compiled = self.compile(&attempt_options);
                let sol = compiled.sdp.solve(&attempt_options.sdp);
                if let Some(t) = &res.tracer {
                    // Reduction happens at compile time, before the solver
                    // runs; its clock joins the solver's stage counters so
                    // every stage is accounted for in one place.
                    let ns = (compiled.reduction_seconds * 1e9) as u64;
                    t.counter(cppll_sdp::REDUCTION_COUNTER, ns);
                    if !counters_emitted {
                        emit_reduction_counters(t, &compiled.stats);
                    }
                    t.instant(
                        TraceLevel::Solve,
                        "attempt_end",
                        vec![
                            ("status", sol.status.to_string().into()),
                            ("iterations", sol.iterations.into()),
                            ("pinf", sol.primal_infeasibility.into()),
                            ("dinf", sol.dual_infeasibility.into()),
                            ("gap", sol.gap.into()),
                        ],
                    );
                }
                counters_emitted = true;
                let record = AttemptRecord {
                    attempt,
                    status: sol.status,
                    iterations: sol.iterations,
                    primal_infeasibility: sol.primal_infeasibility,
                    dual_infeasibility: sol.dual_infeasibility,
                    gap: sol.gap,
                    trace_weight: attempt_options.trace_weight,
                    schur_regularization: attempt_options.sdp.schur_regularization,
                    step_fraction: attempt_options.sdp.step_fraction,
                };
                // Support-mode screening: the support-reduced compile is a
                // *restriction* of the full program (multiplier bases
                // shrunk, term-sparsity blocks split), so a feasible answer
                // is a genuine certificate and is returned directly — but an
                // infeasible or failed answer is inconclusive about the full
                // program. When the reduced attempt does not succeed and the
                // restriction actually changed the program, the solve falls
                // back to the unreduced compile (unless the run deadline has
                // passed), and the failed attempt stays in the log. Verdicts
                // therefore always agree with the unreduced program.
                let fallback = base
                    .reduction
                    .fallback()
                    .filter(|_| compiled.support_pruned);
                if let Some(full) = fallback {
                    match sol.status {
                        SdpStatus::Optimal | SdpStatus::NearOptimal => {
                            if let Some(t) = &res.tracer {
                                t.counter("support_screen_hit", 1);
                            }
                        }
                        SdpStatus::DeadlineExceeded
                            if res.deadline.is_some_and(|d| std::time::Instant::now() >= d) => {}
                        _ => {
                            // Screen miss: one shot only — drop straight to
                            // the unreduced compile with a fresh attempt
                            // budget rather than retrying the restricted
                            // program.
                            if let Some(t) = &res.tracer {
                                t.counter("support_screen_miss", 1);
                            }
                            attempts.push(record);
                            base.reduction = full;
                            continue 'modes;
                        }
                    }
                }
                attempts.push(record);
                let answered = match sol.status {
                    SdpStatus::Optimal | SdpStatus::NearOptimal => true,
                    // An infeasibility verdict is an *answer*, not a
                    // failure: feasibility probes hit it in normal
                    // operation, and the pipeline's degradation logic keys
                    // off the ledger's failure count.
                    SdpStatus::PrimalInfeasibleLikely | SdpStatus::DualInfeasibleLikely => true,
                    s if s.is_retryable() && attempt + 1 < max_attempts => {
                        if let Some(t) = &res.tracer {
                            t.counter("retry", 1);
                        }
                        continue;
                    }
                    _ => false,
                };
                if let Some(ledger) = &res.ledger {
                    ledger.record(&attempts, answered);
                    // Reduction stats describe the program, not the work:
                    // recorded once per solve, for the compile that serves
                    // the final answer.
                    ledger.add_reduction(&compiled.stats);
                }
                return match sol.status {
                    SdpStatus::Optimal | SdpStatus::NearOptimal => Ok(SosSolution {
                        nvars: self.nvars,
                        sdp: sol,
                        layout: compiled.layout,
                        reduction: compiled.stats,
                        poly_bases: self.polys.iter().map(|p| p.basis.clone()).collect(),
                        exprs: self.constraints.iter().map(|c| c.expr.clone()).collect(),
                    }),
                    status if answered => Err(SosError::Infeasible { status }),
                    status => Err(SosError::Numerical {
                        status,
                        primal_infeasibility: sol.primal_infeasibility,
                        dual_infeasibility: sol.dual_infeasibility,
                        gap: sol.gap,
                        iterations: sol.iterations,
                        attempts,
                    }),
                };
            }
            unreachable!("the attempt loop always returns on its final attempt")
        }
    }

    // ---- compilation ----------------------------------------------------

    fn compile(&self, options: &SosOptions) -> Compiled {
        let mut reduction_seconds = 0.0;
        let mut stats = ReductionStats::default();
        let support_mode = options.reduction.is_on();
        let mut support_pruned = false;

        // ---- Phase 1: multiplier basis candidates --------------------
        //
        // Without support reduction every S-procedure multiplier keeps its
        // declared (full-simplex) basis. Support mode keeps a monomial m
        // only if some shifted square 2m + α (α ∈ supp(h)) lands inside the
        // Newton polytope of the fixed support of each constraint the
        // multiplier certifies — a candidate none of whose diagonal rows
        // touches the target polytope has no reason to carry mass. The
        // quantifier is existential on purpose: rows outside the polytope
        // can still cancel against the constraint's other Grams.
        let mut mult_bases: Vec<Vec<Monomial>> =
            self.grams.iter().map(|g| g.basis.clone()).collect();
        if support_mode {
            let t = std::time::Instant::now();
            let polytopes: Vec<NewtonPolytope> = self
                .constraints
                .iter()
                .map(|c| NewtonPolytope::of_support(self.nvars, self.fixed_support(&c.expr).iter()))
                .collect();
            for (ci, c) in self.constraints.iter().enumerate() {
                for (g, h) in &c.expr.gram_terms {
                    let np = &polytopes[ci];
                    let before = mult_bases[g.0].len();
                    mult_bases[g.0].retain(|m| {
                        h.terms()
                            .any(|(alpha, _)| np.contains_shifted_doubled(m, alpha))
                    });
                    support_pruned |= mult_bases[g.0].len() < before;
                }
            }
            reduction_seconds += t.elapsed().as_secs_f64();
        }

        // ---- Phase 2: constraint Gram bases ---------------------------
        let mut plans: Vec<GramPlan> = mult_bases.into_iter().map(GramPlan::whole).collect();
        let mut cons_plans: Vec<Option<GramPlan>> = Vec::new();
        for c in &self.constraints {
            match &c.kind {
                ConstraintKind::Zero => cons_plans.push(None),
                ConstraintKind::Sos { basis_override } => {
                    let declared = basis_override
                        .clone()
                        .unwrap_or_else(|| self.auto_gram_basis(&c.expr, &plans));
                    stats.grams += 1;
                    stats.basis_before += declared.len();
                    // Newton pruning applies only to automatically chosen
                    // bases: explicit bases are a caller contract (exact
                    // verification relies on their dimension).
                    let basis = if support_mode && basis_override.is_none() {
                        let t = std::time::Instant::now();
                        let support: Vec<Monomial> =
                            self.expr_support(&c.expr, &plans).into_keys().collect();
                        let pruned = prune_gram_basis(&support, &declared);
                        reduction_seconds += t.elapsed().as_secs_f64();
                        stats.newton_dropped += declared.len() - pruned.len();
                        pruned
                    } else {
                        declared
                    };
                    stats.basis_after += basis.len();
                    cons_plans.push(Some(GramPlan::whole(basis)));
                }
            }
        }

        for (gi, g) in self.grams.iter().enumerate() {
            stats.grams += 1;
            stats.basis_before += g.basis.len();
            stats.basis_after += plans[gi].basis.len();
            stats.newton_dropped += g.basis.len() - plans[gi].basis.len();
        }

        // ---- Phase 3: term-sparsity refinement -----------------------
        //
        // TSSOS-style joint iteration per constraint: the constraint's own
        // Gram and its single-constraint multipliers are refined against
        // the constraint's fixed support, extending the support with
        // within-block pair products until the partition stabilises.
        // Multipliers shared by several constraints stay one block
        // (per-constraint refinement would produce inconsistent
        // partitions), as do constraints with caller-contracted bases.
        if support_mode {
            let t = std::time::Instant::now();
            let mut usage_count = vec![0usize; self.grams.len()];
            for c in &self.constraints {
                for (g, _) in &c.expr.gram_terms {
                    usage_count[g.0] += 1;
                }
            }
            for (ci, c) in self.constraints.iter().enumerate() {
                let ConstraintKind::Sos { basis_override } = &c.kind else {
                    continue;
                };
                if basis_override.is_some() {
                    continue;
                }
                let Some(own) = &cons_plans[ci] else { continue };
                let mults: Vec<(usize, Vec<Monomial>)> = c
                    .expr
                    .gram_terms
                    .iter()
                    .filter(|(g, _)| usage_count[g.0] == 1 && !plans[g.0].basis.is_empty())
                    .map(|(g, h)| (g.0, h.terms().map(|(m, _)| m.clone()).collect()))
                    .collect();
                let one = [Monomial::one(self.nvars)];
                let mut ts = vec![TsGram::new(&own.basis, &one)];
                ts.extend(
                    mults
                        .iter()
                        .map(|(g, shifts)| TsGram::new(&plans[*g].basis, shifts)),
                );
                let splits = refine_by_term_sparsity(&self.fixed_support(&c.expr), &mut ts);
                stats.term_sparsity_blocks += splits;
                support_pruned |= splits > 0;
                let mut refined: Vec<Vec<Vec<usize>>> = ts.into_iter().map(|g| g.classes).collect();
                for ((g, _), classes) in mults.iter().zip(refined.drain(1..)) {
                    plans[*g].classes = classes;
                }
                if let Some(own) = &mut cons_plans[ci] {
                    own.classes = refined.pop().expect("own gram plan");
                }
            }
            reduction_seconds += t.elapsed().as_secs_f64();
        }

        // ---- Phase 4: SDP assembly -----------------------------------
        let mut sdp = SdpProblem::new();
        // Free variables: scalars then poly coefficients.
        let scalar_free: Vec<FreeVarId> = (0..self.num_scalars)
            .map(|_| sdp.add_free_var(0.0))
            .collect();
        let mut poly_free: Vec<Vec<FreeVarId>> = Vec::with_capacity(self.polys.len());
        for p in &self.polys {
            poly_free.push(p.basis.iter().map(|_| sdp.add_free_var(0.0)).collect());
        }
        for &(s, w) in &self.objective {
            sdp.set_free_cost(scalar_free[s.0], w);
        }
        // Blocks: one PSD block per term-sparsity class per Gram (multipliers
        // first, then SOS constraints — same creation order as the
        // unreduced compiler, which the no-reduction path reproduces bit
        // for bit).
        let gram_layouts: Vec<GramLayout> = plans
            .iter()
            .zip(&self.grams)
            .map(|(plan, g)| {
                realise_layout(
                    &mut sdp,
                    plan,
                    g.trace_weight.unwrap_or(options.trace_weight),
                    &mut stats,
                )
            })
            .collect();
        let constraint_layouts: Vec<Option<GramLayout>> = cons_plans
            .iter()
            .map(|plan| {
                plan.as_ref()
                    .map(|p| realise_layout(&mut sdp, p, options.trace_weight, &mut stats))
            })
            .collect();

        // Emit coefficient-matching equalities per constraint. The row set
        // must cover the FULL potential support of the non-Gram part (rows
        // with no Gram pair become pure linear constraints on the decision
        // variables), plus every within-class pair product of the
        // constraint's own Gram.
        for (ci, c) in self.constraints.iter().enumerate() {
            let mut support = self.expr_support(&c.expr, &plans);
            if let Some(layout) = &constraint_layouts[ci] {
                for idxs in &layout.classes {
                    for (a, &ia) in idxs.iter().enumerate() {
                        for &ib in idxs.iter().skip(a) {
                            support.insert(layout.basis[ia].mul(&layout.basis[ib]), ());
                        }
                    }
                }
            }
            for alpha in support.keys() {
                let rhs = c.expr.constant.coefficient(alpha);
                let row = sdp.add_constraint(rhs);
                // Constraint's own Gram: +⟨E_α, P⟩, per class.
                if let Some(layout) = &constraint_layouts[ci] {
                    for (idxs, &block) in layout.classes.iter().zip(&layout.blocks) {
                        for (a, &ia) in idxs.iter().enumerate() {
                            for (b, &ib) in idxs.iter().enumerate().skip(a) {
                                if &layout.basis[ia].mul(&layout.basis[ib]) == alpha {
                                    sdp.set_entry(row, block, a, b, 1.0);
                                }
                            }
                        }
                    }
                }
                // Scalar terms: move to LHS with flipped sign.
                for (s, q) in &c.expr.scalar_terms {
                    let coef = q.coefficient(alpha);
                    if coef != 0.0 {
                        sdp.set_free_coeff(row, scalar_free[s.0], -coef);
                    }
                }
                // Poly-var terms (linear operations on decision coefficients).
                for (v, op) in &c.expr.poly_terms {
                    for (k, m) in self.polys[v.0].basis.iter().enumerate() {
                        let coef = op.apply(m).coefficient(alpha);
                        if coef != 0.0 {
                            sdp.set_free_coeff(row, poly_free[v.0][k], -coef);
                        }
                    }
                }
                // Gram multiplier terms, per class.
                for (g, h) in &c.expr.gram_terms {
                    let layout = &gram_layouts[g.0];
                    for (idxs, &block) in layout.classes.iter().zip(&layout.blocks) {
                        for (a, &ia) in idxs.iter().enumerate() {
                            for (b, &ib) in idxs.iter().enumerate().skip(a) {
                                let prod = layout.basis[ia].mul(&layout.basis[ib]);
                                // coefficient of alpha in (z_a z_b) * h
                                for (mh, ch) in h.terms() {
                                    if &prod.mul(mh) == alpha {
                                        sdp.set_entry(row, block, a, b, -ch);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // Normalize once at compile time: SdpProblem::solve then skips its
        // defensive clone-and-normalize on every retry attempt.
        sdp.normalize();

        Compiled {
            sdp,
            layout: Layout {
                scalar_free,
                poly_free,
                gram_layouts,
                constraint_layouts,
            },
            reduction_seconds,
            stats,
            support_pruned,
        }
    }

    /// Support of the fixed (non-Gram) part of `expr`: the constant plus
    /// everything the scalar and coefficient-polynomial decision variables
    /// can reach. This is the target support multiplier pruning and
    /// term-sparsity seeding work against.
    fn fixed_support(&self, expr: &PolyExpr) -> BTreeSet<Monomial> {
        let mut set = BTreeSet::new();
        for (m, _) in expr.constant.terms() {
            set.insert(m.clone());
        }
        for (_, q) in &expr.scalar_terms {
            for (m, _) in q.terms() {
                set.insert(m.clone());
            }
        }
        for (v, op) in &expr.poly_terms {
            for m in &self.polys[v.0].basis {
                for (am, _) in op.apply(m).terms() {
                    set.insert(am.clone());
                }
            }
        }
        set
    }

    /// Union of all monomials that can appear in `expr`, with multiplier
    /// Gram products restricted to within-class pairs (cross-class entries
    /// are structurally zero). The constraint's own Gram products are added
    /// separately by the caller.
    fn expr_support(&self, expr: &PolyExpr, plans: &[GramPlan]) -> BTreeMap<Monomial, ()> {
        let mut set = BTreeMap::new();
        for m in self.fixed_support(expr) {
            set.insert(m, ());
        }
        for (g, h) in &expr.gram_terms {
            let plan = &plans[g.0];
            for idxs in &plan.classes {
                for (a, &ia) in idxs.iter().enumerate() {
                    for &ib in idxs.iter().skip(a) {
                        let prod = plan.basis[ia].mul(&plan.basis[ib]);
                        for (mh, _) in h.terms() {
                            set.insert(prod.mul(mh), ());
                        }
                    }
                }
            }
        }
        set
    }

    /// Automatic Gram basis for an SOS constraint: all monomials whose
    /// doubled degree fits within the (per-variable and total) degree
    /// envelope of the expression's possible support.
    fn auto_gram_basis(&self, expr: &PolyExpr, plans: &[GramPlan]) -> Vec<Monomial> {
        let support = self.expr_support(expr, plans);
        if support.is_empty() {
            return vec![Monomial::one(self.nvars)];
        }
        let mut max_total = 0u32;
        let mut min_total = u32::MAX;
        let mut max_per_var = vec![0u32; self.nvars];
        for m in support.keys() {
            max_total = max_total.max(m.degree());
            min_total = min_total.min(m.degree());
            for (i, e) in max_per_var.iter_mut().enumerate() {
                *e = (*e).max(m.exp(i));
            }
        }
        let hi = max_total / 2;
        let lo = min_total.div_ceil(2).min(hi);
        monomials_up_to(self.nvars, hi)
            .into_iter()
            .filter(|m| {
                let d = m.degree();
                d >= lo && d <= hi && (0..self.nvars).all(|i| 2 * m.exp(i) <= max_per_var[i] + 1)
            })
            .collect()
    }
}

/// A Gram variable's compile-time plan, before SDP blocks exist: the
/// (possibly pruned) basis and its partition into term-sparsity classes
/// (basis indices; cross-class Gram entries are structurally zero).
struct GramPlan {
    basis: Vec<Monomial>,
    classes: Vec<Vec<usize>>,
}

impl GramPlan {
    /// The plan of a Gram kept as one block.
    fn whole(basis: Vec<Monomial>) -> Self {
        let classes = vec![(0..basis.len()).collect()];
        GramPlan { basis, classes }
    }
}

/// Allocates one PSD block per non-empty class of a Gram plan.
fn realise_layout(
    sdp: &mut SdpProblem,
    plan: &GramPlan,
    trace_weight: f64,
    stats: &mut ReductionStats,
) -> GramLayout {
    let mut classes = Vec::with_capacity(plan.classes.len());
    let mut blocks = Vec::with_capacity(plan.classes.len());
    for idxs in &plan.classes {
        // Newton pruning can empty a basis outright (the constraint
        // degenerates to pure linear rows); the solver has no use for a
        // 0-dimensional PSD block.
        if idxs.is_empty() {
            continue;
        }
        let n = idxs.len();
        let block = sdp.add_psd_block(n);
        sdp.set_block_cost_identity(block, trace_weight);
        stats.blocks += 1;
        stats.max_block = stats.max_block.max(n);
        classes.push(idxs.clone());
        blocks.push(block);
    }
    GramLayout {
        basis: plan.basis.clone(),
        classes,
        blocks,
    }
}

/// One-shot trace counters for what compilation-time reduction achieved.
fn emit_reduction_counters(t: &cppll_trace::Tracer, stats: &ReductionStats) {
    if stats.newton_dropped > 0 {
        t.counter("reduction_newton_dropped", stats.newton_dropped as u64);
    }
    if stats.term_sparsity_blocks > 0 {
        t.counter(
            "reduction_term_sparsity_blocks",
            stats.term_sparsity_blocks as u64,
        );
    }
}

/// How one Gram variable maps onto SDP blocks: the (possibly pruned) basis
/// and, per class, the PSD block holding that class's sub-Gram.
struct GramLayout {
    basis: Vec<Monomial>,
    /// Per term-sparsity class, its indices into `basis`.
    classes: Vec<Vec<usize>>,
    /// Per class, the `n×n` PSD block that is its sub-Gram.
    blocks: Vec<BlockId>,
}

impl GramLayout {
    /// Reassembles the full `basis.len() × basis.len()` Gram matrix from the
    /// solved blocks (cross-class entries are structurally zero).
    fn assemble(&self, x: &[Matrix]) -> Matrix {
        let n = self.basis.len();
        let mut q = Matrix::zeros(n, n);
        for (idxs, block) in self.classes.iter().zip(&self.blocks) {
            let xb = &x[block_index(block)];
            for (a, &ia) in idxs.iter().enumerate() {
                for (b, &ib) in idxs.iter().enumerate() {
                    q[(ia, ib)] += xb[(a, b)];
                }
            }
        }
        q
    }

    /// The polynomial `z(x)ᵀ Q z(x)` of the assembled Gram, summed block by
    /// block without materialising the full matrix.
    fn to_poly(&self, x: &[Matrix], nvars: usize) -> Polynomial {
        let mut p = Polynomial::zero(nvars);
        for (sub, m) in self.cloned_blocks(x) {
            for (a, ma) in sub.iter().enumerate() {
                for (b, mb) in sub.iter().enumerate() {
                    let v = m[(a, b)];
                    if v != 0.0 {
                        p.add_term(ma.mul(mb), v);
                    }
                }
            }
        }
        p
    }

    /// The solved PSD blocks as `(sub-basis, block Gram)` pairs.
    fn cloned_blocks(&self, x: &[Matrix]) -> Vec<(Vec<Monomial>, Matrix)> {
        self.classes
            .iter()
            .zip(&self.blocks)
            .map(|(idxs, block)| {
                (
                    idxs.iter().map(|&i| self.basis[i].clone()).collect(),
                    x[block_index(block)].clone(),
                )
            })
            .collect()
    }
}

struct Layout {
    scalar_free: Vec<FreeVarId>,
    poly_free: Vec<Vec<FreeVarId>>,
    gram_layouts: Vec<GramLayout>,
    constraint_layouts: Vec<Option<GramLayout>>,
}

struct Compiled {
    sdp: SdpProblem,
    layout: Layout,
    /// Wall-clock spent on basis pruning and block splitting (reported as
    /// the `reduction` solve stage).
    reduction_seconds: f64,
    stats: ReductionStats,
    /// Whether support-mode reduction restricted the program (multiplier
    /// monomials dropped, or a Gram split by term sparsity). When false,
    /// only the exact layer (Newton pruning of constraint Grams) changed
    /// it, so its answer settles the full program and a screening miss
    /// needs no fallback re-solve.
    support_pruned: bool,
}

/// A solved SOS program: read back scalar values, polynomial certificates,
/// Gram matrices and SOS decompositions.
pub struct SosSolution {
    nvars: usize,
    sdp: SdpSolution,
    layout: Layout,
    /// What compilation-time reduction achieved for this solve.
    reduction: ReductionStats,
    poly_bases: Vec<Vec<Monomial>>,
    /// Copies of the constraint expressions, for a-posteriori residuals.
    exprs: Vec<PolyExpr>,
}

impl SosSolution {
    /// Value of a scalar decision variable.
    pub fn scalar_value(&self, s: ScalarVarId) -> f64 {
        self.sdp.free[free_index(&self.layout.scalar_free[s.0])]
    }

    /// Numeric polynomial value of a coefficient decision polynomial.
    pub fn poly_value(&self, v: PolyVarId) -> Polynomial {
        let basis = &self.poly_bases[v.0];
        let nvars = basis.first().map_or(0, Monomial::nvars);
        let mut p = Polynomial::zero(nvars);
        for (k, m) in basis.iter().enumerate() {
            let val = self.sdp.free[free_index(&self.layout.poly_free[v.0][k])];
            p.add_term(m.clone(), val);
        }
        p
    }

    /// Numeric polynomial value of a Gram-backed SOS multiplier.
    pub fn sos_poly_value(&self, g: GramVarId) -> Polynomial {
        self.layout.gram_layouts[g.0].to_poly(&self.sdp.x, self.nvars)
    }

    /// Gram matrix and basis of a Gram-backed SOS multiplier — the raw
    /// certificate data (used, e.g., by exact-arithmetic post-verification).
    /// When term sparsity splits the Gram the matrix is reassembled from
    /// the solved blocks (cross-class entries are structurally zero).
    pub fn sos_poly_gram(&self, g: GramVarId) -> (&[Monomial], Matrix) {
        let layout = &self.layout.gram_layouts[g.0];
        (layout.basis.as_slice(), layout.assemble(&self.sdp.x))
    }

    /// Gram matrix and basis of an SOS constraint (if the constraint was an
    /// SOS — `None` for zero-equality constraints), reassembled across the
    /// term-sparsity blocks.
    pub fn constraint_gram(&self, c: SosConstraintId) -> Option<(&[Monomial], Matrix)> {
        self.layout.constraint_layouts[c.0]
            .as_ref()
            .map(|layout| (layout.basis.as_slice(), layout.assemble(&self.sdp.x)))
    }

    /// The solved PSD blocks of an SOS constraint as `(sub-basis, Gram)`
    /// pairs — the blocked form of [`SosSolution::constraint_gram`].
    pub fn constraint_gram_blocks(
        &self,
        c: SosConstraintId,
    ) -> Option<Vec<(Vec<Monomial>, Matrix)>> {
        self.layout.constraint_layouts[c.0]
            .as_ref()
            .map(|layout| layout.cloned_blocks(&self.sdp.x))
    }

    /// SOS decomposition `Σ qᵢ²` of the polynomial certified by constraint
    /// `c`, or `None` for zero-equality constraints. Built block-by-block,
    /// which is both cheaper and numerically no worse than eigensolving the
    /// assembled matrix (the blocks are its invariant subspaces).
    pub fn sos_decomposition(&self, c: SosConstraintId) -> Option<SosDecomposition> {
        let blocks = self.constraint_gram_blocks(c)?;
        Some(SosDecomposition::from_blocks(self.nvars, &blocks))
    }

    /// What compilation-time reduction achieved for this solve.
    pub fn reduction_stats(&self) -> ReductionStats {
        self.reduction
    }

    /// Underlying SDP solution (diagnostics).
    pub fn sdp_solution(&self) -> &SdpSolution {
        &self.sdp
    }

    /// Evaluates an expression at the solved decision values, returning the
    /// resulting numeric polynomial.
    fn eval_expr(&self, expr: &PolyExpr) -> Polynomial {
        let mut acc = expr.constant.clone();
        for (sv, q) in &expr.scalar_terms {
            acc = &acc + &q.scale(self.scalar_value(*sv));
        }
        for (pv, op) in &expr.poly_terms {
            let basis = &self.poly_bases[pv.0];
            for (k, m) in basis.iter().enumerate() {
                let coef = self.sdp.free[free_index(&self.layout.poly_free[pv.0][k])];
                if coef != 0.0 {
                    acc = &acc + &op.apply(m).scale(coef);
                }
            }
        }
        for (gv, h) in &expr.gram_terms {
            let sigma = self.sos_poly_value(*gv);
            acc = &acc + &(&sigma * h);
        }
        acc
    }

    /// A-posteriori certificate check: the maximum absolute coefficient of
    /// `expr(solution) − z(x)ᵀ P z(x)` for an SOS constraint (or of
    /// `expr(solution)` for a zero constraint). Small residuals mean the
    /// numeric solution genuinely satisfies the polynomial identity the
    /// constraint encodes — the defence against interior-point
    /// false-positives on marginally infeasible programs.
    pub fn residual_of(&self, c: SosConstraintId) -> f64 {
        let value = self.eval_expr(&self.exprs[c.0]);
        match &self.layout.constraint_layouts[c.0] {
            Some(layout) => {
                let gram = layout.to_poly(&self.sdp.x, self.nvars);
                (&value - &gram).max_abs_coefficient()
            }
            None => value.max_abs_coefficient(),
        }
    }

    /// Largest [`SosSolution::residual_of`] across all constraints.
    pub fn max_residual(&self) -> f64 {
        (0..self.exprs.len())
            .map(|i| self.residual_of(SosConstraintId(i)))
            .fold(0.0, f64::max)
    }
}

/// Converts a Gram matrix over a monomial basis into the polynomial
/// `z(x)ᵀ Q z(x)`.
pub(crate) fn gram_to_poly(basis: &[Monomial], q: &Matrix) -> Polynomial {
    let nvars = basis.first().map_or(0, Monomial::nvars);
    let mut p = Polynomial::zero(nvars);
    for (i, mi) in basis.iter().enumerate() {
        for (j, mj) in basis.iter().enumerate() {
            let v = q[(i, j)];
            if v != 0.0 {
                p.add_term(mi.mul(mj), v);
            }
        }
    }
    p
}

// Small helpers to strip the newtype ids (fields are crate-private in
// cppll-sdp; we rely on creation order instead).
fn free_index(id: &FreeVarId) -> usize {
    // FreeVarId is ordered by creation; cppll-sdp exposes the raw index via
    // Debug formatting is fragile — instead we rely on the public contract
    // that ids index into `SdpSolution::free` in creation order.
    id.index()
}

fn block_index(id: &BlockId) -> usize {
    id.index()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn motzkin() -> Polynomial {
        // x⁴y² + x²y⁴ − 3x²y² + 1 : nonnegative but NOT a sum of squares.
        Polynomial::from_terms(
            2,
            &[
                (&[4, 2], 1.0),
                (&[2, 4], 1.0),
                (&[2, 2], -3.0),
                (&[0, 0], 1.0),
            ],
        )
    }

    #[test]
    fn simple_square_is_sos() {
        // (x - y)² + 0.1
        let p = Polynomial::from_terms(
            2,
            &[
                (&[2, 0], 1.0),
                (&[1, 1], -2.0),
                (&[0, 2], 1.0),
                (&[0, 0], 0.1),
            ],
        );
        let mut prog = SosProgram::new(2);
        let c = prog.require_sos(p.clone().into());
        let sol = prog.solve(&SosOptions::default()).expect("feasible");
        let dec = sol.sos_decomposition(c).expect("sos constraint");
        assert!(dec.residual(&p) < 1e-6, "residual {}", dec.residual(&p));
    }

    #[test]
    fn motzkin_is_not_sos() {
        let mut prog = SosProgram::new(2);
        prog.require_sos(motzkin().into());
        let r = prog.solve(&SosOptions::default());
        assert!(r.is_err(), "motzkin must not be SOS");
    }

    #[test]
    fn motzkin_times_norm_is_sos() {
        // (x² + y² + 1) · motzkin is SOS — the classic certificate.
        let mult = Polynomial::from_terms(2, &[(&[2, 0], 1.0), (&[0, 2], 1.0), (&[0, 0], 1.0)]);
        let p = &mult * &motzkin();
        let mut prog = SosProgram::new(2);
        let c = prog.require_sos(p.clone().into());
        let sol = prog.solve(&SosOptions::default()).expect("feasible");
        let dec = sol.sos_decomposition(c).expect("sos constraint");
        assert!(dec.residual(&p) < 1e-4, "residual {}", dec.residual(&p));
    }

    #[test]
    fn lyapunov_for_stable_linear_system() {
        // ẋ = -x + y, ẏ = -y. Find quadratic V ≻ 0 with -V̇ SOS.
        let f = vec![
            Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
            Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
        ];
        let mut prog = SosProgram::new(2);
        let v = prog.new_poly_of_degree(2, 2);
        let eps = Polynomial::norm_squared(2).scale(1e-2);
        // V - ε‖x‖² SOS  and  -V̇ - ε‖x‖² SOS.
        prog.require_sos(prog.poly(v).sub(&eps.clone().into()));
        let vdot = prog.poly_lie_derivative(v, &f);
        prog.require_sos(vdot.neg().sub(&eps.into()));
        let sol = prog.solve(&SosOptions::default()).expect("feasible");
        let vp = sol.poly_value(v);
        // Check V > 0 and V̇ < 0 at sample points.
        for &(x, y) in &[(1.0, 0.5), (-2.0, 1.0), (0.1, -0.3)] {
            assert!(vp.eval(&[x, y]) > 0.0, "V not positive at ({x},{y})");
            let vdot_val = vp.lie_derivative(&f).eval(&[x, y]);
            assert!(vdot_val < 0.0, "V̇ not negative at ({x},{y})");
        }
    }

    #[test]
    fn s_procedure_nonneg_on_interval() {
        // p(x) = x is nonnegative on {x : x ≥ 0} (trivially, via σ = 1·x).
        let x = Polynomial::var(1, 0);
        let mut prog = SosProgram::new(1);
        let (c, _m) = prog.require_nonneg_on(x.clone().into(), std::slice::from_ref(&x), 0);
        let sol = prog.solve(&SosOptions::default()).expect("feasible");
        let _ = sol.constraint_gram(c);
    }

    #[test]
    fn s_procedure_detects_violation() {
        // p(x) = -1 - x² is NOT nonnegative on {x ≥ 0}.
        let x = Polynomial::var(1, 0);
        let p = Polynomial::from_terms(1, &[(&[0], -1.0), (&[2], -1.0)]);
        let mut prog = SosProgram::new(1);
        prog.require_nonneg_on(p.into(), &[x], 1);
        assert!(prog.solve(&SosOptions::default()).is_err());
    }

    #[test]
    fn scalar_objective_maximizes() {
        // max c s.t. x² - c is SOS ⇒ c* = 0.
        let x2 = Polynomial::from_terms(1, &[(&[2], 1.0)]);
        let mut prog = SosProgram::new(1);
        let c = prog.new_scalar();
        let expr = PolyExpr::from(x2).sub(&prog.scalar(c));
        prog.require_sos(expr);
        prog.maximize_scalar(c);
        let sol = prog.solve(&SosOptions::with_objective()).expect("feasible");
        assert!(
            sol.scalar_value(c).abs() < 1e-4,
            "c = {}",
            sol.scalar_value(c)
        );
    }

    #[test]
    fn lower_bound_of_quartic() {
        // max c s.t. (x²−1)² + 0.5 − c SOS ⇒ c* = 0.5.
        let p = Polynomial::from_terms(1, &[(&[4], 1.0), (&[2], -2.0), (&[0], 1.5)]);
        let mut prog = SosProgram::new(1);
        let c = prog.new_scalar();
        prog.require_sos(PolyExpr::from(p).sub(&prog.scalar(c)));
        prog.maximize_scalar(c);
        let sol = prog.solve(&SosOptions::with_objective()).expect("feasible");
        assert!(
            (sol.scalar_value(c) - 0.5).abs() < 1e-3,
            "c = {}",
            sol.scalar_value(c)
        );
    }

    #[test]
    fn zero_equality_constraint_binds() {
        // Find p of degree ≤ 2 with p ≡ x²  (i.e. p − x² = 0).
        let x2 = Polynomial::from_terms(1, &[(&[2], 1.0)]);
        let mut prog = SosProgram::new(1);
        let p = prog.new_poly_of_degree(0, 2);
        prog.require_zero(prog.poly(p).sub(&x2.clone().into()));
        let sol = prog.solve(&SosOptions::default()).expect("feasible");
        let got = sol.poly_value(p);
        assert!((&got - &x2).max_abs_coefficient() < 1e-5);
    }
}
