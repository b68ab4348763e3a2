//! Solver results.

use cppll_linalg::Matrix;

/// Termination status of the interior-point method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdpStatus {
    /// All tolerances met: the returned point is optimal to the requested
    /// accuracy.
    Optimal,
    /// Feasibility tolerances met but the duality gap is only near the
    /// target (useful for warm feasibility answers).
    NearOptimal,
    /// Iteration limit reached before convergence.
    MaxIterations,
    /// Step lengths collapsed; the problem is likely ill-conditioned or
    /// weakly infeasible.
    Stalled,
    /// Heuristic primal-infeasibility certificate: the dual objective grew
    /// unboundedly along a direction with vanishing dual residuals.
    PrimalInfeasibleLikely,
    /// Heuristic dual-infeasibility certificate (primal unbounded).
    DualInfeasibleLikely,
    /// The cooperative wall-clock deadline expired before convergence.
    DeadlineExceeded,
}

impl SdpStatus {
    /// `true` when the returned primal point can be trusted as (near-)optimal.
    pub fn is_ok(self) -> bool {
        matches!(self, SdpStatus::Optimal | SdpStatus::NearOptimal)
    }

    /// `true` when a re-solve with different numerical parameters (more
    /// regularisation, rescaled data, a different step fraction) has a
    /// realistic chance of succeeding.
    ///
    /// Infeasibility verdicts are properties of the problem, not the solve,
    /// and an expired deadline will only expire again — neither is
    /// retryable.
    pub fn is_retryable(self) -> bool {
        matches!(self, SdpStatus::Stalled | SdpStatus::MaxIterations)
    }
}

impl std::fmt::Display for SdpStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SdpStatus::Optimal => "optimal",
            SdpStatus::NearOptimal => "near optimal",
            SdpStatus::MaxIterations => "iteration limit reached",
            SdpStatus::Stalled => "stalled",
            SdpStatus::PrimalInfeasibleLikely => "primal infeasible (heuristic)",
            SdpStatus::DualInfeasibleLikely => "dual infeasible (heuristic)",
            SdpStatus::DeadlineExceeded => "deadline exceeded",
        };
        f.write_str(s)
    }
}

/// Per-stage wall-clock totals, in seconds, accumulated across every
/// iteration of one solve.
///
/// Purely diagnostic: timings never influence solver decisions and never
/// enter the deterministic attempt logs — they answer "where does the time
/// go" in benchmark output and CLI reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveTimings {
    /// Problem-size reduction before the solve (Newton-polytope basis
    /// pruning and sign-symmetry block splitting). The solver itself never
    /// writes this stage; the SOS compiler above it does. Zero when
    /// reduction is disabled — reported explicitly, never hidden.
    pub reduction: f64,
    /// Residual and convergence-metric evaluation.
    pub residuals: f64,
    /// One-off symbolic analysis of the Schur/KKT sparsity (constraint
    /// supports, active columns, interacting-pair structure) performed once
    /// per solve before the iteration loop.
    pub schur_symbolic: f64,
    /// Per-block Cholesky factorisations of `Xⱼ`, `Sⱼ` and `Sⱼ⁻¹`.
    pub factorizations: f64,
    /// Schur-complement assembly (the `T = S⁻¹AX` solves and pair products).
    pub schur_assembly: f64,
    /// LDLᵀ factorisation of the KKT system.
    pub kkt_factor: f64,
    /// Newton direction computation (KKT solves plus block recovery).
    pub kkt_solve: f64,
    /// Fraction-to-boundary line searches: whitening each block's
    /// direction, a shifted-Cholesky test that rules out blocks whose
    /// minimum eigenvalue cannot bound the step, and a Jacobi eigensolve on
    /// the rest (see `step_tests` and `step_eigensolves`).
    pub line_search: f64,
    /// End-to-end wall clock of the solve call.
    pub total: f64,
    /// Count of structurally-zero Schur entries `M_{ik}` (constraint pairs
    /// sharing no PSD block) that the sparse assembly never evaluates, per
    /// assembly pass. Not a timing, but it lives here because it is the
    /// denominator-free "where did the win come from" statistic reported
    /// alongside the stage clocks.
    pub schur_pairs_skipped: u64,
    /// Blocks examined by the line searches: one per PSD block, side
    /// (primal, dual) and search.
    pub step_tests: u64,
    /// Of `step_tests`, the blocks the shifted-Cholesky test could not rule
    /// out, which therefore ran a Jacobi eigensolve.
    pub step_eigensolves: u64,
}

impl SolveTimings {
    /// Accumulates another solve's stage totals into this one (used to
    /// aggregate timings across supervised retry attempts and across
    /// pipeline stages).
    pub fn accumulate(&mut self, other: &SolveTimings) {
        self.reduction += other.reduction;
        self.residuals += other.residuals;
        self.schur_symbolic += other.schur_symbolic;
        self.factorizations += other.factorizations;
        self.schur_assembly += other.schur_assembly;
        self.kkt_factor += other.kkt_factor;
        self.kkt_solve += other.kkt_solve;
        self.line_search += other.line_search;
        self.total += other.total;
        self.schur_pairs_skipped += other.schur_pairs_skipped;
        self.step_tests += other.step_tests;
        self.step_eigensolves += other.step_eigensolves;
    }

    /// Stage names and totals in reporting order, excluding `total`.
    pub fn stages(&self) -> [(&'static str, f64); 8] {
        [
            ("reduction", self.reduction),
            ("residuals", self.residuals),
            ("factorizations", self.factorizations),
            ("schur_symbolic", self.schur_symbolic),
            ("schur_assembly", self.schur_assembly),
            ("kkt_factor", self.kkt_factor),
            ("kkt_solve", self.kkt_solve),
            ("line_search", self.line_search),
        ]
    }

    /// Canonical report lines: every stage printed, zero-cost stages shown
    /// with an explicit `0.0ms` rather than dropped or left blank, followed
    /// by the `total` row. All consumers (CLI, bench harness) render through
    /// this so stage names stay consistently padded everywhere.
    pub fn report_lines(&self) -> Vec<String> {
        let fmt = |secs: f64| {
            if secs < 1.0 {
                format!("{:>10.1}ms", secs * 1e3)
            } else {
                format!("{:>11.3}s", secs)
            }
        };
        let mut lines: Vec<String> = self
            .stages()
            .iter()
            .map(|(name, secs)| format!("{name:<26} {}", fmt(*secs)))
            .collect();
        lines.push(format!("{:<26} {}", "total", fmt(self.total)));
        // The counters ride along under the same padding so the CLI and
        // bench reports show them next to the stages they explain.
        for (name, count) in [
            ("schur_pairs_skipped", self.schur_pairs_skipped),
            ("step_tests", self.step_tests),
            ("step_eigensolves", self.step_eigensolves),
        ] {
            lines.push(format!("{name:<26} {count:>12}"));
        }
        lines
    }
}

/// Result of an SDP solve.
#[derive(Debug, Clone)]
pub struct SdpSolution {
    /// Termination status.
    pub status: SdpStatus,
    /// Primal PSD blocks `Xⱼ`.
    pub x: Vec<Matrix>,
    /// Free variables `u`.
    pub free: Vec<f64>,
    /// Dual multipliers `y`.
    pub y: Vec<f64>,
    /// Dual slack blocks `Sⱼ`.
    pub s: Vec<Matrix>,
    /// Primal objective `Σ⟨Cⱼ,Xⱼ⟩ + fᵀu`.
    pub primal_objective: f64,
    /// Dual objective `bᵀy`.
    pub dual_objective: f64,
    /// Final relative primal infeasibility.
    pub primal_infeasibility: f64,
    /// Final relative dual infeasibility.
    pub dual_infeasibility: f64,
    /// Final relative duality gap.
    pub gap: f64,
    /// Number of interior-point iterations performed.
    pub iterations: usize,
    /// Per-stage wall-clock breakdown of this solve.
    pub timings: SolveTimings,
    /// `true` when the solve was seeded from a saved iterate
    /// (`SolverOptions.warm_start`) whose dimensions matched.
    pub warm_started: bool,
}

impl SdpSolution {
    /// `true` when the status indicates a trustworthy solution.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }
}

impl std::fmt::Display for SdpSolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "status={} pobj={:.6e} dobj={:.6e} pinf={:.2e} dinf={:.2e} gap={:.2e} iters={}",
            self.status,
            self.primal_objective,
            self.dual_objective,
            self.primal_infeasibility,
            self.dual_infeasibility,
            self.gap,
            self.iterations
        )
    }
}

impl SdpStatus {
    /// Stable machine-readable name used in the checkpoint journal.
    pub fn as_str(self) -> &'static str {
        match self {
            SdpStatus::Optimal => "optimal",
            SdpStatus::NearOptimal => "near-optimal",
            SdpStatus::MaxIterations => "max-iterations",
            SdpStatus::Stalled => "stalled",
            SdpStatus::PrimalInfeasibleLikely => "primal-infeasible",
            SdpStatus::DualInfeasibleLikely => "dual-infeasible",
            SdpStatus::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Inverse of [`SdpStatus::as_str`].
    pub fn parse(name: &str) -> Option<SdpStatus> {
        Some(match name {
            "optimal" => SdpStatus::Optimal,
            "near-optimal" => SdpStatus::NearOptimal,
            "max-iterations" => SdpStatus::MaxIterations,
            "stalled" => SdpStatus::Stalled,
            "primal-infeasible" => SdpStatus::PrimalInfeasibleLikely,
            "dual-infeasible" => SdpStatus::DualInfeasibleLikely,
            "deadline-exceeded" => SdpStatus::DeadlineExceeded,
            _ => return None,
        })
    }
}

impl cppll_json::ToJson for SdpStatus {
    fn to_json(&self) -> cppll_json::Value {
        cppll_json::Value::String(self.as_str().to_string())
    }
}

impl cppll_json::FromJson for SdpStatus {
    fn from_json(v: &cppll_json::Value) -> Result<Self, cppll_json::DecodeError> {
        use cppll_json::{decode, DecodeError};
        let name = decode::string(v)?;
        SdpStatus::parse(name)
            .ok_or_else(|| DecodeError::new(format!("unknown SDP status '{name}'")))
    }
}

impl cppll_json::ToJson for SolveTimings {
    fn to_json(&self) -> cppll_json::Value {
        cppll_json::ObjectBuilder::new()
            .field("reduction", self.reduction)
            .field("residuals", self.residuals)
            .field("schur_symbolic", self.schur_symbolic)
            .field("factorizations", self.factorizations)
            .field("schur_assembly", self.schur_assembly)
            .field("kkt_factor", self.kkt_factor)
            .field("kkt_solve", self.kkt_solve)
            .field("line_search", self.line_search)
            .field("total", self.total)
            .field("schur_pairs_skipped", self.schur_pairs_skipped as f64)
            .field("step_tests", self.step_tests as f64)
            .field("step_eigensolves", self.step_eigensolves as f64)
            .build()
    }
}

impl cppll_json::FromJson for SolveTimings {
    fn from_json(v: &cppll_json::Value) -> Result<Self, cppll_json::DecodeError> {
        use cppll_json::decode;
        Ok(SolveTimings {
            // Absent in journals written before the reduction stage existed;
            // those fingerprints are stale anyway, but decode stays lenient.
            reduction: decode::optional(v, "reduction")?.unwrap_or(0.0),
            residuals: decode::required(v, "residuals")?,
            // Absent in journals written before the sparse Schur path.
            schur_symbolic: decode::optional(v, "schur_symbolic")?.unwrap_or(0.0),
            factorizations: decode::required(v, "factorizations")?,
            schur_assembly: decode::required(v, "schur_assembly")?,
            kkt_factor: decode::required(v, "kkt_factor")?,
            kkt_solve: decode::required(v, "kkt_solve")?,
            line_search: decode::required(v, "line_search")?,
            total: decode::required(v, "total")?,
            schur_pairs_skipped: decode::optional(v, "schur_pairs_skipped")?
                .map_or(0, |n: f64| n as u64),
            // Absent in journals written before the pruned line search.
            step_tests: decode::optional(v, "step_tests")?.map_or(0, |n: f64| n as u64),
            step_eigensolves: decode::optional(v, "step_eigensolves")?.map_or(0, |n: f64| n as u64),
        })
    }
}

impl cppll_json::ToJson for SdpSolution {
    fn to_json(&self) -> cppll_json::Value {
        cppll_json::ObjectBuilder::new()
            .field("status", self.status)
            .field("x", &self.x)
            .field("free", &self.free)
            .field("y", &self.y)
            .field("s", &self.s)
            .field("primal_objective", self.primal_objective)
            .field("dual_objective", self.dual_objective)
            .field("primal_infeasibility", self.primal_infeasibility)
            .field("dual_infeasibility", self.dual_infeasibility)
            .field("gap", self.gap)
            .field("iterations", self.iterations)
            .field("timings", self.timings)
            .field("warm_started", self.warm_started)
            .build()
    }
}

impl cppll_json::FromJson for SdpSolution {
    fn from_json(v: &cppll_json::Value) -> Result<Self, cppll_json::DecodeError> {
        use cppll_json::decode;
        Ok(SdpSolution {
            status: decode::required(v, "status")?,
            x: decode::required(v, "x")?,
            free: decode::required(v, "free")?,
            y: decode::required(v, "y")?,
            s: decode::required(v, "s")?,
            primal_objective: decode::required(v, "primal_objective")?,
            dual_objective: decode::required(v, "dual_objective")?,
            primal_infeasibility: decode::required(v, "primal_infeasibility")?,
            dual_infeasibility: decode::required(v, "dual_infeasibility")?,
            gap: decode::required(v, "gap")?,
            iterations: decode::required(v, "iterations")?,
            timings: decode::required(v, "timings")?,
            warm_started: decode::required(v, "warm_started")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::SdpStatus;

    #[test]
    fn retryable_statuses_are_exactly_the_transient_ones() {
        assert!(SdpStatus::Stalled.is_retryable());
        assert!(SdpStatus::MaxIterations.is_retryable());
        assert!(!SdpStatus::Optimal.is_retryable());
        assert!(!SdpStatus::NearOptimal.is_retryable());
        assert!(!SdpStatus::PrimalInfeasibleLikely.is_retryable());
        assert!(!SdpStatus::DualInfeasibleLikely.is_retryable());
        assert!(!SdpStatus::DeadlineExceeded.is_retryable());
    }

    #[test]
    fn retryable_and_ok_are_disjoint() {
        for s in [
            SdpStatus::Optimal,
            SdpStatus::NearOptimal,
            SdpStatus::MaxIterations,
            SdpStatus::Stalled,
            SdpStatus::PrimalInfeasibleLikely,
            SdpStatus::DualInfeasibleLikely,
            SdpStatus::DeadlineExceeded,
        ] {
            assert!(!(s.is_ok() && s.is_retryable()), "{s}");
        }
    }

    #[test]
    fn display_covers_new_statuses() {
        assert_eq!(SdpStatus::DeadlineExceeded.to_string(), "deadline exceeded");
    }
}
