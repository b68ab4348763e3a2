//! Solver results.

use cppll_linalg::Matrix;

/// Termination status of the interior-point method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdpStatus {
    /// All tolerances met: the returned point is optimal to the requested
    /// accuracy.
    Optimal,
    /// Feasibility tolerances met but the duality gap is only near the
    /// target (useful for feasibility answers).
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
