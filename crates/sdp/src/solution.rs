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
