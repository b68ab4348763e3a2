//! Pipeline-level resilience: stage naming, failure reports, and the
//! configuration that wires the `cppll-sos` solve supervisor into every
//! stage of [`InevitabilityVerifier::verify`](crate::InevitabilityVerifier).
//!
//! The pipeline degrades rather than aborts: when a stage's solves fail
//! numerically even after the configured retries, `verify` returns a
//! *partial* [`VerificationReport`](crate::VerificationReport) whose
//! [`Verdict::Degraded`](crate::Verdict) names the stage and whose
//! [`FailureReport`]s carry the supervised attempt logs — everything the
//! earlier stages did prove (Lyapunov certificates, the attractive
//! invariant level) stays in the report. Infeasibility still propagates as
//! an error: it is an answer about the relaxation, not a transient fault.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cppll_sdp::FaultInjector;
use cppll_sos::{AttemptRecord, ResilienceOptions, SolveLedger};
use cppll_trace::Tracer;

/// The stages of Algorithm 1, as reported in failure reports and announced
/// to the fault injector (`FaultInjector::set_stage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PipelineStage {
    /// Multiple-Lyapunov-function synthesis (P1).
    Lyapunov,
    /// Level-curve maximisation carving the attractive invariant (P1).
    LevelSet,
    /// Bounded advection with inclusion checking (P2).
    Advection,
    /// Escape-certificate synthesis for the leftover (P2).
    Escape,
}

impl PipelineStage {
    /// Canonical lower-case stage name, matching what the pipeline passes
    /// to [`FaultInjector::set_stage`].
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::Lyapunov => "lyapunov",
            PipelineStage::LevelSet => "levelset",
            PipelineStage::Advection => "advection",
            PipelineStage::Escape => "escape",
        }
    }
}

impl std::fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured description of a stage failure that the pipeline absorbed
/// into a degraded verdict instead of propagating as an error.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The stage that failed.
    pub stage: PipelineStage,
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// Supervised attempt log of the failing solve, when the stage exposes
    /// one (stages that absorb solver errors into boolean outcomes report
    /// ledger-level counts in `detail` instead).
    pub attempts: Vec<AttemptRecord>,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed after {} attempt(s): {}",
            self.stage,
            self.attempts.len().max(1),
            self.detail
        )
    }
}

/// Retries each supervised solve gets by default. Nonzero on purpose: the
/// interior-point solver can stall on marginal-but-feasible programs (the
/// third-order PLL at degree 4 is one), and a retry with escalated
/// regularisation is what absorbs those transient failures now that the
/// Lyapunov ε-ladder no longer retries numerical errors.
pub const DEFAULT_RETRIES: usize = 2;

/// Pipeline-level resilience configuration: how many retries each solve
/// gets, wall-clock budgets, and the (test-only) fault injector. The
/// default allows [`DEFAULT_RETRIES`] retries per solve with no budgets;
/// use `retries = 0` for the strictly-unsupervised single-attempt
/// pipeline.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Retries allowed per supervised solve (0 = never retry).
    pub retries: usize,
    /// Wall-clock budget per solve attempt.
    pub solve_timeout: Option<Duration>,
    /// Wall-clock budget for the whole `verify` call, measured from its
    /// start; solves never run past it (they terminate with a
    /// `DeadlineExceeded` status, which is not retryable).
    pub deadline: Option<Duration>,
    /// Deterministic fault injector (testing hook); the pipeline announces
    /// each stage to it, the supervisor each attempt.
    pub fault: Option<Arc<FaultInjector>>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retries: DEFAULT_RETRIES,
            solve_timeout: None,
            deadline: None,
            fault: None,
        }
    }
}

impl ResilienceConfig {
    /// A config allowing `retries` retries per solve, otherwise default.
    pub fn with_retries(retries: usize) -> Self {
        ResilienceConfig {
            retries,
            ..Default::default()
        }
    }

    /// Announces `stage` to the fault injector, if one is attached.
    pub(crate) fn announce_stage(&self, stage: PipelineStage) {
        if let Some(fault) = &self.fault {
            fault.set_stage(stage.name());
        }
    }

    /// The solver-facing resilience options for one pipeline run:
    /// `deadline` is the absolute instant derived from [`Self::deadline`]
    /// at the start of `verify`, `ledger` the run's shared ledger.
    pub(crate) fn to_sos(
        &self,
        deadline: Option<Instant>,
        ledger: &SolveLedger,
        tracer: Option<Tracer>,
    ) -> ResilienceOptions {
        ResilienceOptions {
            retries: self.retries,
            solve_timeout: self.solve_timeout,
            deadline,
            fault: self.fault.clone(),
            ledger: Some(ledger.clone()),
            tracer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_the_fault_injector_convention() {
        assert_eq!(PipelineStage::Lyapunov.name(), "lyapunov");
        assert_eq!(PipelineStage::LevelSet.name(), "levelset");
        assert_eq!(PipelineStage::Advection.name(), "advection");
        assert_eq!(PipelineStage::Escape.name(), "escape");
        assert_eq!(PipelineStage::Escape.to_string(), "escape");
    }

    #[test]
    fn default_config_retries_but_sets_no_budgets() {
        let c = ResilienceConfig::default();
        assert_eq!(c.retries, DEFAULT_RETRIES);
        assert!(c.solve_timeout.is_none());
        assert!(c.deadline.is_none());
        assert!(c.fault.is_none());
        let ledger = SolveLedger::new();
        let sos = c.to_sos(None, &ledger, None);
        assert_eq!(sos.retries, DEFAULT_RETRIES);
        assert!(sos.solve_timeout.is_none());
        assert!(sos.deadline.is_none());
        assert!(sos.ledger.is_some());
    }

    #[test]
    fn with_retries_threads_through_to_the_supervisor() {
        let c = ResilienceConfig::with_retries(3);
        let sos = c.to_sos(None, &SolveLedger::new(), None);
        assert_eq!(sos.retries, 3);
    }

    #[test]
    fn failure_report_display_names_the_stage() {
        let r = FailureReport {
            stage: PipelineStage::Advection,
            detail: "2 supervised solve(s) failed".into(),
            attempts: Vec::new(),
        };
        assert_eq!(
            r.to_string(),
            "advection failed after 1 attempt(s): 2 supervised solve(s) failed"
        );
    }
}
