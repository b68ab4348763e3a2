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

use cppll_sdp::{FaultInjector, SolverOptions};
use cppll_sos::{
    AttemptRecord, Reduction, ResilienceOptions, SolveLedger, SosOptions, DEFAULT_RETRIES,
};
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

/// Pipeline-level resilience configuration: how many retries each solve
/// gets, wall-clock budgets, and the (test-only) fault injector. The
/// default allows [`DEFAULT_RETRIES`] retries per solve with no budgets,
/// as [`ResilienceOptions::default`] does; use `retries = 0` for the
/// strictly-unsupervised single-attempt pipeline.
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

    /// The SOS options every solve of one pipeline run uses, built when
    /// the run starts: the run deadline becomes an absolute instant
    /// [`Self::deadline`] from now, and the deadline, fault injector and
    /// tracer go to the solver options, the one place the supervisor and
    /// the SDP solver read them.
    pub(crate) fn to_sos(
        &self,
        ledger: &SolveLedger,
        reduction: Reduction,
        tracer: Option<Tracer>,
    ) -> SosOptions {
        SosOptions {
            sdp: SolverOptions {
                deadline: self.deadline.map(|d| Instant::now() + d),
                fault: self.fault.clone(),
                trace: tracer,
                ..SolverOptions::default()
            },
            resilience: ResilienceOptions {
                retries: self.retries,
                solve_timeout: self.solve_timeout,
                ledger: Some(ledger.clone()),
            },
            reduction,
            ..SosOptions::default()
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
    fn pipeline_and_solver_defaults_agree_on_retries() {
        assert_eq!(
            ResilienceConfig::default().retries,
            ResilienceOptions::default().retries
        );
        assert_eq!(SosOptions::default().resilience.retries, DEFAULT_RETRIES);
    }

    #[test]
    fn default_config_retries_but_sets_no_budgets() {
        let c = ResilienceConfig::default();
        assert_eq!(c.retries, DEFAULT_RETRIES);
        assert!(c.solve_timeout.is_none());
        assert!(c.deadline.is_none());
        assert!(c.fault.is_none());
        let sos = c.to_sos(&SolveLedger::new(), Reduction::default(), None);
        assert_eq!(sos.resilience.retries, DEFAULT_RETRIES);
        assert!(sos.resilience.solve_timeout.is_none());
        assert!(sos.resilience.ledger.is_some());
        assert!(sos.sdp.deadline.is_none());
        assert!(sos.sdp.fault.is_none());
        assert!(sos.sdp.trace.is_none());
    }

    #[test]
    fn to_sos_puts_each_setting_in_one_field() {
        let fault = Arc::new(FaultInjector::new(cppll_sdp::FaultPlan::new()));
        let c = ResilienceConfig {
            solve_timeout: Some(Duration::from_secs(2)),
            deadline: Some(Duration::from_secs(60)),
            fault: Some(Arc::clone(&fault)),
            ..ResilienceConfig::with_retries(3)
        };
        let before = Instant::now();
        let tracer = Tracer::new(cppll_trace::TraceLevel::Solve);
        let sos = c.to_sos(&SolveLedger::new(), Reduction::Off, Some(tracer));
        assert_eq!(sos.resilience.retries, 3);
        assert_eq!(sos.resilience.solve_timeout, Some(Duration::from_secs(2)));
        assert_eq!(sos.reduction, Reduction::Off);
        let deadline = sos.sdp.deadline.expect("run deadline");
        assert!(deadline >= before + Duration::from_secs(60));
        assert!(deadline <= Instant::now() + Duration::from_secs(60));
        assert!(Arc::ptr_eq(sos.sdp.fault.as_ref().unwrap(), &fault));
        assert!(sos.sdp.trace.is_some());
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
