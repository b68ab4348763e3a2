//! Verification of **inevitability of phase-locking** for charge-pump PLLs —
//! the paper's primary contribution, built on the `cppll` substrate crates.
//!
//! The inevitability property `P` ("every trajectory eventually reaches the
//! phase-lock equilibrium") is split into `P = P1 ∧ P2` over a partition
//! `S1 ∪ S2` of the modeled state space:
//!
//! * **P1** (deductive): all trajectories starting in the *attractive
//!   invariant* `S1` converge to the equilibrium — certified by multiple
//!   Lyapunov functions for the hybrid system ([`LyapunovSynthesizer`],
//!   Theorem 1/2 of the paper) with their level curves maximised to carve
//!   out the largest certified `S1` ([`LevelSetMaximizer`]).
//! * **P2** (bounded): all trajectories starting in `S2` reach `S1` in
//!   bounded time — shown by advecting polynomial level sets with the flow
//!   ([`Advection`], Algorithm 1) and closing inconclusive leftovers with
//!   deductive escape certificates ([`EscapeSynthesizer`], Proposition 1).
//!
//! The one-call entry point is [`InevitabilityVerifier`], which produces a
//! [`VerificationReport`] with every certificate, the advection trace and
//! per-step timings (the reproduction of the paper's Table 2).
//!
//! Every positivity check is an SOS relaxation — sound but incomplete, so a
//! failed step means *inconclusive*, never "false". Certificates can be
//! re-validated a posteriori with [`validation`] (SOS residuals +
//! Monte-Carlo simulation).

pub mod advection;
pub mod barrier;
pub mod checkpoint;
pub mod escape;
pub mod exactify;
pub mod levelset;
pub mod lyapunov;
pub mod parse;
pub mod pipeline;
pub mod region;
pub mod resilience;
pub mod spec;
pub mod sweep;
pub mod validation;

pub use advection::{Advection, AdvectionOptions, AdvectionStep};
pub use barrier::{BarrierCertificate, BarrierOptions, BarrierSynthesizer};
pub use checkpoint::{
    CacheEntry, CertificateCache, CheckpointConfig, CheckpointError, Durability, JournalRecovery,
    LedgerSnapshot, ResumeSummary, RunJournal, StageRecord,
};
pub use escape::{EscapeCertificate, EscapeOptions, EscapeSynthesizer};
pub use exactify::{exactify_certificates, ExactificationReport, ExactifyError, ExactifyOptions};
pub use levelset::{LevelSetMaximizer, LevelSetOptions, LevelSetResult};
pub use lyapunov::{
    CertificateScheme, LyapunovCertificates, LyapunovOptions, LyapunovSynthesizer, RobustEncoding,
};
pub use parse::{parse_polynomial, ParsePolynomialError};
pub use pipeline::{
    step_times, InevitabilityVerifier, PipelineOptions, Verdict, VerificationReport,
};
pub use region::Region;
pub use resilience::{FailureReport, PipelineStage, ResilienceConfig};
pub use spec::{
    run_inevitability, spec_fingerprint, JumpSpec, ModeSpec, ParamSpec, SpecError, SystemSpec,
};
pub use sweep::{
    run_sweep, run_sweep_with, Atlas, CellOutcome, CellProblem, CellRecord, CellStatus, SweepAxis,
    SweepCounters, SweepError, SweepOptions, SweepSpec, SweepTarget,
};
pub use validation::{Sampler, ValidationReport, Validator};

// Fault-injection plumbing, re-exported so front-ends (CLI, CI smoke jobs)
// can build crash plans without depending on `cppll-sdp` directly.
pub use cppll_sdp::{CrashMode, FaultInjector, FaultKind, FaultPlan, JournalFault};

// Problem-size reduction knobs and statistics, re-exported so front-ends
// can toggle `--no-reduce` without depending on `cppll-sos` directly.
pub use cppll_sos::{Reduction, ReductionStats};

// Tracing plumbing, re-exported so front-ends and tests can build a
// tracer / recorder without depending on `cppll-trace` directly.
pub use cppll_trace::{
    check_lane_monotonic, match_span_tree, span_forest, Event, EventKind, FieldValue, SpanNode,
    TraceLevel, TraceRecorder, Tracer,
};

/// Errors surfaced by the verification pipeline.
#[derive(Debug)]
pub enum VerifyError {
    /// A certificate synthesis SOS program was infeasible at the requested
    /// degree (the relaxation is incomplete: try a higher degree).
    Infeasible {
        /// Which step failed.
        step: &'static str,
        /// Underlying SOS error.
        source: cppll_sos::SosError,
    },
    /// Numerical failure inside the SDP solver.
    Numerical {
        /// Which step failed.
        step: &'static str,
        /// Underlying SOS error.
        source: cppll_sos::SosError,
    },
    /// The run journal could not be written, or an existing journal could
    /// not be replayed (corrupt or stale).
    Checkpoint {
        /// Underlying checkpoint error.
        source: CheckpointError,
    },
}

impl VerifyError {
    /// The supervised attempt log of the underlying solve, when one exists.
    pub fn attempts(&self) -> &[cppll_sos::AttemptRecord] {
        match self {
            VerifyError::Infeasible { source, .. } | VerifyError::Numerical { source, .. } => {
                source.attempts()
            }
            VerifyError::Checkpoint { .. } => &[],
        }
    }

    pub(crate) fn from_sos(step: &'static str, e: cppll_sos::SosError) -> Self {
        match e {
            cppll_sos::SosError::Infeasible { .. } => VerifyError::Infeasible { step, source: e },
            cppll_sos::SosError::Numerical { .. } => VerifyError::Numerical { step, source: e },
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Infeasible { step, source } => {
                write!(f, "{step}: no certificate at this degree ({source})")
            }
            VerifyError::Numerical { step, source } => {
                write!(f, "{step}: solver failure ({source})")
            }
            VerifyError::Checkpoint { source } => {
                write!(f, "checkpoint: {source}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<CheckpointError> for VerifyError {
    fn from(source: CheckpointError) -> Self {
        VerifyError::Checkpoint { source }
    }
}
