//! The solve supervisor: retry escalation, budgets, attempt records, and
//! the shared ledger.
//!
//! Every [`SosProgram::solve`](crate::SosProgram::solve) call is supervised:
//! when the SDP terminates with a *retryable* status
//! ([`SdpStatus::is_retryable`]) and [`ResilienceOptions::retries`] allows
//! it, the program is recompiled and re-solved at once with escalated
//! regularisation, a rescaled trace weight, and a deterministically
//! jittered step fraction. Infeasibility verdicts are never retried — they
//! are answers, not failures.
//!
//! Determinism is a design constraint: the attempt log of a supervised
//! solve contains only quantities derived from the problem, the options,
//! and the fixed-seed jitter — no wall-clock readings. Two runs with the
//! same fault schedule produce byte-identical logs.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cppll_sdp::{FaultInjector, SdpStatus};
use cppll_trace::Tracer;

use crate::program::SosOptions;
use crate::reduce::ReductionStats;

/// Factor applied to both Schur and free-variable regularisation per retry
/// (the classic escape hatch for stalled interior-point runs).
const REGULARIZATION_ESCALATION: f64 = 100.0;

/// Factor applied to the Gram trace weight per retry, floored at `1e-9`:
/// rescaling the objective changes the problem's conditioning without
/// changing its feasible set.
const TRACE_RESCALE: f64 = 1e-3;

/// Seed of the deterministic step-fraction jitter.
const JITTER_SEED: u64 = 0x5eed_cafe;

/// The effective options of attempt `attempt` (0-based) of a supervised
/// solve: escalated regularisation, rescaled trace weight, jittered step
/// fraction, and the per-attempt deadline and hooks.
pub(crate) fn attempt_options(base: &SosOptions, attempt: usize) -> SosOptions {
    let res = &base.resilience;
    let mut opt = base.clone();
    if attempt > 0 {
        let escalation = REGULARIZATION_ESCALATION.powi(attempt as i32);
        opt.sdp.schur_regularization *= escalation;
        opt.sdp.free_regularization *= escalation;
        opt.trace_weight = (base.trace_weight * TRACE_RESCALE.powi(attempt as i32)).max(1e-9);
    }
    opt.sdp.step_fraction = jittered_step_fraction(base.sdp.step_fraction, attempt);
    // The earlier of the attempt's own budget and the pipeline deadline.
    let attempt_end = res.solve_timeout.map(|t| Instant::now() + t);
    opt.sdp.deadline = attempt_end.into_iter().chain(res.deadline).min();
    opt.sdp.fault = res.fault.clone();
    opt.sdp.trace = res.tracer.clone();
    opt
}

/// Deterministic step fraction for `attempt` (0-based): the base value on
/// the first attempt, then a jittered value in `[0.90, 0.98]`.
fn jittered_step_fraction(base: f64, attempt: usize) -> f64 {
    if attempt == 0 {
        return base;
    }
    let r = splitmix64(JITTER_SEED ^ attempt as u64) as f64 / u64::MAX as f64;
    0.90 + 0.08 * r
}

/// One stage of splitmix64 — a tiny, well-distributed PRNG that keeps the
/// jitter deterministic without a `rand` dependency.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one attempt of a supervised solve did. Contains only deterministic
/// fields — no wall-clock — so attempt logs are reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Attempt number, 0-based.
    pub attempt: usize,
    /// Status the SDP solver reported.
    pub status: SdpStatus,
    /// Interior-point iterations performed.
    pub iterations: usize,
    /// Final relative primal infeasibility.
    pub primal_infeasibility: f64,
    /// Final relative dual infeasibility.
    pub dual_infeasibility: f64,
    /// Final relative duality gap.
    pub gap: f64,
    /// Trace weight the attempt compiled with.
    pub trace_weight: f64,
    /// Schur regularisation the attempt solved with.
    pub schur_regularization: f64,
    /// Step fraction the attempt solved with.
    pub step_fraction: f64,
}

impl AttemptRecord {
    /// Canonical single-line rendering, used for the ledger log and the
    /// determinism tests (byte-identical across runs with equal fault
    /// schedules).
    pub fn log_line(&self) -> String {
        format!(
            "attempt={} status={} iters={} pinf={:.6e} dinf={:.6e} gap={:.6e} tw={:.3e} reg={:.3e} step={:.6}",
            self.attempt,
            self.status,
            self.iterations,
            self.primal_infeasibility,
            self.dual_infeasibility,
            self.gap,
            self.trace_weight,
            self.schur_regularization,
            self.step_fraction,
        )
    }
}

/// Budgets, retries, and hooks for supervised solving. The default is a
/// no-op: one attempt, no timeouts, no faults — exactly the unsupervised
/// behaviour.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Retries allowed beyond the first attempt (0 = never retry).
    pub retries: usize,
    /// Per-attempt wall-clock budget (cooperative, checked once per
    /// interior-point iteration).
    pub solve_timeout: Option<Duration>,
    /// Absolute deadline for the whole pipeline; attempts never run past
    /// it. When both this and `solve_timeout` are set, the earlier instant
    /// wins.
    pub deadline: Option<Instant>,
    /// Fault injector forwarded to the SDP solver (testing hook). The
    /// supervisor reports the attempt number to it before each attempt.
    pub fault: Option<Arc<FaultInjector>>,
    /// Shared ledger collecting attempt statistics across solves.
    pub ledger: Option<SolveLedger>,
    /// Optional trace sink: the supervisor wraps each supervised solve in
    /// an `sos_solve` span with one `attempt` span per attempt, ends each
    /// attempt with an `attempt_end` instant carrying its status and final
    /// residuals, counts `retry`, and forwards the tracer to the SDP
    /// solver.
    pub tracer: Option<Tracer>,
}

/// Aggregate statistics from a [`SolveLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Supervised solves recorded.
    pub solves: usize,
    /// Total attempts across all solves.
    pub attempts: usize,
    /// Attempts beyond the first, across all solves.
    pub retries: usize,
    /// Solves that exhausted their attempts without reaching an answer
    /// (numerical failures; infeasibility verdicts are answers and do not
    /// count).
    pub failures: usize,
}

impl std::fmt::Display for LedgerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} solves, {} attempts ({} retries), {} failed",
            self.solves, self.attempts, self.retries, self.failures
        )
    }
}

impl cppll_json::ToJson for LedgerStats {
    fn to_json(&self) -> cppll_json::Value {
        cppll_json::ObjectBuilder::new()
            .field("solves", self.solves)
            .field("attempts", self.attempts)
            .field("retries", self.retries)
            .field("failures", self.failures)
            .build()
    }
}

impl cppll_json::FromJson for LedgerStats {
    fn from_json(v: &cppll_json::Value) -> Result<Self, cppll_json::DecodeError> {
        use cppll_json::decode;
        Ok(LedgerStats {
            solves: decode::required(v, "solves")?,
            attempts: decode::required(v, "attempts")?,
            retries: decode::required(v, "retries")?,
            failures: decode::required(v, "failures")?,
        })
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    stats: LedgerStats,
    lines: Vec<String>,
    /// What compilation-time problem reduction achieved, summed over every
    /// compiled attempt.
    reduction: ReductionStats,
}

/// Cheaply cloneable, thread-safe collector of attempt records. One ledger
/// is typically shared across every solve of a pipeline run; the
/// verification report then carries its statistics.
#[derive(Debug, Clone, Default)]
pub struct SolveLedger(Arc<Mutex<LedgerInner>>);

impl SolveLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one supervised solve's attempt history.
    pub fn record(&self, attempts: &[AttemptRecord], succeeded: bool) {
        let mut inner = self.0.lock().expect("ledger lock");
        inner.stats.solves += 1;
        inner.stats.attempts += attempts.len();
        inner.stats.retries += attempts.len().saturating_sub(1);
        if !succeeded {
            inner.stats.failures += 1;
        }
        let solve_index = inner.stats.solves - 1;
        for a in attempts {
            let line = format!("solve={} {}", solve_index, a.log_line());
            inner.lines.push(line);
        }
    }

    /// Accumulates one compiled attempt's problem-reduction statistics.
    pub fn add_reduction(&self, r: &ReductionStats) {
        self.0.lock().expect("ledger lock").reduction.accumulate(r);
    }

    /// Problem-reduction totals across every compiled attempt so far.
    pub fn reduction(&self) -> ReductionStats {
        self.0.lock().expect("ledger lock").reduction
    }

    /// Merges a previous run's cumulative statistics and reduction totals
    /// into this ledger, so a resumed pipeline reports the *total* work done
    /// across crash boundaries rather than only the post-resume tail.
    /// Called once by checkpoint replay, before any post-resume solve runs.
    /// Solver timings are not carried: they live in the trace, per process.
    pub fn absorb_prior(&self, stats: &LedgerStats, reduction: &ReductionStats) {
        let mut inner = self.0.lock().expect("ledger lock");
        inner.stats.solves += stats.solves;
        inner.stats.attempts += stats.attempts;
        inner.stats.retries += stats.retries;
        inner.stats.failures += stats.failures;
        inner.reduction.accumulate(reduction);
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> LedgerStats {
        self.0.lock().expect("ledger lock").stats
    }

    /// The full attempt log, one canonical line per attempt.
    pub fn log_lines(&self) -> Vec<String> {
        self.0.lock().expect("ledger lock").lines.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_never_retry() {
        assert_eq!(ResilienceOptions::default().retries, 0);
    }

    #[test]
    fn escalation_applies_only_to_retries() {
        let base = SosOptions::default();
        let first = attempt_options(&base, 0);
        assert_eq!(first.trace_weight, base.trace_weight);
        assert_eq!(first.sdp.step_fraction, base.sdp.step_fraction);
        assert_eq!(
            first.sdp.schur_regularization,
            base.sdp.schur_regularization
        );
        let second = attempt_options(&base, 2);
        assert_eq!(
            second.sdp.schur_regularization,
            base.sdp.schur_regularization * 1e4
        );
        assert_eq!(
            second.sdp.free_regularization,
            base.sdp.free_regularization * 1e4
        );
        assert!((second.trace_weight - base.trace_weight * 1e-6).abs() < 1e-15);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        assert_eq!(jittered_step_fraction(0.95, 0), 0.95);
        for attempt in 1..6 {
            let a = jittered_step_fraction(0.95, attempt);
            assert_eq!(a, jittered_step_fraction(0.95, attempt));
            assert!((0.90..=0.98).contains(&a), "{a}");
        }
        // Pinned: the retry of every supervised solve steps with this
        // fraction, so a moved value moves retried results.
        assert_eq!(
            format!("{:.6}", jittered_step_fraction(0.95, 1)),
            "0.974151"
        );
    }

    #[test]
    fn ledger_aggregates_attempts() {
        let ledger = SolveLedger::new();
        let rec = |attempt| AttemptRecord {
            attempt,
            status: SdpStatus::Stalled,
            iterations: 1,
            primal_infeasibility: 0.5,
            dual_infeasibility: 0.5,
            gap: 1.0,
            trace_weight: 1.0,
            schur_regularization: 1e-11,
            step_fraction: 0.95,
        };
        ledger.record(&[rec(0), rec(1)], true);
        ledger.record(&[rec(0)], false);
        let s = ledger.stats();
        assert_eq!(s.solves, 2);
        assert_eq!(s.attempts, 3);
        assert_eq!(s.retries, 1);
        assert_eq!(s.failures, 1);
        assert_eq!(ledger.log_lines().len(), 3);
        assert!(ledger.log_lines()[0].starts_with("solve=0 attempt=0"));
        assert!(ledger.log_lines()[2].starts_with("solve=1 attempt=0"));
    }

    #[test]
    fn absorb_prior_merges_counts() {
        let ledger = SolveLedger::new();
        let prior = LedgerStats {
            solves: 3,
            attempts: 5,
            retries: 2,
            failures: 1,
        };
        ledger.absorb_prior(&prior, &ReductionStats::default());
        let rec = AttemptRecord {
            attempt: 0,
            status: SdpStatus::Optimal,
            iterations: 1,
            primal_infeasibility: 0.0,
            dual_infeasibility: 0.0,
            gap: 0.0,
            trace_weight: 1.0,
            schur_regularization: 1e-11,
            step_fraction: 0.95,
        };
        ledger.record(&[rec], true);
        let s = ledger.stats();
        assert_eq!(s.solves, 4);
        assert_eq!(s.attempts, 6);
        assert_eq!(s.retries, 2);
        assert_eq!(s.failures, 1);
        // Post-resume log lines continue the solve numbering.
        assert!(ledger.log_lines()[0].starts_with("solve=3 "));
    }

    #[test]
    fn ledger_stats_round_trip_json() {
        use cppll_json::{parse, FromJson, ToJson};
        let s = LedgerStats {
            solves: 7,
            attempts: 9,
            retries: 2,
            failures: 1,
        };
        let back =
            LedgerStats::from_json(&parse(&s.to_json().to_compact_string()).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn log_line_is_stable() {
        let rec = AttemptRecord {
            attempt: 1,
            status: SdpStatus::MaxIterations,
            iterations: 42,
            primal_infeasibility: 1.25e-3,
            dual_infeasibility: 2.5e-4,
            gap: 0.125,
            trace_weight: 1e-3,
            schur_regularization: 1e-9,
            step_fraction: 0.9375,
        };
        assert_eq!(
            rec.log_line(),
            "attempt=1 status=iteration limit reached iters=42 pinf=1.250000e-3 \
             dinf=2.500000e-4 gap=1.250000e-1 tw=1.000e-3 reg=1.000e-9 step=0.937500"
        );
    }
}
