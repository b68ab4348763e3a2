//! The solve supervisor: retry policies, budgets, attempt records, and the
//! shared ledger.
//!
//! Every [`SosProgram::solve`](crate::SosProgram::solve) call is supervised:
//! when the SDP terminates with a *retryable* status
//! ([`SdpStatus::is_retryable`]) and the [`RetryPolicy`] allows it, the
//! program is recompiled and re-solved with escalated regularisation, a
//! rescaled trace weight, and a deterministically jittered step fraction.
//! Infeasibility verdicts are never retried — they are answers, not
//! failures.
//!
//! Determinism is a design constraint: the attempt log of a supervised
//! solve contains only quantities derived from the problem, the options,
//! and the (seeded) jitter — no wall-clock readings. Two runs with the same
//! seed and the same fault schedule produce byte-identical logs. Backoff is
//! therefore *planned* (recorded in milliseconds) and only actually slept
//! when [`RetryPolicy::sleep`] is set, which production callers may want
//! and tests never do.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cppll_sdp::{FaultInjector, SdpStatus};
use cppll_trace::Tracer;

use crate::reduce::ReductionStats;

/// How (and whether) failed solves are retried.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries allowed beyond the first attempt (0 = never retry).
    pub max_retries: usize,
    /// Factor applied to both Schur and free-variable regularisation per
    /// retry (the classic escape hatch for stalled interior-point runs).
    pub regularization_escalation: f64,
    /// Factor applied to the Gram trace weight per retry, floored at
    /// `1e-9`; rescaling the objective changes the problem's conditioning
    /// without changing its feasible set.
    pub trace_rescale: f64,
    /// Planned backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Multiplier on the planned backoff per further retry.
    pub backoff_factor: f64,
    /// Seed for the deterministic step-fraction jitter.
    pub jitter_seed: u64,
    /// Actually sleep the planned backoff between attempts. Defaults to on
    /// for production builds and off under `cfg(test)`, so unit tests stay
    /// fast while deployed pipelines get real backpressure. The sleep is
    /// always clamped to the remaining pipeline deadline — planned backoff
    /// is counted against the budget, never allowed to overrun it.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            regularization_escalation: 100.0,
            trace_rescale: 1e-3,
            backoff_base_ms: 10,
            backoff_factor: 2.0,
            jitter_seed: 0x5eed_cafe,
            sleep: cfg!(not(test)),
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_retries` retries with the default escalation.
    pub fn with_retries(max_retries: usize) -> Self {
        RetryPolicy {
            max_retries,
            ..Default::default()
        }
    }

    /// The planned backoff before retry number `retry` (1-based), in ms.
    pub fn planned_backoff_ms(&self, retry: usize) -> u64 {
        if retry == 0 {
            return 0;
        }
        let scaled = self.backoff_base_ms as f64 * self.backoff_factor.powi(retry as i32 - 1);
        scaled.min(60_000.0) as u64
    }

    /// Deterministic step fraction for `attempt` (0-based): the base value
    /// on the first attempt, then a jittered value in `[0.90, 0.98]`.
    pub fn jittered_step_fraction(&self, base: f64, attempt: usize) -> f64 {
        if attempt == 0 {
            return base;
        }
        let r = splitmix64(self.jitter_seed ^ attempt as u64) as f64 / u64::MAX as f64;
        0.90 + 0.08 * r
    }
}

/// One stage of splitmix64 — a tiny, well-distributed PRNG that keeps the
/// jitter deterministic without a `rand` dependency.
pub(crate) fn splitmix64(x: u64) -> u64 {
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
    /// Backoff planned after this attempt (0 on success or final failure).
    pub planned_backoff_ms: u64,
}

impl AttemptRecord {
    /// Canonical single-line rendering, used for the ledger log and the
    /// determinism tests (byte-identical across runs with equal seeds and
    /// fault schedules).
    pub fn log_line(&self) -> String {
        format!(
            "attempt={} status={} iters={} pinf={:.6e} dinf={:.6e} gap={:.6e} tw={:.3e} reg={:.3e} step={:.6} backoff_ms={}",
            self.attempt,
            self.status,
            self.iterations,
            self.primal_infeasibility,
            self.dual_infeasibility,
            self.gap,
            self.trace_weight,
            self.schur_regularization,
            self.step_fraction,
            self.planned_backoff_ms
        )
    }
}

/// Budgets, retry policy, and hooks for supervised solving. The default is
/// a no-op: one attempt, no timeouts, no faults — exactly the unsupervised
/// behaviour.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Retry policy.
    pub retry: RetryPolicy,
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
    /// an `sos_solve` span with one `attempt` span per attempt, counts
    /// `retry`, emits `backoff` instants with the
    /// deadline-clamped sleep, and forwards the tracer to the SDP solver.
    pub tracer: Option<Tracer>,
}

impl ResilienceOptions {
    /// The effective deadline for an attempt starting now.
    pub(crate) fn attempt_deadline(&self) -> Option<Instant> {
        match (
            self.solve_timeout.map(|t| Instant::now() + t),
            self.deadline,
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
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
    fn default_policy_never_retries() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.planned_backoff_ms(0), 0);
        // Under cfg(test) the default policy never sleeps its backoff.
        assert!(!p.sleep);
    }

    #[test]
    fn backoff_grows_geometrically_and_saturates() {
        let p = RetryPolicy::with_retries(3);
        assert_eq!(p.planned_backoff_ms(1), 10);
        assert_eq!(p.planned_backoff_ms(2), 20);
        assert_eq!(p.planned_backoff_ms(3), 40);
        let mut huge = RetryPolicy::with_retries(64);
        huge.backoff_base_ms = 1000;
        assert_eq!(huge.planned_backoff_ms(60), 60_000);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::with_retries(5);
        assert_eq!(p.jittered_step_fraction(0.95, 0), 0.95);
        for attempt in 1..6 {
            let a = p.jittered_step_fraction(0.95, attempt);
            let b = p.jittered_step_fraction(0.95, attempt);
            assert_eq!(a, b);
            assert!((0.90..=0.98).contains(&a), "{a}");
        }
        let mut other = RetryPolicy::with_retries(5);
        other.jitter_seed ^= 1;
        assert_ne!(
            p.jittered_step_fraction(0.95, 1),
            other.jittered_step_fraction(0.95, 1)
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
            planned_backoff_ms: 0,
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
            planned_backoff_ms: 0,
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
            planned_backoff_ms: 20,
        };
        assert_eq!(
            rec.log_line(),
            "attempt=1 status=iteration limit reached iters=42 pinf=1.250000e-3 \
             dinf=2.500000e-4 gap=1.250000e-1 tw=1.000e-3 reg=1.000e-9 step=0.937500 backoff_ms=20"
        );
    }
}
