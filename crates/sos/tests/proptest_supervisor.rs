//! Property: the solve supervisor is deterministic. Two supervised runs of
//! the same program with the same retry count and the same fault schedule
//! must produce byte-identical attempt logs and the same final outcome —
//! retries start at once, and the step jitter is a pure function of the
//! attempt number.
//!
//! The retry tests compile the unreduced program: term sparsity splits the
//! target's Gram, and a failed attempt on a split program falls back to
//! the unreduced compile instead of retrying.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cppll_poly::Polynomial;
use cppll_sdp::{FaultInjector, FaultKind, FaultPlan, SolverOptions};
use cppll_sos::{Reduction, ResilienceOptions, SolveLedger, SosError, SosOptions, SosProgram};
use cppll_trace::{FieldValue, TraceLevel, TraceRecorder};
use proptest::prelude::*;

fn kind_for(index: u8) -> FaultKind {
    match index % 3 {
        0 => FaultKind::Stall,
        1 => FaultKind::MaxIterations,
        _ => FaultKind::Cholesky,
    }
}

/// `(x − y)² + 1`: a small, strictly feasible SOS target. Term sparsity
/// splits its Gram basis `{1, x, y}` into `{1}` and `{x, y}`.
fn feasible_target() -> Polynomial {
    Polynomial::from_terms(
        2,
        &[
            (&[2, 0], 1.0),
            (&[1, 1], -2.0),
            (&[0, 2], 1.0),
            (&[0, 0], 1.0),
        ],
    )
}

/// One supervised solve of a small feasible SOS program under a fresh
/// injector with `faulted_attempts` leading faulted attempts; returns the
/// success flag and the canonical attempt log.
fn supervised_run(retries: usize, kind: FaultKind, faulted_attempts: usize) -> (bool, Vec<String>) {
    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    // Fault the first `faulted_attempts` attempts via per-call indices; the
    // supervisor recompiles per attempt, so attempt i is solve call i.
    let mut plan = FaultPlan::new();
    for call in 0..faulted_attempts {
        plan = plan.fault_at_call(call, kind);
    }
    let ledger = SolveLedger::new();
    let options = SosOptions {
        sdp: SolverOptions {
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ..SolverOptions::default()
        },
        resilience: ResilienceOptions {
            retries,
            ledger: Some(ledger.clone()),
            ..ResilienceOptions::default()
        },
        reduction: Reduction::Off,
        ..SosOptions::default()
    };
    let ok = prog.solve(&options).is_ok();
    (ok, ledger.log_lines())
}

/// The `status` field of every `attempt_end` instant, in order.
fn attempt_end_statuses(recorder: &TraceRecorder) -> Vec<String> {
    recorder
        .instants_named("attempt_end")
        .iter()
        .map(|e| match e.field("status") {
            Some(FieldValue::Str(s)) => s.clone(),
            other => panic!("attempt_end without a status: {other:?}"),
        })
        .collect()
}

/// An expired pipeline deadline does not stop a retry: the faulted attempt
/// is retried at once and counted, and the retry then ends on the deadline.
/// Every attempt leaves one `attempt_end` instant with its status.
#[test]
fn expired_deadline_still_retries_at_once() {
    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    let recorder = TraceRecorder::new(TraceLevel::Solve);
    let ledger = SolveLedger::new();
    let options = SosOptions {
        sdp: SolverOptions {
            // The deadline has already passed when the retry starts.
            deadline: Some(Instant::now() - Duration::from_millis(10)),
            fault: Some(Arc::new(FaultInjector::new(
                FaultPlan::new().fault_at_call(0, FaultKind::Stall),
            ))),
            trace: Some(recorder.tracer()),
            ..SolverOptions::default()
        },
        resilience: ResilienceOptions {
            retries: 1,
            ledger: Some(ledger.clone()),
            ..ResilienceOptions::default()
        },
        reduction: Reduction::Off,
        ..SosOptions::default()
    };
    assert!(prog.solve(&options).is_err());

    let stats = ledger.stats();
    assert_eq!(stats.attempts, 2, "faulted attempt plus one retry");
    assert_eq!(stats.retries, 1);
    assert_eq!(recorder.counter_total("retry"), 1);
    assert_eq!(
        attempt_end_statuses(&recorder),
        ["stalled", "deadline exceeded"]
    );
    assert_eq!(recorder.spans_named("attempt"), 2);
}

/// A tracer set only in `sdp.trace` reaches the supervisor: the solve
/// records its `sos_solve` span, its `attempt` span and one `attempt_end`
/// instant, besides the SDP solver's own `sdp_solve` span.
#[test]
fn the_solver_tracer_records_the_supervised_solve() {
    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    let recorder = TraceRecorder::new(TraceLevel::Solve);
    let options = SosOptions {
        sdp: SolverOptions {
            trace: Some(recorder.tracer()),
            ..SolverOptions::default()
        },
        ..SosOptions::default()
    };
    prog.solve(&options).expect("feasible");

    assert_eq!(recorder.spans_named("sos_solve"), 1);
    assert_eq!(recorder.spans_named("attempt"), 1);
    assert_eq!(recorder.spans_named("sdp_solve"), 1);
    assert_eq!(attempt_end_statuses(&recorder), ["optimal"]);
}

/// A run deadline set only in `sdp.deadline` reaches the attempt: a solve
/// whose deadline has passed ends `DeadlineExceeded` after one attempt,
/// with no retry.
#[test]
fn a_past_solver_deadline_ends_the_solve_after_one_attempt() {
    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    let ledger = SolveLedger::new();
    let options = SosOptions {
        sdp: SolverOptions {
            deadline: Some(Instant::now() - Duration::from_millis(10)),
            ..SolverOptions::default()
        },
        resilience: ResilienceOptions {
            ledger: Some(ledger.clone()),
            ..ResilienceOptions::default()
        },
        ..SosOptions::default()
    };
    assert!(options.resilience.retries > 0, "retries are on by default");
    match prog.solve(&options) {
        Err(SosError::Numerical {
            status, attempts, ..
        }) => {
            assert_eq!(status, cppll_sdp::SdpStatus::DeadlineExceeded);
            assert_eq!(attempts.len(), 1, "{attempts:?}");
        }
        Err(other) => panic!("expected a deadline failure, got {other}"),
        Ok(_) => panic!("expected a deadline failure, got a solution"),
    }
    assert_eq!(ledger.stats().attempts, 1);
    assert_eq!(ledger.stats().retries, 0);
}

/// A zero per-attempt budget ends every attempt `DeadlineExceeded`, and a
/// deadline is terminal: the solve is not retried, whatever the retry
/// count, and its unexpired run deadline does not widen the budget.
#[test]
fn a_zero_solve_timeout_ends_every_attempt_on_its_deadline() {
    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    let recorder = TraceRecorder::new(TraceLevel::Solve);
    let ledger = SolveLedger::new();
    let options = SosOptions {
        sdp: SolverOptions {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            trace: Some(recorder.tracer()),
            ..SolverOptions::default()
        },
        resilience: ResilienceOptions {
            retries: 3,
            solve_timeout: Some(Duration::ZERO),
            ledger: Some(ledger.clone()),
        },
        reduction: Reduction::Off,
        ..SosOptions::default()
    };
    let Err(err) = prog.solve(&options) else {
        panic!("no attempt has any time");
    };
    assert_eq!(err.attempts().len(), 1);
    assert_eq!(attempt_end_statuses(&recorder), ["deadline exceeded"]);
    assert_eq!(recorder.counter_total("retry"), 0);
    let stats = ledger.stats();
    assert_eq!((stats.attempts, stats.retries, stats.failures), (1, 0, 1));
}

/// A faulted first attempt on the split target under support reduction is
/// a screen miss, not a retry: the solve drops to the unreduced compile,
/// whose first attempt answers.
#[test]
fn faulted_attempt_on_a_split_program_falls_back_to_the_unreduced_compile() {
    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    let recorder = TraceRecorder::new(TraceLevel::Solve);
    let ledger = SolveLedger::new();
    let options = SosOptions {
        sdp: SolverOptions {
            fault: Some(Arc::new(FaultInjector::new(
                FaultPlan::new().fault_at_call(0, FaultKind::Stall),
            ))),
            trace: Some(recorder.tracer()),
            ..SolverOptions::default()
        },
        resilience: ResilienceOptions {
            retries: 1,
            ledger: Some(ledger.clone()),
            ..ResilienceOptions::default()
        },
        ..SosOptions::default()
    };
    let sol = prog.solve(&options).expect("the unreduced compile answers");

    assert_eq!(recorder.counter_total("support_screen_miss"), 1);
    assert_eq!(recorder.counter_total("retry"), 0);
    assert_eq!(
        ledger.stats().attempts,
        2,
        "faulted attempt plus the fallback"
    );
    // The answer comes from the unreduced compile: one block for the one
    // Gram, nothing pruned.
    let stats = sol.reduction_stats();
    assert_eq!((stats.grams, stats.blocks), (1, 1));
    assert!(!stats.is_reduced(), "{stats}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_schedule_gives_identical_logs(
        retries in 0usize..3,
        kind_index in 0u8..3,
        faulted_attempts in 0usize..3,
    ) {
        let kind = kind_for(kind_index);
        let (ok_a, log_a) = supervised_run(retries, kind, faulted_attempts);
        let (ok_b, log_b) = supervised_run(retries, kind, faulted_attempts);
        prop_assert_eq!(ok_a, ok_b);
        prop_assert_eq!(&log_a, &log_b);
        // The outcome is exactly "were there more attempts than faults":
        // the program itself is feasible, so the first unfaulted attempt
        // succeeds.
        prop_assert_eq!(ok_a, faulted_attempts <= retries);
        let expected_attempts = (faulted_attempts + 1).min(retries + 1);
        prop_assert_eq!(log_a.len(), expected_attempts);
    }
}
