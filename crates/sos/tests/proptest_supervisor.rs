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

use cppll_poly::Polynomial;
use cppll_sdp::{FaultInjector, FaultKind, FaultPlan};
use cppll_sos::{Reduction, ResilienceOptions, SolveLedger, SosOptions, SosProgram};
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
        resilience: ResilienceOptions {
            retries,
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ledger: Some(ledger.clone()),
            ..ResilienceOptions::default()
        },
        reduction: Reduction::Off,
        ..SosOptions::default()
    };
    let ok = prog.solve(&options).is_ok();
    (ok, ledger.log_lines())
}

/// An expired pipeline deadline does not stop a retry: the faulted attempt
/// is retried at once and counted, and the retry then ends on the deadline.
/// Every attempt leaves one `attempt_end` instant with its status.
#[test]
fn expired_deadline_still_retries_at_once() {
    use std::time::{Duration, Instant};

    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    let recorder = cppll_trace::TraceRecorder::new(cppll_trace::TraceLevel::Solve);
    let ledger = SolveLedger::new();
    let options = SosOptions {
        resilience: ResilienceOptions {
            retries: 1,
            // The deadline has already passed when the retry starts.
            deadline: Some(Instant::now() - Duration::from_millis(10)),
            fault: Some(Arc::new(FaultInjector::new(
                FaultPlan::new().fault_at_call(0, FaultKind::Stall),
            ))),
            ledger: Some(ledger.clone()),
            tracer: Some(recorder.tracer()),
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
    let statuses: Vec<String> = recorder
        .instants_named("attempt_end")
        .iter()
        .map(|e| match e.field("status") {
            Some(cppll_trace::FieldValue::Str(s)) => s.clone(),
            other => panic!("attempt_end without a status: {other:?}"),
        })
        .collect();
    assert_eq!(statuses, ["stalled", "deadline exceeded"]);
    assert_eq!(recorder.spans_named("attempt"), 2);
}

/// A faulted first attempt on the split target under support reduction is
/// a screen miss, not a retry: the solve drops to the unreduced compile,
/// whose first attempt answers.
#[test]
fn faulted_attempt_on_a_split_program_falls_back_to_the_unreduced_compile() {
    let mut prog = SosProgram::new(2);
    prog.require_sos(feasible_target().into());

    let recorder = cppll_trace::TraceRecorder::new(cppll_trace::TraceLevel::Solve);
    let ledger = SolveLedger::new();
    let options = SosOptions {
        resilience: ResilienceOptions {
            retries: 1,
            fault: Some(Arc::new(FaultInjector::new(
                FaultPlan::new().fault_at_call(0, FaultKind::Stall),
            ))),
            ledger: Some(ledger.clone()),
            tracer: Some(recorder.tracer()),
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
