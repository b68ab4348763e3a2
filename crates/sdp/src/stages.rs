//! Per-stage solver clocks: the trace counters that carry them and the
//! `solver stages` report rendered from those counters.
//!
//! Timings are diagnostics only. They travel through the [`Tracer`] and
//! nowhere else: never through a solution, a ledger, a journal or a report,
//! so nothing a result depends on can read them.

use std::collections::BTreeMap;
use std::time::Duration;

use cppll_trace::Tracer;

/// The stage clocks in report order: the name printed in the
/// `solver stages` block and the trace counter carrying its total in
/// nanoseconds. The solver writes every stage but `reduction`, which the
/// SOS compiler above it meters (zero, or absent, when reduction is off).
pub const STAGE_COUNTERS: [(&str, &str); 8] = [
    ("reduction", REDUCTION_COUNTER),
    ("residuals", "sdp_residuals_ns"),
    ("factorizations", "sdp_factorizations_ns"),
    ("schur_symbolic", "sdp_schur_symbolic_ns"),
    ("schur_assembly", "sdp_schur_assembly_ns"),
    ("kkt_factor", "sdp_kkt_factor_ns"),
    ("kkt_solve", "sdp_kkt_solve_ns"),
    ("line_search", "sdp_line_search_ns"),
];

/// Problem-size reduction before a solve (Newton-polytope basis pruning and
/// term-sparsity block splitting), emitted once per compiled attempt.
pub const REDUCTION_COUNTER: &str = "sdp_reduction_ns";

/// End-to-end wall clock of the solve calls.
pub const TOTAL_COUNTER: &str = "sdp_total_ns";

/// The solver's count counters, reported under the stage clocks they
/// explain: structurally-zero Schur pairs never evaluated, the `f64` values
/// each solve stores its assembled KKT matrix in, the bytes of each solve's
/// iteration workspace (every buffer an iteration writes besides the
/// iterate and the KKT storage), blocks examined by the line searches, and
/// those of them that ran a Jacobi eigensolve.
pub const COUNT_COUNTERS: [&str; 5] = [
    "schur_pairs_skipped",
    "kkt_stored_entries",
    "sdp_workspace_bytes",
    "step_tests",
    "step_eigensolves",
];

/// Seconds per stage in report order, and the `total`: the solver total
/// plus the reduction, so every stage above it is accounted for in one
/// number. Counters missing from `totals` read zero.
pub fn stage_seconds(totals: &BTreeMap<&'static str, u64>) -> ([(&'static str, f64); 8], f64) {
    let ns = |counter: &str| totals.get(counter).copied().unwrap_or(0);
    let secs = |n: u64| n as f64 * 1e-9;
    let stages = STAGE_COUNTERS.map(|(name, counter)| (name, secs(ns(counter))));
    (stages, secs(ns(TOTAL_COUNTER) + ns(REDUCTION_COUNTER)))
}

/// The `solver stages` report lines: every stage, zero-cost ones shown as
/// an explicit `0.0ms`, then `total`, then the count counters, all under
/// one padding. `None` when `totals` holds no solve. The CLI and the bench
/// harness both render through this.
pub fn stage_report_lines(totals: &BTreeMap<&'static str, u64>) -> Option<Vec<String>> {
    let (stages, total) = stage_seconds(totals);
    if total == 0.0 {
        return None;
    }
    let fmt = |secs: f64| {
        if secs < 1.0 {
            format!("{:>10.1}ms", secs * 1e3)
        } else {
            format!("{:>11.3}s", secs)
        }
    };
    let mut lines: Vec<String> = stages
        .iter()
        .chain([&("total", total)])
        .map(|(name, secs)| format!("{name:<26} {}", fmt(*secs)))
        .collect();
    for name in COUNT_COUNTERS {
        let count = totals.get(name).copied().unwrap_or(0);
        lines.push(format!("{name:<26} {count:>12}"));
    }
    Some(lines)
}

/// Wall-clock totals of one solve's stages, accumulated across its
/// interior-point iterations, plus the line-search block counts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageClock {
    pub(crate) residuals: Duration,
    pub(crate) schur_symbolic: Duration,
    pub(crate) factorizations: Duration,
    pub(crate) schur_assembly: Duration,
    pub(crate) kkt_factor: Duration,
    pub(crate) kkt_solve: Duration,
    pub(crate) line_search: Duration,
    pub(crate) step_tests: u64,
    pub(crate) step_eigensolves: u64,
}

impl StageClock {
    /// Emits one counter per solver stage (every stage of
    /// [`STAGE_COUNTERS`] after `reduction`, in that order), the solve's
    /// `total` and the line-search counts.
    pub(crate) fn emit(&self, t: &Tracer, total: Duration) {
        let ns = |d: Duration| d.as_nanos() as u64;
        let stages = [
            self.residuals,
            self.factorizations,
            self.schur_symbolic,
            self.schur_assembly,
            self.kkt_factor,
            self.kkt_solve,
            self.line_search,
        ];
        for (&(_, counter), d) in STAGE_COUNTERS[1..].iter().zip(stages) {
            t.counter(counter, ns(d));
        }
        t.counter(TOTAL_COUNTER, ns(total));
        t.counter("step_tests", self.step_tests);
        t.counter("step_eigensolves", self.step_eigensolves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_keep_names_order_and_total() {
        let totals: BTreeMap<&'static str, u64> = [
            (REDUCTION_COUNTER, 250_000_000),
            ("sdp_schur_assembly_ns", 2_500_000_000),
            (TOTAL_COUNTER, 3_000_000_000),
            ("step_tests", 40),
        ]
        .into_iter()
        .collect();
        let lines = stage_report_lines(&totals).unwrap();
        let names: Vec<&str> = lines
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "reduction",
                "residuals",
                "factorizations",
                "schur_symbolic",
                "schur_assembly",
                "kkt_factor",
                "kkt_solve",
                "line_search",
                "total",
                "schur_pairs_skipped",
                "kkt_stored_entries",
                "sdp_workspace_bytes",
                "step_tests",
                "step_eigensolves",
            ]
        );
        assert_eq!(lines[0], format!("{:<26} {:>10.1}ms", "reduction", 250.0));
        assert_eq!(lines[1], format!("{:<26} {:>10.1}ms", "residuals", 0.0));
        assert_eq!(lines[4], format!("{:<26} {:>11.3}s", "schur_assembly", 2.5));
        // `total` is the solver total plus the reduction.
        assert_eq!(lines[8], format!("{:<26} {:>11.3}s", "total", 3.25));
        assert_eq!(lines[12], format!("{:<26} {:>12}", "step_tests", 40));
        assert!(stage_report_lines(&BTreeMap::new()).is_none());
    }
}
