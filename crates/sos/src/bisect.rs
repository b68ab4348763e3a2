//! Bisection driver for quasi-convex SOS optimisation.
//!
//! Some steps (advection tightness γ, certified range bounds) maximise a
//! scalar by bisection, re-solving a feasibility program per probe, at the
//! cost of ~`log₂((hi−lo)/tol)` solves. The level set instead solves one
//! program with a linear objective per (mode, boundary) pair.

/// Outcome of a bisection run.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectResult {
    /// Largest value found feasible (`None` if even `lo` was infeasible).
    pub best: Option<f64>,
    /// Number of feasibility probes performed.
    pub probes: usize,
}

/// Maximises `t ∈ [lo, hi]` such that `feasible(t)` holds, assuming
/// monotonicity (if `t` is feasible, every smaller value is too).
///
/// `tol` is the absolute resolution of the answer.
///
/// # Panics
///
/// Panics if `lo > hi` or `tol <= 0`.
///
/// # Examples
///
/// ```
/// use cppll_sos::maximize_bisect;
///
/// let r = maximize_bisect(0.0, 10.0, 1e-6, |t| t * t <= 2.0);
/// assert!((r.best.unwrap() - 2.0f64.sqrt()).abs() < 1e-5);
/// ```
pub fn maximize_bisect(
    lo: f64,
    hi: f64,
    tol: f64,
    mut feasible: impl FnMut(f64) -> bool,
) -> BisectResult {
    assert!(lo <= hi, "lo must not exceed hi");
    assert!(tol > 0.0, "tolerance must be positive");
    let mut probes = 0;
    // Check endpoints first.
    probes += 1;
    if !feasible(lo) {
        return BisectResult { best: None, probes };
    }
    probes += 1;
    if feasible(hi) {
        return BisectResult {
            best: Some(hi),
            probes,
        };
    }
    let mut good = lo;
    let mut bad = hi;
    while bad - good > tol {
        let mid = 0.5 * (good + bad);
        probes += 1;
        if feasible(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    BisectResult {
        best: Some(good),
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_threshold() {
        let r = maximize_bisect(0.0, 1.0, 1e-9, |t| t <= 0.3125);
        assert!((r.best.unwrap() - 0.3125).abs() < 1e-8);
    }

    #[test]
    fn infeasible_lo_returns_none() {
        let r = maximize_bisect(0.5, 1.0, 1e-6, |_| false);
        assert_eq!(r.best, None);
        assert_eq!(r.probes, 1);
    }

    #[test]
    fn feasible_hi_short_circuits() {
        let r = maximize_bisect(0.0, 7.0, 1e-6, |_| true);
        assert_eq!(r.best, Some(7.0));
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn probe_count_is_logarithmic() {
        let r = maximize_bisect(0.0, 1.0, 1e-6, |t| t <= 0.5);
        assert!(r.probes <= 25, "probes = {}", r.probes);
    }
}
