//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repository root declares the same lists (a unit
//! test keeps them equal) and adds the end-to-end bounds.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Reported by traced runs. Layers a workload does not reach report 0.
pub const PER_LAYER: &[MetricDef] = &[
    // core: pipeline stage spans.
    lower("core.lyapunov_s", "s"),
    lower("core.levelset_s", "s"),
    lower("core.inclusion_s", "s"),
    lower("core.escape_s", "s"),
    lower("core.advection_iters", "count"),
    lower("core.advection_self_s", "s"),
    lower("core.poly_self_s", "s"),
    lower("core.unaccounted_s", "s"),
    // sos: supervised solves.
    lower("sos.solves", "count"),
    lower("sos.attempts", "count"),
    lower("sos.attempts_per_solve", "ratio"),
    lower("sos.failed_solves", "count"),
    lower("sos.solve_s", "s"),
    lower("sos.compile_s", "s"),
    lower("sos.supervisor_s", "s"),
    lower("sos.retry", "count"),
    lower("sos.support_trust_fallback", "count"),
    lower("sos.support_screen_miss", "count"),
    lower("sos.levelset_legacy_rerun", "count"),
    higher("sos.warm_start_hit", "count"),
    // sdp: solver spans and per-iteration stage timings.
    lower("sdp.solve_s", "s"),
    lower("sdp.schur_assembly_s", "s"),
    lower("sdp.kkt_factor_s", "s"),
    lower("sdp.kkt_solve_s", "s"),
    lower("sdp.line_search_s", "s"),
    lower("sdp.factorizations_s", "s"),
    lower("sdp.residuals_s", "s"),
    lower("sdp.outside_iter_s", "s"),
    lower("sdp.iterations", "count"),
    lower("sdp.iters_per_attempt", "ratio"),
    lower("sdp.solve_s.p50", "s"),
    lower("sdp.solve_s.p75", "s"),
    lower("sdp.solve_s.n", "count"),
    // par: how busy the threads were.
    higher("par.cpu_per_wall", "ratio"),
    // sweep: cell boundary of the atlas.
    lower("sweep.cells_solved", "count"),
    lower("sweep.waves", "count"),
    higher("sweep.warm_start_hits", "count"),
    lower("sweep.cell_s.p50", "s"),
    lower("sweep.cell_s.p75", "s"),
    lower("sweep.cell_s.sum", "s"),
    lower("sweep.idle_s", "s"),
    lower("sweep.attempts_per_solve", "ratio"),
    // ops: outcomes of the measured operations.
    lower("ops.failed_ratio", "ratio"),
    higher("ops.certified_ratio", "ratio"),
    // trace: cost of observing.
    lower("trace.overhead_ratio", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Sets every listed metric that is not yet present to 0: the layer exists
/// but this workload does not reach it.
pub fn zero_fill(values: &mut Values, prefixes: &[&str]) {
    for def in PER_LAYER {
        if prefixes.iter().any(|p| def.name.starts_with(p)) {
            values.entry(def.name).or_insert(0.0);
        }
    }
}

/// Checks that `values` holds exactly the declared metrics, each finite.
pub fn check_declared(values: &Values, defs: &[MetricDef]) -> Result<(), String> {
    let missing: Vec<&str> = defs
        .iter()
        .map(|d| d.name)
        .filter(|n| !values.contains_key(n))
        .collect();
    let extra: Vec<&str> = values
        .keys()
        .copied()
        .filter(|n| !defs.iter().any(|d| d.name == *n))
        .collect();
    let bad: Vec<&str> = values
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(n, _)| *n)
        .collect();
    if missing.is_empty() && extra.is_empty() && bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metric set mismatch: missing {missing:?}, undeclared {extra:?}, non-finite {bad:?}"
        ))
    }
}

/// Whether a metric name is valid in `BENCHMARK.json`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
