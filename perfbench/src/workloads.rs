//! The workloads and the loop that measures them.
//!
//! Every timer here sits outside the program, around a public call:
//! `PllModelBuilder::build`, `InevitabilityVerifier::{for_pll, verify,
//! validate}` and `run_sweep_with` with a timing wrapper around
//! `local_cell_solver`. Below `verify`, the per-layer numbers come from the
//! spans and counters the program already emits through `Tracer::events()`
//! and `Tracer::counter_totals()`. Of a report the benchmark reads only the
//! verdict, `solve_stats` and `result_digest()`.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use cppll_json::{ToJson, Value};
use cppll_pll::{PllModelBuilder, PllOrder};
use cppll_verify::sweep::local_cell_solver;
use cppll_verify::{
    run_sweep_with, CellProblem, InevitabilityVerifier, PipelineOptions, SweepOptions, SweepSpec,
    TraceLevel, Tracer, VerificationReport, VerifyError,
};

use crate::fold::{self, ITER_FIELDS};
use crate::metrics::{self, Values};
use crate::stats::{self, median, quantile, reportable};

/// Workload names, in the order `run` measures them.
pub const WORKLOADS: [&str; 3] = ["pll3-t1", "pll4-t1", "atlas-t1"];

/// Set-up repetitions per run; `setup_s` is their median. A set-up takes
/// microseconds, so many repetitions cost little and keep one slow call
/// from moving the median.
pub const SETUP_REPS: usize = 101;

/// Monte-Carlo trials `validate` runs on every certified verdict.
pub const VALIDATE_TRIALS: usize = 64;

/// What one run is asked to do.
pub struct Control {
    /// Measurement window: operations start only while the previous one
    /// would still end inside it (at least one always runs).
    pub seconds: f64,
    /// Per-layer run: one untraced reference operation, then traced ones.
    pub traced: bool,
    pub seed: u64,
}

/// Counts over the operations of one measured call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    /// No answer, or a wrong one: an error other than infeasibility, a
    /// cell whose solve errs, or a certified claim `validate` refutes.
    pub failed: u64,
    /// Answers that a numerical failure cut short (`Degraded` verdicts).
    pub degraded: u64,
    pub certified: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.degraded += o.degraded;
        self.certified += o.certified;
    }
}

/// One measured operation: a verify or a sweep.
pub struct Op {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per-layer values (traced operations only).
    pub layers: Values,
    pub tally: Tally,
    /// Result digest, for the determinism check.
    pub digest: Option<String>,
    /// Rendered trace tree (traced PLL operations).
    pub tree: Option<String>,
    /// `VmHWM` of the process right after the operation.
    pub peak_rss_mb: f64,
}

impl Op {
    pub fn new(traced: bool, wall_s: f64, cpu_s: f64) -> Op {
        Op {
            traced,
            wall_s,
            cpu_s,
            layers: Values::new(),
            tally: Tally::default(),
            digest: None,
            tree: None,
            peak_rss_mb: 0.0,
        }
    }
}

/// Everything one run measured and checked.
pub struct Outcome {
    pub setup_s: f64,
    pub ops: Vec<Op>,
    pub correct: bool,
    /// Failures found after the timed region (refuted certified claims).
    pub late: Tally,
    pub info: Vec<(&'static str, Value)>,
}

/// The final result of one run.
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    pub info: Vec<(&'static str, Value)>,
}

/// Median set-up time over [`SETUP_REPS`] calls, and the last value.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let v = black_box(f());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("SETUP_REPS > 0"))
}

/// Runs operations until the window is spent. A traced run starts with one
/// untraced reference operation (for `trace.overhead_ratio`) and then
/// traces every later one.
pub fn drive(
    ctl: &Control,
    mut op: impl FnMut(bool) -> Result<Op, String>,
) -> Result<Vec<Op>, String> {
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    loop {
        let traced = ctl.traced && !ops.is_empty();
        let mut o = op(traced)?;
        o.peak_rss_mb = stats::peak_rss_mb();
        let last = o.wall_s;
        ops.push(o);
        let reference_only = ctl.traced && ops.len() < 2;
        if !reference_only && start.elapsed().as_secs_f64() + last > ctl.seconds {
            return Ok(ops);
        }
    }
}

/// Folds a run's operations into its metrics: end-to-end from the
/// untraced operations, per-layer from the traced ones.
pub fn summarize(out: Outcome, traced: bool) -> Result<Summary, String> {
    let mut tally = out.late;
    for o in &out.ops {
        tally.add(o.tally);
    }
    let plain: Vec<&Op> = out.ops.iter().filter(|o| !o.traced).collect();
    let walls = |ops: &[&Op]| ops.iter().map(|o| o.wall_s).collect::<Vec<_>>();
    let attempted = tally.attempted.max(1) as f64;
    let failed_ratio = (tally.failed + tally.degraded) as f64 / attempted;
    let certified_ratio = tally.certified as f64 / attempted;

    let mut m = Values::new();
    let defs = if traced {
        let traced_ops: Vec<&Op> = out.ops.iter().filter(|o| o.traced).collect();
        let keys: BTreeSet<&'static str> = traced_ops
            .iter()
            .flat_map(|o| o.layers.keys().copied())
            .collect();
        for k in keys {
            let v: Vec<f64> = traced_ops
                .iter()
                .filter_map(|o| o.layers.get(k).copied())
                .collect();
            m.insert(k, median(&v));
        }
        m.insert(
            "trace.overhead_ratio",
            median(&walls(&traced_ops)) / median(&walls(&plain)) - 1.0,
        );
        m.insert("ops.failed_ratio", failed_ratio);
        m.insert("ops.certified_ratio", certified_ratio);
        metrics::PER_LAYER
    } else {
        m.insert("setup_s", out.setup_s);
        m.insert("wall_s", median(&walls(&plain)));
        // A mean, not a median: the kernel counts CPU time in 10 ms ticks,
        // which the sum over the whole window resolves and one short
        // operation does not.
        m.insert(
            "cpu_s",
            plain.iter().map(|o| o.cpu_s).sum::<f64>() / plain.len() as f64,
        );
        // After the first operation, so the figure does not depend on how
        // many operations fit in the window.
        m.insert("peak_rss_mb", out.ops[0].peak_rss_mb);
        metrics::END_TO_END
    };
    metrics::check_declared(&m, defs)?;

    let mut info = out.info;
    let op_walls: Vec<Value> = out.ops.iter().map(|o| Value::Number(o.wall_s)).collect();
    info.push(("op_wall_s", Value::Array(op_walls)));
    info.push(("failed_ops_ratio", Value::Number(failed_ratio)));
    info.push(("certified_ratio", Value::Number(certified_ratio)));
    info.push((
        "threads",
        Value::Number(cppll_par::current_threads() as f64),
    ));
    Ok(Summary {
        correct: out.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        info,
    })
}

// ---------------------------------------------------------------------------
// PLL verification
// ---------------------------------------------------------------------------

/// A built-in PLL verification workload.
pub struct PllCase {
    pub order: PllOrder,
    pub threads: usize,
    /// Pins the level bisection's upper bound (see `pll4-t1` below).
    pub level_hi: Option<f64>,
    /// The result digest this configuration produced when the benchmark
    /// was defined. A mismatch is reported, not failed: a change may
    /// legitimately move a result.
    pub pin: &'static str,
}

/// Third-order PLL, degree 4, two retries (the default), one thread: the
/// verified flagship. One thread bypasses `cppll-par`, so an SDP-kernel
/// change shows here and a threading change does not.
pub const PLL3_T1: PllCase = PllCase {
    order: PllOrder::Third,
    threads: 1,
    level_hi: None,
    pin: "5b549b7bcc741218",
};

/// Fourth-order PLL, degree 4, one thread. The full run takes about a
/// minute, three times the measurement window, and 33 s of it are three
/// failing legacy-fallback level probes above the level it settles on. The
/// workload pins the bisection's upper bound at that level (c* of the full
/// run), so the level stage shrinks to its two end probes while Lyapunov
/// synthesis, all 40 advection/inclusion steps and the escape stage run
/// exactly as in the full run: still `Degraded`, still dominated by retries
/// and failed solves, and the only workload with 70-wide Gram blocks.
///
/// One thread, because on two vCPUs the two-thread run was both slower
/// (cpu 36 s for 29 s of wall, against 21 s of both on one thread) and
/// too noisy to compare: its wall time measured the scheduler.
pub const PLL4_T1: PllCase = PllCase {
    order: PllOrder::Fourth,
    threads: 1,
    level_hi: Some(9.796806254327617),
    pin: "bc63962801339200",
};

/// Measures one PLL workload.
pub fn measure_pll(case: &PllCase, ctl: &Control) -> Result<Outcome, String> {
    cppll_par::set_threads(case.threads);
    let (setup_s, model) = setup_median(|| {
        let model = PllModelBuilder::new(case.order).build();
        black_box(InevitabilityVerifier::for_pll(&model).initial());
        model
    });
    let verifier = InevitabilityVerifier::for_pll(&model);
    let mut opt = PipelineOptions::degree(4);
    opt.level.hi = case.level_hi;
    measure_verify(&verifier, &opt, ctl, setup_s, case.pin)
}

/// Measures repeated verifies of one problem, then validates every
/// distinct certified result outside the timed region.
pub fn measure_verify(
    verifier: &InevitabilityVerifier<'_>,
    opt: &PipelineOptions,
    ctl: &Control,
    setup_s: f64,
    pin: &str,
) -> Result<Outcome, String> {
    let mut reports: BTreeMap<String, VerificationReport> = BTreeMap::new();
    let ops = drive(ctl, |traced| {
        let (op, report) = verify_op(verifier, opt, traced);
        if let (Some(d), Some(r)) = (&op.digest, report) {
            reports.entry(d.clone()).or_insert(r);
        }
        Ok(op)
    })?;

    // The pipeline is deterministic: one problem, one digest.
    let distinct: BTreeSet<&String> = ops.iter().filter_map(|o| o.digest.as_ref()).collect();
    let mut correct = distinct.len() <= 1;
    let mut late = Tally::default();
    let mut info = Vec::new();
    for (digest, report) in reports.iter().filter(|(_, r)| r.verdict.is_verified()) {
        let valid = verifier
            .validate(report, VALIDATE_TRIALS, ctl.seed)
            .is_some_and(|v| v.all_passed());
        if !valid {
            correct = false;
            late.failed += ops
                .iter()
                .filter(|o| o.digest.as_ref() == Some(digest))
                .count() as u64;
        }
        info.push(("validated", Value::Bool(valid)));
    }
    let first = ops
        .iter()
        .find_map(|o| o.digest.clone())
        .unwrap_or_default();
    if let Some(r) = reports.get(&first) {
        info.push(("verdict", Value::String(verdict_kind(r).into())));
    }
    info.extend(digest_info(&first, pin));
    Ok(Outcome {
        setup_s,
        ops,
        correct,
        late,
        info,
    })
}

/// The result digest against the pin recorded when the benchmark was
/// defined. Informational: a change may legitimately move a result.
fn digest_info(digest: &str, pin: &str) -> [(&'static str, Value); 3] {
    [
        ("digest", Value::String(digest.into())),
        ("digest_pin", Value::String(pin.into())),
        ("digest_match", Value::Bool(digest == pin)),
    ]
}

fn verdict_kind(r: &VerificationReport) -> &'static str {
    if r.verdict.is_verified() {
        "inevitable"
    } else if r.verdict.is_degraded() {
        "degraded"
    } else {
        "inconclusive"
    }
}

/// One verify, traced at `iter` level when asked.
fn verify_op(
    verifier: &InevitabilityVerifier<'_>,
    opt: &PipelineOptions,
    traced: bool,
) -> (Op, Option<VerificationReport>) {
    let tracer = traced.then(|| Tracer::new(TraceLevel::Iter));
    let mut opt = opt.clone();
    opt.trace = tracer.clone();
    let (res, wall_s, cpu_s) = stats::timed(|| verifier.verify(&opt));
    let mut op = Op::new(traced, wall_s, cpu_s);
    op.tally.attempted = 1;
    let report = match res {
        Ok(r) => r,
        // Infeasibility at this degree is an answer about the problem.
        Err(VerifyError::Infeasible { .. }) => {
            op.digest = Some("infeasible".into());
            return (op, None);
        }
        Err(_) => {
            op.tally.failed = 1;
            return (op, None);
        }
    };
    op.digest = Some(report.result_digest());
    op.tally.certified = u64::from(report.verdict.is_verified());
    op.tally.degraded = u64::from(report.verdict.is_degraded());
    if let Some(t) = &tracer {
        let events = t.events();
        let f = fold::fold_pipeline(&events);
        op.layers = pipeline_layers(&f, &t.counter_totals(), &report, wall_s, cpu_s);
        op.tree = Some(fold::render_tree(&f, wall_s));
    }
    (op, Some(report))
}

/// Per-layer values of one traced verify.
fn pipeline_layers(
    f: &fold::PipelineFold,
    counters: &BTreeMap<&'static str, u64>,
    report: &VerificationReport,
    wall_s: f64,
    cpu_s: f64,
) -> Values {
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut m = Values::new();
    let adv = f.stage("advection");
    m.insert("core.lyapunov_s", secs(f.stage("lyapunov").incl_ns));
    m.insert("core.levelset_s", secs(f.stage("levelset").incl_ns));
    m.insert("core.inclusion_s", secs(adv.sos_ns));
    m.insert("core.escape_s", secs(f.stage("escape").incl_ns));
    m.insert("core.advection_iters", f.advection_steps as f64);
    m.insert(
        "core.advection_self_s",
        secs(adv.incl_ns.saturating_sub(adv.sos_ns)),
    );
    m.insert(
        "core.poly_self_s",
        fold::STAGES
            .iter()
            .map(|s| {
                let st = f.stage(s);
                secs(st.incl_ns.saturating_sub(st.sos_ns))
            })
            .sum(),
    );
    m.insert("core.unaccounted_s", wall_s - f.total(|s| s.incl_ns));

    let st = &report.solve_stats;
    m.insert("sos.solves", st.solves as f64);
    m.insert("sos.attempts", st.attempts as f64);
    m.insert(
        "sos.attempts_per_solve",
        ratio(st.attempts as f64, st.solves as f64),
    );
    m.insert("sos.failed_solves", st.failures as f64);
    m.insert("sos.solve_s", f.total(|s| s.sos_ns));
    m.insert("sos.compile_s", f.total(|s| s.compile_ns));
    m.insert("sos.supervisor_s", f.total(|s| s.supervisor_ns));
    for (metric, counter) in [
        ("sos.retry", "retry"),
        ("sos.support_trust_fallback", "support_trust_fallback"),
        ("sos.support_screen_miss", "support_screen_miss"),
        ("sos.levelset_legacy_rerun", "levelset_legacy_rerun"),
        ("sos.warm_start_hit", "warm_start_hit"),
    ] {
        m.insert(metric, counters.get(counter).copied().unwrap_or(0) as f64);
    }

    let sdp_s = f.total(|s| s.sdp_ns);
    let mut in_iter = 0.0;
    for (k, (_, metric)) in ITER_FIELDS.iter().enumerate() {
        let v: f64 = f.stages.values().map(|s| s.iter_s[k]).sum();
        in_iter += v;
        m.insert(metric, v);
    }
    let iterations: usize = f.stages.values().map(|s| s.iterations).sum();
    let solves: usize = f.stages.values().map(|s| s.sdp_solves).sum();
    m.insert("sdp.solve_s", sdp_s);
    m.insert("sdp.outside_iter_s", sdp_s - in_iter);
    m.insert("sdp.iterations", iterations as f64);
    m.insert(
        "sdp.iters_per_attempt",
        ratio(iterations as f64, solves as f64),
    );
    m.insert("sdp.solve_s.p50", reportable(quantile(&f.sdp_solve_s, 0.5)));
    m.insert(
        "sdp.solve_s.p75",
        reportable(quantile(&f.sdp_solve_s, 0.75)),
    );
    m.insert("sdp.solve_s.n", f.sdp_solve_s.len() as f64);
    m.insert("par.cpu_per_wall", cpu_s / wall_s);
    metrics::zero_fill(&mut m, &["sweep."]);
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Parameter-space atlas
// ---------------------------------------------------------------------------

/// Atlas digest of the toy sweep (`cppll schema sweep`), identical at every
/// thread count.
pub const ATLAS_PIN: &str = "127c24c18db6c40a";

/// What the timing wrapper saw of one cell.
struct CellSample {
    seconds: f64,
    solves: usize,
    attempts: usize,
    failed: bool,
    degraded: bool,
    certified: bool,
}

/// The toy 21×21 sweep with bisection on one thread. Its SDPs are tiny, so
/// per-solve overhead dominates and SDP kernels barely register.
///
/// One thread, because on two the sweep spends most of its time spawning
/// threads (`cppll-par` forks on every kernel call) and, run repeatedly in
/// one process, it died of SIGSEGV in 3 of about 60 sweeps; a benchmark
/// workload must not fail.
pub fn measure_atlas(ctl: &Control) -> Result<Outcome, String> {
    cppll_par::set_threads(1);
    let text = SweepSpec::example().to_json().to_compact_string();
    let (setup_s, spec) = setup_median(|| SweepSpec::from_json_str(&text));
    let spec = spec.map_err(|e| format!("sweep spec: {e}"))?;
    let mut consistent = true;
    let ops = drive(ctl, |traced| {
        let (op, ok) = atlas_op(&spec, traced)?;
        consistent &= ok;
        Ok(op)
    })?;
    // Atlases are byte-identical across runs and thread counts.
    let distinct: BTreeSet<&String> = ops.iter().filter_map(|o| o.digest.as_ref()).collect();
    let first = ops[0].digest.clone().unwrap_or_default();
    Ok(Outcome {
        setup_s,
        correct: consistent && distinct.len() == 1,
        ops,
        late: Tally::default(),
        info: digest_info(&first, ATLAS_PIN).into(),
    })
}

/// One sweep. Returns the operation and whether the atlas counters agree
/// with the cells the wrapper saw solved.
fn atlas_op(spec: &SweepSpec, traced: bool) -> Result<(Op, bool), String> {
    let opt = SweepOptions {
        threads: 0,
        trace: traced.then(|| Tracer::new(TraceLevel::Iter)),
        ..SweepOptions::default()
    };
    let inner = local_cell_solver(&opt);
    let cells: Mutex<Vec<CellSample>> = Mutex::new(Vec::new());
    let solver = |cell: usize, problem: &CellProblem, seed| {
        let t0 = Instant::now();
        let out = inner(cell, problem, seed);
        let seconds = t0.elapsed().as_secs_f64();
        let sample = match &out {
            Ok(o) => CellSample {
                seconds,
                solves: o.ledger.stats.solves,
                attempts: o.ledger.stats.attempts,
                failed: false,
                // A degraded verdict's reason is "<stage>: <why>".
                degraded: o.reason.as_deref().is_some_and(|r| {
                    fold::STAGES
                        .iter()
                        .any(|s| r.starts_with(&format!("{s}: ")))
                }),
                certified: o.certified,
            },
            Err(_) => CellSample {
                seconds,
                solves: 0,
                attempts: 0,
                failed: true,
                degraded: false,
                certified: false,
            },
        };
        cells.lock().expect("cell samples").push(sample);
        out
    };
    let (res, wall_s, cpu_s) = stats::timed(|| run_sweep_with(spec, &opt, &solver));
    let atlas = res.map_err(|e| format!("sweep: {e}"))?;
    let cells = cells.into_inner().expect("cell samples");

    let mut tally = Tally::default();
    for c in &cells {
        tally.add(Tally {
            attempted: 1,
            failed: u64::from(c.failed),
            degraded: u64::from(c.degraded),
            certified: u64::from(c.certified),
        });
    }
    let counters = &atlas.counters;
    let consistent = counters.cells_certified + counters.cells_failed == cells.len()
        && counters.cells_certified as u64 == tally.certified;

    let mut op = Op::new(traced, wall_s, cpu_s);
    op.tally = tally;
    op.digest = Some(atlas.digest());
    if traced {
        let layers = &mut op.layers;
        let times: Vec<f64> = cells.iter().map(|c| c.seconds).collect();
        let sum: f64 = times.iter().sum();
        let solves: usize = cells.iter().map(|c| c.solves).sum();
        let attempts: usize = cells.iter().map(|c| c.attempts).sum();
        layers.insert("sweep.cells_solved", cells.len() as f64);
        layers.insert("sweep.waves", atlas.waves as f64);
        layers.insert("sweep.warm_start_hits", counters.warm_start_hits as f64);
        layers.insert("sweep.cell_s.p50", quantile(&times, 0.5));
        layers.insert("sweep.cell_s.p75", quantile(&times, 0.75));
        layers.insert("sweep.cell_s.sum", sum);
        layers.insert(
            "sweep.idle_s",
            cppll_par::current_threads() as f64 * wall_s - sum,
        );
        layers.insert(
            "sweep.attempts_per_solve",
            ratio(attempts as f64, solves as f64),
        );
        layers.insert("par.cpu_per_wall", cpu_s / wall_s);
        metrics::zero_fill(layers, &["core.", "sos.", "sdp."]);
    }
    Ok((op, consistent))
}
