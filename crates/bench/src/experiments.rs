//! One runner per table/figure of the paper, plus the ablations.

use std::collections::BTreeMap;

use cppll_hybrid::{HybridSystem, Jump, Mode};
use cppll_json::{ObjectBuilder, ToJson, Value};
use cppll_pll::{
    PllModelBuilder, PllOrder, TableOneParams, UncertaintySelection, VerificationModel,
};
use cppll_poly::Polynomial;
use cppll_sos::SosOptions;
use cppll_verify::{
    span_forest, step_times, CertificateScheme, EventKind, InevitabilityVerifier, LyapunovOptions,
    LyapunovSynthesizer, PipelineOptions, ReductionStats, Region, ResilienceConfig, RobustEncoding,
    TraceLevel, Tracer, VerificationReport,
};

use crate::contour::{trace_sublevel_boundary, Curve};

/// Certificate degrees used by the paper: 6 for the third order, 4 for the
/// fourth. `quick` mode uses 4/4 to keep the harness fast; the third order
/// still verifies, while the fourth typically degrades during inclusion
/// checking at that degree — Table 2 records both outcomes in its
/// `verified` flags instead of aborting.
pub fn paper_degree(order: PllOrder, quick: bool) -> u32 {
    match (order, quick) {
        (PllOrder::Third, false) => 6,
        _ => 4,
    }
}

/// Builds the verification model used across the experiments.
pub fn model(order: PllOrder) -> VerificationModel {
    PllModelBuilder::new(order).build()
}

/// Trace counter totals of one run, by name.
pub type CounterTotals = BTreeMap<&'static str, u64>;

/// Table 2 step rows of one run in nanoseconds, `unaccounted` last (see
/// [`step_times`]).
pub type StepTimes = Vec<(&'static str, u64)>;

/// The step rows of the last pipeline run `tracer` recorded.
fn run_steps(tracer: &Tracer) -> StepTimes {
    step_times(&span_forest(&tracer.events()))
}

/// Runs the full pipeline for one benchmark under a `stage` tracer, and
/// returns the model, the report and the tracer, whose stage spans time the
/// pipeline steps and whose counters carry the solver stage clocks. Results
/// are memoised per `(order, quick)` so the figure and table runners share
/// one pipeline run.
pub fn run_pipeline(
    order: PllOrder,
    quick: bool,
) -> (VerificationModel, VerificationReport, Tracer) {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Key = (bool, bool); // (is_fourth, quick)
    type Run = (VerificationModel, VerificationReport, Tracer);
    static CACHE: OnceLock<Mutex<HashMap<Key, Run>>> = OnceLock::new();
    let key = (order == PllOrder::Fourth, quick);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("cache lock").get(&key) {
        return hit.clone();
    }
    let m = model(order);
    let verifier = InevitabilityVerifier::for_pll(&m);
    let mut opt = PipelineOptions::degree(paper_degree(order, quick));
    // The harness runs supervised: transient stalls near the feasibility
    // boundary are retried rather than absorbed, and the attempt counts
    // surface in the reproduction output.
    opt.resilience = ResilienceConfig::with_retries(2);
    let tracer = Tracer::new(TraceLevel::Stage);
    opt.trace = Some(tracer.clone());
    let report = verifier
        .verify(&opt)
        .expect("lyapunov synthesis feasible for the PLL benchmarks");
    let value = (m, report, tracer);
    cache.lock().expect("cache lock").insert(key, value.clone());
    value
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of the Table-1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Parameter name.
    pub parameter: String,
    /// Third-order value (SI units).
    pub third: String,
    /// Fourth-order value (SI units).
    pub fourth: String,
}

/// Reproduces Table 1 — the parameters are inputs, so this row set *is* the
/// table, plus the derived scaled coefficients for transparency.
pub fn table1() -> Vec<Table1Row> {
    let t = TableOneParams::third_order();
    let f = TableOneParams::fourth_order();
    let fmt_iv = |iv: cppll_pll::Interval, scale: f64, unit: &str| {
        format!("[{:.3}, {:.3}] {unit}", iv.lo * scale, iv.hi * scale)
    };
    let mut rows = vec![
        Table1Row {
            parameter: "C1".into(),
            third: fmt_iv(t.c1, 1e12, "pF"),
            fourth: fmt_iv(f.c1, 1e12, "pF"),
        },
        Table1Row {
            parameter: "C2".into(),
            third: fmt_iv(t.c2, 1e12, "pF"),
            fourth: fmt_iv(f.c2, 1e12, "pF"),
        },
        Table1Row {
            parameter: "C3".into(),
            third: "—".into(),
            fourth: fmt_iv(f.c3.expect("fourth order"), 1e12, "pF"),
        },
        Table1Row {
            parameter: "R".into(),
            third: fmt_iv(t.r, 1e-3, "kΩ"),
            fourth: fmt_iv(f.r, 1e-3, "kΩ"),
        },
        Table1Row {
            parameter: "R2".into(),
            third: "—".into(),
            fourth: fmt_iv(f.r2.expect("fourth order"), 1e-3, "kΩ"),
        },
        Table1Row {
            parameter: "f_ref".into(),
            third: format!("{} MHz", t.f_ref / 1e6),
            fourth: format!("{} MHz", f.f_ref / 1e6),
        },
        Table1Row {
            parameter: "Ip".into(),
            third: fmt_iv(t.ip, 1e6, "µA"),
            fourth: fmt_iv(f.ip, 1e6, "µA"),
        },
        Table1Row {
            parameter: "N".into(),
            third: fmt_iv(t.n, 1.0, ""),
            fourth: fmt_iv(f.n, 1.0, ""),
        },
    ];
    // Derived scaled coefficients (documented reconstruction).
    let sc3 = cppll_pll::ScaledCoefficients::from_params(&t);
    let sc4 = cppll_pll::ScaledCoefficients::from_params(&f);
    rows.push(Table1Row {
        parameter: "scaled coefficients".into(),
        third: format!("{sc3}"),
        fourth: format!("{sc4}"),
    });
    rows
}

// ---------------------------------------------------------------------------
// Figures 2 and 3: attractive invariants
// ---------------------------------------------------------------------------

/// Data behind one attractive-invariant figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Artefact id, e.g. `"fig2"`.
    pub id: String,
    /// Level curves of the attractive invariant on the figure's planes.
    pub curves: Vec<Curve>,
    /// Maximised level value `c*`.
    pub level: f64,
    /// Certificate degree used.
    pub degree: u32,
    /// Free-text observations recorded for EXPERIMENTS.md.
    pub notes: Vec<String>,
}

fn ai_figure(
    id: &str,
    order: PllOrder,
    planes: &[(usize, usize, &str)],
    quick: bool,
) -> FigureResult {
    let (m, report, _) = run_pipeline(order, quick);
    let tracking = m.tracking_mode();
    let ai = &report.levels.ai_polys[tracking];
    let mut curves = Vec::new();
    for &(x, y, label) in planes {
        curves.push(trace_sublevel_boundary(ai, x, y, 96, 50.0, label));
    }
    let notes = vec![
        format!("verdict: {:?}", report.verdict),
        format!("solves: {}", report.solve_stats),
        format!("level c* = {:.4}", report.levels.level),
        format!(
            "projection extents: {}",
            curves
                .iter()
                .map(|c| format!("{}: x≤{:.2} y≤{:.2}", c.label, c.x_extent(), c.y_extent()))
                .collect::<Vec<_>>()
                .join("; ")
        ),
    ];
    FigureResult {
        id: id.into(),
        curves,
        level: report.levels.level,
        degree: report
            .certificates
            .as_ref()
            .expect("verified run has certificates")
            .degree(),
        notes,
    }
}

/// Fig. 2: third-order attractive invariant projected onto `(v1, v2)` and
/// `(v2, e)`.
pub fn fig2(quick: bool) -> FigureResult {
    ai_figure(
        "fig2",
        PllOrder::Third,
        &[(0, 1, "AI (v1, v2)"), (1, 2, "AI (v2, e)")],
        quick,
    )
}

/// Fig. 3: fourth-order attractive invariant projected onto `(v2, v3)` and
/// `(v2, e)`.
pub fn fig3(quick: bool) -> FigureResult {
    ai_figure(
        "fig3",
        PllOrder::Fourth,
        &[(1, 2, "AI (v2, v3)"), (1, 3, "AI (v2, e)")],
        quick,
    )
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: bounded advection
// ---------------------------------------------------------------------------

/// Data behind one advection figure.
#[derive(Debug, Clone)]
pub struct AdvectionFigure {
    /// Artefact id, e.g. `"fig4"`.
    pub id: String,
    /// The outer (initial) set's curves.
    pub initial_curves: Vec<Curve>,
    /// The attractive invariant's curves.
    pub ai_curves: Vec<Curve>,
    /// Advected front curves per iteration (tracking-mode piece).
    pub front_curves: Vec<Vec<Curve>>,
    /// Iterations performed.
    pub iterations: usize,
    /// Iteration after which the front was certified inside the AI.
    pub included_after: Option<usize>,
    /// Number of escape certificates synthesised (fig. 5's pink region).
    pub escape_count: usize,
    /// Whether the overall verdict was "inevitable".
    pub verified: bool,
    /// Observations for EXPERIMENTS.md.
    pub notes: Vec<String>,
}

fn advection_figure(
    id: &str,
    order: PllOrder,
    planes: &[(usize, usize)],
    quick: bool,
    force_escape_path: bool,
) -> AdvectionFigure {
    let m = model(order);
    let verifier = InevitabilityVerifier::for_pll(&m);
    let mut opt = PipelineOptions::degree(paper_degree(order, quick));
    if force_escape_path {
        // Reproduce the paper's fourth-order situation: advection alone is
        // not allowed to finish, so the leftover region must be closed by
        // escape certificates (Algorithm 1, lines 13–18).
        opt.max_advection_iters = 0;
    }
    let report = verifier.verify(&opt).expect("pipeline runs");
    let tracking = m.tracking_mode();
    let trace_planes = |p: &cppll_poly::Polynomial, label: String| -> Vec<Curve> {
        planes
            .iter()
            .map(|&(x, y)| trace_sublevel_boundary(p, x, y, 96, 50.0, format!("{label} ({x},{y})")))
            .collect()
    };
    let initial_curves = trace_planes(verifier.initial().level(), "initial".into());
    let ai_curves = trace_planes(&report.levels.ai_polys[tracking], "AI".into());
    let front_curves: Vec<Vec<Curve>> = report
        .advection_trace
        .iter()
        .enumerate()
        .map(|(k, e)| trace_planes(&e.pieces[tracking], format!("front {k}")))
        .collect();
    let verified = report.verdict.is_verified();
    let notes = vec![
        format!("verdict: {:?}", report.verdict),
        format!("solves: {}", report.solve_stats),
        format!(
            "advection iterations: {} (paper: {})",
            report.advection_iterations(),
            if order == PllOrder::Third { 14 } else { 7 }
        ),
        format!("escape certificates: {}", report.escape_certificates.len()),
        format!(
            "guard mismatch (last step): {:.2e}",
            report
                .advection_trace
                .last()
                .map_or(0.0, |e| e.guard_mismatch)
        ),
    ];
    AdvectionFigure {
        id: id.into(),
        initial_curves,
        ai_curves,
        front_curves,
        iterations: report.advection_iterations(),
        included_after: report.included_after(),
        escape_count: report.escape_certificates.len(),
        verified,
        notes,
    }
}

/// Fig. 4: third-order advection — the front immerses symmetrically into the
/// attractive invariant after finitely many iterations.
pub fn fig4(quick: bool) -> AdvectionFigure {
    advection_figure("fig4", PllOrder::Third, &[(0, 1), (1, 2)], quick, false)
}

/// Fig. 5: fourth-order advection. The default run immerses by advection; a
/// second run with advection disabled exercises the paper's fallback where
/// **escape certificates** close the argument for the leftover region (the
/// paper needed 2 certificates; see [`fig5_escape_variant`]).
pub fn fig5(quick: bool) -> AdvectionFigure {
    advection_figure("fig5", PllOrder::Fourth, &[(1, 2), (1, 3)], quick, false)
}

/// The escape-certificate variant of Fig. 5 (Algorithm 1, lines 13–18).
pub fn fig5_escape_variant(quick: bool) -> AdvectionFigure {
    advection_figure(
        "fig5-escape",
        PllOrder::Fourth,
        &[(1, 2), (1, 3)],
        quick,
        true,
    )
}

// ---------------------------------------------------------------------------
// Table 2: computation times
// ---------------------------------------------------------------------------

/// One row of the Table-2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Verification step name.
    pub step: String,
    /// Our third-order time (seconds).
    pub third_seconds: f64,
    /// Our fourth-order time (seconds).
    pub fourth_seconds: f64,
    /// Paper's third-order time (seconds).
    pub paper_third: Option<f64>,
    /// Paper's fourth-order time (seconds).
    pub paper_fourth: Option<f64>,
}

/// The Table-2 reproduction plus summary facts.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in the paper's order.
    pub rows: Vec<Table2Row>,
    /// Certificate degrees used (third, fourth).
    pub degrees: (u32, u32),
    /// Both verdicts verified?
    pub verified: (bool, bool),
    /// Supervised-solve totals `(solves, attempts)` per benchmark, third
    /// then fourth — the reproduction's retry footprint.
    pub solve_attempts: ((usize, usize), (usize, usize)),
}

/// Reproduces Table 2 by running both pipelines and tabulating per-step
/// wall-clock seconds next to the paper's numbers.
pub fn table2(quick: bool) -> Table2 {
    let (_, r3, t3) = run_pipeline(PllOrder::Third, quick);
    let (_, r4, t4) = run_pipeline(PllOrder::Fourth, quick);
    let (steps3, steps4) = (run_steps(&t3), run_steps(&t4));
    let paper: &[(&str, Option<f64>, Option<f64>)] = &[
        ("attractive invariant", Some(1381.7), Some(10021.0)),
        ("max level curves", Some(15.5), Some(12.0)),
        ("advection", Some(106.8487), Some(140.678)),
        ("checking set inclusion", Some(13.0), Some(10.2)),
        ("escape certificate", None, Some(18.0)),
    ];
    let lookup = |steps: &StepTimes, name: &str| {
        steps
            .iter()
            .find(|(step, _)| *step == name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
    };
    let rows = paper
        .iter()
        .map(|&(name, p3, p4)| Table2Row {
            step: name.into(),
            third_seconds: lookup(&steps3, name),
            fourth_seconds: lookup(&steps4, name),
            paper_third: p3,
            paper_fourth: p4,
        })
        .collect();
    Table2 {
        rows,
        // A degraded run has no certificates; the `verified` flags below
        // record that, so the table keeps printing instead of panicking.
        degrees: (
            r3.certificates.as_ref().map_or(0, |c| c.degree()),
            r4.certificates.as_ref().map_or(0, |c| c.degree()),
        ),
        verified: (r3.verdict.is_verified(), r4.verdict.is_verified()),
        solve_attempts: (
            (r3.solve_stats.solves, r3.solve_stats.attempts),
            (r4.solve_stats.solves, r4.solve_stats.attempts),
        ),
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Whether certificate synthesis succeeded.
    pub feasible: bool,
    /// Wall-clock seconds of the synthesis.
    pub seconds: f64,
    /// Extra metric (level value, γ, …) depending on the ablation.
    pub metric: Option<f64>,
}

/// Certificate-degree sweep on the third-order benchmark (2 is infeasible —
/// the saturated slabs genuinely need quartics; 4 and 6 succeed).
pub fn ablation_degree() -> Vec<AblationRow> {
    let m = model(PllOrder::Third);
    [2u32, 4, 6]
        .iter()
        .map(|&deg| {
            let t = std::time::Instant::now();
            let r = LyapunovSynthesizer::new(m.system())
                .synthesize_auto(&LyapunovOptions::degree(deg), &SosOptions::default());
            AblationRow {
                config: format!("degree {deg}"),
                feasible: r.is_ok(),
                seconds: t.elapsed().as_secs_f64(),
                metric: None,
            }
        })
        .collect()
}

/// Common vs multiple Lyapunov certificates (third order, degree 4).
pub fn ablation_scheme() -> Vec<AblationRow> {
    let m = model(PllOrder::Third);
    [
        ("common", CertificateScheme::Common),
        ("multiple", CertificateScheme::Multiple),
    ]
    .iter()
    .map(|&(label, scheme)| {
        let t = std::time::Instant::now();
        let opt = LyapunovOptions::degree(4).with_scheme(scheme);
        let r = LyapunovSynthesizer::new(m.system()).synthesize_auto(&opt, &SosOptions::default());
        AblationRow {
            config: format!("scheme {label}"),
            feasible: r.is_ok(),
            seconds: t.elapsed().as_secs_f64(),
            metric: None,
        }
    })
    .collect()
}

/// Robustness encodings: nominal / pump+gain vertices / full vertices /
/// S-procedure (the paper's own encoding).
pub fn ablation_robust() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    // Single synthesis attempt per configuration at the margin the robust
    // encodings are known to need (ε = 10⁻⁶): the ε-ladder would multiply
    // the cost of the heavyweight configurations several-fold.
    let mut opt_base = LyapunovOptions::degree(4);
    opt_base.epsilon = 1e-6;
    for (label, unc) in [
        ("nominal", UncertaintySelection::Nominal),
        ("vertices (Ip, N)", UncertaintySelection::PumpAndGain),
        ("vertices (all)", UncertaintySelection::Full),
    ] {
        let m = PllModelBuilder::new(PllOrder::Third)
            .with_uncertainty(unc)
            .build();
        let t = std::time::Instant::now();
        let r = LyapunovSynthesizer::new(m.system()).synthesize(&opt_base, &SosOptions::default());
        rows.push(AblationRow {
            config: format!("robust {label}"),
            feasible: r.is_ok(),
            seconds: t.elapsed().as_secs_f64(),
            metric: None,
        });
    }
    // The paper's S-procedure encoding (parameters as indeterminates),
    // with a bounded iteration budget: the point of the ablation is the
    // relative cost, and an overrunning solve is itself the datum.
    let m = PllModelBuilder::new(PllOrder::Third).build();
    let t = std::time::Instant::now();
    let opt = opt_base.clone().with_robust(RobustEncoding::SProcedure);
    let mut sos = SosOptions::default();
    sos.sdp.max_iterations = 60;
    let r = LyapunovSynthesizer::new(m.system()).synthesize(&opt, &sos);
    rows.push(AblationRow {
        config: "robust s-procedure (Ip, N)".into(),
        feasible: r.is_ok(),
        seconds: t.elapsed().as_secs_f64(),
        metric: None,
    });
    rows
}

/// Advection variants: exact piecewise Taylor (orders 1/2) vs the Eq.-6
/// style SOS merge with bisected tightness γ.
pub fn ablation_advection() -> Vec<AblationRow> {
    use cppll_verify::{Advection, AdvectionOptions};
    let m = model(PllOrder::Third);
    let adv = Advection::new(m.system());
    let initial = cppll_verify::Region::ellipsoid(&[1.5, 1.5, 1.9]);
    let mut rows = Vec::new();
    for order in [1u32, 2] {
        let opt = AdvectionOptions {
            taylor_order: order,
            error_box: vec![1.9, 1.9, 2.4],
            ..Default::default()
        };
        let t = std::time::Instant::now();
        let pieces = vec![initial.level().clone(); 3];
        let stepped = adv.step_pieces(&pieces, &opt);
        let err = adv.estimate_taylor_error(initial.level(), &opt);
        let mismatch = adv.guard_mismatch(&stepped, &opt);
        rows.push(AblationRow {
            config: format!("piecewise taylor-{order}"),
            feasible: true,
            seconds: t.elapsed().as_secs_f64(),
            metric: Some(err.max(mismatch)),
        });
    }
    // SOS merge (single-front representation, Eq. 6 analogue).
    let opt = AdvectionOptions {
        error_box: vec![1.9, 1.9, 2.4],
        bounding: {
            let n = 3;
            let mut b = Vec::new();
            for (i, r) in [1.9f64, 1.9, 2.4].iter().enumerate() {
                let xi = cppll_poly::Polynomial::var(n, i);
                b.push(&cppll_poly::Polynomial::constant(n, *r) - &xi);
                b.push(&cppll_poly::Polynomial::constant(n, *r) + &xi);
            }
            b
        },
        ..Default::default()
    };
    let t = std::time::Instant::now();
    let step = adv.step(initial.level(), &opt, &SosOptions::default());
    rows.push(AblationRow {
        config: "sos merge (Eq. 6 analogue)".into(),
        feasible: step.is_some(),
        seconds: t.elapsed().as_secs_f64(),
        metric: step.map(|s| s.gamma),
    });
    rows
}

// ---------------------------------------------------------------------------
// SDP hot-path benchmark (BENCH_SDP.json)
// ---------------------------------------------------------------------------

/// Per-stage SDP solver wall-clock of one benchmark problem, summed by the
/// stage counters of its run's tracer across a full pipeline run.
#[derive(Debug, Clone)]
pub struct BenchSdpRow {
    /// Problem label.
    pub problem: String,
    /// Whether the run verified.
    pub verified: bool,
    /// Supervised solves of the run.
    pub solves: usize,
    /// Solve attempts including retries.
    pub attempts: usize,
    /// Solves that exhausted their attempts without an answer.
    pub failed: usize,
    /// Counter totals of the run's tracer: the solver stage clocks
    /// ([`cppll_sdp::STAGE_COUNTERS`]) and counts among them.
    pub counters: CounterTotals,
    /// Pipeline step times of the run, from its stage spans.
    pub steps: StepTimes,
    /// Aggregate problem-size reduction statistics (Gram basis pruning and
    /// symmetry block splitting) across the run's solves.
    pub reduction: ReductionStats,
}

/// Trace-overhead measurement for `BENCH_SDP.json`: the toy pipeline run
/// untraced and again at `iter` level, with event statistics and the two
/// result digests (which must agree — tracing never touches the numerics).
#[derive(Debug, Clone)]
pub struct BenchTelemetry {
    /// Recording level of the traced run.
    pub trace_level: String,
    /// Total events recorded by the traced run.
    pub events: usize,
    /// Spans opened.
    pub spans: usize,
    /// Per-interior-point-iteration instants.
    pub iteration_events: usize,
    /// Counter totals (retries, backoffs, …), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock of the untraced run.
    pub untraced_seconds: f64,
    /// Wall-clock of the `iter`-traced run.
    pub traced_seconds: f64,
    /// Result digest of the untraced run.
    pub digest_untraced: String,
    /// Result digest of the traced run.
    pub digest_traced: String,
}

/// The SDP hot-path benchmark: where solver time goes on a toy hybrid
/// system and on the third-order PLL.
#[derive(Debug, Clone)]
pub struct BenchSdp {
    /// One row per benchmark problem.
    pub rows: Vec<BenchSdpRow>,
    /// Trace-overhead measurement on the toy problem.
    pub telemetry: BenchTelemetry,
}

/// The two-mode planar spiral from the toy inevitability test: both modes
/// contract to the origin, identity jumps on the switching line `x = 0`.
fn toy_two_mode_spiral() -> HybridSystem {
    let right = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], -1.0)]),
    ];
    let left = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 0.5)]),
        Polynomial::from_terms(2, &[(&[1, 0], -0.5), (&[0, 1], -1.0)]),
    ];
    let x = Polynomial::var(2, 0);
    let m0 = Mode::new("right", right).with_flow_set(vec![x.clone()]);
    let m1 = Mode::new("left", left).with_flow_set(vec![x.scale(-1.0)]);
    let guard = vec![Polynomial::var(2, 0)];
    let jumps = vec![
        Jump::identity(0, 1).with_guard_eq(guard.clone()),
        Jump::identity(1, 0).with_guard_eq(guard),
    ];
    HybridSystem::new(2, vec![m0, m1], jumps)
}

fn bench_sdp_row(problem: &str, report: &VerificationReport, tracer: &Tracer) -> BenchSdpRow {
    BenchSdpRow {
        problem: problem.into(),
        verified: report.verdict.is_verified(),
        solves: report.solve_stats.solves,
        attempts: report.solve_stats.attempts,
        failed: report.solve_stats.failures,
        counters: tracer.counter_totals(),
        steps: run_steps(tracer),
        reduction: report.reduction,
    }
}

/// Runs the SDP hot-path benchmark: a toy two-mode system (degree 2) and
/// the third-order PLL at the `quick`-selected degree, reporting per-stage
/// solver timings of each.
pub fn bench_sdp(quick: bool) -> BenchSdp {
    let sys = toy_two_mode_spiral();
    let mut boundary = Vec::new();
    for i in 0..2 {
        let xi = Polynomial::var(2, i);
        boundary.push(&Polynomial::constant(2, 3.0) - &xi);
        boundary.push(&Polynomial::constant(2, 3.0) + &xi);
    }
    let verifier = InevitabilityVerifier::new(&sys, boundary, Region::ball(2, 2.0));
    let t0 = std::time::Instant::now();
    let toy = verifier
        .verify(&PipelineOptions::degree(2))
        .expect("toy system verifies");
    let untraced_seconds = t0.elapsed().as_secs_f64();

    // Same problem again with full iteration-level telemetry: the digests
    // must agree (tracing never touches the numerics) and the wall-clock
    // delta is the trace overhead on a pipeline dominated by small solves.
    let tracer = Tracer::new(TraceLevel::Iter);
    let mut traced_opt = PipelineOptions::degree(2);
    traced_opt.trace = Some(tracer.clone());
    let t0 = std::time::Instant::now();
    let toy_traced = verifier
        .verify(&traced_opt)
        .expect("toy system verifies traced");
    let traced_seconds = t0.elapsed().as_secs_f64();
    let events = tracer.events();
    let telemetry = BenchTelemetry {
        trace_level: TraceLevel::Iter.as_str().into(),
        events: events.len(),
        spans: events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Begin { .. }))
            .count(),
        iteration_events: events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Instant { .. }) && e.name() == "iteration")
            .count(),
        counters: tracer
            .counter_totals()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        untraced_seconds,
        traced_seconds,
        digest_untraced: toy.result_digest(),
        digest_traced: toy_traced.result_digest(),
    };

    let (_, r3, t3) = run_pipeline(PllOrder::Third, quick);
    let (_, r4, t4) = run_pipeline(PllOrder::Fourth, quick);
    BenchSdp {
        rows: vec![
            // The toy row's clocks come from the traced run: the untraced
            // one is the overhead reference and records nothing.
            bench_sdp_row("toy_two_mode_spiral", &toy_traced, &tracer),
            bench_sdp_row("pll_third_order", &r3, &t3),
            bench_sdp_row("pll_fourth_order", &r4, &t4),
        ],
        telemetry,
    }
}

// ---------------------------------------------------------------------------
// JSON artefact serialisation (hand-rolled: serde is unavailable offline).
// ---------------------------------------------------------------------------

impl ToJson for Table1Row {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("parameter", &self.parameter)
            .field("third", &self.third)
            .field("fourth", &self.fourth)
            .build()
    }
}

impl ToJson for FigureResult {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("id", &self.id)
            .field("curves", &self.curves)
            .field("level", self.level)
            .field("degree", self.degree)
            .field("notes", &self.notes)
            .build()
    }
}

impl ToJson for AdvectionFigure {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("id", &self.id)
            .field("initial_curves", &self.initial_curves)
            .field("ai_curves", &self.ai_curves)
            .field("front_curves", &self.front_curves)
            .field("iterations", self.iterations)
            .field("included_after", self.included_after)
            .field("escape_count", self.escape_count)
            .field("verified", self.verified)
            .field("notes", &self.notes)
            .build()
    }
}

impl ToJson for Table2Row {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("step", &self.step)
            .field("third_seconds", self.third_seconds)
            .field("fourth_seconds", self.fourth_seconds)
            .field("paper_third", self.paper_third)
            .field("paper_fourth", self.paper_fourth)
            .build()
    }
}

impl ToJson for Table2 {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("rows", &self.rows)
            .field("degrees", self.degrees)
            .field("verified", self.verified)
            .field("solve_attempts", self.solve_attempts)
            .build()
    }
}

impl ToJson for BenchSdpRow {
    fn to_json(&self) -> Value {
        let (stage_secs, total) = cppll_sdp::stage_seconds(&self.counters);
        let mut stages = ObjectBuilder::new();
        for (name, secs) in stage_secs {
            stages = stages.field(name, secs);
        }
        let mut steps = ObjectBuilder::new();
        for &(name, ns) in &self.steps {
            steps = steps.field(name, ns as f64 / 1e9);
        }
        let mut row = ObjectBuilder::new()
            .field("problem", &self.problem)
            .field("verified", self.verified)
            .field("solves", self.solves)
            .field("attempts", self.attempts)
            .field("failed", self.failed)
            .field("steps", steps.build())
            .field("stages", stages.build())
            .field("total_seconds", total);
        for name in cppll_sdp::COUNT_COUNTERS {
            row = row.field(name, self.counters.get(name).copied().unwrap_or(0));
        }
        row.field("reduction", self.reduction.to_json()).build()
    }
}

impl ToJson for BenchTelemetry {
    fn to_json(&self) -> Value {
        let mut counters = ObjectBuilder::new();
        for (name, total) in &self.counters {
            counters = counters.field(name, *total);
        }
        ObjectBuilder::new()
            .field("trace_level", &self.trace_level)
            .field("events", self.events)
            .field("spans", self.spans)
            .field("iteration_events", self.iteration_events)
            .field("counters", counters.build())
            .field("untraced_seconds", self.untraced_seconds)
            .field("traced_seconds", self.traced_seconds)
            .field("digest_untraced", &self.digest_untraced)
            .field("digest_traced", &self.digest_traced)
            .build()
    }
}

impl ToJson for BenchSdp {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("rows", &self.rows)
            .field("telemetry", self.telemetry.to_json())
            .build()
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("config", &self.config)
            .field("feasible", self.feasible)
            .field("seconds", self.seconds)
            .field("metric", self.metric)
            .build()
    }
}
