//! End-to-end inevitability verification (`P = P1 ∧ P2`, Algorithm 1).

use std::time::Instant;

use cppll_hybrid::HybridSystem;
use cppll_json::{ObjectBuilder, Value};
use cppll_poly::Polynomial;
use cppll_sdp::SdpSolution;
use cppll_sos::{
    check_inclusion, check_inclusion_seeded, InclusionOptions, LedgerStats, ReduceMode,
    ReductionOptions, ReductionStats, SolveLedger, SosOptions,
};
use cppll_trace::{TraceLevel, Tracer};

use crate::advection::{Advection, AdvectionOptions};
use crate::checkpoint::{
    self, CheckpointConfig, CheckpointError, Checkpointer, LedgerSnapshot, ResumeSummary,
    StageRecord,
};
use crate::escape::{EscapeCertificate, EscapeOptions, EscapeSynthesizer};
use crate::levelset::{LevelSetMaximizer, LevelSetOptions, LevelSetResult};
use crate::lyapunov::{LyapunovCertificates, LyapunovOptions, LyapunovSynthesizer};
use crate::region::Region;
use crate::resilience::{FailureReport, PipelineStage, ResilienceConfig};
use crate::VerifyError;

/// Options for the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Lyapunov synthesis options (step "Attractive Invariant" of Table 2).
    pub lyapunov: LyapunovOptions,
    /// Level maximisation options (step "Max. Level Curves").
    pub level: LevelSetOptions,
    /// Advection options (step "Advection").
    pub advection: AdvectionOptions,
    /// Escape-certificate options (step "Escape Certificate").
    pub escape: EscapeOptions,
    /// Bound on advection iterations (Algorithm 1's `K`).
    pub max_advection_iters: usize,
    /// Margin by which the attractive invariant is shrunk in inclusion
    /// checks, on top of the accumulated Taylor-error estimates.
    pub inclusion_margin: f64,
    /// Multiplier half-degree for the inclusion checks (step "Checking Set
    /// Inclusion").
    pub inclusion_mult_half_degree: u32,
    /// Problem-size reduction applied to every SOS compile of the run
    /// (Newton-polytope basis pruning + sign-symmetry blocking). On by
    /// default; [`ReductionOptions::none`] (CLI `--no-reduce`) reproduces
    /// the unreduced SDPs bit for bit.
    pub reduction: ReductionOptions,
    /// Resilience of the run: per-solve retries, budgets, deadline and the
    /// fault-injection hook. Inert by default.
    pub resilience: ResilienceConfig,
    /// Crash-safe journaling and resume. `None` (the default) journals
    /// nothing. With a config, every completed stage is journaled under
    /// `<dir>/<run_id>/journal.jsonl`; with [`CheckpointConfig::resume`]
    /// set, an existing journal is replayed — completed stages are skipped
    /// and the next SDP solves are warm-started from the journaled
    /// iterates.
    pub checkpoint: Option<CheckpointConfig>,
    /// Optional trace sink for the run. At [`TraceLevel::Stage`] the
    /// pipeline emits one span per stage (plus `advection_step` spans and
    /// `stage_replayed` markers on resume); deeper levels add supervisor
    /// and solver detail. Tracing never touches the numerics, so the
    /// result digest is identical at every level.
    pub trace: Option<Tracer>,
    /// Externally supplied per-mode warm-start seeds for the *first*
    /// advection inclusion solves — the parameter-step generalisation of
    /// the per-advection-step warm chain: a sweep seeds a cell's solves
    /// from the nearest already-certified neighbour's final iterates. A
    /// failed seeded solve silently falls back to a cold solve, so seeding
    /// can never change a verdict or a result digest; it is therefore
    /// deliberately excluded from the problem fingerprint. Ignored when a
    /// journal replay supplies its own iterates for a step.
    pub advection_seed: Option<Vec<Option<SdpSolution>>>,
}

impl PipelineOptions {
    /// Reasonable defaults for a certificate of the given degree.
    pub fn degree(lyapunov_degree: u32) -> Self {
        PipelineOptions {
            lyapunov: LyapunovOptions::degree(lyapunov_degree),
            level: LevelSetOptions::default(),
            advection: AdvectionOptions::default(),
            escape: EscapeOptions::degree(4),
            max_advection_iters: 40,
            inclusion_margin: 1e-3,
            // The Lemma-1 certificate needs σ·front to reach the degree of
            // the attractive-invariant polynomial: deg σ ≥ deg V − deg front.
            inclusion_mult_half_degree: (lyapunov_degree.saturating_sub(2) / 2).max(1),
            reduction: ReductionOptions::default(),
            resilience: ResilienceConfig::default(),
            checkpoint: None,
            trace: None,
            advection_seed: None,
        }
    }
}

/// Wall-clock timing of one pipeline step — the rows of the paper's Table 2.
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Step name (matches Table 2's row labels).
    pub name: &'static str,
    /// Elapsed seconds.
    pub seconds: f64,
}

/// Outcome of the verification.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Inevitability verified: `P1 ∧ P2` hold.
    Inevitable {
        /// `true` when bounded advection alone proved `P2`; `false` when
        /// escape certificates were needed for a leftover subset (as in the
        /// paper's fourth-order benchmark).
        advection_sufficed: bool,
    },
    /// The relaxations could not decide (sound but incomplete — a higher
    /// degree or finer advection may still succeed).
    Inconclusive {
        /// What failed.
        reason: String,
    },
    /// A stage's solves failed numerically even after the configured
    /// retries (or ran out of budget); the report is partial — everything
    /// proven before the failure is still in it, and the
    /// [`VerificationReport::failures`] carry the attempt logs.
    Degraded {
        /// The stage whose failure ended the run.
        stage: PipelineStage,
        /// What failed.
        reason: String,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Inevitable`].
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Inevitable { .. })
    }

    /// `true` for [`Verdict::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, Verdict::Degraded { .. })
    }
}

/// One entry of the advection trace.
#[derive(Debug, Clone)]
pub struct AdvectionTraceEntry {
    /// The piecewise front after this step (one polynomial per mode).
    pub pieces: Vec<Polynomial>,
    /// Taylor truncation error estimate of this step.
    pub taylor_error: f64,
    /// Guard-consistency mismatch of the piecewise front after this step.
    pub guard_mismatch: f64,
    /// Whether the front was certified inside the attractive invariant
    /// after this step.
    pub included: bool,
}

/// Everything the pipeline produced: certificates, levels, traces, timings
/// and the verdict.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// The multiple Lyapunov certificates (P1). `None` only on a
    /// [`Verdict::Degraded`] run whose Lyapunov stage failed.
    pub certificates: Option<LyapunovCertificates>,
    /// Maximised level sets / attractive invariant (P1).
    pub levels: LevelSetResult,
    /// Advection trace (P2).
    pub advection_trace: Vec<AdvectionTraceEntry>,
    /// Escape certificates for the leftover region, if any (P2).
    pub escape_certificates: Vec<EscapeCertificate>,
    /// Per-step wall-clock timings (Table 2 reproduction).
    pub timings: Vec<StepTiming>,
    /// Final verdict.
    pub verdict: Verdict,
    /// Stage failures the pipeline degraded through (empty on a clean run).
    pub failures: Vec<FailureReport>,
    /// Aggregate supervised-solve statistics of the whole run.
    pub solve_stats: LedgerStats,
    /// Problem-size reduction totals across every compiled solve of the run
    /// (Gram bases before/after pruning, emitted block counts and sizes).
    pub reduction: ReductionStats,
    /// Checkpoint/resume bookkeeping: replayed vs fresh stage counts and
    /// warm-started solves. All-zero (with no run id) when checkpointing
    /// was off.
    pub resume: ResumeSummary,
    /// Final per-mode advection inclusion iterates — the warm-start seeds
    /// a parameter-sweep neighbour can pass back in via
    /// [`PipelineOptions::advection_seed`]. Empty when advection never ran.
    /// Excluded from [`Self::canonical_result_json`]: iterates depend on
    /// the seeding history, results do not.
    pub advection_warm: Vec<Option<SdpSolution>>,
    /// Inclusion solves of this run that accepted a warm-start seed
    /// (journal-chained or parameter-seeded). Excluded from
    /// [`Self::canonical_result_json`].
    pub advection_warm_hits: usize,
}

impl VerificationReport {
    /// Number of advection iterations performed.
    pub fn advection_iterations(&self) -> usize {
        self.advection_trace.len()
    }

    /// Iteration after which the front was inside the attractive invariant,
    /// if advection sufficed.
    pub fn included_after(&self) -> Option<usize> {
        self.advection_trace
            .iter()
            .position(|e| e.included)
            .map(|i| i + 1)
    }

    /// Total wall-clock seconds across all steps.
    pub fn total_seconds(&self) -> f64 {
        self.timings.iter().map(|t| t.seconds).sum()
    }

    /// Canonical JSON of everything the pipeline *proved*: verdict,
    /// certificates, level set, advection trace, and escape certificates.
    /// Wall-clock timings, solve statistics and resume bookkeeping are
    /// excluded. `cppll-json` prints every `f64` with shortest-round-trip
    /// formatting (including the sign of `-0.0`), so two reports have equal
    /// canonical JSON exactly when their results are bit-identical — the
    /// property the crash/resume acceptance test asserts.
    pub fn canonical_result_json(&self) -> String {
        let verdict = match &self.verdict {
            Verdict::Inevitable { advection_sufficed } => ObjectBuilder::new()
                .field("kind", "inevitable")
                .field("advection_sufficed", *advection_sufficed)
                .build(),
            Verdict::Inconclusive { reason } => ObjectBuilder::new()
                .field("kind", "inconclusive")
                .field("reason", reason.as_str())
                .build(),
            Verdict::Degraded { stage, reason } => ObjectBuilder::new()
                .field("kind", "degraded")
                .field("stage", stage.name())
                .field("reason", reason.as_str())
                .build(),
        };
        let certificates = match &self.certificates {
            Some(c) => ObjectBuilder::new()
                .field("vs", c.all())
                .field("degree", c.degree())
                .field("epsilon", c.epsilon())
                .field("scheme", c.scheme())
                .build(),
            None => Value::Null,
        };
        let trace: Vec<Value> = self
            .advection_trace
            .iter()
            .map(|e| {
                ObjectBuilder::new()
                    .field("pieces", &e.pieces)
                    .field("taylor_error", e.taylor_error)
                    .field("guard_mismatch", e.guard_mismatch)
                    .field("included", e.included)
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("verdict", verdict)
            .field("certificates", certificates)
            .field(
                "levels",
                ObjectBuilder::new()
                    .field("level", self.levels.level)
                    .field("ai_polys", &self.levels.ai_polys)
                    .field("probes", self.levels.probes)
                    .build(),
            )
            .field("advection_trace", trace)
            .field("escape_certificates", &self.escape_certificates)
            .build()
            .to_compact_string()
    }

    /// FNV-1a digest of [`Self::canonical_result_json`] — a short stable
    /// token the CLI prints and CI diffs across kill/resume boundaries.
    pub fn result_digest(&self) -> String {
        checkpoint::fingerprint_hex(checkpoint::fnv1a(self.canonical_result_json().as_bytes()))
    }
}

/// The one-call verifier for inevitability of an origin equilibrium.
///
/// # Examples
///
/// ```no_run
/// use cppll_pll::{PllModelBuilder, PllOrder};
/// use cppll_verify::{InevitabilityVerifier, PipelineOptions, Region};
///
/// let model = PllModelBuilder::new(PllOrder::Third).build();
/// let verifier = InevitabilityVerifier::for_pll(&model);
/// let report = verifier.verify(&PipelineOptions::degree(4))?;
/// assert!(report.verdict.is_verified());
/// # Ok::<(), cppll_verify::VerifyError>(())
/// ```
pub struct InevitabilityVerifier<'s> {
    system: &'s HybridSystem,
    /// Verified-region boundary `{g ≥ 0}` (the modeled envelope).
    boundary: Vec<Polynomial>,
    /// Initial set whose inevitability is to be proven (`S1 ∪ S2`).
    initial: Region,
}

impl<'s> InevitabilityVerifier<'s> {
    /// Creates a verifier for a hybrid system with an origin equilibrium.
    ///
    /// `boundary` lists polynomials `g` with the modeled region
    /// `= {g ≥ 0}`; `initial` is the outer set from which inevitability is
    /// claimed (the solid outer curve of the paper's Figs. 4–5).
    pub fn new(system: &'s HybridSystem, boundary: Vec<Polynomial>, initial: Region) -> Self {
        InevitabilityVerifier {
            system,
            boundary,
            initial,
        }
    }

    /// Convenience constructor for a CP PLL verification model: the
    /// boundary is `|e| ≤ θ_max` and the initial set an ellipsoid spanning
    /// most of the modeled region.
    pub fn for_pll(model: &'s cppll_pll::VerificationModel) -> Self {
        let n = model.nstates();
        let e_idx = model.phase_error_index();
        let theta = model.theta_max();
        let e = Polynomial::var(n, e_idx);
        let boundary = vec![
            &Polynomial::constant(n, theta) - &e,
            &Polynomial::constant(n, theta) + &e,
        ];
        // Initial ellipsoid: voltages up to ±1.5 (well beyond the certified
        // level sets), phase error up to 0.95·θ — the large solid outer set
        // of the paper's Figs. 4–5.
        let mut radii = vec![1.5; n];
        radii[e_idx] = 0.95 * theta;
        InevitabilityVerifier {
            system: model.system(),
            boundary,
            initial: Region::ellipsoid(&radii),
        }
    }

    /// The initial region.
    pub fn initial(&self) -> &Region {
        &self.initial
    }

    /// The problem fingerprint a checkpointed run of this verifier would be
    /// keyed by — stable across processes for identical problems and
    /// math-relevant options, so callers (e.g. the `cppll-serve` certificate
    /// cache) can deduplicate work before spending a solve.
    pub fn problem_fingerprint(&self, opt: &PipelineOptions) -> u64 {
        checkpoint::fingerprint(self.system, &self.boundary, &self.initial, opt)
    }

    /// Runs the full pipeline.
    ///
    /// Every SOS/SDP solve is supervised per [`PipelineOptions::resilience`]
    /// (retries with escalated regularisation, per-solve timeouts, a
    /// pipeline deadline). When a stage still fails numerically after its
    /// retries, the run *degrades*: `verify` returns `Ok` with a partial
    /// report whose [`Verdict::Degraded`] names the stage and whose
    /// [`VerificationReport::failures`] carry the attempt logs — it never
    /// panics and never loses what earlier stages proved.
    ///
    /// # Errors
    ///
    /// Propagates Lyapunov-synthesis *infeasibility* ([`VerifyError`]) —
    /// that is an answer about the relaxation degree, not a transient
    /// fault. All other failures degrade into an [`Verdict::Inconclusive`]
    /// or [`Verdict::Degraded`] report, matching Algorithm 1's "No Answer"
    /// path.
    pub fn verify(&self, opt: &PipelineOptions) -> Result<VerificationReport, VerifyError> {
        let ledger = SolveLedger::new();
        let run_deadline = opt.resilience.deadline.map(|d| Instant::now() + d);
        // The run's one SOS configuration: every stage's solves run under
        // the same supervisor, shared ledger and reduction.
        let sos = SosOptions {
            resilience: opt
                .resilience
                .to_sos(run_deadline, &ledger, opt.trace.clone()),
            reduction: opt.reduction,
            ..SosOptions::default()
        };
        let _pipeline_span = opt.trace.as_ref().map(|t| {
            t.span(
                TraceLevel::Stage,
                "pipeline",
                format!("modes={}", self.system.modes().len()),
            )
        });

        // Checkpointing: open (or resume) the run journal before anything
        // solves. Resume absorbs the last journaled ledger snapshot so the
        // final report counts the pre-crash work too.
        let mut ckpt: Option<Checkpointer> = match &opt.checkpoint {
            Some(cfg) => {
                let fp = checkpoint::fingerprint(self.system, &self.boundary, &self.initial, opt);
                let c = Checkpointer::open(cfg, fp, opt.resilience.fault.clone())?;
                if c.recovery.recovered() {
                    if let Some(t) = &opt.trace {
                        t.counter("journal_recovered", 1);
                        t.instant(
                            TraceLevel::Stage,
                            "journal_recovered",
                            vec![
                                ("dropped_records", c.recovery.dropped_records.into()),
                                ("dropped_bytes", c.recovery.dropped_bytes.into()),
                            ],
                        );
                    }
                }
                if let Some(snap) = c.prior_snapshot() {
                    ledger.absorb_prior(&snap.stats, &snap.reduction);
                }
                Some(c)
            }
            None => None,
        };
        let snapshot = |ledger: &SolveLedger| LedgerSnapshot {
            stats: ledger.stats(),
            reduction: ledger.reduction(),
        };
        let resume_of = |ckpt: &Option<Checkpointer>| {
            ckpt.as_ref().map(Checkpointer::summary).unwrap_or_default()
        };

        // Trace helpers: a span per pipeline stage, and a marker per stage
        // replayed from the journal (the marker count mirrors
        // `ResumeSummary.stages_replayed` — one per successful `take()`).
        let stage_span = |name: &'static str| {
            opt.trace
                .as_ref()
                .map(|t| t.span(TraceLevel::Stage, name, String::new()))
        };
        let replay_mark = |stage: &'static str| {
            if let Some(t) = &opt.trace {
                t.counter("stage_replayed", 1);
                t.instant(
                    TraceLevel::Stage,
                    "stage_replayed",
                    vec![("stage", stage.into())],
                );
            }
        };

        let mut timings = Vec::new();
        let mut failures: Vec<FailureReport> = Vec::new();
        let empty_levels = || LevelSetResult {
            level: 0.0,
            ai_polys: Vec::new(),
            probes: 0,
        };

        // ---- P1: attractive invariant --------------------------------
        opt.resilience.announce_stage(PipelineStage::Lyapunov);
        let lyapunov_span = stage_span("lyapunov");
        let t0 = Instant::now();
        let mut replayed_certs: Option<LyapunovCertificates> = None;
        if let Some(c) = ckpt.as_mut() {
            if matches!(c.peek(), Some(StageRecord::Lyapunov { .. })) {
                if let Some(StageRecord::Lyapunov {
                    vs,
                    degree,
                    epsilon,
                    scheme,
                    ..
                }) = c.take()
                {
                    replay_mark("lyapunov");
                    replayed_certs = Some(LyapunovCertificates::from_parts(
                        vs, degree, epsilon, scheme,
                    ));
                }
            }
        }
        let certs = if let Some(c) = replayed_certs {
            c
        } else {
            let synth = LyapunovSynthesizer::new(self.system);
            let certs = match synth.synthesize_auto(&opt.lyapunov, &sos) {
                Ok(c) => c,
                Err(e @ VerifyError::Infeasible { .. }) => return Err(e),
                Err(e @ VerifyError::Checkpoint { .. }) => return Err(e),
                Err(VerifyError::Numerical { step, source }) => {
                    timings.push(StepTiming {
                        name: "attractive invariant",
                        seconds: t0.elapsed().as_secs_f64(),
                    });
                    failures.push(FailureReport {
                        stage: PipelineStage::Lyapunov,
                        detail: format!("{step}: {source}"),
                        attempts: source.attempts().to_vec(),
                    });
                    return Ok(VerificationReport {
                        certificates: None,
                        levels: empty_levels(),
                        advection_trace: Vec::new(),
                        escape_certificates: Vec::new(),
                        timings,
                        verdict: Verdict::Degraded {
                            stage: PipelineStage::Lyapunov,
                            reason: "lyapunov synthesis failed numerically \
                                         after exhausting retries"
                                .into(),
                        },
                        failures,
                        solve_stats: ledger.stats(),
                        reduction: ledger.reduction(),
                        resume: resume_of(&ckpt),
                        advection_warm: Vec::new(),
                        advection_warm_hits: 0,
                    });
                }
            };
            if let Some(c) = ckpt.as_mut() {
                c.record(StageRecord::Lyapunov {
                    vs: certs.all().to_vec(),
                    degree: certs.degree(),
                    epsilon: certs.epsilon(),
                    scheme: certs.scheme(),
                    ledger: snapshot(&ledger),
                })?;
            }
            certs
        };
        timings.push(StepTiming {
            name: "attractive invariant",
            seconds: t0.elapsed().as_secs_f64(),
        });
        drop(lyapunov_span);

        opt.resilience.announce_stage(PipelineStage::LevelSet);
        let levelset_span = stage_span("levelset");
        let failures_before_levels = ledger.stats().failures;
        let t0 = Instant::now();
        let mut replayed_levels: Option<LevelSetResult> = None;
        if let Some(c) = ckpt.as_mut() {
            if matches!(c.peek(), Some(StageRecord::LevelSet { .. })) {
                if let Some(StageRecord::LevelSet {
                    level,
                    ai_polys,
                    probes,
                    ..
                }) = c.take()
                {
                    replay_mark("levelset");
                    replayed_levels = Some(LevelSetResult {
                        level,
                        ai_polys,
                        probes,
                    });
                }
            }
        }
        let levels = match replayed_levels {
            Some(l) => Some(l),
            None => {
                let maximizer = LevelSetMaximizer::new(self.system, self.boundary.clone());
                let mut levels = maximizer.maximize(&certs, &opt.level, &sos);
                // Stage-level screen: the bisection probes trust the
                // support-reduced compile's rejections (conservative and
                // cheap). Only when the whole maximisation comes up empty is
                // the stage re-run under the legacy compile, so a
                // support-mode over-restriction can never degrade the
                // verdict relative to legacy mode.
                if levels.is_none() && sos.reduction.mode == ReduceMode::Support {
                    if let Some(t) = &opt.trace {
                        t.counter("levelset_legacy_rerun", 1);
                    }
                    let mut legacy = sos.clone();
                    legacy.reduction.mode = ReduceMode::Legacy;
                    levels = maximizer.maximize(&certs, &opt.level, &legacy);
                }
                if let (Some(c), Some(l)) = (ckpt.as_mut(), &levels) {
                    c.record(StageRecord::LevelSet {
                        level: l.level,
                        ai_polys: l.ai_polys.clone(),
                        probes: l.probes,
                        ledger: snapshot(&ledger),
                    })?;
                }
                levels
            }
        };
        timings.push(StepTiming {
            name: "max level curves",
            seconds: t0.elapsed().as_secs_f64(),
        });
        drop(levelset_span);
        let Some(levels) = levels else {
            let failed = ledger.stats().failures - failures_before_levels;
            let verdict = if failed > 0 {
                failures.push(FailureReport {
                    stage: PipelineStage::LevelSet,
                    detail: format!(
                        "{failed} supervised solve(s) failed during \
                         level-set maximisation"
                    ),
                    attempts: Vec::new(),
                });
                Verdict::Degraded {
                    stage: PipelineStage::LevelSet,
                    reason: "level-set maximisation aborted on solver \
                             failures after exhausting retries"
                        .into(),
                }
            } else {
                Verdict::Inconclusive {
                    reason: "no level value could be certified".into(),
                }
            };
            return Ok(VerificationReport {
                certificates: Some(certs),
                levels: empty_levels(),
                advection_trace: Vec::new(),
                escape_certificates: Vec::new(),
                timings,
                verdict,
                failures,
                solve_stats: ledger.stats(),
                reduction: ledger.reduction(),
                resume: resume_of(&ckpt),
                advection_warm: Vec::new(),
                advection_warm_hits: 0,
            });
        };

        // ---- P2: bounded advection (Algorithm 1, piecewise fronts) ----
        opt.resilience.announce_stage(PipelineStage::Advection);
        let advection_span = stage_span("advection");
        let failures_before_advection = ledger.stats().failures;
        let t0 = Instant::now();
        let advector = Advection::new(self.system);
        let mut adv_opt = opt.advection.clone();
        if adv_opt.error_box.is_empty() {
            adv_opt.error_box = self.default_error_box();
        }
        let inc_opt = InclusionOptions {
            mult_half_degree: opt.inclusion_mult_half_degree,
            sos: sos.clone(),
        };
        let nmodes = self.system.modes().len();
        let mut pieces: Vec<Polynomial> = vec![self.initial.level().clone(); nmodes];
        let mut trace: Vec<AdvectionTraceEntry> = Vec::new();
        let mut advection_ok = false;
        let mut inclusion_seconds = 0.0;
        // Per-mode warm-start chain: each inclusion probe is seeded from
        // the previous step's final iterate for the same mode (advection by
        // exact composition preserves the SDP block structure step to
        // step). Active under checkpointing or when the caller injected
        // parameter-step seeds; plain runs keep their historical solve
        // trajectories. An injected seed only primes the chain's first
        // links — a wrong-shape seed is simply never accepted by the solver.
        let mut warm: Vec<Option<SdpSolution>> = match &opt.advection_seed {
            Some(seed) if seed.len() == nmodes => seed.clone(),
            _ => vec![None; nmodes],
        };
        let mut warm_hits: usize = 0;
        for k in 0..opt.max_advection_iters {
            let _step_span = opt
                .trace
                .as_ref()
                .map(|t| t.span(TraceLevel::Stage, "advection_step", format!("k={k}")));
            if let Some(c) = ckpt.as_mut() {
                if matches!(c.peek(), Some(StageRecord::AdvectionStep { .. })) {
                    let Some(StageRecord::AdvectionStep {
                        iter,
                        pieces: journaled_pieces,
                        taylor_error,
                        guard_mismatch,
                        included,
                        warm: journaled_warm,
                        ..
                    }) = c.take()
                    else {
                        unreachable!("peek said AdvectionStep");
                    };
                    replay_mark("advection");
                    if iter != k {
                        return Err(VerifyError::Checkpoint {
                            source: CheckpointError::Corrupt {
                                line: 0,
                                message: format!(
                                    "advection step {iter} journaled out of order \
                                     (expected step {k})"
                                ),
                            },
                        });
                    }
                    pieces = journaled_pieces;
                    warm = journaled_warm;
                    trace.push(AdvectionTraceEntry {
                        pieces: pieces.clone(),
                        taylor_error,
                        guard_mismatch,
                        included,
                    });
                    if included {
                        advection_ok = true;
                        break;
                    }
                    continue;
                }
            }
            let taylor_error = advector.estimate_taylor_error(&pieces[0], &adv_opt);
            pieces = advector.step_pieces(&pieces, &adv_opt);
            let guard_mismatch = advector.guard_mismatch(&pieces, &adv_opt);
            let ti = Instant::now();
            let margin = opt.inclusion_margin;
            // Always the seeded path, even on cold runs: with all-`None`
            // seeds it solves exactly like the plain check (the chaos CI
            // pins those digests equal) while capturing the final iterates,
            // which the report exports as warm-start seeds for parameter
            // sweeps.
            let before = warm_hits;
            let included = self.pieces_inside_ai_seeded(
                &pieces,
                &levels,
                margin,
                &inc_opt,
                &mut warm,
                &mut warm_hits,
            );
            if let Some(c) = ckpt.as_mut() {
                c.warm_started_solves += warm_hits - before;
            }
            inclusion_seconds += ti.elapsed().as_secs_f64();
            trace.push(AdvectionTraceEntry {
                pieces: pieces.clone(),
                taylor_error,
                guard_mismatch,
                included,
            });
            if let Some(c) = ckpt.as_mut() {
                c.record(StageRecord::AdvectionStep {
                    iter: k,
                    pieces: pieces.clone(),
                    taylor_error,
                    guard_mismatch,
                    included,
                    warm: warm.clone(),
                    ledger: snapshot(&ledger),
                })?;
            }
            if included {
                advection_ok = true;
                break;
            }
        }
        timings.push(StepTiming {
            name: "advection",
            seconds: t0.elapsed().as_secs_f64() - inclusion_seconds,
        });
        // Inclusion checking is booked separately (Table 2 reports it so).
        timings.push(StepTiming {
            name: "checking set inclusion",
            seconds: inclusion_seconds,
        });
        drop(advection_span);
        let final_included = advection_ok;
        let advection_failures = ledger.stats().failures - failures_before_advection;
        if !final_included && advection_failures > 0 {
            // Inclusion checks absorb solver errors into `false`; the
            // ledger delta tells us failures happened. Record them — escape
            // certificates may still rescue the run below.
            failures.push(FailureReport {
                stage: PipelineStage::Advection,
                detail: format!(
                    "{advection_failures} supervised solve(s) failed during \
                     advection/inclusion checking"
                ),
                attempts: Vec::new(),
            });
        }

        if final_included {
            return Ok(VerificationReport {
                certificates: Some(certs),
                levels,
                advection_trace: trace,
                escape_certificates: Vec::new(),
                timings,
                verdict: Verdict::Inevitable {
                    advection_sufficed: true,
                },
                failures,
                solve_stats: ledger.stats(),
                reduction: ledger.reduction(),
                resume: resume_of(&ckpt),
                advection_warm: warm,
                advection_warm_hits: warm_hits,
            });
        }

        // ---- Escape certificates for the leftover ----------------------
        // Per mode, the front piece must either be certified inside the AI
        // (Lemma-1 inclusion) or admit an escape certificate on the leftover
        // {frontᵢ ≤ 0} ∖ int(AI) ∩ Cᵢ. A grid emptiness test would not be a
        // certificate, so modes are never skipped without one of the two.
        opt.resilience.announce_stage(PipelineStage::Escape);
        let _escape_span = stage_span("escape");
        let t0 = Instant::now();
        let n = self.system.nstates();
        let mut escapes = Vec::new();
        let mut failed_mode: Option<usize> = None;
        let mut escape_numerical = false;
        for (mi, piece) in pieces.iter().enumerate() {
            if let Some(c) = ckpt.as_mut() {
                if matches!(c.peek(), Some(StageRecord::Escape { mode, .. }) if *mode == mi) {
                    let Some(StageRecord::Escape {
                        included,
                        certificate,
                        ..
                    }) = c.take()
                    else {
                        unreachable!("peek said Escape");
                    };
                    replay_mark("escape");
                    if !included {
                        if let Some(cert) = certificate {
                            escapes.push(cert);
                        }
                    }
                    continue;
                }
            }
            let ai = &levels.ai_polys[mi] + &Polynomial::constant(n, opt.inclusion_margin);
            let mut domain = self.boundary.clone();
            domain.extend(self.system.modes()[mi].flow_set().iter().cloned());
            if check_inclusion(piece, &ai, &domain, &inc_opt) {
                if let Some(c) = ckpt.as_mut() {
                    c.record(StageRecord::Escape {
                        mode: mi,
                        included: true,
                        certificate: None,
                        ledger: snapshot(&ledger),
                    })?;
                }
                continue; // this mode's piece is already inside the AI
            }
            let set = vec![
                piece.scale(-1.0),
                levels.ai_polys[mi].clone(), // Vᵢ − c ≥ 0 (outside the AI)
            ];
            match EscapeSynthesizer::new(self.system).synthesize(mi, &set, &opt.escape, &sos) {
                Ok(cert) => {
                    if let Some(c) = ckpt.as_mut() {
                        c.record(StageRecord::Escape {
                            mode: mi,
                            included: false,
                            certificate: Some(cert.clone()),
                            ledger: snapshot(&ledger),
                        })?;
                    }
                    escapes.push(cert);
                }
                Err(e) => {
                    if let VerifyError::Numerical { step, source } = &e {
                        escape_numerical = true;
                        failures.push(FailureReport {
                            stage: PipelineStage::Escape,
                            detail: format!("mode {mi}: {step}: {source}"),
                            attempts: source.attempts().to_vec(),
                        });
                    }
                    failed_mode = Some(mi);
                    break;
                }
            }
        }
        timings.push(StepTiming {
            name: "escape certificate",
            seconds: t0.elapsed().as_secs_f64(),
        });

        let verdict = if let Some(mi) = failed_mode {
            if escape_numerical {
                Verdict::Degraded {
                    stage: PipelineStage::Escape,
                    reason: format!(
                        "escape-certificate synthesis for mode {mi} failed \
                         numerically after exhausting retries"
                    ),
                }
            } else if advection_failures > 0 {
                Verdict::Degraded {
                    stage: PipelineStage::Advection,
                    reason: format!(
                        "inclusion checking was degraded by solver failures \
                         and no escape certificate of degree {} exists for \
                         mode {mi}",
                        opt.escape.degree
                    ),
                }
            } else {
                Verdict::Inconclusive {
                    reason: format!(
                        "advection did not immerse the front and no escape certificate \
                         of degree {} exists for mode {mi}",
                        opt.escape.degree
                    ),
                }
            }
        } else {
            Verdict::Inevitable {
                advection_sufficed: escapes.is_empty(),
            }
        };
        Ok(VerificationReport {
            certificates: Some(certs),
            levels,
            advection_trace: trace,
            escape_certificates: escapes,
            timings,
            verdict,
            failures,
            solve_stats: ledger.stats(),
            reduction: ledger.reduction(),
            resume: resume_of(&ckpt),
            advection_warm: warm,
            advection_warm_hits: warm_hits,
        })
    }

    /// Coordinate extents of the initial region, found by axis probing of
    /// its level polynomial. Shared by the advection error box and the
    /// Monte-Carlo validation sampling box.
    fn initial_extents(&self) -> Vec<f64> {
        let n = self.system.nstates();
        let p = self.initial.level();
        (0..n)
            .map(|i| {
                let mut extent = 0.1f64;
                for k in 1..200 {
                    let t = 0.05 * k as f64;
                    let mut x = vec![0.0; n];
                    x[i] = t;
                    let mut y = vec![0.0; n];
                    y[i] = -t;
                    if p.eval(&x) <= 0.0 || p.eval(&y) <= 0.0 {
                        extent = t;
                    }
                }
                extent
            })
            .collect()
    }

    /// Error-sampling box half-widths: the initial region's coordinate
    /// extents, inflated.
    fn default_error_box(&self) -> Vec<f64> {
        self.initial_extents().into_iter().map(|e| 1.25 * e).collect()
    }

    /// Monte-Carlo validation of a report's certified claims: samples
    /// `trials` initial states across the initial region's extents,
    /// simulates the hybrid system, and checks certificate monotonicity,
    /// AI entry, and final lock against the certificates the report
    /// carries. Returns `None` when the report holds no certificates to
    /// validate (a degraded run).
    pub fn validate(
        &self,
        report: &VerificationReport,
        trials: usize,
        seed: u64,
    ) -> Option<crate::validation::ValidationReport> {
        let certs = report.certificates.as_ref()?;
        let validator = crate::validation::Validator::new(self.system);
        Some(validator.validate(certs, &report.levels, &self.initial_extents(), trials, seed))
    }

    /// [`Self::pieces_inside_ai`] with a per-mode warm-start chain: each
    /// probe is seeded from the previous advection step's final iterate for
    /// the same mode (or, on the first step, from an injected
    /// [`PipelineOptions::advection_seed`]), and the iterate produced here
    /// (feasible or not) is stored back for the next step. Mode order and
    /// the stop-at-first-failure short-circuit match the unseeded path
    /// exactly; `warm_hits` counts the solves that accepted their seed.
    fn pieces_inside_ai_seeded(
        &self,
        pieces: &[Polynomial],
        levels: &LevelSetResult,
        margin: f64,
        inc_opt: &InclusionOptions,
        warm: &mut [Option<SdpSolution>],
        warm_hits: &mut usize,
    ) -> bool {
        let n = self.system.nstates();
        for mi in 0..self.system.modes().len() {
            let ai = &levels.ai_polys[mi] + &Polynomial::constant(n, margin);
            let mut domain = self.boundary.clone();
            domain.extend(self.system.modes()[mi].flow_set().iter().cloned());
            let probe =
                check_inclusion_seeded(&pieces[mi], &ai, &domain, inc_opt, warm[mi].as_ref());
            if probe.warm_started {
                *warm_hits += 1;
            }
            warm[mi] = probe.iterate;
            if !probe.included {
                return false;
            }
        }
        true
    }

}
