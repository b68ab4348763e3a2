//! End-to-end inevitability verification (`P = P1 ∧ P2`, Algorithm 1).

use std::time::Instant;

use cppll_hybrid::HybridSystem;
use cppll_json::{ObjectBuilder, Value};
use cppll_poly::Polynomial;
use cppll_sos::{
    check_inclusion, InclusionOptions, LedgerStats, Reduction, ReductionStats, SolveLedger,
    SosOptions,
};
use cppll_trace::{SpanNode, TraceLevel, Tracer};

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
    /// (support-driven multiplier bases, Newton-polytope basis pruning,
    /// term-sparsity blocks). On by default; [`Reduction::Off`] (CLI `--no-reduce`) reproduces
    /// the unreduced SDPs bit for bit.
    pub reduction: Reduction,
    /// Resilience of the run: per-solve retries, budgets, deadline and the
    /// fault-injection hook. Inert by default.
    pub resilience: ResilienceConfig,
    /// Crash-safe journaling and resume. `None` (the default) journals
    /// nothing. With a config, every completed stage is journaled under
    /// `<dir>/<run_id>/journal.jsonl`; with [`CheckpointConfig::resume`]
    /// set, an existing journal is replayed and completed stages are
    /// skipped.
    pub checkpoint: Option<CheckpointConfig>,
    /// Optional trace sink for the run. At [`TraceLevel::Stage`] the
    /// pipeline emits one span per stage (plus `advection_step` spans, an
    /// `inclusion` span in each fresh step, and `stage_replayed` markers on
    /// resume); [`step_times`] reads Table 2's rows from them. Deeper
    /// levels add supervisor and solver detail. Tracing never touches the
    /// numerics, so the result digest is identical at every level.
    pub trace: Option<Tracer>,
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
            reduction: Reduction::default(),
            resilience: ResilienceConfig::default(),
            checkpoint: None,
            trace: None,
        }
    }
}

/// The Table 2 row each stage span books into, in pipeline order.
const STEP_ROWS: [(PipelineStage, &str); 4] = [
    (PipelineStage::Lyapunov, "attractive invariant"),
    (PipelineStage::LevelSet, "max level curves"),
    (PipelineStage::Advection, "advection"),
    (PipelineStage::Escape, "escape certificate"),
];

/// The paper's Table 2 rows of one traced run, in nanoseconds, read from
/// the last root `pipeline` span of `forest` (a run traced at
/// [`TraceLevel::Stage`] or deeper). Each stage that ran gives its row;
/// the `inclusion` spans inside advection are split off into
/// "checking set inclusion". A last `unaccounted` row holds the `pipeline`
/// span minus its stage spans, so the rows sum to the `pipeline` span
/// exactly. Empty when `forest` holds no `pipeline` span.
pub fn step_times(forest: &[SpanNode]) -> Vec<(&'static str, u64)> {
    fn total_named(nodes: &[SpanNode], name: &str) -> u64 {
        nodes
            .iter()
            .map(|n| {
                if n.name == name {
                    n.duration_ns.unwrap_or(0)
                } else {
                    total_named(&n.children, name)
                }
            })
            .sum()
    }
    let Some(pipeline) = forest.iter().rev().find(|n| n.name == "pipeline") else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    let mut staged = 0;
    for node in &pipeline.children {
        let row = STEP_ROWS
            .iter()
            .find(|(stage, _)| stage.name() == node.name);
        let (Some(&(stage, row)), Some(ns)) = (row, node.duration_ns) else {
            continue;
        };
        staged += ns;
        if stage == PipelineStage::Advection {
            let inclusion = total_named(&node.children, "inclusion");
            rows.push((row, ns.saturating_sub(inclusion)));
            rows.push(("checking set inclusion", inclusion));
        } else {
            rows.push((row, ns));
        }
    }
    if let Some(ns) = pipeline.duration_ns {
        rows.push(("unaccounted", ns.saturating_sub(staged)));
    }
    rows
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

/// Everything the pipeline produced: certificates, levels, traces and the
/// verdict. Step timings live in the run's trace (see [`step_times`]).
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
    /// Final verdict.
    pub verdict: Verdict,
    /// Stage failures the pipeline degraded through (empty on a clean run).
    pub failures: Vec<FailureReport>,
    /// Aggregate supervised-solve statistics of the whole run.
    pub solve_stats: LedgerStats,
    /// Problem-size reduction totals across every compiled solve of the run
    /// (Gram bases before/after pruning, emitted block counts and sizes).
    pub reduction: ReductionStats,
    /// Checkpoint/resume bookkeeping: replayed vs fresh stage counts.
    /// All-zero (with no run id) when checkpointing was off.
    pub resume: ResumeSummary,
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
        self.verify_into(opt, &SolveLedger::new())
    }

    /// [`InevitabilityVerifier::verify`], counting every solve into
    /// `ledger`, which the caller still holds when the run ends in an
    /// error.
    pub(crate) fn verify_into(
        &self,
        opt: &PipelineOptions,
        ledger: &SolveLedger,
    ) -> Result<VerificationReport, VerifyError> {
        let run_deadline = opt.resilience.deadline.map(|d| Instant::now() + d);
        // The run's one SOS configuration: every stage's solves run under
        // the same supervisor, shared ledger and reduction.
        let sos = SosOptions {
            resilience: opt
                .resilience
                .to_sos(run_deadline, ledger, opt.trace.clone()),
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

        // Entering a stage announces it to the fault injector and opens its
        // span; the span's duration is the stage's row of Table 2 (see
        // [`step_times`]).
        let enter = |stage: PipelineStage| {
            opt.resilience.announce_stage(stage);
            opt.trace
                .as_ref()
                .map(|t| t.span(TraceLevel::Stage, stage.name(), String::new()))
        };
        // Takes the next journaled record when `want` accepts it. Each
        // replayed record leaves a `stage_replayed` marker, so the markers
        // mirror `ResumeSummary.stages_replayed`.
        let replay = |ckpt: &mut Option<Checkpointer>,
                      stage: PipelineStage,
                      want: &dyn Fn(&StageRecord) -> bool| {
            let record = ckpt.as_mut()?.take_if(want)?;
            if let Some(t) = &opt.trace {
                t.counter("stage_replayed", 1);
                t.instant(
                    TraceLevel::Stage,
                    "stage_replayed",
                    vec![("stage", stage.name().into())],
                );
            }
            Some(record)
        };

        // What the stages prove. Whichever stage ends the run, the report is
        // built from these once, below.
        let mut certificates: Option<LyapunovCertificates> = None;
        let mut levels: Option<LevelSetResult> = None;
        let mut advection_trace: Vec<AdvectionTraceEntry> = Vec::new();
        let mut escape_certificates: Vec<EscapeCertificate> = Vec::new();
        let mut failures: Vec<FailureReport> = Vec::new();

        let verdict = 'stages: {
            // ---- P1: attractive invariant --------------------------------
            let lyapunov_span = enter(PipelineStage::Lyapunov);
            let replayed = replay(&mut ckpt, PipelineStage::Lyapunov, &|r| {
                matches!(r, StageRecord::Lyapunov { .. })
            });
            let certs = if let Some(StageRecord::Lyapunov {
                vs,
                degree,
                epsilon,
                scheme,
                ..
            }) = replayed
            {
                LyapunovCertificates::from_parts(vs, degree, epsilon, scheme)
            } else {
                let synth = LyapunovSynthesizer::new(self.system);
                let certs = match synth.synthesize_auto(&opt.lyapunov, &sos) {
                    Ok(c) => c,
                    Err(e @ VerifyError::Infeasible { .. }) => return Err(e),
                    Err(e @ VerifyError::Checkpoint { .. }) => return Err(e),
                    Err(VerifyError::Numerical { step, source }) => {
                        failures.push(FailureReport {
                            stage: PipelineStage::Lyapunov,
                            detail: format!("{step}: {source}"),
                            attempts: source.attempts().to_vec(),
                        });
                        break 'stages Verdict::Degraded {
                            stage: PipelineStage::Lyapunov,
                            reason: "lyapunov synthesis failed numerically \
                                     after exhausting retries"
                                .into(),
                        };
                    }
                };
                if let Some(c) = ckpt.as_mut() {
                    c.record(StageRecord::Lyapunov {
                        vs: certs.all().to_vec(),
                        degree: certs.degree(),
                        epsilon: certs.epsilon(),
                        scheme: certs.scheme(),
                        ledger: snapshot(ledger),
                    })?;
                }
                certs
            };
            let certs = &*certificates.insert(certs);
            drop(lyapunov_span);

            let levelset_span = enter(PipelineStage::LevelSet);
            let failures_before_levels = ledger.stats().failures;
            let replayed = replay(&mut ckpt, PipelineStage::LevelSet, &|r| {
                matches!(r, StageRecord::LevelSet { .. })
            });
            let maximized = match replayed {
                Some(StageRecord::LevelSet {
                    level,
                    ai_polys,
                    probes,
                    ..
                }) => Some(LevelSetResult {
                    level,
                    ai_polys,
                    probes,
                }),
                _ => {
                    let maximizer = LevelSetMaximizer::new(self.system, self.boundary.clone());
                    let maximized = maximizer.maximize(certs, &opt.level, &sos);
                    if let (Some(c), Some(l)) = (ckpt.as_mut(), &maximized) {
                        c.record(StageRecord::LevelSet {
                            level: l.level,
                            ai_polys: l.ai_polys.clone(),
                            probes: l.probes,
                            ledger: snapshot(ledger),
                        })?;
                    }
                    maximized
                }
            };
            drop(levelset_span);
            let Some(maximized) = maximized else {
                let failed = ledger.stats().failures - failures_before_levels;
                if failed == 0 {
                    break 'stages Verdict::Inconclusive {
                        reason: "no level value could be certified".into(),
                    };
                }
                failures.push(FailureReport {
                    stage: PipelineStage::LevelSet,
                    detail: format!(
                        "{failed} supervised solve(s) failed during \
                         level-set maximisation"
                    ),
                    attempts: Vec::new(),
                });
                break 'stages Verdict::Degraded {
                    stage: PipelineStage::LevelSet,
                    reason: "level-set maximisation aborted on solver \
                             failures after exhausting retries"
                        .into(),
                };
            };
            let levels = &*levels.insert(maximized);

            // ---- P2: bounded advection (Algorithm 1, piecewise fronts) ----
            let advection_span = enter(PipelineStage::Advection);
            let failures_before_advection = ledger.stats().failures;
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
            for k in 0..opt.max_advection_iters {
                let _step_span = opt
                    .trace
                    .as_ref()
                    .map(|t| t.span(TraceLevel::Stage, "advection_step", format!("k={k}")));
                let replayed = replay(&mut ckpt, PipelineStage::Advection, &|r| {
                    matches!(r, StageRecord::AdvectionStep { .. })
                });
                if let Some(StageRecord::AdvectionStep {
                    iter,
                    pieces: journaled_pieces,
                    taylor_error,
                    guard_mismatch,
                    included,
                    ..
                }) = replayed
                {
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
                    advection_trace.push(AdvectionTraceEntry {
                        pieces: pieces.clone(),
                        taylor_error,
                        guard_mismatch,
                        included,
                    });
                    if included {
                        break;
                    }
                    continue;
                }
                let taylor_error = advector.estimate_taylor_error(&pieces[0], &adv_opt);
                pieces = advector.step_pieces(&pieces, &adv_opt);
                let guard_mismatch = advector.guard_mismatch(&pieces, &adv_opt);
                // The `inclusion` span is Table 2's "checking set inclusion"
                // row. Modes are checked in order, stopping at the first
                // piece outside the attractive invariant.
                let inclusion_span = opt
                    .trace
                    .as_ref()
                    .map(|t| t.span(TraceLevel::Stage, "inclusion", String::new()));
                let included = pieces.iter().enumerate().all(|(mi, piece)| {
                    self.piece_inside_ai(mi, piece, levels, opt.inclusion_margin, &inc_opt)
                });
                drop(inclusion_span);
                advection_trace.push(AdvectionTraceEntry {
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
                        ledger: snapshot(ledger),
                    })?;
                }
                if included {
                    break;
                }
            }
            drop(advection_span);
            // Each step ends the loop as soon as its front is included.
            if advection_trace.last().is_some_and(|e| e.included) {
                break 'stages Verdict::Inevitable {
                    advection_sufficed: true,
                };
            }
            let advection_failures = ledger.stats().failures - failures_before_advection;
            if advection_failures > 0 {
                // Inclusion checks absorb solver errors into `false`; the
                // ledger delta tells us failures happened. Record them —
                // escape certificates may still rescue the run below.
                failures.push(FailureReport {
                    stage: PipelineStage::Advection,
                    detail: format!(
                        "{advection_failures} supervised solve(s) failed during \
                         advection/inclusion checking"
                    ),
                    attempts: Vec::new(),
                });
            }

            // ---- Escape certificates for the leftover ----------------------
            // Per mode, the front piece must either be certified inside the
            // AI (Lemma-1 inclusion) or admit an escape certificate on the
            // leftover {frontᵢ ≤ 0} ∖ int(AI) ∩ Cᵢ. A grid emptiness test
            // would not be a certificate, so modes are never skipped without
            // one of the two.
            let _escape_span = enter(PipelineStage::Escape);
            let mut failed_mode: Option<usize> = None;
            let mut escape_numerical = false;
            for (mi, piece) in pieces.iter().enumerate() {
                let replayed = replay(
                    &mut ckpt,
                    PipelineStage::Escape,
                    &|r| matches!(r, StageRecord::Escape { mode, .. } if *mode == mi),
                );
                if let Some(StageRecord::Escape {
                    included,
                    certificate,
                    ..
                }) = replayed
                {
                    if !included {
                        escape_certificates.extend(certificate);
                    }
                    continue;
                }
                if self.piece_inside_ai(mi, piece, levels, opt.inclusion_margin, &inc_opt) {
                    if let Some(c) = ckpt.as_mut() {
                        c.record(StageRecord::Escape {
                            mode: mi,
                            included: true,
                            certificate: None,
                            ledger: snapshot(ledger),
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
                                ledger: snapshot(ledger),
                            })?;
                        }
                        escape_certificates.push(cert);
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

            match failed_mode {
                None => Verdict::Inevitable {
                    advection_sufficed: escape_certificates.is_empty(),
                },
                Some(mi) if escape_numerical => Verdict::Degraded {
                    stage: PipelineStage::Escape,
                    reason: format!(
                        "escape-certificate synthesis for mode {mi} failed \
                         numerically after exhausting retries"
                    ),
                },
                Some(mi) if advection_failures > 0 => Verdict::Degraded {
                    stage: PipelineStage::Advection,
                    reason: format!(
                        "inclusion checking was degraded by solver failures \
                         and no escape certificate of degree {} exists for \
                         mode {mi}",
                        opt.escape.degree
                    ),
                },
                Some(mi) => Verdict::Inconclusive {
                    reason: format!(
                        "advection did not immerse the front and no escape certificate \
                         of degree {} exists for mode {mi}",
                        opt.escape.degree
                    ),
                },
            }
        };

        Ok(VerificationReport {
            certificates,
            levels: levels.unwrap_or_default(),
            advection_trace,
            escape_certificates,
            verdict,
            failures,
            solve_stats: ledger.stats(),
            reduction: ledger.reduction(),
            resume: ckpt.as_ref().map(Checkpointer::summary).unwrap_or_default(),
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
        self.initial_extents()
            .into_iter()
            .map(|e| 1.25 * e)
            .collect()
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

    /// Lemma-1 check that mode `mi`'s front piece lies inside the
    /// attractive invariant shrunk by `margin`, on the mode's flow set
    /// within the verified region.
    fn piece_inside_ai(
        &self,
        mi: usize,
        piece: &Polynomial,
        levels: &LevelSetResult,
        margin: f64,
        inc_opt: &InclusionOptions,
    ) -> bool {
        let n = self.system.nstates();
        let ai = &levels.ai_polys[mi] + &Polynomial::constant(n, margin);
        let mut domain = self.boundary.clone();
        domain.extend(self.system.modes()[mi].flow_set().iter().cloned());
        check_inclusion(piece, &ai, &domain, inc_opt)
    }
}
