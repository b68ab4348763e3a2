//! Crash-safe run journal and resume for the verification pipeline.
//!
//! A checkpointed run writes each *completed* pipeline stage — the Lyapunov
//! certificates, the maximised level set, every advection step's front, and
//! each escape-stage mode outcome — to an append-only JSONL journal under
//! `<runs-dir>/<run-id>/journal.jsonl`.
//!
//! Each record line is *framed*: `{"crc":"<8 hex>","prev":"<16 hex>",`
//! `"payload":<record>}`, where `crc` is the CRC32 of the previous-record
//! hash plus the payload bytes and `prev` chains each record to the FNV-1a
//! hash of its predecessor's payload (the first record chains to the
//! problem fingerprint). The framing is what makes true O(1) appends safe:
//! a torn final line — the only damage an append-mode crash can cause — is
//! detected on resume and recovered by truncating back to the last valid
//! record ([`JournalRecovery`]), while damage *inside* the file (which no
//! crash of ours can produce) still fails loudly as
//! [`CheckpointError::Corrupt`]. The `--durability safe` knob additionally
//! fsyncs every append and the journal's directory, surviving power loss
//! and not just process death.
//!
//! The journal's header carries a fingerprint of the verification problem
//! (system, boundary, initial set, and the math-relevant pipeline options).
//! On resume the fingerprint must match — a journal from a different
//! problem or different options is rejected as [`CheckpointError::Stale`]
//! rather than silently replayed into a wrong report.
//!
//! Every stage record also snapshots the cumulative solve-ledger counts and
//! reduction totals at the instant it was written. Resume absorbs the last
//! snapshot into the fresh run's ledger, so a resumed report counts the
//! pre-crash work too and its totals equal an uninterrupted run's. Solver
//! timings are not journaled: they are per-process trace counters.
//!
//! Floating-point payloads round-trip bit-exactly through `cppll-json`
//! (shortest-round-trip formatting), which is what makes a resumed run's
//! certificates *bit-identical* to an uninterrupted run's: replay feeds the
//! exact same numbers into the exact same downstream arithmetic.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cppll_json::{decode, DecodeError, ObjectBuilder, ToJson, Value};
use cppll_poly::Polynomial;
use cppll_sdp::{FaultInjector, JournalFault};
use cppll_sos::{LedgerStats, Reduction, ReductionStats};

use crate::advection::AdvectionOptions;
use crate::escape::{EscapeCertificate, EscapeOptions};
use crate::levelset::LevelSetOptions;
use crate::lyapunov::{CertificateScheme, LyapunovOptions, RobustEncoding};
use crate::pipeline::PipelineOptions;
use crate::region::Region;
use crate::sweep::CellOutcome;

/// Journal format version (bumped on incompatible record changes).
/// Version 2 introduced per-record CRC32 framing and the prev-hash chain.
const JOURNAL_VERSION: u64 = 2;

/// How hard the journal tries to survive failures beyond process death.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Durability {
    /// Appends are flushed to the OS but not fsynced. Survives any process
    /// crash (the kernel owns the bytes); a machine-level power loss may
    /// lose the last few records, which resume then recomputes.
    #[default]
    Fast,
    /// Every append is fsynced, and atomic rewrites fsync both the file and
    /// its parent directory around the rename. Survives power loss at the
    /// cost of one fsync per completed stage.
    Safe,
}

impl Durability {
    /// Parses the CLI spelling (`fast` / `safe`).
    pub fn parse(name: &str) -> Option<Durability> {
        match name {
            "fast" => Some(Durability::Fast),
            "safe" => Some(Durability::Safe),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Durability::Fast => "fast",
            Durability::Safe => "safe",
        }
    }
}

/// Base directory for run journals when none is given: every front end
/// (`cppll` subcommands, the `cppll-serve` daemon) defaults to it.
pub const DEFAULT_RUNS_DIR: &str = "target/runs";

/// Where and how a pipeline run journals its progress.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Identifier of the run; the journal lives in `<dir>/<run_id>/`.
    pub run_id: String,
    /// Base directory for run journals.
    pub dir: PathBuf,
    /// Replay an existing journal for this run id instead of starting
    /// over. With `resume = false` an existing journal is truncated.
    pub resume: bool,
    /// Whether appends are fsynced (power-loss durability).
    pub durability: Durability,
}

impl CheckpointConfig {
    /// Checkpointing for a fresh run under [`DEFAULT_RUNS_DIR`].
    pub fn new(run_id: impl Into<String>) -> Self {
        CheckpointConfig {
            run_id: run_id.into(),
            dir: PathBuf::from(DEFAULT_RUNS_DIR),
            resume: false,
            durability: Durability::Fast,
        }
    }

    /// Overrides the base runs directory (builder style).
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = dir.into();
        self
    }

    /// Marks the run as a resume of an existing journal (builder style).
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Sets the durability level (builder style).
    #[must_use]
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Directory holding this run's artifacts.
    pub fn run_dir(&self) -> PathBuf {
        self.dir.join(&self.run_id)
    }

    /// Path of this run's journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.run_dir().join("journal.jsonl")
    }
}

/// Why a journal could not be written or replayed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the journal.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The journal exists but cannot be parsed back into records.
    Corrupt {
        /// 1-based journal line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The journal belongs to a different problem or different options.
    Stale {
        /// Fingerprint of the current problem.
        expected: String,
        /// Fingerprint recorded in the journal header.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "journal I/O failed at {}: {source}", path.display())
            }
            CheckpointError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            CheckpointError::Stale { expected, found } => write!(
                f,
                "journal is stale: problem fingerprint {expected} does not \
                 match journaled {found} (changed spec or options?)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Cumulative solve-ledger statistics at the instant a record was written.
/// Counts only: solver timings are per-process diagnostics carried by the
/// trace, and the `"timings"` key of older journals is ignored on decode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerSnapshot {
    /// Cumulative supervised-solve counts.
    pub stats: LedgerStats,
    /// Cumulative problem-reduction totals.
    pub reduction: ReductionStats,
}

impl ToJson for LedgerSnapshot {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("stats", self.stats)
            .field("reduction", self.reduction)
            .build()
    }
}

impl cppll_json::FromJson for LedgerSnapshot {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        Ok(LedgerSnapshot {
            stats: decode::required(v, "stats")?,
            // Journals written before problem reduction existed cannot be
            // resumed anyway (the fingerprint now covers the reduction
            // options), but stay lenient for hand-edited journals.
            reduction: decode::optional(v, "reduction")?.unwrap_or_default(),
        })
    }
}

fn scheme_name(s: CertificateScheme) -> &'static str {
    match s {
        CertificateScheme::Common => "common",
        CertificateScheme::Multiple => "multiple",
    }
}

fn parse_scheme(name: &str) -> Option<CertificateScheme> {
    match name {
        "common" => Some(CertificateScheme::Common),
        "multiple" => Some(CertificateScheme::Multiple),
        _ => None,
    }
}

impl ToJson for CertificateScheme {
    fn to_json(&self) -> Value {
        Value::String(scheme_name(*self).to_string())
    }
}

impl cppll_json::FromJson for CertificateScheme {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        let name = decode::string(v)?;
        parse_scheme(name)
            .ok_or_else(|| DecodeError::new(format!("unknown certificate scheme '{name}'")))
    }
}

impl ToJson for EscapeCertificate {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("e", &self.e)
            .field("mode", self.mode)
            .field("epsilon", self.epsilon)
            .build()
    }
}

impl cppll_json::FromJson for EscapeCertificate {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        Ok(EscapeCertificate {
            e: decode::required(v, "e")?,
            mode: decode::required(v, "mode")?,
            epsilon: decode::required(v, "epsilon")?,
        })
    }
}

/// One completed pipeline stage, exactly as journaled.
#[derive(Debug, Clone)]
pub enum StageRecord {
    /// The synthesised Lyapunov certificates (stage "lyapunov").
    Lyapunov {
        /// Per-mode certificates.
        vs: Vec<Polynomial>,
        /// Certificate degree.
        degree: u32,
        /// Synthesis margin.
        epsilon: f64,
        /// Certificate scheme.
        scheme: CertificateScheme,
        /// Cumulative ledger snapshot.
        ledger: LedgerSnapshot,
    },
    /// The maximised level set (stage "levelset").
    LevelSet {
        /// Certified level value.
        level: f64,
        /// Per-mode attractive-invariant polynomials `Vᵢ − c`.
        ai_polys: Vec<Polynomial>,
        /// SOS programs solved (`LevelSetResult::probes`).
        probes: usize,
        /// Cumulative ledger snapshot.
        ledger: LedgerSnapshot,
    },
    /// One advection step (stage "advection").
    AdvectionStep {
        /// 0-based step index.
        iter: usize,
        /// Advected front pieces after this step.
        pieces: Vec<Polynomial>,
        /// Taylor truncation error estimate.
        taylor_error: f64,
        /// Guard-consistency mismatch.
        guard_mismatch: f64,
        /// Whether the front was certified inside the AI after this step.
        included: bool,
        /// Cumulative ledger snapshot.
        ledger: LedgerSnapshot,
    },
    /// One escape-stage mode outcome (stage "escape").
    Escape {
        /// Mode index.
        mode: usize,
        /// `true` when the mode's piece was already inside the AI (no
        /// escape certificate needed).
        included: bool,
        /// The escape certificate, when one was synthesised.
        certificate: Option<EscapeCertificate>,
        /// Cumulative ledger snapshot.
        ledger: LedgerSnapshot,
    },
    /// One solved parameter-sweep cell (stage "sweep-cell") — the unit of
    /// resume for `cppll sweep` atlases. A sweep journal holds only these.
    SweepCell {
        /// Linear cell index (`iy·nx + ix`) in the sweep's full grid.
        cell: usize,
        /// What the cell solver returned; its ledger holds the cell's own
        /// totals, not the sweep's.
        outcome: CellOutcome,
    },
}

impl StageRecord {
    /// The cumulative ledger snapshot taken when the record was written.
    pub fn ledger(&self) -> &LedgerSnapshot {
        match self {
            StageRecord::Lyapunov { ledger, .. }
            | StageRecord::LevelSet { ledger, .. }
            | StageRecord::AdvectionStep { ledger, .. }
            | StageRecord::Escape { ledger, .. }
            | StageRecord::SweepCell {
                outcome: CellOutcome { ledger, .. },
                ..
            } => ledger,
        }
    }

    /// Stable record-type tag used in the journal.
    pub fn tag(&self) -> &'static str {
        match self {
            StageRecord::Lyapunov { .. } => "lyapunov",
            StageRecord::LevelSet { .. } => "levelset",
            StageRecord::AdvectionStep { .. } => "advection-step",
            StageRecord::Escape { .. } => "escape",
            StageRecord::SweepCell { .. } => "sweep-cell",
        }
    }
}

impl ToJson for StageRecord {
    fn to_json(&self) -> Value {
        let b = ObjectBuilder::new().field("record", self.tag());
        match self {
            StageRecord::Lyapunov {
                vs,
                degree,
                epsilon,
                scheme,
                ledger,
            } => b
                .field("vs", vs)
                .field("degree", *degree)
                .field("epsilon", *epsilon)
                .field("scheme", *scheme)
                .field("ledger", *ledger)
                .build(),
            StageRecord::LevelSet {
                level,
                ai_polys,
                probes,
                ledger,
            } => b
                .field("level", *level)
                .field("ai_polys", ai_polys)
                .field("probes", *probes)
                .field("ledger", *ledger)
                .build(),
            StageRecord::AdvectionStep {
                iter,
                pieces,
                taylor_error,
                guard_mismatch,
                included,
                ledger,
            } => b
                .field("iter", *iter)
                .field("pieces", pieces)
                .field("taylor_error", *taylor_error)
                .field("guard_mismatch", *guard_mismatch)
                .field("included", *included)
                .field("ledger", *ledger)
                .build(),
            StageRecord::Escape {
                mode,
                included,
                certificate,
                ledger,
            } => b
                .field("mode", *mode)
                .field("included", *included)
                .field("certificate", certificate)
                .field("ledger", *ledger)
                .build(),
            StageRecord::SweepCell { cell, outcome } => b
                .field("cell", *cell)
                .field("certified", outcome.certified)
                .field("digest", &outcome.digest)
                .field("reason", &outcome.reason)
                .field("fingerprint", outcome.fingerprint.as_str())
                .field("seconds", outcome.seconds)
                .field("ledger", outcome.ledger)
                .build(),
        }
    }
}

impl cppll_json::FromJson for StageRecord {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        let tag: String = decode::required(v, "record")?;
        match tag.as_str() {
            "lyapunov" => Ok(StageRecord::Lyapunov {
                vs: decode::required(v, "vs")?,
                degree: decode::required(v, "degree")?,
                epsilon: decode::required(v, "epsilon")?,
                scheme: decode::required(v, "scheme")?,
                ledger: decode::required(v, "ledger")?,
            }),
            "levelset" => Ok(StageRecord::LevelSet {
                level: decode::required(v, "level")?,
                ai_polys: decode::required(v, "ai_polys")?,
                probes: decode::required(v, "probes")?,
                ledger: decode::required(v, "ledger")?,
            }),
            "advection-step" => Ok(StageRecord::AdvectionStep {
                iter: decode::required(v, "iter")?,
                pieces: decode::required(v, "pieces")?,
                taylor_error: decode::required(v, "taylor_error")?,
                guard_mismatch: decode::required(v, "guard_mismatch")?,
                included: decode::required(v, "included")?,
                ledger: decode::required(v, "ledger")?,
            }),
            "escape" => Ok(StageRecord::Escape {
                mode: decode::required(v, "mode")?,
                included: decode::required(v, "included")?,
                certificate: decode::required(v, "certificate")?,
                ledger: decode::required(v, "ledger")?,
            }),
            "sweep-cell" => Ok(StageRecord::SweepCell {
                cell: decode::required(v, "cell")?,
                outcome: CellOutcome {
                    certified: decode::required(v, "certified")?,
                    digest: decode::required(v, "digest")?,
                    reason: decode::required(v, "reason")?,
                    fingerprint: decode::required(v, "fingerprint")?,
                    seconds: decode::required(v, "seconds")?,
                    ledger: decode::required(v, "ledger")?,
                },
            }),
            other => Err(DecodeError::new(format!(
                "unknown journal record type '{other}'"
            ))),
        }
    }
}

// ---- fingerprint --------------------------------------------------------

/// FNV-1a 64-bit hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex rendering of a fingerprint, as stored in journal headers.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Fingerprint of a verification problem: the hybrid system, the boundary
/// and initial set, and every field of [`PipelineOptions`] (degrees,
/// margins, step sizes, reduction) except the execution fields —
/// resilience, checkpointing and tracing — which change how a run
/// executes, not what it computes.
pub fn fingerprint(
    system: &cppll_hybrid::HybridSystem,
    boundary: &[Polynomial],
    initial: &Region,
    opt: &PipelineOptions,
) -> u64 {
    let modes: Vec<Value> = system
        .modes()
        .iter()
        .map(|m| {
            ObjectBuilder::new()
                .field("flow", m.flow())
                .field("flow_set", m.flow_set())
                .build()
        })
        .collect();
    let jumps: Vec<Value> = system
        .jumps()
        .iter()
        .map(|j| {
            ObjectBuilder::new()
                .field("from", j.from)
                .field("to", j.to)
                .field("guard", &j.guard)
                .field("guard_eq", &j.guard_eq)
                .field("reset", &j.reset)
                .build()
        })
        .collect();
    // Exhaustive destructuring, no `..`: a new option field fails to
    // compile here until it is either hashed or bound to `_` as
    // execution-only.
    let PipelineOptions {
        lyapunov,
        level,
        advection,
        escape,
        max_advection_iters,
        inclusion_margin,
        inclusion_mult_half_degree,
        reduction,
        resilience: _, // supervision
        checkpoint: _, // journaling
        trace: _,      // observability
    } = opt;
    let lyapunov = {
        let LyapunovOptions {
            degree,
            epsilon,
            multiplier_half_degree,
            scheme,
            robust,
        } = lyapunov;
        let robust = match robust {
            RobustEncoding::Vertices => "vertices",
            RobustEncoding::SProcedure => "s-procedure",
        };
        ObjectBuilder::new()
            .field("degree", *degree)
            .field("epsilon", *epsilon)
            .field("multiplier_half_degree", *multiplier_half_degree)
            .field("scheme", *scheme)
            .field("robust", robust)
            .build()
    };
    let level = {
        let LevelSetOptions { hi } = level;
        ObjectBuilder::new().field("hi", *hi).build()
    };
    let advection = {
        let AdvectionOptions {
            h,
            taylor_order,
            degree,
            gamma_tol,
            gamma_max,
            mult_half_degree,
            error_box,
            bounding,
        } = advection;
        ObjectBuilder::new()
            .field("h", *h)
            .field("taylor_order", *taylor_order)
            .field("degree", *degree)
            .field("gamma_tol", *gamma_tol)
            .field("gamma_max", *gamma_max)
            .field("mult_half_degree", *mult_half_degree)
            .field("error_box", error_box)
            .field("bounding", bounding)
            .build()
    };
    let escape = {
        let EscapeOptions {
            degree,
            epsilon,
            mult_half_degree,
        } = escape;
        ObjectBuilder::new()
            .field("degree", *degree)
            .field("epsilon", *epsilon)
            .field("mult_half_degree", *mult_half_degree)
            .build()
    };
    let reduction = {
        // Fixed keys and values: journals, cached certificates and atlas
        // digests embed these fingerprints.
        let (mode, prunes) = match reduction {
            Reduction::Support => ("support", true),
            Reduction::Off => ("legacy", false),
        };
        ObjectBuilder::new()
            .field("mode", mode)
            .field("newton", prunes)
            // The retired sign-symmetry layer, kept like `cone` below:
            // term sparsity reproduces its partitions, so what is
            // computed did not change.
            .field("symmetry", prunes)
            .field("term_sparsity", prunes)
            // The retired Gram-cone option, fixed at the only cone left.
            // Sweep atlases embed per-cell fingerprints in their digest,
            // so dropping the key would move every atlas digest (and
            // strand every journal and cached certificate) for no
            // change in what is computed.
            .field("cone", "sos")
            .build()
    };
    let doc = ObjectBuilder::new()
        .field("version", JOURNAL_VERSION)
        .field("nstates", system.nstates())
        .field("modes", modes)
        .field("jumps", jumps)
        .field("param_lo", system.params().lo())
        .field("param_hi", system.params().hi())
        .field("boundary", boundary)
        .field("initial_level", initial.level())
        .field("initial_side", initial.side())
        .field("lyapunov", lyapunov)
        .field("level", level)
        .field("advection", advection)
        .field("escape", escape)
        .field("max_advection_iters", *max_advection_iters)
        .field("reduction", reduction)
        .field("inclusion_margin", *inclusion_margin)
        .field("inclusion_mult_half_degree", *inclusion_mult_half_degree)
        .build();
    fnv1a(doc.to_compact_string().as_bytes())
}

// ---- record framing -----------------------------------------------------

/// CRC32 (IEEE, reflected, polynomial 0xEDB88320), computed bitwise — the
/// journal writes one line per completed SDP stage, so table-driven speed
/// would buy nothing.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

const FRAME_CRC: &[u8] = b"{\"crc\":\"";
const FRAME_PREV: &[u8] = b"\",\"prev\":\"";
const FRAME_PAYLOAD: &[u8] = b"\",\"payload\":";

/// Builds one framed journal line (without the trailing newline): the CRC
/// covers the prev-hash hex plus the raw payload bytes, so any bit flip in
/// either is caught, and the prev hash chains this record to its
/// predecessor's payload.
fn frame_line(prev: u64, payload: &str) -> String {
    let prev_hex = fingerprint_hex(prev);
    let mut crc_input = Vec::with_capacity(prev_hex.len() + payload.len());
    crc_input.extend_from_slice(prev_hex.as_bytes());
    crc_input.extend_from_slice(payload.as_bytes());
    let crc = crc32(&crc_input);
    format!(
        "{}{crc:08x}{}{prev_hex}{}{payload}}}",
        std::str::from_utf8(FRAME_CRC).expect("ascii"),
        std::str::from_utf8(FRAME_PREV).expect("ascii"),
        std::str::from_utf8(FRAME_PAYLOAD).expect("ascii"),
    )
}

/// Splits a framed line into (prev-hash hex, raw payload bytes) after
/// verifying the CRC. The frame is parsed positionally — the writer
/// controls the exact byte layout — so the payload is recovered as the
/// exact byte range the CRC was computed over, with no JSON round-trip in
/// between.
fn parse_frame(line: &[u8]) -> Result<(Vec<u8>, Vec<u8>), String> {
    let rest = line
        .strip_prefix(FRAME_CRC)
        .ok_or_else(|| "missing crc frame".to_string())?;
    if rest.len() < 8 + FRAME_PREV.len() + 16 + FRAME_PAYLOAD.len() + 1 {
        return Err("framed record truncated".to_string());
    }
    let (crc_hex, rest) = rest.split_at(8);
    let rest = rest
        .strip_prefix(FRAME_PREV)
        .ok_or_else(|| "missing prev frame".to_string())?;
    let (prev_hex, rest) = rest.split_at(16);
    let rest = rest
        .strip_prefix(FRAME_PAYLOAD)
        .ok_or_else(|| "missing payload frame".to_string())?;
    let payload = rest
        .strip_suffix(b"}")
        .ok_or_else(|| "unterminated framed record".to_string())?;
    let stored = std::str::from_utf8(crc_hex)
        .ok()
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| "unreadable crc".to_string())?;
    let mut crc_input = Vec::with_capacity(prev_hex.len() + payload.len());
    crc_input.extend_from_slice(prev_hex);
    crc_input.extend_from_slice(payload);
    let actual = crc32(&crc_input);
    if stored != actual {
        return Err(format!(
            "crc mismatch: stored {stored:08x}, computed {actual:08x}"
        ));
    }
    Ok((prev_hex.to_vec(), payload.to_vec()))
}

/// What resume found (and fixed) in a damaged journal tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Torn/corrupt trailing records dropped by truncate-and-continue.
    pub dropped_records: usize,
    /// Bytes truncated off the journal tail.
    pub dropped_bytes: u64,
}

impl JournalRecovery {
    /// Whether any recovery happened.
    pub fn recovered(&self) -> bool {
        self.dropped_records > 0 || self.dropped_bytes > 0
    }
}

// ---- the journal --------------------------------------------------------

/// The on-disk journal of one run: a header line plus one framed line per
/// completed stage record. Records are appended in place (O(1) per stage);
/// the CRC/chain framing plus resume-time tail recovery is what makes the
/// torn-write window of a plain append harmless. Header writes and
/// recovery truncations still go through an atomic temp-file rename.
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    /// FNV-1a hash of the last record's payload (the problem fingerprint
    /// when no records exist yet) — the `prev` link of the next record.
    chain: u64,
    durability: Durability,
    fault: Option<Arc<FaultInjector>>,
}

impl RunJournal {
    fn header_line(run_id: &str, fp: u64) -> String {
        ObjectBuilder::new()
            .field("record", "header")
            .field("version", JOURNAL_VERSION)
            .field("run_id", run_id)
            .field("fingerprint", fingerprint_hex(fp))
            .build()
            .to_compact_string()
    }

    /// Attaches a fault injector whose journal-append faults this journal
    /// honours (chaos testing).
    pub fn set_fault(&mut self, fault: Option<Arc<FaultInjector>>) {
        self.fault = fault;
    }

    /// Atomic whole-file write: temp file + rename. With
    /// [`Durability::Safe`], the temp file is fsynced before the rename and
    /// the parent directory after it, so the rename itself survives power
    /// loss.
    fn write_atomic(
        path: &Path,
        contents: &[u8],
        durability: Durability,
    ) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(contents).map_err(|e| io_err(&tmp, e))?;
            if durability == Durability::Safe {
                f.sync_all().map_err(|e| io_err(&tmp, e))?;
            }
        }
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        if durability == Durability::Safe {
            if let Some(parent) = path.parent() {
                let d = std::fs::File::open(parent).map_err(|e| io_err(parent, e))?;
                d.sync_all().map_err(|e| io_err(parent, e))?;
            }
        }
        Ok(())
    }

    fn fresh(config: &CheckpointConfig, fp: u64) -> Result<RunJournal, CheckpointError> {
        let path = config.journal_path();
        let mut body = Self::header_line(&config.run_id, fp);
        body.push('\n');
        Self::write_atomic(&path, body.as_bytes(), config.durability)?;
        Ok(RunJournal {
            path,
            chain: fp,
            durability: config.durability,
            fault: None,
        })
    }

    /// Opens the journal per the config: resuming parses and returns any
    /// journaled records (after validating header, fingerprint, CRCs, and
    /// the hash chain); not resuming truncates to a fresh header.
    ///
    /// A damaged *final* line — the only damage a crashed append can leave
    /// — is recovered by truncating back to the last valid record, reported
    /// in the returned [`JournalRecovery`]. Damage anywhere else is
    /// [`CheckpointError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures,
    /// [`CheckpointError::Corrupt`] on unrecoverable damage, and
    /// [`CheckpointError::Stale`] when the journaled fingerprint differs.
    pub fn open(
        config: &CheckpointConfig,
        fp: u64,
    ) -> Result<(RunJournal, Vec<StageRecord>, JournalRecovery), CheckpointError> {
        let dir = config.run_dir();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let path = config.journal_path();
        if !(config.resume && path.exists()) {
            return Ok((
                Self::fresh(config, fp)?,
                Vec::new(),
                JournalRecovery::default(),
            ));
        }

        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        // Non-blank lines with their byte ranges, so tail recovery can
        // truncate at an exact offset.
        let mut lines: Vec<(usize, &[u8])> = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                if bytes[start..i].iter().any(|&c| !c.is_ascii_whitespace()) {
                    lines.push((start, &bytes[start..i]));
                }
                start = i + 1;
            }
        }
        if start < bytes.len() && bytes[start..].iter().any(|&c| !c.is_ascii_whitespace()) {
            lines.push((start, &bytes[start..]));
        }
        if lines.is_empty() {
            // Empty file: treat as a fresh run.
            return Ok((
                Self::fresh(config, fp)?,
                Vec::new(),
                JournalRecovery::default(),
            ));
        }

        // Header line: corrupt headers are unrecoverable (there is nothing
        // valid to truncate back to).
        let header = std::str::from_utf8(lines[0].1)
            .ok()
            .and_then(|s| cppll_json::parse(s).ok())
            .ok_or_else(|| CheckpointError::Corrupt {
                line: 1,
                message: "unparseable header line".to_string(),
            })?;
        let tag = header.get("record").and_then(Value::as_str).unwrap_or("");
        if tag != "header" {
            return Err(CheckpointError::Corrupt {
                line: 1,
                message: format!("expected header record, found '{tag}'"),
            });
        }
        let found = header
            .get("fingerprint")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let expected = fingerprint_hex(fp);
        if found != expected {
            return Err(CheckpointError::Stale { expected, found });
        }

        // Framed records: walk the chain, stopping at the first bad line.
        let mut records = Vec::new();
        let mut chain = fp;
        let mut bad: Option<(usize, usize, String)> = None; // (line idx, offset, why)
        for (idx, &(offset, line)) in lines.iter().enumerate().skip(1) {
            let outcome = parse_frame(line).and_then(|(prev_hex, payload)| {
                if prev_hex != fingerprint_hex(chain).as_bytes() {
                    return Err(format!(
                        "hash chain broken: expected prev {}, found {}",
                        fingerprint_hex(chain),
                        String::from_utf8_lossy(&prev_hex)
                    ));
                }
                let text =
                    std::str::from_utf8(&payload).map_err(|e| format!("payload not utf-8: {e}"))?;
                let v = cppll_json::parse(text).map_err(|e| e.to_string())?;
                let rec: StageRecord =
                    cppll_json::FromJson::from_json(&v).map_err(|e| e.to_string())?;
                Ok((rec, fnv1a(&payload)))
            });
            match outcome {
                Ok((rec, next_chain)) => {
                    records.push(rec);
                    chain = next_chain;
                }
                Err(message) => {
                    bad = Some((idx, offset, message));
                    break;
                }
            }
        }

        let mut recovery = JournalRecovery::default();
        if let Some((idx, offset, message)) = bad {
            if idx + 1 < lines.len() {
                // Damage followed by more records: not a torn tail, and
                // silently dropping the suffix would replay a journal that
                // disagrees with what the dead run computed.
                return Err(CheckpointError::Corrupt {
                    line: idx + 1,
                    message,
                });
            }
            // Torn final line: truncate back to the valid prefix and carry
            // on — the dropped stage is simply recomputed.
            recovery.dropped_records = 1;
            recovery.dropped_bytes = (bytes.len() - offset) as u64;
            Self::write_atomic(&path, &bytes[..offset], config.durability)?;
        } else if bytes.last() != Some(&b'\n') {
            // All records valid but the trailing newline was torn off; add
            // it back so the next append starts a fresh line.
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            f.write_all(b"\n").map_err(|e| io_err(&path, e))?;
        }

        Ok((
            RunJournal {
                path,
                chain,
                durability: config.durability,
                fault: None,
            },
            records,
            recovery,
        ))
    }

    /// Appends a framed stage record in place.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures (including an
    /// injected `ENOSPC`).
    pub fn append(&mut self, record: &StageRecord) -> Result<(), CheckpointError> {
        let payload = record.to_json().to_compact_string();
        let mut line = frame_line(self.chain, &payload);
        line.push('\n');

        let fault = self.fault.as_ref().and_then(|f| f.poll_journal_append());
        if let Some(JournalFault::Enospc) = fault {
            return Err(io_err(&self.path, std::io::Error::from_raw_os_error(28)));
        }

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        if let Some(JournalFault::TornWrite { keep_bytes, then }) = fault {
            // Simulated power loss mid-append: persist only a prefix of the
            // framed line, make sure it is really on disk, then die.
            let keep = keep_bytes.min(line.len());
            f.write_all(&line.as_bytes()[..keep])
                .and_then(|_| f.sync_all())
                .map_err(|e| io_err(&self.path, e))?;
            drop(f);
            FaultInjector::die(then, "torn journal append");
        }
        f.write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, e))?;
        if self.durability == Durability::Safe {
            f.sync_data().map_err(|e| io_err(&self.path, e))?;
        }
        self.chain = fnv1a(payload.as_bytes());
        Ok(())
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---- certificate cache ---------------------------------------------------

/// One cached verification result, keyed by the problem fingerprint.
///
/// Stores only the *result summary* (digest, verdict), not certificates: a
/// cache hit answers "this exact problem was already verified, here is the
/// canonical digest" without replaying anything. The full journal remains in
/// the run directory named by `run_id` for audits and replays.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Problem fingerprint (16 hex digits), duplicated into the entry body
    /// so a misfiled entry is detected on lookup.
    pub fingerprint: String,
    /// Canonical result digest ([`VerificationReport::result_digest`]).
    ///
    /// [`VerificationReport::result_digest`]: crate::VerificationReport::result_digest
    pub digest: String,
    /// Whether the verdict certifies inevitability.
    pub verified: bool,
    /// Short verdict rendering (e.g. `"inevitable"`).
    pub verdict: String,
    /// Run id whose journal produced this result.
    pub run_id: String,
    /// Wall-clock seconds the producing run spent.
    pub elapsed_secs: f64,
}

impl ToJson for CacheEntry {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("record", "certificate-cache")
            .field("version", 1u64)
            .field("fingerprint", &self.fingerprint)
            .field("digest", &self.digest)
            .field("verified", self.verified)
            .field("verdict", &self.verdict)
            .field("run_id", &self.run_id)
            .field("elapsed_secs", self.elapsed_secs)
            .build()
    }
}

impl cppll_json::FromJson for CacheEntry {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        let tag: String = decode::required(v, "record")?;
        if tag != "certificate-cache" {
            return Err(DecodeError::new(format!(
                "expected certificate-cache record, found '{tag}'"
            )));
        }
        Ok(CacheEntry {
            fingerprint: decode::required(v, "fingerprint")?,
            digest: decode::required(v, "digest")?,
            verified: decode::required(v, "verified")?,
            verdict: decode::required(v, "verdict")?,
            run_id: decode::required(v, "run_id")?,
            elapsed_secs: decode::required(v, "elapsed_secs")?,
        })
    }
}

/// Monotonic discriminator for cache temp-file names, so two publishers in
/// the same process never share a temp path.
static CACHE_TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Filesystem-backed cache of verification results keyed by problem
/// fingerprint — one JSON file per fingerprint under a cache directory
/// (conventionally `<runs-dir>/cache/`).
///
/// Concurrency model: publishers write a *uniquely named* temp file and
/// `rename(2)` it over the entry. Renames are atomic, and two publishers of
/// the same fingerprint are writing byte-identical result summaries (the
/// digest is canonical), so last-write-wins leaves the entry bit-identical
/// no matter how the race resolves. Readers either see a complete old entry,
/// a complete new entry, or no entry — never a torn one.
#[derive(Debug, Clone)]
pub struct CertificateCache {
    dir: PathBuf,
    durability: Durability,
}

impl CertificateCache {
    /// A cache rooted at `dir` (created lazily on first publish).
    pub fn new(dir: impl Into<PathBuf>, durability: Durability) -> Self {
        CertificateCache {
            dir: dir.into(),
            durability,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file a fingerprint maps to.
    pub fn entry_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{}.json", fingerprint_hex(fp)))
    }

    /// Looks up a fingerprint. Unreadable, unparseable, or misfiled entries
    /// are treated as misses — the cache is advisory; the journals stay the
    /// source of truth.
    pub fn lookup(&self, fp: u64) -> Option<CacheEntry> {
        let text = std::fs::read_to_string(self.entry_path(fp)).ok()?;
        let v = cppll_json::parse(&text).ok()?;
        let entry: CacheEntry = cppll_json::FromJson::from_json(&v).ok()?;
        (entry.fingerprint == fingerprint_hex(fp)).then_some(entry)
    }

    /// Publishes an entry atomically (unique temp file + rename; with
    /// [`Durability::Safe`] the temp file is fsynced before the rename and
    /// the directory after it). An injected [`JournalFault::Enospc`] aborts
    /// the publish before any byte reaches the entry path, leaving prior
    /// entries untouched.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures (including the
    /// injected `ENOSPC`).
    pub fn publish(
        &self,
        fp: u64,
        entry: &CacheEntry,
        fault: Option<&FaultInjector>,
    ) -> Result<(), CheckpointError> {
        let path = self.entry_path(fp);
        if let Some(JournalFault::Enospc) = fault.and_then(|f| f.poll_journal_append()) {
            return Err(io_err(&path, std::io::Error::from_raw_os_error(28)));
        }
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        let seq = CACHE_TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{}.{}-{}.tmp",
            fingerprint_hex(fp),
            std::process::id(),
            seq
        ));
        let mut body = entry.to_json().to_compact_string();
        body.push('\n');
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(body.as_bytes()).map_err(|e| io_err(&tmp, e))?;
            if self.durability == Durability::Safe {
                f.sync_all().map_err(|e| io_err(&tmp, e))?;
            }
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        if self.durability == Durability::Safe {
            let d = std::fs::File::open(&self.dir).map_err(|e| io_err(&self.dir, e))?;
            d.sync_all().map_err(|e| io_err(&self.dir, e))?;
        }
        Ok(())
    }
}

// ---- pipeline-facing cursor ---------------------------------------------

/// How a checkpointed run went: replayed vs freshly computed stages.
/// Attached to the verification report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeSummary {
    /// The run id, when checkpointing was enabled.
    pub run_id: Option<String>,
    /// Stage records replayed from the journal instead of recomputed.
    pub stages_replayed: usize,
    /// Stage records computed (and journaled) in this process.
    pub stages_fresh: usize,
    /// Torn trailing journal records dropped by self-healing on resume.
    pub journal_recovered_records: usize,
}

/// Replay cursor plus journal writer threaded through a checkpointed
/// pipeline run.
pub(crate) struct Checkpointer {
    journal: RunJournal,
    replay: VecDeque<StageRecord>,
    run_id: String,
    pub stages_replayed: usize,
    pub stages_fresh: usize,
    /// What tail recovery dropped when the journal was opened.
    pub recovery: JournalRecovery,
}

impl Checkpointer {
    /// Opens (or resumes) the journal for a run, wiring the run's fault
    /// injector (if any) into journal appends.
    pub fn open(
        config: &CheckpointConfig,
        fp: u64,
        fault: Option<Arc<FaultInjector>>,
    ) -> Result<Self, CheckpointError> {
        let (mut journal, records, recovery) = RunJournal::open(config, fp)?;
        journal.set_fault(fault);
        Ok(Checkpointer {
            journal,
            replay: records.into(),
            run_id: config.run_id.clone(),
            stages_replayed: 0,
            stages_fresh: 0,
            recovery,
        })
    }

    /// The cumulative ledger snapshot of the last journaled record — the
    /// prior work a resumed ledger must absorb. `None` on a fresh journal.
    pub fn prior_snapshot(&self) -> Option<LedgerSnapshot> {
        self.replay.back().map(|r| *r.ledger())
    }

    /// Consumes the next record to replay when `want` accepts it.
    pub fn take_if(&mut self, want: impl FnOnce(&StageRecord) -> bool) -> Option<StageRecord> {
        if !want(self.replay.front()?) {
            return None;
        }
        self.stages_replayed += 1;
        self.replay.pop_front()
    }

    /// Journals a freshly computed record.
    pub fn record(&mut self, rec: StageRecord) -> Result<(), CheckpointError> {
        self.stages_fresh += 1;
        self.journal.append(&rec)
    }

    /// The summary attached to the final report.
    pub fn summary(&self) -> ResumeSummary {
        ResumeSummary {
            run_id: Some(self.run_id.clone()),
            stages_replayed: self.stages_replayed,
            stages_fresh: self.stages_fresh,
            journal_recovered_records: self.recovery.dropped_records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_config(name: &str, resume: bool) -> CheckpointConfig {
        let dir = std::env::temp_dir().join("cppll-checkpoint-tests");
        CheckpointConfig {
            run_id: name.to_string(),
            dir,
            resume,
            durability: Durability::Fast,
        }
    }

    fn sample_record() -> StageRecord {
        StageRecord::LevelSet {
            level: 0.125,
            ai_polys: vec![Polynomial::from_terms(
                2,
                &[(&[2, 0], 1.0), (&[0, 2], 1.0), (&[0, 0], -0.125)],
            )],
            probes: 17,
            ledger: LedgerSnapshot {
                stats: LedgerStats {
                    solves: 3,
                    attempts: 4,
                    retries: 1,
                    failures: 0,
                },
                reduction: ReductionStats {
                    grams: 2,
                    basis_before: 12,
                    basis_after: 9,
                    blocks: 4,
                    max_block: 5,
                    ..Default::default()
                },
            },
        }
    }

    #[test]
    fn journal_round_trips_records() {
        let cfg = tmp_config("round-trip", false);
        let (mut j, replayed, _) = RunJournal::open(&cfg, 0xabcd).unwrap();
        assert!(replayed.is_empty());
        j.append(&sample_record()).unwrap();

        let cfg = tmp_config("round-trip", true);
        let (_, replayed, recovery) = RunJournal::open(&cfg, 0xabcd).unwrap();
        assert!(!recovery.recovered());
        assert_eq!(replayed.len(), 1);
        match &replayed[0] {
            StageRecord::LevelSet {
                level,
                ai_polys,
                probes,
                ledger,
            } => {
                assert_eq!(level.to_bits(), 0.125f64.to_bits());
                assert_eq!(ai_polys.len(), 1);
                assert_eq!(*probes, 17);
                assert_eq!(ledger.stats.attempts, 4);
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn stale_fingerprint_is_rejected() {
        let cfg = tmp_config("stale", false);
        let (mut j, _, _) = RunJournal::open(&cfg, 1).unwrap();
        j.append(&sample_record()).unwrap();
        let cfg = tmp_config("stale", true);
        match RunJournal::open(&cfg, 2) {
            Err(CheckpointError::Stale { expected, found }) => {
                assert_eq!(expected, fingerprint_hex(2));
                assert_eq!(found, fingerprint_hex(1));
            }
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    /// The problem key of the third-order PLL, pinned: a moved key strands
    /// every journal and cached certificate and moves the atlas digest.
    #[test]
    fn third_order_pll_fingerprint_is_pinned() {
        let model = cppll_pll::PllModelBuilder::new(cppll_pll::PllOrder::Third).build();
        let verifier = crate::InevitabilityVerifier::for_pll(&model);
        let mut opt = PipelineOptions::degree(4);
        let key = |opt: &PipelineOptions| fingerprint_hex(verifier.problem_fingerprint(opt));
        assert_eq!(key(&opt), "7b90b89972070db8");
        opt.reduction = Reduction::Off;
        assert_eq!(key(&opt), "d87216e40fa18d4f");
    }

    #[test]
    fn non_resume_open_truncates() {
        let cfg = tmp_config("truncate", false);
        let (mut j, _, _) = RunJournal::open(&cfg, 7).unwrap();
        j.append(&sample_record()).unwrap();
        let (_, replayed, _) = RunJournal::open(&cfg, 7).unwrap();
        assert!(replayed.is_empty(), "resume=false must start over");
    }

    #[test]
    fn mid_file_corruption_is_reported_with_line() {
        let cfg = tmp_config("corrupt", false);
        let (mut j, _, _) = RunJournal::open(&cfg, 7).unwrap();
        let path = j.path().to_path_buf();
        j.append(&sample_record()).unwrap();
        j.append(&sample_record()).unwrap();
        // Flip one payload byte of the FIRST record: the damage is followed
        // by a further record, so this is not a torn tail and must fail.
        let mut bytes = std::fs::read(&path).unwrap();
        let line2_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let target = line2_start + 80;
        bytes[target] = bytes[target].wrapping_add(1);
        std::fs::write(&path, bytes).unwrap();
        let cfg = tmp_config("corrupt", true);
        match RunJournal::open(&cfg, 7) {
            Err(CheckpointError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn torn_final_line_is_recovered_by_truncation() {
        let cfg = tmp_config("torn-tail", false);
        let (mut j, _, _) = RunJournal::open(&cfg, 9).unwrap();
        let path = j.path().to_path_buf();
        j.append(&sample_record()).unwrap();
        j.append(&sample_record()).unwrap();
        // Tear the final record: chop the last 11 bytes, as a crash mid-
        // append would.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 11).unwrap();
        drop(f);

        let cfg = tmp_config("torn-tail", true);
        let (mut j, replayed, recovery) = RunJournal::open(&cfg, 9).unwrap();
        assert_eq!(replayed.len(), 1, "the intact first record survives");
        assert_eq!(recovery.dropped_records, 1);
        assert!(recovery.dropped_bytes > 0);

        // The healed journal accepts appends and round-trips again.
        j.append(&sample_record()).unwrap();
        let cfg = tmp_config("torn-tail", true);
        let (_, replayed, recovery) = RunJournal::open(&cfg, 9).unwrap();
        assert_eq!(replayed.len(), 2);
        assert!(!recovery.recovered());
    }

    #[test]
    fn chain_tampering_on_the_tail_is_recovered() {
        // A valid-CRC record whose prev hash does not chain to its
        // predecessor (e.g. a record spliced in from another run) is
        // rejected; on the tail that means truncate-and-continue.
        let cfg = tmp_config("chain-tamper", false);
        let (mut j, _, _) = RunJournal::open(&cfg, 11).unwrap();
        let path = j.path().to_path_buf();
        j.append(&sample_record()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Re-frame the same payload with a wrong prev link (CRC still
        // valid for that wrong prev).
        let payload = sample_record().to_json().to_compact_string();
        let forged = frame_line(0xdeadbeef, &payload);
        let mut out = bytes.clone();
        out.extend_from_slice(forged.as_bytes());
        out.push(b'\n');
        std::fs::write(&path, out).unwrap();

        let cfg = tmp_config("chain-tamper", true);
        let (_, replayed, recovery) = RunJournal::open(&cfg, 11).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(recovery.dropped_records, 1);
    }

    #[test]
    fn injected_enospc_fails_the_append_but_leaves_the_journal_valid() {
        let cfg = tmp_config("enospc", false);
        let (mut j, _, _) = RunJournal::open(&cfg, 13).unwrap();
        j.set_fault(Some(Arc::new(FaultInjector::new(
            cppll_sdp::FaultPlan::new().fault_journal_append(1, JournalFault::Enospc),
        ))));
        j.append(&sample_record()).unwrap();
        match j.append(&sample_record()) {
            Err(CheckpointError::Io { source, .. }) => {
                assert_eq!(source.raw_os_error(), Some(28), "ENOSPC");
            }
            other => panic!("expected injected ENOSPC, got {other:?}"),
        }
        // The journal on disk is untouched by the failed append.
        let cfg = tmp_config("enospc", true);
        let (_, replayed, recovery) = RunJournal::open(&cfg, 13).unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(!recovery.recovered());
    }

    #[test]
    fn injected_torn_write_dies_and_recovers_on_resume() {
        let cfg = tmp_config("torn-inject", false);
        let (mut j, _, _) = RunJournal::open(&cfg, 17).unwrap();
        j.append(&sample_record()).unwrap();
        j.set_fault(Some(Arc::new(FaultInjector::new(
            cppll_sdp::FaultPlan::new().fault_journal_append(
                0,
                JournalFault::TornWrite {
                    keep_bytes: 23,
                    then: cppll_sdp::CrashMode::Panic,
                },
            ),
        ))));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = j.append(&sample_record());
        }));
        assert!(died.is_err(), "torn write must kill the process");

        let cfg = tmp_config("torn-inject", true);
        let (_, replayed, recovery) = RunJournal::open(&cfg, 17).unwrap();
        assert_eq!(replayed.len(), 1, "only the intact record replays");
        assert_eq!(recovery.dropped_records, 1);
        assert_eq!(recovery.dropped_bytes, 23);
    }

    #[test]
    fn safe_durability_round_trips() {
        let mut cfg = tmp_config("safe", false);
        cfg.durability = Durability::Safe;
        let (mut j, _, _) = RunJournal::open(&cfg, 19).unwrap();
        j.append(&sample_record()).unwrap();
        let mut cfg = tmp_config("safe", true);
        cfg.durability = Durability::Safe;
        let (_, replayed, _) = RunJournal::open(&cfg, 19).unwrap();
        assert_eq!(replayed.len(), 1);
    }

    #[test]
    fn durability_parses_cli_spellings() {
        assert_eq!(Durability::parse("fast"), Some(Durability::Fast));
        assert_eq!(Durability::parse("safe"), Some(Durability::Safe));
        assert_eq!(Durability::parse("paranoid"), None);
        assert_eq!(Durability::Safe.name(), "safe");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_advection_step(ledger: LedgerSnapshot) -> StageRecord {
        StageRecord::AdvectionStep {
            iter: 3,
            pieces: vec![Polynomial::from_terms(1, &[(&[2], 1.0), (&[0], -0.5)])],
            taylor_error: 5e-324,
            guard_mismatch: -0.0,
            included: false,
            ledger,
        }
    }

    #[test]
    fn escape_and_advection_records_round_trip_bit_exactly() {
        let rec = sample_advection_step(LedgerSnapshot::default());
        let text = rec.to_json().to_compact_string();
        let back: StageRecord =
            cppll_json::FromJson::from_json(&cppll_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_compact_string(), text);
        match back {
            StageRecord::AdvectionStep {
                taylor_error,
                guard_mismatch,
                ..
            } => {
                assert_eq!(guard_mismatch.to_bits(), (-0.0f64).to_bits());
                assert_eq!(taylor_error.to_bits(), 5e-324f64.to_bits());
            }
            other => panic!("wrong record: {other:?}"),
        }

        let esc = StageRecord::Escape {
            mode: 1,
            included: false,
            certificate: Some(EscapeCertificate {
                e: Polynomial::from_terms(2, &[(&[1, 0], -1.0)]),
                mode: 1,
                epsilon: 1e-3,
            }),
            ledger: LedgerSnapshot::default(),
        };
        let text = esc.to_json().to_compact_string();
        let back: StageRecord =
            cppll_json::FromJson::from_json(&cppll_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_compact_string(), text);
    }

    // ---- journals written by older versions ------------------------------

    /// The `"timings"` object older journals wrote into every ledger
    /// snapshot, as their codec printed it.
    const OLD_TIMINGS: &str = r#"{"reduction":0.0012,"residuals":0.0105,"schur_symbolic":0.0009,"factorizations":0.021,"schur_assembly":0.31,"kkt_factor":0.12,"kkt_solve":0.05,"line_search":0.04,"total":0.56,"schur_pairs_skipped":120,"step_tests":44,"step_eigensolves":7}"#;

    /// A final SDP iterate as journals with warm starts wrote it into the
    /// `"warm"` arrays of advection-step and sweep-cell records.
    const OLD_WARM_ITERATE: &str = r#"{"status":"optimal","x":[{"nrows":2,"ncols":2,"data":[1.5,0.25,0.25,2.0]}],"free":[-0.0],"y":[2.5,-1.0],"s":[{"nrows":2,"ncols":2,"data":[3.0,0.0,0.0,3.0]}],"primal_objective":1.0,"dual_objective":0.999999999,"primal_infeasibility":5e-324,"dual_infeasibility":0.0,"gap":1e-9,"iterations":12,"warm_started":true}"#;

    /// Puts `key: value` into `obj` before the key `before`, where the older
    /// codecs wrote it. Returns whether `obj` was an object.
    fn insert_old_key(obj: &mut Value, before: &str, key: &str, value: &str) -> bool {
        let Value::Object(fields) = obj else {
            return false;
        };
        let at = fields
            .iter()
            .position(|(k, _)| k == before)
            .unwrap_or(fields.len());
        fields.insert(at, (key.into(), cppll_json::parse(value).unwrap()));
        true
    }

    /// Puts the older `"timings"` into a record's ledger snapshot.
    fn with_old_timings(record: &mut Value) {
        let Value::Object(fields) = record else {
            panic!("record is an object")
        };
        let (_, ledger) = fields
            .iter_mut()
            .find(|(k, _)| k == "ledger")
            .expect("every record carries a ledger");
        assert!(insert_old_key(ledger, "reduction", "timings", OLD_TIMINGS));
    }

    /// Rewrites a record into the format of journals with warm starts:
    /// a `"warm"` array of iterates on advection steps, and
    /// `"warm_hits"`, `"seed_from"` and `"warm"` on sweep cells. Returns
    /// whether the record was one of the two.
    fn with_old_warm_keys(record: &mut Value) -> bool {
        let warm = format!("[{OLD_WARM_ITERATE},null]");
        match record.get("record").and_then(Value::as_str) {
            Some("advection-step") => insert_old_key(record, "ledger", "warm", &warm),
            Some("sweep-cell") => {
                insert_old_key(record, "seconds", "warm_hits", "1")
                    && insert_old_key(record, "seconds", "seed_from", "0")
                    && insert_old_key(record, "seconds", "warm", &warm)
            }
            _ => false,
        }
    }

    /// Rewrites every record payload of the journal at `path` with
    /// `rewrite`, re-framing the hash chain. Returns how many records there
    /// are and how many `rewrite` reported as changed.
    fn rewrite_journal(path: &Path, mut rewrite: impl FnMut(&mut Value) -> bool) -> (usize, usize) {
        let text = std::fs::read_to_string(path).unwrap();
        let mut lines = text.lines();
        let mut out = format!("{}\n", lines.next().unwrap());
        let mut chain = None;
        let (mut records, mut changed) = (0, 0);
        for line in lines {
            let (prev_hex, payload) = parse_frame(line.as_bytes()).unwrap();
            let prev = chain.unwrap_or_else(|| {
                u64::from_str_radix(std::str::from_utf8(&prev_hex).unwrap(), 16).unwrap()
            });
            let mut record = cppll_json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
            changed += usize::from(rewrite(&mut record));
            let payload = record.to_compact_string();
            out.push_str(&frame_line(prev, &payload));
            out.push('\n');
            chain = Some(fnv1a(payload.as_bytes()));
            records += 1;
        }
        std::fs::write(path, out).unwrap();
        (records, changed)
    }

    #[test]
    fn records_with_old_keys_still_decode() {
        let StageRecord::LevelSet { ledger, .. } = sample_record() else {
            unreachable!()
        };
        let old = format!(
            r#"{{"stats":{},"timings":{OLD_TIMINGS},"reduction":{}}}"#,
            ledger.stats.to_json().to_compact_string(),
            ledger.reduction.to_json().to_compact_string()
        );
        let back: LedgerSnapshot =
            cppll_json::FromJson::from_json(&cppll_json::parse(&old).unwrap()).unwrap();
        assert_eq!(back, ledger);

        let rec = sample_advection_step(ledger);
        let text = rec.to_json().to_compact_string();
        let mut old = rec.to_json();
        with_old_timings(&mut old);
        assert!(with_old_warm_keys(&mut old));
        let old = old.to_compact_string();
        assert!(old.contains(r#""timings":{"reduction":0.0012"#), "{old}");
        assert!(old.contains(r#""warm":[{"status":"optimal""#), "{old}");
        let back: StageRecord =
            cppll_json::FromJson::from_json(&cppll_json::parse(&old).unwrap()).unwrap();
        // Everything but the old keys survives, bit for bit.
        assert_eq!(back.to_json().to_compact_string(), text);
    }

    /// The toy two-mode spiral of `cppll schema`, at degree 2.
    fn toy_spec() -> crate::spec::SystemSpec {
        crate::spec::SystemSpec::from_json_str(
            r#"{
              "states": 2,
              "modes": [
                {"name": "right", "flow": ["-1 x0 + 1 x1", "-1 x0 - 1 x1"], "flow_set": ["x0"]},
                {"name": "left",  "flow": ["-1 x0 + 0.5 x1", "-0.5 x0 - 1 x1"], "flow_set": ["-1 x0"]}
              ],
              "jumps": [
                {"from": 0, "to": 1, "guard_eq": ["x0"]},
                {"from": 1, "to": 0, "guard_eq": ["x0"]}
              ],
              "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
              "initial_radii": [2.0, 2.0],
              "degree": 2
            }"#,
        )
        .unwrap()
    }

    /// A complete journal in an older format resumes, replays every stage,
    /// and lands on the uninterrupted run's digest and solve counts.
    fn assert_old_journal_replays(name: &str, mut rewrite: impl FnMut(&mut Value) -> bool) {
        let spec = toy_spec();
        let run = |checkpoint: Option<CheckpointConfig>| {
            let mut opt = PipelineOptions::degree(2);
            opt.checkpoint = checkpoint;
            spec.with_verifier(|v| v.verify(&opt).unwrap()).unwrap()
        };
        let plain = run(None);
        let cfg = tmp_config(name, false);
        run(Some(cfg.clone()));
        let (records, changed) = rewrite_journal(&cfg.journal_path(), &mut rewrite);
        assert!(changed > 0, "no record was rewritten");

        let resumed = run(Some(tmp_config(name, true)));
        assert_eq!(resumed.result_digest(), plain.result_digest());
        assert_eq!(resumed.resume.stages_replayed, records);
        assert_eq!(resumed.resume.stages_fresh, 0);
        assert_eq!(resumed.solve_stats, plain.solve_stats);
    }

    /// Journals written before timings left the ledger.
    #[test]
    fn journal_with_old_timings_replays_to_the_same_digest() {
        assert_old_journal_replays("old-timings", |record| {
            with_old_timings(record);
            true
        });
    }

    /// Journals written while advection solves were warm-started: every
    /// advection step carries its final inclusion iterates.
    #[test]
    fn journal_with_old_warm_iterates_replays_to_the_same_digest() {
        assert_old_journal_replays("old-warm", with_old_warm_keys);
    }

    /// A sweep journal written while cells were seeded from their
    /// neighbours resumes every cell and lands on the same atlas.
    #[test]
    fn sweep_journal_with_old_warm_keys_resumes_to_the_same_atlas() {
        use crate::sweep::{run_sweep, SweepAxis, SweepOptions, SweepSpec};
        let axis = |name: &str, min: f64, max: f64, cells: usize| SweepAxis {
            name: name.into(),
            min,
            max,
            cells,
        };
        let spec = SweepSpec {
            axes: vec![axis("a", -1.0, -0.5, 2), axis("b", -1.5, -1.5, 1)],
            bisect: false,
            ..SweepSpec::example()
        };
        let run = |checkpoint: Option<CheckpointConfig>| {
            let opt = SweepOptions {
                checkpoint,
                ..SweepOptions::default()
            };
            run_sweep(&spec, &opt).unwrap()
        };
        let plain = run(None);
        let cfg = tmp_config("old-warm-sweep", false);
        run(Some(cfg.clone()));
        let (records, changed) = rewrite_journal(&cfg.journal_path(), with_old_warm_keys);
        assert_eq!((records, changed), (2, 2));

        let resumed = run(Some(tmp_config("old-warm-sweep", true)));
        assert_eq!(resumed.counters.cells_replayed, 2);
        assert_eq!(resumed.digest(), plain.digest());
    }

    // ---- certificate cache ----------------------------------------------

    fn cache_scratch(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cppll-cache-tests").join(test);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cache_entry(fp: u64, run_id: &str) -> CacheEntry {
        CacheEntry {
            fingerprint: fingerprint_hex(fp),
            digest: "c31e1167d4a9bf69".into(),
            verified: true,
            verdict: "inevitable".into(),
            run_id: run_id.into(),
            elapsed_secs: 1.25,
        }
    }

    #[test]
    fn cache_round_trips_and_misses_on_misfiled_entries() {
        let cache = CertificateCache::new(cache_scratch("roundtrip"), Durability::Fast);
        let fp = 0x1234_5678_9abc_def0u64;
        assert!(cache.lookup(fp).is_none());
        cache.publish(fp, &cache_entry(fp, "job-1"), None).unwrap();
        let entry = cache.lookup(fp).unwrap();
        assert_eq!(entry.digest, "c31e1167d4a9bf69");
        assert!(entry.verified);
        assert_eq!(entry.run_id, "job-1");

        // An entry filed under the wrong fingerprint is a miss, not a lie.
        let other = fp + 1;
        std::fs::copy(cache.entry_path(fp), cache.entry_path(other)).unwrap();
        assert!(cache.lookup(other).is_none());

        // Corrupt JSON is a miss too.
        std::fs::write(cache.entry_path(fp), "{broken").unwrap();
        assert!(cache.lookup(fp).is_none());
    }

    #[test]
    fn racing_publishes_of_the_same_fingerprint_end_bit_identical() {
        for durability in [Durability::Fast, Durability::Safe] {
            let cache = std::sync::Arc::new(CertificateCache::new(
                cache_scratch(&format!("race-{}", durability.name())),
                durability,
            ));
            let fp = 0xfeed_beef_0000_0001u64;
            let workers: Vec<_> = (0..8)
                .map(|i| {
                    let cache = std::sync::Arc::clone(&cache);
                    std::thread::spawn(move || {
                        // Same fingerprint, same payload, different writers:
                        // exactly the shape of two workers finishing the same
                        // spec concurrently.
                        for _ in 0..25 {
                            cache
                                .publish(fp, &cache_entry(fp, "job-racer"), None)
                                .unwrap();
                        }
                        i
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            let entry = cache.lookup(fp).expect("entry must survive the race");
            assert_eq!(
                entry.to_json().to_compact_string(),
                cache_entry(fp, "job-racer").to_json().to_compact_string(),
                "last-write-wins of byte-identical entries must be bit-identical"
            );
            // No temp-file litter left behind.
            let stray: Vec<_> = std::fs::read_dir(cache.dir())
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
                .collect();
            assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        }
    }

    #[test]
    fn enospc_mid_publish_leaves_prior_entry_intact() {
        let cache = CertificateCache::new(cache_scratch("enospc"), Durability::Safe);
        let fp = 0xdead_0000_0000_0002u64;
        cache
            .publish(fp, &cache_entry(fp, "job-first"), None)
            .unwrap();

        let fault = FaultInjector::new(
            cppll_sdp::FaultPlan::new().fault_journal_append(0, JournalFault::Enospc),
        );
        let second = cache_entry(fp, "job-second");
        match cache.publish(fp, &second, Some(&fault)) {
            Err(CheckpointError::Io { source, .. }) => {
                assert_eq!(source.raw_os_error(), Some(28), "ENOSPC");
            }
            other => panic!("expected injected ENOSPC, got {other:?}"),
        }

        // The injected failure must not have touched the published entry.
        let entry = cache.lookup(fp).unwrap();
        assert_eq!(entry.run_id, "job-first");

        // Once the fault clears, publishing works again.
        cache.publish(fp, &second, Some(&fault)).unwrap();
        assert_eq!(cache.lookup(fp).unwrap().run_id, "job-second");
    }
}
