//! `cppll` — command-line inevitability verifier.
//!
//! ```text
//! cppll verify <system.json>     run the inevitability pipeline on a spec
//! cppll pll <3|4> [degree]       run the built-in CP PLL benchmarks
//! cppll sweep <sweep.json>       certify a 1D/2D parameter grid (atlas)
//! cppll schema [sweep]           print an annotated example (sweep) spec
//! cppll serve                    run the verification daemon (cppll-serve)
//! cppll submit <spec|pll ...>    submit a job to a running daemon
//! cppll status [job]             query a running daemon
//! cppll runs gc                  apply retention GC to the runs directory
//! ```
//!
//! Sweep flags (`sweep` only):
//!
//! ```text
//! --out <dir>              write atlas.json, atlas.canonical.json and
//!                          contour.json under <dir>
//! --via <host:port>        solve cells on a running cppll-serve daemon
//!                          instead of in-process (no warm-start seeding)
//! --no-bisect              solve every grid cell (no adaptive bisection)
//! --coarse <n>             initial lattice stride in cells (default auto)
//! --resolution <n>         stop refining disagreeing rectangles at this
//!                          size (default 1)
//! --sweep-crash-after <n>  exit(3) after journaling n fresh cells (testing)
//! ```
//!
//! Resilience flags (both `verify` and `pll`):
//!
//! ```text
//! --retries <n>            retries per solve on transient failures (default 2)
//! --solve-timeout <secs>   wall-clock budget per solve attempt
//! --deadline <secs>        wall-clock budget for the whole pipeline
//! --threads <n>            SDP solver worker threads (0 = auto, default 0)
//! ```
//!
//! Durability flags (both `verify` and `pll`):
//!
//! ```text
//! --run-id <id>            journal completed stages under target/runs/<id>
//! --resume <id>            resume a journaled run, replaying finished stages
//! --runs-dir <dir>         base directory for run journals (default target/runs)
//! --durability <mode>      fast | safe — safe fsyncs every journal append
//! --inject-crash <stage>:<n>  exit(3) at the n-th solve of a stage (testing)
//! --inject-stall <stage>:<n>  hang forever at the n-th solve of a stage (testing)
//! ```
//!
//! Validation flags (both `verify` and `pll`):
//!
//! ```text
//! --validate <trials>      after verifying, Monte-Carlo check the certified
//!                          claims on <trials> simulated trajectories; exit 2
//!                          when a certified claim is violated
//! ```
//!
//! Isolation flags (both `verify` and `pll`):
//!
//! ```text
//! --isolate                re-run this command in a supervised worker process
//!                          with heartbeat, watchdog, and kill-and-resume
//! --watchdog <secs>        kill the worker when its stdout is silent this long
//! --stall-timeout <secs>   kill the worker when its journal stops advancing
//! --heartbeat <ms>         worker heartbeat interval (default 500)
//! --max-rss <mb>           kill the worker when its RSS exceeds this ceiling
//! --max-restarts <n>       restarts before giving up (default 3)
//! --chaos-kill-after <n>   chaos test: kill the worker after n heartbeats,
//!                          doubling the allowance after every kill
//! --chaos-corrupt-tail <bytes>  chaos test: chop bytes off the journal tail
//!                          after every chaos kill
//! ```
//!
//! Reduction flags (both `verify` and `pll`):
//!
//! ```text
//! --no-reduce              solve the unreduced SDPs (skip Newton-polytope
//!                          basis pruning and sign-symmetry block splitting)
//! --reduce-mode <m>        support | legacy multiplier-basis derivation
//!                          (default support; legacy is the escape hatch)
//! ```
//!
//! Tracing flags (both `verify` and `pll`):
//!
//! ```text
//! --trace-level <level>    off | stage | solve | iter (default off; tracing
//!                          never changes results — digests are identical at
//!                          every level)
//! --trace-out <dir>        write trace.jsonl, trace.chrome.json, and
//!                          metrics.prom under <dir> (implies
//!                          --trace-level solve unless one is given)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cppll_bench::contour::grid_verdict_boundary;
use cppll_cli::{run_inevitability_validated, SystemSpec};
use cppll_harness::{
    run_supervised, ChaosPlan, HarnessError, HarnessOptions, HeartbeatEmitter, WorkerSpec,
};
use cppll_json::{ObjectBuilder, ToJson, Value};
use cppll_pll::{PllModelBuilder, PllOrder};
use cppll_verify::{
    run_sweep, run_sweep_with, Atlas, CellOutcome, CellProblem, CheckpointConfig, CrashMode,
    Durability, EventKind, FaultInjector, FaultPlan, InevitabilityVerifier, PipelineOptions,
    ReduceMode, ReductionOptions, Region, ResilienceConfig, SweepSpec, TraceLevel,
    Tracer, ValidationReport, VerificationReport,
};

/// Seed of the `--validate` Monte-Carlo sampler: fixed, so validation runs
/// are reproducible.
const VALIDATE_SEED: u64 = 42;

const EXAMPLE_SPEC: &str = r#"{
  "states": 2,
  "modes": [
    {"name": "right", "flow": ["-1 x0 + 1 x1", "-1 x0 - 1 x1"], "flow_set": ["x0"]},
    {"name": "left",  "flow": ["-1 x0 + 0.5 x1", "-0.5 x0 - 1 x1"], "flow_set": ["-1 x0"]}
  ],
  "jumps": [
    {"from": 0, "to": 1, "guard_eq": ["x0"]},
    {"from": 1, "to": 0, "guard_eq": ["x0"]}
  ],
  "params": {"lo": [], "hi": []},
  "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
  "initial_radii": [2.0, 2.0],
  "degree": 2
}"#;

/// Example sweep spec printed by `cppll schema sweep`: the two-state toy
/// with a `$a`-controlled first coordinate — certified exactly on the left
/// half of the grid, so the bisection chases one vertical boundary. Matches
/// `SweepSpec::example()`.
const EXAMPLE_SWEEP: &str = r#"{
  "target": {
    "kind": "spec",
    "spec": {
      "states": 2,
      "modes": [
        {"name": "flow", "flow": ["$a x0", "-1 x1 + $b x1"]}
      ],
      "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
      "initial_radii": [2.0, 2.0],
      "degree": 2
    }
  },
  "axes": [
    {"name": "a", "min": -1.0, "max": 1.0, "cells": 21},
    {"name": "b", "min": -1.5, "max": -0.5, "cells": 21}
  ],
  "bisect": true
}"#;

fn print_report(report: &VerificationReport) {
    println!("verdict: {:?}", report.verdict);
    println!("attractive invariant level c* = {:.6}", report.levels.level);
    println!(
        "advection: {} iterations, included after {:?}",
        report.advection_iterations(),
        report.included_after()
    );
    println!("escape certificates: {}", report.escape_certificates.len());
    println!("solves: {}", report.solve_stats);
    for f in &report.failures {
        println!("failure: {f}");
        for a in &f.attempts {
            println!("  {}", a.log_line());
        }
    }
    println!("timings:");
    for t in &report.timings {
        println!("  {:<26} {:>9.2}s", t.name, t.seconds);
    }
    if report.reduction.grams > 0 {
        println!("reduction: {}", report.reduction);
        if let Some(d) = report.reduction.detail() {
            println!("  {d}");
        }
    }
    let tm = &report.solve_timings;
    if tm.total > 0.0 {
        println!("solver stages ({} threads):", cppll_par::current_threads());
        for line in tm.report_lines() {
            println!("  {line}");
        }
    }
    println!("result digest: {}", report.result_digest());
    if let Some(run_id) = &report.resume.run_id {
        println!(
            "run {run_id}: {} stage(s) replayed from journal, {} computed fresh, \
             {} warm-started solve(s)",
            report.resume.stages_replayed,
            report.resume.stages_fresh,
            report.resume.warm_started_solves,
        );
        if report.resume.journal_recovered_records > 0 {
            println!(
                "  journal self-healed: {} torn record(s) dropped on open",
                report.resume.journal_recovered_records
            );
        }
    }
}

/// Prints the Monte-Carlo validation block.
fn print_validation(v: &ValidationReport) {
    println!("validation ({} trials, seed {VALIDATE_SEED}):", v.trials);
    println!("  certificate monotone:   {}/{}", v.monotone, v.trials);
    println!("  reached invariant:      {}/{}", v.reached_ai, v.trials);
    println!("  phase-locked:           {}/{}", v.locked, v.trials);
    println!("  worst increase:         {:.3e}", v.worst_increase);
    println!(
        "  verdict: {}",
        if v.all_passed() {
            "all certified claims held"
        } else {
            "CERTIFIED CLAIM VIOLATED"
        }
    );
}

/// Exit code for a completed run: `0` only when the pipeline verified the
/// claim *and* any requested Monte-Carlo validation upheld it; `2` when
/// the verdict is not-verified or a certified claim was violated.
fn verdict_exit(report: &VerificationReport, validation: Option<&ValidationReport>) -> ExitCode {
    let validated = validation.is_none_or(ValidationReport::all_passed);
    if report.verdict.is_verified() && validated {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Tracing-related command-line options.
#[derive(Default)]
struct TraceFlags {
    out: Option<String>,
    level: Option<TraceLevel>,
}

impl TraceFlags {
    /// The effective recording level: an explicit `--trace-level` wins;
    /// `--trace-out` alone defaults to `solve`.
    fn effective_level(&self) -> TraceLevel {
        match self.level {
            Some(l) => l,
            None if self.out.is_some() => TraceLevel::Solve,
            None => TraceLevel::Off,
        }
    }

    /// The tracer these flags describe, `None` when tracing is off.
    fn tracer(&self) -> Option<Tracer> {
        match self.effective_level() {
            TraceLevel::Off => None,
            level => Some(Tracer::new(level)),
        }
    }
}

/// Prints the `telemetry:` report block and writes the trace files when
/// `--trace-out` was given.
fn emit_telemetry(tracer: Option<&Tracer>, out: Option<&str>) {
    let Some(t) = tracer else { return };
    let events = t.events();
    let spans = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Begin { .. }))
        .count();
    let iterations = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Instant { .. }) && e.name() == "iteration")
        .count();
    println!("telemetry:");
    println!("  level: {}", t.level().as_str());
    println!("  events: {} ({} spans, {} solver iterations)", events.len(), spans, iterations);
    for (name, total) in t.counter_totals() {
        println!("  {name}: {total}");
    }
    if let Some(dir) = out {
        match t.write_all(std::path::Path::new(dir)) {
            Ok(paths) => {
                for p in paths {
                    println!("  wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("cannot write trace files under {dir}: {e}"),
        }
    }
}

/// Durability-related command-line options.
#[derive(Default)]
struct DurabilityFlags {
    run_id: Option<String>,
    resume: Option<String>,
    runs_dir: Option<String>,
    durability: Option<Durability>,
    inject_crash: Option<(String, usize)>,
    inject_stall: Option<(String, usize)>,
}

impl DurabilityFlags {
    /// The checkpoint configuration these flags describe (if any).
    fn checkpoint(&self) -> Result<Option<CheckpointConfig>, String> {
        if self.run_id.is_some() && self.resume.is_some() {
            return Err("--run-id and --resume are mutually exclusive".into());
        }
        let config = match (&self.run_id, &self.resume) {
            (Some(id), None) => Some(CheckpointConfig::new(id.clone())),
            (None, Some(id)) => Some(CheckpointConfig::new(id.clone()).resuming()),
            (None, None) => None,
            (Some(_), Some(_)) => unreachable!(),
        };
        Ok(config.map(|c| {
            let c = match &self.runs_dir {
                Some(dir) => c.with_dir(dir.clone()),
                None => c,
            };
            match self.durability {
                Some(d) => c.with_durability(d),
                None => c,
            }
        }))
    }

    /// Installs the fault injector on `config` when `--inject-crash` or
    /// `--inject-stall` was given. A crash exits with code 3 at the
    /// requested solve; a stall hangs forever there (only the harness stall
    /// watchdog can recover it). Both leave the journal behind for
    /// `--resume`.
    fn arm(&self, config: &mut ResilienceConfig) {
        let mut plan = FaultPlan::default();
        let mut armed = false;
        if let Some((stage, nth)) = &self.inject_crash {
            plan = plan.crash_at_stage_solve(stage.clone(), *nth, CrashMode::Exit(3));
            armed = true;
        }
        if let Some((stage, nth)) = &self.inject_stall {
            plan = plan.crash_at_stage_solve(stage.clone(), *nth, CrashMode::Hang);
            armed = true;
        }
        if armed {
            config.fault = Some(Arc::new(FaultInjector::new(plan)));
        }
    }
}

/// Isolation / supervision command-line options.
#[derive(Default)]
struct HarnessFlags {
    isolate: bool,
    watchdog: Option<Duration>,
    stall_timeout: Option<Duration>,
    heartbeat_ms: Option<u64>,
    max_rss_mb: Option<u64>,
    max_restarts: Option<usize>,
    chaos_kill_after: Option<u64>,
    chaos_corrupt_tail: Option<u64>,
    /// Hidden worker-side flag: emit heartbeats at this interval. Set by
    /// the supervisor on the worker command line, never by hand.
    worker_heartbeat_ms: Option<u64>,
}

/// Service command-line options (`serve`, `submit`, `status`, `runs gc`).
#[derive(Default)]
struct ServeFlags {
    /// `serve`: bind address.
    addr: Option<String>,
    /// `serve`: worker threads.
    workers: Option<usize>,
    /// `serve`: job queue capacity.
    queue_cap: Option<usize>,
    /// `serve`: circuit-breaker threshold.
    breaker_threshold: Option<u32>,
    /// `serve`: seconds suggested in `Retry-After` on 429/503.
    retry_after: Option<u64>,
    /// `serve`/`runs gc`: retention max age in seconds.
    gc_max_age_secs: Option<f64>,
    /// `serve`/`runs gc`: retention keep-newest budget.
    gc_keep: Option<usize>,
    /// `serve`: disable the certificate cache.
    no_cache: bool,
    /// `submit`/`status`: daemon address to talk to.
    server: Option<String>,
    /// `submit`: poll until the job is terminal.
    wait: bool,
    /// `runs gc`: report without deleting.
    dry_run: bool,
}

/// Sweep command-line options (`sweep` only).
#[derive(Default)]
struct SweepFlags {
    /// Write atlas + contour artefacts under this directory.
    out: Option<String>,
    /// Solve cells on a running daemon instead of in-process.
    via: Option<String>,
    /// Disable adaptive bisection (solve every cell).
    no_bisect: bool,
    /// Override the initial lattice stride.
    coarse: Option<usize>,
    /// Override the refinement stop size.
    resolution: Option<usize>,
    /// Test hook: exit(3) after journaling this many fresh cells.
    crash_after: Option<usize>,
}

/// Default daemon bind/connect address.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7171";

/// Parsed command line: positionals plus every flag group.
struct ParsedArgs {
    positional: Vec<String>,
    resilience: ResilienceConfig,
    durability: DurabilityFlags,
    reduction: ReductionOptions,
    trace: TraceFlags,
    harness: HarnessFlags,
    serve: ServeFlags,
    sweep: SweepFlags,
    validate: Option<usize>,
}

/// Extracts every `--flag value` pair from `args`, returning the remaining
/// positional arguments and the flag groups.
fn parse_flags(args: &[String]) -> Result<ParsedArgs, String> {
    fn seconds(flag: &str, v: &str) -> Result<Duration, String> {
        let secs: f64 = v
            .parse()
            .map_err(|_| format!("{flag}: not a number of seconds: {v}"))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!(
                "{flag}: must be a non-negative number of seconds: {v}"
            ));
        }
        Ok(Duration::from_secs_f64(secs))
    }
    fn stage_solve(flag: &str, v: &str) -> Result<(String, usize), String> {
        let (stage, nth) = v
            .rsplit_once(':')
            .ok_or_else(|| format!("{flag}: expected <stage>:<n>, got {v}"))?;
        let nth: usize = nth
            .parse()
            .map_err(|_| format!("{flag}: not a solve index: {nth}"))?;
        Ok((stage.to_string(), nth))
    }
    fn count<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: not a count: {v}"))
    }
    let mut config = ResilienceConfig::default();
    let mut durability = DurabilityFlags::default();
    let mut reduction = ReductionOptions::default();
    let mut trace = TraceFlags::default();
    let mut harness = HarnessFlags::default();
    let mut serve = ServeFlags::default();
    let mut sweep = SweepFlags::default();
    let mut validate = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--retries" => {
                let v = value_of("--retries")?;
                config.retries = v
                    .parse()
                    .map_err(|_| format!("--retries: not a count: {v}"))?;
            }
            "--solve-timeout" => {
                config.solve_timeout =
                    Some(seconds("--solve-timeout", value_of("--solve-timeout")?)?);
            }
            "--deadline" => {
                config.deadline = Some(seconds("--deadline", value_of("--deadline")?)?);
            }
            "--threads" => {
                let v = value_of("--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads: not a count: {v}"))?;
                cppll_par::set_threads(n);
            }
            "--run-id" => durability.run_id = Some(value_of("--run-id")?.to_string()),
            "--resume" => durability.resume = Some(value_of("--resume")?.to_string()),
            "--runs-dir" => durability.runs_dir = Some(value_of("--runs-dir")?.to_string()),
            "--durability" => {
                let v = value_of("--durability")?;
                durability.durability = Some(Durability::parse(v).ok_or_else(|| {
                    format!("--durability: expected fast|safe, got {v}")
                })?);
            }
            "--inject-crash" => {
                durability.inject_crash =
                    Some(stage_solve("--inject-crash", value_of("--inject-crash")?)?);
            }
            "--inject-stall" => {
                durability.inject_stall =
                    Some(stage_solve("--inject-stall", value_of("--inject-stall")?)?);
            }
            "--validate" => {
                validate = Some(count("--validate", value_of("--validate")?)?);
            }
            "--isolate" => harness.isolate = true,
            "--watchdog" => {
                harness.watchdog = Some(seconds("--watchdog", value_of("--watchdog")?)?);
            }
            "--stall-timeout" => {
                harness.stall_timeout =
                    Some(seconds("--stall-timeout", value_of("--stall-timeout")?)?);
            }
            "--heartbeat" => {
                harness.heartbeat_ms = Some(count("--heartbeat", value_of("--heartbeat")?)?);
            }
            "--max-rss" => {
                harness.max_rss_mb = Some(count("--max-rss", value_of("--max-rss")?)?);
            }
            "--max-restarts" => {
                harness.max_restarts =
                    Some(count("--max-restarts", value_of("--max-restarts")?)?);
            }
            "--chaos-kill-after" => {
                harness.chaos_kill_after =
                    Some(count("--chaos-kill-after", value_of("--chaos-kill-after")?)?);
            }
            "--chaos-corrupt-tail" => {
                harness.chaos_corrupt_tail =
                    Some(count("--chaos-corrupt-tail", value_of("--chaos-corrupt-tail")?)?);
            }
            "--worker-heartbeat" => {
                harness.worker_heartbeat_ms =
                    Some(count("--worker-heartbeat", value_of("--worker-heartbeat")?)?);
            }
            "--addr" => serve.addr = Some(value_of("--addr")?.to_string()),
            "--workers" => serve.workers = Some(count("--workers", value_of("--workers")?)?),
            "--queue-cap" => {
                serve.queue_cap = Some(count("--queue-cap", value_of("--queue-cap")?)?);
            }
            "--breaker-threshold" => {
                serve.breaker_threshold = Some(count(
                    "--breaker-threshold",
                    value_of("--breaker-threshold")?,
                )?);
            }
            "--retry-after" => {
                serve.retry_after = Some(count("--retry-after", value_of("--retry-after")?)?);
            }
            "--gc-max-age" => {
                serve.gc_max_age_secs =
                    Some(seconds("--gc-max-age", value_of("--gc-max-age")?)?.as_secs_f64());
            }
            "--gc-keep" => serve.gc_keep = Some(count("--gc-keep", value_of("--gc-keep")?)?),
            "--no-cache" => serve.no_cache = true,
            "--server" => serve.server = Some(value_of("--server")?.to_string()),
            "--wait" => serve.wait = true,
            "--dry-run" => serve.dry_run = true,
            "--out" => sweep.out = Some(value_of("--out")?.to_string()),
            "--via" => sweep.via = Some(value_of("--via")?.to_string()),
            "--no-bisect" => sweep.no_bisect = true,
            "--coarse" => sweep.coarse = Some(count("--coarse", value_of("--coarse")?)?),
            "--resolution" => {
                sweep.resolution = Some(count("--resolution", value_of("--resolution")?)?);
            }
            "--sweep-crash-after" => {
                sweep.crash_after =
                    Some(count("--sweep-crash-after", value_of("--sweep-crash-after")?)?);
            }
            "--no-reduce" => reduction = ReductionOptions::none(),
            "--reduce-mode" => {
                let v = value_of("--reduce-mode")?;
                reduction.mode = ReduceMode::parse(v)
                    .ok_or_else(|| format!("--reduce-mode: expected support|legacy, got {v}"))?;
            }
            "--trace-out" => trace.out = Some(value_of("--trace-out")?.to_string()),
            "--trace-level" => {
                let v = value_of("--trace-level")?;
                trace.level = Some(TraceLevel::parse(v).ok_or_else(|| {
                    format!("--trace-level: expected off|stage|solve|iter, got {v}")
                })?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            other => positional.push(other.to_string()),
        }
    }
    Ok(ParsedArgs {
        positional,
        resilience: config,
        durability,
        reduction,
        trace,
        harness,
        serve,
        sweep,
        validate,
    })
}

/// Flags that belong to the supervisor only and must be stripped from the
/// worker's command line. `true` means the flag takes a value.
const SUPERVISOR_FLAGS: &[(&str, bool)] = &[
    ("--isolate", false),
    ("--watchdog", true),
    ("--stall-timeout", true),
    ("--heartbeat", true),
    ("--max-rss", true),
    ("--max-restarts", true),
    ("--chaos-kill-after", true),
    ("--chaos-corrupt-tail", true),
];

/// Flags stripped from restart (resume) command lines: an injected fault
/// simulates a one-time environmental failure — replaying it on every
/// resume would turn a chaos test into a livelock.
const ONE_SHOT_FLAGS: &[(&str, bool)] = &[("--inject-crash", true), ("--inject-stall", true)];

/// Removes `drop` flags (and their values) from an argument list.
fn strip_flags(args: &[String], drop: &[(&str, bool)]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match drop.iter().find(|(name, _)| name == arg) {
            Some((_, true)) => {
                let _ = it.next();
            }
            Some((_, false)) => {}
            None => out.push(arg.clone()),
        }
    }
    out
}

/// Runs this same command line in a supervised worker process
/// (`--isolate`): heartbeat liveness watchdog, journal-mtime stall
/// detection, RSS ceiling, and kill-and-resume through the run journal.
fn supervise(raw: &[String], parsed: &ParsedArgs) -> ExitCode {
    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--isolate: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let h = &parsed.harness;
    let d = &parsed.durability;

    // The worker needs a journal for resume to mean anything; synthesize a
    // run id when the user did not name one.
    let mut worker_args = strip_flags(raw, SUPERVISOR_FLAGS);
    let run_id = match (&d.run_id, &d.resume) {
        (Some(id), _) | (_, Some(id)) => id.clone(),
        (None, None) => {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis())
                .unwrap_or(0);
            let id = format!("isolate-{}-{t}", std::process::id());
            worker_args.push("--run-id".to_string());
            worker_args.push(id.clone());
            id
        }
    };
    let heartbeat_ms = h.heartbeat_ms.unwrap_or(500);
    worker_args.push("--worker-heartbeat".to_string());
    worker_args.push(heartbeat_ms.to_string());

    // Restarts resume the journal and drop one-shot fault injections.
    let mut resume_args = Vec::with_capacity(worker_args.len());
    let mut it = strip_flags(&worker_args, ONE_SHOT_FLAGS).into_iter();
    while let Some(arg) = it.next() {
        if arg == "--run-id" {
            resume_args.push("--resume".to_string());
            if let Some(v) = it.next() {
                resume_args.push(v);
            }
        } else {
            resume_args.push(arg);
        }
    }

    let runs_dir = d.runs_dir.clone().unwrap_or_else(|| "target/runs".to_string());
    let journal = PathBuf::from(&runs_dir).join(&run_id).join("journal.jsonl");

    let spec = WorkerSpec {
        program,
        initial_args: worker_args,
        resume_args,
        envs: Vec::new(),
    };
    let tracer = parsed.trace.tracer();
    let opt = HarnessOptions {
        watchdog: h.watchdog.unwrap_or(Duration::from_secs(30)),
        stall_timeout: h.stall_timeout,
        progress_file: Some(journal.clone()),
        max_rss_kb: h.max_rss_mb.map(|mb| mb.saturating_mul(1024)),
        max_restarts: h.max_restarts.unwrap_or(3),
        chaos: h.chaos_kill_after.map(|n| ChaosPlan {
            kill_after_heartbeats: n,
            growth: 2,
            corrupt_tail: h.chaos_corrupt_tail.map(|bytes| (journal.clone(), bytes)),
        }),
        tracer: tracer.clone(),
        forward_output: true,
    };
    match run_supervised(&spec, &opt) {
        Ok(report) => {
            let reasons: Vec<&str> = report.kills.iter().map(|k| k.name()).collect();
            println!(
                "harness: worker exit {} after {} restart(s), {} kill(s) [{}], \
                 {} heartbeat(s), run {run_id}",
                report.exit_code,
                report.restarts,
                report.kills.len(),
                reasons.join(", "),
                report.heartbeats,
            );
            emit_telemetry(tracer.as_ref(), None);
            ExitCode::from(report.exit_code.clamp(0, 255) as u8)
        }
        Err(e) => {
            eprintln!("harness: {e}");
            if let HarnessError::GaveUp { stderr_tail, .. } = &e {
                for line in stderr_tail {
                    eprintln!("harness: stderr| {line}");
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// Polls `/jobs/<id>` until the job is terminal, returning the terminal
/// record.
fn poll_terminal(addr: &str, id: u64) -> Result<Value, String> {
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let (status, text) = cppll_serve::client_request(addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| format!("lost contact with {addr}: {e}"))?;
        if status != 200 {
            return Err(format!("job {id}: status {status}: {text}"));
        }
        let Ok(v) = cppll_json::parse(&text) else {
            continue;
        };
        if matches!(
            v.get("state").and_then(Value::as_str),
            Some("completed") | Some("failed")
        ) {
            return Ok(v);
        }
    }
}

/// Solves one sweep cell on a running daemon: renders the cell as a
/// concrete spec, submits it, and polls to the terminal state. A `failed`
/// job is a failed *cell* (the daemon already supervised and restarted its
/// worker); only transport errors abort the sweep. The problem fingerprint
/// is computed locally, identically to the in-process solver, so via-mode
/// atlases stay comparable with local ones.
fn via_solve(
    addr: &str,
    problem: &CellProblem,
    reduction: ReductionOptions,
) -> Result<CellOutcome, String> {
    let t0 = std::time::Instant::now();
    let verifier = InevitabilityVerifier::new(
        &problem.system,
        problem.boundary.clone(),
        Region::ellipsoid(&problem.initial_radii),
    );
    let mut popt = PipelineOptions::degree(problem.degree);
    popt.reduction = reduction;
    let fingerprint =
        cppll_verify::checkpoint::fingerprint_hex(verifier.problem_fingerprint(&popt));
    let body = ObjectBuilder::new()
        .field("kind", "verify")
        .field("spec", problem.to_spec().to_json())
        .build()
        .to_compact_string();
    let (status, text) = cppll_serve::client_request(addr, "POST", "/jobs", Some(&body))
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let v = cppll_json::parse(&text).map_err(|e| format!("bad response from {addr}: {e}"))?;
    let terminal = match status {
        200 => v, // certificate-cache hit: already terminal
        202 => {
            let id = v
                .get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("no job id in response: {text}"))?;
            poll_terminal(addr, id)?
        }
        _ => return Err(format!("submit rejected ({status}): {text}")),
    };
    let completed = terminal.get("state").and_then(Value::as_str) == Some("completed");
    let verified = completed && terminal.get("verified").and_then(Value::as_bool) == Some(true);
    let reason = terminal
        .get("reason")
        .and_then(Value::as_str)
        .map(str::to_string)
        .or_else(|| {
            terminal
                .get("verdict")
                .and_then(Value::as_str)
                .map(str::to_string)
        });
    Ok(CellOutcome {
        certified: verified,
        digest: terminal
            .get("digest")
            .and_then(Value::as_str)
            .map(str::to_string),
        reason: if verified { None } else { reason },
        fingerprint,
        warm_hits: 0,
        warm: Vec::new(),
        seconds: t0.elapsed().as_secs_f64(),
        ledger: cppll_verify::LedgerSnapshot::default(),
    })
}

/// Prints the human sweep summary and writes the `--out` artefacts.
fn emit_atlas(atlas: &Atlas, out: Option<&str>) -> Result<(), String> {
    print!("{}", atlas.ascii());
    let c = &atlas.counters;
    let interior = atlas
        .cells
        .iter()
        .filter(|x| x.status == cppll_verify::CellStatus::Interior)
        .count();
    println!(
        "atlas: {}x{} grid — {} certified, {} failed, {} skipped by bisection \
         ({} interior, {} unresolved), {} wave(s)",
        atlas.nx,
        atlas.ny,
        c.cells_certified,
        c.cells_failed,
        c.cells_skipped_by_bisection,
        interior,
        c.cells_skipped_by_bisection - interior,
        atlas.waves,
    );
    println!(
        "warm starts: {} hit(s); journal: {} cell(s) replayed",
        c.warm_start_hits, c.cells_replayed,
    );
    println!("atlas digest: {}", atlas.digest());
    println!("total: {:.2}s", atlas.total_seconds);
    let Some(dir) = out else { return Ok(()) };
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let write = |name: &str, contents: &str| -> Result<(), String> {
        let p = dir.join(name);
        std::fs::write(&p, contents).map_err(|e| format!("cannot write {}: {e}", p.display()))?;
        println!("wrote {}", p.display());
        Ok(())
    };
    write("atlas.json", &atlas.full_json().to_compact_string())?;
    write("atlas.canonical.json", &atlas.canonical_json())?;
    // 1D sweeps trace against a single synthetic row at y = 0.
    let ys = if atlas.ys.is_empty() {
        vec![0.0]
    } else {
        atlas.ys.clone()
    };
    let curve = grid_verdict_boundary(
        &atlas.xs,
        &ys,
        &atlas.certified_mask(),
        "certified-region boundary",
    );
    let contour = ObjectBuilder::new()
        .field("curves", vec![curve])
        .build()
        .to_compact_string();
    write("contour.json", &contour)
}

/// `cppll sweep <sweep.json>` — certify a parameter grid into an atlas.
#[allow(clippy::too_many_arguments)]
fn cmd_sweep(
    args: &[String],
    resilience: ResilienceConfig,
    checkpoint: Option<CheckpointConfig>,
    reduction: ReductionOptions,
    trace_out: Option<&str>,
    tracer: Option<Tracer>,
    flags: &SweepFlags,
) -> ExitCode {
    let Some(path) = args.get(1) else {
        eprintln!("usage: cppll sweep <sweep.json> [--out <dir>] [--via <host:port>]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = match SweepSpec::from_json_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.no_bisect {
        spec.bisect = false;
    }
    if let Some(c) = flags.coarse {
        spec.coarse = c;
    }
    if let Some(r) = flags.resolution {
        spec.resolution = r;
    }
    let opt = cppll_verify::SweepOptions {
        threads: 0, // cell-level parallelism follows the global --threads
        resilience,
        reduction,
        trace: tracer.clone(),
        checkpoint,
        crash_after_cells: flags.crash_after,
    };
    let result = match &flags.via {
        Some(addr) => {
            let addr = addr.clone();
            let solver = move |_cell: usize,
                               problem: &CellProblem,
                               _seed: Option<Vec<Option<cppll_sdp::SdpSolution>>>| {
                via_solve(&addr, problem, reduction)
            };
            run_sweep_with(&spec, &opt, &solver)
        }
        None => run_sweep(&spec, &opt),
    };
    match result {
        Ok(atlas) => {
            if let Err(e) = emit_atlas(&atlas, flags.out.as_deref()) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            emit_telemetry(tracer.as_ref(), trace_out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `cppll serve` — run the verification daemon until SIGTERM/SIGINT or
/// `POST /shutdown`, drain, and exit 0.
fn cmd_serve(parsed: &ParsedArgs) -> ExitCode {
    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("serve: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = &parsed.serve;
    let h = &parsed.harness;
    let mut supervision = cppll_serve::WorkerSupervision::default();
    if let Some(w) = h.watchdog {
        supervision.watchdog = w;
    }
    supervision.stall_timeout = h.stall_timeout;
    if let Some(ms) = h.heartbeat_ms {
        supervision.heartbeat_ms = ms;
    }
    supervision.max_rss_mb = h.max_rss_mb;
    if let Some(n) = h.max_restarts {
        supervision.max_restarts = n;
    }
    let opt = cppll_serve::ServeOptions {
        addr: s.addr.clone().unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string()),
        workers: s.workers.unwrap_or(2),
        queue_capacity: s.queue_cap.unwrap_or(64),
        runs_dir: PathBuf::from(
            parsed
                .durability
                .runs_dir
                .clone()
                .unwrap_or_else(|| "target/runs".to_string()),
        ),
        durability: parsed.durability.durability.unwrap_or_default(),
        cache_enabled: !s.no_cache,
        breaker_threshold: s.breaker_threshold.unwrap_or(3),
        retry_after_secs: s.retry_after.unwrap_or(2),
        runner: cppll_serve::JobRunner::Process { program },
        supervision,
        gc: cppll_serve::GcPolicy {
            max_age: s.gc_max_age_secs.map(Duration::from_secs_f64),
            keep: s.gc_keep,
        },
        tracer: parsed
            .trace
            .tracer()
            .unwrap_or_else(|| Tracer::new(TraceLevel::Stage)),
    };
    cppll_serve::install_shutdown_handler();
    let server = match cppll_serve::Server::start(opt) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("serve: listening on {}", server.addr());
    while !cppll_serve::shutdown_requested() && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("serve: draining (queued and running jobs finish first)");
    server.shutdown();
    server.join();
    println!("serve: drained cleanly");
    ExitCode::SUCCESS
}

/// Builds the job-request body for `cppll submit` from the command line:
/// the spec (or PLL benchmark selector) plus the resilience and chaos
/// flags, which flow into the worker's supervisor on the daemon side.
fn submit_body(parsed: &ParsedArgs) -> Result<String, String> {
    let args = &parsed.positional;
    let mut b = match args.get(1).map(String::as_str) {
        Some("pll") => {
            let order: u64 = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("usage: cppll submit pll <3|4> [degree]")?;
            let degree: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4);
            ObjectBuilder::new()
                .field("kind", "pll")
                .field("order", order)
                .field("degree", degree)
        }
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec =
                cppll_json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
            ObjectBuilder::new().field("kind", "verify").field("spec", spec)
        }
        None => {
            return Err(
                "usage: cppll submit <system.json> | cppll submit pll <3|4> [degree]".into(),
            )
        }
    };
    let r = &parsed.resilience;
    if let Some(d) = r.deadline {
        b = b.field("deadline_secs", d.as_secs_f64());
    }
    if let Some(t) = r.solve_timeout {
        b = b.field("solve_timeout_secs", t.as_secs_f64());
    }
    if r.retries != ResilienceConfig::default().retries {
        b = b.field("retries", r.retries as u64);
    }
    let h = &parsed.harness;
    if let Some(n) = h.max_restarts {
        b = b.field("max_restarts", n as u64);
    }
    if let Some(n) = h.chaos_kill_after {
        b = b.field("chaos_kill_after", n);
    }
    if let Some(n) = h.chaos_corrupt_tail {
        b = b.field("chaos_corrupt_tail", n);
    }
    Ok(b.build().to_compact_string())
}

/// Polls a submitted job until it is terminal; exit 0 verified, 2
/// completed-but-not-verified, 1 failed.
fn wait_for_job(addr: &str, id: u64) -> ExitCode {
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let Ok((status, text)) =
            cppll_serve::client_request(addr, "GET", &format!("/jobs/{id}"), None)
        else {
            eprintln!("submit: lost contact with {addr}");
            return ExitCode::FAILURE;
        };
        if status != 200 {
            eprintln!("{text}");
            return ExitCode::FAILURE;
        }
        let Ok(v) = cppll_json::parse(&text) else {
            continue;
        };
        match v.get("state").and_then(Value::as_str) {
            Some("completed") => {
                println!("{text}");
                return if v.get("verified").and_then(Value::as_bool) == Some(true) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(2)
                };
            }
            Some("failed") => {
                println!("{text}");
                return ExitCode::FAILURE;
            }
            _ => {}
        }
    }
}

/// `cppll submit` — post one job to a running daemon.
fn cmd_submit(parsed: &ParsedArgs) -> ExitCode {
    let addr = parsed
        .serve
        .server
        .clone()
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string());
    let body = match submit_body(parsed) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (status, text) = match cppll_serve::client_request(&addr, "POST", "/jobs", Some(&body)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("submit: cannot reach {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{text}");
    match status {
        // Cache hit: the response already carries the terminal record.
        200 => ExitCode::SUCCESS,
        202 if parsed.serve.wait => {
            let id = cppll_json::parse(&text)
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_u64));
            match id {
                Some(id) => wait_for_job(&addr, id),
                None => {
                    eprintln!("submit: no job id in response");
                    ExitCode::FAILURE
                }
            }
        }
        202 => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

/// `cppll status [job]` — query a running daemon (`/healthz` without an
/// argument, `/jobs/<id>` with one).
fn cmd_status(parsed: &ParsedArgs) -> ExitCode {
    let addr = parsed
        .serve
        .server
        .clone()
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string());
    let path = match parsed.positional.get(1) {
        Some(job) => format!("/jobs/{job}"),
        None => "/healthz".to_string(),
    };
    match cppll_serve::client_request(&addr, "GET", &path, None) {
        Ok((200, text)) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Ok((status, text)) => {
            eprintln!("status {status}: {text}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("status: cannot reach {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cppll runs gc` — apply a retention policy to the runs directory.
fn cmd_runs_gc(parsed: &ParsedArgs) -> ExitCode {
    if parsed.positional.get(1).map(String::as_str) != Some("gc") {
        eprintln!("usage: cppll runs gc [--gc-max-age <secs>] [--gc-keep <n>] [--dry-run]");
        return ExitCode::FAILURE;
    }
    let s = &parsed.serve;
    let policy = cppll_serve::GcPolicy {
        max_age: s.gc_max_age_secs.map(Duration::from_secs_f64),
        keep: s.gc_keep,
    };
    if !policy.is_active() {
        eprintln!("runs gc: give at least one of --gc-max-age <secs> / --gc-keep <n>");
        return ExitCode::FAILURE;
    }
    let runs_dir = PathBuf::from(
        parsed
            .durability
            .runs_dir
            .clone()
            .unwrap_or_else(|| "target/runs".to_string()),
    );
    match cppll_serve::gc_runs(&runs_dir, &policy, &std::collections::HashSet::new(), s.dry_run) {
        Ok(r) => {
            println!(
                "runs gc{}: scanned {}, removed {}, kept {}, protected {}",
                if s.dry_run { " (dry run)" } else { "" },
                r.scanned,
                r.removed,
                r.kept,
                r.protected,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("runs gc: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_flags(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.harness.isolate {
        return supervise(&raw, &parsed);
    }
    // Service subcommands keep the full flag groups, so dispatch before
    // the worker-oriented destructuring below.
    match parsed.positional.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&parsed),
        Some("submit") => return cmd_submit(&parsed),
        Some("status") => return cmd_status(&parsed),
        Some("runs") => return cmd_runs_gc(&parsed),
        _ => {}
    }
    // Supervised worker: heartbeat for the life of the process.
    let _heartbeat = parsed
        .harness
        .worker_heartbeat_ms
        .map(|ms| HeartbeatEmitter::start(Duration::from_millis(ms.max(1))));
    let ParsedArgs {
        positional: args,
        mut resilience,
        durability,
        reduction,
        trace,
        sweep: sweep_flags,
        validate,
        ..
    } = parsed;
    let checkpoint = match durability.checkpoint() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    durability.arm(&mut resilience);
    let tracer = trace.tracer();
    match args.first().map(String::as_str) {
        Some("schema") => {
            if args.get(1).map(String::as_str) == Some("sweep") {
                println!("{EXAMPLE_SWEEP}");
            } else {
                println!("{EXAMPLE_SPEC}");
            }
            ExitCode::SUCCESS
        }
        Some("sweep") => cmd_sweep(
            &args,
            resilience,
            checkpoint,
            reduction,
            trace.out.as_deref(),
            tracer,
            &sweep_flags,
        ),
        Some("verify") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: cppll verify <system.json>");
                return ExitCode::FAILURE;
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let spec: SystemSpec = match SystemSpec::from_json_str(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_inevitability_validated(
                &spec,
                resilience,
                checkpoint,
                reduction,
                tracer.clone(),
                validate.map(|trials| (trials, VALIDATE_SEED)),
            ) {
                Ok((report, validation)) => {
                    print_report(&report);
                    if let Some(v) = &validation {
                        print_validation(v);
                    }
                    emit_telemetry(tracer.as_ref(), trace.out.as_deref());
                    verdict_exit(&report, validation.as_ref())
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("pll") => {
            let order = match args.get(1).map(String::as_str) {
                Some("3") => PllOrder::Third,
                Some("4") => PllOrder::Fourth,
                _ => {
                    eprintln!("usage: cppll pll <3|4> [degree]");
                    return ExitCode::FAILURE;
                }
            };
            let degree: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
            let model = PllModelBuilder::new(order).build();
            println!("CP PLL order {order:?}, certificate degree {degree}");
            println!("scaled coefficients: {}", model.coeffs());
            let verifier = InevitabilityVerifier::for_pll(&model);
            let mut opt = PipelineOptions::degree(degree);
            opt.resilience = resilience;
            opt.checkpoint = checkpoint;
            opt.reduction = reduction;
            opt.trace = tracer.clone();
            match verifier.verify(&opt) {
                Ok(report) => {
                    print_report(&report);
                    let validation = validate
                        .and_then(|trials| verifier.validate(&report, trials, VALIDATE_SEED));
                    if let Some(v) = &validation {
                        print_validation(v);
                    }
                    emit_telemetry(tracer.as_ref(), trace.out.as_deref());
                    verdict_exit(&report, validation.as_ref())
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "cppll — inevitability verifier for polynomial hybrid systems\n\
                 \n\
                 usage:\n\
                 \x20 cppll verify <system.json>   verify a JSON system spec\n\
                 \x20 cppll pll <3|4> [degree]     run the CP PLL benchmarks\n\
                 \x20 cppll sweep <sweep.json>     certify a 1D/2D parameter grid\n\
                 \x20 cppll schema [sweep]         print an example (sweep) spec\n\
                 \x20 cppll serve                  run the verification daemon\n\
                 \x20 cppll submit <spec|pll ...>  submit a job to a daemon\n\
                 \x20 cppll status [job]           query a daemon\n\
                 \x20 cppll runs gc                apply retention GC to runs/\n\
                 \n\
                 service flags (serve):\n\
                 \x20 --addr <host:port>       bind address (default 127.0.0.1:7171)\n\
                 \x20 --workers <n>            worker processes (default 2)\n\
                 \x20 --queue-cap <n>          job queue capacity; beyond it, submissions\n\
                 \x20                          get 429 + Retry-After (default 64)\n\
                 \x20 --breaker-threshold <n>  worker-death failures before a spec is\n\
                 \x20                          quarantined with 409 (default 3)\n\
                 \x20 --retry-after <secs>     Retry-After hint on 429/503 (default 2)\n\
                 \x20 --no-cache               disable the certificate cache\n\
                 \x20 --gc-max-age <secs>      retention GC: drop runs older than this\n\
                 \x20 --gc-keep <n>            retention GC: keep at most n newest runs\n\
                 \n\
                 service flags (submit, status):\n\
                 \x20 --server <host:port>     daemon to talk to (default 127.0.0.1:7171)\n\
                 \x20 --wait                   submit: poll until the job is terminal\n\
                 \n\
                 service flags (runs gc):\n\
                 \x20 --dry-run                report what would be removed, remove nothing\n\
                 \n\
                 sweep flags (sweep):\n\
                 \x20 --out <dir>              write atlas.json, atlas.canonical.json,\n\
                 \x20                          contour.json under <dir>\n\
                 \x20 --via <host:port>        solve cells on a running daemon (no\n\
                 \x20                          warm-start seeding in this mode)\n\
                 \x20 --no-bisect              solve every grid cell\n\
                 \x20 --coarse <n>             initial lattice stride (default auto)\n\
                 \x20 --resolution <n>         refinement stop size (default 1)\n\
                 \x20 --sweep-crash-after <n>  exit(3) after n fresh cells (testing)\n\
                 \n\
                 resilience flags (verify, pll):\n\
                 \x20 --retries <n>            retries per solve on transient failures (default 2)\n\
                 \x20 --solve-timeout <secs>   wall-clock budget per solve attempt\n\
                 \x20 --deadline <secs>        wall-clock budget for the whole pipeline\n\
                 \x20 --threads <n>            SDP solver worker threads (0 = auto)\n\
                 \n\
                 durability flags (verify, pll):\n\
                 \x20 --run-id <id>            journal completed stages under target/runs/<id>\n\
                 \x20 --resume <id>            resume a journaled run, replaying finished stages\n\
                 \x20 --runs-dir <dir>         base directory for run journals (default target/runs)\n\
                 \x20 --durability <mode>      fast | safe (safe fsyncs every journal append)\n\
                 \x20 --inject-crash <stage>:<n>  exit(3) at the n-th solve of a stage (testing)\n\
                 \x20 --inject-stall <stage>:<n>  hang at the n-th solve of a stage (testing)\n\
                 \n\
                 validation flags (verify, pll):\n\
                 \x20 --validate <trials>      Monte-Carlo check certified claims after verifying;\n\
                 \x20                          exit 2 when a certified claim is violated\n\
                 \n\
                 isolation flags (verify, pll):\n\
                 \x20 --isolate                re-run supervised: heartbeat watchdog, stall\n\
                 \x20                          detection, RSS ceiling, kill-and-resume\n\
                 \x20 --watchdog <secs>        kill worker when stdout is silent this long\n\
                 \x20 --stall-timeout <secs>   kill worker when its journal stops advancing\n\
                 \x20 --heartbeat <ms>         worker heartbeat interval (default 500)\n\
                 \x20 --max-rss <mb>           kill worker above this RSS ceiling\n\
                 \x20 --max-restarts <n>       restarts before giving up (default 3)\n\
                 \x20 --chaos-kill-after <n>   chaos: kill after n heartbeats (then doubles)\n\
                 \x20 --chaos-corrupt-tail <b> chaos: chop b bytes off the journal after kills\n\
                 \n\
                 reduction flags (verify, pll):\n\
                 \x20 --no-reduce              solve the unreduced SDPs (skip basis pruning\n\
                 \x20                          and symmetry block splitting)\n\
                 \x20 --reduce-mode <m>        support | legacy multiplier bases (default\n\
                 \x20                          support: Newton-polytope filtering + screening\n\
                 \x20                          with silent legacy fallback)\n\
                 \n\
                 tracing flags (verify, pll):\n\
                 \x20 --trace-level <level>    off | stage | solve | iter (default off)\n\
                 \x20 --trace-out <dir>        write trace.jsonl, trace.chrome.json and\n\
                 \x20                          metrics.prom under <dir> (implies solve level)"
            );
            ExitCode::FAILURE
        }
    }
}
