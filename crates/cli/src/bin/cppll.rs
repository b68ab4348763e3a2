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
//! Every flag is declared once, in [`FLAGS`]: its value syntax, the
//! subcommands that read it, how `--isolate` forwards it to a worker, and
//! its help line. `cppll --help` prints the flags grouped by subcommand; a
//! flag given to a subcommand that does not read it is an error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cppll_bench::contour::grid_verdict_boundary;
use cppll_cli::SystemSpec;
use cppll_harness::{
    run_supervised, ChaosPlan, HarnessError, HarnessOptions, HeartbeatEmitter, WorkerSpec,
};
use cppll_json::{ObjectBuilder, ToJson, Value};
use cppll_pll::{PllModelBuilder, PllOrder};
use cppll_serve::{GcPolicy, ServeOptions, WorkerSupervision};
use cppll_verify::checkpoint::DEFAULT_RUNS_DIR;
use cppll_verify::{
    run_sweep, run_sweep_with, span_forest, step_times, Atlas, CellOutcome, CellProblem,
    CheckpointConfig, CrashMode, Durability, EventKind, FaultInjector, FaultPlan,
    InevitabilityVerifier, PipelineOptions, Reduction, Region, ResilienceConfig, SweepSpec,
    TraceLevel, Tracer, ValidationReport, VerificationReport,
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

/// The subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Verify,
    Pll,
    Sweep,
    Schema,
    Serve,
    Submit,
    Status,
    Runs,
}

impl Cmd {
    const ALL: [Cmd; 8] = {
        use Cmd::*;
        [Verify, Pll, Sweep, Schema, Serve, Submit, Status, Runs]
    };

    /// Name, positional synopsis and one-line description.
    fn about(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Cmd::Verify => ("verify", "<system.json>", "verify a JSON system spec"),
            Cmd::Pll => ("pll", "<3|4> [degree]", "run the CP PLL benchmarks"),
            Cmd::Sweep => ("sweep", "<sweep.json>", "certify a 1D/2D parameter grid"),
            Cmd::Schema => ("schema", "[sweep]", "print an example (sweep) spec"),
            Cmd::Serve => ("serve", "", "run the verification daemon"),
            Cmd::Submit => ("submit", "<spec|pll ...>", "submit a job to a daemon"),
            Cmd::Status => ("status", "[job]", "query a daemon"),
            Cmd::Runs => ("runs", "gc", "apply retention GC to the runs directory"),
        }
    }

    fn name(self) -> &'static str {
        self.about().0
    }

    fn parse(name: &str) -> Option<Cmd> {
        Cmd::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// How `--isolate` treats a flag when it builds its worker's command lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Passed to every worker attempt unchanged.
    Forward,
    /// Read by the supervisor itself; never passed to the worker.
    Supervisor,
    /// Names the run journal: the supervisor starts the run on the first
    /// attempt and resumes it on every restart.
    Journal,
    /// An injected fault, passed to the first attempt only: it simulates a
    /// one-time environmental failure, and replaying it on every resume
    /// would turn a chaos test into a livelock.
    OneShot,
    /// Set by the supervisor on its worker's command line (the heartbeat
    /// interval), never by hand; left out of the usage text.
    Hidden,
}

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// Value placeholder for the usage text; empty for a switch.
    value: &'static str,
    /// The subcommands that read the flag; every other one rejects it.
    cmds: &'static [Cmd],
    role: Role,
    help: &'static str,
    /// Stores the value; an error is reported after the flag's name.
    set: fn(&mut ParsedArgs, &str) -> Result<(), String>,
}

impl Flag {
    fn find(name: &str) -> Option<&'static Flag> {
        FLAGS.iter().find(|f| f.name == name)
    }

    fn takes_value(&self) -> bool {
        !self.value.is_empty()
    }

    /// The usage line: name, value placeholder and help.
    fn usage_line(&self) -> String {
        let spelled = format!("{} {}", self.name, self.value);
        format!("  {:<28} {}\n", spelled.trim_end(), self.help)
    }
}

fn count<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("not a count: {v}"))
}

fn seconds(v: &str) -> Result<Duration, String> {
    let secs: f64 = v
        .parse()
        .map_err(|_| format!("not a number of seconds: {v}"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("must be a non-negative number of seconds: {v}"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn stage_solve(v: &str) -> Result<(String, usize), String> {
    let (stage, nth) = v
        .rsplit_once(':')
        .ok_or_else(|| format!("expected <stage>:<n>, got {v}"))?;
    let nth = nth
        .parse()
        .map_err(|_| format!("not a solve index: {nth}"))?;
    Ok((stage.to_string(), nth))
}

fn choice<T>(v: &str, parse: fn(&str) -> Option<T>, expected: &str) -> Result<T, String> {
    parse(v).ok_or_else(|| format!("expected {expected}, got {v}"))
}

fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

/// Every flag `cppll` accepts.
#[rustfmt::skip]
const FLAGS: &[Flag] = {
    use Cmd::{Pll, Runs, Serve, Status, Submit, Sweep, Verify};
    use Role::{Forward, Hidden, Journal, OneShot, Supervisor};
    &[
    // Resilience.
    Flag { name: "--retries", value: "<n>", cmds: &[Verify, Pll, Sweep, Submit],
        role: Forward, help: "retries per solve on transient failures (default 2)",
        set: |p, v| count(v).map(|n| p.resilience.retries = n) },
    Flag { name: "--solve-timeout", value: "<secs>", cmds: &[Verify, Pll, Sweep, Submit],
        role: Forward, help: "wall-clock budget per solve attempt",
        set: |p, v| seconds(v).map(|d| p.resilience.solve_timeout = Some(d)) },
    Flag { name: "--deadline", value: "<secs>", cmds: &[Verify, Pll, Sweep, Submit],
        role: Forward, help: "wall-clock budget for the whole pipeline",
        set: |p, v| seconds(v).map(|d| p.resilience.deadline = Some(d)) },
    // Durability.
    Flag { name: "--run-id", value: "<id>", cmds: &[Verify, Pll, Sweep],
        role: Journal, help: "journal every completed stage under <runs-dir>/<id>",
        set: |p, v| text(v).map(|id| p.durability.run_id = Some(id)) },
    Flag { name: "--resume", value: "<id>", cmds: &[Verify, Pll, Sweep],
        role: Journal, help: "resume a journaled run, replaying finished stages",
        set: |p, v| text(v).map(|id| p.durability.resume = Some(id)) },
    Flag { name: "--runs-dir", value: "<dir>", cmds: &[Verify, Pll, Sweep, Serve, Runs],
        role: Forward, help: "base directory for run journals (default target/runs)",
        set: |p, v| text(v).map(|dir| p.durability.runs_dir = Some(dir)) },
    Flag { name: "--durability", value: "<mode>", cmds: &[Verify, Pll, Sweep, Serve],
        role: Forward, help: "fast | safe (safe fsyncs every journal append)",
        set: |p, v| choice(v, Durability::parse, "fast|safe")
            .map(|d| p.durability.durability = Some(d)) },
    Flag { name: "--inject-crash", value: "<stage>:<n>", cmds: &[Verify, Pll, Sweep],
        role: OneShot, help: "exit(3) at the n-th solve of a stage (testing)",
        set: |p, v| stage_solve(v).map(|s| p.durability.inject_crash = Some(s)) },
    Flag { name: "--inject-stall", value: "<stage>:<n>", cmds: &[Verify, Pll, Sweep],
        role: OneShot, help: "hang at the n-th solve of a stage (testing)",
        set: |p, v| stage_solve(v).map(|s| p.durability.inject_stall = Some(s)) },
    // Validation.
    Flag { name: "--validate", value: "<trials>", cmds: &[Verify, Pll],
        role: Forward, help: "Monte-Carlo check the certified claims; exit 2 on a violation",
        set: |p, v| count(v).map(|n| p.validate = Some(n)) },
    // Isolation.
    Flag { name: "--isolate", value: "", cmds: &[Verify, Pll, Sweep],
        role: Supervisor, help: "re-run in a supervised worker: watchdogs, kill and resume",
        set: |p, _| on(&mut p.harness.isolate) },
    Flag { name: "--watchdog", value: "<secs>", cmds: &[Verify, Pll, Sweep, Serve],
        role: Supervisor, help: "kill a worker whose stdout is silent this long (default 30)",
        set: |p, v| seconds(v).map(|d| p.harness.watchdog = Some(d)) },
    Flag { name: "--stall-timeout", value: "<secs>", cmds: &[Verify, Pll, Sweep, Serve],
        role: Supervisor, help: "kill a worker whose journal stops advancing this long",
        set: |p, v| seconds(v).map(|d| p.harness.stall_timeout = Some(d)) },
    Flag { name: "--heartbeat", value: "<ms>", cmds: &[Verify, Pll, Sweep, Serve],
        role: Supervisor, help: "worker heartbeat interval (default 500)",
        set: |p, v| count(v).map(|n| p.harness.heartbeat_ms = Some(n)) },
    Flag { name: "--max-rss", value: "<mb>", cmds: &[Verify, Pll, Sweep, Serve],
        role: Supervisor, help: "kill a worker above this RSS ceiling",
        set: |p, v| count(v).map(|n| p.harness.max_rss_mb = Some(n)) },
    Flag { name: "--max-restarts", value: "<n>", cmds: &[Verify, Pll, Sweep, Serve, Submit],
        role: Supervisor, help: "worker restarts before giving up (default 3)",
        set: |p, v| count(v).map(|n| p.harness.max_restarts = Some(n)) },
    Flag { name: "--chaos-kill-after", value: "<n>", cmds: &[Verify, Pll, Sweep, Submit],
        role: Supervisor, help: "chaos test: kill the worker after n heartbeats, then doubles",
        set: |p, v| count(v).map(|n| p.harness.chaos_kill_after = Some(n)) },
    Flag { name: "--chaos-corrupt-tail", value: "<bytes>", cmds: &[Verify, Pll, Sweep, Submit],
        role: Supervisor, help: "chaos test: chop bytes off the journal tail after each kill",
        set: |p, v| count(v).map(|n| p.harness.chaos_corrupt_tail = Some(n)) },
    Flag { name: "--worker-heartbeat", value: "<ms>", cmds: &[Verify, Pll, Sweep],
        role: Hidden, help: "emit heartbeats at this interval",
        set: |p, v| count(v).map(|n| p.harness.worker_heartbeat_ms = Some(n)) },
    // Service.
    Flag { name: "--addr", value: "<host:port>", cmds: &[Serve],
        role: Forward, help: "bind address (default 127.0.0.1:7171)",
        set: |p, v| text(v).map(|a| p.serve.addr = Some(a)) },
    Flag { name: "--workers", value: "<n>", cmds: &[Serve],
        role: Forward, help: "worker processes (default 2)",
        set: |p, v| count(v).map(|n| p.serve.workers = Some(n)) },
    Flag { name: "--queue-cap", value: "<n>", cmds: &[Serve],
        role: Forward, help: "job queue bound; beyond it submissions get 429 (default 64)",
        set: |p, v| count(v).map(|n| p.serve.queue_cap = Some(n)) },
    Flag { name: "--breaker-threshold", value: "<n>", cmds: &[Serve],
        role: Forward, help: "worker deaths before a spec is quarantined with 409 (default 3)",
        set: |p, v| count(v).map(|n| p.serve.breaker_threshold = Some(n)) },
    Flag { name: "--retry-after", value: "<secs>", cmds: &[Serve],
        role: Forward, help: "Retry-After hint on 429/503 (default 2)",
        set: |p, v| count(v).map(|n| p.serve.retry_after = Some(n)) },
    Flag { name: "--no-cache", value: "", cmds: &[Serve],
        role: Forward, help: "disable the certificate cache",
        set: |p, _| on(&mut p.serve.no_cache) },
    Flag { name: "--gc-max-age", value: "<secs>", cmds: &[Serve, Runs],
        role: Forward, help: "retention GC: drop runs older than this",
        set: |p, v| seconds(v).map(|d| p.serve.gc.max_age = Some(d)) },
    Flag { name: "--gc-keep", value: "<n>", cmds: &[Serve, Runs],
        role: Forward, help: "retention GC: keep at most n newest runs",
        set: |p, v| count(v).map(|n| p.serve.gc.keep = Some(n)) },
    Flag { name: "--server", value: "<host:port>", cmds: &[Submit, Status],
        role: Forward, help: "daemon to talk to (default 127.0.0.1:7171)",
        set: |p, v| text(v).map(|a| p.serve.server = Some(a)) },
    Flag { name: "--wait", value: "", cmds: &[Submit],
        role: Forward, help: "poll until the job is terminal; exit 0/2 by verdict",
        set: |p, _| on(&mut p.serve.wait) },
    Flag { name: "--dry-run", value: "", cmds: &[Runs],
        role: Forward, help: "report what would be removed, remove nothing",
        set: |p, _| on(&mut p.serve.dry_run) },
    // Sweep.
    Flag { name: "--threads", value: "<n>", cmds: &[Sweep],
        role: Forward, help: "cells solved at once (0 = auto)",
        set: |p, v| count(v).map(|n| p.sweep.threads = n) },
    Flag { name: "--out", value: "<dir>", cmds: &[Sweep],
        role: Forward, help: "write atlas.json, atlas.canonical.json, contour.json here",
        set: |p, v| text(v).map(|dir| p.sweep.out = Some(dir)) },
    Flag { name: "--via", value: "<host:port>", cmds: &[Sweep],
        role: Forward, help: "solve cells on a running daemon (no warm starts)",
        set: |p, v| text(v).map(|a| p.sweep.via = Some(a)) },
    Flag { name: "--no-bisect", value: "", cmds: &[Sweep],
        role: Forward, help: "solve every grid cell (no adaptive bisection)",
        set: |p, _| on(&mut p.sweep.no_bisect) },
    Flag { name: "--coarse", value: "<n>", cmds: &[Sweep],
        role: Forward, help: "initial lattice stride in cells (default auto)",
        set: |p, v| count(v).map(|n| p.sweep.coarse = Some(n)) },
    Flag { name: "--resolution", value: "<n>", cmds: &[Sweep],
        role: Forward, help: "stop refining disagreeing rectangles at this size (default 1)",
        set: |p, v| count(v).map(|n| p.sweep.resolution = Some(n)) },
    Flag { name: "--sweep-crash-after", value: "<n>", cmds: &[Sweep],
        role: Forward, help: "exit(3) after journaling n fresh cells (testing)",
        set: |p, v| count(v).map(|n| p.sweep.crash_after = Some(n)) },
    // Reduction.
    Flag { name: "--no-reduce", value: "", cmds: &[Verify, Pll, Sweep],
        role: Forward, help: "solve the unreduced SDPs (no basis pruning or block splitting)",
        set: |p, _| { p.reduction = Reduction::Off; Ok(()) } },
    // Tracing.
    Flag { name: "--trace-level", value: "<level>", cmds: &[Verify, Pll, Sweep, Serve],
        role: Forward, help: "off | stage | solve | iter (default off; never changes results)",
        set: |p, v| choice(v, TraceLevel::parse, "off|stage|solve|iter")
            .map(|l| p.trace.level = Some(l)) },
    Flag { name: "--trace-out", value: "<dir>", cmds: &[Verify, Pll, Sweep],
        role: Forward, help: "write trace.jsonl, trace.chrome.json, metrics.prom (implies solve)",
        set: |p, v| text(v).map(|dir| p.trace.out = Some(dir)) },
    ]
};

/// Help requests: `help` as the subcommand, or either of the other two
/// anywhere. They print the usage to stdout and exit 0, whatever else is on
/// the command line, so they stay out of [`FLAGS`].
const HELP: [&str; 3] = ["help", "--help", "-h"];

fn wants_help(args: &[String]) -> bool {
    args.first().is_some_and(|a| a == HELP[0])
        || args.iter().any(|a| HELP[1..].contains(&a.as_str()))
}

/// The flags `cmd` reads, in table order, without the hidden one.
fn listed_flags(cmd: Cmd) -> impl Iterator<Item = &'static Flag> {
    FLAGS
        .iter()
        .filter(move |f| f.role != Role::Hidden && f.cmds.contains(&cmd))
}

/// One subcommand's usage: its synopsis and its flags.
fn cmd_usage(cmd: Cmd) -> String {
    let (name, args, _) = cmd.about();
    let mut out = format!("usage: cppll {name} {args}\n");
    out.extend(listed_flags(cmd).map(Flag::usage_line));
    out
}

/// The usage text: the subcommands, then the flags of each, where
/// subcommands that read the same flags share one section.
fn usage() -> String {
    let mut out =
        String::from("cppll — inevitability verifier for polynomial hybrid systems\n\nusage:\n");
    for cmd in Cmd::ALL {
        let (name, args, about) = cmd.about();
        let _ = writeln!(out, "  {:<30} {about}", format!("cppll {name} {args}"));
    }
    let help = format!("cppll {}", HELP.join(" | "));
    let _ = writeln!(out, "  {help:<30} print this text");
    let mut sections: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    for cmd in Cmd::ALL {
        let names: Vec<&str> = listed_flags(cmd).map(|f| f.name).collect();
        match sections.iter_mut().find(|(_, n)| *n == names) {
            Some((cmds, _)) => cmds.push(cmd.name()),
            None if !names.is_empty() => sections.push((vec![cmd.name()], names)),
            None => {}
        }
    }
    for (cmds, names) in sections {
        let _ = writeln!(out, "\n{} flags:", cmds.join(", "));
        out.extend(
            names
                .iter()
                .filter_map(|n| Flag::find(n))
                .map(Flag::usage_line),
        );
    }
    out
}

/// Prints the report; the `timings:` block comes from the stage spans and
/// the `solver stages` block from the stage counters `tracer` recorded
/// during the run.
fn print_report(report: &VerificationReport, tracer: Option<&Tracer>) {
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
    let events = tracer.map(Tracer::events).unwrap_or_default();
    for (name, ns) in step_times(&span_forest(&events)) {
        println!("  {name:<26} {:>9.2}s", ns as f64 / 1e9);
    }
    if report.reduction.grams > 0 {
        println!("reduction: {}", report.reduction);
        if let Some(d) = report.reduction.detail() {
            println!("  {d}");
        }
    }
    let totals = tracer.map(Tracer::counter_totals).unwrap_or_default();
    if let Some(lines) = cppll_sdp::stage_report_lines(&totals) {
        println!("solver stages:");
        for line in lines {
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

/// Runs the pipeline, prints the report, the optional validation block and
/// the telemetry, and maps the verdict to the exit code.
fn verify_and_report(
    verifier: &InevitabilityVerifier<'_>,
    opt: &PipelineOptions,
    validate: Option<usize>,
    trace: &TraceFlags,
) -> Result<ExitCode, String> {
    let report = verifier
        .verify(opt)
        .map_err(|e| format!("verification failed: {e}"))?;
    print_report(&report, opt.trace.as_ref());
    let validation = validate.and_then(|trials| verifier.validate(&report, trials, VALIDATE_SEED));
    if let Some(v) = &validation {
        print_validation(v);
    }
    emit_telemetry(trace.shown(opt.trace.as_ref()), trace.out.as_deref());
    Ok(verdict_exit(&report, validation.as_ref()))
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

    /// The run's tracer. It records at `stage` at least, whatever the
    /// flags say: the solver's stage clocks reach the report only through
    /// it.
    fn tracer(&self) -> Tracer {
        Tracer::new(self.effective_level().max(TraceLevel::Stage))
    }

    /// `tracer` when these flags ask for the `telemetry:` block and trace
    /// files; `None` when no trace flag was given or the level is `off`.
    fn shown<'a>(&self, tracer: Option<&'a Tracer>) -> Option<&'a Tracer> {
        tracer.filter(|_| self.effective_level() != TraceLevel::Off)
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
    println!(
        "  events: {} ({} spans, {} solver iterations)",
        events.len(),
        spans,
        iterations
    );
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
    /// The base directory for run journals.
    fn runs_dir(&self) -> PathBuf {
        PathBuf::from(self.runs_dir.as_deref().unwrap_or(DEFAULT_RUNS_DIR))
    }

    /// The checkpoint configuration these flags describe (if any).
    fn checkpoint(&self) -> Result<Option<CheckpointConfig>, String> {
        let config = match (&self.run_id, &self.resume) {
            (Some(_), Some(_)) => {
                let names: Vec<&str> = FLAGS
                    .iter()
                    .filter(|f| f.role == Role::Journal)
                    .map(|f| f.name)
                    .collect();
                return Err(format!("{} are mutually exclusive", names.join(" and ")));
            }
            (Some(id), None) => CheckpointConfig::new(id.clone()),
            (None, Some(id)) => CheckpointConfig::new(id.clone()).resuming(),
            (None, None) => return Ok(None),
        };
        let config = config.with_dir(self.runs_dir());
        Ok(Some(match self.durability {
            Some(d) => config.with_durability(d),
            None => config,
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
    /// Worker side of `--isolate`: emit heartbeats at this interval.
    worker_heartbeat_ms: Option<u64>,
}

impl HarnessFlags {
    /// The library's worker supervision defaults, overridden by the flags
    /// that were given.
    fn supervision(&self) -> WorkerSupervision {
        let d = WorkerSupervision::default();
        WorkerSupervision {
            watchdog: self.watchdog.unwrap_or(d.watchdog),
            stall_timeout: self.stall_timeout,
            heartbeat_ms: self.heartbeat_ms.unwrap_or(d.heartbeat_ms),
            max_rss_mb: self.max_rss_mb,
            max_restarts: self.max_restarts.unwrap_or(d.max_restarts),
        }
    }
}

/// Service command-line options (`serve`, `submit`, `status`, `runs gc`).
#[derive(Default)]
struct ServeFlags {
    addr: Option<String>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    breaker_threshold: Option<u32>,
    retry_after: Option<u64>,
    gc: GcPolicy,
    no_cache: bool,
    server: Option<String>,
    wait: bool,
    dry_run: bool,
}

impl ServeFlags {
    /// The daemon `submit` and `status` talk to.
    fn server(&self) -> String {
        self.server
            .clone()
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string())
    }
}

/// Sweep command-line options (`sweep` only).
#[derive(Default)]
struct SweepFlags {
    threads: usize,
    out: Option<String>,
    via: Option<String>,
    no_bisect: bool,
    coarse: Option<usize>,
    resolution: Option<usize>,
    crash_after: Option<usize>,
}

/// Default daemon bind/connect address.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7171";

/// Parsed command line: positionals plus every flag group.
#[derive(Default)]
struct ParsedArgs {
    positional: Vec<String>,
    validate: Option<usize>,
    resilience: ResilienceConfig,
    durability: DurabilityFlags,
    reduction: Reduction,
    trace: TraceFlags,
    harness: HarnessFlags,
    serve: ServeFlags,
    sweep: SweepFlags,
}

/// Parses `args` against [`FLAGS`]. Flags may sit anywhere among the
/// positionals; each is checked against the subcommand and stored in
/// command-line order. `Ok(None)` when no known subcommand was given.
fn parse_args(args: &[String]) -> Result<Option<(Cmd, ParsedArgs)>, String> {
    let mut positional = Vec::new();
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg.clone());
            continue;
        }
        let flag = Flag::find(arg).ok_or_else(|| format!("unknown flag: {arg}"))?;
        let value = if flag.takes_value() {
            it.next().ok_or_else(|| format!("{arg} requires a value"))?
        } else {
            ""
        };
        given.push((flag, value));
    }
    let Some(cmd) = positional.first().and_then(|c| Cmd::parse(c)) else {
        return Ok(None);
    };
    let mut parsed = ParsedArgs {
        positional,
        ..ParsedArgs::default()
    };
    for (flag, value) in given {
        if !flag.cmds.contains(&cmd) {
            return Err(format!("{} does not apply to '{}'", flag.name, cmd.name()));
        }
        (flag.set)(&mut parsed, value).map_err(|e| format!("{}: {e}", flag.name))?;
    }
    // A daemon solves every cell under the default reduction, so a `--via`
    // atlas of another reduction would pair its keys with those results.
    if parsed.sweep.via.is_some() && parsed.reduction != Reduction::default() {
        return Err("--no-reduce cannot be combined with --via".into());
    }
    Ok(Some((cmd, parsed)))
}

/// Splits `args` into the flags (with their values) whose role satisfies
/// `pick`, and everything else; both keep their order.
fn split_flags(args: &[String], pick: impl Fn(Role) -> bool) -> (Vec<String>, Vec<String>) {
    let (mut picked, mut rest) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = Flag::find(arg);
        let out = if flag.is_some_and(|f| pick(f.role)) {
            &mut picked
        } else {
            &mut rest
        };
        out.push(arg.clone());
        if flag.is_some_and(Flag::takes_value) {
            out.extend(it.next().cloned());
        }
    }
    (picked, rest)
}

/// The worker command lines for `--isolate`: `raw` without the
/// supervisor's own flags, plus a heartbeat request, journaled under
/// `run_id` (resumed from the first attempt when `resuming`). Injected
/// faults ride on the first attempt only.
fn worker_spec(
    program: PathBuf,
    raw: &[String],
    run_id: &str,
    resuming: bool,
    heartbeat_ms: u64,
) -> WorkerSpec {
    let (one_shot, rest) = split_flags(raw, |r| r == Role::OneShot);
    let (_, mut base) = split_flags(&rest, |r| r != Role::Forward);
    let heartbeat = FLAGS
        .iter()
        .find(|f| f.role == Role::Hidden)
        .expect("a hidden flag");
    base.extend([heartbeat.name.to_string(), heartbeat_ms.to_string()]);
    let mut spec = WorkerSpec::journaled(program, base, run_id);
    if resuming {
        spec.initial_args = spec.resume_args.clone();
    }
    spec.initial_args.extend(one_shot);
    spec
}

/// Runs this same command line in a supervised worker process
/// (`--isolate`): heartbeat liveness watchdog, journal-mtime stall
/// detection, RSS ceiling, and kill-and-resume through the run journal.
fn supervise(raw: &[String], parsed: &ParsedArgs) -> Result<ExitCode, String> {
    let program = std::env::current_exe()
        .map_err(|e| format!("isolate: cannot locate own executable: {e}"))?;
    let h = &parsed.harness;
    let d = &parsed.durability;
    let supervision = h.supervision();

    // The worker needs a journal for resume to mean anything; synthesize a
    // run id when the user did not name one.
    let run_id = d
        .run_id
        .clone()
        .or_else(|| d.resume.clone())
        .unwrap_or_else(|| {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis())
                .unwrap_or(0);
            format!("isolate-{}-{t}", std::process::id())
        });
    let resuming = d.resume.is_some();
    let spec = worker_spec(program, raw, &run_id, resuming, supervision.heartbeat_ms);
    let journal = d.runs_dir().join(&run_id).join("journal.jsonl");
    let tracer = parsed.trace.tracer();
    let opt = HarnessOptions {
        watchdog: supervision.watchdog,
        stall_timeout: supervision.stall_timeout,
        progress_file: Some(journal.clone()),
        max_rss_kb: supervision.max_rss_mb.map(|mb| mb.saturating_mul(1024)),
        max_restarts: supervision.max_restarts,
        chaos: h.chaos_kill_after.map(|n| ChaosPlan {
            kill_after_heartbeats: n,
            growth: 2,
            corrupt_tail: h.chaos_corrupt_tail.map(|bytes| (journal.clone(), bytes)),
        }),
        tracer: Some(tracer.clone()),
        forward_output: true,
    };
    let report = run_supervised(&spec, &opt).map_err(|e| {
        let mut text = format!("harness: {e}");
        if let HarnessError::GaveUp { stderr_tail, .. } = &e {
            for line in stderr_tail {
                text.push_str(&format!("\nharness: stderr| {line}"));
            }
        }
        text
    })?;
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
    emit_telemetry(parsed.trace.shown(Some(&tracer)), None);
    Ok(ExitCode::from(report.exit_code.clamp(0, 255) as u8))
}

/// Polls `/jobs/<id>` until the job is terminal, returning the terminal
/// record, parsed and as sent.
fn poll_terminal(addr: &str, id: u64) -> Result<(Value, String), String> {
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
            return Ok((v, text));
        }
    }
}

/// Solves one sweep cell on a running daemon: submits its job `body`
/// ([`via_body`]) and polls to the terminal state. A `failed`
/// job is a failed *cell* (the daemon already supervised and restarted its
/// worker); only transport errors abort the sweep. The problem fingerprint
/// is computed locally under the default reduction the daemon solves with,
/// identically to the in-process solver, so via-mode atlases stay
/// comparable with local ones.
fn via_solve(addr: &str, problem: &CellProblem, body: &str) -> Result<CellOutcome, String> {
    let t0 = std::time::Instant::now();
    let verifier = InevitabilityVerifier::new(
        &problem.system,
        problem.boundary.clone(),
        Region::ellipsoid(&problem.initial_radii),
    );
    let popt = PipelineOptions::degree(problem.degree);
    let fingerprint =
        cppll_verify::checkpoint::fingerprint_hex(verifier.problem_fingerprint(&popt));
    let (status, text) = cppll_serve::client_request(addr, "POST", "/jobs", Some(body))
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let v = cppll_json::parse(&text).map_err(|e| format!("bad response from {addr}: {e}"))?;
    let terminal = match status {
        200 => v, // certificate-cache hit: already terminal
        202 => {
            let id = v
                .get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("no job id in response: {text}"))?;
            poll_terminal(addr, id)?.0
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

/// Reads the file at `path` and parses it with `parse`.
fn load<T, E: std::fmt::Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `cppll verify`, `pll` and `sweep`: one pipeline run (or atlas).
fn cmd_run(
    cmd: Cmd,
    parsed: ParsedArgs,
    checkpoint: Option<CheckpointConfig>,
) -> Result<ExitCode, String> {
    let ParsedArgs {
        positional: args,
        mut resilience,
        durability,
        reduction,
        trace,
        sweep,
        validate,
        ..
    } = parsed;
    durability.arm(&mut resilience);
    if cmd == Cmd::Sweep {
        return cmd_sweep(&args, resilience, checkpoint, reduction, &trace, &sweep);
    }
    let options = |degree| {
        let mut opt = PipelineOptions::degree(degree);
        opt.resilience = resilience;
        opt.checkpoint = checkpoint;
        opt.reduction = reduction;
        opt.trace = Some(trace.tracer());
        opt
    };
    if cmd == Cmd::Verify {
        let path = args.get(1).ok_or_else(|| cmd_usage(cmd))?;
        let spec = load(path, SystemSpec::from_json_str)?;
        let opt = options(spec.degree);
        return spec
            .with_verifier(|v| verify_and_report(v, &opt, validate, &trace))
            .map_err(|e| e.to_string())?;
    }
    let order = match args.get(1).map(String::as_str) {
        Some("3") => PllOrder::Third,
        Some("4") => PllOrder::Fourth,
        _ => return Err(cmd_usage(cmd)),
    };
    let degree: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let model = PllModelBuilder::new(order).build();
    println!("CP PLL order {order:?}, certificate degree {degree}");
    println!("scaled coefficients: {}", model.coeffs());
    let verifier = InevitabilityVerifier::for_pll(&model);
    verify_and_report(&verifier, &options(degree), validate, &trace)
}

/// `cppll sweep <sweep.json>` — certify a parameter grid into an atlas.
#[allow(clippy::too_many_arguments)]
fn cmd_sweep(
    args: &[String],
    resilience: ResilienceConfig,
    checkpoint: Option<CheckpointConfig>,
    reduction: Reduction,
    trace: &TraceFlags,
    flags: &SweepFlags,
) -> Result<ExitCode, String> {
    let tracer = trace.tracer();
    let path = args.get(1).ok_or_else(|| cmd_usage(Cmd::Sweep))?;
    let mut spec = load(path, SweepSpec::from_json_str)?;
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
        threads: flags.threads,
        resilience,
        reduction,
        trace: Some(tracer.clone()),
        checkpoint,
        crash_after_cells: flags.crash_after,
    };
    let atlas = match &flags.via {
        Some(addr) => {
            let addr = addr.clone();
            let resilience = opt.resilience.clone();
            let solver =
                move |_cell: usize,
                      problem: &CellProblem,
                      _seed: Option<Vec<Option<cppll_sdp::SdpSolution>>>| {
                    via_solve(&addr, problem, &via_body(problem, &resilience))
                };
            run_sweep_with(&spec, &opt, &solver)
        }
        None => run_sweep(&spec, &opt),
    }
    .map_err(|e| e.to_string())?;
    emit_atlas(&atlas, flags.out.as_deref())?;
    emit_telemetry(trace.shown(Some(&tracer)), trace.out.as_deref());
    Ok(ExitCode::SUCCESS)
}

/// `cppll serve` — run the verification daemon until SIGTERM/SIGINT or
/// `POST /shutdown`, drain, and exit 0.
fn cmd_serve(parsed: &ParsedArgs) -> Result<ExitCode, String> {
    let program =
        std::env::current_exe().map_err(|e| format!("serve: cannot locate own executable: {e}"))?;
    let s = &parsed.serve;
    let d = ServeOptions::default();
    let opt = ServeOptions {
        addr: s
            .addr
            .clone()
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string()),
        workers: s.workers.unwrap_or(d.workers),
        queue_capacity: s.queue_cap.unwrap_or(d.queue_capacity),
        runs_dir: parsed.durability.runs_dir(),
        durability: parsed.durability.durability.unwrap_or(d.durability),
        cache_enabled: !s.no_cache,
        breaker_threshold: s.breaker_threshold.unwrap_or(d.breaker_threshold),
        retry_after_secs: s.retry_after.unwrap_or(d.retry_after_secs),
        runner: cppll_serve::JobRunner::Process { program },
        supervision: parsed.harness.supervision(),
        gc: s.gc.clone(),
        tracer: parsed.trace.tracer(),
    };
    cppll_serve::install_shutdown_handler();
    let server = cppll_serve::Server::start(opt).map_err(|e| format!("serve: {e}"))?;
    println!("serve: listening on {}", server.addr());
    while !cppll_serve::shutdown_requested() && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("serve: draining (queued and running jobs finish first)");
    server.shutdown();
    server.join();
    println!("serve: drained cleanly");
    Ok(ExitCode::SUCCESS)
}

/// Adds the resilience flags a job request carries (`deadline_secs`,
/// `solve_timeout_secs`, `retries`) to `b`; each is left out at its default.
fn with_resilience(mut b: ObjectBuilder, r: &ResilienceConfig) -> ObjectBuilder {
    if let Some(d) = r.deadline {
        b = b.field("deadline_secs", d.as_secs_f64());
    }
    if let Some(t) = r.solve_timeout {
        b = b.field("solve_timeout_secs", t.as_secs_f64());
    }
    if r.retries != ResilienceConfig::default().retries {
        b = b.field("retries", r.retries as u64);
    }
    b
}

/// The job posted for one `sweep --via` cell: the cell as a concrete spec,
/// plus the sweep's resilience flags.
fn via_body(problem: &CellProblem, resilience: &ResilienceConfig) -> String {
    let b = ObjectBuilder::new()
        .field("kind", "verify")
        .field("spec", problem.to_spec().to_json());
    with_resilience(b, resilience).build().to_compact_string()
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
            let spec = load(path, cppll_json::parse)?;
            ObjectBuilder::new()
                .field("kind", "verify")
                .field("spec", spec)
        }
        None => {
            return Err(
                "usage: cppll submit <system.json> | cppll submit pll <3|4> [degree]".into(),
            )
        }
    };
    b = with_resilience(b, &parsed.resilience);
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

/// `cppll submit` — post one job to a running daemon; with `--wait`, poll
/// it to the end and exit 0 verified, 2 completed-but-not-verified, 1
/// failed.
fn cmd_submit(parsed: &ParsedArgs) -> Result<ExitCode, String> {
    let addr = parsed.serve.server();
    let body = submit_body(parsed)?;
    let (status, text) = cppll_serve::client_request(&addr, "POST", "/jobs", Some(&body))
        .map_err(|e| format!("submit: cannot reach {addr}: {e}"))?;
    println!("{text}");
    match status {
        // Cache hit: the response already carries the terminal record.
        200 => Ok(ExitCode::SUCCESS),
        202 if parsed.serve.wait => {
            let id = cppll_json::parse(&text)
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_u64))
                .ok_or("submit: no job id in response")?;
            let (v, text) = poll_terminal(&addr, id).map_err(|e| format!("submit: {e}"))?;
            println!("{text}");
            Ok(match v.get("state").and_then(Value::as_str) {
                Some("completed") if v.get("verified").and_then(Value::as_bool) == Some(true) => {
                    ExitCode::SUCCESS
                }
                Some("completed") => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            })
        }
        202 => Ok(ExitCode::SUCCESS),
        _ => Ok(ExitCode::FAILURE),
    }
}

/// `cppll status [job]` — query a running daemon (`/healthz` without an
/// argument, `/jobs/<id>` with one).
fn cmd_status(parsed: &ParsedArgs) -> Result<ExitCode, String> {
    let addr = parsed.serve.server();
    let path = match parsed.positional.get(1) {
        Some(job) => format!("/jobs/{job}"),
        None => "/healthz".to_string(),
    };
    match cppll_serve::client_request(&addr, "GET", &path, None) {
        Ok((200, text)) => {
            println!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Ok((status, text)) => Err(format!("status {status}: {text}")),
        Err(e) => Err(format!("status: cannot reach {addr}: {e}")),
    }
}

/// `cppll runs gc` — apply a retention policy to the runs directory.
fn cmd_runs_gc(parsed: &ParsedArgs) -> Result<ExitCode, String> {
    if parsed.positional.get(1).map(String::as_str) != Some("gc") {
        return Err(cmd_usage(Cmd::Runs));
    }
    let s = &parsed.serve;
    if !s.gc.is_active() {
        return Err(format!(
            "runs gc: give a retention policy (a max age, a keep count or both)\n{}",
            cmd_usage(Cmd::Runs)
        ));
    }
    let runs_dir = parsed.durability.runs_dir();
    let r = cppll_serve::gc_runs(
        &runs_dir,
        &s.gc,
        &std::collections::HashSet::new(),
        s.dry_run,
    )
    .map_err(|e| format!("runs gc: {e}"))?;
    println!(
        "runs gc{}: scanned {}, removed {}, kept {}, protected {}",
        if s.dry_run { " (dry run)" } else { "" },
        r.scanned,
        r.removed,
        r.kept,
        r.protected,
    );
    Ok(ExitCode::SUCCESS)
}

/// Parses the command line and runs the subcommand; `Err` is printed to
/// stderr and exits 1.
fn run(raw: &[String]) -> Result<ExitCode, String> {
    if wants_help(raw) {
        print!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let (cmd, parsed) = parse_args(raw)?.ok_or_else(usage)?;
    let checkpoint = parsed.durability.checkpoint()?;
    if parsed.harness.isolate {
        return supervise(raw, &parsed);
    }
    // Supervised worker: heartbeat for the life of the process.
    let _heartbeat = parsed
        .harness
        .worker_heartbeat_ms
        .map(|ms| HeartbeatEmitter::start(Duration::from_millis(ms.max(1))));
    match cmd {
        Cmd::Schema => {
            if parsed.positional.get(1).map(String::as_str) == Some("sweep") {
                println!("{EXAMPLE_SWEEP}");
            } else {
                println!("{EXAMPLE_SPEC}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Serve => cmd_serve(&parsed),
        Cmd::Submit => cmd_submit(&parsed),
        Cmd::Status => cmd_status(&parsed),
        Cmd::Runs => cmd_runs_gc(&parsed),
        Cmd::Verify | Cmd::Pll | Cmd::Sweep => cmd_run(cmd, parsed, checkpoint),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    run(&raw).unwrap_or_else(|e| {
        eprintln!("{}", e.trim_end());
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// A sample value for each flag and the check that it landed in the
    /// right field.
    fn sample(name: &str) -> (&'static str, fn(&ParsedArgs) -> bool) {
        match name {
            "--retries" => ("5", |p| p.resilience.retries == 5),
            "--solve-timeout" => ("1.5", |p| {
                p.resilience.solve_timeout == Some(Duration::from_millis(1500))
            }),
            "--deadline" => ("9", |p| {
                p.resilience.deadline == Some(Duration::from_secs(9))
            }),
            "--threads" => ("3", |p| p.sweep.threads == 3),
            "--run-id" => ("r1", |p| p.durability.run_id.as_deref() == Some("r1")),
            "--resume" => ("r1", |p| p.durability.resume.as_deref() == Some("r1")),
            "--runs-dir" => ("runs", |p| p.durability.runs_dir.as_deref() == Some("runs")),
            "--durability" => ("safe", |p| {
                p.durability.durability == Some(Durability::Safe)
            }),
            "--inject-crash" => ("advection:2", |p| {
                p.durability.inject_crash == Some(("advection".into(), 2))
            }),
            "--inject-stall" => ("lyapunov:0", |p| {
                p.durability.inject_stall == Some(("lyapunov".into(), 0))
            }),
            "--validate" => ("25", |p| p.validate == Some(25)),
            "--isolate" => ("", |p| p.harness.isolate),
            "--watchdog" => ("60", |p| {
                p.harness.watchdog == Some(Duration::from_secs(60))
            }),
            "--stall-timeout" => ("1", |p| {
                p.harness.stall_timeout == Some(Duration::from_secs(1))
            }),
            "--heartbeat" => ("25", |p| p.harness.heartbeat_ms == Some(25)),
            "--max-rss" => ("512", |p| p.harness.max_rss_mb == Some(512)),
            "--max-restarts" => ("15", |p| p.harness.max_restarts == Some(15)),
            "--chaos-kill-after" => ("4", |p| p.harness.chaos_kill_after == Some(4)),
            "--chaos-corrupt-tail" => ("9", |p| p.harness.chaos_corrupt_tail == Some(9)),
            "--worker-heartbeat" => ("250", |p| p.harness.worker_heartbeat_ms == Some(250)),
            "--addr" => ("127.0.0.1:0", |p| {
                p.serve.addr.as_deref() == Some("127.0.0.1:0")
            }),
            "--workers" => ("7", |p| p.serve.workers == Some(7)),
            "--queue-cap" => ("8", |p| p.serve.queue_cap == Some(8)),
            "--breaker-threshold" => ("4", |p| p.serve.breaker_threshold == Some(4)),
            "--retry-after" => ("7", |p| p.serve.retry_after == Some(7)),
            "--no-cache" => ("", |p| p.serve.no_cache),
            "--gc-max-age" => ("60", |p| {
                p.serve.gc.max_age == Some(Duration::from_secs(60))
            }),
            "--gc-keep" => ("3", |p| p.serve.gc.keep == Some(3)),
            "--server" => ("h:1", |p| p.serve.server.as_deref() == Some("h:1")),
            "--wait" => ("", |p| p.serve.wait),
            "--dry-run" => ("", |p| p.serve.dry_run),
            "--out" => ("atlas", |p| p.sweep.out.as_deref() == Some("atlas")),
            "--via" => ("h:1", |p| p.sweep.via.as_deref() == Some("h:1")),
            "--no-bisect" => ("", |p| p.sweep.no_bisect),
            "--coarse" => ("4", |p| p.sweep.coarse == Some(4)),
            "--resolution" => ("2", |p| p.sweep.resolution == Some(2)),
            "--sweep-crash-after" => ("5", |p| p.sweep.crash_after == Some(5)),
            "--no-reduce" => ("", |p| p.reduction == Reduction::Off),
            "--trace-level" => ("iter", |p| p.trace.level == Some(TraceLevel::Iter)),
            "--trace-out" => ("traces", |p| p.trace.out.as_deref() == Some("traces")),
            other => panic!("no sample for {other}"),
        }
    }

    #[test]
    fn every_flag_parses_on_its_subcommands_and_is_rejected_elsewhere() {
        for flag in FLAGS {
            let (value, check) = sample(flag.name);
            assert_eq!(flag.takes_value(), !value.is_empty(), "{}", flag.name);
            for cmd in Cmd::ALL {
                let line: Vec<String> = [cmd.name(), flag.name, value]
                    .into_iter()
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
                let parsed = parse_args(&line);
                if flag.cmds.contains(&cmd) {
                    let (got, p) = parsed.unwrap_or_else(|e| panic!("{line:?}: {e}")).unwrap();
                    assert_eq!(got, cmd);
                    assert!(check(&p), "{line:?} did not set its field");
                } else {
                    let want = format!("{} does not apply to '{}'", flag.name, cmd.name());
                    assert_eq!(parsed.err(), Some(want), "{line:?}");
                }
            }
        }
    }

    #[test]
    fn bad_values_and_unknown_input_keep_their_messages() {
        let err = |line: &str| parse_args(&args(line)).err().unwrap();
        assert_eq!(err("pll 3 --retries x"), "--retries: not a count: x");
        assert_eq!(
            err("pll 3 --deadline -1"),
            "--deadline: must be a non-negative number of seconds: -1"
        );
        assert_eq!(
            err("pll 3 --watchdog soon"),
            "--watchdog: not a number of seconds: soon"
        );
        assert_eq!(
            err("verify a --inject-crash advection"),
            "--inject-crash: expected <stage>:<n>, got advection"
        );
        assert_eq!(
            err("verify a --inject-stall advection:x"),
            "--inject-stall: not a solve index: x"
        );
        assert_eq!(
            err("verify a --durability slow"),
            "--durability: expected fast|safe, got slow"
        );
        assert_eq!(
            err("verify a --reduce-mode legacy"),
            "unknown flag: --reduce-mode"
        );
        assert_eq!(
            err("sweep s.json --via h:1 --no-reduce"),
            "--no-reduce cannot be combined with --via"
        );
        assert_eq!(
            err("verify a --trace-level all"),
            "--trace-level: expected off|stage|solve|iter, got all"
        );
        assert_eq!(err("verify a --deadline"), "--deadline requires a value");
        assert_eq!(err("verify a --frobnicate"), "unknown flag: --frobnicate");
        assert!(parse_args(&args("")).unwrap().is_none());
        assert!(parse_args(&args("frob --retries 2")).unwrap().is_none());
        // Flags may come before the subcommand; later values win.
        let (cmd, p) = parse_args(&args("--retries 1 pll 3 --retries 4"))
            .unwrap()
            .unwrap();
        assert_eq!((cmd, p.resilience.retries), (Cmd::Pll, 4));
        assert_eq!(p.positional, ["pll", "3"]);
    }

    #[test]
    fn help_is_recognised_anywhere_but_help_only_as_the_subcommand() {
        assert!(wants_help(&args("help")));
        assert!(wants_help(&args("--help")));
        assert!(wants_help(&args("pll 3 -h")));
        assert!(!wants_help(&args("verify help")));
    }

    #[test]
    fn usage_lists_each_visible_flag_once_per_accepting_subcommand() {
        let text = usage();
        assert!(!text.contains("--worker-heartbeat"), "{text}");
        let mut seen = std::collections::HashMap::<&str, Vec<String>>::new();
        let mut section: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(cmds) = line.strip_suffix(" flags:") {
                section = cmds.split(", ").collect();
            } else if let Some(rest) = line.strip_prefix("  --") {
                let name = format!("--{}", rest.split_whitespace().next().unwrap());
                for cmd in &section {
                    seen.entry(cmd).or_default().push(name.clone());
                }
            }
        }
        for cmd in Cmd::ALL {
            let want: Vec<String> = FLAGS
                .iter()
                .filter(|f| f.role != Role::Hidden && f.cmds.contains(&cmd))
                .map(|f| f.name.to_string())
                .collect();
            let got = seen.remove(cmd.name()).unwrap_or_default();
            assert_eq!(got, want, "section for '{}'", cmd.name());
        }
        assert!(
            seen.is_empty(),
            "sections for unknown subcommands: {seen:?}"
        );
    }

    /// Positionals in order, then the `(flag, value)` pairs sorted: two
    /// command lines that normalise equally parse to the same run.
    fn normalise(args: &[String]) -> (Vec<String>, Vec<(String, String)>) {
        let (flags, positional) = split_flags(args, |_| true);
        let mut pairs = Vec::new();
        let mut it = flags.into_iter();
        while let Some(name) = it.next() {
            let value = if Flag::find(&name).unwrap().takes_value() {
                it.next().unwrap()
            } else {
                String::new()
            };
            pairs.push((name, value));
        }
        pairs.sort();
        (positional, pairs)
    }

    /// Every flag except the two journal flags and the hidden one.
    const EVERY_FLAG: &str = "verify toy.json --retries 5 --solve-timeout 1.5 --deadline 9 \
        --threads 2 --runs-dir runs --durability safe --inject-crash advection:0 \
        --inject-stall lyapunov:1 --validate 25 --isolate --watchdog 60 --stall-timeout 1 \
        --heartbeat 25 --max-rss 512 --max-restarts 15 --chaos-kill-after 1 \
        --chaos-corrupt-tail 9 --addr 127.0.0.1:0 --workers 2 --queue-cap 8 \
        --breaker-threshold 4 --retry-after 7 --gc-max-age 60 --gc-keep 3 --no-cache \
        --server 127.0.0.1:7171 --wait --dry-run --out atlas --via 127.0.0.1:7172 --no-bisect \
        --coarse 4 --resolution 2 --sweep-crash-after 5 --no-reduce \
        --trace-level solve --trace-out traces";

    /// What the hand-kept strip lists produced for [`EVERY_FLAG`] before the
    /// flag table replaced them, minus the journal flag and the heartbeat,
    /// which are appended per case.
    const OLD_BASE: &str = "verify toy.json --retries 5 --solve-timeout 1.5 --deadline 9 \
        --threads 2 --runs-dir runs --durability safe --validate 25 --addr 127.0.0.1:0 \
        --workers 2 --queue-cap 8 --breaker-threshold 4 --retry-after 7 --gc-max-age 60 \
        --gc-keep 3 --no-cache --server 127.0.0.1:7171 --wait --dry-run --out atlas \
        --via 127.0.0.1:7172 --no-bisect --coarse 4 --resolution 2 --sweep-crash-after 5 \
        --no-reduce --trace-level solve --trace-out traces";
    const OLD_ONE_SHOT: &str = "--inject-crash advection:0 --inject-stall lyapunov:1";

    #[test]
    fn worker_command_lines_match_the_old_strip_lists() {
        // (journal flags on the command line, run id, resuming, old initial
        // journal flag, old resume journal flag)
        let cases = [
            ("--run-id r1", "r1", false, "--run-id r1", "--resume r1"),
            ("--resume r1", "r1", true, "--resume r1", "--resume r1"),
            (
                "",
                "isolate-1",
                false,
                "--run-id isolate-1",
                "--resume isolate-1",
            ),
        ];
        for (journal, run_id, resuming, old_initial, old_resume) in cases {
            let raw = args(&format!("{EVERY_FLAG} {journal}"));
            let spec = worker_spec(PathBuf::from("cppll"), &raw, run_id, resuming, 25);
            let heartbeat = "--worker-heartbeat 25";
            let initial = args(&format!(
                "{OLD_BASE} {OLD_ONE_SHOT} {old_initial} {heartbeat}"
            ));
            let resume = args(&format!("{OLD_BASE} {old_resume} {heartbeat}"));
            assert_eq!(
                normalise(&spec.initial_args),
                normalise(&initial),
                "{journal}"
            );
            assert_eq!(
                normalise(&spec.resume_args),
                normalise(&resume),
                "{journal}"
            );
        }
    }

    #[test]
    fn every_flag_the_readme_mentions_exists() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
        let readme = std::fs::read_to_string(path).unwrap();
        let mut checked = 0;
        for line in readme.lines() {
            // Cargo command lines carry cargo's own flags; only what follows
            // `--bin cppll --` belongs to cppll.
            let line = match line.split_once("cargo ") {
                Some((_, rest)) => match rest.split_once("--bin cppll --") {
                    Some((_, cppll)) => cppll,
                    None => continue,
                },
                None => line,
            };
            for (i, _) in line.match_indices("--") {
                let name: String = line[i + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                if name.starts_with(|c: char| c.is_ascii_lowercase()) {
                    let flag = format!("--{name}");
                    let known = Flag::find(&flag).is_some() || HELP.contains(&flag.as_str());
                    assert!(known, "README mentions unknown {flag}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 40, "only {checked} flag mentions found");
    }

    #[test]
    fn via_body_forwards_the_sweep_resilience_flags() {
        let spec = cppll_verify::SystemSpec::from_json_str(EXAMPLE_SPEC).unwrap();
        let problem = CellProblem {
            system: spec.build_system().unwrap(),
            boundary: spec.build_boundary().unwrap(),
            initial_radii: spec.initial_radii.clone(),
            degree: spec.degree,
        };
        let (_, p) = parse_args(&args(
            "sweep s.json --retries 5 --deadline 9 --solve-timeout 1.5",
        ))
        .unwrap()
        .unwrap();
        let job =
            cppll_serve::JobRequest::from_json_str(&via_body(&problem, &p.resilience)).unwrap();
        assert_eq!(job.retries, Some(5));
        assert_eq!(job.deadline_secs, Some(9.0));
        assert_eq!(job.solve_timeout_secs, Some(1.5));
        // Left at their defaults, the flags stay out of the job.
        let job = cppll_serve::JobRequest::from_json_str(&via_body(
            &problem,
            &ResilienceConfig::default(),
        ))
        .unwrap();
        assert_eq!(
            (job.retries, job.deadline_secs, job.solve_timeout_secs),
            (None, None, None)
        );
    }
}
