//! Executing one job on a worker, and the knobs for how.
//!
//! The default runner launches the `cppll` binary itself as a supervised,
//! process-isolated worker (via `cppll-harness`): a crashing or hanging
//! solve can never take the daemon down, and a killed worker resumes from
//! its run journal bit-identically. An in-process runner exists for unit
//! tests and throughput benchmarks, where process spawning is noise.

use std::path::PathBuf;
use std::time::Duration;

use cppll_harness::{run_supervised, ChaosPlan, HarnessError, HarnessOptions, WorkerSpec};
use cppll_json::ToJson;
use cppll_trace::Tracer;
use cppll_verify::spec::run_inevitability;
use cppll_verify::{CheckpointConfig, Durability, PipelineOptions, ResilienceConfig};

use crate::job::{JobKind, JobRequest};

/// How jobs are executed.
#[derive(Debug, Clone)]
pub enum JobRunner {
    /// Supervised worker processes running `program` (normally the `cppll`
    /// binary itself).
    Process {
        /// Worker executable.
        program: PathBuf,
    },
    /// Run the pipeline on the worker thread itself. No isolation, no
    /// crash-resume — for tests and benchmarks only.
    InProcess,
}

/// Supervision defaults applied to every worker (a job may override its
/// restart budget).
#[derive(Debug, Clone)]
pub struct WorkerSupervision {
    /// Liveness watchdog window.
    pub watchdog: Duration,
    /// Journal-mtime stall window.
    pub stall_timeout: Option<Duration>,
    /// Worker heartbeat interval (ms).
    pub heartbeat_ms: u64,
    /// RSS ceiling (MiB).
    pub max_rss_mb: Option<u64>,
    /// Restart budget per job.
    pub max_restarts: usize,
}

impl Default for WorkerSupervision {
    fn default() -> Self {
        WorkerSupervision {
            watchdog: Duration::from_secs(30),
            stall_timeout: None,
            heartbeat_ms: 500,
            max_rss_mb: None,
            max_restarts: 3,
        }
    }
}

/// How a job execution ended.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The worker reached a final verdict (exit 0 or 2).
    Final {
        /// Whether the claim was verified.
        verified: bool,
        /// Canonical result digest.
        digest: String,
        /// Short verdict text.
        verdict: String,
        /// Supervisor restarts spent on this job.
        restarts: u64,
    },
    /// The restart budget ran out — the spec's workers keep dying, which
    /// is what feeds the circuit breaker.
    Exhausted {
        /// Attempts performed.
        attempts: usize,
        /// Stderr tail of the last attempt.
        stderr_tail: Vec<String>,
    },
    /// The job could not be executed at all (spawn failure, invalid spec,
    /// worker usage error).
    Error {
        /// What went wrong.
        reason: String,
        /// Stderr tail, when a worker got far enough to produce one.
        stderr_tail: Vec<String>,
    },
}

/// Everything `run_job` needs besides the request itself.
pub struct JobContext<'a> {
    /// The runner.
    pub runner: &'a JobRunner,
    /// Supervision defaults.
    pub supervision: &'a WorkerSupervision,
    /// Base directory for run journals.
    pub runs_dir: &'a std::path::Path,
    /// Journal durability for workers.
    pub durability: Durability,
    /// Run id (also names the journal directory).
    pub run_id: &'a str,
    /// Counter sink.
    pub tracer: Option<&'a Tracer>,
}

/// Extracts the `result digest: <hex>` line from worker output.
fn output_digest(lines: &[String]) -> Option<String> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix("result digest: "))
        .map(str::to_string)
}

/// Extracts the `verdict: …` line from worker output.
fn output_verdict(lines: &[String]) -> String {
    lines
        .iter()
        .find_map(|l| l.strip_prefix("verdict: "))
        .unwrap_or("unknown")
        .to_string()
}

fn push_resilience_flags(args: &mut Vec<String>, req: &JobRequest) {
    if let Some(secs) = req.deadline_secs {
        args.push("--deadline".into());
        args.push(format!("{secs}"));
    }
    if let Some(secs) = req.solve_timeout_secs {
        args.push("--solve-timeout".into());
        args.push(format!("{secs}"));
    }
    if let Some(n) = req.retries {
        args.push("--retries".into());
        args.push(n.to_string());
    }
}

fn run_process_job(
    program: &std::path::Path,
    ctx: &JobContext<'_>,
    req: &JobRequest,
) -> JobOutcome {
    let run_dir = ctx.runs_dir.join(ctx.run_id);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        return JobOutcome::Error {
            reason: format!("cannot create run dir {}: {e}", run_dir.display()),
            stderr_tail: Vec::new(),
        };
    }

    // Subcommand + positionals.
    let mut base: Vec<String> = match &req.kind {
        JobKind::Verify { spec } => {
            let spec_path = run_dir.join("spec.json");
            let text = spec.to_json().to_pretty_string();
            if let Err(e) = std::fs::write(&spec_path, text) {
                return JobOutcome::Error {
                    reason: format!("cannot write {}: {e}", spec_path.display()),
                    stderr_tail: Vec::new(),
                };
            }
            vec!["verify".into(), spec_path.to_string_lossy().into_owned()]
        }
        JobKind::Pll { order, degree } => {
            vec!["pll".into(), order.to_string(), degree.to_string()]
        }
    };
    base.push("--runs-dir".into());
    base.push(ctx.runs_dir.to_string_lossy().into_owned());
    base.push("--durability".into());
    base.push(ctx.durability.name().into());
    base.push("--worker-heartbeat".into());
    base.push(ctx.supervision.heartbeat_ms.max(1).to_string());
    push_resilience_flags(&mut base, req);

    let journal = run_dir.join("journal.jsonl");
    let spec = WorkerSpec::journaled(program.to_path_buf(), base, ctx.run_id);
    let opt = HarnessOptions {
        watchdog: ctx.supervision.watchdog,
        stall_timeout: ctx.supervision.stall_timeout,
        progress_file: Some(journal.clone()),
        max_rss_kb: ctx.supervision.max_rss_mb.map(|mb| mb.saturating_mul(1024)),
        max_restarts: req
            .max_restarts
            .map(|n| n as usize)
            .unwrap_or(ctx.supervision.max_restarts),
        chaos: req.chaos_kill_after.map(|n| ChaosPlan {
            kill_after_heartbeats: n,
            growth: 2,
            corrupt_tail: req.chaos_corrupt_tail.map(|bytes| (journal.clone(), bytes)),
        }),
        tracer: ctx.tracer.cloned(),
        forward_output: false,
    };

    match run_supervised(&spec, &opt) {
        Ok(report) => {
            if let Some(t) = ctx.tracer {
                if report.restarts > 0 {
                    t.counter("worker_restarts", report.restarts as u64);
                    t.counter("jobs_resumed", 1);
                }
            }
            match report.exit_code {
                0 | 2 => match output_digest(&report.output) {
                    Some(digest) => JobOutcome::Final {
                        verified: report.exit_code == 0,
                        digest,
                        verdict: output_verdict(&report.output),
                        restarts: report.restarts as u64,
                    },
                    None => JobOutcome::Error {
                        reason: format!(
                            "worker exited {} without a result digest",
                            report.exit_code
                        ),
                        stderr_tail: report.stderr_tail,
                    },
                },
                code => JobOutcome::Error {
                    reason: format!("worker usage error (exit {code})"),
                    stderr_tail: report.stderr_tail,
                },
            }
        }
        Err(HarnessError::GaveUp {
            attempts,
            stderr_tail,
            ..
        }) => JobOutcome::Exhausted {
            attempts,
            stderr_tail,
        },
        Err(e @ HarnessError::Spawn { .. }) => JobOutcome::Error {
            reason: e.to_string(),
            stderr_tail: Vec::new(),
        },
    }
}

fn run_inprocess_job(ctx: &JobContext<'_>, req: &JobRequest) -> JobOutcome {
    let defaults = ResilienceConfig::default();
    let resilience = ResilienceConfig {
        deadline: req.deadline_secs.map(Duration::from_secs_f64),
        solve_timeout: req.solve_timeout_secs.map(Duration::from_secs_f64),
        retries: req.retries.map_or(defaults.retries, |n| n as usize),
        ..defaults
    };
    let checkpoint = Some(
        CheckpointConfig::new(ctx.run_id.to_string())
            .with_dir(ctx.runs_dir.to_string_lossy().into_owned())
            .with_durability(ctx.durability),
    );
    let options = |degree: u32| {
        let mut opt = PipelineOptions::degree(degree);
        opt.resilience = resilience.clone();
        opt.checkpoint = checkpoint.clone();
        opt
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &req.kind {
        JobKind::Verify { spec } => {
            run_inevitability(spec, &options(spec.degree), None).map(|(report, _)| report)
        }
        JobKind::Pll { order, degree } => {
            let order = match order {
                3 => cppll_pll::PllOrder::Third,
                _ => cppll_pll::PllOrder::Fourth,
            };
            let model = cppll_pll::PllModelBuilder::new(order).build();
            cppll_verify::InevitabilityVerifier::for_pll(&model)
                .verify(&options(*degree))
                .map_err(cppll_verify::SpecError::Verify)
        }
    }));
    match outcome {
        Ok(Ok(report)) => JobOutcome::Final {
            verified: report.verdict.is_verified(),
            digest: report.result_digest(),
            verdict: format!("{:?}", report.verdict),
            restarts: 0,
        },
        Ok(Err(e)) => JobOutcome::Error {
            reason: e.to_string(),
            stderr_tail: Vec::new(),
        },
        Err(_) => JobOutcome::Error {
            reason: "worker panicked".into(),
            stderr_tail: Vec::new(),
        },
    }
}

/// Executes one job to an outcome. Blocking: call from a worker thread.
pub fn run_job(ctx: &JobContext<'_>, req: &JobRequest) -> JobOutcome {
    match ctx.runner {
        JobRunner::Process { program } => run_process_job(program, ctx, req),
        JobRunner::InProcess => run_inprocess_job(ctx, req),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_and_verdict_extraction() {
        let lines = vec![
            "verdict: Inevitable { advection_sufficed: true }".to_string(),
            "result digest: c31e1167d4a9bf69".to_string(),
        ];
        assert_eq!(output_digest(&lines).unwrap(), "c31e1167d4a9bf69");
        assert!(output_verdict(&lines).starts_with("Inevitable"));
        assert_eq!(output_digest(&[]), None);
        assert_eq!(output_verdict(&[]), "unknown");
    }

    #[test]
    fn inprocess_runner_completes_a_toy_job() {
        let dir = std::env::temp_dir().join("cppll-serve-pool/inproc");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let req = JobRequest::from_json_str(
            r#"{"kind":"verify","spec":{
              "states": 1,
              "modes": [{"name": "only", "flow": ["-1 x0"]}],
              "boundary": ["2 - 1 x0", "2 + 1 x0"],
              "initial_radii": [1.0]
            }}"#,
        )
        .unwrap();
        let ctx = JobContext {
            runner: &JobRunner::InProcess,
            supervision: &WorkerSupervision::default(),
            runs_dir: &dir,
            durability: Durability::Fast,
            run_id: "job-1",
            tracer: None,
        };
        match run_job(&ctx, &req) {
            JobOutcome::Final {
                verified, digest, ..
            } => {
                assert!(verified);
                assert_eq!(digest.len(), 16);
            }
            other => panic!("expected Final, got {other:?}"),
        }
        assert!(
            dir.join("job-1/journal.jsonl").exists(),
            "in-process jobs still journal"
        );
    }
}
