//! Job specs, job states, and the in-memory job registry.
//!
//! A *job* is one verification request: either a JSON system spec
//! (`"kind": "verify"`) or a built-in CP PLL benchmark (`"kind": "pll"`).
//! Every job is keyed by the same problem fingerprint the checkpoint
//! journals use, which is what makes the certificate cache and the circuit
//! breaker coherent with the on-disk run state.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use cppll_json::{ObjectBuilder, Value};
use cppll_pll::{PllModelBuilder, PllOrder};
use cppll_verify::spec::{spec_fingerprint, SystemSpec};
use cppll_verify::{InevitabilityVerifier, PipelineOptions};

/// What to verify.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// A JSON system spec.
    Verify {
        /// The parsed spec.
        spec: SystemSpec,
    },
    /// A built-in CP PLL benchmark.
    Pll {
        /// PLL order (3 or 4).
        order: u32,
        /// Certificate degree.
        degree: u32,
    },
}

/// One parsed job request.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// What to verify.
    pub kind: JobKind,
    /// Pipeline deadline in seconds (flows into the worker's supervisor).
    pub deadline_secs: Option<f64>,
    /// Per-solve timeout in seconds.
    pub solve_timeout_secs: Option<f64>,
    /// Per-solve retry budget.
    pub retries: Option<u64>,
    /// Worker restart budget for this job (overrides the server default;
    /// chiefly a chaos-testing knob).
    pub max_restarts: Option<u64>,
    /// Chaos: kill the worker after this many heartbeats (testing).
    pub chaos_kill_after: Option<u64>,
    /// Chaos: chop this many journal-tail bytes after each kill (testing).
    pub chaos_corrupt_tail: Option<u64>,
}

/// Why a job request could not be parsed.
#[derive(Debug, Clone)]
pub struct JobParseError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JobParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JobParseError {}

fn bad(message: impl Into<String>) -> JobParseError {
    JobParseError {
        message: message.into(),
    }
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, JobParseError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_f64()
            .filter(|f| f.is_finite() && *f >= 0.0)
            .map(Some)
            .ok_or_else(|| bad(format!("{key}: expected a nonnegative number"))),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, JobParseError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("{key}: expected a nonnegative integer"))),
    }
}

impl JobRequest {
    /// Parses a job request from JSON text.
    ///
    /// # Errors
    ///
    /// [`JobParseError`] on malformed JSON or an invalid spec.
    pub fn from_json_str(text: &str) -> Result<JobRequest, JobParseError> {
        let v = cppll_json::parse(text).map_err(|e| bad(format!("json: {e}")))?;
        let kind = match v.get("kind").and_then(Value::as_str) {
            Some("verify") => {
                let spec_v = v.get("spec").ok_or_else(|| bad("missing field 'spec'"))?;
                let spec = SystemSpec::from_json(spec_v).map_err(|e| bad(format!("spec: {e}")))?;
                JobKind::Verify { spec }
            }
            Some("pll") => {
                let order = v
                    .get("order")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad("pll: missing field 'order'"))?;
                if order != 3 && order != 4 {
                    return Err(bad("pll: order must be 3 or 4"));
                }
                let degree = v.get("degree").and_then(Value::as_u64).unwrap_or(4);
                JobKind::Pll {
                    order: order as u32,
                    degree: degree as u32,
                }
            }
            Some(other) => return Err(bad(format!("unknown kind '{other}'"))),
            None => return Err(bad("missing field 'kind' (\"verify\" or \"pll\")")),
        };
        Ok(JobRequest {
            kind,
            deadline_secs: opt_f64(&v, "deadline_secs")?,
            solve_timeout_secs: opt_f64(&v, "solve_timeout_secs")?,
            retries: opt_u64(&v, "retries")?,
            max_restarts: opt_u64(&v, "max_restarts")?,
            chaos_kill_after: opt_u64(&v, "chaos_kill_after")?,
            chaos_corrupt_tail: opt_u64(&v, "chaos_corrupt_tail")?,
        })
    }

    /// The problem fingerprint this job's checkpointed run will be keyed
    /// by — computed *before* any solving, so cache and breaker lookups
    /// are free.
    ///
    /// # Errors
    ///
    /// [`JobParseError`] when a verify spec is structurally invalid.
    pub fn fingerprint(&self) -> Result<u64, JobParseError> {
        match &self.kind {
            JobKind::Verify { spec } => {
                spec_fingerprint(spec).map_err(|e| bad(format!("spec: {e}")))
            }
            JobKind::Pll { order, degree } => {
                let order = match order {
                    3 => PllOrder::Third,
                    _ => PllOrder::Fourth,
                };
                let model = PllModelBuilder::new(order).build();
                let verifier = InevitabilityVerifier::for_pll(&model);
                Ok(verifier.problem_fingerprint(&PipelineOptions::degree(*degree)))
            }
        }
    }
}

/// Terminal/non-terminal state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is on it.
    Running,
    /// The worker reached a final verdict (exit 0 or 2).
    Completed {
        /// Whether the verdict certifies inevitability.
        verified: bool,
        /// Canonical result digest.
        digest: String,
        /// Restarts the supervisor performed for this job.
        restarts: u64,
        /// Whether this result came from the certificate cache.
        cached: bool,
    },
    /// The job ended without a verdict.
    Failed {
        /// What went wrong.
        reason: String,
        /// Bounded tail of the last worker's stderr.
        stderr_tail: Vec<String>,
    },
}

impl JobState {
    /// Whether the job is finished (completed or failed).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed { .. } | JobState::Failed { .. })
    }

    /// Short state label for JSON and logs.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed { .. } => "completed",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (monotonic).
    pub id: u64,
    /// Problem fingerprint.
    pub fingerprint: u64,
    /// Run id (names the journal directory).
    pub run_id: String,
    /// Current state.
    pub state: JobState,
    /// When the job was accepted.
    pub accepted_at: Instant,
    /// Seconds from acceptance to the terminal state.
    pub elapsed_secs: Option<f64>,
}

impl JobRecord {
    /// JSON rendering for the status endpoints.
    pub fn to_json(&self) -> Value {
        let mut b = ObjectBuilder::new()
            .field("id", self.id)
            .field("job", format!("job-{}", self.id))
            .field(
                "fingerprint",
                cppll_verify::checkpoint::fingerprint_hex(self.fingerprint),
            )
            .field("run_id", &self.run_id)
            .field("state", self.state.name());
        if let Some(elapsed) = self.elapsed_secs {
            b = b.field("elapsed_secs", elapsed);
        }
        match &self.state {
            JobState::Completed {
                verified,
                digest,
                restarts,
                cached,
            } => b
                .field("verified", *verified)
                .field("digest", digest.as_str())
                .field("restarts", *restarts)
                .field("cached", *cached)
                .build(),
            JobState::Failed {
                reason,
                stderr_tail,
            } => b
                .field("reason", reason.as_str())
                .field("stderr_tail", stderr_tail)
                .build(),
            _ => b.build(),
        }
    }
}

/// Thread-safe registry of every job this daemon instance has accepted.
#[derive(Default)]
pub struct JobRegistry {
    jobs: Mutex<BTreeMap<u64, JobRecord>>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> JobRegistry {
        JobRegistry::default()
    }

    /// Inserts a freshly accepted job.
    pub fn insert(&self, record: JobRecord) {
        self.jobs
            .lock()
            .expect("job registry")
            .insert(record.id, record);
    }

    /// Removes a job (used to roll back an insert the queue then refused).
    pub fn remove(&self, id: u64) {
        self.jobs.lock().expect("job registry").remove(&id);
    }

    /// A snapshot of one job.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.jobs.lock().expect("job registry").get(&id).cloned()
    }

    /// Marks a job running.
    pub fn mark_running(&self, id: u64) {
        if let Some(job) = self.jobs.lock().expect("job registry").get_mut(&id) {
            job.state = JobState::Running;
        }
    }

    /// Moves a job to a terminal state, stamping its elapsed time.
    pub fn finish(&self, id: u64, state: JobState) {
        if let Some(job) = self.jobs.lock().expect("job registry").get_mut(&id) {
            job.elapsed_secs = Some(job.accepted_at.elapsed().as_secs_f64());
            job.state = state;
        }
    }

    /// Snapshot of every job, in id order.
    pub fn all(&self) -> Vec<JobRecord> {
        self.jobs
            .lock()
            .expect("job registry")
            .values()
            .cloned()
            .collect()
    }

    /// Run ids of jobs that are not yet terminal — the set whose journals
    /// the garbage collector must never touch.
    pub fn protected_run_ids(&self) -> Vec<String> {
        self.jobs
            .lock()
            .expect("job registry")
            .values()
            .filter(|j| !j.state.is_terminal())
            .map(|j| j.run_id.clone())
            .collect()
    }

    /// Count of jobs not yet terminal.
    pub fn inflight(&self) -> usize {
        self.jobs
            .lock()
            .expect("job registry")
            .values()
            .filter(|j| !j.state.is_terminal())
            .count()
    }

    /// Count of jobs in a terminal state with the given name.
    pub fn count_state(&self, name: &str) -> usize {
        self.jobs
            .lock()
            .expect("job registry")
            .values()
            .filter(|j| j.state.name() == name)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec_json() -> &'static str {
        r#"{
          "states": 1,
          "modes": [{"name": "only", "flow": ["-1 x0"]}],
          "boundary": ["2 - 1 x0", "2 + 1 x0"],
          "initial_radii": [1.0]
        }"#
    }

    #[test]
    fn parses_a_verify_job_and_fingerprints_it_stably() {
        let body = format!(
            r#"{{"kind":"verify","spec":{},"retries":2}}"#,
            toy_spec_json()
        );
        let job = JobRequest::from_json_str(&body).unwrap();
        assert!(matches!(job.kind, JobKind::Verify { .. }));
        assert_eq!(job.retries, Some(2));
        let fp1 = job.fingerprint().unwrap();
        let fp2 = JobRequest::from_json_str(&body)
            .unwrap()
            .fingerprint()
            .unwrap();
        assert_eq!(fp1, fp2, "identical specs must share a fingerprint");
    }

    #[test]
    fn parses_a_pll_job() {
        let job = JobRequest::from_json_str(r#"{"kind":"pll","order":3,"degree":4}"#).unwrap();
        assert!(matches!(
            job.kind,
            JobKind::Pll {
                order: 3,
                degree: 4
            }
        ));
        job.fingerprint().unwrap();
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(JobRequest::from_json_str("not json").is_err());
        assert!(JobRequest::from_json_str(r#"{"kind":"nope"}"#).is_err());
        assert!(JobRequest::from_json_str(r#"{"kind":"pll","order":7}"#).is_err());
        assert!(JobRequest::from_json_str(r#"{"kind":"verify"}"#).is_err());
        let neg = format!(
            r#"{{"kind":"verify","spec":{},"deadline_secs":-1}}"#,
            toy_spec_json()
        );
        assert!(JobRequest::from_json_str(&neg).is_err());
    }

    #[test]
    fn registry_tracks_lifecycle_and_protected_runs() {
        let reg = JobRegistry::new();
        reg.insert(JobRecord {
            id: 1,
            fingerprint: 7,
            run_id: "job-1".into(),
            state: JobState::Queued,
            accepted_at: Instant::now(),
            elapsed_secs: None,
        });
        reg.insert(JobRecord {
            id: 2,
            fingerprint: 8,
            run_id: "job-2".into(),
            state: JobState::Queued,
            accepted_at: Instant::now(),
            elapsed_secs: None,
        });
        reg.mark_running(1);
        assert_eq!(reg.inflight(), 2);
        assert_eq!(
            reg.protected_run_ids(),
            vec!["job-1".to_string(), "job-2".to_string()]
        );
        reg.finish(
            1,
            JobState::Completed {
                verified: true,
                digest: "abc".into(),
                restarts: 0,
                cached: false,
            },
        );
        assert_eq!(reg.inflight(), 1);
        assert_eq!(reg.protected_run_ids(), vec!["job-2".to_string()]);
        let rec = reg.get(1).unwrap();
        assert!(rec.state.is_terminal());
        assert!(rec.elapsed_secs.is_some());
        let json = rec.to_json().to_compact_string();
        assert!(json.contains("\"state\":\"completed\""), "{json}");
        assert!(json.contains("\"digest\":\"abc\""), "{json}");
    }
}
