//! Retention garbage collection over a runs directory.
//!
//! A long-lived daemon accretes one journal directory per job plus one
//! cache entry per distinct fingerprint. GC applies a retention policy —
//! keep the newest N, drop anything older than a max age — while *never*
//! touching a run referenced by an in-flight job: a journal under GC is a
//! journal some worker may be about to resume from.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Retention policy. `None` fields do not constrain.
#[derive(Debug, Clone, Default)]
pub struct GcPolicy {
    /// Remove entries older than this.
    pub max_age: Option<Duration>,
    /// Keep at most this many newest entries (in-flight runs do not count
    /// against the budget — they are unconditionally kept).
    pub keep: Option<usize>,
}

impl GcPolicy {
    /// Whether the policy can ever remove anything.
    pub fn is_active(&self) -> bool {
        self.max_age.is_some() || self.keep.is_some()
    }
}

/// What one GC sweep did (or would do, when dry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined.
    pub scanned: usize,
    /// Entries removed (or removable, when dry).
    pub removed: usize,
    /// Entries kept by policy.
    pub kept: usize,
    /// Entries kept because an in-flight job references them.
    pub protected: usize,
}

/// One GC candidate: a run directory or a cache entry file.
struct Candidate {
    path: PathBuf,
    name: String,
    mtime: SystemTime,
    is_dir: bool,
}

fn scan_candidates(dir: &Path, want_dirs: bool) -> std::io::Result<Vec<Candidate>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() != want_dirs {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if want_dirs && name == "cache" {
            // The cache directory lives inside the runs directory but is
            // swept separately, file by file.
            continue;
        }
        out.push(Candidate {
            path: entry.path(),
            name,
            mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            is_dir: want_dirs,
        });
    }
    // Newest first, name as the tiebreak so the order is deterministic.
    out.sort_by(|a, b| b.mtime.cmp(&a.mtime).then(a.name.cmp(&b.name)));
    Ok(out)
}

fn sweep(
    candidates: Vec<Candidate>,
    policy: &GcPolicy,
    protected: &HashSet<String>,
    dry_run: bool,
    report: &mut GcReport,
) -> std::io::Result<()> {
    let now = SystemTime::now();
    let mut kept_by_budget = 0usize;
    for c in candidates {
        report.scanned += 1;
        if protected.contains(&c.name) {
            report.protected += 1;
            continue;
        }
        let over_budget = policy.keep.is_some_and(|k| kept_by_budget >= k);
        let too_old = policy.max_age.is_some_and(|max| {
            now.duration_since(c.mtime)
                .map(|age| age > max)
                .unwrap_or(false)
        });
        if over_budget || too_old {
            report.removed += 1;
            if !dry_run {
                if c.is_dir {
                    std::fs::remove_dir_all(&c.path)?;
                } else {
                    std::fs::remove_file(&c.path)?;
                }
            }
        } else {
            kept_by_budget += 1;
            report.kept += 1;
        }
    }
    Ok(())
}

/// Applies `policy` to every run directory under `runs_dir` and every
/// cache entry under `runs_dir/cache`. `protected` lists run ids (and, if
/// desired, cache file names) that must survive regardless of policy.
///
/// # Errors
///
/// Filesystem failures. A dry run only reads.
pub fn gc_runs(
    runs_dir: &Path,
    policy: &GcPolicy,
    protected: &HashSet<String>,
    dry_run: bool,
) -> std::io::Result<GcReport> {
    let mut report = GcReport::default();
    if !policy.is_active() {
        return Ok(report);
    }
    sweep(
        scan_candidates(runs_dir, true)?,
        policy,
        protected,
        dry_run,
        &mut report,
    )?;
    sweep(
        scan_candidates(&runs_dir.join("cache"), false)?,
        policy,
        protected,
        dry_run,
        &mut report,
    )?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cppll-serve-gc").join(test);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mk_run(dir: &Path, name: &str, age: Duration) {
        let run = dir.join(name);
        std::fs::create_dir_all(&run).unwrap();
        std::fs::write(run.join("journal.jsonl"), "header\n").unwrap();
        let mtime = SystemTime::now() - age;
        // set_modified is available on stable std since 1.75.
        let f = std::fs::File::open(&run).unwrap();
        f.set_modified(mtime).unwrap();
    }

    #[test]
    fn keep_budget_retains_newest_and_protected_runs() {
        let dir = scratch("budget");
        for (i, age) in [1u64, 100, 200, 300].iter().enumerate() {
            mk_run(&dir, &format!("job-{i}"), Duration::from_secs(*age));
        }
        let protected: HashSet<String> = ["job-3".to_string()].into_iter().collect();
        let policy = GcPolicy {
            keep: Some(2),
            max_age: None,
        };
        let report = gc_runs(&dir, &policy, &protected, false).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.protected, 1);
        assert_eq!(report.kept, 2);
        assert_eq!(report.removed, 1);
        assert!(dir.join("job-0").exists(), "newest kept");
        assert!(dir.join("job-1").exists(), "second newest kept");
        assert!(!dir.join("job-2").exists(), "over budget removed");
        assert!(dir.join("job-3").exists(), "in-flight run is untouchable");
    }

    #[test]
    fn age_policy_and_cache_sweep() {
        let dir = scratch("age");
        mk_run(&dir, "young", Duration::from_secs(1));
        mk_run(&dir, "old", Duration::from_secs(3600));
        let cache = dir.join("cache");
        std::fs::create_dir_all(&cache).unwrap();
        std::fs::write(cache.join("aaaa.json"), "{}").unwrap();
        let f = std::fs::File::open(cache.join("aaaa.json")).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(3600))
            .unwrap();
        std::fs::write(cache.join("bbbb.json"), "{}").unwrap();

        let policy = GcPolicy {
            max_age: Some(Duration::from_secs(60)),
            keep: None,
        };
        let report = gc_runs(&dir, &policy, &HashSet::new(), false).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.removed, 2);
        assert!(dir.join("young").exists());
        assert!(!dir.join("old").exists());
        assert!(!cache.join("aaaa.json").exists());
        assert!(cache.join("bbbb.json").exists());
    }

    #[test]
    fn dry_run_reports_without_removing() {
        let dir = scratch("dry");
        mk_run(&dir, "old", Duration::from_secs(3600));
        let policy = GcPolicy {
            max_age: Some(Duration::from_secs(60)),
            keep: None,
        };
        let report = gc_runs(&dir, &policy, &HashSet::new(), true).unwrap();
        assert_eq!(report.removed, 1);
        assert!(dir.join("old").exists(), "dry run must not delete");
    }

    #[test]
    fn inactive_policy_is_a_no_op() {
        let dir = scratch("noop");
        mk_run(&dir, "any", Duration::from_secs(3600));
        let report = gc_runs(&dir, &GcPolicy::default(), &HashSet::new(), false).unwrap();
        assert_eq!(report, GcReport::default());
        assert!(dir.join("any").exists());
    }
}
