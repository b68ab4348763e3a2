//! `perfbench compare`: two sets of run records, one verdict per workload
//! and end-to-end metric.

use std::collections::BTreeMap;
use std::process::ExitCode;

use cppll_json::Value;

use crate::stats::quartiles;

/// How one metric moved from the base runs to the new runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound, so a move within it
    /// cannot be told from noise.
    Unresolved,
}

/// Set-up times are microseconds for most workloads, far below scheduling
/// noise: a set-up change or spread smaller than this is never a verdict.
const SETUP_FLOOR_S: f64 = 0.010;

/// The verdict for one metric. The allowance is `bound` times a median, but
/// at least `floor`: the new median may move that far either way and still
/// be unchanged. A quartile spread wider than the allowance leaves the
/// metric unresolved, unless every new run beats every base run (with at
/// least three runs a side).
pub fn verdict(
    base: &[f64],
    new: &[f64],
    bound: f64,
    floor: f64,
    higher_is_better: bool,
) -> Verdict {
    // Positive = worse.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let [b1, bm, b3] = quartiles(base);
    let [n1, nm, n3] = quartiles(new);
    let allowance = |median: f64| (bound * median).max(floor);
    if b3 - b1 > allowance(bm) || n3 - n1 > allowance(nm) {
        let all_beat = base.len() >= 3
            && new.len() >= 3
            && new
                .iter()
                .all(|&n| base.iter().all(|&b| sign * (n - b) < 0.0));
        return if all_beat {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let moved = sign * (nm - bm);
    if moved > allowance(bm) {
        Verdict::Worse
    } else if moved < -allowance(bm) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One declared end-to-end metric.
struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
    let doc = cppll_json::parse(&text).map_err(|e| format!("{spec}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or(format!("{spec}: no end_to_end list"))?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Ok(Bound {
                name: s("name").ok_or("end_to_end entry without a name")?,
                unit: s("unit").unwrap_or_default(),
                higher_is_better: s("better").as_deref() == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// Untraced run records of the given files, by workload.
fn load_runs(files: &[String]) -> Result<BTreeMap<String, Vec<Value>>, String> {
    let mut runs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let v = cppll_json::parse(line).map_err(|e| format!("{f}:{}: {e}", i + 1))?;
            if v.get("trace").and_then(Value::as_bool) == Some(false) {
                let w = v
                    .get("workload")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                runs.entry(w).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// Four significant digits, whatever the magnitude.
fn sig(v: f64) -> String {
    if v == 0.0 || (1e-2..1e4).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

fn values(runs: &[Value], path: &[&str]) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            path.iter()
                .try_fold(r, |v, k| v.get(k))
                .and_then(Value::as_f64)
        })
        .collect()
}

/// `compare --base <file>... --new <file>... [--spec BENCHMARK.json]`.
pub fn cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut base = Vec::new();
    let mut new = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut target: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--base" => target = Some(&mut base),
            "--new" => target = Some(&mut new),
            "--spec" => {
                spec = it.next().ok_or("--spec needs a path")?.clone();
                target = None;
            }
            f => target
                .as_mut()
                .ok_or(format!("unexpected argument {f}"))?
                .push(f.to_string()),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err(
            "usage: perfbench compare --base <file>... --new <file>... [--spec <json>]".into(),
        );
    }
    let bounds = load_bounds(&spec)?;
    let base = load_runs(&base)?;
    let new = load_runs(&new)?;

    let mut bad = 0;
    println!(
        "{:<10} {:<20} {:>28} {:>28} {:>6} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "bound", "change"
    );
    for (w, base_runs) in &base {
        let Some(new_runs) = new.get(w) else {
            println!("{w:<10} missing from the new runs");
            bad += 1;
            continue;
        };
        for b in &bounds {
            let bv = values(base_runs, &["metrics", &b.name, "value"]);
            let nv = values(new_runs, &["metrics", &b.name, "value"]);
            if bv.is_empty() || nv.is_empty() {
                println!("{w:<10} {:<20} missing", b.name);
                bad += 1;
                continue;
            }
            let floor = if b.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(&bv, &nv, b.bound, floor, b.higher_is_better);
            let (bq, nq) = (quartiles(&bv), quartiles(&nv));
            let show =
                |q: [f64; 3]| format!("{} [{}, {}] {}", sig(q[1]), sig(q[0]), sig(q[2]), b.unit);
            println!(
                "{w:<10} {:<20} {:>28} {:>28} {:>5.0}% {:>+7.2}%  {v:?}  (n={}/{})",
                b.name,
                show(bq),
                show(nq),
                100.0 * b.bound,
                100.0 * (nq[1] - bq[1]) / bq[1],
                bv.len(),
                nv.len()
            );
            bad += usize::from(v == Verdict::Worse);
        }
        // Outcome ratios must not move the wrong way at all.
        for (key, higher) in [("failed_ops_ratio", false), ("certified_ratio", true)] {
            let (bv, nv) = (
                values(base_runs, &["info", key]),
                values(new_runs, &["info", key]),
            );
            let (bm, nm) = (quartiles(&bv)[1], quartiles(&nv)[1]);
            let worse = if higher { nm < bm } else { nm > bm };
            println!(
                "{w:<10} {key:<20} {bm:>28.4} {nm:>28.4} {:>6} {:>8}  {}",
                "-",
                "",
                if worse { "Worse" } else { "Unchanged" }
            );
            bad += usize::from(worse);
        }
    }
    for w in new.keys().filter(|w| !base.contains_key(*w)) {
        println!("{w:<10} missing from the base runs");
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_samples() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Same distribution: unchanged.
        assert_eq!(
            verdict(&base, &[10.02, 9.98, 10.0], 0.1, 0.0, false),
            Verdict::Unchanged
        );
        // 20% slower with a tight spread: worse; for a higher-is-better
        // metric the same move is better.
        let slow = [12.0, 12.1, 11.9];
        assert_eq!(verdict(&base, &slow, 0.1, 0.0, false), Verdict::Worse);
        assert_eq!(verdict(&base, &slow, 0.1, 0.0, true), Verdict::Better);
        assert_eq!(verdict(&slow, &base, 0.1, 0.0, false), Verdict::Better);
        // A spread wider than the bound hides a small move…
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            verdict(&noisy, &[9.5, 10.5, 10.0], 0.1, 0.0, false),
            Verdict::Unresolved
        );
        // …unless every new run beats every base run.
        assert_eq!(
            verdict(&noisy, &[7.0, 7.5, 6.5], 0.1, 0.0, false),
            Verdict::Better
        );
        // Too few runs to claim that.
        assert_eq!(
            verdict(&noisy, &[7.0, 6.0], 0.1, 0.0, false),
            Verdict::Unresolved
        );
        // Microsecond set-up times: a doubling below the absolute floor is
        // neither a spread nor a move.
        let setup = [9e-6, 1e-5, 2e-5, 9.5e-6, 1.1e-5];
        assert_eq!(
            verdict(&setup, &[2e-5, 2.1e-5, 1.9e-5], 0.25, SETUP_FLOOR_S, false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&setup, &[2e-5, 2.1e-5, 1.9e-5], 0.25, 0.0, false),
            Verdict::Unresolved
        );
    }
}
