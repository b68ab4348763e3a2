//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! perfbench run --seed <n> [--seconds <s>] [--traced] [--out <file>]
//! perfbench compare --base <file>... --new <file>... [--spec BENCHMARK.json]
//! ```
//!
//! The first form measures one workload in this process and prints every
//! metric by name with its unit; its last line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). `run` measures
//! every workload, each in a fresh child process. `--out` appends one full
//! record per run (metrics plus digests and outcome ratios) as a JSON line,
//! which is what `compare` reads. `run.sh` builds the benchmark and runs it.

mod compare;
mod fold;
mod metrics;
mod stats;
mod workloads;

use std::io::Write as _;
use std::process::{Command, ExitCode};

use cppll_json::{ObjectBuilder, Value};

use workloads::{Control, Summary, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => cmd_measure(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

/// `--flag value` pairs and bare `--flag`s.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a}"));
            }
            let value = if bare.contains(&a.as_str()) {
                None
            } else {
                Some(it.next().ok_or(format!("{a} needs a value"))?.clone())
            };
            out.push((a.clone(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn number(&self, flag: &str) -> Result<Option<f64>, String> {
        self.get(flag)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or(format!("{flag}: not a nonnegative number: {v}"))
            })
            .transpose()
    }
}

/// Measures one workload in this process.
fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    let workload = flags.get("--workload").ok_or(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]",
    )?;
    let seed = flags.get("--seed").ok_or("--seed is required")?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("--seed: not a count: {seed}"))?;
    let seconds = flags.number("--seconds")?.ok_or("--seconds is required")?;
    let traced = match flags.get("--trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let ctl = Control {
        seconds,
        traced,
        seed,
    };
    let outcome = match workload {
        "pll3-t1" => workloads::measure_pll(&workloads::PLL3_T1, &ctl),
        "pll4-t1" => workloads::measure_pll(&workloads::PLL4_T1, &ctl),
        "atlas-t1" => workloads::measure_atlas(&ctl),
        other => Err(format!(
            "unknown workload {other}; known: {}",
            WORKLOADS.join(", ")
        )),
    }?;
    let trees: Vec<String> = outcome.ops.iter().filter_map(|o| o.tree.clone()).collect();
    let summary = workloads::summarize(outcome, traced)?;

    println!(
        "{workload} (seed {seed}, {})",
        if traced { "traced" } else { "untraced" }
    );
    for (i, tree) in trees.iter().enumerate() {
        println!("trace tree, traced operation {}:", i + 1);
        print!("{tree}");
    }
    let defs = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for d in defs {
        println!(
            "  {:<28} {:>14.6} {}",
            d.name, summary.metrics[d.name], d.unit
        );
    }
    for (k, v) in &summary.info {
        println!("  {k:<28} {}", v.to_compact_string());
    }
    let metric_json = || {
        let mut b = ObjectBuilder::new();
        for d in defs {
            let v = summary.metrics[d.name];
            b = b.field(
                d.name,
                ObjectBuilder::new()
                    .field("value", v)
                    .field("unit", d.unit)
                    .build(),
            );
        }
        b.build()
    };
    if let Some(path) = flags.get("--out") {
        let mut info = ObjectBuilder::new();
        for (k, v) in &summary.info {
            info = info.field(k, v.clone());
        }
        let record = ObjectBuilder::new()
            .field("workload", workload)
            .field("seed", seed)
            .field("seconds", seconds)
            .field("trace", traced)
            .field(
                "nproc",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field("correct", summary.correct)
            .field("attempted", summary.attempted)
            .field("failed", summary.failed)
            .field("metrics", metric_json())
            .field("info", info.build())
            .build();
        append_line(path, &record.to_compact_string())?;
    }
    println!("{}", result_line(&summary, metric_json()));
    Ok(ExitCode::SUCCESS)
}

fn result_line(s: &Summary, metrics: Value) -> String {
    ObjectBuilder::new()
        .field("correct", s.correct)
        .field("attempted", s.attempted)
        .field("failed", s.failed)
        .field("metrics", metrics)
        .build()
        .to_compact_string()
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
}

/// `run`: every workload, each in a fresh child process; with `--traced`
/// each is then measured again with tracing on.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--traced"])?;
    let seed = flags
        .get("--seed")
        .ok_or("usage: perfbench run --seed <n> [--seconds <s>] [--traced] [--out <file>]")?;
    let seconds = match flags.number("--seconds")? {
        Some(s) => s,
        None => default_seconds()?,
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out: Vec<&str> = flags.get("--out").map_or(vec![], |f| vec!["--out", f]);
    let traces: &[&str] = if flags.has("--traced") {
        &["0", "1"]
    } else {
        &["0"]
    };
    for w in WORKLOADS {
        for trace in traces {
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", seed, "--trace", trace])
                .args(["--seconds", &seconds.to_string()])
                .args(&out)
                .status()
                .map_err(|e| format!("cannot run {w}: {e}"))?;
            if !status.success() {
                return Err(format!("{w} (trace {trace}) failed: {status}"));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `run_seconds` of `BENCHMARK.json` in the working directory.
fn default_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("no --seconds and no BENCHMARK.json: {e}"))?;
    cppll_json::parse(&text)
        .ok()
        .and_then(|v| v.get("run_seconds").and_then(Value::as_f64))
        .ok_or("BENCHMARK.json: no run_seconds".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{valid_name, END_TO_END, PER_LAYER};
    use cppll_verify::spec::SystemSpec;
    use cppll_verify::{InevitabilityVerifier, PipelineOptions, Region};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        cppll_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn strs(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|x| {
                x.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let rs = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&rs));

        let workloads = strs(&doc, "workloads");
        assert!((2..=8).contains(&workloads.len()));
        assert_eq!(workloads, WORKLOADS);
        for w in doc.get("workloads").and_then(Value::as_array).unwrap() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(!why.contains('\n') && why.len() <= 200, "{why}");
            assert_eq!(w.as_object().unwrap().len(), 2);
        }

        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        let layers = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut names = Vec::new();
        for (list, defs, with_bound) in [(e2e, END_TO_END, true), (layers, PER_LAYER, false)] {
            assert_eq!(list.len(), defs.len());
            for (m, d) in list.iter().zip(defs) {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                assert_eq!(s("name"), d.name);
                assert_eq!(s("unit"), d.unit);
                assert_eq!(
                    s("better"),
                    if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }
                );
                assert_eq!(m.as_object().unwrap().len(), if with_bound { 4 } else { 3 });
                assert!(valid_name(d.name), "{}", d.name);
                assert!(d.unit.len() <= 16);
                names.push(d.name);
            }
        }
        names.extend(WORKLOADS);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");

        let bound = |n: &str| {
            e2e.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(n))
                .and_then(|m| m.get("bound"))
                .and_then(Value::as_f64)
                .unwrap()
        };
        let setup = bound("setup_s");
        for d in END_TO_END {
            let b = bound(d.name);
            assert!(b > 0.0 && b <= 0.25 && b <= setup, "{}: {b}", d.name);
        }
    }

    fn toy_spec() -> SystemSpec {
        SystemSpec::from_json_str(
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
        .expect("toy spec")
    }

    #[test]
    fn toy_spiral_pass_emits_exactly_the_declared_metrics() {
        let spec = toy_spec();
        let system = spec.build_system().unwrap();
        let verifier = InevitabilityVerifier::new(
            &system,
            spec.build_boundary().unwrap(),
            Region::ellipsoid(&spec.initial_radii),
        );
        let opt = PipelineOptions::degree(2);
        for traced in [false, true] {
            let ctl = Control {
                seconds: 0.0,
                traced,
                seed: 1,
            };
            let out = workloads::measure_verify(&verifier, &opt, &ctl, 1e-3, "-").unwrap();
            assert_eq!(out.ops.len(), if traced { 2 } else { 1 });
            assert!(out.correct);
            let tree = out.ops.last().unwrap().tree.clone();
            assert_eq!(tree.is_some(), traced);
            // summarize fails unless the emitted names equal the declared set.
            let s = workloads::summarize(out, traced).unwrap();
            assert_eq!((s.attempted, s.failed), (if traced { 2 } else { 1 }, 0));
            if traced {
                assert!(s.metrics["sdp.iterations"] > 0.0);
                assert!(s.metrics["core.lyapunov_s"] > 0.0);
                assert!(s.metrics["core.unaccounted_s"] >= 0.0);
                assert!(tree.unwrap().contains("unaccounted"));
            }
        }
    }
}
