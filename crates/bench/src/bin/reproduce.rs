//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [--quick] [--only table1|fig2|fig3|fig4|fig5|table2|bench|ablations]
//! ```
//!
//! Prints the artefacts to stdout (tables as text, figures as extents plus
//! ASCII level curves) and writes the raw series as JSON under
//! `target/experiments/`.

use std::fs;
use std::path::PathBuf;

use cppll_bench::experiments::{self, AdvectionFigure, FigureResult};
use cppll_json::ToJson;

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

fn save_json<T: cppll_json::ToJson + ?Sized>(name: &str, value: &T) {
    let path = out_dir().join(format!("{name}.json"));
    let s = value.to_json().to_pretty_string();
    if let Err(e) = cppll_bench::write_atomic(&path, &s) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  [saved {}]", path.display());
    }
}

fn banner(title: &str) {
    println!(
        "\n=== {title} {}",
        "=".repeat(66_usize.saturating_sub(title.len()))
    );
}

fn print_figure(fig: &FigureResult) {
    for note in &fig.notes {
        println!("  {note}");
    }
    for curve in &fig.curves {
        println!("  {} — {} boundary points", curve.label, curve.points.len());
        let half = (curve.max_radius() * 1.2).max(1.0);
        for line in curve.ascii_plot(half, 58, 21) {
            println!("    |{line}|");
        }
        println!("    (window ±{half:.2})");
    }
}

fn print_advection(fig: &AdvectionFigure) {
    for note in &fig.notes {
        println!("  {note}");
    }
    println!(
        "  iterations: {}, included after: {:?}, escape certificates: {}",
        fig.iterations, fig.included_after, fig.escape_count
    );
    // Print the last plane of: initial set, every front, the AI.
    if let (Some(init), Some(ai)) = (fig.initial_curves.last(), fig.ai_curves.last()) {
        println!(
            "  outer set extent: x≤{:.2} y≤{:.2} | AI extent: x≤{:.2} y≤{:.2}",
            init.x_extent(),
            init.y_extent(),
            ai.x_extent(),
            ai.y_extent()
        );
        for (k, fronts) in fig.front_curves.iter().enumerate() {
            if let Some(c) = fronts.last() {
                println!(
                    "  front after iter {:2}: x≤{:.2} y≤{:.2}",
                    k + 1,
                    c.x_extent(),
                    c.y_extent()
                );
            }
        }
    }
}

/// Checks that the stage spans of each PLL flagship account for its
/// `pipeline` span: the time outside every stage must stay under 5% of it,
/// or the step rows do not say where the run's time went.
fn check_unaccounted(rows: &[experiments::BenchSdpRow]) -> Result<(), String> {
    const SHARE: f64 = 0.05;
    for row in rows.iter().filter(|r| r.problem.starts_with("pll_")) {
        let pipeline: u64 = row.steps.iter().map(|&(_, ns)| ns).sum();
        let Some(&("unaccounted", unaccounted)) = row.steps.last() else {
            return Err(format!("{} recorded no pipeline span", row.problem));
        };
        if unaccounted as f64 > SHARE * pipeline as f64 {
            return Err(format!(
                "{}: {:.3}s of the {:.3}s pipeline span lie outside every stage (limit {:.0}%)",
                row.problem,
                unaccounted as f64 / 1e9,
                pipeline as f64 / 1e9,
                100.0 * SHARE
            ));
        }
    }
    Ok(())
}

/// Compares every freshly measured pipeline wall-clock against the committed
/// baseline snapshot (`benchmarks/bench_baseline.json`, measured with the
/// serial solver the bench problems run on). Each problem listed
/// in the baseline section for this configuration is guarded; a problem
/// missing from the fresh rows is itself an error (a silently dropped
/// benchmark must not pass the guard). Returns an error string when any
/// measurement exceeds the allowed regression budget; `Ok(None)` when no
/// baseline is committed for this configuration.
fn check_bench_regression(
    rows: &[experiments::BenchSdpRow],
    quick: bool,
) -> Result<Option<String>, String> {
    const BUDGET: f64 = 1.25; // fail CI on a >25% wall-clock regression

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/bench_baseline.json");
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return Ok(None), // no committed baseline: nothing to guard
    };
    let doc = cppll_json::parse(&text)
        .map_err(|e| format!("unparseable baseline {}: {e:?}", path.display()))?;
    let section = if quick { "quick" } else { "full" };
    let Some(problems) = doc.get(section).and_then(|s| s.as_object()) else {
        return Ok(None); // baseline does not cover this configuration
    };
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (problem, entry) in problems {
        if problem.starts_with('_') {
            continue; // annotation keys (e.g. "_comment") are not problems
        }
        let baseline = entry
            .get("total_seconds")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| {
                format!(
                    "baseline {} lacks {section}.{problem}.total_seconds",
                    path.display()
                )
            })?;
        let row = rows
            .iter()
            .find(|r| r.problem == *problem)
            .ok_or_else(|| format!("bench rows lack baseline problem {problem}"))?;
        // The `total` stage row: solver total plus reduction.
        let (_, measured) = cppll_sdp::stage_seconds(&row.counters);
        let ratio = measured / baseline;
        // Retries and failed solves are costs: a total that moved because
        // the solve mix moved reads differently from a slower kernel.
        let mix = format!(
            "{:.2} attempts/solve over {} solves, {} failed",
            row.attempts as f64 / row.solves.max(1) as f64,
            row.solves,
            row.failed
        );
        if ratio > BUDGET {
            regressions.push(format!(
                "{problem} regressed: {measured:.2}s vs baseline {baseline:.2}s \
                 ({ratio:.2}x > {BUDGET:.2}x budget, section {section}; {mix})"
            ));
        } else {
            lines.push(format!(
                "{problem}: {measured:.2}s vs baseline {baseline:.2}s ({ratio:.2}x, budget {BUDGET:.2}x; {mix})"
            ));
        }
    }
    if !regressions.is_empty() {
        return Err(regressions.join("; "));
    }
    if lines.is_empty() {
        return Ok(None); // section present but empty: nothing guarded
    }
    Ok(Some(lines.join("\n  ")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);

    println!(
        "Reproduction harness — Ul Asad & Jones, \"Verifying inevitability of \
         phase-locking in a charge pump PLL using SOS programming\"{}",
        if quick { " [quick mode]" } else { "" }
    );

    if want("table1") {
        banner("Table 1: CP PLL parameters");
        let rows = experiments::table1();
        println!(
            "  {:<22} {:<28} {:<28}",
            "parameter", "third order", "fourth order"
        );
        for r in &rows {
            println!("  {:<22} {:<28} {:<28}", r.parameter, r.third, r.fourth);
        }
        save_json("table1", &rows);
    }

    if want("fig2") {
        banner("Figure 2: third-order attractive invariant");
        let fig = experiments::fig2(quick);
        print_figure(&fig);
        save_json("fig2", &fig);
    }

    if want("fig3") {
        banner("Figure 3: fourth-order attractive invariant");
        let fig = experiments::fig3(quick);
        print_figure(&fig);
        save_json("fig3", &fig);
    }

    if want("fig4") {
        banner("Figure 4: third-order bounded advection");
        let fig = experiments::fig4(quick);
        print_advection(&fig);
        save_json("fig4", &fig);
    }

    if want("fig5") {
        banner("Figure 5: fourth-order bounded advection");
        let fig = experiments::fig5(quick);
        print_advection(&fig);
        save_json("fig5", &fig);
        banner("Figure 5 (escape variant): leftover closed by escape certificates");
        let fig = experiments::fig5_escape_variant(quick);
        print_advection(&fig);
        save_json("fig5_escape", &fig);
    }

    if want("table2") {
        banner("Table 2: computation time of the inevitability verification");
        let t2 = experiments::table2(quick);
        println!(
            "  degrees: third = {}, fourth = {}; verified: {:?}",
            t2.degrees.0, t2.degrees.1, t2.verified
        );
        println!(
            "  supervised solves (solves/attempts): third = {}/{}, fourth = {}/{}",
            t2.solve_attempts.0 .0,
            t2.solve_attempts.0 .1,
            t2.solve_attempts.1 .0,
            t2.solve_attempts.1 .1
        );
        println!(
            "  {:<26} {:>12} {:>12} {:>14} {:>14}",
            "step", "3rd (s)", "4th (s)", "paper 3rd (s)", "paper 4th (s)"
        );
        for r in &t2.rows {
            let fmt_opt = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.1}"));
            println!(
                "  {:<26} {:>12.2} {:>12.2} {:>14} {:>14}",
                r.step,
                r.third_seconds,
                r.fourth_seconds,
                fmt_opt(r.paper_third),
                fmt_opt(r.paper_fourth)
            );
        }
        save_json("table2", &t2);
    }

    if want("bench") {
        banner("SDP hot path: per-stage solver timings");
        let b = experiments::bench_sdp(quick);
        for row in &b.rows {
            println!(
                "  {} — verified={}, {} solves / {} attempts, {} failed",
                row.problem, row.verified, row.solves, row.attempts, row.failed
            );
            let steps: Vec<String> = row
                .steps
                .iter()
                .map(|&(name, ns)| format!("{name} {:.2}s", ns as f64 / 1e9))
                .collect();
            println!("    pipeline: {}", steps.join(", "));
            if row.reduction.grams > 0 {
                println!("    reduction: {}", row.reduction);
            }
            for line in cppll_sdp::stage_report_lines(&row.counters).unwrap_or_default() {
                println!("    {line}");
            }
        }
        let path = cppll_bench::bench_sdp_json_path();
        match cppll_bench::merge_bench_sdp(&path, "pipeline", b.to_json()) {
            Ok(()) => println!("  [saved {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        if let Err(msg) = check_unaccounted(&b.rows) {
            eprintln!("error: [unaccounted guard] {msg}");
            std::process::exit(1);
        }
        match check_bench_regression(&b.rows, quick) {
            Ok(Some(line)) => println!("  [regression guard] {line}"),
            Ok(None) => {
                println!("  [regression guard] no committed baseline for this configuration")
            }
            Err(msg) => {
                eprintln!("error: [regression guard] {msg}");
                std::process::exit(1);
            }
        }
    }

    if want("ablations") {
        banner("Ablation: certificate degree (third order)");
        let rows = experiments::ablation_degree();
        for r in &rows {
            println!(
                "  {:<32} feasible={:<5} {:.2}s",
                r.config, r.feasible, r.seconds
            );
        }
        save_json("ablation_degree", &rows);

        banner("Ablation: certificate scheme");
        let rows = experiments::ablation_scheme();
        for r in &rows {
            println!(
                "  {:<32} feasible={:<5} {:.2}s",
                r.config, r.feasible, r.seconds
            );
        }
        save_json("ablation_scheme", &rows);

        banner("Ablation: robustness encoding");
        let rows = experiments::ablation_robust();
        for r in &rows {
            println!(
                "  {:<32} feasible={:<5} {:.2}s",
                r.config, r.feasible, r.seconds
            );
        }
        save_json("ablation_robust", &rows);

        banner("Ablation: advection variants");
        let rows = experiments::ablation_advection();
        for r in &rows {
            println!(
                "  {:<32} feasible={:<5} {:.4}s metric={:?}",
                r.config, r.feasible, r.seconds, r.metric
            );
        }
        save_json("ablation_advection", &rows);
    }

    println!("\ndone.");
}
