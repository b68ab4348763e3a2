//! The paper's headline experiment: verify inevitability of phase-locking
//! for the **third-order** charge-pump PLL (Table 1 parameters).
//!
//! Runs the full two-pronged methodology — multiple Lyapunov certificates,
//! level-curve maximisation, bounded advection, escape fallback — and prints
//! the verification report.
//!
//! Run with (degree 4 finishes in about a minute; pass `6` for the paper's
//! third-order degree):
//!
//! ```text
//! cargo run --release --example third_order_lock [degree]
//! ```

use cppll::pll::{PllModelBuilder, PllOrder};
use cppll::verify::{
    span_forest, step_times, InevitabilityVerifier, PipelineOptions, TraceLevel, Tracer,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let degree: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let model = PllModelBuilder::new(PllOrder::Third).build();
    println!(
        "third-order CP PLL, scaled coefficients: {}",
        model.coeffs()
    );
    println!(
        "modes: {:?}",
        model
            .system()
            .modes()
            .iter()
            .map(|m| m.name().to_string())
            .collect::<Vec<_>>()
    );

    let verifier = InevitabilityVerifier::for_pll(&model);
    // A stage-level trace times each step of the pipeline.
    let tracer = Tracer::new(TraceLevel::Stage);
    let mut opt = PipelineOptions::degree(degree);
    opt.trace = Some(tracer.clone());
    let report = verifier.verify(&opt)?;

    println!("\nverdict: {:?}", report.verdict);
    println!("attractive invariant level c* = {:.4}", report.levels.level);
    println!(
        "advection: {} iterations, included after {:?}",
        report.advection_iterations(),
        report.included_after()
    );
    for (k, e) in report.advection_trace.iter().enumerate() {
        println!(
            "  iter {:2}: taylor-error estimate {:.2e}, guard mismatch {:.2e}, included: {}",
            k + 1,
            e.taylor_error,
            e.guard_mismatch,
            e.included
        );
    }
    println!("escape certificates: {}", report.escape_certificates.len());
    println!("\nper-step timings (Table 2 of the paper):");
    for (name, ns) in step_times(&span_forest(&tracer.events())) {
        println!("  {name:<26} {:>8.2}s", ns as f64 / 1e9);
    }
    println!("\nV (tracking mode, first terms):");
    let v = report
        .certificates
        .as_ref()
        .expect("verified run has certificates")
        .for_mode(model.tracking_mode());
    println!("  {v}");
    Ok(())
}
