//! The paper's second benchmark: inevitability of phase-locking for the
//! **fourth-order** charge-pump PLL (Table 1's right column) at the paper's
//! certificate degree 4, plus the escape-certificate fallback variant
//! (Algorithm 1, lines 13–18) that the paper needed for this benchmark.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fourth_order_lock
//! ```
//!
//! Expect several minutes: the attractive-invariant SDP for four states at
//! degree 4 is the dominant cost — exactly the cost ordering the paper's
//! Table 2 reports (10021 s of their 2.6 GHz-i5 MATLAB time).

use cppll::pll::{PllModelBuilder, PllOrder};
use cppll::verify::{
    span_forest, step_times, InevitabilityVerifier, PipelineOptions, TraceLevel, Tracer,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = PllModelBuilder::new(PllOrder::Fourth).build();
    println!(
        "fourth-order CP PLL, scaled coefficients: {}",
        model.coeffs()
    );

    // Default run: bounded advection immerses the initial set into the
    // attractive invariant.
    let verifier = InevitabilityVerifier::for_pll(&model);
    // A stage-level trace times each step of the pipeline.
    let tracer = Tracer::new(TraceLevel::Stage);
    let mut opt = PipelineOptions::degree(4);
    opt.trace = Some(tracer.clone());
    let report = verifier.verify(&opt)?;
    println!("\n[default] verdict: {:?}", report.verdict);
    println!("[default] level c* = {:.4}", report.levels.level);
    println!(
        "[default] advection iterations: {}, escape certificates: {}",
        report.advection_iterations(),
        report.escape_certificates.len()
    );
    for (name, ns) in step_times(&span_forest(&tracer.events())) {
        println!("  {name:<26} {:>8.2}s", ns as f64 / 1e9);
    }

    // Escape variant: advection is disabled so the leftover region must be
    // closed deductively, as in the paper's unsymmetric Fig. 5 situation.
    let mut opt = PipelineOptions::degree(4);
    opt.max_advection_iters = 0;
    let report = verifier.verify(&opt)?;
    println!("\n[escape variant] verdict: {:?}", report.verdict);
    println!(
        "[escape variant] escape certificates: {} (the paper needed 2)",
        report.escape_certificates.len()
    );
    for cert in &report.escape_certificates {
        println!(
            "  mode {}: E decreases at certified rate ε = {:.3}",
            cert.mode, cert.epsilon
        );
    }
    Ok(())
}
