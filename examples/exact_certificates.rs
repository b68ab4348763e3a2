//! From floating-point certificates to machine-checked theorems: synthesise
//! the third-order PLL's Lyapunov certificate numerically, then upgrade its
//! positivity and decrease claims to exact rational proofs
//! (rounding → projection → exact PSD test, all big-integer arithmetic).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example exact_certificates
//! ```

use cppll::exact::prove_sos;
use cppll::pll::{PllModelBuilder, PllOrder, UncertaintySelection};
use cppll::poly::Polynomial;
use cppll::sos::SosOptions;
use cppll::verify::exactify::{exactify_certificates, ExactifyOptions};
use cppll::verify::{LyapunovOptions, LyapunovSynthesizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy warm-up: exact SOS proof of a strictly positive quartic.
    let p = Polynomial::from_terms(
        2,
        &[
            (&[4, 0], 1.0),
            (&[2, 2], 1.0),
            (&[0, 4], 1.0),
            (&[0, 0], 0.5),
        ],
    );
    let proof = prove_sos(&p, &Default::default())?;
    println!(
        "warm-up: {p} is SOS — exact Gram of dimension {}, audit: {}",
        proof.gram_dimension(),
        proof.is_valid_for(&p)
    );

    // The real thing: third-order PLL certificate (nominal, degree 4).
    let model = PllModelBuilder::new(PllOrder::Third)
        .with_uncertainty(UncertaintySelection::Nominal)
        .build();
    let certs = LyapunovSynthesizer::new(model.system())
        .synthesize_auto(&LyapunovOptions::degree(4), &SosOptions::default())?;
    println!("\nnumeric certificate synthesised (degree 4, nominal parameters)");

    let t = std::time::Instant::now();
    let mut opt = ExactifyOptions::default();
    opt.exact.mult_half_degree = 2;
    match exactify_certificates(model.system(), &certs, &[1.0, 1.0, 2.2], &opt) {
        Ok(report) => {
            println!(
                "exactified in {:.1}s: {} positivity proof(s), {} decrease proof(s)",
                t.elapsed().as_secs_f64(),
                report.positivity.len(),
                report.decrease.len()
            );
            for d in &report.decrease {
                println!(
                    "  mode {} vertex {}: main Gram {}×{}, {} exact multipliers",
                    d.mode,
                    d.vertex,
                    d.proof.main.gram_dimension(),
                    d.proof.main.gram_dimension(),
                    d.proof.multipliers.len()
                );
            }
            for (mi, vi, why) in &report.unproven {
                println!(
                    "  mode {mi} vertex {vi}: NOT exactified ({why}) — this claim \
                     remains backed by the numeric certificate (Putinar degree wall \
                     on the thin saturated slab)"
                );
            }
            if report.complete() {
                println!("every stated inequality is now a machine-checked theorem");
            }
        }
        Err(e) => println!("exactification failed honestly: {e}"),
    }
    Ok(())
}
