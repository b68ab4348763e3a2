//! Quickstart: prove a polynomial is a sum of squares, synthesise a Lyapunov
//! certificate for a small system, and check a set inclusion — the three
//! primitive operations everything else builds on.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cppll::hybrid::{HybridSystem, Mode};
use cppll::poly::Polynomial;
use cppll::sos::{check_inclusion, InclusionOptions, SosOptions, SosProgram};
use cppll::verify::{LyapunovOptions, LyapunovSynthesizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------
    // 1. SOS decomposition: p = x² − 2xy + 2y² + 1 is a sum of squares.
    // ---------------------------------------------------------------
    let p = Polynomial::from_terms(
        2,
        &[
            (&[2, 0], 1.0),
            (&[1, 1], -2.0),
            (&[0, 2], 2.0),
            (&[0, 0], 1.0),
        ],
    );
    let mut prog = SosProgram::new(2);
    let c = prog.require_sos(p.clone().into());
    let sol = prog.solve(&SosOptions::default())?;
    let dec = sol.sos_decomposition(c).expect("sos constraint has a Gram");
    println!("p(x, y) = {p}");
    println!(
        "  is a sum of {} squares, residual {:.2e}:",
        dec.squares().len(),
        dec.residual(&p)
    );
    for q in dec.squares() {
        println!("    ({q})²");
    }

    // ---------------------------------------------------------------
    // 2. Lyapunov certificate for ẋ = −x + y, ẏ = −y.
    // ---------------------------------------------------------------
    let f = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 1.0)]),
        Polynomial::from_terms(2, &[(&[0, 1], -1.0)]),
    ];
    let sys = HybridSystem::new(2, vec![Mode::new("linear", f)], vec![]);
    let certs = LyapunovSynthesizer::new(&sys)
        .synthesize(&LyapunovOptions::degree(2), &SosOptions::default())?;
    let v = certs.for_mode(0);
    println!("\nLyapunov certificate for the linear system:");
    println!("  V(x, y) = {v}");
    let (val, vdot) = certs.check_at(&sys, 0, &[1.0, -0.5], &[]);
    println!("  at (1, -0.5): V = {val:.4}, V̇ = {vdot:.4} (must be > 0 / < 0)");

    // ---------------------------------------------------------------
    // 3. Set inclusion via Lemma 1: the unit disc sits inside {V ≤ c}.
    // ---------------------------------------------------------------
    let disc = &Polynomial::norm_squared(2) - &Polynomial::constant(2, 1.0);
    let c_big = v.eval(&[2.0, 2.0]); // a level that surely engulfs the disc
    let level = v - &Polynomial::constant(2, c_big);
    let included = check_inclusion(&disc, &level, &[], &InclusionOptions::default());
    println!("\n{{‖x‖ ≤ 1}} ⊆ {{V ≤ {c_big:.2}}}: {included}");
    Ok(())
}
