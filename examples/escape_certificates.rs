//! Escape certificates (Proposition 1) as a standalone tool: prove that all
//! trajectories leave a compact set in finite time — and watch the synthesis
//! correctly *fail* when the set traps an equilibrium.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example escape_certificates
//! ```

use cppll::hybrid::{HybridSystem, Mode, Simulator};
use cppll::poly::Polynomial;
use cppll::sos::SosOptions;
use cppll::verify::{EscapeOptions, EscapeSynthesizer};

fn main() {
    let (opt, sos) = (EscapeOptions::degree(4), SosOptions::default());
    // An unstable spiral: trajectories wind outward from the origin and
    // must sweep through any compact annular window around it.
    let f = vec![
        Polynomial::from_terms(2, &[(&[0, 1], -1.0), (&[1, 0], 0.3)]),
        Polynomial::from_terms(2, &[(&[1, 0], 1.0), (&[0, 1], 0.3)]),
    ];
    let sys = HybridSystem::new(2, vec![Mode::new("spiral", f)], vec![]);
    let n2 = Polynomial::norm_squared(2);

    // Window: the annulus 1 ≤ ‖x‖² ≤ 9.
    let set = vec![
        &n2 - &Polynomial::constant(2, 1.0),
        &Polynomial::constant(2, 9.0) - &n2,
    ];
    match EscapeSynthesizer::new(&sys).synthesize(0, &set, &opt, &sos) {
        Ok(cert) => {
            println!("escape certificate found for the annulus:");
            println!("  E = {}", cert.e);
            // Validate along a simulated trajectory: E must decrease while
            // inside the set, and the trajectory must leave it.
            let sim = Simulator::new(&sys).with_step(1e-3).with_thinning(50);
            let arc = sim.simulate(&[2.0, 0.0], 0, 30.0);
            let mut inside_count = 0;
            let mut left = false;
            let mut last_e = f64::INFINITY;
            let mut monotone = true;
            for s in arc.samples() {
                let inside = set.iter().all(|g| g.eval(&s.state) >= 0.0);
                if inside {
                    inside_count += 1;
                    let ev = cert.e.eval(&s.state);
                    if ev > last_e + 1e-9 {
                        monotone = false;
                    }
                    last_e = ev;
                } else if inside_count > 0 {
                    left = true;
                    break;
                }
            }
            println!(
                "  simulated check: E monotone while inside: {monotone}, \
                 trajectory left the set: {left}"
            );
        }
        Err(e) => println!("unexpected: {e}"),
    }

    // Now trap an equilibrium: ẋ = −x has the origin inside the disc — no
    // escape certificate can exist, and the synthesiser must say so.
    let stable = vec![
        Polynomial::var(2, 0).scale(-1.0),
        Polynomial::var(2, 1).scale(-1.0),
    ];
    let sys2 = HybridSystem::new(2, vec![Mode::new("sink", stable)], vec![]);
    let disc = vec![&Polynomial::constant(2, 4.0) - &n2];
    match EscapeSynthesizer::new(&sys2).synthesize(0, &disc, &opt, &sos) {
        Ok(_) => println!("\nBUG: escape certificate for a set containing an equilibrium"),
        Err(e) => println!("\nsink inside the disc — synthesis correctly failed: {e}"),
    }
}
