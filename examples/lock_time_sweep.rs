//! Transient analysis: "time to locking" as a function of the initial
//! condition — the property the related work ([2] Althoff et al.,
//! [6] Lin–Li–Myers) verifies, here measured on both PLL models:
//!
//! * the averaged three-mode verification model, and
//! * the full cyclic PFD automaton (hundreds of discrete transitions).
//!
//! The sweep also reports the certified dwell-time bound of an escape
//! certificate for the saturated region — a deductive upper bound to set
//! against the simulated times.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example lock_time_sweep
//! ```

use cppll::hybrid::Simulator;
use cppll::pll::{cyclic_automaton, PllModelBuilder, PllOrder, TableOneParams};
use cppll::poly::Polynomial;
use cppll::sos::{BoundOptions, SosOptions};
use cppll::verify::{EscapeOptions, EscapeSynthesizer};

/// First time the averaged model enters and stays in `‖x‖ ≤ tol`.
fn lock_time_averaged(
    model: &cppll::pll::VerificationModel,
    x0: &[f64],
    mode0: usize,
) -> Option<f64> {
    let sim = Simulator::new(model.system())
        .with_step(5e-3)
        .with_thinning(5);
    let arc = sim.simulate(x0, mode0, 400.0);
    let tol = 0.02;
    // Last exit from the ball, then report the following entry.
    let mut lock_at = None;
    for s in arc.samples() {
        let norm: f64 = s.state.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > tol {
            lock_at = None;
        } else if lock_at.is_none() {
            lock_at = Some(s.time.t);
        }
    }
    lock_at
}

fn main() {
    let model = PllModelBuilder::new(PllOrder::Third).build();

    println!("averaged model: lock time vs initial phase error (v = 0):");
    println!("  {:>8} {:>12}", "e(0)", "t_lock");
    for k in 0..8 {
        let e0 = 0.25 * (k as f64 + 1.0);
        let mode0 = if e0 <= 1.0 { 0 } else { 1 };
        match lock_time_averaged(&model, &[0.0, 0.0, e0], mode0) {
            Some(t) => println!("  {e0:>8.2} {t:>12.2}"),
            None => println!("  {e0:>8.2} {:>12}", "-"),
        }
    }

    println!("\naveraged model: lock time vs initial v2 offset (e = 0):");
    println!("  {:>8} {:>12}", "v2(0)", "t_lock");
    for k in 0..6 {
        let v0 = 0.2 * (k as f64 + 1.0);
        match lock_time_averaged(&model, &[0.0, v0, 0.0], 0) {
            Some(t) => println!("  {v0:>8.2} {t:>12.2}"),
            None => println!("  {v0:>8.2} {:>12}", "-"),
        }
    }

    // Ground truth: cyclic PFD automaton with explicit edges.
    println!("\ncyclic PFD automaton: lock time and edge count vs v2 offset:");
    println!("  {:>8} {:>12} {:>8}", "v2(0)", "t_settle", "edges");
    let cyc = cyclic_automaton(PllOrder::Third, &TableOneParams::third_order());
    for k in 0..4 {
        let v0 = 0.15 * (k as f64 + 1.0);
        let sim = Simulator::new(cyc.system())
            .with_step(2e-3)
            .with_thinning(20)
            .with_max_jumps(200_000);
        let arc = sim.simulate(&[0.0, v0, 0.0, 0.0], cyc.off_mode(), 250.0);
        // Settle: last time |v2| exceeded 0.02.
        let mut settle = 0.0;
        for s in arc.samples() {
            if s.state[1].abs() > 0.02 {
                settle = s.time.t;
            }
        }
        println!("  {v0:>8.2} {settle:>12.2} {:>8}", arc.jumps());
    }

    // Deductive counterpart: certified dwell-time bound for the saturated
    // region {1 ≤ e ≤ 2, |v| ≤ 1} from an escape certificate.
    println!("\ndeductive bound: maximum dwell time in the up-saturated region");
    let n = model.nstates();
    let e = Polynomial::var(n, model.phase_error_index());
    let mut set = vec![
        &e - &Polynomial::constant(n, 1.0),
        &Polynomial::constant(n, 2.0) - &e,
    ];
    for i in 0..2 {
        let xi = Polynomial::var(n, i);
        set.push(&Polynomial::constant(n, 1.0) - &(&xi * &xi));
    }
    match EscapeSynthesizer::new(model.system()).synthesize(
        model.up_mode(),
        &set,
        &EscapeOptions::degree(2),
        &SosOptions::default(),
    ) {
        Ok(cert) => {
            // Simulated dwell in the same compact set, worst case over a
            // few entries into it.
            let sim = Simulator::new(model.system())
                .with_step(1e-3)
                .with_thinning(1);
            let mut worst_dwell = 0.0f64;
            for &(a, b) in &[(0.0, 0.0), (-0.5, -0.5), (0.5, -0.9)] {
                let arc = sim.simulate(&[a, b, 1.95], model.up_mode(), 20.0);
                let mut entered: Option<f64> = None;
                for smp in arc.samples() {
                    let inside = set.iter().all(|g| g.eval(&smp.state) >= 0.0);
                    match (inside, entered) {
                        (true, None) => entered = Some(smp.time.t),
                        (false, Some(t0)) => {
                            worst_dwell = worst_dwell.max(smp.time.t - t0);
                            entered = None;
                        }
                        _ => {}
                    }
                }
            }
            match cert.dwell_time_bound(&set, &BoundOptions::default()) {
                Some(bound) => println!(
                    "  certified: every trajectory leaves the boxed saturated set \
                     within {bound:.2} time units (worst simulated dwell: {worst_dwell:.2} \
                     — the bound must be an upper envelope)"
                ),
                None => println!("  escape certificate found; range bound not certified"),
            }
        }
        Err(err) => println!("  no degree-2 escape certificate: {err}"),
    }
}
