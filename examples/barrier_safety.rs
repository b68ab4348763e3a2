//! Safety companion to inevitability: prove that a PLL already near lock
//! **never saturates its phase detector again** — the "retains its locking
//! state when disturbed" property from the paper's introduction, stated as
//! unreachability of the saturated modes.
//!
//! Two routes are shown:
//!
//! 1. direct barrier synthesis (Prajna–Jadbabaie, the paper's ref. [11]) —
//!    works on small systems, and
//! 2. the Lyapunov route: `B = V − c` where `V` is the inevitability
//!    pipeline's certificate and `c` is wedged between SOS-certified range
//!    bounds of `V` on the initial set and on the saturation boundary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example barrier_safety
//! ```

use cppll::hybrid::Simulator;
use cppll::pll::{PllModelBuilder, PllOrder, VerificationModel};
use cppll::poly::Polynomial;
use cppll::sos::{certified_lower_bound, certified_upper_bound, SosOptions};
use cppll::verify::{BarrierOptions, BarrierSynthesizer, LyapunovOptions, LyapunovSynthesizer};

fn main() {
    let model = PllModelBuilder::new(PllOrder::Third).build();
    let n = model.nstates();
    let e_idx = model.phase_error_index();

    // Initial set: a neighbourhood of the lock point.
    let mut initial = Vec::new();
    for i in 0..n {
        let r = if i == e_idx { 0.2 } else { 0.1 };
        let xi = Polynomial::var(n, i);
        initial.push(&Polynomial::constant(n, r * r) - &(&xi * &xi));
    }
    // Unsafe: PFD saturation |e| ≥ 1.
    let e = Polynomial::var(n, e_idx);
    let unsafe_set = vec![&(&e * &e) - &Polynomial::constant(n, 1.0)];
    // Every solve runs under the supervisor's default retries: the
    // degree-4 synthesis of route 2 is marginal and needs them.
    let sos = SosOptions::default();

    // Route 1: direct synthesis (may fail at low degrees — the honest
    // outcome is reported either way).
    println!("route 1: direct barrier synthesis at degree 2 …");
    match BarrierSynthesizer::new(model.system()).synthesize(
        &initial,
        &unsafe_set,
        &BarrierOptions::degree(2),
        &sos,
    ) {
        Ok(cert) => println!("  found: B = {}", cert.b),
        Err(e) => println!("  inconclusive at this degree ({e})"),
    }

    // Route 2: the Lyapunov certificate IS a barrier between its level sets.
    // Each step may fail numerically; like route 1, a failure is reported
    // as an inconclusive outcome.
    println!("\nroute 2: barrier from the inevitability certificate …");
    let (v, c_init, c_unsafe) = match separating_levels(&model, &initial, &unsafe_set, &sos) {
        Ok(levels) => levels,
        Err(e) => {
            println!("  inconclusive ({e})");
            return;
        }
    };
    println!("  certified: V ≤ {c_init:.4} on the initial set");
    println!("  certified: V ≥ {c_unsafe:.4} on the saturation region (boxed)");
    if c_init < c_unsafe {
        let c = 0.5 * (c_init + c_unsafe);
        println!(
            "  ⇒ B = V − {c:.4} is a barrier: trajectories from the lock \
             neighbourhood never saturate the PFD (V̇ ≤ 0 by the P1 certificate)"
        );
        // Cross-check with simulation.
        let sim = Simulator::new(model.system())
            .with_step(1e-2)
            .with_thinning(10);
        let mut max_v = f64::NEG_INFINITY;
        let mut max_e = 0.0f64;
        for &(a, b, cc) in &[(0.1, -0.1, 0.2), (-0.1, 0.1, -0.2), (0.07, 0.07, 0.17)] {
            let arc = sim.simulate(&[a, b, cc], model.tracking_mode(), 100.0);
            for s in arc.samples() {
                max_v = max_v.max(v.eval(&s.state));
                max_e = max_e.max(s.state[e_idx].abs());
            }
        }
        println!(
            "  simulated check: max V along arcs = {max_v:.4} (≤ {c:.4}), \
             max |e| = {max_e:.4} (< 1)"
        );
    } else {
        println!("  bounds did not separate — inconclusive");
    }
}

/// The tracking mode's Lyapunov certificate `V` with a certified
/// `c_init ≥ max V` on the initial set and a certified `c_unsafe ≤ min V`
/// on the saturation boundary, or why one of them is missing.
fn separating_levels(
    model: &VerificationModel,
    initial: &[Polynomial],
    unsafe_set: &[Polynomial],
    sos: &SosOptions,
) -> Result<(Polynomial, f64, f64), String> {
    let n = model.nstates();
    let certs = LyapunovSynthesizer::new(model.system())
        .synthesize_auto(&LyapunovOptions::degree(4), sos)
        .map_err(|e| format!("Lyapunov synthesis failed: {e}"))?;
    let v = certs.for_mode(model.tracking_mode()).clone();
    let c_init = certified_upper_bound(&v, initial, 1, sos)
        .ok_or("upper bound on the initial set not certified")?;
    // The saturation boundary (e = ±1 slabs), restricted to a generous
    // voltage box so the domain is compact.
    let mut sat = unsafe_set.to_vec();
    for i in 0..n {
        let xi = Polynomial::var(n, i);
        sat.push(&Polynomial::constant(n, 25.0) - &(&xi * &xi));
    }
    let c_unsafe = certified_lower_bound(&v, &sat, 1, sos)
        .ok_or("lower bound on the saturation region not certified")?;
    Ok((v, c_init, c_unsafe))
}
