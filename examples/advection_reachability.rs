//! Bounded advection of polynomial level sets as a standalone reachability
//! tool (Section 2.5 of the paper, after Wang–Lall–West): advect an initial
//! disc under a spiral sink and watch the certified front contract, then
//! demonstrate the Eq.-6-style SOS merge that squeezes a piecewise front
//! back into a single polynomial with bisected tightness γ.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example advection_reachability
//! ```

use cppll::hybrid::{HybridSystem, Mode};
use cppll::poly::Polynomial;
use cppll::sos::SosOptions;
use cppll::verify::{Advection, AdvectionOptions};

fn main() {
    // Spiral sink: ẋ = −x + 2y, ẏ = −2x − y.
    let f = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 2.0)]),
        Polynomial::from_terms(2, &[(&[1, 0], -2.0), (&[0, 1], -1.0)]),
    ];
    let sys = HybridSystem::new(2, vec![Mode::new("spiral", f)], vec![]);
    let adv = Advection::new(&sys);
    let opt = AdvectionOptions {
        h: 0.1,
        taylor_order: 2,
        error_box: vec![2.0, 2.0],
        ..Default::default()
    };

    // Initial front: disc of radius 1.5.
    let mut front = &Polynomial::norm_squared(2) - &Polynomial::constant(2, 2.25);
    println!("advecting a disc of radius 1.5 under a spiral sink (h = 0.1):");
    for k in 0..10 {
        front = adv.advect_mode(&front, 0, &opt);
        // Radius along the x-axis by bisection of the front polynomial.
        let mut lo = 0.0;
        let mut hi = 3.0;
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if front.eval(&[mid, 0.0]) <= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let err = adv.estimate_taylor_error(&front, &opt);
        println!(
            "  step {:2}: x-radius {:.4} (exact e^{{-t}} law: {:.4}), taylor-err {:.1e}",
            k + 1,
            lo,
            1.5 * (-(k as f64 + 1.0) * 0.1f64).exp(),
            err
        );
    }

    // Piecewise system: same sink but two modes split at x = 0, with the
    // left mode slowed down — the merge must find a single quadratic wedge.
    let fast = vec![
        Polynomial::from_terms(2, &[(&[1, 0], -1.0), (&[0, 1], 2.0)]),
        Polynomial::from_terms(2, &[(&[1, 0], -2.0), (&[0, 1], -1.0)]),
    ];
    let slow: Vec<Polynomial> = fast.iter().map(|p| p.scale(0.5)).collect();
    let x = Polynomial::var(2, 0);
    let sys2 = HybridSystem::new(
        2,
        vec![
            Mode::new("right", fast).with_flow_set(vec![x.clone()]),
            Mode::new("left", slow).with_flow_set(vec![x.scale(-1.0)]),
        ],
        vec![],
    );
    let adv2 = Advection::new(&sys2);
    let mut opt2 = AdvectionOptions {
        h: 0.1,
        error_box: vec![2.0, 2.0],
        ..Default::default()
    };
    // Bound the merge domain (|x|,|y| ≤ 2).
    for i in 0..2 {
        let xi = Polynomial::var(2, i);
        opt2.bounding.push(&Polynomial::constant(2, 2.0) - &xi);
        opt2.bounding.push(&Polynomial::constant(2, 2.0) + &xi);
    }
    let p0 = &Polynomial::norm_squared(2) - &Polynomial::constant(2, 1.0);
    match adv2.step(&p0, &opt2, &SosOptions::default()) {
        Some(step) => println!(
            "\npiecewise sink, SOS merge: certified tightness γ = {:.4}, \
             taylor-err {:.1e}",
            step.gamma, step.taylor_error
        ),
        None => println!("\npiecewise sink: merge infeasible (raise degree or γ budget)"),
    }
}
