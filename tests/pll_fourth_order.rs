//! Pins the fourth-order PLL run — half of the paper's evaluation — so a
//! change that moves its result or its solve counts shows up here.
//!
//! The run needs an optimised build (about 20 s in release, far longer in
//! debug), so the test is ignored by default:
//!
//! ```sh
//! cargo test --release --test pll_fourth_order -- --ignored
//! ```

use cppll::pll::{PllModelBuilder, PllOrder};
use cppll::verify::{InevitabilityVerifier, PipelineOptions, PipelineStage, Verdict};

#[test]
#[ignore = "needs a release build: cargo test --release --test pll_fourth_order -- --ignored"]
fn fourth_order_pll_degrades_at_advection_with_pinned_counts() {
    let model = PllModelBuilder::new(PllOrder::Fourth).build();
    let verifier = InevitabilityVerifier::for_pll(&model);
    let mut opt = PipelineOptions::degree(4);
    // Capped at the level the retired bisection settled on; the margin
    // programs reach c = 9.9631, so the cap holds c* and every later stage
    // where this pin has them.
    opt.level.hi = Some(9.796806254327617);
    let report = verifier.verify(&opt).expect("synthesis feasible");
    assert!(
        matches!(
            report.verdict,
            Verdict::Degraded {
                stage: PipelineStage::Advection,
                ..
            }
        ),
        "verdict: {:?}",
        report.verdict
    );
    let stats = report.solve_stats;
    assert_eq!(
        (stats.solves, stats.attempts, stats.failures),
        (91, 175, 35),
        "solve counts: {stats}"
    );
    assert_eq!(report.result_digest(), "bc63962801339200");
}
