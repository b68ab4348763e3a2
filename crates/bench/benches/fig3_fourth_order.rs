//! Figure 3 bench: fourth-order kernels. The full degree-4 robust synthesis
//! takes minutes (Table 2's dominant row), so the bench measures the
//! *degree-2 relaxation probe* — the same program shape at the tractable
//! degree — plus the simulation oracle. Regenerate the figure with
//! `reproduce -- --only fig3`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cppll_hybrid::Simulator;
use cppll_pll::{PllModelBuilder, PllOrder, UncertaintySelection};
use cppll_sos::SosOptions;
use cppll_verify::{LyapunovOptions, LyapunovSynthesizer};

fn bench(c: &mut Criterion) {
    let model = PllModelBuilder::new(PllOrder::Fourth)
        .with_uncertainty(UncertaintySelection::Nominal)
        .build();
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.bench_function("lyapunov_probe_deg2_fourth_order", |b| {
        // Degree 2 is infeasible for the saturated modes; the probe measures
        // the full compile+solve round trip that the degree ladder performs.
        b.iter(|| {
            let r = LyapunovSynthesizer::new(model.system())
                .synthesize(&LyapunovOptions::degree(2), &SosOptions::default());
            black_box(r.is_err())
        });
    });
    g.bench_function("simulate_fourth_order_lock_50units", |b| {
        let sim = Simulator::new(model.system())
            .with_step(1e-2)
            .with_thinning(50);
        b.iter(|| {
            let arc = sim.simulate(black_box(&[0.1, 0.1, -0.1, 0.3]), 0, 50.0);
            black_box(arc.len())
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
