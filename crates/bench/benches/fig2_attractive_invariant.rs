//! Figure 2 bench: the kernels behind the third-order attractive invariant
//! — one Lyapunov-synthesis SDP (nominal, degree 4), one level-probe
//! inclusion SDP, and the level-curve tracing. Regenerate the full figure
//! with `reproduce -- --only fig2`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cppll_bench::contour::trace_sublevel_boundary;
use cppll_pll::{PllModelBuilder, PllOrder, UncertaintySelection};
use cppll_poly::Polynomial;
use cppll_sos::{check_inclusion, InclusionOptions, SosOptions};
use cppll_verify::{LyapunovOptions, LyapunovSynthesizer};

fn bench(c: &mut Criterion) {
    let model = PllModelBuilder::new(PllOrder::Third)
        .with_uncertainty(UncertaintySelection::Nominal)
        .build();
    // Precompute a certificate once for the probe/tracing benches.
    let certs = LyapunovSynthesizer::new(model.system())
        .synthesize_auto(&LyapunovOptions::degree(4), &SosOptions::default())
        .expect("nominal third order is feasible");
    let v = certs.for_mode(0).clone();
    let n = v.nvars();
    let level = &v - &Polynomial::constant(n, 1.0);

    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("lyapunov_synthesis_deg4_nominal", |b| {
        b.iter(|| {
            let r = LyapunovSynthesizer::new(model.system())
                .synthesize_auto(&LyapunovOptions::degree(4), &SosOptions::default());
            black_box(r.is_ok())
        });
    });
    g.bench_function("level_probe_inclusion", |b| {
        // One bisection probe: {V ≤ 1} ⊆ {e ≤ θmax}.
        let e = Polynomial::var(n, 2);
        let boundary = &Polynomial::constant(n, 2.0) - &e;
        b.iter(|| {
            black_box(check_inclusion(
                black_box(&level),
                &boundary.scale(-1.0),
                &[],
                &InclusionOptions::default(),
            ))
        });
    });
    g.bench_function("trace_level_curve_96", |b| {
        b.iter(|| black_box(trace_sublevel_boundary(&level, 0, 1, 96, 50.0, "ai")));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
