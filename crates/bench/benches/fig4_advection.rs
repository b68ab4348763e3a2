//! Figure 4 bench: the bounded-advection kernels — one piecewise advection
//! step (exact polynomial composition), the guard-mismatch diagnostic, one
//! SOS merge (Eq.-6 analogue) and one front-inside-AI inclusion check.
//! Regenerate the figure with `reproduce -- --only fig4`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cppll_pll::{PllModelBuilder, PllOrder};
use cppll_poly::Polynomial;
use cppll_sos::{check_inclusion, InclusionOptions, SosOptions};
use cppll_verify::{Advection, AdvectionOptions, Region};

fn bench(c: &mut Criterion) {
    let model = PllModelBuilder::new(PllOrder::Third).build();
    let adv = Advection::new(model.system());
    let opt = AdvectionOptions {
        h: 0.1,
        error_box: vec![1.9, 1.9, 2.4],
        ..Default::default()
    };
    let initial = Region::ellipsoid(&[1.5, 1.5, 1.9]);
    let pieces = vec![initial.level().clone(); 3];

    let mut g = c.benchmark_group("fig4");
    g.bench_function("piecewise_advection_step", |b| {
        b.iter(|| black_box(adv.step_pieces(black_box(&pieces), &opt)));
    });
    g.bench_function("guard_mismatch_diagnostic", |b| {
        let stepped = adv.step_pieces(&pieces, &opt);
        b.iter(|| black_box(adv.guard_mismatch(black_box(&stepped), &opt)));
    });
    g.bench_function("taylor_error_estimate", |b| {
        b.iter(|| black_box(adv.estimate_taylor_error(initial.level(), &opt)));
    });
    g.finish();

    let mut g2 = c.benchmark_group("fig4_sdp");
    g2.sample_size(10);
    g2.bench_function("sos_merge_step", |b| {
        let mut opt2 = opt.clone();
        for (i, r) in [1.9f64, 1.9, 2.4].iter().enumerate() {
            let xi = Polynomial::var(3, i);
            opt2.bounding.push(&Polynomial::constant(3, *r) - &xi);
            opt2.bounding.push(&Polynomial::constant(3, *r) + &xi);
        }
        let sos = SosOptions::default();
        b.iter(|| black_box(adv.step(initial.level(), &opt2, &sos).is_some()));
    });
    g2.bench_function("front_inclusion_check", |b| {
        // Inclusion of the initial front into a quartic bowl.
        let bowl = {
            let n2 = Polynomial::norm_squared(3);
            &(&n2 * &n2).scale(0.05) + &(&n2 - &Polynomial::constant(3, 40.0))
        };
        b.iter(|| {
            black_box(check_inclusion(
                initial.level(),
                &bowl,
                &[],
                &InclusionOptions::default(),
            ))
        });
    });
    g2.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
