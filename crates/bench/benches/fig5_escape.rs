//! Figure 5 bench: the escape-certificate kernel (Proposition 1) that closed
//! the paper's fourth-order argument. Measures one synthesis on the
//! third-order saturated mode's leftover region. Regenerate the figure with
//! `reproduce -- --only fig5`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cppll_pll::{PllModelBuilder, PllOrder};
use cppll_poly::Polynomial;
use cppll_sos::SosOptions;
use cppll_verify::{EscapeOptions, EscapeSynthesizer};

fn bench(c: &mut Criterion) {
    let model = PllModelBuilder::new(PllOrder::Third).build();
    let n = 3;
    // Leftover-style region: inside the initial ellipsoid, outside a bowl.
    let ell = {
        let mut p = Polynomial::constant(n, -1.0);
        for (i, r) in [1.5f64, 1.5, 1.9].iter().enumerate() {
            let xi = Polynomial::var(n, i);
            p = &p + &(&xi * &xi).scale(1.0 / (r * r));
        }
        p
    };
    let bowl = &Polynomial::norm_squared(n) - &Polynomial::constant(n, 1.0);
    let set = vec![ell.scale(-1.0), bowl];

    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("escape_synthesis_up_mode_deg4", |b| {
        b.iter(|| {
            let r = EscapeSynthesizer::new(model.system()).synthesize(
                model.up_mode(),
                black_box(&set),
                &EscapeOptions::degree(4),
                &SosOptions::default(),
            );
            black_box(r.is_ok())
        });
    });
    g.bench_function("escape_synthesis_up_mode_deg2", |b| {
        b.iter(|| {
            let r = EscapeSynthesizer::new(model.system()).synthesize(
                model.up_mode(),
                black_box(&set),
                &EscapeOptions::degree(2),
                &SosOptions::default(),
            );
            black_box(r.is_ok())
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
