//! Substrate benches: the numerical kernels everything sits on — dense
//! factorisations, polynomial arithmetic, the SDP interior-point solver and
//! the hybrid simulator.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use cppll_hybrid::Simulator;
use cppll_linalg::Matrix;
use cppll_pll::{cyclic_automaton, PllOrder, TableOneParams};
use cppll_poly::{monomials_up_to, Polynomial};
use cppll_sdp::{
    assemble_schur_dense_for_tests, assemble_schur_for_tests, SdpProblem, SolverOptions,
};

fn spd(n: usize) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut rng = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    for c in 0..n {
        for r in 0..n {
            a[(r, c)] = rng();
        }
    }
    let mut m = a.matmul(&a.transpose());
    for i in 0..n {
        m[(i, i)] += n as f64;
    }
    m
}

fn dense_poly(nvars: usize, deg: u32) -> Polynomial {
    let mut p = Polynomial::zero(nvars);
    for (k, m) in monomials_up_to(nvars, deg).into_iter().enumerate() {
        p.add_term(m, 1.0 / (k as f64 + 1.0));
    }
    p
}

/// A structured multi-block SDP mirroring the solver's SOS workload: several
/// Gram blocks, each touched by a band of sparse coefficient-matching
/// constraints. Returns the problem plus SPD iterate pairs for the Schur
/// assembly benchmarks.
fn schur_fixture(
    blocks: usize,
    n: usize,
    cons_per_block: usize,
) -> (SdpProblem, Vec<Matrix>, Vec<Matrix>) {
    let mut p = SdpProblem::new();
    let ids: Vec<_> = (0..blocks).map(|_| p.add_psd_block(n)).collect();
    for b in &ids {
        p.set_block_cost_identity(*b, 1.0);
    }
    for (j, b) in ids.iter().enumerate() {
        for k in 0..cons_per_block {
            let c = p.add_constraint(1.0 + k as f64 / 8.0);
            // Sparse support: a short diagonal band starting at a varying row.
            let r0 = (k * 3) % n;
            p.set_entry(c, *b, r0, r0, 2.0);
            if r0 + 1 < n {
                p.set_entry(c, *b, r0, r0 + 1, 0.5 + j as f64 / 16.0);
            }
        }
    }
    let x: Vec<Matrix> = (0..blocks).map(|_| spd(n)).collect();
    let sm: Vec<Matrix> = (0..blocks).map(|_| spd(n)).collect();
    (p, x, sm)
}

/// Block-diagonal quasidefinite matrix with a dense arrowhead tail — the
/// shape of the solver's KKT systems, where the zero-multiplier skip in the
/// packed LDLᵀ does its work.
fn kkt_fixture(blocks: usize, nb: usize, tail: usize) -> Matrix {
    let n = blocks * nb + tail;
    let mut a = Matrix::zeros(n, n);
    for b in 0..blocks {
        let lo = b * nb;
        let blk = spd(nb);
        for r in 0..nb {
            for c in 0..nb {
                a[(lo + r, lo + c)] = blk[(r, c)];
            }
        }
    }
    for i in blocks * nb..n {
        for j in 0..blocks * nb {
            let v = ((i * 37 + j * 11) % 17) as f64 / 17.0 - 0.5;
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
        a[(i, i)] = -(1.0 + (i % 7) as f64);
    }
    a
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");
    for n in [16usize, 64] {
        let a = spd(n);
        g.bench_function(format!("cholesky_{n}"), |b| {
            b.iter(|| black_box(black_box(&a).cholesky().unwrap()))
        });
        g.bench_function(format!("eigen_{n}"), |b| {
            b.iter(|| black_box(black_box(&a).symmetric_eigen()))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("poly");
    let p = dense_poly(3, 4);
    let q = dense_poly(3, 4);
    g.bench_function("mul_deg4_3vars", |b| {
        b.iter(|| black_box(black_box(&p) * black_box(&q)))
    });
    let f: Vec<Polynomial> = (0..3)
        .map(|i| dense_poly(3, 2).scale((i + 1) as f64))
        .collect();
    g.bench_function("lie_derivative_deg4", |b| {
        b.iter(|| black_box(p.lie_derivative(black_box(&f))))
    });
    let shift = [0.1, -0.2, 0.3];
    g.bench_function("affine_shift_deg4", |b| {
        b.iter(|| black_box(p.shift(black_box(&shift))))
    });
    g.bench_function("monomials_up_to_deg8_6vars", |b| {
        b.iter(|| black_box(monomials_up_to(black_box(6), black_box(8))))
    });
    g.finish();

    let mut g = c.benchmark_group("sdp");
    g.sample_size(20);
    g.bench_function("lovasz_theta_c5", |b| {
        b.iter(|| {
            let mut prob = SdpProblem::new();
            let blk = prob.add_psd_block(5);
            for r in 0..5 {
                for cc in r..5 {
                    prob.set_cost_entry(blk, r, cc, -1.0);
                }
            }
            let t = prob.add_constraint(1.0);
            for i in 0..5 {
                prob.set_entry(t, blk, i, i, 1.0);
            }
            for i in 0..5 {
                let e = prob.add_constraint(0.0);
                prob.set_entry(e, blk, i, (i + 1) % 5, 1.0);
            }
            black_box(prob.solve(&SolverOptions::default()).primal_objective)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("hybrid");
    g.sample_size(10);
    let pll = cyclic_automaton(PllOrder::Third, &TableOneParams::third_order());
    g.bench_function("cyclic_pfd_50_units", |b| {
        let sim = Simulator::new(pll.system())
            .with_step(2e-3)
            .with_thinning(100)
            .with_max_jumps(100_000);
        b.iter(|| {
            let arc = sim.simulate(black_box(&[0.0, 0.3, 0.0, 0.2]), 0, 50.0);
            black_box(arc.jumps())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("schur");
    let (p, x, sm) = schur_fixture(12, 24, 20);
    g.bench_function("assemble_sparse_12x24", |b| {
        b.iter(|| black_box(assemble_schur_for_tests(black_box(&p), &x, &sm)))
    });
    g.bench_function("assemble_dense_12x24", |b| {
        b.iter(|| black_box(assemble_schur_dense_for_tests(black_box(&p), &x, &sm)))
    });
    g.finish();

    let mut g = c.benchmark_group("ldlt");
    let kkt = kkt_fixture(8, 40, 24);
    g.bench_function("dense_344", |b| {
        b.iter(|| black_box(cppll_linalg::Ldlt::new(black_box(&kkt), 1e-12).unwrap()))
    });
    g.finish();
}

/// Best-of-`reps` wall-clock seconds of `f`.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Times the cache-blocked kernels against their naive references and
/// merges the numbers into the `kernels` section of `BENCH_SDP.json`,
/// alongside the pipeline section written by `reproduce --only bench`.
fn write_kernel_report() {
    use cppll_json::ObjectBuilder;

    const N: usize = 96; // crosses both the matmul (32) and Cholesky (48) tiles
    let a = spd(N);
    let b = spd(N);
    let mut out = Matrix::zeros(N, N);
    let reps = 5;
    let report = ObjectBuilder::new()
        .field("n", N)
        .field(
            "matmul_blocked_seconds",
            best_of(reps, || {
                a.matmul_into(&b, &mut out);
                black_box(&out);
            }),
        )
        .field(
            "matmul_naive_seconds",
            best_of(reps, || {
                black_box(black_box(&a).matmul_naive(&b));
            }),
        )
        .field(
            "cholesky_blocked_seconds",
            best_of(reps, || {
                black_box(black_box(&a).cholesky().unwrap());
            }),
        )
        .field(
            "cholesky_unblocked_seconds",
            best_of(reps, || {
                black_box(cppll_linalg::Cholesky::new_unblocked(black_box(&a)).unwrap());
            }),
        )
        .build();

    // Sparse-vs-dense Schur assembly, with a bit-identity guard: the sparse
    // path must reproduce its reference exactly, or the timing comparison
    // is meaningless. Then the dense LDLᵀ kernel on a block-arrowhead KKT.
    let (sp, sx, ss) = schur_fixture(12, 24, 20);
    let sparse_m = assemble_schur_for_tests(&sp, &sx, &ss);
    let dense_m = assemble_schur_dense_for_tests(&sp, &sx, &ss);
    assert!(
        sparse_m
            .as_slice()
            .iter()
            .zip(dense_m.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "sparse Schur assembly diverged from the dense reference"
    );
    let kkt = kkt_fixture(8, 40, 24);
    let kkt_f = cppll_linalg::Ldlt::new(&kkt, 1e-12).unwrap();
    let report = ObjectBuilder::new()
        .field("base", report)
        .field(
            "schur",
            ObjectBuilder::new()
                .field("blocks", 12usize)
                .field("block_dim", 24usize)
                .field("constraints", 12usize * 20)
                .field(
                    "assemble_sparse_seconds",
                    best_of(reps, || {
                        black_box(assemble_schur_for_tests(&sp, &sx, &ss));
                    }),
                )
                .field(
                    "assemble_dense_seconds",
                    best_of(reps, || {
                        black_box(assemble_schur_dense_for_tests(&sp, &sx, &ss));
                    }),
                )
                .build(),
        )
        .field(
            "ldlt",
            ObjectBuilder::new()
                .field("dim", kkt.nrows())
                .field("lower_nonzeros", kkt_f.lower_nonzeros())
                .field(
                    "dense_seconds",
                    best_of(reps, || {
                        black_box(cppll_linalg::Ldlt::new(&kkt, 1e-12).unwrap());
                    }),
                )
                .build(),
        )
        .build();
    let path = cppll_bench::bench_sdp_json_path();
    match cppll_bench::merge_bench_sdp(&path, "kernels", report) {
        Ok(()) => println!("[saved kernel timings to {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Trace-overhead guard for the telemetry subsystem: solving a fixed SDP
/// with an `iter`-level tracer attached must cost at most 5% wall-clock
/// over the untraced solve, and must not perturb the numerics by a single
/// bit (the tracer only *reads* already-computed iterate statistics). The
/// problem is sized so per-iteration linear algebra dominates the one
/// telemetry instant per iteration, and best-of timing over repeated
/// batches damps machine noise.
fn assert_trace_overhead_bounded() {
    use cppll_verify::{TraceLevel, Tracer};

    // theta(C_40): 41 equality constraints on one 40×40 PSD block.
    let n = 40usize;
    let mut prob = SdpProblem::new();
    let blk = prob.add_psd_block(n);
    for r in 0..n {
        for c in r..n {
            prob.set_cost_entry(blk, r, c, -1.0);
        }
    }
    let t = prob.add_constraint(1.0);
    for i in 0..n {
        prob.set_entry(t, blk, i, i, 1.0);
    }
    for i in 0..n {
        let e = prob.add_constraint(0.0);
        prob.set_entry(e, blk, i, (i + 1) % n, 1.0);
    }

    let reps = 7;
    let batch = 3;
    let untraced_obj = prob.solve(&SolverOptions::default()).primal_objective;
    let untraced = best_of(reps, || {
        for _ in 0..batch {
            black_box(prob.solve(&SolverOptions::default()).primal_objective);
        }
    });
    let mut traced_obj = f64::NAN;
    let mut iteration_events = 0usize;
    let traced = best_of(reps, || {
        let tracer = Tracer::new(TraceLevel::Iter);
        let opt = SolverOptions {
            trace: Some(tracer.clone()),
            ..SolverOptions::default()
        };
        for _ in 0..batch {
            traced_obj = black_box(prob.solve(&opt).primal_objective);
        }
        iteration_events = tracer.event_count();
    });
    assert_eq!(
        untraced_obj.to_bits(),
        traced_obj.to_bits(),
        "iter-level tracing perturbed the solve: {untraced_obj:?} vs {traced_obj:?}"
    );
    assert!(
        iteration_events > 0,
        "iter-level tracer recorded no events on a converging solve"
    );
    let overhead = traced / untraced - 1.0;
    assert!(
        overhead <= 0.05,
        "iter-level tracing overhead {:.1}% exceeds the 5% budget \
         (untraced {:.3}ms, traced {:.3}ms per batch)",
        overhead * 100.0,
        untraced * 1e3,
        traced * 1e3
    );
    println!(
        "[trace overhead: {:+.2}% at level=iter ({} events/batch, budget 5%)]",
        overhead * 100.0,
        iteration_events
    );
}

/// Timing assertion for the one-pass grlex `monomials_up_to`: enumerating a
/// deg-10 basis in 7 variables (19 448 monomials) must stay comfortably
/// sub-second, and the single pass must agree with degree-by-degree
/// concatenation. The bound is ~100× the observed cost so it only trips on
/// a genuine complexity regression (e.g. reverting to per-degree allocation
/// with quadratic copying), never on machine noise.
fn assert_monomial_enumeration_fast() {
    let (nvars, deg) = (7, 10u32);
    let secs = best_of(5, || {
        black_box(monomials_up_to(black_box(nvars), black_box(deg)));
    });
    let basis = monomials_up_to(nvars, deg);
    let reference: Vec<_> = (0..=deg)
        .flat_map(|d| cppll_poly::monomials_of_degree(nvars, d))
        .collect();
    assert_eq!(basis, reference, "one-pass grlex enumeration diverged");
    assert!(
        secs < 0.5,
        "monomials_up_to({nvars}, {deg}) took {secs:.3}s — one-pass enumeration regressed"
    );
    println!(
        "[monomials_up_to({nvars}, {deg}): {} monomials in {:.1}ms]",
        basis.len(),
        secs * 1e3
    );
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_kernel_report();
    assert_trace_overhead_bounded();
    assert_monomial_enumeration_fast();
}
