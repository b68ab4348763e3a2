//! Property-based tests pinning the cache-blocked kernels to their naive
//! reference implementations.
//!
//! The blocked matmul / Cholesky / LDLᵀ are *designed* to apply the same
//! sequence of floating-point operations per entry as the references (only
//! the memory access pattern changes), so these tests assert bit-identity —
//! strictly stronger than the 1e-12 agreement the acceptance criteria ask
//! for. Sizes are drawn across tile boundaries (the matmul panel is 32
//! columns, the factorisation panels 48), deliberately including
//! non-multiples.

use cppll_linalg::{Cholesky, Ldlt, Matrix};
use proptest::prelude::*;

/// Largest dimension exercised; crosses the 48-column factorisation panel.
const NMAX: usize = 72;

fn data_pool(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, len)
}

/// An n×n SPD matrix `B Bᵀ + n·I` built from the front of a data pool.
fn spd_from(pool: &[f64], n: usize) -> Matrix {
    let b = Matrix::from_col_major(n, n, pool[..n * n].to_vec());
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// A symmetric quasidefinite matrix: SPD leading block coupled to a negative
/// diagonal tail — the shape of the solver's KKT systems.
fn quasidefinite_from(pool: &[f64], n: usize) -> Matrix {
    let mut a = Matrix::from_col_major(n, n, pool[..n * n].to_vec());
    a.symmetrize();
    let split = n.div_ceil(2);
    for i in 0..n {
        if i < split {
            a[(i, i)] += n as f64;
        } else {
            a[(i, i)] = -(a[(i, i)].abs() + 1e-6);
        }
    }
    a
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matmul_matches_naive(pool_a in data_pool(NMAX * NMAX),
                                    pool_b in data_pool(NMAX * NMAX),
                                    m in 1usize..NMAX,
                                    k in 1usize..NMAX,
                                    n in 1usize..NMAX) {
        let a = Matrix::from_col_major(m, k, pool_a[..m * k].to_vec());
        let b = Matrix::from_col_major(k, n, pool_b[..k * n].to_vec());
        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        prop_assert!(max_abs_diff(&blocked, &naive) <= 1e-12,
                     "blocked matmul drifted for {m}x{k} * {k}x{n}");
        prop_assert!(bits_equal(&blocked, &naive),
                     "blocked matmul not bit-identical for {m}x{k} * {k}x{n}");
    }

    #[test]
    fn matmul_into_reuses_workspace(pool_a in data_pool(NMAX * NMAX),
                                    pool_b in data_pool(NMAX * NMAX),
                                    m in 1usize..40,
                                    k in 1usize..40,
                                    n in 1usize..40) {
        let a = Matrix::from_col_major(m, k, pool_a[..m * k].to_vec());
        let b = Matrix::from_col_major(k, n, pool_b[..k * n].to_vec());
        // Pre-soil the workspace: matmul_into must fully overwrite it.
        let mut out = Matrix::from_col_major(m, n, vec![f64::NAN; m * n]);
        a.matmul_into(&b, &mut out);
        prop_assert!(bits_equal(&out, &a.matmul(&b)));
    }

    #[test]
    fn blocked_cholesky_matches_unblocked(pool in data_pool(NMAX * NMAX),
                                          n in 1usize..NMAX) {
        let a = spd_from(&pool, n);
        let blocked = Cholesky::new(&a).unwrap();
        let reference = Cholesky::new_unblocked(&a).unwrap();
        prop_assert!(max_abs_diff(blocked.l(), reference.l()) <= 1e-12,
                     "blocked cholesky drifted at n={n}");
        prop_assert!(bits_equal(blocked.l(), reference.l()),
                     "blocked cholesky not bit-identical at n={n}");
    }

    #[test]
    fn blocked_cholesky_rejects_like_unblocked(pool in data_pool(NMAX * NMAX),
                                               n in 2usize..NMAX) {
        // Make the matrix indefinite by flipping a diagonal entry; both
        // kernels must fail at the same pivot.
        let mut a = spd_from(&pool, n);
        let bad = n / 2;
        a[(bad, bad)] = -1.0;
        let e1 = format!("{:?}", Cholesky::new(&a).unwrap_err());
        let e2 = format!("{:?}", Cholesky::new_unblocked(&a).unwrap_err());
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn blocked_ldlt_matches_reference(pool in data_pool(NMAX * NMAX),
                                      rhs in data_pool(NMAX),
                                      n in 1usize..NMAX) {
        let a = quasidefinite_from(&pool, n);
        let blocked = Ldlt::new(&a, 1e-12).unwrap();
        let reference = Ldlt::new_reference(&a, 1e-12).unwrap();
        prop_assert_eq!(blocked.regularised_pivots(), reference.regularised_pivots());
        prop_assert_eq!(blocked.inertia(), reference.inertia());
        let x1 = blocked.solve(&rhs[..n]);
        let x2 = reference.solve(&rhs[..n]);
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!(u.to_bits() == v.to_bits(),
                         "ldlt solve not bit-identical at n={n}: {u} vs {v}");
        }
    }

    #[test]
    fn packed_ldlt_matches_reference_across_panels(
        pool in data_pool(NMAX * NMAX),
        rhs in data_pool(NMAX),
        n in 1usize..NMAX,
    ) {
        // The blocked kernel must equal the left-looking reference bit for
        // bit — dims deliberately cross the 48-column panel boundary.
        let a = quasidefinite_from(&pool, n);
        let reference = Ldlt::new_reference(&a, 1e-12).unwrap();
        let xr = reference.solve(&rhs[..n]);
        let packed = Ldlt::new(&a, 1e-12).unwrap();
        prop_assert_eq!(packed.regularised_pivots(), reference.regularised_pivots());
        prop_assert_eq!(packed.inertia(), reference.inertia());
        let xp = packed.solve(&rhs[..n]);
        for (u, v) in xp.iter().zip(&xr) {
            prop_assert!(u.to_bits() == v.to_bits(),
                "packed ldlt solve not bit-identical at n={n}");
        }
    }

    #[test]
    fn packed_ldlt_exploits_block_sparsity(
        pool in data_pool(NMAX * NMAX),
        rhs in data_pool(NMAX),
        nb in 1usize..10,
        blocks in 2usize..5,
        tail in 1usize..8,
    ) {
        // Block-diagonal quasidefinite KKT shape (independent SOS identities
        // plus a free-variable tail): the zero-multiplier skip must leave
        // results identical to the reference while the factor stays sparse.
        let n = nb * blocks + tail;
        let mut a = Matrix::zeros(n, n);
        for b in 0..blocks {
            let lo = b * nb;
            for r in 0..nb {
                for c in 0..nb {
                    a[(lo + r, lo + c)] = pool[(b * nb * nb + r * nb + c) % pool.len()];
                }
            }
        }
        a.symmetrize();
        for i in 0..n {
            if i < nb * blocks {
                a[(i, i)] += n as f64;
            } else {
                // Arrowhead coupling of the tail to every block.
                for j in 0..nb * blocks {
                    let v = pool[(i * 31 + j) % pool.len()];
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
                a[(i, i)] = -(1.0 + (i as f64) / 8.0);
            }
        }
        let reference = Ldlt::new_reference(&a, 1e-12).unwrap();
        let xr = reference.solve(&rhs[..n]);
        let packed = Ldlt::new(&a, 1e-12).unwrap();
        prop_assert_eq!(packed.inertia(), reference.inertia());
        let xp = packed.solve(&rhs[..n]);
        for (u, v) in xp.iter().zip(&xr) {
            prop_assert!(u.to_bits() == v.to_bits(),
                "block-sparse ldlt solve differs at n={n}");
        }
        // Cross-block entries of L are exactly zero, so the packed factor
        // stores far fewer than the dense strictly-lower count.
        let dense_lower = n * (n - 1) / 2;
        let sparse_bound = blocks * nb * (nb - 1) / 2 + tail * (n - 1);
        let got = packed.lower_nonzeros();
        prop_assert!(got <= sparse_bound.min(dense_lower) + tail * tail,
            "factor denser than block structure allows: {got}");
    }

    #[test]
    fn tiled_ldlt_matches_reference_with_signed_zeros(
        pool in data_pool(NMAX * NMAX),
        kind in prop::collection::vec(0u8..6, NMAX * NMAX),
        rhs in data_pool(NMAX),
        n in 1usize..NMAX,
    ) {
        // The 8-row register tile and the 48-column panel at dimensions
        // that are mostly multiples of neither, with off-diagonal entries
        // replaced by +0.0 or -0.0 (exact-zero multipliers, signed zeros).
        let mut a = quasidefinite_from(&pool, n);
        for c in 0..n {
            for r in (c + 1)..n {
                let z = match kind[r * n + c] {
                    0 => Some(0.0),
                    1 | 2 => Some(-0.0),
                    _ => None,
                };
                if let Some(z) = z {
                    a[(r, c)] = z;
                    a[(c, r)] = z;
                }
            }
        }
        let reference = Ldlt::new_reference(&a, 1e-12).unwrap();
        let xr = reference.solve(&rhs[..n]);
        let tiled = Ldlt::new(&a, 1e-12).unwrap();
        prop_assert_eq!(tiled.regularised_pivots(), reference.regularised_pivots());
        prop_assert_eq!(tiled.inertia(), reference.inertia());
        prop_assert_eq!(tiled.lower_nonzeros(), reference.lower_nonzeros());
        let xt = tiled.solve(&rhs[..n]);
        for (u, v) in xt.iter().zip(&xr) {
            prop_assert!(u.to_bits() == v.to_bits(),
                "tiled ldlt solve differs at n={n}: {u} vs {v}");
        }
    }

    #[test]
    fn blocked_ldlt_regularises_like_reference(pool in data_pool(NMAX * NMAX),
                                               n in 2usize..32) {
        // Rank-deficient input forces the static-regularisation path.
        let b = Matrix::from_col_major(n, 1, pool[..n].to_vec());
        let mut a = b.matmul(&b.transpose()); // rank 1
        a[(0, 0)] += 1.0;
        let blocked = Ldlt::new(&a, 1e-10).unwrap();
        let reference = Ldlt::new_reference(&a, 1e-10).unwrap();
        prop_assert_eq!(blocked.regularised_pivots(), reference.regularised_pivots());
        prop_assert!(blocked.regularised_pivots() >= n.saturating_sub(2));
    }
}
