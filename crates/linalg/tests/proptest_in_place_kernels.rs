//! Property-based tests pinning every in-place kernel to its allocating
//! form bit for bit.
//!
//! The interior-point solver keeps one set of buffers for a whole solve and
//! reuses them across blocks and iterations, so each case runs a kernel
//! twice into the same output and scratch: first at a larger dimension,
//! then at a smaller one (down to `n = 1`), and compares both results with
//! a fresh allocating call using `to_bits`. Where the allocating form now
//! wraps the in-place one, the expected value is also computed the way the
//! allocating form did before, from the kernels it was written in.

use cppll_linalg::{jacobi_min_eigenvalue, jacobi_min_eigenvalue_with, Cholesky, Matrix};
use proptest::prelude::*;

/// Largest dimension exercised.
const NMAX: usize = 9;

/// An n×n SPD matrix `B Bᵀ + n·I` from the front of `pool`.
fn spd_from(pool: &[f64], n: usize) -> Matrix {
    let b = Matrix::from_col_major(n, n, pool[..n * n].to_vec());
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// An n×n symmetric, typically indefinite matrix from the back of `pool`.
fn sym_from(pool: &[f64], n: usize) -> Matrix {
    let mut a = Matrix::from_col_major(n, n, pool[pool.len() - n * n..].to_vec());
    a.symmetrize();
    a
}

fn bits(a: &Matrix) -> (usize, usize, Vec<u64>) {
    (
        a.nrows(),
        a.ncols(),
        a.as_slice().iter().map(|x| x.to_bits()).collect(),
    )
}

/// The larger dimension first, then the smaller one.
fn dims(n1: usize, n2: usize) -> [usize; 2] {
    [n1.max(n2), n1.min(n2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn refactor_matches_a_fresh_factor(pool in prop::collection::vec(-1.0f64..1.0, NMAX * NMAX),
                                       n1 in 1usize..NMAX + 1,
                                       n2 in 1usize..NMAX + 1) {
        let mut chol = Cholesky::identity(NMAX);
        for n in dims(n1, n2) {
            let a = spd_from(&pool, n);
            chol.refactor(&a).unwrap();
            prop_assert_eq!(bits(chol.l()), bits(Cholesky::new(&a).unwrap().l()));
            prop_assert_eq!(bits(chol.l()), bits(Cholesky::new_unblocked(&a).unwrap().l()));
        }
    }

    #[test]
    fn shifted_refactor_matches_factoring_the_shifted_copy(
        pool in prop::collection::vec(-1.0f64..1.0, NMAX * NMAX),
        n1 in 1usize..NMAX + 1,
        n2 in 1usize..NMAX + 1,
        scale in 1e-14f64..1e-10,
    ) {
        // A rank-one PSD matrix fails to factor until its diagonal is
        // nudged: the solver's robust-factorisation path.
        let mut chol = Cholesky::identity(NMAX);
        for n in dims(n1, n2) {
            let v = Matrix::from_col_major(n, 1, pool[..n].to_vec());
            let a = v.matmul(&v.transpose());
            let shift = scale * a.trace().abs().max(1.0) / n as f64;
            let mut shifted = a.clone();
            for i in 0..n {
                shifted[(i, i)] += shift;
            }
            let want = Cholesky::new_unblocked(&shifted);
            let got = chol.refactor_shifted(&a, shift);
            let (got_err, want_err) = (got.as_ref().err().cloned(), want.as_ref().err().cloned());
            prop_assert_eq!(got_err, want_err);
            if let Ok(want) = want {
                prop_assert_eq!(bits(chol.l()), bits(want.l()));
            }
            // A failed refactor leaves the factor reusable.
            prop_assert!(chol.refactor(&spd_from(&pool, n)).is_ok());
        }
    }

    #[test]
    fn inverse_into_matches_inverse(pool in prop::collection::vec(-1.0f64..1.0, NMAX * NMAX),
                                    n1 in 1usize..NMAX + 1,
                                    n2 in 1usize..NMAX + 1) {
        let mut out = Matrix::from_col_major(2, 3, vec![f64::NAN; 6]);
        for n in dims(n1, n2) {
            let chol = spd_from(&pool, n).cholesky().unwrap();
            chol.inverse_into(&mut out);
            prop_assert_eq!(bits(&out), bits(&chol.inverse()));
            prop_assert_eq!(bits(&out), bits(&chol.solve_matrix(&Matrix::identity(n))));
        }
    }

    #[test]
    fn whiten_into_matches_whiten(pool in prop::collection::vec(-1.0f64..1.0, NMAX * NMAX),
                                  n1 in 1usize..NMAX + 1,
                                  n2 in 1usize..NMAX + 1) {
        let mut scratch = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(NMAX, NMAX);
        for n in dims(n1, n2) {
            let chol = spd_from(&pool, n).cholesky().unwrap();
            let d = sym_from(&pool, n);
            chol.whiten_into(&d, &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&chol.whiten(&d)));
            let y = chol.solve_lower_matrix(&d);
            let mut want = chol.solve_lower_matrix(&y.transpose());
            want.symmetrize();
            prop_assert_eq!(bits(&out), bits(&want));
        }
    }

    #[test]
    fn min_eigenvalue_with_scratch_matches(pool in prop::collection::vec(-1.0f64..1.0, NMAX * NMAX),
                                           n1 in 1usize..NMAX + 1,
                                           n2 in 1usize..NMAX + 1) {
        let mut scratch = Matrix::zeros(NMAX, NMAX);
        for n in dims(n1, n2) {
            // Not symmetric: both forms symmetrize their working copy.
            let a = Matrix::from_col_major(n, n, pool[..n * n].to_vec());
            let got = jacobi_min_eigenvalue_with(&a, &mut scratch).to_bits();
            prop_assert_eq!(got, jacobi_min_eigenvalue(&a).to_bits());
            prop_assert_eq!(got, a.symmetric_eigen().min_eigenvalue().to_bits());
        }
    }

    #[test]
    fn transpose_and_clone_into_reused_storage(pool in prop::collection::vec(-1.0f64..1.0, NMAX * NMAX),
                                               r1 in 1usize..NMAX + 1,
                                               c1 in 1usize..NMAX + 1,
                                               r2 in 1usize..NMAX + 1,
                                               c2 in 1usize..NMAX + 1) {
        let mut t = Matrix::zeros(0, 0);
        let mut copy = Matrix::identity(NMAX);
        for (r, c) in [(r1, c1), (r2, c2)] {
            let a = Matrix::from_col_major(r, c, pool[..r * c].to_vec());
            a.transpose_into(&mut t);
            let mut want = Matrix::zeros(c, r);
            for j in 0..c {
                for i in 0..r {
                    want[(j, i)] = a[(i, j)];
                }
            }
            prop_assert_eq!(bits(&t), bits(&want));
            copy.clone_from(&a);
            prop_assert_eq!(bits(&copy), bits(&a));
        }
    }

    #[test]
    fn sparse_ldl_solves_in_place_like_solve(pool in prop::collection::vec(-1.0f64..1.0, NMAX * NMAX + NMAX),
                                             n in 1usize..NMAX + 1,
                                             saddle in 0usize..NMAX) {
        // A quasidefinite matrix: SPD leading block, negative trailing
        // diagonal, zeros left in by the sparsity of `pool`.
        let mut a = spd_from(&pool, n);
        for i in n - saddle.min(n - 1)..n {
            a[(i, i)] = -a[(i, i)];
        }
        for v in a.as_mut_slice() {
            if v.abs() < 0.3 {
                *v = 0.0;
            }
        }
        a.symmetrize();
        let f = a.ldlt(1e-12).unwrap();
        let b = &pool[NMAX * NMAX..NMAX * NMAX + n];
        let mut x = b.to_vec();
        f.factor().solve_in_place(&mut x);
        let want = f.solve(b);
        prop_assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
