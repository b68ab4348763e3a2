//! Property-based tests for the dense factorisations.

use cppll_linalg::{jacobi_min_eigenvalue, Matrix};
use proptest::prelude::*;

/// Strategy: a random well-conditioned SPD matrix `A = B Bᵀ + n·I`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let b = Matrix::from_col_major(n, n, data);
        let mut a = b.matmul(&b.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    })
}

/// Strategy: a random nonsingular-ish square matrix `A = B + 3n·I`.
fn diag_dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut a = Matrix::from_col_major(n, n, data);
        for i in 0..n {
            a[(i, i)] += 3.0 * n as f64;
        }
        a
    })
}

/// A square matrix of dimension `n` built from 64 raw draws: entries keep
/// their `[-1, 1)` value, are scaled by 1e6, or are zeroed, by `kind`.
fn mixed_square(n: usize, raw: &[f64], kind: &[u8]) -> Matrix {
    let data = raw[..n * n]
        .iter()
        .zip(kind)
        .map(|(&v, &k)| match k {
            0 => 0.0,
            1 => v * 1e6,
            _ => v,
        })
        .collect();
    Matrix::from_col_major(n, n, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn min_eigenvalue_without_vectors_is_bit_identical(
        n in 1usize..9,
        raw in prop::collection::vec(-1.0f64..1.0, 64),
        kind in prop::collection::vec(0u8..5, 64),
    ) {
        // Not symmetric and often indefinite: both paths symmetrize first.
        let a = mixed_square(n, &raw, &kind);
        let full = a.symmetric_eigen().min_eigenvalue();
        prop_assert_eq!(jacobi_min_eigenvalue(&a).to_bits(), full.to_bits());
    }

    #[test]
    fn lu_solve_residual_small(a in diag_dominant_matrix(6),
                               b in prop::collection::vec(-10.0f64..10.0, 6)) {
        let x = a.lu().unwrap().solve(&b);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_reconstructs(a in spd_matrix(5)) {
        let l = a.cholesky().unwrap().l().clone();
        let rec = l.matmul(&l.transpose());
        prop_assert!(rec.sub(&a).norm() < 1e-9 * a.norm().max(1.0));
    }

    #[test]
    fn ldlt_solves_spd(a in spd_matrix(5),
                       b in prop::collection::vec(-10.0f64..10.0, 5)) {
        let x = a.ldlt(0.0).unwrap().solve(&b);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn eigen_reconstructs_and_is_orthonormal(a in spd_matrix(5)) {
        let e = a.symmetric_eigen();
        let v = e.eigenvectors();
        let lam = Matrix::from_diag(e.eigenvalues());
        let rec = v.matmul(&lam).matmul(&v.transpose());
        prop_assert!(rec.sub(&a).norm() < 1e-8 * a.norm().max(1.0));
        let vtv = v.transpose().matmul(v);
        prop_assert!(vtv.sub(&Matrix::identity(5)).norm() < 1e-10);
        // SPD ⇒ all eigenvalues positive.
        prop_assert!(e.min_eigenvalue() > 0.0);
    }

    #[test]
    fn eigenvalues_sorted_ascending(a in spd_matrix(6)) {
        let e = a.symmetric_eigen();
        for w in e.eigenvalues().windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn det_product_rule(a in diag_dominant_matrix(4), b in diag_dominant_matrix(4)) {
        let da = a.lu().unwrap().det();
        let db = b.lu().unwrap().det();
        let dab = a.matmul(&b).lu().unwrap().det();
        prop_assert!((dab - da * db).abs() < 1e-6 * dab.abs().max(1.0));
    }

    #[test]
    fn trace_equals_eigenvalue_sum(a in spd_matrix(5)) {
        let e = a.symmetric_eigen();
        let s: f64 = e.eigenvalues().iter().sum();
        prop_assert!((s - a.trace()).abs() < 1e-9 * a.trace().abs().max(1.0));
    }
}
