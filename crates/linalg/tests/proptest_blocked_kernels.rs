//! Property-based tests pinning the cache-blocked kernels to their naive
//! reference implementations.
//!
//! The blocked matmul and Cholesky are *designed* to apply the same
//! sequence of floating-point operations per entry as the references (only
//! the memory access pattern changes), so these tests assert bit-identity —
//! strictly stronger than the 1e-12 agreement the acceptance criteria ask
//! for. Sizes are drawn across tile boundaries (the matmul panel is 32
//! columns, the Cholesky panel 48), deliberately including non-multiples.

use cppll_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Largest dimension exercised; crosses the 48-column Cholesky panel.
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
}
