//! Symmetric eigendecomposition by the cyclic Jacobi method.

use std::cmp::Ordering;

use crate::Matrix;

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// Computed with the cyclic Jacobi rotation method, which is slow (O(n³) per
/// sweep, a handful of sweeps) but extremely robust and accurate for the
/// moderate sizes (≤ a few hundred) appearing in Gram-matrix certificate
/// extraction.
///
/// Eigenvalues are returned in **ascending** order with matching eigenvector
/// columns.
///
/// # Examples
///
/// ```
/// use cppll_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let e = a.symmetric_eigen();
/// assert!((e.eigenvalues()[0] - 1.0).abs() < 1e-12);
/// assert!((e.eigenvalues()[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes `(a + aᵀ)/2`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Self {
        assert!(a.is_square(), "eigendecomposition requires a square matrix");
        let n = a.nrows();
        let mut m = a.clone();
        m.symmetrize();
        let mut v = Matrix::identity(n);
        jacobi_sweeps(&mut m, Some(&mut v));
        // Extract and sort ascending.
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("eigenvalues are finite"));
        let eigenvalues: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
        let mut eigenvectors = Matrix::zeros(n, n);
        for (new_c, &(_, old_c)) in pairs.iter().enumerate() {
            for r in 0..n {
                eigenvectors[(r, new_c)] = v[(r, old_c)];
            }
        }
        SymmetricEigen {
            eigenvalues,
            eigenvectors,
        }
    }

    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthonormal eigenvector matrix; column `i` pairs with eigenvalue `i`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        self.eigenvalues[0]
    }

    /// Largest eigenvalue.
    pub fn max_eigenvalue(&self) -> f64 {
        *self.eigenvalues.last().expect("nonempty spectrum")
    }

    /// Reconstructs `V diag(λ⁺) Vᵀ` keeping only eigenvalues above `floor`
    /// (a PSD projection used when extracting Gram-matrix certificates).
    pub fn psd_projection(&self, floor: f64) -> Matrix {
        let n = self.eigenvalues.len();
        let mut out = Matrix::zeros(n, n);
        for (i, &l) in self.eigenvalues.iter().enumerate() {
            if l <= floor {
                continue;
            }
            let vcol = self.eigenvectors.col(i);
            for c in 0..n {
                let lc = l * vcol[c];
                for r in 0..n {
                    out[(r, c)] += vcol[r] * lc;
                }
            }
        }
        out
    }
}

/// Smallest eigenvalue of `(a + aᵀ)/2`, bit-identical to
/// `SymmetricEigen::new(a).min_eigenvalue()`.
///
/// Runs the same Jacobi sweeps as [`SymmetricEigen::new`] but neither
/// accumulates eigenvectors nor sorts. The rotations never read `V`, so the
/// diagonal they leave behind is the same to the bit, at about two thirds
/// of the cost. Among diagonal entries that compare equal (`-0.0` and
/// `+0.0`), the first one is returned, as the stable ascending sort does.
///
/// # Panics
///
/// Panics if `a` is not square or is empty, or if an eigenvalue is NaN.
pub fn jacobi_min_eigenvalue(a: &Matrix) -> f64 {
    jacobi_min_eigenvalue_with(a, &mut Matrix::zeros(0, 0))
}

/// [`jacobi_min_eigenvalue`] with the working copy of `a` kept in
/// `scratch`, which keeps its allocation when it is large enough. The same
/// sweeps on the same values, so the result is bit-identical.
///
/// # Panics
///
/// Same contract as [`jacobi_min_eigenvalue`].
pub fn jacobi_min_eigenvalue_with(a: &Matrix, scratch: &mut Matrix) -> f64 {
    assert!(a.is_square(), "eigendecomposition requires a square matrix");
    let m = scratch;
    m.clone_from(a);
    m.symmetrize();
    jacobi_sweeps(m, None);
    let mut lmin = m[(0, 0)];
    for i in 1..m.nrows() {
        let d = m[(i, i)];
        if d.partial_cmp(&lmin).expect("eigenvalues are finite") == Ordering::Less {
            lmin = d;
        }
    }
    lmin
}

/// Cyclic Jacobi sweeps on the symmetric working matrix `m`, until its
/// off-diagonal mass is negligible or 64 sweeps have run, leaving the
/// eigenvalues on the diagonal. Each rotation is also applied to the
/// columns of `v` when one is given; the rotations depend on `m` alone.
fn jacobi_sweeps(m: &mut Matrix, mut v: Option<&mut Matrix>) {
    let n = m.nrows();
    let max_sweeps = 64;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        let scale = m.norm().max(1.0);
        if off.sqrt() <= 1e-15 * scale {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation to rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                if let Some(v) = v.as_deref_mut() {
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_spectrum() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = a.symmetric_eigen();
        let got = e.eigenvalues();
        assert!((got[0] - 1.0).abs() < 1e-12);
        assert!((got[1] - 2.0).abs() < 1e-12);
        assert!((got[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let e = a.symmetric_eigen();
        let v = e.eigenvectors();
        let lam = Matrix::from_diag(e.eigenvalues());
        let rec = v.matmul(&lam).matmul(&v.transpose());
        assert!(rec.sub(&a).norm() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
        let e = a.symmetric_eigen();
        let v = e.eigenvectors();
        let vtv = v.transpose().matmul(v);
        assert!(vtv.sub(&Matrix::identity(2)).norm() < 1e-12);
    }

    #[test]
    fn psd_projection_clips_negative_part() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]); // eigenvalues ±1
        let e = a.symmetric_eigen();
        let p = e.psd_projection(0.0);
        let ep = p.symmetric_eigen();
        assert!(ep.min_eigenvalue() > -1e-12);
        assert!((ep.max_eigenvalue() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn min_eigenvalue_without_vectors_is_bit_identical() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.5], &[-2.0, 0.5, -3.0]]);
        let full = a.symmetric_eigen().min_eigenvalue();
        assert_eq!(jacobi_min_eigenvalue(&a).to_bits(), full.to_bits());
        // Ties between signed zeros resolve to the first, as the stable sort does.
        let z = Matrix::from_diag(&[0.0, -0.0, 1.0]);
        assert_eq!(jacobi_min_eigenvalue(&z).to_bits(), 0.0f64.to_bits());
        let z = Matrix::from_diag(&[1.0, -0.0, 0.0]);
        assert_eq!(jacobi_min_eigenvalue(&z).to_bits(), (-0.0f64).to_bits());
        assert_eq!(jacobi_min_eigenvalue(&Matrix::from_diag(&[-2.5])), -2.5);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = a.symmetric_eigen();
        assert!((e.min_eigenvalue() - 1.0).abs() < 1e-12);
        assert!((e.max_eigenvalue() - 3.0).abs() < 1e-12);
    }
}
