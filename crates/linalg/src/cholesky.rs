//! Cholesky factorisation of symmetric positive-definite matrices.

use crate::{FactorError, Matrix};

/// Cholesky factorisation `A = L Lᵀ` with `L` lower triangular.
///
/// The same kernel is the interior-point line search's definiteness test:
/// [`is_positive_definite_shifted`] factors a shifted whitened direction
/// `L⁻¹ ΔX L⁻ᵀ + σ I` to rule out blocks whose minimum eigenvalue cannot
/// bound the step.
///
/// # Examples
///
/// ```
/// use cppll_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0, 0.0],
///                             &[-5.0, 0.0, 11.0]]);
/// let l = a.cholesky().expect("spd").l().clone();
/// assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NotPositiveDefinite`] when a pivot is not
    /// strictly positive, and [`FactorError::DimensionMismatch`] for
    /// non-square input.
    pub fn new(a: &Matrix) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::DimensionMismatch {
                context: "cholesky requires a square matrix",
            });
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        // Work on a copy of the lower triangle; the factor overwrites it.
        for c in 0..n {
            for r in c..n {
                l[(r, c)] = a[(r, c)];
            }
        }
        factor_lower_in_place(l.as_mut_slice(), n)?;
        Ok(Cholesky { l })
    }

    /// Reference (unblocked, left-looking) factorisation — the kernel the
    /// blocked [`Cholesky::new`] is validated against in tests. Produces
    /// bit-identical factors.
    ///
    /// # Errors
    ///
    /// Same contract as [`Cholesky::new`].
    pub fn new_unblocked(a: &Matrix) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::DimensionMismatch {
                context: "cholesky requires a square matrix",
            });
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            if d <= 0.0 || d.is_nan() || !d.is_finite() {
                return Err(FactorError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solves `A x = b` via two triangular solves.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A x = b` in place.
    ///
    /// Both sweeps are column-oriented: per target entry the subtractions
    /// still happen in ascending column order with the division last, so the
    /// result is bit-identical to the textbook row walk — but every inner
    /// loop now reads one contiguous column slice of `L`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factored dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "rhs length must equal matrix dimension");
        // L y = b
        for j in 0..n {
            let col = self.l.col(j);
            let xj = x[j] / col[j];
            x[j] = xj;
            for i in (j + 1)..n {
                x[i] -= col[i] * xj;
            }
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let col = self.l.col(i);
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= col[j] * x[j];
            }
            x[i] = acc / col[i];
        }
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Panics
    ///
    /// Panics if `b.nrows()` differs from the factored dimension.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.nrows(), n, "rhs rows must equal matrix dimension");
        let mut out = b.clone();
        for c in 0..b.ncols() {
            self.solve_in_place(out.col_mut(c));
        }
        out
    }

    /// Inverse of the factored matrix.
    pub fn inverse(&self) -> Matrix {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Solves the lower-triangular system `L y = b` only.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_lower_in_place(&mut x);
        x
    }

    /// Solves `L y = b` in place (column-oriented forward sweep; see
    /// [`Cholesky::solve_in_place`] for the bit-identity argument).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factored dimension.
    pub fn solve_lower_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "rhs length must equal matrix dimension");
        for j in 0..n {
            let col = self.l.col(j);
            let xj = x[j] / col[j];
            x[j] = xj;
            for i in (j + 1)..n {
                x[i] -= col[i] * xj;
            }
        }
    }

    /// Solves `L Z = B` (lower-triangular, matrix right-hand side).
    ///
    /// # Panics
    ///
    /// Panics if `b.nrows()` differs from the factored dimension.
    pub fn solve_lower_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.nrows(), n, "rhs rows must equal matrix dimension");
        let mut out = b.clone();
        for c in 0..b.ncols() {
            self.solve_lower_in_place(out.col_mut(c));
        }
        out
    }

    /// Computes the symmetric similarity transform `L⁻¹ M L⁻ᵀ` for a
    /// symmetric `M` (used for exact interior-point step lengths).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square of the factored dimension.
    pub fn whiten(&self, m: &Matrix) -> Matrix {
        let y = self.solve_lower_matrix(m); // L⁻¹ M
        let mut w = self.solve_lower_matrix(&y.transpose()); // L⁻¹ Mᵀ L⁻ᵀ … transposed
        w.symmetrize();
        w
    }

    /// log(det A) computed stably from the factor.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Returns `true` when `a + shift·I` is positive definite, judged by its
/// Cholesky factorisation (the [`Cholesky::new`] kernel) written into
/// `scratch`.
///
/// Only the lower triangle of `a` is read. `scratch` is resized to `n²` and
/// then reused, so repeated calls with blocks no larger than the first do
/// not allocate. A `true` answer certifies `λ_min(a) > −shift` up to the
/// factorisation's backward error, a small multiple of `n·ε·‖a + shift·I‖`.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn is_positive_definite_shifted(a: &Matrix, shift: f64, scratch: &mut Vec<f64>) -> bool {
    assert!(a.is_square(), "definiteness test requires a square matrix");
    let n = a.nrows();
    scratch.clear();
    scratch.extend_from_slice(a.as_slice());
    for i in 0..n {
        scratch[i * n + i] += shift;
    }
    factor_lower_in_place(scratch, n).is_ok()
}

/// The blocked Cholesky kernel: factors the column-major `n × n` matrix in
/// `dat` in place, reading and writing only its lower triangle.
///
/// # Errors
///
/// Returns [`FactorError::NotPositiveDefinite`] at the first pivot that is
/// not strictly positive; `dat` is then partly overwritten.
fn factor_lower_in_place(dat: &mut [f64], n: usize) -> Result<(), FactorError> {
    // Blocked right-looking factorisation. Every entry still receives its
    // `-= l_ik · l_jk` updates in globally ascending k (panels are visited
    // in order and each applies its columns in order), so the result is
    // bit-identical to the unblocked left-looking reference
    // ([`Cholesky::new_unblocked`]) — only the memory access pattern
    // changes: all inner loops walk contiguous column slices.
    const NB: usize = 48;
    for j0 in (0..n).step_by(NB) {
        let j1 = (j0 + NB).min(n);
        // Factor the panel columns j0..j1 (including the rows below the
        // panel), right-looking within the panel.
        for j in j0..j1 {
            let d = dat[j * n + j];
            // NOTE: `!(d > 0.0)` would also catch NaN; spell it out.
            if d <= 0.0 || d.is_nan() || !d.is_finite() {
                return Err(FactorError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            dat[j * n + j] = dj;
            for v in &mut dat[j * n + j + 1..(j + 1) * n] {
                *v /= dj;
            }
            // Apply column j's rank-1 update to the rest of the panel.
            for c in (j + 1)..j1 {
                let (head, tail) = dat.split_at_mut(c * n);
                let lj = &head[j * n..j * n + n];
                let ljc = lj[c];
                let cc = &mut tail[..n];
                for i in c..n {
                    cc[i] -= lj[i] * ljc;
                }
            }
        }
        // Trailing update: subtract the whole panel's contribution from
        // columns ≥ j1 while the panel is hot in cache.
        for c in j1..n {
            let (head, tail) = dat.split_at_mut(c * n);
            let cc = &mut tail[..n];
            for k in j0..j1 {
                let lk = &head[k * n..k * n + n];
                let lkc = lk[c];
                for i in c..n {
                    cc[i] -= lk[i] * lkc;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
    }

    #[test]
    fn reconstruction() {
        let a = spd3();
        let l = a.cholesky().unwrap().l().clone();
        let llt = l.matmul(&l.transpose());
        assert!(llt.sub(&a).norm() < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd3();
        let b = [1.0, 2.0, 3.0];
        let x1 = a.cholesky().unwrap().solve(&b);
        let x2 = a.lu().unwrap().solve(&b);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            a.cholesky(),
            Err(FactorError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_semidefinite() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn whiten_matches_explicit() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        // whiten(A) must be the identity.
        let w = ch.whiten(&a);
        assert!(w.sub(&Matrix::identity(3)).norm() < 1e-12);
        // whiten preserves eigenvalue signs of M w.r.t. A (congruence).
        let m = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, -2.0, 0.0], &[0.0, 0.0, 0.5]]);
        let w = ch.whiten(&m);
        let e = w.symmetric_eigen();
        assert!(e.min_eigenvalue() < 0.0);
        assert!(e.max_eigenvalue() > 0.0);
    }

    #[test]
    fn column_oriented_solve_matches_row_walk_bitwise() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let b = [0.125, -3.5, 2.75];
        let got = ch.solve(&b);
        // Textbook row-walk reference.
        let n = 3;
        let mut x = b.to_vec();
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= ch.l()[(i, j)] * x[j];
            }
            x[i] = acc / ch.l()[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= ch.l()[(j, i)] * x[j];
            }
            x[i] = acc / ch.l()[(i, i)];
        }
        for (u, v) in got.iter().zip(&x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn shifted_test_agrees_with_factoring_the_shifted_matrix() {
        // Eigenvalues of [[1, 2], [2, 1]] are −1 and 3.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let mut scratch = Vec::new();
        for shift in [-2.0, 0.0, 0.5, 0.999, 1.001, 4.0] {
            let mut b = a.clone();
            for i in 0..2 {
                b[(i, i)] += shift;
            }
            assert_eq!(
                is_positive_definite_shifted(&a, shift, &mut scratch),
                b.cholesky().is_ok(),
                "shift {shift}"
            );
        }
        assert!(!is_positive_definite_shifted(&a, 0.999, &mut scratch));
        assert!(is_positive_definite_shifted(&a, 1.001, &mut scratch));
    }

    #[test]
    fn shifted_test_reuses_its_scratch() {
        let mut scratch = Vec::new();
        assert!(is_positive_definite_shifted(&spd3(), 0.0, &mut scratch));
        let (ptr, cap) = (scratch.as_ptr(), scratch.capacity());
        let small = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        assert!(is_positive_definite_shifted(&small, 0.0, &mut scratch));
        assert!(!is_positive_definite_shifted(&spd3(), -100.0, &mut scratch));
        assert_eq!((scratch.as_ptr(), scratch.capacity()), (ptr, cap));
    }

    #[test]
    fn log_det_matches_det() {
        let a = spd3();
        let ld = a.cholesky().unwrap().log_det();
        let d = a.lu().unwrap().det();
        assert!((ld - d.ln()).abs() < 1e-10);
    }
}
