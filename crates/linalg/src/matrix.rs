//! Column-major dense matrix type and basic operations.

use crate::{Cholesky, FactorError, Ldlt, Lu, SymmetricEigen};

/// A dense, column-major `f64` matrix.
///
/// This is the single matrix type used throughout the workspace. It favours
/// clarity and predictability over raw speed, but the hot kernels (matrix
/// multiplication, factorisations) are written cache-consciously enough for
/// the Schur complements that arise in the SDP solver (a few thousand rows).
///
/// # Examples
///
/// ```
/// use cppll_linalg::Matrix;
///
/// let i = Matrix::identity(3);
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
/// assert_eq!(a.matmul(&i), a);
/// ```
#[derive(Debug, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    /// Column-major storage: entry `(r, c)` lives at `data[c * nrows + r]`.
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.clone(),
        }
    }

    /// Copies `source`'s shape and entries, keeping `self`'s allocation when
    /// it is large enough (the solver's scratch matrices rely on this).
    fn clone_from(&mut self, source: &Self) {
        self.nrows = source.nrows;
        self.ncols = source.ncols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a zero matrix of shape `nrows × ncols`.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut m = Matrix::zeros(nrows, ncols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "rows must have equal length");
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Creates a matrix of shape `nrows × ncols` from column-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length must match shape");
        Matrix { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrow of the column-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the column-major backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of column `c` as a contiguous slice.
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.nrows..(c + 1) * self.nrows]
    }

    /// Mutable borrow of column `c` as a contiguous slice.
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        let n = self.nrows;
        &mut self.data[c * n..(c + 1) * n]
    }

    /// Becomes the `nrows × ncols` zero matrix, keeping the allocation when
    /// it is large enough.
    pub fn reshape_zeroed(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.clear();
        self.data.resize(nrows * ncols, 0.0);
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(0, 0);
        self.transpose_into(&mut t);
        t
    }

    /// [`Matrix::transpose`] into `out`, which takes the transposed shape
    /// and keeps its allocation when it is large enough.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape_zeroed(self.ncols, self.nrows);
        for c in 0..self.ncols {
            for r in 0..self.nrows {
                out[(c, r)] = self[(r, c)];
            }
        }
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// Cache-blocked over panels of `self`'s columns; bit-identical to the
    /// unblocked reference (`matmul_naive`, behind the `oracle` feature)
    /// because every output column still accumulates its `k` terms in
    /// ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.nrows, rhs.ncols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-provided output buffer (reused
    /// across solver iterations to avoid allocation churn). Overwrites
    /// `out` entirely.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.ncols, rhs.nrows, "inner dimensions must agree");
        assert_eq!(
            (out.nrows, out.ncols),
            (self.nrows, rhs.ncols),
            "output shape must be lhs.nrows × rhs.ncols"
        );
        out.data.fill(0.0);
        // Panel of self's columns kept hot across every output column:
        // out[:, j] += self[:, k] * rhs[k, j] for k in the panel. Per output
        // column the k-accumulation order is globally ascending (panels are
        // visited in order), so the result matches the naive kernel bit for
        // bit while self is streamed from cache instead of memory.
        const KB: usize = 32;
        let nrows = self.nrows;
        for k0 in (0..self.ncols).step_by(KB) {
            let k1 = (k0 + KB).min(self.ncols);
            for j in 0..rhs.ncols {
                let dst = &mut out.data[j * nrows..(j + 1) * nrows];
                for k in k0..k1 {
                    let scale = rhs[(k, j)];
                    if scale == 0.0 {
                        continue;
                    }
                    let src = &self.data[k * nrows..(k + 1) * nrows];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += scale * s;
                    }
                }
            }
        }
    }

    /// Reference (unblocked) matrix–matrix product — the kernel the blocked
    /// [`Matrix::matmul`] is validated against in tests and benchmarks.
    /// Only built with the `oracle` feature.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[cfg(feature = "oracle")]
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.ncols, rhs.nrows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.nrows, rhs.ncols);
        // Column-major friendly loop order: out[:, j] += self[:, k] * rhs[k, j].
        for j in 0..rhs.ncols {
            for k in 0..self.ncols {
                let scale = rhs[(k, j)];
                if scale == 0.0 {
                    continue;
                }
                let src = &self.data[k * self.nrows..(k + 1) * self.nrows];
                let dst = &mut out.data[j * self.nrows..(j + 1) * self.nrows];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += scale * s;
                }
            }
        }
        out
    }

    /// Zeroes every entry in place (workspace reuse).
    pub fn set_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "vector length must equal ncols");
        let mut out = vec![0.0; self.nrows];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let col = self.col(c);
            for (o, &v) in out.iter_mut().zip(col) {
                *o += xc * v;
            }
        }
        out
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.nrows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "vector length must equal nrows");
        let mut out = vec![0.0; self.ncols];
        for (c, o) in out.iter_mut().enumerate() {
            let col = self.col(c);
            let mut acc = 0.0;
            for (&v, &xv) in col.iter().zip(x) {
                acc += v * xv;
            }
            *o = acc;
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "shapes must match"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        }
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "shapes must match"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        }
    }

    /// Scalar multiple `self * s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// In-place `self += s * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, s: f64, rhs: &Matrix) {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "shapes must match"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Frobenius inner product `⟨self, rhs⟩ = Σᵢⱼ selfᵢⱼ rhsᵢⱼ`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn dot(&self, rhs: &Matrix) -> f64 {
        assert_eq!(
            (self.nrows, self.ncols),
            (rhs.nrows, rhs.ncols),
            "shapes must match"
        );
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// Returns `true` if `|self[(r,c)] - self[(c,r)]| ≤ tol` for all entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for c in 0..self.ncols {
            for r in (c + 1)..self.nrows {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Replaces the matrix with its symmetric part `(A + Aᵀ)/2`.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for c in 0..self.ncols {
            for r in (c + 1)..self.nrows {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }

    /// LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Singular`] if a pivot vanishes to working
    /// precision, and [`FactorError::DimensionMismatch`] for non-square input.
    pub fn lu(&self) -> Result<Lu, FactorError> {
        Lu::new(self)
    }

    /// Cholesky factorisation `A = L Lᵀ` of a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NotPositiveDefinite`] if a pivot is not strictly
    /// positive — this doubles as the definiteness oracle in the SDP solver.
    pub fn cholesky(&self) -> Result<Cholesky, FactorError> {
        Cholesky::new(self)
    }

    /// LDLᵀ factorisation of a symmetric (possibly indefinite) matrix with
    /// diagonal regularisation `reg ≥ 0` applied to near-zero pivots; see
    /// [`Ldlt::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::DimensionMismatch`] for non-square input.
    pub fn ldlt(&self, reg: f64) -> Result<Ldlt, FactorError> {
        Ldlt::new(self, reg)
    }

    /// Symmetric eigendecomposition by the cyclic Jacobi method.
    ///
    /// The input is symmetrized (`(A + Aᵀ)/2`) before iteration.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetric_eigen(&self) -> SymmetricEigen {
        SymmetricEigen::new(self)
    }

    /// Solve `self * x = b` via LU.
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, FactorError> {
        Ok(self.lu()?.solve(b))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &self.data[c * self.nrows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        &mut self.data[c * self.nrows + r]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.nrows {
            write!(f, "[")?;
            for c in 0..self.ncols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4e}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().nrows(), 3);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = vec![7.0, -1.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![5.0, 17.0, 29.0]);
        let yt = a.matvec_transposed(&[1.0, 1.0, 1.0]);
        assert_eq!(yt, vec![9.0, 12.0]);
    }

    #[test]
    fn dot_and_norm() {
        let a = Matrix::identity(3);
        assert_eq!(a.dot(&a), 3.0);
        assert!((a.norm() - 3.0_f64.sqrt()).abs() < 1e-15);
        assert_eq!(a.trace(), 3.0);
    }

    #[test]
    fn symmetry_checks() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0 + 1e-12, 5.0]]);
        assert!(a.is_symmetric(1e-9));
        assert!(!a.is_symmetric(1e-15));
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.trace(), 6.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
