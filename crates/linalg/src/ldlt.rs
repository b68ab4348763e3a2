//! LDLᵀ factorisation for symmetric (quasidefinite) KKT systems.

use crate::{FactorError, Matrix};

/// LDLᵀ factorisation `A = L D Lᵀ` with unit lower-triangular `L` and
/// diagonal `D`, using 1×1 pivots and *static regularisation*.
///
/// The interior-point method produces symmetric quasidefinite KKT systems of
/// the form `[[M, B], [Bᵀ, -δI]]` with `M ⪰ 0`. Such matrices admit an LDLᵀ
/// factorisation without pivoting; near-zero pivots (possible in the limit of
/// the central path) are nudged by `reg` with the sign they were drifting
/// towards, which is the standard static-regularisation safeguard.
///
/// This is the dense, unblocked, left-looking kernel. The SDP solver factors
/// its KKT systems in block-arrowhead storage instead, and is pinned bit for
/// bit to this kernel in tests: the per-entry operation order below is the
/// contract. Column `j` takes, for every row `i ≥ j`, the terms
/// `(L[i,k] · L[j,k]) · d_k` in ascending `k`, skipping every `k` whose
/// multiplier `L[j,k]` is exactly zero. That skip is what lets a
/// block-structured factorisation leave out every cross-block term and
/// still reproduce this one.
///
/// # Examples
///
/// ```
/// use cppll_linalg::Matrix;
///
/// // A saddle-point system.
/// let a = Matrix::from_rows(&[&[2.0, 0.0, 1.0],
///                             &[0.0, 2.0, 1.0],
///                             &[1.0, 1.0, 0.0]]);
/// let f = a.ldlt(1e-12).expect("factorable");
/// let x = f.solve(&[1.0, 1.0, 1.0]);
/// let r = a.matvec(&x);
/// assert!((r[0] - 1.0).abs() < 1e-8);
/// ```
#[derive(Debug, Clone)]
pub struct Ldlt {
    /// Number of pivots that required regularisation.
    regularised: usize,
    /// The factor, indexed for solves.
    factor: SparseLdl,
}

impl Ldlt {
    /// Factors a symmetric matrix; only the lower triangle is read.
    ///
    /// `reg` is the magnitude used to replace pivots whose absolute value
    /// falls below `reg` (zero disables regularisation — then a vanishing
    /// pivot produces [`FactorError::Singular`]).
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::DimensionMismatch`] for non-square input, and
    /// [`FactorError::Singular`] when a pivot vanishes and `reg == 0`.
    pub fn new(a: &Matrix, reg: f64) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::DimensionMismatch {
                context: "ldlt requires a square matrix",
            });
        }
        let n = a.nrows();
        let mut ld = Matrix::zeros(n, n);
        for c in 0..n {
            for r in c..n {
                ld[(r, c)] = a[(r, c)];
            }
        }
        let mut regularised = 0;
        let mut factor = SparseLdl::default();
        for j in 0..n {
            // d_j = a_jj - Σ_k L_jk² d_k
            let mut d = ld[(j, j)];
            for k in 0..j {
                let l = ld[(j, k)];
                if l == 0.0 {
                    continue;
                }
                d -= l * l * ld[(k, k)];
            }
            if d.abs() < reg {
                regularised += 1;
                d = if d >= 0.0 { reg } else { -reg };
            }
            if d == 0.0 {
                return Err(FactorError::Singular { pivot: j });
            }
            ld[(j, j)] = d;
            for i in (j + 1)..n {
                let mut v = ld[(i, j)];
                for k in 0..j {
                    let ljk = ld[(j, k)];
                    if ljk == 0.0 {
                        continue;
                    }
                    v -= ld[(i, k)] * ljk * ld[(k, k)];
                }
                ld[(i, j)] = v / d;
            }
            factor.push_column(d, ((j + 1)..n).map(|i| (i, ld[(i, j)])));
        }
        Ok(Ldlt {
            regularised,
            factor,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }

    /// Number of pivots that hit the regularisation floor.
    pub fn regularised_pivots(&self) -> usize {
        self.regularised
    }

    /// Number of stored strictly-lower nonzeros of `L` — the work a solve
    /// actually performs (the dense count is `n(n-1)/2`).
    pub fn lower_nonzeros(&self) -> usize {
        self.factor.lower_nonzeros()
    }

    /// The factor in the compressed-column form its solves walk.
    pub fn factor(&self) -> &SparseLdl {
        &self.factor
    }

    /// Solves `A x = b`; see [`SparseLdl::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.factor.solve(b)
    }

    /// Inertia `(n_pos, n_neg)` of the factored matrix — the counts of
    /// positive and negative pivots (Sylvester's law of inertia).
    pub fn inertia(&self) -> (usize, usize) {
        let pos = self.factor.pivots().iter().filter(|&&d| d > 0.0).count();
        (pos, self.dim() - pos)
    }
}

/// A factored `L D Lᵀ` as a solve walks it: the pivots `D` and the
/// strictly-lower nonzeros of the unit-lower `L` in compressed-column form.
///
/// Built one column at a time, in ascending column order, by whichever
/// kernel produced the factor: [`Ldlt::new`] here, the SDP solver's
/// block-arrowhead KKT factor elsewhere. Two kernels that push the same
/// pivots and the same nonzeros in the same order build equal indexes, and
/// their solves agree bit for bit.
#[derive(Debug, Clone, Default)]
pub struct SparseLdl {
    /// `row_idx[col_ptr[j]..col_ptr[j+1]]` are the rows `i > j` with
    /// `L[i,j] != 0`, ascending, and `vals` holds the matching entries.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    vals: Vec<f64>,
    /// The diagonal of `D`.
    diag: Vec<f64>,
}

impl SparseLdl {
    /// An empty factor with room for `dim` columns and `lower_nonzeros`
    /// stored entries, so that pushing no more than that never allocates.
    pub fn with_capacity(dim: usize, lower_nonzeros: usize) -> Self {
        SparseLdl {
            col_ptr: Vec::with_capacity(dim + 1),
            row_idx: Vec::with_capacity(lower_nonzeros),
            vals: Vec::with_capacity(lower_nonzeros),
            diag: Vec::with_capacity(dim),
        }
    }

    /// Empties the index for a fresh factorisation, keeping its capacity.
    pub fn clear(&mut self) {
        self.col_ptr.clear();
        self.row_idx.clear();
        self.vals.clear();
        self.diag.clear();
    }

    /// Appends the next column: its pivot and its strictly-lower entries
    /// `(row, value)` in ascending row order. Exact zeros (of either sign)
    /// are dropped.
    pub fn push_column(&mut self, pivot: f64, below: impl IntoIterator<Item = (usize, f64)>) {
        if self.col_ptr.is_empty() {
            self.col_ptr.push(0);
        }
        self.diag.push(pivot);
        for (i, v) in below {
            if v != 0.0 {
                self.row_idx.push(i as u32);
                self.vals.push(v);
            }
        }
        self.col_ptr.push(self.row_idx.len());
    }

    /// Number of columns pushed.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// The pivots `D`, in column order.
    pub fn pivots(&self) -> &[f64] {
        &self.diag
    }

    /// Number of stored strictly-lower nonzeros of `L`.
    pub fn lower_nonzeros(&self) -> usize {
        self.vals.len()
    }

    /// The stored entries `(row, value)` of column `j` of `L`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a pushed column.
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .map(|&i| i as usize)
            .zip(self.vals[range].iter().copied())
    }

    /// Solves `L D Lᵀ x = b`, walking only the stored nonzeros of `L`.
    ///
    /// The forward pass is column-oriented: per target entry the
    /// subtractions still happen in ascending column order, so the result is
    /// bit-identical to the textbook row walk; skipped terms have an exactly
    /// zero multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// [`SparseLdl::solve`] in place: `x` holds `b` on entry and the
    /// solution on return, bit-identical to the allocating form.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the factored dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "rhs length must equal matrix dimension");
        if n == 0 {
            return;
        }
        // L y = b (unit diagonal)
        for j in 0..n {
            let xj = x[j];
            for t in self.col_ptr[j]..self.col_ptr[j + 1] {
                x[self.row_idx[t] as usize] -= self.vals[t] * xj;
            }
        }
        // D z = y
        for (xi, d) in x.iter_mut().zip(&self.diag) {
            *xi /= d;
        }
        // Lᵀ x = z
        for i in (0..n).rev() {
            let mut acc = x[i];
            for t in self.col_ptr[i]..self.col_ptr[i + 1] {
                acc -= self.vals[t] * x[self.row_idx[t] as usize];
            }
            x[i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_spd_matches_cholesky() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let b = [1.0, -1.0];
        let x1 = a.ldlt(0.0).unwrap().solve(&b);
        let x2 = a.cholesky().unwrap().solve(&b);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_indefinite_saddle() {
        // KKT-like quasidefinite matrix.
        let a = Matrix::from_rows(&[
            &[2.0, 0.0, 1.0, 0.0],
            &[0.0, 3.0, 0.0, 1.0],
            &[1.0, 0.0, -1e-8, 0.0],
            &[0.0, 1.0, 0.0, -1e-8],
        ]);
        let f = a.ldlt(1e-14).unwrap();
        let (pos, neg) = f.inertia();
        assert_eq!((pos, neg), (2, 2));
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = f.solve(&b);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-6, "residual too large: {u} vs {v}");
        }
    }

    #[test]
    fn regularisation_counts_pivots() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        let f = a.ldlt(1e-10).unwrap();
        assert_eq!(f.regularised_pivots(), 1);
    }

    #[test]
    fn zero_reg_singular_errors() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(matches!(a.ldlt(0.0), Err(FactorError::Singular { .. })));
    }

    #[test]
    fn block_diagonal_factor_stays_sparse() {
        // Two decoupled 3×3 diagonal-dominant blocks: L must keep the
        // off-block zeros, and the solve must still be exact.
        let n = 6;
        let mut a = Matrix::zeros(n, n);
        for blk in 0..2 {
            let o = blk * 3;
            for r in 0..3 {
                for c in 0..3 {
                    a[(o + r, o + c)] = if r == c { 4.0 } else { 1.0 };
                }
            }
        }
        let f = a.ldlt(0.0).unwrap();
        // Dense strict lower would hold 15 entries; two 3×3 blocks hold 6.
        assert_eq!(f.lower_nonzeros(), 6);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = f.solve(&b);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
