//! Extraction of explicit `Σ qᵢ²` decompositions from Gram matrices.

use cppll_linalg::Matrix;
use cppll_poly::{Monomial, Polynomial};

use crate::program::gram_to_poly;

/// An explicit sum-of-squares decomposition `p(x) ≈ Σᵢ qᵢ(x)²`.
///
/// Obtained from a PSD Gram matrix `Q` over a monomial basis `z` via the
/// eigendecomposition `Q = Σ λᵢ vᵢ vᵢᵀ`: each square is
/// `qᵢ = √λᵢ · (vᵢᵀ z)` (eigenvalues below a small floor are dropped).
///
/// Because the Gram matrix comes from a floating-point interior-point solve,
/// the decomposition is approximate; [`SosDecomposition::residual`] reports
/// how well `Σ qᵢ²` reconstructs a target polynomial, which is the
/// *a-posteriori* soundness check used throughout the verification pipeline.
#[derive(Debug, Clone)]
pub struct SosDecomposition {
    squares: Vec<Polynomial>,
    reconstruction: Polynomial,
}

impl SosDecomposition {
    /// Builds the decomposition from a Gram matrix over `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `gram` is not square of dimension `basis.len()`.
    pub fn from_gram(basis: &[Monomial], gram: &Matrix) -> Self {
        assert_eq!(gram.nrows(), basis.len(), "gram/basis size mismatch");
        assert!(gram.is_square(), "gram matrix must be square");
        let nvars = basis.first().map_or(0, Monomial::nvars);
        let eig = gram.symmetric_eigen();
        let floor = 1e-12 * eig.max_eigenvalue().abs().max(1.0);
        let mut squares = Vec::new();
        for (i, &l) in eig.eigenvalues().iter().enumerate() {
            if l <= floor {
                continue;
            }
            let v = eig.eigenvectors().col(i);
            let mut q = Polynomial::zero(nvars);
            let s = l.sqrt();
            for (k, m) in basis.iter().enumerate() {
                q.add_term(m.clone(), s * v[k]);
            }
            squares.push(q.prune(1e-12));
        }
        let reconstruction = gram_to_poly(basis, gram);
        SosDecomposition {
            squares,
            reconstruction,
        }
    }

    /// Builds the decomposition of a block-diagonal Gram matrix given as
    /// `(sub-basis, block)` pairs — the form term-sparsity reduction
    /// produces. Equivalent to [`SosDecomposition::from_gram`] on the
    /// assembled matrix (the blocks are its invariant subspaces), but each
    /// eigendecomposition is on the small block.
    ///
    /// # Panics
    ///
    /// Panics if any block is not square of its sub-basis dimension.
    pub fn from_blocks(nvars: usize, blocks: &[(Vec<Monomial>, Matrix)]) -> Self {
        let mut squares = Vec::new();
        let mut reconstruction = Polynomial::zero(nvars);
        for (basis, gram) in blocks {
            if basis.is_empty() {
                continue;
            }
            let dec = SosDecomposition::from_gram(basis, gram);
            squares.extend(dec.squares);
            reconstruction = &reconstruction + &dec.reconstruction;
        }
        SosDecomposition {
            squares,
            reconstruction,
        }
    }

    /// The square roots `qᵢ`.
    pub fn squares(&self) -> &[Polynomial] {
        &self.squares
    }

    /// The polynomial `z(x)ᵀ Q z(x)` represented by the Gram matrix.
    pub fn reconstruction(&self) -> &Polynomial {
        &self.reconstruction
    }

    /// `Σᵢ qᵢ²` recomputed from the extracted squares.
    pub fn sum_of_squares(&self) -> Polynomial {
        let nvars = self.reconstruction.nvars();
        let mut acc = Polynomial::zero(nvars);
        for q in &self.squares {
            acc = &acc + &(q * q);
        }
        acc
    }

    /// Maximum absolute coefficient difference between `Σ qᵢ²` and `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` lives over a different number of variables.
    pub fn residual(&self, target: &Polynomial) -> f64 {
        (&self.sum_of_squares() - target).max_abs_coefficient()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_poly::monomials_up_to;

    #[test]
    fn identity_gram_gives_basis_squares() {
        let basis = monomials_up_to(2, 1); // 1, y, x (grlex)
        let gram = Matrix::identity(3);
        let dec = SosDecomposition::from_gram(&basis, &gram);
        assert_eq!(dec.squares().len(), 3);
        // Σ q² = 1 + x² + y².
        let target = Polynomial::from_terms(2, &[(&[0, 0], 1.0), (&[2, 0], 1.0), (&[0, 2], 1.0)]);
        assert!(dec.residual(&target) < 1e-12);
    }

    #[test]
    fn rank_one_gram() {
        // Q = vvᵀ with v = (1, -1) over basis (x, y): p = (x − y)².
        let basis = vec![Monomial::var(2, 0), Monomial::var(2, 1)];
        let gram = Matrix::from_rows(&[&[1.0, -1.0], &[-1.0, 1.0]]);
        let dec = SosDecomposition::from_gram(&basis, &gram);
        assert_eq!(dec.squares().len(), 1);
        let target = Polynomial::from_terms(2, &[(&[2, 0], 1.0), (&[1, 1], -2.0), (&[0, 2], 1.0)]);
        assert!(dec.residual(&target) < 1e-12);
    }
}
