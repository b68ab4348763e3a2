// Index-based loops over matrix rows/columns mirror the textbook
// formulations of the algorithms and keep row/column symmetry visible.
#![allow(clippy::needless_range_loop)]

//! Dense linear algebra kernels for the `cppll` workspace.
//!
//! The semidefinite-programming solver (`cppll-sdp`) and the sum-of-squares
//! layer (`cppll-sos`) need a small but reliable set of dense kernels:
//!
//! * [`Matrix`] — column-major dense matrices with ring arithmetic,
//! * [`Lu`] — LU factorisation with partial pivoting (general solves),
//! * [`Cholesky`] — positive-definite factorisation; its kernel also backs
//!   [`is_positive_definite_shifted`], the line search's definiteness test,
//! * [`Ldlt`] — symmetric indefinite LDLᵀ with diagonal regularisation for
//!   quasidefinite KKT systems (the dense oracle of the SDP solver's
//!   block-arrowhead KKT factor), and [`SparseLdl`], the compressed-column
//!   factor both kernels solve with,
//! * [`SymmetricEigen`] — cyclic Jacobi eigendecomposition (certificate
//!   extraction, definiteness diagnostics), and [`jacobi_min_eigenvalue`],
//!   the same sweeps without eigenvectors (interior-point step lengths).
//!
//! Everything is `f64` and allocation-explicit; no BLAS/LAPACK is linked.
//!
//! # Examples
//!
//! ```
//! use cppll_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = a.cholesky().expect("positive definite");
//! let x = chol.solve(&[1.0, 2.0]);
//! // A x = b
//! let b = a.matvec(&x);
//! assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
//! ```

mod cholesky;
mod eigen;
mod ldlt;
mod lu;
mod matrix;
pub mod vec_ops;

pub use cholesky::{is_positive_definite_shifted, Cholesky};
pub use eigen::{jacobi_min_eigenvalue, jacobi_min_eigenvalue_with, SymmetricEigen};
pub use ldlt::{Ldlt, SparseLdl};
pub use lu::Lu;
pub use matrix::Matrix;

/// Error produced when a factorisation cannot be completed.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// The matrix is not positive definite (Cholesky failed at `pivot`).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value found at the failing pivot.
        value: f64,
    },
    /// The matrix is singular to working precision.
    Singular {
        /// Index of the vanishing pivot.
        pivot: usize,
    },
    /// The input dimensions are inconsistent for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} has value {value:e}"
            ),
            FactorError::Singular { pivot } => {
                write!(f, "matrix is singular: pivot {pivot} vanishes")
            }
            FactorError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
        }
    }
}

impl std::error::Error for FactorError {}
