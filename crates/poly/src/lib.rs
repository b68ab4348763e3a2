//! Sparse multivariate polynomial arithmetic over `f64`.
//!
//! This crate is the symbolic substrate of the SOS toolchain: flow maps of
//! the hybrid PLL models, Lyapunov/escape certificate candidates, S-procedure
//! multipliers and advected level-set polynomials are all [`Polynomial`]
//! values.
//!
//! Features:
//!
//! * ring arithmetic (`+`, `-`, `*`, powers) on sparse term maps,
//! * calculus: partial derivatives, [`Polynomial::gradient`],
//!   [`Polynomial::hessian`], and the Lie derivative
//!   [`Polynomial::lie_derivative`] along a polynomial vector field,
//! * composition/substitution ([`Polynomial::compose`]) used for coordinate
//!   shifts and Taylor advection maps,
//! * monomial bases ([`monomials_up_to`]) for Gram-matrix parametrisations.
//!
//! # Examples
//!
//! ```
//! use cppll_poly::Polynomial;
//!
//! // p(x, y) = x² + 2 x y
//! let x = Polynomial::var(2, 0);
//! let y = Polynomial::var(2, 1);
//! let p = &(&x * &x) + &(&(&x * &y) * &Polynomial::constant(2, 2.0));
//! assert_eq!(p.eval(&[1.0, 3.0]), 7.0);
//! // ∂p/∂x = 2x + 2y
//! assert_eq!(p.partial_derivative(0).eval(&[1.0, 3.0]), 8.0);
//! ```

mod basis;
mod monomial;
mod newton;
mod polynomial;

pub use basis::{monomials_of_degree, monomials_up_to};
pub use monomial::Monomial;
pub use newton::{prune_gram_basis, NewtonPolytope};
pub use polynomial::Polynomial;
