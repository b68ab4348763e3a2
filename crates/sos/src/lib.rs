//! Sum-of-squares (SOS) programming on top of the `cppll-sdp` solver.
//!
//! This crate plays the role YALMIP's SOS module played for the paper: it
//! turns *"this polynomial expression, affine in some decision variables,
//! must be a sum of squares"* into a semidefinite program, solves it, and
//! reads polynomial certificates back.
//!
//! # Programming model
//!
//! An [`SosProgram`] owns three kinds of decision objects:
//!
//! * **scalar variables** ([`SosProgram::new_scalar`]) — free reals (level
//!   values, tightness parameters, …);
//! * **coefficient polynomials** ([`SosProgram::new_poly`]) — polynomials
//!   whose coefficients over a given monomial basis are free decision
//!   variables (Lyapunov candidates `V`, escape certificates `E`);
//! * **SOS multiplier polynomials** ([`SosProgram::new_sos_poly`]) —
//!   polynomials constrained to be SOS *by construction* (they are backed
//!   directly by a Gram matrix block), used for S-procedure multipliers σ.
//!
//! Affine combinations of these with *known* polynomial coefficients form
//! [`PolyExpr`] values; [`SosProgram::require_sos`] and
//! [`SosProgram::require_zero`] add constraints. The S-procedure helper
//! [`SosProgram::require_nonneg_on`] implements the standard "nonnegative on
//! a semialgebraic set" encoding used throughout the paper's SOS programs.
//!
//! # Examples
//!
//! Prove `p(x, y) = x² − 2xy + y² + 1` is SOS and extract a decomposition:
//!
//! ```
//! use cppll_poly::Polynomial;
//! use cppll_sos::{SosProgram, SosOptions};
//!
//! let p = Polynomial::from_terms(2, &[
//!     (&[2, 0], 1.0), (&[1, 1], -2.0), (&[0, 2], 1.0), (&[0, 0], 1.0),
//! ]);
//! let mut prog = SosProgram::new(2);
//! let c = prog.require_sos(p.clone().into());
//! let sol = prog.solve(&SosOptions::default()).expect("feasible");
//! let dec = sol.sos_decomposition(c).expect("gram available");
//! assert!(dec.residual(&p) < 1e-6);
//! ```

mod bounds;
mod decomposition;
mod expr;
mod inclusion;
mod program;
mod reduce;
mod supervisor;

pub use bounds::{certified_lower_bound, certified_range, certified_upper_bound};
pub use decomposition::SosDecomposition;
pub use expr::{GramVarId, PolyExpr, PolyVarId, ScalarVarId};
pub use inclusion::check_inclusion;
pub use program::{
    SosConstraintId, SosError, SosOptions, SosProgram, SosSolution, OBJECTIVE_TRACE_WEIGHT,
};
pub use reduce::{Reduction, ReductionStats};
pub use supervisor::{AttemptRecord, LedgerStats, ResilienceOptions, SolveLedger, DEFAULT_RETRIES};
