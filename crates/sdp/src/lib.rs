// Index-based loops over matrix rows/columns mirror the textbook
// formulations of the algorithms and keep row/column symmetry visible.
#![allow(clippy::needless_range_loop)]

//! A primal–dual interior-point semidefinite programming (SDP) solver.
//!
//! This crate replaces the MATLAB/YALMIP + SeDuMi stack used by the paper.
//! It solves problems in the block standard form
//!
//! ```text
//! minimise    Σⱼ ⟨Cⱼ, Xⱼ⟩ + fᵀu
//! subject to  Σⱼ ⟨A_{ij}, Xⱼ⟩ + (B u)_i = b_i     (i = 1..m)
//!             Xⱼ ⪰ 0,  u ∈ ℝᶠ free
//! ```
//!
//! which is exactly the shape produced by Gram-matrix reformulations of
//! sum-of-squares constraints (`cppll-sos`): the `Xⱼ` are Gram matrices and
//! `u` collects coefficients of decision polynomials.
//!
//! # Algorithm
//!
//! Infeasible-start primal–dual interior-point method with the HKM search
//! direction and Mehrotra predictor–corrector:
//!
//! * the Schur complement `M_{ik} = Σⱼ tr(A_{ij} Sⱼ⁻¹ A_{kj} Xⱼ)` is formed
//!   per block over the constraints touching that block;
//! * free variables are kept *exactly* (no difference-splitting) through the
//!   quasidefinite KKT system `[[M, B], [Bᵀ, −δI]]`, factored by LDLᵀ;
//! * step lengths come from the minimum eigenvalues of the whitened
//!   directions, with a fraction-to-boundary factor. Only the most negative
//!   one matters, so a shifted Cholesky test rules out the blocks that
//!   cannot bound the step and Jacobi runs on the rest; the step lengths
//!   are bit-identical to eigensolving every block.
//!
//! # Examples
//!
//! Minimise `tr(X)` subject to `X₁₁ + X₂₂ = 2`, `X₁₂ = 0.5`:
//!
//! ```
//! use cppll_sdp::{SdpProblem, SdpStatus};
//!
//! let mut p = SdpProblem::new();
//! let blk = p.add_psd_block(2);
//! p.set_block_cost_identity(blk, 1.0);
//! let c1 = p.add_constraint(2.0);
//! p.set_entry(c1, blk, 0, 0, 1.0);
//! p.set_entry(c1, blk, 1, 1, 1.0);
//! let c2 = p.add_constraint(0.5);
//! p.set_entry(c2, blk, 0, 1, 1.0);
//! let sol = p.solve(&Default::default());
//! assert_eq!(sol.status, SdpStatus::Optimal);
//! assert!((sol.primal_objective - 2.0).abs() < 1e-5);
//! ```

mod fault;
mod kkt;
mod problem;
mod solution;
mod solver;
mod sparse;
mod stages;

pub use fault::{CrashMode, FaultInjector, FaultKind, FaultPlan, JournalFault};
pub use problem::{BlockId, ConstraintId, FreeVarId, SdpProblem};
pub use solution::{SdpSolution, SdpStatus};
pub use solver::SolverOptions;
pub use sparse::SymSparse;
pub use stages::{
    stage_report_lines, stage_seconds, COUNT_COUNTERS, REDUCTION_COUNTER, STAGE_COUNTERS,
    TOTAL_COUNTER,
};

#[cfg(feature = "oracle")]
#[doc(hidden)]
pub use solver::{assemble_schur_dense_for_tests, assemble_schur_for_tests};
