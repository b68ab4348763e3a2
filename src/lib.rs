//! # cppll — inevitability of phase-locking in charge-pump PLLs via SOS
//!
//! A from-scratch Rust reproduction of *"Verifying inevitability of
//! phase-locking in a charge pump phase lock loop using sum of squares
//! programming"* (Ul Asad & Jones, 2015), including every substrate the
//! paper's MATLAB/YALMIP toolchain provided:
//!
//! * [`linalg`] — dense factorisations (LU, Cholesky, LDLᵀ, Jacobi eigen),
//! * [`poly`] — sparse multivariate polynomials with calculus and
//!   composition,
//! * [`sdp`] — a primal–dual interior-point semidefinite solver,
//! * [`sos`] — sum-of-squares programming (Gram compilation, S-procedure,
//!   set inclusion, bisection),
//! * [`hybrid`] — hybrid dynamical systems with event-detecting simulation,
//! * [`pll`] — the third/fourth-order CP PLL behavioural models (Table 1),
//! * [`exact`] — big-integer/rational kernel upgrading numeric certificates
//!   to machine-checked exact proofs,
//! * [`verify`] — the paper's methodology: multiple Lyapunov certificates,
//!   level-set maximisation, bounded advection of level sets and escape
//!   certificates, orchestrated by
//!   [`verify::InevitabilityVerifier`].
//!
//! # Quickstart
//!
//! Verify that the third-order CP PLL inevitably phase-locks:
//!
//! ```no_run
//! use cppll::pll::{PllModelBuilder, PllOrder};
//! use cppll::verify::{InevitabilityVerifier, PipelineOptions};
//!
//! let model = PllModelBuilder::new(PllOrder::Third).build();
//! let verifier = InevitabilityVerifier::for_pll(&model);
//! let report = verifier.verify(&PipelineOptions::degree(4))?;
//! assert!(report.verdict.is_verified());
//! println!("attractive invariant level c* = {}", report.levels.level);
//! # Ok::<(), cppll::verify::VerifyError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every table and figure of the paper.

pub use cppll_exact as exact;
pub use cppll_harness as harness;
pub use cppll_hybrid as hybrid;
pub use cppll_linalg as linalg;
pub use cppll_par as par;
pub use cppll_pll as pll;
pub use cppll_poly as poly;
pub use cppll_sdp as sdp;
pub use cppll_serve as serve;
pub use cppll_sos as sos;
pub use cppll_verify as verify;
