//! JSON front-end for the verification pipeline.
//!
//! Lets a downstream user describe a polynomial hybrid system in a JSON
//! file and run the paper's inevitability methodology (or a barrier-safety
//! query) without writing Rust. Polynomials are written as human-readable
//! term sums, e.g. `"-1.0 x0 + 2 x0^2 x1 - 0.5"`.
//!
//! # Schema
//!
//! ```json
//! {
//!   "states": 2,
//!   "modes": [
//!     {"name": "right", "flow": ["-1 x0 + 1 x1", "-1 x1"], "flow_set": ["x0"]},
//!     {"name": "left",  "flow": ["-1 x0", "-1 x1"],        "flow_set": ["-1 x0"]}
//!   ],
//!   "jumps": [
//!     {"from": 0, "to": 1, "guard_eq": ["x0"]},
//!     {"from": 1, "to": 0, "guard_eq": ["x0"]}
//!   ],
//!   "params": {"lo": [], "hi": []},
//!   "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
//!   "initial_radii": [2.0, 2.0],
//!   "degree": 2
//! }
//! ```
//!
//! See [`SystemSpec`] for every field and [`run_inevitability`] for the
//! execution entry point used by the `cppll` binary.
//!
//! The spec parser and pipeline runners now live in `cppll-verify`
//! ([`cppll_verify::spec`] / [`cppll_verify::parse`]) so that server-side
//! front-ends (`cppll-serve`) can consume them without depending on the
//! CLI; this crate re-exports them unchanged for compatibility.

pub use cppll_verify::parse::{parse_polynomial, ParsePolynomialError};
pub use cppll_verify::spec::{
    run_inevitability, spec_fingerprint, JumpSpec, ModeSpec, ParamSpec, SpecError, SystemSpec,
};
