//! SDP problem container and builder API.

use cppll_linalg::Matrix;

use crate::solver::{solve, SolverOptions};
use crate::{SdpSolution, SymSparse};

/// Identifier of a PSD matrix block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub(crate) usize);

/// Identifier of a linear equality constraint (one row of `A`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

/// Identifier of a free scalar variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FreeVarId(pub(crate) usize);

impl BlockId {
    /// Creation-order index of the block; indexes [`crate::SdpSolution::x`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl ConstraintId {
    /// Creation-order index; indexes [`crate::SdpSolution::y`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl FreeVarId {
    /// Creation-order index; indexes [`crate::SdpSolution::free`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// A semidefinite program in block standard form
/// `min Σⱼ⟨Cⱼ,Xⱼ⟩ + fᵀu  s.t.  Σⱼ⟨A_{ij},Xⱼ⟩ + (Bu)_i = b_i,  Xⱼ ⪰ 0`.
///
/// Built incrementally: add PSD blocks and free variables, then constraints,
/// then fill coefficient entries. See the crate-level example.
#[derive(Debug, Clone)]
pub struct SdpProblem {
    /// Dimension of each PSD block.
    pub(crate) block_dims: Vec<usize>,
    /// Objective matrix per block.
    pub(crate) costs: Vec<SymSparse>,
    /// Objective coefficients of free variables.
    pub(crate) free_costs: Vec<f64>,
    /// Right-hand sides.
    pub(crate) b: Vec<f64>,
    /// Constraint data: `a[i]` is a list of `(block, matrix)` pairs.
    pub(crate) a: Vec<Vec<(usize, SymSparse)>>,
    /// Free-variable coefficients: `bfree[i]` is a list of `(var, coef)`.
    pub(crate) bfree: Vec<Vec<(usize, f64)>>,
    /// Whether all sparse data is already normalized (sorted, merged). Set
    /// by [`SdpProblem::normalize`], cleared by every mutating builder call;
    /// lets [`SdpProblem::solve`] skip the defensive clone-and-normalize.
    pub(crate) normalized: bool,
}

impl Default for SdpProblem {
    fn default() -> Self {
        Self::new()
    }
}

impl SdpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        SdpProblem {
            block_dims: Vec::new(),
            costs: Vec::new(),
            free_costs: Vec::new(),
            b: Vec::new(),
            a: Vec::new(),
            bfree: Vec::new(),
            normalized: false,
        }
    }

    /// Adds a PSD block of dimension `dim` and returns its id.
    pub fn add_psd_block(&mut self, dim: usize) -> BlockId {
        self.normalized = false;
        self.block_dims.push(dim);
        self.costs.push(SymSparse::new(dim));
        BlockId(self.block_dims.len() - 1)
    }

    /// Adds a free scalar variable with objective coefficient `cost`.
    pub fn add_free_var(&mut self, cost: f64) -> FreeVarId {
        self.normalized = false;
        self.free_costs.push(cost);
        FreeVarId(self.free_costs.len() - 1)
    }

    /// Changes the objective coefficient of a free variable.
    pub fn set_free_cost(&mut self, v: FreeVarId, cost: f64) {
        self.normalized = false;
        self.free_costs[v.0] = cost;
    }

    /// Adds an equality constraint with right-hand side `rhs`; coefficients
    /// are filled afterwards with [`SdpProblem::set_entry`] /
    /// [`SdpProblem::set_free_coeff`].
    pub fn add_constraint(&mut self, rhs: f64) -> ConstraintId {
        self.normalized = false;
        self.b.push(rhs);
        self.a.push(Vec::new());
        self.bfree.push(Vec::new());
        ConstraintId(self.b.len() - 1)
    }

    /// Accumulates `v` into entry `(r, c)` (symmetric) of block `blk` in
    /// constraint `con`.
    ///
    /// # Panics
    ///
    /// Panics if ids or indices are out of range.
    pub fn set_entry(&mut self, con: ConstraintId, blk: BlockId, r: usize, c: usize, v: f64) {
        self.normalized = false;
        let dim = self.block_dims[blk.0];
        let row = &mut self.a[con.0];
        if let Some((_, m)) = row.iter_mut().find(|(bj, _)| *bj == blk.0) {
            m.add(r, c, v);
        } else {
            let mut m = SymSparse::new(dim);
            m.add(r, c, v);
            row.push((blk.0, m));
        }
    }

    /// Accumulates `v` as the coefficient of free variable `var` in
    /// constraint `con`.
    pub fn set_free_coeff(&mut self, con: ConstraintId, var: FreeVarId, v: f64) {
        if v == 0.0 {
            return;
        }
        self.normalized = false;
        self.bfree[con.0].push((var.0, v));
    }

    /// Accumulates `v` into entry `(r, c)` of the objective matrix of block
    /// `blk`.
    pub fn set_cost_entry(&mut self, blk: BlockId, r: usize, c: usize, v: f64) {
        self.normalized = false;
        self.costs[blk.0].add(r, c, v);
    }

    /// Sets the objective matrix of block `blk` to `s · I` (accumulating).
    pub fn set_block_cost_identity(&mut self, blk: BlockId, s: f64) {
        self.normalized = false;
        for i in 0..self.block_dims[blk.0] {
            self.costs[blk.0].add(i, i, s);
        }
    }

    /// Number of equality constraints.
    pub fn num_constraints(&self) -> usize {
        self.b.len()
    }

    /// Number of PSD blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_dims.len()
    }

    /// Number of free variables.
    pub fn num_free_vars(&self) -> usize {
        self.free_costs.len()
    }

    /// Total PSD dimension `Σⱼ nⱼ`.
    pub fn total_psd_dim(&self) -> usize {
        self.block_dims.iter().sum()
    }

    /// Dimensions of all PSD blocks.
    pub fn block_dims(&self) -> &[usize] {
        &self.block_dims
    }

    /// Normalizes all sparse data (sorts, merges duplicate adds).
    ///
    /// Idempotent and cheap when already normalized; callers that build a
    /// problem once and solve it repeatedly (the SOS attempt loop) call this
    /// up front so each [`SdpProblem::solve`] skips its defensive
    /// clone-and-normalize.
    pub fn normalize(&mut self) {
        if self.normalized {
            return;
        }
        for c in &mut self.costs {
            c.normalize();
        }
        for row in &mut self.a {
            for (_, m) in row.iter_mut() {
                m.normalize();
            }
        }
        for row in &mut self.bfree {
            row.sort_by_key(|&(v, _)| v);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len());
            for &(v, c) in row.iter() {
                if let Some(last) = merged.last_mut() {
                    if last.0 == v {
                        last.1 += c;
                        continue;
                    }
                }
                merged.push((v, c));
            }
            merged.retain(|&(_, c)| c != 0.0);
            *row = merged;
        }
        self.normalized = true;
    }

    /// Evaluates `Σⱼ⟨A_{ij}, Xⱼ⟩ + (Bu)_i` for all constraints.
    pub fn constraint_values(&self, x: &[Matrix], u: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.b.len()];
        self.constraint_values_into(x, u, &mut out);
        out
    }

    /// [`SdpProblem::constraint_values`] into `out`, one entry per
    /// constraint.
    pub(crate) fn constraint_values_into(&self, x: &[Matrix], u: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (bj, m) in &self.a[i] {
                acc += m.dot_dense(&x[*bj]);
            }
            for &(v, c) in &self.bfree[i] {
                acc += c * u[v];
            }
            *o = acc;
        }
    }

    /// Solves the problem with the given options.
    ///
    /// Never panics on solver trouble; inspect [`SdpSolution::status`].
    pub fn solve(&self, options: &SolverOptions) -> SdpSolution {
        if self.normalized {
            return solve(self, options);
        }
        let mut p = self.clone();
        p.normalize();
        solve(&p, options)
    }
}
