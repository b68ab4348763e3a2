//! Sparse symmetric matrices used for SDP constraint data.

use cppll_linalg::Matrix;

/// A sparse **symmetric** matrix stored as upper-triangle `(row, col, val)`
/// triples with `row ≤ col`; the mirrored entry is implicit.
///
/// Setting the same entry twice *accumulates* the values, matching the way
/// coefficient-matching constraints are assembled monomial by monomial.
///
/// # Examples
///
/// ```
/// use cppll_sdp::SymSparse;
///
/// let mut a = SymSparse::new(2);
/// a.add(0, 1, 3.0); // also sets (1, 0)
/// let d = a.to_dense();
/// assert_eq!(d[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct SymSparse {
    dim: usize,
    /// Upper-triangle entries `(r, c, v)` with `r ≤ c`, sorted, deduplicated.
    entries: Vec<(usize, usize, f64)>,
    /// Whether `entries` is currently sorted/deduplicated.
    normalized: bool,
    /// Per-entry inner-product weights (`v` on the diagonal, `2v` off it),
    /// parallel to `entries`. Rebuilt by [`SymSparse::normalize`]; keeping
    /// the entry order makes the branch-free [`SymSparse::dot_dense`]
    /// bit-identical to the branchy loop it replaces.
    scaled: Vec<f64>,
    /// Flattened `(column-major index, weight)` terms for
    /// [`SymSparse::dot_general`]: one term per diagonal entry, two per
    /// off-diagonal entry (both transpose positions), in entry order. The
    /// term order and per-term accumulation match the branchy loop exactly,
    /// so the fast path is bit-identical to it.
    general: Vec<(usize, f64)>,
}

/// Caches are derived data: equality is defined on the logical matrix only.
impl PartialEq for SymSparse {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.entries == other.entries
            && self.normalized == other.normalized
    }
}

impl SymSparse {
    /// Creates an empty (zero) symmetric matrix of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        SymSparse {
            dim,
            entries: Vec::new(),
            normalized: true,
            scaled: Vec::new(),
            general: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `v` to entry `(r, c)` (and symmetrically `(c, r)`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.dim && c < self.dim, "index out of range");
        if v == 0.0 {
            return;
        }
        let (r, c) = if r <= c { (r, c) } else { (c, r) };
        self.entries.push((r, c, v));
        self.normalized = false;
    }

    /// Sorts and merges duplicate entries; drops exact zeros.
    pub fn normalize(&mut self) {
        if self.normalized {
            return;
        }
        self.entries.sort_by_key(|a| (a.0, a.1));
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            if let Some(last) = merged.last_mut() {
                if last.0 == r && last.1 == c {
                    last.2 += v;
                    continue;
                }
            }
            merged.push((r, c, v));
        }
        merged.retain(|&(_, _, v)| v != 0.0);
        self.entries = merged;
        self.normalized = true;
        self.rebuild_caches();
    }

    /// Rebuilds the derived inner-product caches from `entries`.
    fn rebuild_caches(&mut self) {
        self.scaled.clear();
        self.general.clear();
        let n = self.dim;
        for &(r, c, v) in &self.entries {
            // `t[(c, r)]` at column-major index `r·n + c`, then — off the
            // diagonal — `t[(r, c)]` at `c·n + r`, mirroring the branchy
            // `dot_general` loop term for term.
            self.general.push((r * n + c, v));
            if r == c {
                self.scaled.push(v);
            } else {
                self.scaled.push(2.0 * v);
                self.general.push((c * n + r, v));
            }
        }
    }

    /// Upper-triangle entries (normalizing first).
    pub fn entries(&mut self) -> &[(usize, usize, f64)] {
        self.normalize();
        &self.entries
    }

    /// Upper-triangle entries without normalizing (may contain duplicates
    /// if [`SymSparse::normalize`] has not run since the last `add`).
    pub fn raw_entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Densifies to a full symmetric [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.dim, self.dim);
        for &(r, c, v) in &self.entries {
            m[(r, c)] += v;
            if r != c {
                m[(c, r)] += v;
            }
        }
        m
    }

    /// Frobenius inner product `⟨self, X⟩` with a dense symmetric matrix.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ. Requires normalized entries for
    /// correctness with duplicate adds — call sites inside the solver
    /// normalize once during presolve.
    pub fn dot_dense(&self, x: &Matrix) -> f64 {
        debug_assert_eq!(x.nrows(), self.dim);
        if self.normalized && self.scaled.len() == self.entries.len() {
            // Branch-free fast path: the weight (v or 2v) is precomputed per
            // entry, and the entry order is unchanged, so the accumulation
            // is bit-identical to the branchy fallback below.
            let mut acc = 0.0;
            for (&(r, c, _), &w) in self.entries.iter().zip(&self.scaled) {
                acc += w * x[(r, c)];
            }
            return acc;
        }
        let mut acc = 0.0;
        for &(r, c, v) in &self.entries {
            if r == c {
                acc += v * x[(r, c)];
            } else {
                acc += 2.0 * v * x[(r, c)];
            }
        }
        acc
    }

    /// Frobenius inner product `⟨self, T⟩` where `T` is a dense matrix that
    /// is **not** assumed symmetric (the solver's `T = S⁻¹ A X` products):
    /// `Σ_rc v·(T_cr + T_rc)` with each transpose position accumulated as
    /// its own term. The fast path walks the pre-flattened `(index, weight)`
    /// cache — no per-entry branch, bit-identical to the fallback loop.
    ///
    /// Note only the columns of `T` indexed by this matrix's
    /// [`SymSparse::support`] are ever read — the basis for the solver's
    /// active-column Schur workspaces.
    ///
    /// # Panics
    ///
    /// Debug-panics if dimensions differ. Requires the matrix to be
    /// normalized (solver data always is after presolve); falls back to a
    /// branchy loop over raw entries otherwise.
    pub fn dot_general(&self, t: &Matrix) -> f64 {
        debug_assert_eq!(t.nrows(), self.dim);
        debug_assert_eq!(t.ncols(), self.dim);
        if self.normalized {
            let data = t.as_slice();
            let mut acc = 0.0;
            for &(idx, w) in &self.general {
                acc += w * data[idx];
            }
            return acc;
        }
        let mut acc = 0.0;
        for &(r, c, v) in &self.entries {
            acc += v * t[(c, r)];
            if r != c {
                acc += v * t[(r, c)];
            }
        }
        acc
    }

    /// The `(column-major index, weight)` terms [`SymSparse::dot_general`]
    /// walks, in its order. The solver's Schur assembly resolves them to
    /// workspace offsets once per solve. Empty until normalized.
    pub(crate) fn general_terms(&self) -> &[(usize, f64)] {
        debug_assert!(self.normalized, "general_terms needs normalized entries");
        &self.general
    }

    /// Sorted, deduplicated list of indices touched by any entry (row or
    /// column support — identical by symmetry). This is the *symbolic* shape
    /// the solver's Schur precompute works from.
    pub fn support(&self) -> Vec<usize> {
        let mut s: Vec<usize> = Vec::with_capacity(self.entries.len() * 2);
        for &(r, c, _) in &self.entries {
            s.push(r);
            s.push(c);
        }
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Smallest index in the support, or `None` for a zero matrix. Rows
    /// above this index of any product `self · X` are structurally zero —
    /// the solver starts its triangular solves there.
    pub fn min_support(&self) -> Option<usize> {
        self.entries.iter().map(|&(r, _, _)| r).min()
    }

    /// In-place `y += s · self` into a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add_scaled_into(&self, s: f64, y: &mut Matrix) {
        debug_assert_eq!(y.nrows(), self.dim);
        for &(r, c, v) in &self.entries {
            y[(r, c)] += s * v;
            if r != c {
                y[(c, r)] += s * v;
            }
        }
    }

    /// Dense product `self · X` (self symmetric sparse, `X` dense).
    ///
    /// # Panics
    ///
    /// Panics if `x.nrows() != self.dim()`.
    pub fn mul_dense(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.nrows(), self.dim, "dimension mismatch");
        let mut out = Matrix::zeros(self.dim, x.ncols());
        for &(r, c, v) in &self.entries {
            for j in 0..x.ncols() {
                out[(r, j)] += v * x[(c, j)];
                if r != c {
                    out[(c, j)] += v * x[(r, j)];
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        let mut acc = 0.0;
        for &(r, c, v) in &self.entries {
            acc += if r == c { v * v } else { 2.0 * v * v };
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip() {
        let mut a = SymSparse::new(3);
        a.add(0, 1, 2.0);
        a.add(2, 2, -1.0);
        a.add(1, 0, 0.5); // accumulates with (0,1)
        a.normalize();
        let d = a.to_dense();
        assert_eq!(d[(0, 1)], 2.5);
        assert_eq!(d[(1, 0)], 2.5);
        assert_eq!(d[(2, 2)], -1.0);
    }

    #[test]
    fn dot_matches_dense() {
        let mut a = SymSparse::new(2);
        a.add(0, 0, 1.0);
        a.add(0, 1, 2.0);
        a.normalize();
        let x = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 4.0]]);
        assert_eq!(a.dot_dense(&x), a.to_dense().dot(&x));
    }

    #[test]
    fn mul_dense_matches() {
        let mut a = SymSparse::new(2);
        a.add(0, 1, 1.0);
        a.add(1, 1, 2.0);
        a.normalize();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let got = a.mul_dense(&x);
        let want = a.to_dense().matmul(&x);
        assert!(got.sub(&want).norm() < 1e-14);
    }

    #[test]
    fn dot_general_matches_dense_trace() {
        let mut a = SymSparse::new(3);
        a.add(0, 1, 1.5);
        a.add(2, 2, -2.0);
        a.add(0, 0, 0.5);
        // Non-symmetric T, as produced by the solver's S⁻¹AX products.
        let t = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let want = a.to_dense().matmul(&t).trace();
        // Un-normalized fallback and normalized fast path agree with tr(A·T).
        assert!((a.dot_general(&t) - want).abs() < 1e-12);
        a.normalize();
        assert!((a.dot_general(&t) - want).abs() < 1e-12);
    }

    #[test]
    fn support_and_min_support() {
        let mut a = SymSparse::new(5);
        assert!(a.support().is_empty());
        assert_eq!(a.min_support(), None);
        a.add(3, 1, 1.0);
        a.add(4, 4, 2.0);
        a.normalize();
        assert_eq!(a.support(), vec![1, 3, 4]);
        assert_eq!(a.min_support(), Some(1));
    }

    #[test]
    fn norm_counts_mirror() {
        let mut a = SymSparse::new(2);
        a.add(0, 1, 3.0);
        a.normalize();
        assert!((a.norm() - (18.0f64).sqrt()).abs() < 1e-14);
    }
}
