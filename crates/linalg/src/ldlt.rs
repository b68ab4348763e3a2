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
/// # Sparsity
///
/// The Schur complement of a multi-identity SOS program is block-diagonal —
/// constraints from different identities never share a Gram block — so the
/// KKT matrix (and, without pivoting, its factor) is mostly structural
/// zeros. Every kernel here skips an update term whenever its *multiplier*
/// `L[c,k]` is exactly zero, which turns the dense-storage factorisation
/// into an effectively sparse one, and the factor keeps a compressed-column
/// map of `L`'s nonzeros so [`Ldlt::solve`] walks only those. Both kernels
/// ([`Ldlt::new`] and [`Ldlt::new_reference`]) share the same skip rule and
/// the same per-entry operation order, so they are bit-identical to each
/// other by construction — including the signs of zeros — for every input.
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
    /// Packed unit-lower L (strictly below diagonal) with D on the diagonal.
    /// The strict upper triangle is scratch: [`Ldlt::refactor`] leaves an
    /// earlier matrix's values there, and nothing ever reads them.
    ld: Matrix,
    /// Number of pivots that required regularisation.
    regularised: usize,
    /// Compressed-column structure of the strictly-lower nonzeros of `L`:
    /// `row_idx[col_ptr[j]..col_ptr[j+1]]` are the rows `i > j` with
    /// `L[i,j] != 0`, and `vals` holds the matching entries contiguously.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    vals: Vec<f64>,
    /// The diagonal of `D`, pulled out for a contiguous divide pass.
    diag: Vec<f64>,
}

/// Panel width of the blocked kernels. The trailing update applies whole
/// panels, so the per-entry update order is "panels ascending, columns
/// within a panel ascending" — the same ascending-`k` order as the
/// unblocked reference.
const NB: usize = 48;

/// Rows of a target column the blocked kernels keep in registers across a
/// whole panel.
const TILE: usize = 8;

impl Ldlt {
    /// Factors a symmetric matrix; only the lower triangle is read.
    ///
    /// `reg` is the magnitude used to replace pivots whose absolute value
    /// falls below `reg` (zero disables regularisation — then a vanishing
    /// pivot produces [`FactorError::Singular`]).
    ///
    /// The factorisation is blocked, right-looking across 48-column panels
    /// and left-looking within one: once a panel is factored, it updates
    /// every trailing column in turn while it is hot in cache.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::DimensionMismatch`] for non-square input, and
    /// [`FactorError::Singular`] when a pivot vanishes and `reg == 0`.
    pub fn new(a: &Matrix, reg: f64) -> Result<Self, FactorError> {
        let mut f = Self::finish(Matrix::zeros(0, 0), 0);
        f.refactor(a, reg)?;
        Ok(f)
    }

    /// Factors `a` into this factor's storage, replacing what it held.
    ///
    /// Same kernel, contract and result bits as [`Ldlt::new`], but when `a`
    /// has the dimension of the previous factorisation the dense factor
    /// and the compressed-column arrays are refilled
    /// instead of reallocated (an interior-point solve refactors one
    /// KKT-sized matrix every iteration). A different dimension
    /// reallocates.
    ///
    /// # Errors
    ///
    /// As [`Ldlt::new`]. After an error the factor's contents are
    /// unspecified until the next successful `refactor`.
    pub fn refactor(&mut self, a: &Matrix, reg: f64) -> Result<(), FactorError> {
        if !a.is_square() {
            return Err(FactorError::DimensionMismatch {
                context: "ldlt requires a square matrix",
            });
        }
        let n = a.nrows();
        if self.ld.nrows() != n {
            self.ld = Matrix::zeros(n, n);
        }
        let Ldlt {
            ld,
            col_ptr,
            row_idx,
            vals,
            diag,
            ..
        } = self;
        // Copy the lower triangle; the strict upper triangle keeps stale
        // values, which no kernel, solve or accessor reads.
        for c in 0..n {
            ld.col_mut(c)[c..].copy_from_slice(&a.col(c)[c..]);
        }
        // Blocked factorisation. The reference kernel
        // ([`Ldlt::new_reference`]) subtracts `(l_ik · l_jk) · d_k` terms in
        // ascending k; this version applies the very same sequence of
        // floating-point operations per entry (panels in order, columns
        // within a panel in order, identical association, identical skip
        // rule), so pivots — and therefore the regularisation decisions —
        // are bit-identical. The wins are cache behaviour (a panel's
        // columns are re-read while hot, a tile of rows stays in registers
        // across a whole panel) and the zero-multiplier skip (block-sparse
        // KKT columns never touch foreign identities).
        let mut regularised = 0;
        clear_index(col_ptr, row_idx, vals, diag);
        let mut terms = [(0usize, 0.0f64, 0.0f64); NB];
        for j0 in (0..n).step_by(NB) {
            let j1 = (j0 + NB).min(n);
            // Factor panel columns j0..j1, left-looking within the panel:
            // column c takes the updates of the panel columns before it,
            // then its pivot and divide, and is final — so it is indexed
            // while still in cache.
            let dat = ld.as_mut_slice();
            for c in j0..j1 {
                let (head, tail) = dat.split_at_mut(c * n);
                let cc = &mut tail[..n];
                let nt = panel_terms(head, n, j0..c, c, &mut terms);
                update_rows(&mut cc[c..], head, &terms[..nt]);
                let mut d = cc[c];
                if d.abs() < reg {
                    regularised += 1;
                    d = if d >= 0.0 { reg } else { -reg };
                }
                if d == 0.0 {
                    return Err(FactorError::Singular { pivot: c });
                }
                cc[c] = d;
                for v in &mut cc[(c + 1)..] {
                    *v /= d;
                }
                index_column(c, cc, col_ptr, row_idx, vals, diag);
            }
            if j1 == n {
                break;
            }
            // Update the trailing columns with the whole panel while it is
            // hot in cache.
            let (head, tail_cols) = ld.as_mut_slice().split_at_mut(j1 * n);
            for (c, cc) in (j1..n).zip(tail_cols.chunks_mut(n)) {
                let nt = panel_terms(head, n, j0..j1, c, &mut terms);
                update_rows(&mut cc[c..], head, &terms[..nt]);
            }
        }
        self.regularised = regularised;
        Ok(())
    }

    /// Reference (unblocked, left-looking) factorisation — the kernel the
    /// blocked [`Ldlt::new`] is validated against in tests. Shares their zero-multiplier skip rule,
    /// so it produces bit-identical factors and regularisation counts for
    /// every input, including adversarial signed zeros.
    ///
    /// # Errors
    ///
    /// Same contract as [`Ldlt::new`].
    pub fn new_reference(a: &Matrix, reg: f64) -> Result<Self, FactorError> {
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
        }
        Ok(Self::finish(ld, regularised))
    }

    /// Wraps a factored `ld` and indexes it.
    fn finish(ld: Matrix, regularised: usize) -> Self {
        let mut f = Ldlt {
            ld,
            regularised,
            col_ptr: Vec::new(),
            row_idx: Vec::new(),
            vals: Vec::new(),
            diag: Vec::new(),
        };
        f.index();
        f
    }

    /// Rebuilds the compressed-column view of the factor's strictly-lower
    /// nonzeros and the pivot vector in place; one O(n²) scan that every
    /// subsequent solve amortises.
    fn index(&mut self) {
        let Ldlt {
            ld,
            col_ptr,
            row_idx,
            vals,
            diag,
            ..
        } = self;
        clear_index(col_ptr, row_idx, vals, diag);
        for j in 0..ld.nrows() {
            index_column(j, ld.col(j), col_ptr, row_idx, vals, diag);
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.ld.nrows()
    }

    /// Number of pivots that hit the regularisation floor.
    pub fn regularised_pivots(&self) -> usize {
        self.regularised
    }

    /// Number of stored strictly-lower nonzeros of `L` — the work a solve
    /// actually performs (the dense count is `n(n-1)/2`).
    pub fn lower_nonzeros(&self) -> usize {
        self.vals.len()
    }

    /// Solves `A x = b`, walking only the stored nonzeros of `L`.
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
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length must equal matrix dimension");
        let mut x = b.to_vec();
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
        x
    }

    /// Inertia `(n_pos, n_neg)` of the factored matrix — the counts of
    /// positive and negative pivots (Sylvester's law of inertia).
    pub fn inertia(&self) -> (usize, usize) {
        let mut pos = 0;
        let mut neg = 0;
        for i in 0..self.dim() {
            if self.ld[(i, i)] > 0.0 {
                pos += 1;
            } else {
                neg += 1;
            }
        }
        (pos, neg)
    }
}

/// Writes into `terms` the update terms of target column `c` from the
/// final columns `ks` of the column-major `n × n` factor `head`: for each
/// `k` with `L[c,k] != 0`, ascending, `(index of L[c,k], L[c,k], d_k)`.
/// Returns how many.
fn panel_terms(
    head: &[f64],
    n: usize,
    ks: std::ops::Range<usize>,
    c: usize,
    terms: &mut [(usize, f64, f64); NB],
) -> usize {
    let mut nt = 0;
    for k in ks {
        let lkc = head[k * n + c];
        if lkc != 0.0 {
            terms[nt] = (k * n + c, lkc, head[k * n + k]);
            nt += 1;
        }
    }
    nt
}

/// `target[t] -= (src[off + t] · l) · d` for every term `(off, l, d)`, in
/// term order, for every row `t` of `target`. [`TILE`] rows at a time stay
/// in registers across the whole term list; per entry the operations are
/// exactly those of one scalar `-=` per term.
fn update_rows(target: &mut [f64], src: &[f64], terms: &[(usize, f64, f64)]) {
    if terms.is_empty() {
        return;
    }
    let mut tiles = target.chunks_exact_mut(TILE);
    let mut r0 = 0;
    for tile in &mut tiles {
        let mut acc = [0.0f64; TILE];
        acc.copy_from_slice(tile);
        for &(off, l, d) in terms {
            for (a, &v) in acc.iter_mut().zip(&src[off + r0..off + r0 + TILE]) {
                *a -= v * l * d;
            }
        }
        tile.copy_from_slice(&acc);
        r0 += TILE;
    }
    for (t, v) in tiles.into_remainder().iter_mut().enumerate() {
        for &(off, l, d) in terms {
            *v -= src[off + r0 + t] * l * d;
        }
    }
}

/// Empties the compressed-column index for a fresh factorisation.
fn clear_index(
    col_ptr: &mut Vec<usize>,
    row_idx: &mut Vec<u32>,
    vals: &mut Vec<f64>,
    diag: &mut Vec<f64>,
) {
    col_ptr.clear();
    row_idx.clear();
    vals.clear();
    diag.clear();
    col_ptr.push(0);
}

/// Appends the final column `j` of the factor to the compressed-column
/// index: its pivot and its strictly-lower nonzeros.
fn index_column(
    j: usize,
    col: &[f64],
    col_ptr: &mut Vec<usize>,
    row_idx: &mut Vec<u32>,
    vals: &mut Vec<f64>,
    diag: &mut Vec<f64>,
) {
    diag.push(col[j]);
    for (i, &v) in col.iter().enumerate().skip(j + 1) {
        if v != 0.0 {
            row_idx.push(i as u32);
            vals.push(v);
        }
    }
    col_ptr.push(row_idx.len());
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

    /// A quasidefinite `n × n` test matrix: a random SPD-ish leading block
    /// with a few negative trailing pivots, a structural zero block, and
    /// (with `tiny`) one pivot small enough to be regularised.
    fn kkt_like(n: usize, seed: u64, tiny: bool) -> Matrix {
        let mut s = seed;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let split = n * 2 / 5;
        let free = n - n / 10;
        let mut a = Matrix::zeros(n, n);
        for c in 0..n {
            for r in c..n {
                if (r < split) == (c < split) || r >= free {
                    let v = rnd();
                    a[(r, c)] = v;
                    a[(c, r)] = v;
                }
            }
        }
        for i in 0..free {
            a[(i, i)] = 8.0 + rnd();
        }
        for i in free..n {
            a[(i, i)] = -1.0 - rnd().abs();
        }
        if tiny {
            a[(0, 0)] = 1e-15;
            for r in 1..n {
                a[(r, 0)] = 0.0;
                a[(0, r)] = 0.0;
            }
        }
        a
    }

    fn assert_same_factor(got: &Ldlt, want: &Ldlt, what: &str) {
        let n = want.dim();
        assert_eq!(got.dim(), n, "{what}: dimension");
        assert_eq!(
            got.regularised_pivots(),
            want.regularised_pivots(),
            "{what}: regularised pivots"
        );
        for c in 0..n {
            for r in c..n {
                assert_eq!(
                    got.ld[(r, c)].to_bits(),
                    want.ld[(r, c)].to_bits(),
                    "{what}: entry ({r},{c})"
                );
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.diag), bits(&want.diag), "{what}: diag");
        assert_eq!(got.col_ptr, want.col_ptr, "{what}: col_ptr");
        assert_eq!(got.row_idx, want.row_idx, "{what}: row_idx");
        assert_eq!(bits(&got.vals), bits(&want.vals), "{what}: vals");
    }

    #[test]
    fn refactor_matches_a_fresh_factor() {
        let a = kkt_like(97, 0x9e3779b97f4a7c15, false);
        let b = kkt_like(97, 0x2545f4914f6cdd1d, true);
        let fresh = Ldlt::new(&b, 1e-12).unwrap();
        assert_eq!(fresh.regularised_pivots(), 1);
        // Same dimension: the storage is refilled, stale upper triangle
        // and all.
        let mut f = Ldlt::new(&a, 1e-12).unwrap();
        let ptr = f.ld.as_slice().as_ptr();
        f.refactor(&b, 1e-12).unwrap();
        assert_eq!(
            f.ld.as_slice().as_ptr(),
            ptr,
            "same-size refactor reallocated"
        );
        assert_same_factor(&f, &fresh, "same dimension");
        // A different dimension, in either direction, reallocates.
        let small = kkt_like(30, 7, false);
        let mut g = Ldlt::new(&small, 1e-12).unwrap();
        g.refactor(&b, 1e-12).unwrap();
        assert_same_factor(&g, &fresh, "grown");
        g.refactor(&small, 1e-12).unwrap();
        assert_same_factor(&g, &Ldlt::new(&small, 1e-12).unwrap(), "shrunk");
        // A failed refactor is followed by a clean one.
        let singular = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(g.refactor(&singular, 0.0).is_err());
        g.refactor(&b, 1e-12).unwrap();
        assert_same_factor(&g, &fresh, "after error");
    }

    #[test]
    fn tiled_factor_matches_reference_with_signed_zeros() {
        // Dimensions off the 8-row tile and the 48-column panel, a KKT-like
        // zero block (exact-zero multipliers), and signed zeros written
        // into the lower triangle: the whole factor, zeros' signs included,
        // must equal the reference.
        for (seed, n) in [1u64, 2, 3, 4, 5, 6, 7, 8]
            .into_iter()
            .zip([1, 5, 9, 13, 47, 49, 61, 103])
        {
            let mut a = kkt_like(n, 0x9e3779b97f4a7c15 ^ seed, seed % 2 == 0);
            for c in 0..n {
                for r in (c + 1)..n {
                    match (r * 7 + c * 3 + seed as usize) % 11 {
                        0 => a[(r, c)] = -0.0,
                        1 => a[(r, c)] = 0.0,
                        _ => {}
                    }
                }
            }
            let reference = Ldlt::new_reference(&a, 1e-12).unwrap();
            let tiled = Ldlt::new(&a, 1e-12).unwrap();
            assert_same_factor(&tiled, &reference, &format!("n={n}"));
        }
    }
}
