//! The interior-point KKT system `[[M, B], [Bᵀ, −δI]]` in block-arrowhead
//! storage.
//!
//! No two SOS identities share a Gram block, so the Schur complement `M` is
//! block-diagonal over the connected components of the constraint–block
//! incidence, and only the free-variable rows `B` (the arrowhead) couple
//! the components. [`BlockKkt`] stores one dense panel per component and
//! the free block once, and assembles, factors and multiplies by them.
//!
//! # Bit-exactness
//!
//! Everything here reproduces, bit for bit on finite data, the dense path
//! it replaced: the whole `(m + nfree)²` matrix, [`cppll_linalg::Ldlt`]
//! and [`cppll_linalg::Matrix::matvec`]. The argument rests on two facts.
//!
//! * The dense kernel skips a term whenever its multiplier `L[c,k]` is
//!   exactly zero, and every entry of `L` between two components is an
//!   exact zero (by induction over the columns: its terms are products
//!   with such zeros). So the terms a component's column takes are those
//!   of its own earlier columns, in ascending order — what the panel
//!   kernel applies. The free block takes its terms from every constraint
//!   column in ascending *global* order, then from the free columns before
//!   it; columns are factored in global order, so that is the order they
//!   arrive in, whether or not components interleave.
//! * A matrix–vector product accumulates from `+0.0`, and in
//!   round-to-nearest a sum of `+0.0` and anything is never `-0.0`. So the
//!   `0 · x` terms of structural zeros never change an accumulator, and
//!   leaving them out keeps every row's sum exact.

use cppll_linalg::vec_ops::norm_inf;
use cppll_linalg::{FactorError, SparseLdl};

use crate::problem::SdpProblem;

/// The KKT system of one interior-point solve: what the iteration
/// assembles, factors and solves against, behind the operations it needs.
/// [`BlockKkt`] is the one production implementation; the solver tests pin
/// it against a dense one.
pub(crate) trait Kkt {
    /// The storage pattern of `p`'s KKT system, whose constraint–block
    /// incidence is `touching`; `free_reg` is the magnitude `δ` of the
    /// free block's `−δI`.
    fn new(p: &SdpProblem, touching: &[Vec<usize>], free_reg: f64) -> Self;

    /// Index into [`Kkt::schur_values`] of the Schur entry `M[i,k]`,
    /// `i ≥ k`, of two constraints that share a block.
    fn schur_slot(&self, i: usize, k: usize) -> usize;

    /// Zeroes `M` and returns the storage [`Kkt::schur_slot`] indexes.
    fn schur_values(&mut self) -> &mut [f64];

    /// Ends an assembly: adds `schur_reg · (1 + |M[i,i]|)` to each diagonal
    /// entry of `M` and completes its upper triangle.
    fn finish_assembly(&mut self, schur_reg: f64);

    /// Factors the assembled system, regularising pivots below `reg`.
    ///
    /// # Errors
    ///
    /// [`FactorError::Singular`] when a pivot is exactly zero after
    /// regularisation.
    fn factor(&mut self, reg: f64) -> Result<(), FactorError>;

    /// Solves with the last factor (no refinement), in place: `x` holds
    /// the right-hand side on entry and the solution on return.
    fn solve_in_place(&self, x: &mut [f64]);

    /// Writes the product of the assembled matrix with `x` into `out`.
    fn matvec_into(&self, x: &[f64], out: &mut [f64]);

    /// Solves into `sol` with up to three rounds of iterative refinement
    /// against the assembled matrix, which is what keeps primal
    /// feasibility converging once μ is small and the Schur complement is
    /// ill-conditioned. `res` holds each round's residual and then its
    /// correction.
    fn solve_refined(&self, rhs: &[f64], sol: &mut [f64], res: &mut [f64]) {
        sol.copy_from_slice(rhs);
        self.solve_in_place(sol);
        let rhs_norm = norm_inf(rhs).max(1e-300);
        for _ in 0..3 {
            self.matvec_into(sol, res);
            for (r, b) in res.iter_mut().zip(rhs) {
                *r = b - *r;
            }
            if norm_inf(res) <= 1e-14 * rhs_norm {
                break;
            }
            self.solve_in_place(res);
            for (s, c) in sol.iter_mut().zip(res.iter()) {
                *s += c;
            }
        }
    }

    /// Connected components of the constraint–block incidence.
    fn components(&self) -> usize;

    /// Number of `f64` values the assembled matrix is stored in.
    fn stored_entries(&self) -> usize;
}

/// The block-arrowhead KKT system.
///
/// Component `C` (its constraints in ascending global order) owns a dense
/// column-major `(|C| + nfree) × |C|` panel: rows `0..|C|` hold `M_CC` in
/// full, rows `|C|..` its rows of `Bᵀ`. The free block `−δI` is one dense
/// `nfree × nfree` matrix after the panels. `a` holds the assembled values
/// and `l` the factor (unit-lower `L` with `D` on the diagonal) in the same
/// layout; the factor is also indexed, column by column in global order,
/// into the compressed-column form its solves walk.
pub(crate) struct BlockKkt {
    m: usize,
    nfree: usize,
    /// Per component: its constraints, ascending.
    comps: Vec<Vec<usize>>,
    /// Per component: the offset of its panel in `a` and `l`.
    panel_off: Vec<usize>,
    /// Per constraint: its component and its column in that panel.
    place: Vec<(usize, usize)>,
    /// Column view of `B`: per free variable, `(constraint, coefficient)`.
    bcols: Vec<Vec<(usize, f64)>>,
    /// Offset of the free block in `a` and `l`.
    free_off: usize,
    a: Vec<f64>,
    l: Vec<f64>,
    factor: SparseLdl,
    regularised: usize,
}

impl BlockKkt {
    /// Offset in `a`/`l` of panel entry `(row, col)` of component `c`.
    fn at(&self, c: usize, row: usize, col: usize) -> usize {
        self.panel_off[c] + col * (self.comps[c].len() + self.nfree) + row
    }

    /// Number of pivots the last factorisation regularised.
    #[cfg(test)]
    pub(crate) fn regularised_pivots(&self) -> usize {
        self.regularised
    }

    /// The last factor, indexed.
    #[cfg(test)]
    pub(crate) fn sparse_factor(&self) -> &SparseLdl {
        &self.factor
    }

    /// Factors constraint column `k` (component `c`, panel column `lc`):
    /// the updates of the component's earlier columns, the pivot, the
    /// divide, the index, and the column's update of the free block.
    fn factor_constraint_column(
        &mut self,
        k: usize,
        c: usize,
        lc: usize,
        reg: f64,
    ) -> Result<(), FactorError> {
        let nc = self.comps[c].len();
        let ld = nc + self.nfree;
        let (panels, free) = self.l.split_at_mut(self.free_off);
        let panel = &mut panels[self.panel_off[c]..][..ld * nc];
        let (head, tail) = panel.split_at_mut(lc * ld);
        let col = &mut tail[..ld];
        for t in 0..lc {
            let src = &head[t * ld..(t + 1) * ld];
            let lt = src[lc];
            if lt == 0.0 {
                continue;
            }
            let dt = src[t];
            for (v, &s) in col[lc..].iter_mut().zip(&src[lc..]) {
                *v -= s * lt * dt;
            }
        }
        let d = pivot(col[lc], reg, k, &mut self.regularised)?;
        col[lc] = d;
        for v in &mut col[lc + 1..] {
            *v /= d;
        }
        let cons = &self.comps[c];
        let m = self.m;
        self.factor.push_column(
            d,
            ((lc + 1)..nc)
                .map(|r| (cons[r], col[r]))
                .chain((0..self.nfree).map(|g| (m + g, col[nc + g]))),
        );
        // F[g,f] -= (L[m+g,k] · L[m+f,k]) · d_k, lower triangle.
        let nf = self.nfree;
        let fl = &col[nc..];
        for (f, &lf) in fl.iter().enumerate() {
            if lf == 0.0 {
                continue;
            }
            for (v, &s) in free[f * nf + f..(f + 1) * nf].iter_mut().zip(&fl[f..]) {
                *v -= s * lf * d;
            }
        }
        Ok(())
    }

    /// Factors the free block, left-looking among its own columns, once
    /// every constraint column has updated it.
    fn factor_free_block(&mut self, reg: f64) -> Result<(), FactorError> {
        let nf = self.nfree;
        let free = &mut self.l[self.free_off..];
        for f in 0..nf {
            let (head, tail) = free.split_at_mut(f * nf);
            let col = &mut tail[..nf];
            for t in 0..f {
                let src = &head[t * nf..(t + 1) * nf];
                let lt = src[f];
                if lt == 0.0 {
                    continue;
                }
                let dt = src[t];
                for (v, &s) in col[f..].iter_mut().zip(&src[f..]) {
                    *v -= s * lt * dt;
                }
            }
            let d = pivot(col[f], reg, self.m + f, &mut self.regularised)?;
            col[f] = d;
            for v in &mut col[f + 1..] {
                *v /= d;
            }
            let m = self.m;
            self.factor
                .push_column(d, ((f + 1)..nf).map(|g| (m + g, col[g])));
        }
        Ok(())
    }
}

/// The static regularisation of [`cppll_linalg::Ldlt`]: a pivot below
/// `reg` in magnitude becomes `±reg` by its sign (and is counted); an
/// exactly zero one is then an error.
fn pivot(mut d: f64, reg: f64, at: usize, regularised: &mut usize) -> Result<f64, FactorError> {
    if d.abs() < reg {
        *regularised += 1;
        d = if d >= 0.0 { reg } else { -reg };
    }
    if d == 0.0 {
        return Err(FactorError::Singular { pivot: at });
    }
    Ok(d)
}

impl Kkt for BlockKkt {
    fn new(p: &SdpProblem, touching: &[Vec<usize>], free_reg: f64) -> Self {
        let m = p.num_constraints();
        let nfree = p.num_free_vars();
        // Union-find over the constraints sharing a block.
        let mut parent: Vec<usize> = (0..m).collect();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for cons in touching {
            if let Some((&first, rest)) = cons.split_first() {
                for &i in rest {
                    let (a, b) = (root(&mut parent, first), root(&mut parent, i));
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        // Components numbered by their smallest constraint.
        let mut comp_of_root = vec![usize::MAX; m];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        let mut place = Vec::with_capacity(m);
        for i in 0..m {
            let r = root(&mut parent, i);
            if comp_of_root[r] == usize::MAX {
                comp_of_root[r] = comps.len();
                comps.push(Vec::new());
            }
            let c = comp_of_root[r];
            place.push((c, comps[c].len()));
            comps[c].push(i);
        }
        let mut panel_off = Vec::with_capacity(comps.len());
        let mut len = 0;
        // Entries of `L` below the diagonal that a factor can store.
        let mut lower = nfree * nfree.saturating_sub(1) / 2;
        for cons in &comps {
            let nc = cons.len();
            panel_off.push(len);
            len += (nc + nfree) * nc;
            lower += nc * (nc - 1) / 2 + nfree * nc;
        }
        let free_off = len;
        let mut bcols = vec![Vec::new(); nfree];
        let mut kkt = BlockKkt {
            m,
            nfree,
            comps,
            panel_off,
            place,
            bcols: Vec::new(),
            free_off,
            a: vec![0.0; free_off + nfree * nfree],
            l: vec![0.0; free_off + nfree * nfree],
            // Room for every entry below the diagonal, so refactoring never
            // grows the index.
            factor: SparseLdl::with_capacity(m + nfree, lower),
            regularised: 0,
        };
        // `B` and `−δI` never change: written once.
        for (i, row) in p.bfree.iter().enumerate() {
            let (c, lc) = kkt.place[i];
            let nc = kkt.comps[c].len();
            for &(f, coef) in row {
                let at = kkt.at(c, nc + f, lc);
                kkt.a[at] = coef;
                bcols[f].push((i, coef));
            }
        }
        for f in 0..nfree {
            kkt.a[free_off + f * nfree + f] = -free_reg;
        }
        kkt.bcols = bcols;
        kkt
    }

    fn schur_slot(&self, i: usize, k: usize) -> usize {
        let (c, li) = self.place[i];
        let (ck, lk) = self.place[k];
        debug_assert!(c == ck && li >= lk, "pair ({i}, {k}) outside a lower panel");
        self.at(c, li, lk)
    }

    fn schur_values(&mut self) -> &mut [f64] {
        for (c, cons) in self.comps.iter().enumerate() {
            let nc = cons.len();
            let ld = nc + self.nfree;
            let panel = &mut self.a[self.panel_off[c]..][..ld * nc];
            for col in panel.chunks_exact_mut(ld) {
                col[..nc].fill(0.0);
            }
        }
        &mut self.a
    }

    fn finish_assembly(&mut self, schur_reg: f64) {
        for (c, cons) in self.comps.iter().enumerate() {
            let nc = cons.len();
            let ld = nc + self.nfree;
            let panel = &mut self.a[self.panel_off[c]..][..ld * nc];
            for j in 0..nc {
                let d = &mut panel[j * ld + j];
                *d += schur_reg * (1.0 + d.abs());
                for r in (j + 1)..nc {
                    panel[r * ld + j] = panel[j * ld + r];
                }
            }
        }
    }

    fn factor(&mut self, reg: f64) -> Result<(), FactorError> {
        self.l.copy_from_slice(&self.a);
        self.factor.clear();
        self.regularised = 0;
        for k in 0..self.m {
            let (c, lc) = self.place[k];
            self.factor_constraint_column(k, c, lc, reg)?;
        }
        self.factor_free_block(reg)
    }

    fn solve_in_place(&self, x: &mut [f64]) {
        self.factor.solve_in_place(x)
    }

    /// Column by column in global order, as the dense product: every row
    /// takes its terms in ascending column order, from `+0.0`.
    fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        let (m, nf) = (self.m, self.nfree);
        out.fill(0.0);
        for (k, &xk) in x[..m].iter().enumerate() {
            if xk == 0.0 {
                continue;
            }
            let (c, lc) = self.place[k];
            let cons = &self.comps[c];
            let ld = cons.len() + nf;
            let col = &self.a[self.panel_off[c] + lc * ld..][..ld];
            for (&i, &v) in cons.iter().zip(col) {
                out[i] += xk * v;
            }
            for (o, &v) in out[m..].iter_mut().zip(&col[cons.len()..]) {
                *o += xk * v;
            }
        }
        for (f, &xf) in x[m..].iter().enumerate() {
            if xf == 0.0 {
                continue;
            }
            for &(i, v) in &self.bcols[f] {
                out[i] += xf * v;
            }
            let col = &self.a[self.free_off + f * nf..][..nf];
            for (o, &v) in out[m..].iter_mut().zip(col) {
                *o += xf * v;
            }
        }
    }

    fn components(&self) -> usize {
        self.comps.len()
    }

    fn stored_entries(&self) -> usize {
        self.a.len()
    }
}

/// The dense KKT path the block-arrowhead one replaced, kept as its test
/// oracle: the whole `(m + nfree)²` matrix, [`cppll_linalg::Ldlt`] and
/// [`cppll_linalg::Matrix::matvec`].
#[cfg(test)]
pub(crate) struct DenseKkt {
    m: usize,
    bfree: Vec<Vec<(usize, f64)>>,
    free_reg: f64,
    a: cppll_linalg::Matrix,
    pub(crate) ldlt: Option<cppll_linalg::Ldlt>,
}

#[cfg(test)]
impl Kkt for DenseKkt {
    fn new(p: &SdpProblem, _touching: &[Vec<usize>], free_reg: f64) -> Self {
        let n = p.num_constraints() + p.num_free_vars();
        DenseKkt {
            m: p.num_constraints(),
            bfree: p.bfree.clone(),
            free_reg,
            a: cppll_linalg::Matrix::zeros(n, n),
            ldlt: None,
        }
    }

    fn schur_slot(&self, i: usize, k: usize) -> usize {
        k * self.a.nrows() + i
    }

    fn schur_values(&mut self) -> &mut [f64] {
        self.a.set_zero();
        self.a.as_mut_slice()
    }

    fn finish_assembly(&mut self, schur_reg: f64) {
        let (m, a) = (self.m, &mut self.a);
        for c in 0..m {
            a[(c, c)] += schur_reg * (1.0 + a[(c, c)].abs());
            for r in (c + 1)..m {
                a[(c, r)] = a[(r, c)];
            }
        }
        for (i, row) in self.bfree.iter().enumerate() {
            for &(f, coef) in row {
                a[(i, m + f)] = coef;
                a[(m + f, i)] = coef;
            }
        }
        for f in m..a.nrows() {
            a[(f, f)] = -self.free_reg;
        }
    }

    fn factor(&mut self, reg: f64) -> Result<(), FactorError> {
        self.ldlt = Some(cppll_linalg::Ldlt::new(&self.a, reg)?);
        Ok(())
    }

    fn solve_in_place(&self, x: &mut [f64]) {
        let sol = self.ldlt.as_ref().expect("factored").solve(x);
        x.copy_from_slice(&sol);
    }

    fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(&self.a.matvec(x));
    }

    fn components(&self) -> usize {
        1
    }

    fn stored_entries(&self) -> usize {
        self.a.as_slice().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Xorshift draws in `[-0.5, 0.5)`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }

        fn below(&mut self, n: usize) -> usize {
            ((self.next() + 0.5) * n as f64) as usize % n.max(1)
        }
    }

    /// A random block-arrowhead pattern: `m` constraints spread over
    /// `ncomp` interleaved components (each a chain of blocks over its
    /// members), `untouched` of them on no block at all, and `nfree` free
    /// variables each coupled to a few constraints.
    fn pattern(
        rng: &mut Rng,
        m: usize,
        ncomp: usize,
        untouched: usize,
        nfree: usize,
    ) -> (SdpProblem, Vec<Vec<usize>>) {
        let mut p = SdpProblem::new();
        let cons: Vec<_> = (0..m).map(|_| p.add_constraint(0.0)).collect();
        let vars: Vec<_> = (0..nfree).map(|_| p.add_free_var(0.0)).collect();
        for &v in &vars {
            for _ in 0..3.min(m) {
                p.set_free_coeff(cons[rng.below(m)], v, rng.next());
            }
        }
        p.normalize();
        let mut members = vec![Vec::new(); ncomp.max(1)];
        for i in untouched.min(m)..m {
            members[rng.below(ncomp.max(1))].push(i);
        }
        // Overlapping windows of each component's members: every block
        // shares a constraint with the next, so each component is one.
        let mut touching = Vec::new();
        for mem in &mut members {
            mem.sort_unstable();
            let mut s = 0;
            while s < mem.len() {
                let e = (s + 1 + rng.below(4)).min(mem.len());
                touching.push(mem[s.saturating_sub(1)..e].to_vec());
                s = e;
            }
        }
        (p, touching)
    }

    /// Assembles the same random Schur values into `k`: per block, every
    /// pair `(a, b ≤ a)` of its constraints, dominant on the diagonal.
    fn assemble<K: Kkt>(k: &mut K, touching: &[Vec<usize>], seed: u64, schur_reg: f64) {
        let mut rng = Rng(seed);
        let slots: Vec<Vec<usize>> = touching
            .iter()
            .map(|cons| {
                let mut s = Vec::new();
                for (a, &i) in cons.iter().enumerate() {
                    for &j in &cons[..=a] {
                        s.push(k.schur_slot(i, j));
                    }
                }
                s
            })
            .collect();
        let vals = k.schur_values();
        for (cons, s) in touching.iter().zip(&slots) {
            let mut t = 0;
            for a in 0..cons.len() {
                for b in 0..=a {
                    vals[s[t]] += if a == b {
                        cons.len() as f64 + rng.next()
                    } else {
                        rng.next()
                    };
                    t += 1;
                }
            }
        }
        k.finish_assembly(schur_reg);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn matvec<K: Kkt>(k: &K, x: &[f64]) -> Vec<f64> {
        let mut out = vec![f64::NAN; x.len()];
        k.matvec_into(x, &mut out);
        out
    }

    fn solve<K: Kkt>(k: &K, rhs: &[f64]) -> Vec<f64> {
        let mut x = rhs.to_vec();
        k.solve_in_place(&mut x);
        x
    }

    /// Factors, solves and multiplies the block and the dense systems and
    /// asserts every result bit-equal. Returns the number of regularised
    /// pivots.
    fn assert_block_matches_dense(
        p: &SdpProblem,
        touching: &[Vec<usize>],
        seed: u64,
        schur_reg: f64,
        reg: f64,
    ) -> usize {
        let mut block = BlockKkt::new(p, touching, 1e-9);
        let mut dense = DenseKkt::new(p, touching, 1e-9);
        // Twice, as the solver refills the same storage every iteration.
        for round in 0..2 {
            assemble(&mut block, touching, seed + round, schur_reg);
            assemble(&mut dense, touching, seed + round, schur_reg);
            let n = p.num_constraints() + p.num_free_vars();
            let mut rng = Rng(seed ^ 0x5bd1e995);
            let x: Vec<f64> = (0..n)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.next(),
                })
                .collect();
            assert_eq!(
                bits(&matvec(&block, &x)),
                bits(&matvec(&dense, &x)),
                "matvec"
            );
            assert_eq!(
                block.factor(reg).is_ok(),
                dense.factor(reg).is_ok(),
                "factor outcome"
            );
            let ldlt = dense.ldlt.as_ref().expect("dense factor");
            let (got, want) = (block.sparse_factor(), ldlt.factor());
            assert_eq!(block.regularised_pivots(), ldlt.regularised_pivots());
            assert_eq!(bits(got.pivots()), bits(want.pivots()), "pivots");
            for j in 0..n {
                let col = |f: &SparseLdl| -> Vec<(usize, u64)> {
                    f.column(j).map(|(i, v)| (i, v.to_bits())).collect()
                };
                assert_eq!(col(got), col(want), "column {j} of L");
            }
            let rhs: Vec<f64> = (0..n).map(|_| rng.next()).collect();
            assert_eq!(
                bits(&solve(&block, &rhs)),
                bits(&solve(&dense, &rhs)),
                "solve"
            );
        }
        block.regularised_pivots()
    }

    #[test]
    fn block_kkt_matches_the_dense_path_bitwise() {
        // (m, components, untouched, nfree): interleaved components with
        // and without free variables, constraints on no block (singleton
        // components), and free variables alone.
        let shapes = [
            (4, 2, 0, 1),
            (12, 3, 2, 3),
            (30, 4, 3, 5),
            (25, 5, 0, 0),
            (7, 1, 7, 2),
            (0, 0, 0, 4),
            (1, 1, 0, 0),
            (60, 6, 4, 9),
        ];
        for (t, &(m, ncomp, untouched, nfree)) in shapes.iter().enumerate() {
            for seed in 1..4u64 {
                let mut rng = Rng(0x9e3779b97f4a7c15 ^ (seed * 31 + t as u64));
                let (p, touching) = pattern(&mut rng, m, ncomp, untouched, nfree);
                let block = BlockKkt::new(&p, &touching, 1e-9);
                assert!(block.components() <= m, "more components than constraints");
                assert_block_matches_dense(&p, &touching, seed, 1e-11, 1e-9);
            }
        }
    }

    /// The refined solve as it was written before the KKT system solved in
    /// place: every product, residual and correction a fresh vector.
    fn solve_refined_allocating(dense: &DenseKkt, rhs: &[f64]) -> Vec<f64> {
        let ldlt = dense.ldlt.as_ref().expect("dense factor");
        let mut sol = ldlt.solve(rhs);
        let rhs_norm = norm_inf(rhs).max(1e-300);
        for _ in 0..3 {
            let ax = dense.a.matvec(&sol);
            let res: Vec<f64> = rhs.iter().zip(&ax).map(|(b, a)| b - a).collect();
            if norm_inf(&res) <= 1e-14 * rhs_norm {
                break;
            }
            let corr = ldlt.solve(&res);
            for (s, c) in sol.iter_mut().zip(&corr) {
                *s += c;
            }
        }
        sol
    }

    #[test]
    fn refined_solve_matches_the_allocating_form_bitwise() {
        // With and without free variables (`nfree = 0`), a lone constraint,
        // free variables alone; each solved twice into the same buffers,
        // which start out soiled.
        for (t, &(m, ncomp, untouched, nfree)) in [
            (12, 3, 2, 3),
            (25, 5, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 0, 4),
            (30, 4, 3, 5),
        ]
        .iter()
        .enumerate()
        {
            let mut rng = Rng(0x2545f4914f6cdd1d ^ t as u64);
            let (p, touching) = pattern(&mut rng, m, ncomp, untouched, nfree);
            let mut block = BlockKkt::new(&p, &touching, 1e-9);
            let mut dense = DenseKkt::new(&p, &touching, 1e-9);
            let n = m + nfree;
            let mut sol = vec![f64::NAN; n];
            let mut res = vec![f64::NAN; n];
            for round in 0..2 {
                // A tiny Schur regulariser leaves the system ill-conditioned
                // enough that refinement runs.
                assemble(&mut block, &touching, 40 + round, 1e-15);
                assemble(&mut dense, &touching, 40 + round, 1e-15);
                block.factor(1e-9).unwrap();
                dense.factor(1e-9).unwrap();
                let rhs: Vec<f64> = (0..n).map(|_| rng.next()).collect();
                block.solve_refined(&rhs, &mut sol, &mut res);
                assert_eq!(bits(&sol), bits(&solve_refined_allocating(&dense, &rhs)));
            }
        }
    }

    #[test]
    fn components_interleave_and_untouched_constraints_stand_alone() {
        // Constraints 0, 2 on one block, 1, 3 on another, 4 on none.
        let mut p = SdpProblem::new();
        let cons: Vec<_> = (0..5).map(|_| p.add_constraint(0.0)).collect();
        let u = p.add_free_var(0.0);
        p.set_free_coeff(cons[3], u, 2.0);
        p.normalize();
        let touching = vec![vec![0, 2], vec![1, 3]];
        let kkt = BlockKkt::new(&p, &touching, 1e-9);
        assert_eq!(kkt.comps, vec![vec![0, 2], vec![1, 3], vec![4]]);
        // Panels (2 + 1) × 2, twice, (1 + 1) × 1, then the 1 × 1 free block.
        assert_eq!(kkt.stored_entries(), 6 + 6 + 2 + 1);
    }

    #[test]
    fn small_pivots_regularise_like_the_dense_path() {
        // Untouched constraints without free coupling have the pivot
        // `schur_reg · (1 + 0)`, below `reg`: each is regularised.
        let mut rng = Rng(7);
        let (p, touching) = pattern(&mut rng, 10, 2, 3, 0);
        let regularised = assert_block_matches_dense(&p, &touching, 11, 1e-11, 1e-9);
        assert!(regularised >= 3, "{regularised} regularised pivots");
    }

    #[test]
    fn a_zero_pivot_without_regularisation_is_the_dense_error() {
        // With no regularisation an untouched, uncoupled constraint has an
        // exact zero pivot: both paths stop at the same one.
        let mut rng = Rng(3);
        let (p, touching) = pattern(&mut rng, 9, 2, 2, 0);
        let mut block = BlockKkt::new(&p, &touching, 1e-9);
        let mut dense = DenseKkt::new(&p, &touching, 1e-9);
        assemble(&mut block, &touching, 5, 0.0);
        assemble(&mut dense, &touching, 5, 0.0);
        let got = block.factor(0.0).unwrap_err();
        let want = dense.factor(0.0).unwrap_err();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(matches!(got, FactorError::Singular { pivot: 0 }), "{got:?}");
    }
}
