//! Problem-size reduction between SOS program construction and SDP
//! emission: Newton-polytope basis pruning (see [`cppll_poly::prune_gram_basis`])
//! and sign-symmetry block-diagonalisation of Gram matrices.
//!
//! # Sign symmetries
//!
//! A sign symmetry is a variable-flip map `τ_s : xᵢ ↦ (−1)^{sᵢ} xᵢ`
//! (`s ∈ GF(2)ⁿ`) under which **every** datum of the program is invariant
//! (or, for derivative/composition operators, suitably equivariant — see
//! the per-term rules in `SymmetryDetector`). From any feasible solution a
//! flipped solution can be built (`V ↦ V∘τ_s`, Gram `Q ↦ DQD` with
//! `D = diag((−1)^{s·m})`, scalars unchanged), and the group average of all
//! flipped solutions is again feasible (the constraints are affine in the
//! decisions and the PSD cone is convex) with the same objective value
//! (`tr(DQD) = tr(Q)`). The averaged Gram commutes with every `D`, so its
//! entry `Q_{ab}` vanishes whenever the *signatures* `s ↦ s·(a mod 2)` of
//! basis monomials `a, b` differ on some group generator. Partitioning each
//! Gram basis by signature therefore splits one monolithic PSD block into
//! independent smaller blocks **without changing feasibility in either
//! direction** — exactly the shape the per-block parallel factorisations of
//! the SDP solver are best at.
//!
//! The group of valid flips is computed as the GF(2) null space of parity
//! constraints harvested from all known polynomial data; `u64` bit masks
//! make the Gaussian elimination a few dozen XORs for the ≤ 8 variables
//! this pipeline sees.

use std::collections::{BTreeMap, BTreeSet};

use cppll_poly::{Monomial, Polynomial};

/// Which reductions [`SosProgram::solve`](crate::SosProgram::solve) applies
/// before handing the SDP to the solver.
///
/// Explicit bases passed via `require_sos_with_basis` are a caller contract
/// and are honoured verbatim under both variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Every layer: each multiplier's candidate basis is filtered against
    /// the Newton polytope of the constraint it certifies (`2m + α ∈
    /// conv(fixed support)` for some guard monomial `α`), automatically
    /// chosen constraint Gram bases are Newton-pruned, and every Gram is
    /// split by sign-symmetry signature and then partitioned by the
    /// connected components of its term-sparsity graph. The default.
    #[default]
    Support,
    /// Reduction disabled: compile exactly the SDP the program text
    /// describes. The compile a support-reduced solve falls back to when
    /// its answer is inconclusive about the full program.
    Off,
}

impl Reduction {
    /// The compile to re-solve under when this one's answer does not
    /// settle the full program: `Off` for the support-reduced compile,
    /// whose multiplier bases and blocks are a restriction of the declared
    /// ones, and none for `Off`, which already compiles the full program.
    pub fn fallback(self) -> Option<Reduction> {
        match self {
            Reduction::Support => Some(Reduction::Off),
            Reduction::Off => None,
        }
    }

    /// Whether the reduction layers run.
    pub(crate) fn is_on(self) -> bool {
        self == Reduction::Support
    }
}

/// What the reduction achieved, accumulated over every Gram block of every
/// compiled program (and, via the ledger, over every solve of a pipeline
/// run). `basis_after < basis_before` and `blocks > grams` are the two ways
/// an SDP shrinks; both are reported rather than asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Gram blocks considered (multipliers + SOS constraints).
    pub grams: usize,
    /// Total basis monomials before pruning.
    pub basis_before: usize,
    /// Total basis monomials after pruning (= sum of all block dimensions).
    pub basis_after: usize,
    /// PSD blocks emitted (≥ `grams`; larger when symmetry splits).
    pub blocks: usize,
    /// Largest emitted block dimension.
    pub max_block: usize,
    /// Basis monomials removed by the Newton/support layer alone
    /// (support-driven multiplier filtering + constraint-Gram pruning).
    pub newton_dropped: usize,
    /// Extra blocks minted by sign-symmetry splitting, beyond one per Gram.
    pub symmetry_blocks: usize,
    /// Splits made by term sparsity: a block that entered the refinement
    /// (a sign-symmetry signature class) and left as `k` blocks counts
    /// `k − 1`.
    pub term_sparsity_blocks: usize,
    /// Merges made by term sparsity: a block that left the refinement
    /// gathering `k` entering blocks counts `k − 1`. The refinement can
    /// undo symmetry splits, so it can merge as well as split.
    pub term_sparsity_merges: usize,
}

impl ReductionStats {
    /// Accumulates another compile's stats (sums; `max_block` maxes).
    pub fn accumulate(&mut self, other: &ReductionStats) {
        self.grams += other.grams;
        self.basis_before += other.basis_before;
        self.basis_after += other.basis_after;
        self.blocks += other.blocks;
        self.max_block = self.max_block.max(other.max_block);
        self.newton_dropped += other.newton_dropped;
        self.symmetry_blocks += other.symmetry_blocks;
        self.term_sparsity_blocks += other.term_sparsity_blocks;
        self.term_sparsity_merges += other.term_sparsity_merges;
    }

    /// Did reduction shrink anything at all?
    pub fn is_reduced(&self) -> bool {
        self.basis_after < self.basis_before || self.blocks > self.grams
    }

    /// Per-layer breakdown for the CLI `reduction:` block — `None` when no
    /// layer did anything (the headline [`std::fmt::Display`] line already
    /// says everything).
    pub fn detail(&self) -> Option<String> {
        if self.newton_dropped == 0
            && self.symmetry_blocks == 0
            && self.term_sparsity_blocks == 0
            && self.term_sparsity_merges == 0
        {
            return None;
        }
        Some(format!(
            "newton −{} monomials, symmetry +{} blocks, term-sparsity +{} −{} blocks",
            self.newton_dropped,
            self.symmetry_blocks,
            self.term_sparsity_blocks,
            self.term_sparsity_merges
        ))
    }
}

impl std::fmt::Display for ReductionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} grams, basis {}→{}, {} blocks (max dim {})",
            self.grams, self.basis_before, self.basis_after, self.blocks, self.max_block
        )
    }
}

impl cppll_json::ToJson for ReductionStats {
    fn to_json(&self) -> cppll_json::Value {
        cppll_json::ObjectBuilder::new()
            .field("grams", self.grams)
            .field("basis_before", self.basis_before)
            .field("basis_after", self.basis_after)
            .field("blocks", self.blocks)
            .field("max_block", self.max_block)
            .field("newton_dropped", self.newton_dropped)
            .field("symmetry_blocks", self.symmetry_blocks)
            .field("term_sparsity_blocks", self.term_sparsity_blocks)
            .field("term_sparsity_merges", self.term_sparsity_merges)
            .build()
    }
}

impl cppll_json::FromJson for ReductionStats {
    fn from_json(v: &cppll_json::Value) -> Result<Self, cppll_json::DecodeError> {
        use cppll_json::decode;
        Ok(ReductionStats {
            grams: decode::required(v, "grams")?,
            basis_before: decode::required(v, "basis_before")?,
            basis_after: decode::required(v, "basis_after")?,
            blocks: decode::required(v, "blocks")?,
            max_block: decode::required(v, "max_block")?,
            // Per-layer counters postdate the first journal format; default
            // to zero so prior-run ledgers still decode. Older journals also
            // carry the retired multiplier-cache counter, which is ignored.
            newton_dropped: decode::optional(v, "newton_dropped")?.unwrap_or(0),
            symmetry_blocks: decode::optional(v, "symmetry_blocks")?.unwrap_or(0),
            term_sparsity_blocks: decode::optional(v, "term_sparsity_blocks")?.unwrap_or(0),
            term_sparsity_merges: decode::optional(v, "term_sparsity_merges")?.unwrap_or(0),
        })
    }
}

/// Bit mask of the odd-exponent variables of a monomial: the quantity a
/// sign flip `τ_s` sees (`τ_s(x^α) = (−1)^{s·α} x^α`).
pub(crate) fn parity_mask(m: &Monomial) -> u64 {
    let mut mask = 0u64;
    for (i, &e) in m.exps().iter().enumerate() {
        if e % 2 == 1 {
            mask |= 1u64 << i;
        }
    }
    mask
}

/// Collects GF(2) parity constraints on candidate sign flips `s` and
/// solves for the group of flips satisfying all of them.
///
/// Per-term rules (τ = τ_s, ε_i = (−1)^{s_i}):
///
/// * known polynomial `q` appearing multiplicatively (constants, scalar
///   coefficients, multiplier factors, plain `V·q`): need `q∘τ = q`, i.e.
///   `s·α = 0` for every `α ∈ supp(q)` — [`SymmetryDetector::require_invariant`];
/// * `(∂V/∂xᵢ)·q`: the derivative picks up `εᵢ`, so `q` must satisfy
///   `q∘τ = εᵢ·q`, i.e. `s·(α ⊕ eᵢ) = 0` —
///   [`SymmetryDetector::require_equivariant`] with `var = i`;
/// * `V(R(x))·q`: need `q` invariant and each component equivariant,
///   `Rⱼ(τx) = εⱼ·Rⱼ(x)`, i.e. `s·(α ⊕ eⱼ) = 0` for `α ∈ supp(Rⱼ)`.
#[derive(Debug)]
pub(crate) struct SymmetryDetector {
    nvars: usize,
    /// Row space of the parity constraints, kept in reduced row-echelon
    /// form (each pivot bit appears in exactly one row).
    rows: Vec<u64>,
    /// Pivot bit of each row (same order as `rows`).
    pivots: Vec<u32>,
}

impl SymmetryDetector {
    pub(crate) fn new(nvars: usize) -> Self {
        SymmetryDetector {
            nvars,
            rows: Vec::new(),
            pivots: Vec::new(),
        }
    }

    fn add_row(&mut self, mut r: u64) {
        if self.nvars > 64 {
            return; // Symmetry detection disabled beyond mask width.
        }
        for (row, &p) in self.rows.iter().zip(&self.pivots) {
            if (r >> p) & 1 == 1 {
                r ^= row;
            }
        }
        if r == 0 {
            return;
        }
        let p = r.trailing_zeros();
        // Keep reduced form: clear the new pivot bit from existing rows.
        for row in &mut self.rows {
            if (*row >> p) & 1 == 1 {
                *row ^= r;
            }
        }
        self.rows.push(r);
        self.pivots.push(p);
    }

    /// `q∘τ_s = q` for every admissible flip: one row per support monomial.
    pub(crate) fn require_invariant(&mut self, q: &Polynomial) {
        for (m, c) in q.terms() {
            if c != 0.0 {
                self.add_row(parity_mask(m));
            }
        }
    }

    /// `q∘τ_s = (−1)^{s_var}·q`: the parity of every support monomial must
    /// match the flip of `var`.
    pub(crate) fn require_equivariant(&mut self, q: &Polynomial, var: usize) {
        for (m, c) in q.terms() {
            if c != 0.0 {
                self.add_row(parity_mask(m) ^ (1u64 << var));
            }
        }
    }

    /// Basis of the group of admissible flips: the GF(2) null space of the
    /// collected rows. Deterministic (free columns in ascending order).
    /// Empty when only the identity flip survives — or when `nvars > 64`,
    /// where detection is disabled and "no symmetry" is the sound answer.
    pub(crate) fn generators(&self) -> Vec<u64> {
        if self.nvars > 64 {
            return Vec::new();
        }
        let mut gens = Vec::new();
        for j in 0..self.nvars as u32 {
            if self.pivots.contains(&j) {
                continue;
            }
            let mut v = 1u64 << j;
            for (row, &p) in self.rows.iter().zip(&self.pivots) {
                if (row >> j) & 1 == 1 {
                    v |= 1u64 << p;
                }
            }
            gens.push(v);
        }
        gens
    }
}

/// Signature of a basis monomial under the symmetry generators: bit `k` is
/// the parity `gₖ · (m mod 2)`. The group-averaged Gram is zero across
/// distinct signatures.
pub(crate) fn signature(m: &Monomial, generators: &[u64]) -> u64 {
    let mask = parity_mask(m);
    let mut sig = 0u64;
    for (k, g) in generators.iter().enumerate() {
        if (g & mask).count_ones() % 2 == 1 {
            sig |= 1u64 << k;
        }
    }
    sig
}

/// Partitions basis indices into signature classes, ordered by first
/// occurrence (deterministic; the class of the constant monomial comes
/// first for the usual grlex bases). With no generators this is the single
/// identity class.
pub(crate) fn split_by_signature(basis: &[Monomial], generators: &[u64]) -> Vec<Vec<usize>> {
    if generators.is_empty() {
        return vec![(0..basis.len()).collect()];
    }
    let mut classes: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, m) in basis.iter().enumerate() {
        let sig = signature(m, generators);
        match classes.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, idxs)) => idxs.push(i),
            None => classes.push((sig, vec![i])),
        }
    }
    classes.into_iter().map(|(_, idxs)| idxs).collect()
}

/// One Gram's view of a joint term-sparsity refinement: its basis, the
/// factor monomials it multiplies into the constraint (`supp(h)` for an
/// S-procedure multiplier appearing as `σ·h`, the single constant monomial
/// for the constraint's own Gram), and its current partition — entering as
/// the sign-symmetry signature classes, leaving as the term-sparsity
/// partition, which can be finer or coarser than the classes.
#[derive(Debug)]
pub(crate) struct TsGram<'a> {
    pub basis: &'a [Monomial],
    pub shifts: Vec<Monomial>,
    pub classes: Vec<Vec<usize>>,
}

/// TSSOS-style term-sparsity refinement, run jointly over every Gram of one
/// constraint (the constraint's own Gram plus its multipliers).
///
/// The term-sparsity graph of a Gram puts an edge between basis indices
/// `i, j` iff some factor shift lands their product on a monomial of the
/// current support `B`; blocks are the graph's connected components (the
/// "maximal chordal extension" variant of TSSOS, which keeps the partition
/// disjoint and hence compatible with the block-diagonal Gram layout).
/// `B` starts as the constraint's fixed support plus every Gram's diagonal
/// rows, and is extended each round with the within-block pair products the
/// blocks themselves can realise, until no partition changes — the support-
/// extension fixed point. Partitions only ever coarsen (the support grows
/// monotonically), so termination is immediate.
///
/// The refinement starts from singletons, not from the signature classes,
/// and merges across them: the seed holds every monomial a free
/// polynomial's declared basis can reach, odd ones included, so a pair
/// product across two signature classes can land in it. A term-sparsity
/// block can therefore re-join monomials that symmetry split apart (the
/// toy atlas's solves record 112 merges and no splits), which only
/// enlarges the feasible set. Returns `(splits, merges)` against the
/// entering partitions (see [`split_merge_counts`]).
///
/// Soundness: zeroing cross-block Gram entries restricts the feasible set —
/// any block-feasible solution assembles into a feasible block-diagonal
/// Gram for the original constraint. Like support-driven multiplier bases
/// (and unlike sign-symmetry splitting) the restriction can lose
/// certificates; verdict-agreement tests against the unreduced compile
/// guard it.
pub(crate) fn refine_by_term_sparsity(
    seed: &BTreeSet<Monomial>,
    grams: &mut [TsGram<'_>],
) -> (usize, usize) {
    let entering: Vec<Vec<Vec<usize>>> = grams.iter().map(|g| g.classes.clone()).collect();
    // B₀ = fixed support ∪ every diagonal row every Gram can produce.
    let mut support: BTreeSet<Monomial> = seed.clone();
    for g in grams.iter() {
        for class in &g.classes {
            for &i in class {
                let sq = g.basis[i].mul(&g.basis[i]);
                for s in &g.shifts {
                    support.insert(sq.mul(s));
                }
            }
        }
    }
    // Start from singletons, then coarsen by components until stable.
    for g in grams.iter_mut() {
        g.classes = g
            .classes
            .iter()
            .flat_map(|c| c.iter().map(|&i| vec![i]))
            .collect();
    }
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    loop {
        let mut changed = false;
        for g in grams.iter_mut() {
            // Union-find over the current blocks: merge two blocks when any
            // cross pair of their members lands in the support under some
            // shift.
            let nblocks = g.classes.len();
            let mut parent: Vec<usize> = (0..nblocks).collect();
            for a in 0..nblocks {
                for b in (a + 1)..nblocks {
                    if find(&mut parent, a) == find(&mut parent, b) {
                        continue;
                    }
                    let connected = g.classes[a].iter().any(|&i| {
                        g.classes[b].iter().any(|&j| {
                            let prod = g.basis[i].mul(&g.basis[j]);
                            g.shifts.iter().any(|s| support.contains(&prod.mul(s)))
                        })
                    });
                    if connected {
                        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                        parent[rb.max(ra)] = rb.min(ra);
                    }
                }
            }
            // Reassemble blocks by root, ordered by first occurrence.
            let mut merged: Vec<Vec<usize>> = Vec::new();
            let mut root_to_pos: Vec<Option<usize>> = vec![None; nblocks];
            for k in 0..nblocks {
                let r = find(&mut parent, k);
                let members = std::mem::take(&mut g.classes[k]);
                match root_to_pos[r] {
                    Some(pos) => merged[pos].extend(members),
                    None => {
                        root_to_pos[r] = Some(merged.len());
                        merged.push(members);
                    }
                }
            }
            for c in &mut merged {
                c.sort_unstable();
            }
            if merged.len() != nblocks {
                changed = true;
            }
            g.classes = merged;
        }
        // Extend the support with the pair products the new blocks realise.
        for g in grams.iter() {
            for class in &g.classes {
                for (p, &i) in class.iter().enumerate() {
                    for &j in class.iter().skip(p) {
                        let prod = g.basis[i].mul(&g.basis[j]);
                        for s in &g.shifts {
                            support.insert(prod.mul(s));
                        }
                    }
                }
            }
        }
        if !changed {
            return grams
                .iter()
                .zip(&entering)
                .map(|(g, before)| split_merge_counts(before, &g.classes))
                .fold((0, 0), |(s, m), (ds, dm)| (s + ds, m + dm));
        }
    }
}

/// How partition `after` differs from partition `before` of the same
/// indices: a block of `before` spread over `k` blocks of `after` counts
/// `k − 1` splits, and a block of `after` gathering `k` blocks of `before`
/// counts `k − 1` merges. Empty blocks count for nothing, and
/// `splits − merges` is the change in the number of non-empty blocks.
pub(crate) fn split_merge_counts(before: &[Vec<usize>], after: &[Vec<usize>]) -> (usize, usize) {
    let block_of_before: BTreeMap<usize, usize> = before
        .iter()
        .enumerate()
        .flat_map(|(b, idxs)| idxs.iter().map(move |&i| (i, b)))
        .collect();
    let pairs: BTreeSet<(usize, usize)> = after
        .iter()
        .enumerate()
        .flat_map(|(a, idxs)| {
            let block_of_before = &block_of_before;
            idxs.iter().map(move |i| (block_of_before[i], a))
        })
        .collect();
    let non_empty = |p: &[Vec<usize>]| p.iter().filter(|c| !c.is_empty()).count();
    (
        pairs.len() - non_empty(before),
        pairs.len() - non_empty(after),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_poly::{monomials_up_to, Polynomial};

    fn poly(nvars: usize, terms: &[(&[u32], f64)]) -> Polynomial {
        Polynomial::from_terms(nvars, terms)
    }

    #[test]
    fn even_polynomial_admits_full_flip_group() {
        let mut det = SymmetryDetector::new(2);
        det.require_invariant(&poly(2, &[(&[2, 0], 1.0), (&[0, 4], -2.0), (&[0, 0], 1.0)]));
        let gens = det.generators();
        assert_eq!(gens, vec![0b01, 0b10]);
        // The degree-2 basis splits into 4 signature classes.
        let classes = split_by_signature(&monomials_up_to(2, 2), &gens);
        assert_eq!(classes.len(), 4);
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn odd_term_restricts_the_group() {
        let mut det = SymmetryDetector::new(2);
        // x breaks the x-flip but xy-coupling is absent: only the y-flip
        // survives... x has parity 01 → constraint s·(1,0) = 0 → s₀ = 0.
        det.require_invariant(&poly(2, &[(&[1, 0], 1.0), (&[2, 2], 1.0)]));
        assert_eq!(det.generators(), vec![0b10]);
        // Adding an xy term couples the flips away entirely: s₀ + s₁ = 0
        // with s₀ = 0 forces s = 0.
        det.require_invariant(&poly(2, &[(&[1, 1], 1.0)]));
        assert!(det.generators().is_empty());
    }

    #[test]
    fn derivative_equivariance_preserves_odd_field_symmetry() {
        // ẋ = −x³ is odd: (∂V/∂x)·(−x³) needs s·(α ⊕ e₀) = 0 for α = (3),
        // i.e. s·(0) = 0 — no restriction. The full flip group survives.
        let mut det = SymmetryDetector::new(1);
        det.require_equivariant(&poly(1, &[(&[3], -1.0)]), 0);
        assert_eq!(det.generators(), vec![0b1]);
        // An even field component x² under ∂/∂x breaks it: s·(2 ⊕ 1) ≠ 0.
        det.require_equivariant(&poly(1, &[(&[2], 1.0)]), 0);
        assert!(det.generators().is_empty());
    }

    #[test]
    fn composition_equivariance_rules() {
        // R(x, y) = (−y, x) style coupling: R₀ = y needs s·(e_y ⊕ e_x) = 0,
        // R₁ = x needs the same — the diagonal flip (both together) remains.
        let mut det = SymmetryDetector::new(2);
        det.require_equivariant(&poly(2, &[(&[0, 1], -1.0)]), 0);
        det.require_equivariant(&poly(2, &[(&[1, 0], 1.0)]), 1);
        assert_eq!(det.generators(), vec![0b11]);
    }

    #[test]
    fn nullspace_matches_brute_force() {
        let rows: Vec<u64> = vec![0b0011, 0b0110, 0b1000];
        let mut det = SymmetryDetector::new(4);
        for &r in &rows {
            det.add_row(r);
        }
        let gens = det.generators();
        // Brute force: enumerate all 16 flips, keep those orthogonal to all
        // rows; the span of the generators must be exactly that set.
        let valid: Vec<u64> = (0u64..16)
            .filter(|s| rows.iter().all(|r| (r & s).count_ones() % 2 == 0))
            .collect();
        let mut span = vec![0u64];
        for g in &gens {
            let mut next = span.clone();
            for v in &span {
                next.push(v ^ g);
            }
            span = next;
        }
        span.sort_unstable();
        span.dedup();
        assert_eq!(span, valid);
    }

    #[test]
    fn signature_partition_is_consistent_with_products() {
        // Within-class products are invariant monomials; cross-class
        // products are not — the fact that makes the block split sound.
        let gens = vec![0b01u64, 0b10];
        let basis = monomials_up_to(2, 2);
        let classes = split_by_signature(&basis, &gens);
        for idxs in &classes {
            for &a in idxs {
                for &b in idxs {
                    let prod = basis[a].mul(&basis[b]);
                    assert_eq!(signature(&prod, &gens), 0, "{} * {}", basis[a], basis[b]);
                }
            }
        }
    }

    #[test]
    fn stats_accumulate_render_and_round_trip() {
        use cppll_json::{parse, FromJson, ToJson};
        let mut s = ReductionStats::default();
        s.accumulate(&ReductionStats {
            grams: 2,
            basis_before: 10,
            basis_after: 7,
            blocks: 4,
            max_block: 3,
            newton_dropped: 3,
            symmetry_blocks: 2,
            term_sparsity_blocks: 0,
            term_sparsity_merges: 1,
        });
        s.accumulate(&ReductionStats {
            grams: 1,
            basis_before: 5,
            basis_after: 5,
            blocks: 1,
            max_block: 5,
            newton_dropped: 0,
            symmetry_blocks: 0,
            term_sparsity_blocks: 2,
            term_sparsity_merges: 0,
        });
        assert_eq!(s.grams, 3);
        assert_eq!(s.basis_before, 15);
        assert_eq!(s.basis_after, 12);
        assert_eq!(s.blocks, 5);
        assert_eq!(s.max_block, 5);
        assert_eq!(s.newton_dropped, 3);
        assert_eq!(s.symmetry_blocks, 2);
        assert_eq!(s.term_sparsity_blocks, 2);
        assert_eq!(s.term_sparsity_merges, 1);
        assert!(s.is_reduced());
        assert_eq!(s.to_string(), "3 grams, basis 15→12, 5 blocks (max dim 5)");
        assert_eq!(
            s.detail().unwrap(),
            "newton −3 monomials, symmetry +2 blocks, term-sparsity +2 −1 blocks"
        );
        assert!(ReductionStats::default().detail().is_none());
        // Journals store these stats; those written before the newer
        // counters existed still decode.
        let back = ReductionStats::from_json(&parse(&s.to_json().to_compact_string()).unwrap());
        assert_eq!(back.unwrap(), s);
        let old = r#"{"grams":1,"basis_before":2,"basis_after":2,"blocks":1,"max_block":2}"#;
        let old = ReductionStats::from_json(&parse(old).unwrap()).unwrap();
        assert_eq!((old.newton_dropped, old.term_sparsity_merges), (0, 0));
        // Journals written while the multiplier re-pruning pass existed
        // carry its cache counter; they still decode, without it.
        let with_cache = r#"{"grams":3,"basis_before":15,"basis_after":12,"blocks":5,"max_block":5,"newton_dropped":3,"symmetry_blocks":2,"term_sparsity_blocks":2,"mult_cache_hits":68}"#;
        let with_cache = ReductionStats::from_json(&parse(with_cache).unwrap()).unwrap();
        assert_eq!(
            with_cache,
            ReductionStats {
                term_sparsity_merges: 0,
                ..s
            }
        );
    }

    #[test]
    fn only_the_support_compile_falls_back() {
        assert_eq!(Reduction::default(), Reduction::Support);
        assert_eq!(Reduction::Support.fallback(), Some(Reduction::Off));
        assert_eq!(Reduction::Off.fallback(), None);
    }

    fn mono(exps: &[u32]) -> Monomial {
        Monomial::new(exps.to_vec())
    }

    #[test]
    fn term_sparsity_splits_disconnected_supports() {
        // Target support {x⁴, y⁴, 1} over basis {1, x, y, x², xy, y²}: the
        // term-sparsity graph connects 1↔x² (product x² ∉ B... product is
        // x², not in B₀ = {x⁴, y⁴, 1} ∪ squares {1, x², y², x⁴, x²y², y⁴} —
        // x² IS a diagonal square, so 1↔x is connected via product x... no:
        // edge (1, x) iff 1·x = x ∈ B — absent. Edge (1, x²): product
        // x² ∈ B (diagonal square of x) — connected. Edge (x, y): xy ∉ B.
        // Components: {1, x², y²} (via x⁴? edge (x², 1) yes; edge (y², 1)
        // via y² ∈ B yes), {x}, {xy}, {y}.
        let basis = monomials_up_to(2, 2);
        let seed: BTreeSet<Monomial> = [mono(&[4, 0]), mono(&[0, 4]), mono(&[0, 0])]
            .into_iter()
            .collect();
        let mut grams = [TsGram {
            basis: &basis,
            shifts: vec![mono(&[0, 0])],
            classes: vec![(0..basis.len()).collect()],
        }];
        refine_by_term_sparsity(&seed, &mut grams);
        let classes = &grams[0].classes;
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, basis.len(), "partition must cover the basis");
        assert!(
            classes.len() > 1,
            "disconnected support must split: {classes:?}"
        );
        // Every pair inside a block must be reachable; x and y stay apart
        // from the even component.
        let idx_of = |m: &Monomial| basis.iter().position(|b| b == m).unwrap();
        let class_of = |i: usize| classes.iter().position(|c| c.contains(&i)).unwrap();
        assert_ne!(
            class_of(idx_of(&mono(&[1, 0]))),
            class_of(idx_of(&mono(&[0, 0])))
        );
        assert_eq!(
            class_of(idx_of(&mono(&[2, 0]))),
            class_of(idx_of(&mono(&[0, 0])))
        );
    }

    #[test]
    fn term_sparsity_iterates_to_coarser_fixed_point() {
        // Support extension can merge blocks that the first round left
        // apart: with support {x², xy} over basis {1, x, y}, round one joins
        // 1↔x (product x... x ∉ B₀ = {x², xy} ∪ {1, x², y²}) — recompute:
        // edges: (1,x): x ∉ B. (1,y): y ∉ B. (x,y): xy ∈ B ✓. So blocks
        // {x,y}, {1}. Extension adds y² ... already there; adds x², xy, y².
        // No new edges to 1 — stable. Sanity: the refinement is a valid
        // partition and the connected pair stays together.
        let basis = monomials_up_to(2, 1);
        let seed: BTreeSet<Monomial> = [mono(&[2, 0]), mono(&[1, 1])].into_iter().collect();
        let mut grams = [TsGram {
            basis: &basis,
            shifts: vec![mono(&[0, 0])],
            classes: vec![(0..basis.len()).collect()],
        }];
        refine_by_term_sparsity(&seed, &mut grams);
        let classes = &grams[0].classes;
        let idx_of = |m: &Monomial| basis.iter().position(|b| b == m).unwrap();
        let class_of = |i: usize| classes.iter().position(|c| c.contains(&i)).unwrap();
        assert_eq!(
            class_of(idx_of(&mono(&[1, 0]))),
            class_of(idx_of(&mono(&[0, 1])))
        );
        assert_ne!(
            class_of(idx_of(&mono(&[0, 0]))),
            class_of(idx_of(&mono(&[1, 0])))
        );
    }

    #[test]
    fn term_sparsity_respects_signature_classes() {
        // Even support, so the flip group splits {1, x², y²} / {x} / {y} /
        // {xy}; with every seed monomial flip-invariant no cross-class pair
        // product lands in the support, and term sparsity refines *within*
        // those classes only.
        let basis = monomials_up_to(2, 2);
        let gens = vec![0b01u64, 0b10];
        let sym = split_by_signature(&basis, &gens);
        let seed: BTreeSet<Monomial> = [mono(&[0, 0]), mono(&[4, 0]), mono(&[0, 4])]
            .into_iter()
            .collect();
        let mut grams = [TsGram {
            basis: &basis,
            shifts: vec![mono(&[0, 0])],
            classes: sym.clone(),
        }];
        refine_by_term_sparsity(&seed, &mut grams);
        for c in &grams[0].classes {
            let sig0 = signature(&basis[c[0]], &gens);
            for &i in c {
                assert_eq!(signature(&basis[i], &gens), sig0, "cross-class merge");
            }
        }
    }

    #[test]
    fn term_sparsity_merges_signature_classes_through_an_odd_seed_monomial() {
        // Basis {1, x} under the x-flip splits into {1} / {x}. A seed
        // holding the odd monomial x (a free polynomial's declared basis
        // reaches it) puts the cross-class product 1·x in the support, so
        // term sparsity joins the two classes back into one block.
        let basis = monomials_up_to(1, 1);
        let gens = vec![0b1u64];
        let sym = split_by_signature(&basis, &gens);
        assert_eq!(sym, vec![vec![0], vec![1]]);
        let seed: BTreeSet<Monomial> = [mono(&[1])].into_iter().collect();
        let mut grams = [TsGram {
            basis: &basis,
            shifts: vec![mono(&[0])],
            classes: sym,
        }];
        assert_eq!(refine_by_term_sparsity(&seed, &mut grams), (0, 1));
        assert_eq!(grams[0].classes, vec![vec![0, 1]]);
    }

    #[test]
    fn split_merge_counts_pair_blocks() {
        // {0,1,2} {3} → {0} {1,2,3}: one split of the first block, one
        // merge into the second; the block count stays at two.
        let before = [vec![0, 1, 2], vec![3]];
        let after = [vec![0], vec![1, 2, 3]];
        assert_eq!(split_merge_counts(&before, &after), (1, 1));
        assert_eq!(split_merge_counts(&before, &before), (0, 0));
        // Empty blocks count for nothing.
        assert_eq!(split_merge_counts(&[vec![]], &[]), (0, 0));
    }
}
