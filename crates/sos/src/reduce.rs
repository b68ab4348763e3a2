//! Problem-size reduction between SOS program construction and SDP
//! emission: support-driven multiplier bases, Newton-polytope basis pruning
//! (see [`cppll_poly::prune_gram_basis`]) and term-sparsity
//! block-diagonalisation of Gram matrices.

use std::collections::BTreeSet;

use cppll_poly::Monomial;

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
    /// chosen constraint Gram bases are Newton-pruned, and each
    /// constraint's Gram and single-use multipliers are partitioned by the
    /// connected components of their term-sparsity graphs. The default.
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
    /// PSD blocks emitted (more than `grams` when term sparsity splits).
    pub blocks: usize,
    /// Largest emitted block dimension.
    pub max_block: usize,
    /// Basis monomials removed by the Newton/support layer alone
    /// (support-driven multiplier filtering + constraint-Gram pruning).
    pub newton_dropped: usize,
    /// Splits made by term sparsity: a Gram it partitions into `k` blocks
    /// counts `k − 1`.
    pub term_sparsity_blocks: usize,
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
        self.term_sparsity_blocks += other.term_sparsity_blocks;
    }

    /// Did reduction shrink anything at all?
    pub fn is_reduced(&self) -> bool {
        self.basis_after < self.basis_before || self.blocks > self.grams
    }

    /// Per-layer breakdown for the CLI `reduction:` block — `None` when no
    /// layer did anything (the headline [`std::fmt::Display`] line already
    /// says everything).
    pub fn detail(&self) -> Option<String> {
        if self.newton_dropped == 0 && self.term_sparsity_blocks == 0 {
            return None;
        }
        Some(format!(
            "newton −{} monomials, term-sparsity +{} blocks",
            self.newton_dropped, self.term_sparsity_blocks
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
            .field("term_sparsity_blocks", self.term_sparsity_blocks)
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
            // carry retired counters (multiplier-cache hits, sign-symmetry
            // blocks, term-sparsity merges), which are ignored.
            newton_dropped: decode::optional(v, "newton_dropped")?.unwrap_or(0),
            term_sparsity_blocks: decode::optional(v, "term_sparsity_blocks")?.unwrap_or(0),
        })
    }
}

/// One Gram's view of a joint term-sparsity refinement: its basis, the
/// factor monomials it multiplies into the constraint (`supp(h)` for an
/// S-procedure multiplier appearing as `σ·h`, the single constant monomial
/// for the constraint's own Gram), and its partition — singletons on
/// construction, the term-sparsity blocks after the refinement.
#[derive(Debug)]
pub(crate) struct TsGram<'a> {
    pub basis: &'a [Monomial],
    pub shifts: &'a [Monomial],
    pub classes: Vec<Vec<usize>>,
}

impl<'a> TsGram<'a> {
    pub(crate) fn new(basis: &'a [Monomial], shifts: &'a [Monomial]) -> Self {
        let classes = (0..basis.len()).map(|i| vec![i]).collect();
        TsGram {
            basis,
            shifts,
            classes,
        }
    }
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
/// extension fixed point. Partitions start from singletons and only ever
/// coarsen (the support grows monotonically), so termination is immediate.
/// Returns the splits made: a Gram left as `k` blocks counts `k − 1`.
///
/// Soundness: zeroing cross-block Gram entries restricts the feasible set —
/// any block-feasible solution assembles into a feasible block-diagonal
/// Gram for the original constraint. Like support-driven multiplier bases
/// the restriction can lose certificates; a failed answer on a split
/// program is therefore re-solved unreduced (see [`Reduction::fallback`]).
///
/// Sign symmetry needs no layer of its own: when the seed and the shifts
/// are invariant under a sign flip `xᵢ ↦ (−1)^{sᵢ} xᵢ`, every monomial in
/// `B` is, so no edge joins basis monomials the flip tells apart and the
/// blocks refine the flip's signature classes (Wang–Magron–Lasserre,
/// *SIAM J. Optim.* 31, 2021). Where a free polynomial's basis puts odd
/// monomials in the seed, blocks can cross those classes.
pub(crate) fn refine_by_term_sparsity(
    seed: &BTreeSet<Monomial>,
    grams: &mut [TsGram<'_>],
) -> usize {
    // B₀ = fixed support ∪ every diagonal row every Gram can produce.
    let mut support: BTreeSet<Monomial> = seed.clone();
    for g in grams.iter() {
        for m in g.basis {
            let sq = m.mul(m);
            for s in g.shifts {
                support.insert(sq.mul(s));
            }
        }
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
                        for s in g.shifts {
                            support.insert(prod.mul(s));
                        }
                    }
                }
            }
        }
        if !changed {
            return grams
                .iter()
                .map(|g| g.classes.len().saturating_sub(1))
                .sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_poly::monomials_up_to;

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
            term_sparsity_blocks: 2,
        });
        s.accumulate(&ReductionStats {
            grams: 1,
            basis_before: 5,
            basis_after: 5,
            blocks: 1,
            max_block: 5,
            newton_dropped: 0,
            term_sparsity_blocks: 0,
        });
        assert_eq!(s.grams, 3);
        assert_eq!(s.basis_before, 15);
        assert_eq!(s.basis_after, 12);
        assert_eq!(s.blocks, 5);
        assert_eq!(s.max_block, 5);
        assert_eq!(s.newton_dropped, 3);
        assert_eq!(s.term_sparsity_blocks, 2);
        assert!(s.is_reduced());
        assert_eq!(s.to_string(), "3 grams, basis 15→12, 5 blocks (max dim 5)");
        assert_eq!(
            s.detail().unwrap(),
            "newton −3 monomials, term-sparsity +2 blocks"
        );
        assert!(ReductionStats::default().detail().is_none());
        // Journals store these stats; those written before the newer
        // counters existed still decode.
        let back = ReductionStats::from_json(&parse(&s.to_json().to_compact_string()).unwrap());
        assert_eq!(back.unwrap(), s);
        let old = r#"{"grams":1,"basis_before":2,"basis_after":2,"blocks":1,"max_block":2}"#;
        let old = ReductionStats::from_json(&parse(old).unwrap()).unwrap();
        assert_eq!((old.newton_dropped, old.term_sparsity_blocks), (0, 0));
        // Journals written while the multiplier re-pruning pass existed
        // carry its cache counter; they still decode, without it.
        let with_cache = r#"{"grams":3,"basis_before":15,"basis_after":12,"blocks":5,"max_block":5,"newton_dropped":3,"symmetry_blocks":2,"term_sparsity_blocks":2,"mult_cache_hits":68}"#;
        let with_cache = ReductionStats::from_json(&parse(with_cache).unwrap()).unwrap();
        assert_eq!(with_cache, s);
        // Journals written while sign-symmetry splitting existed carry its
        // block count and the term-sparsity merges that undid it; they
        // still decode, without both.
        let with_symmetry = r#"{"grams":3,"basis_before":15,"basis_after":12,"blocks":5,"max_block":5,"newton_dropped":3,"symmetry_blocks":2,"term_sparsity_blocks":2,"term_sparsity_merges":1}"#;
        let with_symmetry = ReductionStats::from_json(&parse(with_symmetry).unwrap()).unwrap();
        assert_eq!(with_symmetry, s);
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
        // Target support {x⁴, y⁴, 1} over basis {1, x, y, x², xy, y²}. B₀ adds
        // the diagonal squares {1, x², y², x⁴, x²y², y⁴}. Edge (1, x²): product
        // x² ∈ B — connected; likewise (1, y²). Edge (1, x): x ∉ B. Edge
        // (x, y): xy ∉ B, and no product with xy but its own square lands
        // in B. Components: {1, x², y²}, {x}, {y}, {xy}.
        let basis = monomials_up_to(2, 2);
        let seed: BTreeSet<Monomial> = [mono(&[4, 0]), mono(&[0, 4]), mono(&[0, 0])]
            .into_iter()
            .collect();
        let one = [mono(&[0, 0])];
        let mut grams = [TsGram::new(&basis, &one)];
        let splits = refine_by_term_sparsity(&seed, &mut grams);
        let classes = &grams[0].classes;
        assert_eq!(splits, classes.len() - 1);
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
        // Support {x², xy} over basis {1, x, y}: B₀ = {x², xy} ∪ {1, x², y²}.
        // Edges: (1, x): x ∉ B. (1, y): y ∉ B. (x, y): xy ∈ B. So blocks
        // {x, y}, {1}; the extension adds nothing that reaches 1 — stable.
        let basis = monomials_up_to(2, 1);
        let seed: BTreeSet<Monomial> = [mono(&[2, 0]), mono(&[1, 1])].into_iter().collect();
        let one = [mono(&[0, 0])];
        let mut grams = [TsGram::new(&basis, &one)];
        assert_eq!(refine_by_term_sparsity(&seed, &mut grams), 1);
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
        // An even seed is invariant under both flips x ↦ −x and y ↦ −y, so
        // no block joins basis monomials of different parity: the blocks
        // refine the signature classes {1, x², y²} / {x} / {y} / {xy}.
        let basis = monomials_up_to(2, 2);
        let parity = |m: &Monomial| m.exps().iter().map(|e| e % 2).collect::<Vec<_>>();
        let seed: BTreeSet<Monomial> = [mono(&[0, 0]), mono(&[4, 0]), mono(&[0, 4])]
            .into_iter()
            .collect();
        let one = [mono(&[0, 0])];
        let mut grams = [TsGram::new(&basis, &one)];
        refine_by_term_sparsity(&seed, &mut grams);
        assert!(grams[0].classes.len() >= 4, "{:?}", grams[0].classes);
        for c in &grams[0].classes {
            for &i in c {
                assert_eq!(parity(&basis[i]), parity(&basis[c[0]]), "cross-class block");
            }
        }
    }

    #[test]
    fn term_sparsity_joins_flip_classes_through_an_odd_seed_monomial() {
        // Basis {1, x} with x ↦ −x telling 1 and x apart. A seed holding the
        // odd monomial x (a free polynomial's declared basis reaches it)
        // puts the product 1·x in the support, so term sparsity keeps the
        // two in one block.
        let basis = monomials_up_to(1, 1);
        let seed: BTreeSet<Monomial> = [mono(&[1])].into_iter().collect();
        let one = [mono(&[0])];
        let mut grams = [TsGram::new(&basis, &one)];
        assert_eq!(refine_by_term_sparsity(&seed, &mut grams), 0);
        assert_eq!(grams[0].classes, vec![vec![0, 1]]);
    }

    #[test]
    fn term_sparsity_counts_splits_per_gram() {
        // Two Grams refined jointly: each one's blocks beyond its first
        // count as splits, and an empty basis counts for nothing.
        let basis = monomials_up_to(2, 1);
        let empty: Vec<Monomial> = Vec::new();
        let seed: BTreeSet<Monomial> = [mono(&[2, 0]), mono(&[1, 1])].into_iter().collect();
        let one = [mono(&[0, 0])];
        let mut grams = [
            TsGram::new(&basis, &one),
            TsGram::new(&basis, &one),
            TsGram::new(&empty, &one),
        ];
        assert_eq!(refine_by_term_sparsity(&seed, &mut grams), 2);
        assert!(grams[2].classes.is_empty());
    }
}
