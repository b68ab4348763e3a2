//! Newton-polytope pruning of Gram-matrix monomial bases.
//!
//! If `p = zᵀQz` is a sum of squares `p = Σᵢ qᵢ²`, a classical result of
//! Reznick says every `qᵢ` has its support inside **half** the Newton
//! polytope of `p`: `supp(qᵢ) ⊆ ½·New(p)` where `New(p) = conv(supp(p))`.
//! A Gram basis monomial `m` with `2m ∉ New(p)` therefore never appears in
//! any SOS decomposition of `p` and can be deleted from the basis without
//! losing certificates. When only a superset `S ⊇ supp(p)` of the support
//! is known (the target contains decision coefficients), `New(p) ⊆ conv(S)`
//! and the same filter against `conv(S)` remains sound.
//!
//! Exactness: exponents are small non-negative integers (`u32`), so for one
//! and two variables the polytope is computed as an exact integer convex
//! hull and membership of `2m` is decided with `i128` cross products — no
//! rounding. For three or more variables membership is decided by an exact
//! rational phase-1 simplex over the convex-combination system
//! `Σλᵢsᵢ = 2m, Σλᵢ = 1, λ ≥ 0` (Bland's rule, `i128` fractions) — still no
//! floating point. Only when the support is too large for the LP to be
//! worthwhile (or a fraction would overflow `i128`, which small exponent
//! data never does in practice) does the test fall back to a conservative
//! outer approximation — the per-variable exponent box and the total-degree
//! slab, every facet of which is a valid half-plane containing `conv(S)`.
//! An outer approximation can only keep *extra* monomials, never drop a
//! needed one, so the fallback is sound in every dimension.
//!
//! [`prune_gram_basis`] additionally runs the diagonal-consistency
//! iteration: if `x^{2m}` is not in `S` and no other surviving pair of
//! basis monomials multiplies to `x^{2m}`, the diagonal entry `Q_{mm}` is
//! forced to zero by the coefficient equations, and positive
//! semidefiniteness then zeroes the whole row and column — `m` can go, and
//! its removal may strand further monomials, so the rule iterates to a
//! fixed point.

use std::collections::BTreeSet;

use crate::Monomial;

/// Outer approximation of the convex hull of a set of exponent vectors,
/// exact for one and two variables.
///
/// # Examples
///
/// ```
/// use cppll_poly::{Monomial, NewtonPolytope};
///
/// // Motzkin polynomial support: x⁴y², x²y⁴, x²y², 1.
/// let support: Vec<Monomial> = [[4u32, 2], [2, 4], [2, 2], [0, 0]]
///     .iter()
///     .map(|e| Monomial::new(e.to_vec()))
///     .collect();
/// let np = NewtonPolytope::of_support(2, &support);
/// // xy is in the half polytope, x is not.
/// assert!(np.contains_doubled(&Monomial::new(vec![1, 1])));
/// assert!(!np.contains_doubled(&Monomial::new(vec![1, 0])));
/// ```
#[derive(Debug, Clone)]
pub struct NewtonPolytope {
    nvars: usize,
    /// Exact hull vertices in counter-clockwise order (`nvars == 2` only;
    /// for `nvars <= 1` the box bounds are already exact).
    hull: Option<Vec<[i64; 2]>>,
    /// Deduplicated support points for the exact LP membership test
    /// (`nvars >= 3`, support small enough — see [`LP_SUPPORT_LIMIT`]).
    points: Vec<Vec<i64>>,
    min_exp: Vec<u32>,
    max_exp: Vec<u32>,
    min_total: u32,
    max_total: u32,
    /// An empty support set spans no polytope: it contains nothing.
    empty: bool,
}

/// Above this many distinct support points the per-monomial LP membership
/// test is skipped in favour of the box-and-slab outer approximation. The
/// verification pipeline's supports are a few dozen to a few hundred points;
/// the limit exists so pathological dense supports stay cheap.
const LP_SUPPORT_LIMIT: usize = 1024;

impl NewtonPolytope {
    /// Builds the polytope of a support set (exponent vectors of the
    /// monomials that may appear in the target polynomial).
    pub fn of_support<'a, I>(nvars: usize, support: I) -> Self
    where
        I: IntoIterator<Item = &'a Monomial>,
    {
        let mut min_exp = vec![u32::MAX; nvars];
        let mut max_exp = vec![0u32; nvars];
        let mut min_total = u32::MAX;
        let mut max_total = 0u32;
        let mut points2: Vec<[i64; 2]> = Vec::new();
        let mut points: Vec<Vec<i64>> = Vec::new();
        let mut empty = true;
        for m in support {
            empty = false;
            let d = m.degree();
            min_total = min_total.min(d);
            max_total = max_total.max(d);
            for (i, bound) in min_exp.iter_mut().enumerate() {
                *bound = (*bound).min(m.exp(i));
            }
            for (i, bound) in max_exp.iter_mut().enumerate() {
                *bound = (*bound).max(m.exp(i));
            }
            if nvars == 2 {
                points2.push([m.exp(0) as i64, m.exp(1) as i64]);
            } else if nvars >= 3 {
                points.push((0..nvars).map(|i| m.exp(i) as i64).collect());
            }
        }
        if empty {
            min_exp = vec![0; nvars];
            min_total = 0;
        }
        let hull = (nvars == 2 && !empty).then(|| convex_hull(&mut points2));
        points.sort_unstable();
        points.dedup();
        if points.len() > LP_SUPPORT_LIMIT {
            points.clear(); // Too big for the LP: box-and-slab only.
        }
        NewtonPolytope {
            nvars,
            hull,
            points,
            min_exp,
            max_exp,
            min_total,
            max_total,
            empty,
        }
    }

    /// Is the doubled exponent vector `2·m` inside the polytope?
    pub fn contains_doubled(&self, m: &Monomial) -> bool {
        let p: Vec<i64> = (0..self.nvars).map(|i| 2 * m.exp(i) as i64).collect();
        self.contains_point(&p)
    }

    /// Is the shifted doubled exponent vector `2·m + α` inside the polytope?
    /// This is the membership test behind support-driven multiplier bases:
    /// a multiplier basis monomial `m` paired with guard monomial `α`
    /// contributes coefficient rows only at `2m + α` (diagonal) and
    /// `m + m' + α` (off-diagonal), so `2m + α` outside the target polytope
    /// means the diagonal entry can never carry target mass.
    pub fn contains_shifted_doubled(&self, m: &Monomial, shift: &Monomial) -> bool {
        let p: Vec<i64> = (0..self.nvars)
            .map(|i| 2 * m.exp(i) as i64 + shift.exp(i) as i64)
            .collect();
        self.contains_point(&p)
    }

    /// Is an arbitrary integer exponent point inside the polytope? Uses the
    /// same exactness ladder as [`NewtonPolytope::contains_doubled`]: exact
    /// integer hull for two variables, exact rational LP for three or more,
    /// box-and-slab outer approximation as the sound fallback.
    ///
    /// # Panics
    ///
    /// Panics if `p.len()` differs from the polytope's variable count.
    pub fn contains_point(&self, p: &[i64]) -> bool {
        assert_eq!(p.len(), self.nvars, "point dimension mismatch");
        if self.empty {
            return false;
        }
        let total: i64 = p.iter().sum();
        if total < self.min_total as i64 || total > self.max_total as i64 {
            return false;
        }
        for (i, &pi) in p.iter().enumerate() {
            if pi < self.min_exp[i] as i64 || pi > self.max_exp[i] as i64 {
                return false;
            }
        }
        match &self.hull {
            Some(hull) => hull_contains(hull, [p[0], p[1]]),
            None if !self.points.is_empty() => {
                // Fast path: `p` is itself a support point (the common case
                // on dense supports) — trivially inside, no LP needed.
                if self.points.binary_search(&p.to_vec()).is_ok() {
                    return true;
                }
                // `None` means the exact LP hit an `i128` overflow — keep
                // the point (outer-approximation semantics: sound).
                point_in_hull_lp(&self.points, p).unwrap_or(true)
            }
            None => true,
        }
    }
}

// ---------------------------------------------------------------------------
// Exact rational LP membership (dimension ≥ 3)
// ---------------------------------------------------------------------------

/// Reduced `i128` fraction. All operations are overflow-checked: `None`
/// propagates to the caller, which then *keeps* the monomial (the sound
/// direction). With exponent data (small non-negative integers) overflow
/// does not occur in practice; the checks are a guarantee, not a code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frac {
    num: i128,
    den: i128, // > 0
}

impl Frac {
    fn new(num: i128, den: i128) -> Option<Frac> {
        if den == 0 {
            return None;
        }
        let (num, den) = if den < 0 {
            (num.checked_neg()?, den.checked_neg()?)
        } else {
            (num, den)
        };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs()).max(1);
        Some(Frac {
            num: num / g as i128,
            den: den / g as i128,
        })
    }

    fn int(v: i128) -> Frac {
        Frac { num: v, den: 1 }
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    fn is_neg(self) -> bool {
        self.num < 0
    }

    fn is_pos(self) -> bool {
        self.num > 0
    }

    fn sub(self, rhs: Frac) -> Option<Frac> {
        Frac::new(
            self.num
                .checked_mul(rhs.den)?
                .checked_sub(rhs.num.checked_mul(self.den)?)?,
            self.den.checked_mul(rhs.den)?,
        )
    }

    fn mul(self, rhs: Frac) -> Option<Frac> {
        Frac::new(
            self.num.checked_mul(rhs.num)?,
            self.den.checked_mul(rhs.den)?,
        )
    }

    fn div(self, rhs: Frac) -> Option<Frac> {
        if rhs.num == 0 {
            return None;
        }
        Frac::new(
            self.num.checked_mul(rhs.den)?,
            self.den.checked_mul(rhs.num)?,
        )
    }

    /// `self < rhs` (exact cross-multiplication compare).
    fn lt(self, rhs: Frac) -> Option<bool> {
        Some(self.num.checked_mul(rhs.den)? < rhs.num.checked_mul(self.den)?)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Is `p` a convex combination of `points`? Decided exactly by a phase-1
/// simplex on `Σλᵢsᵢ = p, Σλᵢ = 1, λ ≥ 0` with one artificial variable per
/// row and Bland's anti-cycling rule: the combination exists iff the
/// artificials can be driven to zero. Returns `None` if an intermediate
/// fraction would overflow `i128` (callers treat that as "maybe inside").
fn point_in_hull_lp(points: &[Vec<i64>], p: &[i64]) -> Option<bool> {
    let d = p.len();
    let m = d + 1; // equality rows: one per coordinate + the Σλ = 1 row
    let n = points.len();
    // Tableau in canonical form w.r.t. the artificial basis: rows [A | b].
    // Artificial columns are implicit — column `n + i` is the i-th unit
    // vector, tracked through `basis` instead of stored.
    let mut rows: Vec<Vec<Frac>> = (0..m)
        .map(|i| {
            let mut r: Vec<Frac> = (0..n)
                .map(|j| Frac::int(if i < d { i128::from(points[j][i]) } else { 1 }))
                .collect();
            r.push(Frac::int(if i < d { i128::from(p[i]) } else { 1 }));
            r
        })
        .collect();
    let mut basis: Vec<usize> = (n..n + m).collect();
    // b ≥ 0 holds by construction (exponents are non-negative), so the
    // artificial basis is primal feasible from the start.
    loop {
        // Reduced cost of real column j under phase-1 costs (1 on
        // artificials, 0 on real columns): −Σ{rows i with artificial basis}.
        let mut red = vec![Frac::int(0); n];
        for (row, &b) in rows.iter().zip(&basis) {
            if b >= n {
                for (rc, v) in red.iter_mut().zip(&row[..n]) {
                    *rc = rc.sub(*v)?;
                }
            }
        }
        // Bland: first improving column.
        let entering = red.iter().position(|r| r.is_neg());
        let Some(j) = entering else {
            // Optimal: feasible iff every artificial still basic sits at 0.
            let objective_zero = (0..m).all(|i| basis[i] < n || rows[i][n].is_zero());
            return Some(objective_zero);
        };
        // Ratio test (Bland tie-break: smallest basis index).
        let mut leave: Option<(usize, Frac)> = None;
        for i in 0..m {
            if !rows[i][j].is_pos() {
                continue;
            }
            let ratio = rows[i][n].div(rows[i][j])?;
            let better = match &leave {
                None => true,
                Some((li, best)) => ratio.lt(*best)? || (ratio == *best && basis[i] < basis[*li]),
            };
            if better {
                leave = Some((i, ratio));
            }
        }
        // Phase-1 objective is bounded below by 0, so a pivot column always
        // has a positive entry; defend anyway.
        let Some((r, _)) = leave else {
            return Some(false);
        };
        // Pivot on (r, j).
        let piv = rows[r][j];
        for v in rows[r].iter_mut() {
            *v = v.div(piv)?;
        }
        let pivot_row = rows[r].clone();
        for (i, row) in rows.iter_mut().enumerate() {
            if i == r || row[j].is_zero() {
                continue;
            }
            let factor = row[j];
            for (v, pv) in row.iter_mut().zip(&pivot_row) {
                *v = v.sub(factor.mul(*pv)?)?;
            }
        }
        basis[r] = j;
    }
}

/// Andrew's monotone chain on integer points; returns the hull in
/// counter-clockwise order with interior and collinear points removed.
fn convex_hull(points: &mut Vec<[i64; 2]>) -> Vec<[i64; 2]> {
    points.sort_unstable();
    points.dedup();
    let n = points.len();
    if n <= 2 {
        return points.clone();
    }
    // Lower and upper chains in separate vectors: a shared vector would let
    // the upper pass pop finished lower-hull vertices when a collinear point
    // sits on the bottom edge (e.g. (1,0) between (0,0) and (2,0)), silently
    // shrinking the hull.
    let mut lower: Vec<[i64; 2]> = Vec::with_capacity(n);
    for &p in points.iter() {
        while lower.len() >= 2 && cross(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<[i64; 2]> = Vec::with_capacity(n);
    for &p in points.iter().rev() {
        while upper.len() >= 2 && cross(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0 {
            upper.pop();
        }
        upper.push(p);
    }
    // Each chain ends where the other begins.
    lower.pop();
    upper.pop();
    lower.extend(upper);
    if lower.len() < 3 {
        // Fully collinear cloud: the chains degenerate; the hull is the
        // segment between the lexicographic extremes (sorted order is
        // monotone along a line).
        return vec![points[0], points[n - 1]];
    }
    lower
}

/// Cross product (b − a) × (c − a); positive means `c` lies strictly left
/// of the directed line a→b. Exponents fit in `u32`, so the products fit
/// comfortably in `i128` — the test is exact.
fn cross(a: [i64; 2], b: [i64; 2], c: [i64; 2]) -> i128 {
    let abx = (b[0] - a[0]) as i128;
    let aby = (b[1] - a[1]) as i128;
    let acx = (c[0] - a[0]) as i128;
    let acy = (c[1] - a[1]) as i128;
    abx * acy - aby * acx
}

fn hull_contains(hull: &[[i64; 2]], p: [i64; 2]) -> bool {
    match hull.len() {
        0 => false,
        1 => hull[0] == p,
        2 => {
            // Degenerate hull: the segment between the two points.
            let (a, b) = (hull[0], hull[1]);
            cross(a, b, p) == 0
                && p[0] >= a[0].min(b[0])
                && p[0] <= a[0].max(b[0])
                && p[1] >= a[1].min(b[1])
                && p[1] <= a[1].max(b[1])
        }
        n => (0..n).all(|i| cross(hull[i], hull[(i + 1) % n], p) >= 0),
    }
}

/// Prunes a Gram basis for a target polynomial with support contained in
/// `support`: first the Newton-polytope filter (`2m ∈ conv(support)`), then
/// the diagonal-consistency iteration described in the module docs. The
/// surviving monomials keep their original order.
///
/// # Examples
///
/// ```
/// use cppll_poly::{monomials_up_to, prune_gram_basis, Monomial};
///
/// // Motzkin polynomial: the degree-3 basis (10 monomials) shrinks to the
/// // classical four: 1, xy, x²y, xy².
/// let support: Vec<Monomial> = [[4u32, 2], [2, 4], [2, 2], [0, 0]]
///     .iter()
///     .map(|e| Monomial::new(e.to_vec()))
///     .collect();
/// let pruned = prune_gram_basis(&support, &monomials_up_to(2, 3));
/// assert_eq!(pruned.len(), 4);
/// ```
pub fn prune_gram_basis(support: &[Monomial], basis: &[Monomial]) -> Vec<Monomial> {
    let nvars = basis
        .first()
        .map(|m| m.exps().len())
        .or_else(|| support.first().map(|m| m.exps().len()))
        .unwrap_or(0);
    let np = NewtonPolytope::of_support(nvars, support.iter());
    let mut kept: Vec<Monomial> = basis
        .iter()
        .filter(|m| np.contains_doubled(m))
        .cloned()
        .collect();
    let support_set: BTreeSet<&Monomial> = support.iter().collect();
    loop {
        // Pairwise products of *distinct* surviving basis monomials; a
        // diagonal square x^{2m} must either carry a coefficient of the
        // target (2m ∈ support) or be cancellable by one of these.
        let mut pair_products: BTreeSet<Monomial> = BTreeSet::new();
        for (i, a) in kept.iter().enumerate() {
            for b in kept.iter().skip(i + 1) {
                pair_products.insert(a.mul(b));
            }
        }
        let survivors: Vec<Monomial> = kept
            .iter()
            .filter(|m| {
                let sq = m.mul(m);
                support_set.contains(&sq) || pair_products.contains(&sq)
            })
            .cloned()
            .collect();
        if survivors.len() == kept.len() {
            return survivors;
        }
        kept = survivors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomials_up_to;

    fn mono(exps: &[u32]) -> Monomial {
        Monomial::new(exps.to_vec())
    }

    #[test]
    fn univariate_interval_is_exact() {
        // p = x⁴ + 1: polytope [0, 4]; all of 1, x, x² stay under the hull
        // filter and the diagonal rule keeps x (1·x² cancels the square).
        let support = vec![mono(&[4]), mono(&[0])];
        let pruned = prune_gram_basis(&support, &monomials_up_to(1, 2));
        assert_eq!(pruned, vec![mono(&[0]), mono(&[1]), mono(&[2])]);
        // p = x⁴ + x²: the constant falls below min-degree, x and x² stay.
        let support = vec![mono(&[4]), mono(&[2])];
        let pruned = prune_gram_basis(&support, &monomials_up_to(1, 2));
        assert_eq!(pruned, vec![mono(&[1]), mono(&[2])]);
    }

    #[test]
    fn motzkin_basis_shrinks_to_classical_four() {
        let support = vec![mono(&[4, 2]), mono(&[2, 4]), mono(&[2, 2]), mono(&[0, 0])];
        let pruned = prune_gram_basis(&support, &monomials_up_to(2, 3));
        assert_eq!(
            pruned,
            vec![mono(&[0, 0]), mono(&[1, 1]), mono(&[1, 2]), mono(&[2, 1])]
        );
    }

    #[test]
    fn diagonal_rule_iterates_to_fixpoint() {
        // p = x⁶ + x: support {6, 1}. Hull keeps {x, x², x³} (2m ∈ [1, 6]).
        // No square 2, 4 or 6... x³ has 2m = 6 ∈ S, so x³ stays; x² has
        // 2m = 4 ∉ S but x·x³ = x⁴ ≠ x⁴? -- recompute: pairs from {x,x²,x³}
        // are x³, x⁴, x⁵. So x² (square x⁴) survives via x·x³; x (square
        // x²) needs a pair with product x², none exists → x goes. Then x²'s
        // square x⁴ needs x·x³ which lost x → x² goes. Only x³ remains.
        let support = vec![mono(&[6]), mono(&[1])];
        let pruned = prune_gram_basis(&support, &monomials_up_to(1, 3));
        assert_eq!(pruned, vec![mono(&[3])]);
    }

    #[test]
    fn three_vars_prunes_off_segment_monomials() {
        // 3 vars: p = x²y²z² + x²: the hull is the segment from (2,2,2) to
        // (2,0,0), so only xyz and x have doubled exponents on it.
        let support = vec![mono(&[2, 2, 2]), mono(&[2, 0, 0])];
        let pruned = prune_gram_basis(&support, &monomials_up_to(3, 3));
        assert_eq!(pruned, vec![mono(&[1, 0, 0]), mono(&[1, 1, 1])]);
        // Soundness: x²y²z² + x² = (xyz)² + x², both squares' roots present.
    }

    #[test]
    fn lp_membership_agrees_with_planar_hull() {
        // Embed a planar cloud as the z = 0 slice of a 3-var support and
        // check the LP decides membership exactly like the 2-D integer hull.
        let pts = [[0i64, 0], [6, 0], [0, 6], [2, 2], [4, 1], [1, 4], [3, 3]];
        let mut cloud: Vec<[i64; 2]> = pts.to_vec();
        let hull = convex_hull(&mut cloud);
        let lifted: Vec<Vec<i64>> = pts.iter().map(|p| vec![p[0], p[1], 0]).collect();
        for x in 0..=7i64 {
            for y in 0..=7i64 {
                let expect = hull_contains(&hull, [x, y]);
                let got = point_in_hull_lp(&lifted, &[x, y, 0]).expect("no overflow");
                assert_eq!(got, expect, "({x},{y})");
                // Off the plane nothing is inside.
                assert_eq!(point_in_hull_lp(&lifted, &[x, y, 1]), Some(false));
            }
        }
    }

    #[test]
    fn lp_membership_prunes_axis_heavy_monomials() {
        // Shape of the PLL decrease constraints (3 states w₁, w₂, e): the
        // support reaches degree 4 in w₁, w₂ but only degree 3 on the
        // e-axis. The degree envelope keeps e² in the Gram basis; the exact
        // polytope knows 2·e² = e⁴ is outside and prunes it.
        let support = [
            mono(&[0, 0, 0]),
            mono(&[4, 0, 0]),
            mono(&[0, 4, 0]),
            mono(&[2, 2, 0]),
            mono(&[0, 0, 3]),
            mono(&[1, 1, 1]),
            mono(&[2, 0, 1]),
        ];
        let np = NewtonPolytope::of_support(3, support.iter());
        assert!(np.contains_doubled(&mono(&[1, 1, 0])));
        assert!(np.contains_doubled(&mono(&[2, 0, 0])));
        // e itself stays: 2·e = e² lies on the axis segment [0, 3].
        assert!(np.contains_doubled(&mono(&[0, 0, 1])));
        assert!(
            !np.contains_doubled(&mono(&[0, 0, 2])),
            "e² must prune: e⁴ ∉ hull"
        );
    }

    #[test]
    fn empty_support_prunes_everything() {
        let pruned = prune_gram_basis(&[], &monomials_up_to(2, 2));
        assert!(pruned.is_empty());
    }

    #[test]
    fn hull_membership_matches_brute_force_halfplanes() {
        // Random-ish integer point clouds: hull membership must agree with
        // the definition "inside every edge half-plane".
        let pts = [[0i64, 0], [6, 0], [0, 6], [2, 2], [4, 1], [1, 4], [3, 3]];
        let mut cloud: Vec<[i64; 2]> = pts.to_vec();
        let hull = convex_hull(&mut cloud);
        assert_eq!(hull.len(), 3, "triangle hull expected: {hull:?}");
        for x in 0..=7i64 {
            for y in 0..=7i64 {
                let inside = hull_contains(&hull, [x, y]);
                let expect = x >= 0 && y >= 0 && x + y <= 6;
                assert_eq!(inside, expect, "({x},{y})");
            }
        }
    }

    #[test]
    fn contains_point_generalises_contains_doubled() {
        let support = [
            mono(&[0, 0, 0]),
            mono(&[4, 0, 0]),
            mono(&[0, 4, 0]),
            mono(&[2, 2, 0]),
            mono(&[0, 0, 3]),
            mono(&[1, 1, 1]),
            mono(&[2, 0, 1]),
        ];
        let np = NewtonPolytope::of_support(3, support.iter());
        for m in monomials_up_to(3, 2) {
            let p: Vec<i64> = (0..3).map(|i| 2 * m.exp(i) as i64).collect();
            assert_eq!(np.contains_doubled(&m), np.contains_point(&p), "{m}");
        }
        // Shifted membership: 2·(1,0,0) + (1,1,0) = (3,1,0) is inside the
        // w-plane quadrilateral; 2·(0,0,1) + (0,0,2) = e⁴ overshoots the
        // e-axis segment [0, 3].
        assert!(np.contains_shifted_doubled(&mono(&[1, 0, 0]), &mono(&[1, 1, 0])));
        assert!(!np.contains_shifted_doubled(&mono(&[0, 0, 1]), &mono(&[0, 0, 2])));
    }

    #[test]
    fn collinear_point_on_hull_edge_does_not_evict_vertices() {
        // (1,0) lies on the bottom edge (0,0)–(2,0): the upper-chain pass
        // must not pop the extreme vertex (2,0) out of the finished lower
        // chain. Regression test for the shared-vector monotone chain bug.
        let mut cloud = vec![[0i64, 0], [1, 0], [2, 0], [0, 2]];
        let hull = convex_hull(&mut cloud);
        assert_eq!(hull.len(), 3, "triangle expected: {hull:?}");
        for v in [[0i64, 0], [2, 0], [0, 2]] {
            assert!(hull_contains(&hull, v), "{v:?} must stay inside");
        }
        assert!(hull_contains(&hull, [1, 1]));
        assert!(!hull_contains(&hull, [2, 1]));
        // The membership consequence that surfaced the bug: x stays in the
        // Gram basis for support {1, x, x², y²}.
        let support = [mono(&[0, 0]), mono(&[1, 0]), mono(&[2, 0]), mono(&[0, 2])];
        let np = NewtonPolytope::of_support(2, support.iter());
        assert!(np.contains_doubled(&mono(&[1, 0])));
    }

    #[test]
    fn collinear_support_degenerates_to_segment() {
        // Support on a line: x⁴y² and x²y⁴ (and midpoint x³y³).
        let support = [mono(&[4, 2]), mono(&[2, 4]), mono(&[3, 3])];
        let np = NewtonPolytope::of_support(2, support.iter());
        assert!(np.contains_doubled(&mono(&[2, 1])));
        assert!(np.contains_doubled(&mono(&[1, 2])));
        assert!(!np.contains_doubled(&mono(&[2, 2])));
        assert!(!np.contains_doubled(&mono(&[1, 1])));
    }
}
