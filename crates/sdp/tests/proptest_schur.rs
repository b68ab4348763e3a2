//! Property-based tests for the Schur-complement assembly: bit identity of
//! the lane-major assembly with the dense pre-sparsity oracle, plus
//! agreement with a dense O(m²n³) reference to 1e-12.

use cppll_linalg::Matrix;
use cppll_sdp::{assemble_schur_dense_for_tests, assemble_schur_for_tests, SdpProblem, SymSparse};
use proptest::prelude::*;

/// Random two-block SDP skeleton plus dense mirrors of its constraint
/// matrices, built from flat seed pools (the vendored proptest stub has no
/// flat_map, so sizes come in as separate draws and index into the pools).
struct RandomSchur {
    p: SdpProblem,
    /// `dense[i][j]` = dense symmetric `A_{ij}` (zero matrix when absent).
    dense: Vec<Vec<Matrix>>,
    dims: Vec<usize>,
    m: usize,
}

fn build_random(dims: &[usize], m: usize, pool: &[f64]) -> RandomSchur {
    build_random_thresh(dims, m, pool, 0.5)
}

/// Like [`build_random`] but keeping only pool draws with `|v| >= thresh`,
/// so high thresholds produce very sparse constraints — empty constraint
/// blocks, sparse supports, late first nonzero rows.
fn build_random_thresh(dims: &[usize], m: usize, pool: &[f64], thresh: f64) -> RandomSchur {
    let mut p = SdpProblem::new();
    let blocks: Vec<_> = dims.iter().map(|&n| p.add_psd_block(n)).collect();
    for bj in &blocks {
        p.set_block_cost_identity(*bj, 1.0);
    }
    let mut dense = vec![Vec::new(); m];
    let mut cursor = 0usize;
    let mut next = || {
        let v = pool[cursor % pool.len()];
        cursor += 1;
        v
    };
    for (i, row) in dense.iter_mut().enumerate() {
        let c = p.add_constraint(1.0 + i as f64);
        for (j, &n) in dims.iter().enumerate() {
            let mut a = Matrix::zeros(n, n);
            // ~half the upper-triangle entries, mirroring SymSparse::add.
            for r in 0..n {
                for s in r..n {
                    let v = next();
                    if v.abs() < thresh {
                        continue;
                    }
                    p.set_entry(c, blocks[j], r, s, v);
                    a[(r, s)] += v;
                    if r != s {
                        a[(s, r)] += v;
                    }
                }
            }
            row.push(a);
        }
    }
    RandomSchur {
        p,
        dense,
        dims: dims.to_vec(),
        m,
    }
}

/// An SPD matrix `B Bᵀ + n·I` drawn from a flat pool at `offset`.
fn spd(n: usize, pool: &[f64], offset: usize) -> Matrix {
    let data: Vec<f64> = (0..n * n)
        .map(|k| pool[(offset + k) % pool.len()])
        .collect();
    let b = Matrix::from_col_major(n, n, data);
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Dense reference: `M_{ik} = Σⱼ tr(A_{ij} · Sⱼ⁻¹ A_{kj} Xⱼ)`.
fn dense_schur(rs: &RandomSchur, x: &[Matrix], s_inv: &[Matrix]) -> Matrix {
    let mut out = Matrix::zeros(rs.m, rs.m);
    for i in 0..rs.m {
        for k in 0..rs.m {
            let mut acc = 0.0;
            for j in 0..rs.dims.len() {
                let t = s_inv[j].matmul(&rs.dense[k][j]).matmul(&x[j]);
                acc += rs.dense[i][j].matmul(&t).trace();
            }
            out[(i, k)] = acc;
        }
    }
    out
}

/// A structured problem for the lane-major Schur path: `m` constraints on
/// one `n`-dimensional block, plus a 2×2 block touched by constraint 0
/// only (a single-constraint block). Constraint `i`'s entries start at row
/// `i % n`, so lanes of one sub-panel have different first rows; column
/// `dead` is in no support, so the block has an inactive column. Entries
/// come from `pool`, kept when `|v| >= 0.4`; every constraint keeps at
/// least its leading diagonal entry.
fn structured(n: usize, m: usize, dead: Option<usize>, pool: &[f64]) -> SdpProblem {
    let mut p = SdpProblem::new();
    let big = p.add_psd_block(n);
    let single = p.add_psd_block(2);
    p.set_block_cost_identity(big, 1.0);
    p.set_block_cost_identity(single, 1.0);
    let mut cursor = 0usize;
    let mut next = || {
        let v = pool[cursor % pool.len()];
        cursor += 1;
        v
    };
    for i in 0..m {
        let c = p.add_constraint(1.0 + i as f64);
        let live = |r: usize| Some(r) != dead;
        let first = (i % n..n).chain(0..n).find(|&r| live(r)).unwrap_or(0);
        p.set_entry(c, big, first, first, 1.5 + next());
        for r in first..n {
            for t in r..n {
                let v = next();
                if live(r) && live(t) && v.abs() >= 0.4 && (r, t) != (first, first) {
                    p.set_entry(c, big, r, t, v);
                }
            }
        }
        if i == 0 {
            p.set_entry(c, single, 0, 1, 0.75);
            p.set_entry(c, single, 1, 1, -1.25);
        }
    }
    p
}

/// Asserts the lane-major assembly equals the dense oracle bit for bit.
fn assert_structured_matches_oracle(
    n: usize,
    m: usize,
    dead: Option<usize>,
    pool: &[f64],
    spd_pool: &[f64],
) {
    let p = structured(n, m, dead, pool);
    let x = [spd(n, spd_pool, 3), spd(2, spd_pool, 11)];
    let s = [spd(n, spd_pool, 29), spd(2, spd_pool, 41)];
    let want = assemble_schur_dense_for_tests(&p, &x, &s);
    let got = assemble_schur_for_tests(&p, &x, &s);
    assert!(
        bits_equal(&got, &want),
        "lane-major assembly differs from the dense oracle: n={n} m={m} dead={dead:?}"
    );
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn schur_matches_dense_reference(
        pool in prop::collection::vec(-1.0f64..1.0, 256),
        spd_pool in prop::collection::vec(-1.0f64..1.0, 128),
        n1 in 2usize..6,
        n2 in 1usize..5,
        m in 1usize..7,
    ) {
        let dims = [n1, n2];
        let rs = build_random(&dims, m, &pool);
        let x: Vec<Matrix> = dims.iter().enumerate()
            .map(|(j, &n)| spd(n, &spd_pool, 17 * j)).collect();
        let s: Vec<Matrix> = dims.iter().enumerate()
            .map(|(j, &n)| spd(n, &spd_pool, 31 * j + 7)).collect();
        let s_inv: Vec<Matrix> = s.iter().map(|sj| sj.cholesky().unwrap().inverse()).collect();

        let got = assemble_schur_for_tests(&rs.p, &x, &s);
        let want = dense_schur(&rs, &x, &s_inv);
        let scale = want.norm().max(1.0);
        for i in 0..m {
            for k in 0..m {
                prop_assert!((got[(i, k)] - want[(i, k)]).abs() <= 1e-12 * scale,
                    "M[{i}][{k}]: got {} want {}", got[(i, k)], want[(i, k)]);
            }
        }
        // The assembled Schur complement of an SPD-iterate SDP is symmetric.
        for i in 0..m {
            for k in 0..m {
                prop_assert!((got[(i, k)] - got[(k, i)]).abs() <= 1e-10 * scale);
            }
        }
    }

    #[test]
    fn sparse_schur_bit_identical_to_dense_reference(
        pool in prop::collection::vec(-1.0f64..1.0, 256),
        spd_pool in prop::collection::vec(-1.0f64..1.0, 128),
        n1 in 2usize..7,
        n2 in 1usize..6,
        m in 1usize..9,
        // Sweep sparsity from ~half-dense to nearly-empty constraints: the
        // symbolic analysis must stay value-neutral at every density.
        thresh in 0.3f64..0.95,
    ) {
        let dims = [n1, n2];
        let rs = build_random_thresh(&dims, m, &pool, thresh);
        let x: Vec<Matrix> = dims.iter().enumerate()
            .map(|(j, &n)| spd(n, &spd_pool, 17 * j)).collect();
        let s: Vec<Matrix> = dims.iter().enumerate()
            .map(|(j, &n)| spd(n, &spd_pool, 31 * j + 7)).collect();
        // The pre-sparsity assembly (full products, full-column solves) is
        // the oracle: the sparse path must reproduce it bit for bit, not
        // merely to tolerance.
        let want = assemble_schur_dense_for_tests(&rs.p, &x, &s);
        let got = assemble_schur_for_tests(&rs.p, &x, &s);
        prop_assert!(bits_equal(&got, &want),
            "sparse assembly differs from dense reference (thresh {thresh})");
    }

    #[test]
    fn lane_major_schur_bit_identical_to_dense_reference(
        pool in prop::collection::vec(-1.0f64..1.0, 512),
        spd_pool in prop::collection::vec(-1.0f64..1.0, 128),
        n in 2usize..9,
        m in 1usize..180,
        dead in 0usize..12,
    ) {
        // Up to 179 constraints on one block: sub-panels of 1 to 256
        // columns, a short last sub-panel whenever the active count is not
        // a multiple of the sub-panel width, and (for dead < n) an inactive
        // column.
        let dead = (dead < n).then_some(dead);
        assert_structured_matches_oracle(n, m, dead, &pool, &spd_pool);
    }
}

/// The un-exercised `SymSparse` import above is deliberate — keep a direct
/// compile-time check that `dot_general` is part of the public surface the
/// Schur assembly relies on.
#[test]
fn dot_general_is_public_and_symmetric_consistent() {
    let mut a = SymSparse::new(2);
    a.add(0, 1, 2.0);
    a.normalize();
    let t = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    // tr(A·T) = Σ A_rc T_cr = 2·(T_10 + T_01) = 2·5.
    assert!((a.dot_general(&t) - 10.0).abs() < 1e-14);
}

/// Fixed shapes that pin each corner of the lane-major layout: a single
/// constraint; sub-panels of 3 columns ending in a 1- or 2-column
/// remainder; sub-panels of 2 columns, aligned and not; width-one
/// sub-panels (more constraints than lanes); and inactive first, middle and
/// last columns.
#[test]
fn lane_major_schur_covers_layout_corners() {
    let pool: Vec<f64> = (0..509)
        .map(|k| ((k * 7919 % 509) as f64 / 254.5) - 1.0)
        .collect();
    let spd_pool: Vec<f64> = (0..127)
        .map(|k| ((k * 61 % 127) as f64 / 63.5) - 1.0)
        .collect();
    for (n, m, dead) in [
        (1, 1, None),
        (3, 1, Some(1)),
        (4, 2, None),
        (7, 70, None),
        (6, 70, Some(5)),
        (5, 100, None),
        (5, 100, Some(0)),
        (6, 130, Some(2)),
        (4, 300, None),
    ] {
        assert_structured_matches_oracle(n, m, dead, &pool, &spd_pool);
    }
}
