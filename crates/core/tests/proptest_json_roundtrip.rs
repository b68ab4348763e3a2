//! Property-based tests for the checkpoint journal's serialisation layer:
//! every `f64` that enters a journal record must come back **bit-identical**
//! (`to_bits` equality, not `==` — the sign of `-0.0` and denormals count),
//! and non-finite values must be rejected at decode time rather than
//! silently corrupting a resumed run.

use cppll_json::{FromJson, ToJson};
use cppll_linalg::Matrix;
use cppll_poly::Polynomial;
use cppll_sdp::{SdpSolution, SdpStatus};
use proptest::prelude::*;

/// Reinterprets raw generator bits as an `f64`, skewing a slice of the
/// space onto the interesting cases (−0.0 and denormals) that plain range
/// strategies never produce.
fn f64_from_bits(bits: u64) -> f64 {
    match bits % 8 {
        0 => -0.0,
        1 => f64::from_bits(bits | 1), // force odd mantissas (denormals incl.)
        _ => f64::from_bits(bits),
    }
}

fn finite_values(bits: &[u64]) -> Option<Vec<f64>> {
    let vals: Vec<f64> = bits.iter().map(|&b| f64_from_bits(b)).collect();
    vals.iter().all(|v| v.is_finite()).then_some(vals)
}

fn bits_of(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn polynomial_roundtrips_bit_identically(
        nvars in 1usize..4,
        exps in prop::collection::vec(0u32..5, 12),
        coeff_bits in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        let Some(coeffs) = finite_values(&coeff_bits) else {
            prop_assume!(false);
            unreachable!();
        };
        let terms: Vec<(Vec<u32>, f64)> = coeffs
            .iter()
            .enumerate()
            .map(|(i, &c)| (exps[i * nvars..(i + 1) * nvars].to_vec(), c))
            .collect();
        let borrowed: Vec<(&[u32], f64)> =
            terms.iter().map(|(e, c)| (e.as_slice(), *c)).collect();
        let p = Polynomial::from_terms(nvars, &borrowed);

        let text = p.to_json().to_compact_string();
        let back = Polynomial::from_json(&cppll_json::parse(&text).unwrap()).unwrap();

        prop_assert_eq!(back.nvars(), p.nvars());
        let a: Vec<(Vec<u32>, u64)> = p
            .terms()
            .map(|(m, c)| (m.exps().to_vec(), c.to_bits()))
            .collect();
        let b: Vec<(Vec<u32>, u64)> = back
            .terms()
            .map(|(m, c)| (m.exps().to_vec(), c.to_bits()))
            .collect();
        prop_assert_eq!(a, b);
        // Serialise→parse→serialise is a fixpoint: canonical text is stable.
        prop_assert_eq!(back.to_json().to_compact_string(), text);
    }

    #[test]
    fn matrix_roundtrips_bit_identically(
        nrows in 1usize..5,
        ncols in 1usize..5,
        entry_bits in prop::collection::vec(0u64..u64::MAX, 16),
    ) {
        let Some(vals) = finite_values(&entry_bits[..nrows * ncols]) else {
            prop_assume!(false);
            unreachable!();
        };
        let m = Matrix::from_col_major(nrows, ncols, vals);

        let text = m.to_json().to_compact_string();
        let back = Matrix::from_json(&cppll_json::parse(&text).unwrap()).unwrap();

        prop_assert_eq!(back.nrows(), m.nrows());
        prop_assert_eq!(back.ncols(), m.ncols());
        prop_assert_eq!(bits_of(back.as_slice()), bits_of(m.as_slice()));
        prop_assert_eq!(back.to_json().to_compact_string(), text);
    }

    #[test]
    fn sdp_solution_roundtrips_bit_identically(
        status_idx in 0usize..7,
        n in 1usize..4,
        block_bits in prop::collection::vec(0u64..u64::MAX, 18),
        vec_bits in prop::collection::vec(0u64..u64::MAX, 6),
        scalar_bits in prop::collection::vec(0u64..u64::MAX, 5),
        iterations in 0usize..500,
        warm in prop::option::of(0u32..1),
    ) {
        let statuses = [
            SdpStatus::Optimal,
            SdpStatus::NearOptimal,
            SdpStatus::MaxIterations,
            SdpStatus::Stalled,
            SdpStatus::PrimalInfeasibleLikely,
            SdpStatus::DualInfeasibleLikely,
            SdpStatus::DeadlineExceeded,
        ];
        let (Some(blocks), Some(vecs), Some(scalars)) = (
            finite_values(&block_bits[..2 * n * n]),
            finite_values(&vec_bits),
            finite_values(&scalar_bits),
        ) else {
            prop_assume!(false);
            unreachable!();
        };
        let sol = SdpSolution {
            status: statuses[status_idx],
            x: vec![Matrix::from_col_major(n, n, blocks[..n * n].to_vec())],
            free: vecs[..3].to_vec(),
            y: vecs[3..].to_vec(),
            s: vec![Matrix::from_col_major(n, n, blocks[n * n..].to_vec())],
            primal_objective: scalars[0],
            dual_objective: scalars[1],
            primal_infeasibility: scalars[2],
            dual_infeasibility: scalars[3],
            gap: scalars[4],
            iterations,
            warm_started: warm.is_some(),
        };

        let text = sol.to_json().to_compact_string();
        let back = SdpSolution::from_json(&cppll_json::parse(&text).unwrap()).unwrap();

        prop_assert_eq!(back.status, sol.status);
        prop_assert_eq!(back.iterations, sol.iterations);
        prop_assert_eq!(back.warm_started, sol.warm_started);
        prop_assert_eq!(bits_of(back.x[0].as_slice()), bits_of(sol.x[0].as_slice()));
        prop_assert_eq!(bits_of(back.s[0].as_slice()), bits_of(sol.s[0].as_slice()));
        prop_assert_eq!(bits_of(&back.free), bits_of(&sol.free));
        prop_assert_eq!(bits_of(&back.y), bits_of(&sol.y));
        prop_assert_eq!(
            bits_of(&[
                back.primal_objective,
                back.dual_objective,
                back.primal_infeasibility,
                back.dual_infeasibility,
                back.gap
            ]),
            bits_of(&scalars)
        );
        prop_assert_eq!(back.to_json().to_compact_string(), text);
    }
}

#[test]
fn non_finite_values_are_rejected_on_decode() {
    // NaN / Inf serialise to `null` (JSON has no non-finite literals), and
    // the decoder refuses them anywhere an f64 is expected — a journal can
    // never smuggle a non-finite number into a resumed pipeline.
    use cppll_json::Value;
    assert_eq!(Value::Number(f64::NAN).to_compact_string(), "null");
    assert_eq!(Value::Number(f64::INFINITY).to_compact_string(), "null");

    let poly = r#"{"nvars":1,"terms":[[[2],null]]}"#;
    assert!(Polynomial::from_json(&cppll_json::parse(poly).unwrap()).is_err());

    let matrix = r#"{"nrows":1,"ncols":2,"data":[1.5,null]}"#;
    assert!(Matrix::from_json(&cppll_json::parse(matrix).unwrap()).is_err());

    let mut sol_json = SdpSolution {
        status: SdpStatus::Optimal,
        x: vec![Matrix::from_col_major(1, 1, vec![1.0])],
        free: vec![],
        y: vec![0.25],
        s: vec![Matrix::from_col_major(1, 1, vec![2.0])],
        primal_objective: 1.0,
        dual_objective: 1.0,
        primal_infeasibility: 0.0,
        dual_infeasibility: 0.0,
        gap: f64::NAN,
        iterations: 3,
        warm_started: false,
    }
    .to_json()
    .to_compact_string();
    assert!(sol_json.contains("\"gap\":null"), "{sol_json}");
    assert!(SdpSolution::from_json(&cppll_json::parse(&sol_json).unwrap()).is_err());
    // The same document with a finite gap decodes fine.
    sol_json = sol_json.replace("\"gap\":null", "\"gap\":0.125");
    let back = SdpSolution::from_json(&cppll_json::parse(&sol_json).unwrap()).unwrap();
    assert_eq!(back.gap.to_bits(), 0.125f64.to_bits());
}
