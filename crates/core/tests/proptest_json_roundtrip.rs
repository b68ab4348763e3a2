//! Property-based tests for the checkpoint journal's serialisation layer:
//! every `f64` that enters a journal record must come back **bit-identical**
//! (`to_bits` equality, not `==` — the sign of `-0.0` and denormals count),
//! and non-finite values must be rejected at decode time rather than
//! silently corrupting a resumed run.

use cppll_json::{FromJson, ToJson};
use cppll_poly::Polynomial;
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
}
