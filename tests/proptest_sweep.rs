//! Property tests for the sweep engine's bisection soundness: every
//! `certified`/`failed` cell in an atlas carries an actual solve record
//! (problem fingerprint, and a digest when certified), and cells the
//! bisection skipped are only ever labeled `interior` (with an implied
//! verdict) or `unresolved` — never silently given a verdict without either
//! a solve or an agreeing bounding rectangle.

use cppll::verify::SystemSpec;
use cppll::verify::{run_sweep, CellStatus, SweepAxis, SweepOptions, SweepSpec, SweepTarget};
use proptest::prelude::*;

/// A 1D sweep ladder over `$a` in the planar toy template, with the second
/// flow's rate fixed at `b` (always contracting). `a < 0` certifies and
/// `a > 0` fails, so random ranges straddling zero exercise both verdicts
/// and the certified/failed boundary.
fn ladder_spec(amin: f64, amax: f64, cells: usize, b: f64, bisect: bool) -> SweepSpec {
    let template = SystemSpec::from_json_str(&format!(
        r#"{{
          "states": 2,
          "modes": [
            {{"name": "flow", "flow": ["$a x0", "{b} x1"]}}
          ],
          "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
          "initial_radii": [2.0, 2.0],
          "degree": 2
        }}"#
    ))
    .expect("ladder template is valid");
    SweepSpec {
        target: SweepTarget::Spec { template },
        axes: vec![SweepAxis {
            name: "a".into(),
            min: amin,
            max: amax,
            cells,
        }],
        bisect,
        coarse: 0,
        resolution: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every verdict in a bisected atlas is backed by a solve record, and
    /// skipped cells are only ever `interior` (with an implied verdict) or
    /// `unresolved`.
    #[test]
    fn bisection_is_sound_on_random_ladders(
        amin in -1.0..-0.2f64,
        amax in 0.2..1.0f64,
        cells in 9..14usize,
        b in -1.5..-0.5f64,
    ) {
        let spec = ladder_spec(amin, amax, cells, b, true);
        let atlas = run_sweep(&spec, &SweepOptions::default()).expect("sweep completes");

        let mut solved = 0;
        for cell in &atlas.cells {
            match cell.status {
                CellStatus::Certified => {
                    solved += 1;
                    prop_assert!(cell.fingerprint.is_some(), "certified cell without a solve");
                    prop_assert!(cell.digest.is_some(), "certified cell without a digest");
                    prop_assert!(cell.implied.is_none());
                }
                CellStatus::Failed => {
                    solved += 1;
                    prop_assert!(cell.fingerprint.is_some(), "failed cell without a solve");
                }
                CellStatus::Interior => {
                    prop_assert!(cell.fingerprint.is_none());
                    prop_assert!(cell.digest.is_none());
                    prop_assert!(cell.implied.is_some(), "interior cell without an implied verdict");
                }
                CellStatus::Unresolved => {
                    prop_assert!(cell.fingerprint.is_none());
                    prop_assert!(cell.digest.is_none());
                }
            }
        }
        // Counter bookkeeping matches the per-cell labels exactly.
        prop_assert_eq!(atlas.counters.cells_certified + atlas.counters.cells_failed, solved);
        prop_assert_eq!(
            solved + atlas.counters.cells_skipped_by_bisection,
            atlas.cells.len()
        );
        // The ladder straddles a = 0, so both verdicts must be present.
        prop_assert!(atlas.counters.cells_certified > 0);
        prop_assert!(atlas.counters.cells_failed > 0);
    }
}
