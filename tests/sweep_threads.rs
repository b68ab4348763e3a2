//! Repeated two-thread sweeps in one process: the toy atlas solved with two
//! cells at once, 200 times over, must finish every time with the atlas
//! digest it has at one thread. Earlier builds, whose SDP kernels forked
//! threads inside each cell's solve, died of SIGSEGV in 3 of about 60
//! sweeps run this way.
//!
//! Two hundred sweeps take about 90 s in release, so the test is
//! ignored by default:
//!
//! ```sh
//! cargo test --release --test sweep_threads -- --ignored
//! ```

use cppll::verify::{run_sweep, SweepOptions, SweepSpec};

/// Digest of the example atlas at every thread count.
const ATLAS_DIGEST: &str = "ab5bb9f7c915f789";

#[test]
#[ignore = "needs a release build: cargo test --release --test sweep_threads -- --ignored"]
fn two_thread_sweeps_repeat_in_one_process() {
    cppll::par::set_threads(2);
    let spec = SweepSpec::example();
    let opt = SweepOptions {
        threads: 2,
        ..SweepOptions::default()
    };
    for sweep in 0..200 {
        let atlas = run_sweep(&spec, &opt).expect("sweep runs");
        assert_eq!(atlas.digest(), ATLAS_DIGEST, "sweep {sweep}");
    }
    cppll::par::set_threads(0);
}
