//! The interior-point iterations allocate nothing below the `iter` trace
//! level: every buffer an iteration writes is allocated once per solve.
//!
//! A counting global allocator, local to this test binary, counts the
//! allocations of the calling thread only, so tests running in parallel do
//! not disturb each other. The same problem is solved with iteration limits
//! `k` and `k + 4`, both stopped by the limit: equal counts mean the four
//! extra iterations allocated nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cppll_sdp::{SdpProblem, SdpStatus, SolverOptions};
use cppll_trace::{TraceLevel, TraceRecorder};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Three blocks of sizes 7, 3 and 1 and one free variable: the Lovász
/// theta program of the 7-cycle, plus a second KKT component that couples
/// the smaller blocks through the free variable.
fn problem() -> SdpProblem {
    const N: usize = 7;
    let mut p = SdpProblem::new();
    let big = p.add_psd_block(N);
    for r in 0..N {
        for c in r..N {
            p.set_cost_entry(big, r, c, -1.0);
        }
    }
    let t = p.add_constraint(1.0);
    for i in 0..N {
        p.set_entry(t, big, i, i, 1.0);
    }
    for i in 0..N {
        let e = p.add_constraint(0.0);
        p.set_entry(e, big, i, (i + 1) % N, 1.0);
    }
    let mid = p.add_psd_block(3);
    let one = p.add_psd_block(1);
    p.set_block_cost_identity(mid, 1.0);
    p.set_block_cost_identity(one, 2.0);
    let u = p.add_free_var(0.25);
    let c0 = p.add_constraint(2.0);
    p.set_entry(c0, mid, 0, 0, 1.0);
    p.set_entry(c0, mid, 1, 2, 0.5);
    p.set_free_coeff(c0, u, 1.0);
    let c1 = p.add_constraint(1.0);
    p.set_entry(c1, mid, 2, 2, 1.0);
    p.set_entry(c1, one, 0, 0, 1.0);
    p.set_free_coeff(c1, u, -1.0);
    p.normalize();
    p
}

/// Allocations of one solve stopped after `limit` iterations, with a fresh
/// trace recorder at `level` (none for `None`). The solve runs on a thread
/// of its own, so per-thread state that the first traced call on a thread
/// sets up is counted the same way for every limit.
fn solve_allocations(p: &SdpProblem, limit: usize, level: Option<TraceLevel>) -> u64 {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let recorder = level.map(TraceRecorder::new);
                let opt = SolverOptions {
                    max_iterations: limit,
                    trace: recorder.as_ref().map(TraceRecorder::tracer),
                    ..SolverOptions::default()
                };
                let before = allocations();
                let sol = p.solve(&opt);
                let count = allocations() - before;
                assert_eq!(sol.iterations, limit, "{sol}");
                assert!(
                    matches!(
                        sol.status,
                        SdpStatus::MaxIterations | SdpStatus::NearOptimal
                    ),
                    "stopped before the limit: {sol}"
                );
                count
            })
            .join()
            .expect("solve thread")
    })
}

#[test]
fn iterations_allocate_nothing_untraced_and_at_solve_level() {
    let p = problem();
    let converged = p.solve(&SolverOptions::default());
    assert!(converged.is_ok(), "{converged}");
    // Neither limited run can stop before its limit.
    let k = 3;
    assert!(converged.iterations > k + 4, "{converged}");
    for level in [None, Some(TraceLevel::Solve)] {
        let short = solve_allocations(&p, k, level);
        let long = solve_allocations(&p, k + 4, level);
        assert!(short > 0, "the per-solve workspace is not counted");
        assert_eq!(short, long, "4 more iterations allocated at {level:?}");
    }
}
