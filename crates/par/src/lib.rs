//! Minimal deterministic fork/join parallelism for independent `cppll`
//! work items.
//!
//! The workspace builds offline, so no rayon/crossbeam: this crate is a
//! small hand-rolled layer over [`std::thread::scope`]. Its one user is the
//! parameter sweep, which solves the cells of a wave at once; every SDP and
//! linear-algebra kernel inside a cell's solve runs serially on the thread
//! that solves the cell.
//!
//! # Determinism contract
//!
//! [`parallel_map`] is *bit-deterministic in the thread count*: the result
//! of a call with `threads = 1` and `threads = N` is identical down to the
//! last floating-point bit. That holds because work items are pure
//! functions of their index (no shared accumulator is ever updated from a
//! worker), and results are placed by index. Sweep atlases are required to
//! be byte-identical across `--threads` settings; this contract is what
//! makes that possible.
//!
//! # Thread-count resolution
//!
//! A process-wide default is kept in an atomic ([`set_threads`] /
//! [`current_threads`]), initialised from the machine's available
//! parallelism on first read. A call site that needs an explicit count
//! passes it instead of touching the global.
//!
//! # Spawn-failure degradation
//!
//! Work is split into index-determined chunks and pulled from a shared
//! queue by up to `threads` executors: the calling thread plus scoped
//! workers. A failed worker spawn (the OS can transiently refuse with
//! `EAGAIN` under heavy fork/join churn) is never fatal — the
//! calling thread always participates, so execution degrades toward serial
//! instead of panicking. Which executor runs a chunk never affects the
//! result: chunk boundaries and output placement are functions of the
//! index alone.
//!
//! # Examples
//!
//! ```
//! // Square the numbers 0..8 on however many workers are configured.
//! let squares = cppll_par::parallel_map(8, 0, |i| (i * i) as u64);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count; 0 means "not yet resolved".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (the CLI's `--threads` flag).
///
/// A value of 0 resets to "auto" (the machine's available parallelism).
pub fn set_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The process-wide default worker count: the last [`set_threads`] value,
/// or the machine's available parallelism when none has been set.
pub fn current_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Resolves a call-site thread request: 0 means "use the process default".
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        current_threads()
    } else {
        requested
    }
}

/// Below this many items a fork/join is pure overhead; run serially.
const MIN_ITEMS_PER_FORK: usize = 2;

/// Runs `jobs` on up to `executors` threads: the caller plus at most
/// `executors - 1` scoped workers draining a shared queue. Each job is an
/// index-determined chunk, so which executor runs it cannot affect the
/// result. Worker spawns that the OS refuses are ignored — the caller
/// always drains the queue, so the call completes (serially in the worst
/// case) rather than panicking on a transient `EAGAIN`.
///
/// Panics from `run` propagate: the calling thread re-raises directly, and
/// [`std::thread::scope`] re-raises worker panics when the scope closes.
fn run_jobs<J, F>(jobs: Vec<J>, executors: usize, run: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    let queue = std::sync::Mutex::new(jobs);
    let drain = |queue: &std::sync::Mutex<Vec<J>>| loop {
        let job = {
            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
            q.pop()
        };
        match job {
            Some(j) => run(j),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..executors {
            let _ = std::thread::Builder::new().spawn_scoped(scope, || drain(&queue));
        }
        drain(&queue);
    });
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// `threads = 0` uses the process default ([`current_threads`]); `1` (or a
/// small `n`) runs serially on the calling thread. The items are split into
/// at most `threads` contiguous chunks, each computed by one scoped worker,
/// and concatenated in chunk order — so the output is bit-identical for
/// every thread count.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n < MIN_ITEMS_PER_FORK {
        return (0..n).map(f).collect();
    }
    // Contiguous ceil-split chunks; each job fills its own slice of the
    // output, so placement depends only on the index, never the executor.
    let chunk = n.div_ceil(threads);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut jobs: Vec<(usize, &mut [Option<T>])> = Vec::with_capacity(threads);
    {
        let mut rest = slots.as_mut_slice();
        let mut lo = 0;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            jobs.push((lo, head));
            lo += take;
            rest = tail;
        }
    }
    let f = &f;
    run_jobs(jobs, threads, |(lo, out): (usize, &mut [Option<T>])| {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = Some(f(lo + k));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("cppll-par: chunk left an item uncomputed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 7] {
            let got = parallel_map(23, threads, |i| 3 * i + 1);
            let want: Vec<_> = (0..23).map(|i| 3 * i + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(1, 4, |i| i), vec![0]);
        // More threads than items.
        assert_eq!(parallel_map(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn map_is_bit_deterministic_across_thread_counts() {
        // A float reduction per item whose value depends on summation order
        // *within* the item only — across items there is no shared state.
        let work = |i: usize| {
            let mut acc = 0.0f64;
            for k in 1..100 {
                acc += 1.0 / ((i * 100 + k) as f64);
            }
            acc
        };
        let serial = parallel_map(64, 1, work);
        for threads in [2, 3, 5, 8] {
            let par = parallel_map(64, threads, work);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn thread_default_resolution() {
        assert!(current_threads() >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
