//! Parallel experiment sweep runner.
//!
//! Every multi-cell experiment binary (figure tables, ablations, the
//! EX-5 summary) decomposes into *cells*: independent computations over
//! a work list — one region, one AZ, one workload, one ablation arm —
//! each building its own seeded [`crate::World`]. This module fans the
//! cells out over a scoped thread pool and merges the results **in item
//! order**, so the merged output is byte-identical for any job count:
//! a cell is a pure function of `(index, item)`, and the only
//! nondeterminism parallelism could add — completion order — is erased
//! by the ordered merge.
//!
//! ```
//! use sky_bench::sweep::{self, Jobs};
//! let squares = sweep::run(vec![1u64, 2, 3, 4], Jobs::new(4), |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count selector for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(usize);

impl Jobs {
    /// Use exactly `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// Serial execution.
    pub fn serial() -> Jobs {
        Jobs(1)
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }

    /// One worker per hardware thread the host makes available: the
    /// `--jobs` default, so `skyward exp run --all` saturates the host.
    /// Output does not depend on it.
    pub fn host() -> Jobs {
        Jobs::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Run `cell` over every item, using up to `jobs` worker threads, and
/// return the results in item order.
///
/// Work is distributed dynamically (an atomic next-item cursor), so
/// unevenly sized cells do not leave workers idle. With `Jobs::serial()`
/// (or one worker) the items run inline on the calling thread — no
/// threads, no locks — which is the reference ordering the parallel
/// path's merged output is guaranteed to match.
///
/// # Panics
///
/// Propagates the first panicking cell.
pub fn run<I, R, F>(items: Vec<I>, jobs: Jobs, cell: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let workers = jobs.get().min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| cell(i, item))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = cell(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    })
    .expect("sweep worker panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_item_order() {
        let items: Vec<u64> = (0..40).collect();
        // Skew cell cost so completion order differs from item order.
        let out = run(items.clone(), Jobs::new(8), |i, &x| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x * 10
        });
        assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<u64> = (0..25).collect();
        let cell = |i: usize, x: &u64| format!("cell {i} -> {}", x * x + 1);
        let serial = run(items.clone(), Jobs::serial(), cell);
        for jobs in [2, 4, 16] {
            assert_eq!(run(items.clone(), Jobs::new(jobs), cell), serial);
        }
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        let empty: Vec<u32> = Vec::new();
        assert!(run(empty, Jobs::new(4), |_, &x| x).is_empty());
        assert_eq!(run(vec![9u32], Jobs::new(4), |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn jobs_clamps_to_one() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::serial().get(), 1);
    }
}
