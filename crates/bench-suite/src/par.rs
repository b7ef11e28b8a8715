//! Bounded parallel sweeps for table and figure generation.
//!
//! Every table evaluates many independent `(benchmark, depth, filter)`
//! cells; this module fans them out over a scoped worker pool (bounded by
//! [`std::thread::available_parallelism`], like the trace and fault
//! generators) while reassembling results in deterministic input order,
//! so rendered tables are byte-identical to the serial sweeps.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a sweep over `n` items uses.
pub fn worker_count(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(n).max(1)
}

/// Maps `f` over `0..n` on a bounded scoped worker pool and returns the
/// results in index order. Workers pull the next index from a shared
/// counter, so uneven cell costs balance; output order never depends on
/// scheduling.
pub fn sweep<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("sweep slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let out = sweep(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_is_empty() {
        let out: Vec<u32> = sweep(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_bounded() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(1000) <= 1000);
    }
}
