//! Deterministic indexed fan-out over real threads.
//!
//! The same shape as the experiment harness's worker pool: an atomic
//! work counter hands out indices, each result lands in its own slot,
//! and the caller reads the slots back in index order — so the output is
//! independent of thread interleaving and of the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` on up to `jobs` threads; returns results in index
/// order.
///
/// # Panics
/// Panics if a worker panicked (the panic propagates).
pub fn par_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.max(1).min(n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for jobs in [1, 2, 8, 64] {
            assert_eq!(par_map(jobs, 37, |i| i * i), expect, "{jobs} jobs");
        }
    }

    #[test]
    fn zero_items_is_fine() {
        assert!(par_map(4, 0, |i| i).is_empty());
    }
}
