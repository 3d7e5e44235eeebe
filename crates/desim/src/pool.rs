//! A small deterministic work-queue thread pool for replication fan-out.
//!
//! The simulation kernel itself is single-threaded by design (event-order
//! determinism is a correctness requirement); parallelism lives across
//! *independent replications*. This module provides exactly that shape of
//! parallelism with zero external dependencies: scoped threads pull item
//! indices from a shared counter and write each result into its input
//! slot, so the output of [`parallel_map`] is **bit-identical at any
//! thread count** — item `i` is always computed by `f(i)` from its own
//! seed, and only the wall-clock assignment of items to threads varies.

use std::sync::{Mutex, PoisonError};

/// The default worker count: `IDPA_THREADS` if set, otherwise the
/// machine's available parallelism (at least 1).
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("IDPA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `0..n` on `threads` workers, returning results in index
/// order.
///
/// Results are deterministic for deterministic `f`: the value at position
/// `i` is exactly `f(i)` regardless of `threads`. Work is distributed
/// dynamically (a `Mutex`-guarded next-index counter), so uneven item
/// costs — e.g. model II replications that decline paths early — still
/// load-balance.
///
/// `threads == 1` (or `n <= 1`) degenerates to a plain sequential map with
/// no thread or lock overhead.
///
/// # Panics
///
/// Propagates a panic from `f` after the scope joins.
pub fn parallel_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }

    let next = Mutex::new(0usize);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = {
                    // A poisoned lock means a sibling worker panicked in
                    // `f`; the scope will re-raise that panic on join, so
                    // recovering the guard here just lets this worker
                    // drain cleanly instead of double-panicking.
                    let mut guard = next.lock().unwrap_or_else(PoisonError::into_inner);
                    let i = *guard;
                    if i >= n {
                        break;
                    }
                    *guard += 1;
                    i
                };
                let value = f(i);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index was claimed and computed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order() {
        let out = parallel_map(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let seq = parallel_map(1, 37, |i| i as u64 * 0x9E37_79B9);
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map(threads, 37, |i| i as u64 * 0x9E37_79B9), seq);
        }
    }

    #[test]
    fn every_item_computed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map(8, 50, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = parallel_map(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map(16, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
