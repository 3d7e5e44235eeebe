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
    map_with_state(threads, n, || (), |(), i| f(i))
}

/// Maps `f` over explicit work items on `threads` workers, returning
/// results in item order.
///
/// The shard-aware sibling of [`parallel_map`]: callers hand over a slice
/// of prepared work items — e.g. connection-formation bundles that each
/// carry the set of history shards their initiators map to — and `f`
/// receives `(state, index, &item)`. Each worker builds one `state` with
/// `init` and passes it to every item it takes, so a worker can keep a
/// memo across items; for the results to stay deterministic, what `f`
/// returns must not depend on what the state already holds. Distribution
/// is the same dynamic work queue, so the result vector is
/// **bit-identical at any thread count**; only the wall-clock assignment
/// of items to workers varies. Items whose shard sets are disjoint run
/// concurrently without contending on any shared lock; overlapping items
/// serialize inside `f` on the shards themselves (acquired in
/// deterministic ascending order), never in the queue.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` after the scope joins.
pub fn parallel_map_items<I, S, T, F>(
    threads: usize,
    items: &[I],
    init: impl Fn() -> S + Sync,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&mut S, usize, &I) -> T + Sync,
{
    map_with_state(threads, items.len(), init, |state, i| {
        f(state, i, &items[i])
    })
}

/// The work queue behind both maps: `threads` workers, each with its own
/// `init()` state, pull indices from a shared counter and write `f(state,
/// i)` into slot `i`.
fn map_with_state<S, T, F>(threads: usize, n: usize, init: impl Fn() -> S + Sync, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let next = Mutex::new(0usize);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = {
                        // A poisoned lock means a sibling worker panicked
                        // in `f`; the scope will re-raise that panic on
                        // join, so recovering the guard here just lets
                        // this worker drain cleanly instead of
                        // double-panicking.
                        let mut guard = next.lock().unwrap_or_else(PoisonError::into_inner);
                        let i = *guard;
                        if i >= n {
                            break;
                        }
                        *guard += 1;
                        i
                    };
                    let value = f(&mut state, i);
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
                }
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

    #[test]
    fn items_map_matches_index_map_at_any_thread_count() {
        let items: Vec<u64> = (0..41).map(|i| i * 3 + 1).collect();
        let map =
            |threads| parallel_map_items(threads, &items, || (), |(), i, &x| x * 7 + i as u64);
        let seq = map(1);
        assert_eq!(seq.len(), items.len());
        for threads in [2, 4, 9] {
            assert_eq!(map(threads), seq);
        }
    }

    #[test]
    fn each_worker_builds_one_state_for_all_its_items() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 3] {
            inits.store(0, Ordering::Relaxed);
            let out = parallel_map_items(
                threads,
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |taken: &mut usize, _, &x| {
                    *taken += 1;
                    x
                },
            );
            assert_eq!(out, items);
            assert!(inits.load(Ordering::Relaxed) <= threads);
        }
    }

    #[test]
    fn items_map_handles_empty_slice() {
        let items: Vec<u32> = Vec::new();
        let out: Vec<u32> = parallel_map_items(4, &items, || (), |(), _, &x| x);
        assert!(out.is_empty());
    }
}
