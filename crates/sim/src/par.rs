//! Deterministic fan-out over independent work items.
//!
//! Every sweep in this workspace (chaos storms, lint preset matrices,
//! figure-scaling curves) decomposes into items that are pure functions of
//! their inputs — a `(geometry, collective, payload, seed)` point shares no
//! state with its neighbours. [`map_ordered`] exploits that: it runs the
//! items on a scoped `std::thread` pool and returns the results **in input
//! order**, so the output is bit-identical to the sequential
//! `items.into_iter().map(f).collect()` no matter how many workers ran or
//! how the OS interleaved them.
//!
//! The ordering guarantee is structural, not probabilistic: each item's
//! result is written to its own pre-allocated slot (indexed by the item's
//! position), and the slots are drained in index order after every worker
//! has joined. Workers pull items off a shared atomic cursor, so the
//! *assignment* of items to threads varies run to run — but since `f` is
//! required to be a pure function of the item, the assignment is
//! unobservable in the result.
//!
//! Worker count comes from the `PIMNET_THREADS` environment variable
//! (default: the machine's available parallelism). `PIMNET_THREADS=1`
//! degenerates to a plain sequential map with zero thread overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count sweeps use by default: `PIMNET_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism
/// (falling back to 1 when that cannot be determined).
#[must_use]
pub fn thread_count() -> usize {
    match std::env::var("PIMNET_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on [`thread_count()`] workers, returning results
/// in input order. See [`map_ordered_with`] for the guarantees.
pub fn map_ordered<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_ordered_with(thread_count(), items, f)
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning
/// results **in input order**.
///
/// `f` must be a pure function of its item (it may read shared immutable
/// state, including the schedule cache); under that contract the result is
/// bit-identical to `items.into_iter().map(f).collect()` for every worker
/// count, which `tests/parallel_determinism.rs` pins down.
///
/// With `workers <= 1` or fewer than two items this *is* the sequential
/// map: no threads are spawned and no synchronization happens.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins every worker first).
pub fn map_ordered_with<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // One slot per item: workers take the item out, compute, and park the
    // result in the same index. The mutexes are uncontended (each slot is
    // touched by exactly one worker) — they exist to make the slot writes
    // safe without `unsafe`.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let work = &work;
    let results = &results;
    let cursor = &cursor;
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("par: a worker panicked while claiming an item")
                    .take()
                    .expect("par: item claimed twice");
                let r = f(item);
                *results[i]
                    .lock()
                    .expect("par: a worker panicked while storing a result") = Some(r);
            });
        }
    });
    results
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("par: result slot poisoned")
                .take()
                .expect("par: missing result (worker died?)")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = map_ordered_with(workers, items.clone(), |x| x * x);
            assert_eq!(
                out,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // A mildly expensive, seed-dependent computation: the kind of cell
        // the sweeps fan out.
        let cell = |seed: u64| -> Vec<u64> {
            let mut rng = crate::SimRng::seed_from_u64(seed);
            (0..64).map(|_| rng.next_u64()).collect()
        };
        let seeds: Vec<u64> = (0..37).collect();
        let seq = map_ordered_with(1, seeds.clone(), cell);
        for workers in [2, 5, 16] {
            assert_eq!(map_ordered_with(workers, seeds.clone(), cell), seq);
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(
            map_ordered_with(32, vec![1, 2, 3], |x| x + 1),
            vec![2, 3, 4]
        );
        assert_eq!(
            map_ordered_with(4, Vec::<u32>::new(), |x| x),
            Vec::<u32>::new()
        );
        assert_eq!(map_ordered_with(0, vec![7], |x| x), vec![7]);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
