//! # dr-par — data-parallel helpers on std scoped threads
//!
//! A deliberately small "rayon-lite": the analysis pipeline shards work by
//! node (the paper processes 202 GB of per-node syslogs), which is embarrass-
//! ingly parallel, so all we need is chunked parallel map with dynamic
//! load balancing. Work distribution uses an atomic chunk cursor (work
//! stealing at chunk granularity); results are collected per worker and
//! stitched back in input order, so every function here is **deterministic**:
//! output order never depends on thread scheduling.
//!
//! Worker-count precedence: [`set_worker_override`] (programmatic) beats
//! the `DR_PAR_THREADS` environment variable, which beats
//! `std::thread::available_parallelism`. `DR_PAR_THREADS=1` is the
//! canonical way to compare a run against its serial execution.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-count override; 0 means "not set".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatically pin the worker count for all subsequent parallel
/// calls (process-wide). `None` restores the default resolution order
/// (`DR_PAR_THREADS`, then available parallelism).
pub fn set_worker_override(n: Option<usize>) {
    WORKER_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The configured worker count before capping by work size, if any.
fn configured_workers() -> Option<usize> {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::env::var("DR_PAR_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0),
        n => Some(n),
    }
}

/// The worker count parallel calls will use given abundant work — the
/// override / environment / available-parallelism resolution, before
/// capping by work size. Lets callers size their work decomposition
/// (e.g. a byte-balanced shard plan) to the pool.
pub fn max_workers() -> usize {
    worker_count(usize::MAX)
}

/// Number of worker threads to use: the override / environment /
/// available parallelism, capped by the amount of work so tiny inputs
/// don't spawn idle threads.
fn worker_count(work_items: usize) -> usize {
    let hw = configured_workers().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    hw.min(work_items).max(1)
}

/// Parallel map preserving input order.
///
/// `f` runs on worker threads; items are claimed in blocks via an atomic
/// cursor so stragglers don't serialize the tail.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    // Block size balances cursor contention against load balance.
    let block = (items.len() / (worker_count(items.len()) * 8)).max(1);
    let chunk_results = par_blocks(items, block, |start, slice| {
        (start, slice.iter().map(&f).collect::<Vec<U>>())
    });
    let mut out = Vec::with_capacity(items.len());
    for (_, mut v) in chunk_results {
        out.append(&mut v);
    }
    out
}

/// Core primitive: split `items` into contiguous blocks of `block` items,
/// process each block with `f` on a pool of scoped threads, and return the
/// results sorted by block start offset.
fn par_blocks<T, R, F>(items: &[T], block: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + StartOrdered,
    F: Fn(usize, &[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let nblocks = items.len().div_ceil(block);
    let workers = worker_count(nblocks);
    if workers == 1 {
        // Fast path: no thread spawn for serial execution.
        return (0..nblocks)
            .map(|b| {
                let start = b * block;
                let end = (start + block).min(items.len());
                f(start, &items[start..end])
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= nblocks {
                            break;
                        }
                        let start = b * block;
                        let end = (start + block).min(items.len());
                        local.push(f(start, &items[start..end]));
                    }
                    local
                })
            })
            .collect();
        per_worker = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
    });

    let mut all: Vec<R> = per_worker.into_iter().flatten().collect();
    all.sort_by_key(|r| r.start_key());
    all
}

/// Results that carry their block start offset for order restoration.
trait StartOrdered {
    fn start_key(&self) -> usize;
}

impl<U> StartOrdered for (usize, U) {
    fn start_key(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out = par_map(&input, |&x| x * 2);
        assert_eq!(out.len(), input.len());
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
    }

    proptest! {
        /// par_map agrees with sequential map for arbitrary inputs.
        #[test]
        fn par_map_matches_serial(xs in prop::collection::vec(any::<i32>(), 0..2_000)) {
            let par: Vec<i64> = par_map(&xs, |&x| x as i64 * 3 - 1);
            let ser: Vec<i64> = xs.iter().map(|&x| x as i64 * 3 - 1).collect();
            prop_assert_eq!(par, ser);
        }
    }
}
