//! Stress tests for the atomic chunk cursor: many workers fighting over
//! tiny blocks must neither drop nor duplicate work, and the stitched
//! output must be independent of the worker count.
//!
//! Runs as its own integration binary so the process-wide worker override
//! cannot interfere with other tests.

use dr_par::{par_map, set_worker_override};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn cursor_contention_neither_drops_nor_duplicates() {
    // Oversubscribe aggressively: far more workers than cores, with
    // single-item blocks, so the fetch_add cursor is under maximum
    // contention. Every item must be processed exactly once.
    let n = 50_000u64;
    let input: Vec<u64> = (0..n).collect();
    let calls = AtomicU64::new(0);
    for workers in [2, 3, 7, 16, 61] {
        set_worker_override(Some(workers));
        calls.store(0, Ordering::Relaxed);
        let out = par_map(&input, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
        assert_eq!(calls.load(Ordering::Relaxed), n, "workers={workers}");
        assert_eq!(out.len(), input.len(), "workers={workers}");
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
    }
    set_worker_override(None);
}

#[test]
fn output_is_bit_identical_across_worker_counts() {
    // Order-sensitive stitching (string concatenation): the result must
    // match the serial one for every worker count, byte for byte.
    let input: Vec<u32> = (0..4_000).collect();
    let run = || par_map(&input, |x| format!("{x};")).concat();
    set_worker_override(Some(1));
    let serial = run();
    for workers in [2, 4, 13, 48] {
        set_worker_override(Some(workers));
        assert_eq!(run(), serial, "workers={workers}");
    }
    set_worker_override(None);
}

#[test]
fn override_beats_environment() {
    // The programmatic override must win over DR_PAR_THREADS; this also
    // exercises the env-var parse path in the same process.
    std::env::set_var("DR_PAR_THREADS", "2");
    set_worker_override(Some(4));
    let out = par_map(&(0..1_000u32).collect::<Vec<_>>(), |&x| x + 1);
    assert_eq!(out.len(), 1_000);
    set_worker_override(None);
    // With the override cleared, the env var applies (smoke check only —
    // worker count is not observable from here, but the path must not
    // panic or change results).
    let out = par_map(&(0..1_000u32).collect::<Vec<_>>(), |&x| x + 1);
    assert_eq!(out[999], 1_000);
    std::env::remove_var("DR_PAR_THREADS");
}
