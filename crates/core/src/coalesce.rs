//! Algorithm 1: error coalescing and persistence analysis.
//!
//! Raw driver logs repeat the same error many times in close succession
//! (bursts). To avoid over-counting, identical log lines from the same GPU
//! within Δt of each other merge into a single error whose *persistence*
//! is the span from the first to the last merged occurrence. The paper
//! uses Δt = 5 s (robust across 5–20 s) and caps persistence at one day.

use dr_xid::{Duration, ErrorDetail, ErrorRecord, GpuId, Timestamp, Xid};
use std::collections::BTreeMap;

/// Coalescing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoalesceConfig {
    /// Merge window Δt.
    pub window: Duration,
    /// Persistence cut-off (one day in the paper). A burst running past
    /// the cut-off is split into a new error.
    pub max_persistence: Duration,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            window: Duration::from_secs(5),
            max_persistence: Duration::from_days(1),
        }
    }
}

impl CoalesceConfig {
    /// Δt variant (for the Section 3.2 robustness ablation).
    pub fn with_window_secs(secs: u64) -> Self {
        CoalesceConfig {
            window: Duration::from_secs(secs),
            ..CoalesceConfig::default()
        }
    }
}

/// One coalesced error: the Algorithm 1 output tuple
/// (e_first, t_start, t_latest − t_start) plus the merge count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalescedError {
    pub gpu: GpuId,
    pub xid: Xid,
    pub detail: ErrorDetail,
    /// t_start.
    pub start: Timestamp,
    /// t_latest.
    pub last: Timestamp,
    /// Number of raw log occurrences merged into this error.
    pub merged: u32,
}

impl CoalescedError {
    /// The persistence duration (t_latest − t_start).
    pub fn persistence(&self) -> Duration {
        self.last - self.start
    }
}

/// Run Algorithm 1 over raw records.
///
/// Records may arrive in any order; they are grouped by identity
/// (GPU + XID + message detail — the "matches pattern r" step), sorted by
/// time within each group, merged with the Δt window, and the result is
/// returned sorted by start time.
pub fn coalesce(records: &[ErrorRecord], cfg: CoalesceConfig) -> Vec<CoalescedError> {
    // Group by identity (the per-pattern filter of Algorithm 1). Ordered
    // map: iteration order must not depend on hash state, or ties in the
    // final sort would reshuffle between runs.
    let mut groups: BTreeMap<(GpuId, Xid, ErrorDetail), Vec<Timestamp>> = BTreeMap::new();
    for r in records {
        groups.entry(r.identity()).or_default().push(r.at);
    }

    let mut out = Vec::new();
    for ((gpu, xid, detail), mut times) in groups {
        times.sort_unstable();
        let mut i = 0;
        while i < times.len() {
            let start = times[i];
            let mut latest = start;
            let mut merged = 1u32;
            while i + 1 < times.len() {
                let next = times[i + 1];
                // Same message, close in time, and under the persistence
                // cut-off: merge.
                if next - latest <= cfg.window && next - start <= cfg.max_persistence {
                    latest = next;
                    merged += 1;
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(CoalescedError {
                gpu,
                xid,
                detail,
                start,
                last: latest,
                merged,
            });
            i += 1;
        }
    }
    sort_episodes(&mut out);
    out
}

/// Batch output order: by `(start, gpu, xid, detail)`. Two episodes of
/// one identity never share a start (records at equal times always
/// merge), so the key is unique and the unstable sort deterministic.
pub(crate) fn sort_episodes(episodes: &mut [CoalescedError]) {
    episodes.sort_unstable_by_key(|e| (e.start, e.gpu, e.xid, e.detail));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::NodeId;
    use proptest::prelude::*;

    fn rec(secs: f64, node: u32, xid: Xid) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::EPOCH + Duration::from_secs_f64(secs),
            GpuId::at_slot(NodeId(node), 0),
            xid,
            ErrorDetail::NONE,
        )
    }

    #[test]
    fn burst_merges_into_one_error() {
        let records: Vec<_> = (0..10).map(|i| rec(i as f64 * 3.0, 1, Xid::GspRpcTimeout)).collect();
        let out = coalesce(&records, CoalesceConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].merged, 10);
        assert_eq!(out[0].persistence().as_secs_f64(), 27.0);
    }

    #[test]
    fn gap_beyond_window_splits() {
        let records = vec![
            rec(0.0, 1, Xid::NvlinkError),
            rec(4.0, 1, Xid::NvlinkError),
            rec(20.0, 1, Xid::NvlinkError), // 16 s gap: new error
        ];
        let out = coalesce(&records, CoalesceConfig::default());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].merged, 2);
        assert_eq!(out[1].merged, 1);
        assert_eq!(out[1].persistence(), Duration::ZERO);
    }

    #[test]
    fn different_gpus_never_merge() {
        let records = vec![rec(0.0, 1, Xid::MmuError), rec(1.0, 2, Xid::MmuError)];
        let out = coalesce(&records, CoalesceConfig::default());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn different_xids_never_merge() {
        let records = vec![rec(0.0, 1, Xid::MmuError), rec(1.0, 1, Xid::NvlinkError)];
        let out = coalesce(&records, CoalesceConfig::default());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn different_details_never_merge() {
        let a = rec(0.0, 1, Xid::NvlinkError);
        let mut b = rec(1.0, 1, Xid::NvlinkError);
        b.detail = ErrorDetail::new(3, 0);
        let out = coalesce(&[a, b], CoalesceConfig::default());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn persistence_cap_splits_runaway_bursts() {
        // A storm logging every 4 s for 2.5 days must split at the 1-day
        // cut-off into 3 errors.
        let records: Vec<_> = (0..(2.5 * 86_400.0 / 4.0) as u64)
            .map(|i| rec(i as f64 * 4.0, 1, Xid::UncontainedEcc))
            .collect();
        let out = coalesce(&records, CoalesceConfig::default());
        assert_eq!(out.len(), 3);
        for e in &out[..2] {
            assert!(e.persistence().as_secs_f64() <= 86_400.0);
        }
    }

    #[test]
    fn unsorted_input_is_handled() {
        let records = vec![
            rec(8.0, 1, Xid::MmuError),
            rec(0.0, 1, Xid::MmuError),
            rec(4.0, 1, Xid::MmuError),
        ];
        let out = coalesce(&records, CoalesceConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].merged, 3);
        assert_eq!(out[0].persistence().as_secs_f64(), 8.0);
    }

    #[test]
    fn window_size_changes_grouping() {
        let records = vec![
            rec(0.0, 1, Xid::MmuError),
            rec(8.0, 1, Xid::MmuError),
            rec(16.0, 1, Xid::MmuError),
        ];
        assert_eq!(coalesce(&records, CoalesceConfig::default()).len(), 3);
        assert_eq!(
            coalesce(&records, CoalesceConfig::with_window_secs(10)).len(),
            1
        );
    }

    #[test]
    fn empty_input() {
        assert!(coalesce(&[], CoalesceConfig::default()).is_empty());
    }

    proptest! {
        /// Coalescing conserves raw occurrences: merged counts sum to the
        /// input length, and output is sorted by start.
        #[test]
        fn conservation_and_order(
            times in prop::collection::vec(0u64..10_000, 0..300),
            nodes in prop::collection::vec(0u32..3, 0..300),
        ) {
            let n = times.len().min(nodes.len());
            let records: Vec<_> = (0..n)
                .map(|i| rec(times[i] as f64, nodes[i], Xid::MmuError))
                .collect();
            let out = coalesce(&records, CoalesceConfig::default());
            let total: u32 = out.iter().map(|e| e.merged).sum();
            prop_assert_eq!(total as usize, n);
            for w in out.windows(2) {
                prop_assert!(w[0].start <= w[1].start);
            }
            // Every coalesced error's span is within the cap.
            for e in &out {
                prop_assert!(e.persistence() <= CoalesceConfig::default().max_persistence);
            }
        }

        /// A larger window never yields more errors.
        #[test]
        fn monotone_in_window(times in prop::collection::vec(0u64..5_000, 1..200)) {
            let records: Vec<_> = times.iter()
                .map(|&t| rec(t as f64, 1, Xid::MmuError))
                .collect();
            let small = coalesce(&records, CoalesceConfig::with_window_secs(5)).len();
            let large = coalesce(&records, CoalesceConfig::with_window_secs(50)).len();
            prop_assert!(large <= small);
        }
    }
}
