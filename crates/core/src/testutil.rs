//! Test oracles shared by the crate's unit tests.

use crate::coalesce::CoalescedError;
use crate::pipeline::{StudyConfig, StudyResults};
use dr_obs::MetricsSink;
use dr_slurm::JobRecord;
use dr_xid::NodeId;

/// The study [`crate::engine::finish`] makes of `errors`, with no
/// downtime table (so the counterfactual's MTTR is its 0.3 h default):
/// the route the per-section unit tests read their section from.
pub fn study(
    errors: &[CoalescedError],
    config: StudyConfig,
    jobs: Option<&[JobRecord]>,
) -> StudyResults {
    crate::engine::finish(
        config,
        jobs,
        None,
        errors.to_vec(),
        &MetricsSink::disabled(),
    )
}

/// One planned chunk: a contiguous line range of one node's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Index into the `node_logs` slice.
    pub node: usize,
    /// First line (inclusive).
    pub start: usize,
    /// Past-the-end line.
    pub end: usize,
    /// Total bytes of the lines in the chunk, one newline each included.
    pub bytes: u64,
}

/// The chunk boundaries every [`crate::source::LogSource`] must produce
/// over `node_logs`: each node's lines split in order, a chunk closing on
/// the first line whose bytes reach `target_bytes`. Chunks partition each
/// node's lines exactly; a non-empty node always yields at least one.
pub fn plan_chunks(node_logs: &[(NodeId, Vec<String>)], target_bytes: u64) -> Vec<ChunkSpec> {
    let target = target_bytes.max(1);
    let mut chunks = Vec::new();
    for (node, (_, lines)) in node_logs.iter().enumerate() {
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, line) in lines.iter().enumerate() {
            acc += line.len() as u64 + 1; // +1 for the newline the file had
            if acc >= target {
                chunks.push(ChunkSpec {
                    node,
                    start,
                    end: i + 1,
                    bytes: acc,
                });
                start = i + 1;
                acc = 0;
            }
        }
        if start < lines.len() {
            chunks.push(ChunkSpec {
                node,
                start,
                end: lines.len(),
                bytes: acc,
            });
        }
    }
    chunks
}
