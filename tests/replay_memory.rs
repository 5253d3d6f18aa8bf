//! Tier-1 memory bound of the record replay: `run_record_source` pushes
//! each batch into its node's coalescer as it arrives, so its resident
//! memory does not follow the record count. One test in its own binary,
//! so no other test moves the process's peak RSS while it measures.

use gpu_resilience::core::{PipelineBuilder, RecordBatch, RecordSource, StudyConfig};
use gpu_resilience::xid::{DataError, ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid};

/// Records in the replay: materialized, 64 MiB of `ErrorRecord`s.
const RECORDS: usize = 1 << 21;
/// Records per batch, the store's block size.
const BATCH: usize = 4096;
/// GPUs of the one node the storm hits.
const GPUS: usize = 4;
/// Growth of the peak RSS the replay may cause.
const BUDGET_BYTES: u64 = 16 << 20;

/// An XID-95 storm generated batch by batch: one node, a few GPUs, a
/// record every 250 ms, so episodes stay few (split only by the one-day
/// persistence cut-off) and nothing but one batch is ever materialized.
struct StormSource {
    nodes: Vec<NodeId>,
    next: usize,
}

impl RecordSource for StormSource {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>, DataError> {
        if self.next >= RECORDS {
            return Ok(None);
        }
        let end = (self.next + BATCH).min(RECORDS);
        let records: Vec<ErrorRecord> = (self.next..end)
            .map(|k| {
                ErrorRecord::new(
                    Timestamp::from_micros(k as u64 * 250_000),
                    GpuId::at_slot(NodeId(0), k % GPUS),
                    Xid::UncontainedEcc,
                    ErrorDetail::NONE,
                )
            })
            .collect();
        self.next = end;
        let bytes = (records.len() * std::mem::size_of::<ErrorRecord>()) as u64;
        Ok(Some(RecordBatch {
            node: 0,
            records,
            bytes,
        }))
    }

    fn rewind(&mut self) -> Result<(), DataError> {
        self.next = 0;
        Ok(())
    }
}

/// The process's peak resident set (`VmHWM`), in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib * 1024
}

#[test]
fn record_replay_peak_rss_does_not_follow_the_record_count() {
    assert_eq!(RECORDS * std::mem::size_of::<ErrorRecord>(), 64 << 20);
    let cfg = StudyConfig::ampere_study().with_window(24.0 * 7.0, 1);
    let mut source = StormSource {
        nodes: vec![NodeId(0)],
        next: 0,
    };
    let before = peak_rss_bytes();
    let results = PipelineBuilder::new(cfg)
        .run_record_source(&mut source)
        .expect("generated replay");
    let grew = peak_rss_bytes().saturating_sub(before);

    let merged: u64 = results.coalesced.iter().map(|e| u64::from(e.merged)).sum();
    assert_eq!(merged, RECORDS as u64, "every record lands in an episode");
    assert!(
        results.coalesced.len() < 64,
        "a storm coalesces into few episodes, got {}",
        results.coalesced.len()
    );
    assert!(
        grew < BUDGET_BYTES,
        "replaying {RECORDS} records raised the peak RSS by {grew} bytes (budget {BUDGET_BYTES})"
    );
}
