//! Tier-1 check of where the prefetching drivers pull their input: with
//! two workers every pull of the text waves and of the replay's store
//! batches runs on the prefetch thread, and with one worker every pull
//! runs inline on the caller's thread, so `DR_PAR_THREADS=1` is a serial
//! run. One test in its own binary: the worker override is process-wide.

use gpu_resilience::core::{
    InMemoryRecordSource, InMemorySource, LogChunk, LogSource, PipelineBuilder, RecordBatch,
    RecordSource, StudyConfig,
};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::xid::{DataError, NodeId};
use std::thread::{self, ThreadId};

/// A source wrapper that records the thread of every pull.
struct Recording<S> {
    inner: S,
    pulls: Vec<ThreadId>,
}

impl<S> Recording<S> {
    fn new(inner: S) -> Self {
        Recording {
            inner,
            pulls: Vec::new(),
        }
    }
}

impl<'a, S: LogSource<'a>> LogSource<'a> for Recording<S> {
    fn nodes(&self) -> &[NodeId] {
        self.inner.nodes()
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'a>>, DataError> {
        self.pulls.push(thread::current().id());
        self.inner.next_chunk(target_bytes)
    }
}

impl<S: RecordSource> RecordSource for Recording<S> {
    fn nodes(&self) -> &[NodeId] {
        self.inner.nodes()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>, DataError> {
        self.pulls.push(thread::current().id());
        self.inner.next_batch()
    }

    fn rewind(&mut self) -> Result<(), DataError> {
        self.inner.rewind()
    }
}

#[test]
fn one_worker_pulls_inline_and_two_pull_on_the_prefetch_thread() {
    let out = Campaign::run(CampaignConfig {
        duration_days: 3.0,
        ..CampaignConfig::tiny(97)
    });
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let nodes: Vec<NodeId> = out.text_logs.iter().map(|(n, _)| *n).collect();
    let caller = thread::current().id();

    let mut text_results = Vec::new();
    for workers in [1usize, 2] {
        gpu_resilience::par::set_worker_override(Some(workers));
        let builder = PipelineBuilder::new(cfg).prefetch(true).chunk_bytes(4096);
        let mut text = Recording::new(InMemorySource::new(&out.text_logs));
        let (from_text, _) = builder.run_source(&mut text).expect("text run");
        // Replay what the text run extracted, one batch per node stream.
        let mut per_node = vec![Vec::new(); nodes.len()];
        for e in &from_text.coalesced {
            let i = nodes.iter().position(|&n| n == e.gpu.node).expect("known node");
            per_node[i].push(gpu_resilience::xid::ErrorRecord::new(
                e.start,
                e.gpu,
                e.xid,
                e.detail,
            ));
        }
        let mut replay = Recording::new(InMemoryRecordSource::new(&nodes, &per_node));
        builder.run_record_source(&mut replay).expect("replay");
        gpu_resilience::par::set_worker_override(None);

        for (path, pulls) in [("text", &text.pulls), ("replay", &replay.pulls)] {
            assert!(pulls.len() > 2, "{path} at {workers} workers pulled only {}", pulls.len());
            if workers == 1 {
                assert!(
                    pulls.iter().all(|&t| t == caller),
                    "{path}: a one-worker run must pull on the caller's thread"
                );
            } else {
                assert!(
                    pulls.iter().all(|&t| t != caller),
                    "{path}: at {workers} workers every pull must run on the prefetch thread"
                );
            }
        }
        text_results.push(format!("{from_text:?}"));
    }
    assert_eq!(
        text_results[0], text_results[1],
        "inline and threaded prefetch must give the same results"
    );
}
