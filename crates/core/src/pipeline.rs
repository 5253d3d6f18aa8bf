//! End-to-end pipeline orchestration (Figure 4).
//!
//! The front door is [`PipelineBuilder`]: configure jobs, downtime,
//! chunking, prefetch, a record-store tee, and an optional metrics sink
//! with named setters, then run from a streaming [`LogSource`]
//! ([`PipelineBuilder::run_source`] — bounded-memory ingestion from
//! disk, a campaign generator, or a wrapped buffer), from materialized
//! text ([`PipelineBuilder::run_text`], a thin [`InMemorySource`]
//! adapter), from records ([`PipelineBuilder::run_records`] — the
//! full-fidelity path used for the flagship 855-day reproduction, where
//! materializing ~10 M text lines would only exercise the same code the
//! text path already validates on a node subset), from a columnar
//! record store ([`PipelineBuilder::run_record_source`] — replay a
//! previously extracted corpus without re-paying Stage I), or from
//! pre-coalesced errors ([`PipelineBuilder::run_coalesced`]). Every route
//! ends in [`PipelineBuilder::run_coalesced`], where the
//! [`StudyEngine`] takes the coalesced episode vector as its own — it
//! becomes [`StudyResults::coalesced`] — indexes it once (interned GPUs,
//! per-GPU and per-node episode lists, dense per-XID tables), and
//! finishes every section from that one index.
//!
//! Observability is strictly write-only: attaching a recording
//! [`MetricsSink`] never changes any `StudyResults` field (bit-identity
//! is a tier-1 test).

use crate::coalesce::{CoalesceConfig, CoalescedError};
use crate::counterfactual::CounterfactualReport;
use crate::downtime::DowntimeStats;
use crate::engine::StudyEngine;
use crate::job_impact::{JobImpactAnalysis, JobImpactConfig, Table3Row};
use crate::propagation::PropagationAnalysis;
use crate::source::{InMemorySource, LogSource};
use crate::stats::{CategoryMtbe, LostHours, Table1Row};
use dr_faults::DowntimeInterval;
use dr_logscan::ExtractStats;
use dr_obs::MetricsSink;
use dr_slurm::JobRecord;
use dr_xid::{DataError, Duration, ErrorRecord, NodeId};

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct StudyConfig {
    pub coalesce: CoalesceConfig,
    /// Propagation window Δt for Figures 5–7.
    pub propagation_window: Duration,
    pub job_impact: JobImpactConfig,
    /// Measurement window (hours).
    pub observation_hours: f64,
    /// GPU node population for per-node normalization.
    pub node_count: u32,
}

impl StudyConfig {
    /// The Ampere Table 1 setting: 855 days, 206 nodes.
    pub fn ampere_study() -> Self {
        StudyConfig {
            coalesce: CoalesceConfig::default(),
            propagation_window: Duration::from_secs(60),
            job_impact: JobImpactConfig::default(),
            observation_hours: 855.0 * 24.0,
            node_count: 206,
        }
    }

    /// Adjust the window for a campaign of different size.
    pub fn with_window(mut self, observation_hours: f64, node_count: u32) -> Self {
        self.observation_hours = observation_hours;
        self.node_count = node_count;
        self
    }
}

/// Everything the study reports, bundled.
#[derive(Clone, Debug)]
pub struct StudyResults {
    pub config: StudyConfig,
    pub coalesced: Vec<CoalescedError>,
    pub table1: Vec<Table1Row>,
    /// Overall (system, per-node) MTBE in hours.
    pub overall_mtbe_h: (Option<f64>, Option<f64>),
    pub category_mtbe: CategoryMtbe,
    pub lost_hours: LostHours,
    pub propagation: PropagationAnalysis,
    pub counterfactual: CounterfactualReport,
    /// Present when a job table was supplied.
    pub job_impact: Option<JobImpactAnalysis>,
    pub table3: Option<Vec<Table3Row>>,
    /// Present when downtime intervals were supplied.
    pub downtime: Option<DowntimeStats>,
    /// Availability estimate MTTF/(MTTF+MTTR), present with downtime data.
    pub availability: Option<f64>,
}

impl StudyResults {
    /// Convenience: the Table 1 row for one XID.
    pub fn table1_row(&self, xid: dr_xid::Xid) -> Option<&Table1Row> {
        self.table1.iter().find(|r| r.xid == xid)
    }
}

/// The single front door to the study pipeline.
///
/// Replaces the retired `from_text_logs` / `from_text_logs_chunked` /
/// `from_text_logs_baseline` constructor family with named setters:
///
/// ```
/// use resilience_core::{PipelineBuilder, StudyConfig};
/// # let node_logs: Vec<(dr_xid::NodeId, Vec<String>)> = Vec::new();
/// let cfg = StudyConfig::ampere_study();
/// let (results, stats) = PipelineBuilder::new(cfg).run_text(&node_logs);
/// # let _ = (results, stats);
/// ```
///
/// Attach a recording [`MetricsSink`] with [`PipelineBuilder::metrics`]
/// to collect per-stage spans, counters, and throughput histograms;
/// instrumentation is write-only and never changes the results.
#[derive(Clone, Debug)]
pub struct PipelineBuilder<'a> {
    config: StudyConfig,
    jobs: Option<&'a [JobRecord]>,
    downtime: Option<&'a [DowntimeInterval]>,
    chunk_bytes: Option<u64>,
    prefetch: bool,
    records_out: Option<std::path::PathBuf>,
    metrics: MetricsSink,
}

impl<'a> PipelineBuilder<'a> {
    /// A builder with no job table, no downtime data, worker-pool-sized
    /// chunks, prefetch off, no record-store tee, and metrics disabled.
    pub fn new(config: StudyConfig) -> Self {
        PipelineBuilder {
            config,
            jobs: None,
            downtime: None,
            chunk_bytes: None,
            prefetch: false,
            records_out: None,
            metrics: MetricsSink::disabled(),
        }
    }

    /// Attach a Slurm job table (enables Table 3 / job-impact analyses).
    pub fn jobs(self, jobs: &'a [JobRecord]) -> Self {
        PipelineBuilder {
            jobs: Some(jobs),
            ..self
        }
    }

    /// [`PipelineBuilder::jobs`], `Option`-shaped for call sites that may
    /// or may not have a table.
    pub fn maybe_jobs(self, jobs: Option<&'a [JobRecord]>) -> Self {
        PipelineBuilder { jobs, ..self }
    }

    /// Attach downtime intervals (enables MTTR and availability).
    pub fn downtime(self, downtime: &'a [DowntimeInterval]) -> Self {
        PipelineBuilder {
            downtime: Some(downtime),
            ..self
        }
    }

    /// [`PipelineBuilder::downtime`], `Option`-shaped.
    pub fn maybe_downtime(self, downtime: Option<&'a [DowntimeInterval]>) -> Self {
        PipelineBuilder { downtime, ..self }
    }

    /// Pin the Stage I chunk-size target (bytes per work unit), for tests
    /// and benchmarks that fix the decomposition. Default sizes chunks to
    /// the worker pool.
    pub fn chunk_bytes(self, target: u64) -> Self {
        PipelineBuilder {
            chunk_bytes: Some(target),
            ..self
        }
    }

    /// Overlap Stage I ingestion with extraction (default off): a
    /// dedicated [`crate::source::Prefetcher`] thread pulls the next
    /// chunk wave while the worker pool extracts the current one. Results
    /// are bit-identical with prefetch on or off; peak resident log text
    /// rises from one wave to at most two.
    pub fn prefetch(self, prefetch: bool) -> Self {
        PipelineBuilder { prefetch, ..self }
    }

    /// Tee the extract pass's per-node record streams into a columnar
    /// store at `path` (see [`crate::store`]), so later runs can replay
    /// the analysis from records without re-parsing text. One pass over
    /// the corpus; the analysis results are unchanged.
    pub fn record_store(self, path: impl Into<std::path::PathBuf>) -> Self {
        PipelineBuilder {
            records_out: Some(path.into()),
            ..self
        }
    }

    /// Attach a metrics sink. Pass [`MetricsSink::recording`] to collect
    /// per-stage spans/counters/histograms, exportable with
    /// [`MetricsSink::export_json`]. Write-only: results are bit-identical
    /// with any sink.
    pub fn metrics(self, sink: MetricsSink) -> Self {
        PipelineBuilder {
            metrics: sink,
            ..self
        }
    }

    /// Run from any [`LogSource`] — the streaming front door. Stage I
    /// pulls chunk waves from the source (peak resident text is
    /// O(workers × chunk_bytes)), then the full analysis pipeline runs on
    /// the extracted records. For a given corpus the results are
    /// bit-identical to [`PipelineBuilder::run_text`] on the materialized
    /// lines, at every chunk size and worker count.
    pub fn run_source<'s>(
        &self,
        source: &mut (dyn LogSource<'s> + Send),
    ) -> Result<(StudyResults, ExtractStats), DataError> {
        // The node table must be captured before extraction takes the
        // mutable borrow.
        let nodes = self
            .records_out
            .as_ref()
            .map(|_| source.nodes().to_vec());
        let (per_node, stats) = if self.prefetch {
            crate::shard::extract_source_prefetch_observed(source, self.chunk_bytes, &self.metrics)?
        } else {
            crate::shard::extract_source_observed(source, self.chunk_bytes, &self.metrics)?
        };
        // Tee point: per-node streams are exactly what the store persists,
        // before the merge consumes them.
        if let (Some(path), Some(nodes)) = (&self.records_out, &nodes) {
            crate::store::write_store(path, nodes, &per_node)?;
        }
        let coalesced =
            crate::shard::merge_and_coalesce_observed(per_node, self.config.coalesce, &self.metrics);
        Ok((self.run_coalesced(coalesced), stats))
    }

    /// Run from a [`crate::store::RecordSource`] — the replay front
    /// door. A [`crate::source::Prefetcher`] thread pulls and decodes the
    /// blocks one ahead while this thread pushes each decoded block
    /// straight into its node's coalescer, through the same per-node
    /// driver as [`PipelineBuilder::run_source`]'s merge, so resident
    /// memory is at most two decoded blocks plus the episodes, whatever
    /// the store size (`peak_resident_bytes` gauge as on the text path;
    /// with one worker the blocks are decoded inline, one at a time). An
    /// error of the source, on either thread, is returned as is. On the same
    /// corpus the results are bit-identical to the text path, because the
    /// store preserves extraction's per-node record streams exactly. Only
    /// Stage I is skipped: no log text is read, split into lines,
    /// prefiltered or matched, and noise lines were never stored, so a
    /// replay's cost follows the record count rather than the size of the
    /// logs. A store whose streams are not per-node (a malformed log's
    /// day regression) is rewound and coalesced by the batch route over
    /// every record, with the same results.
    pub fn run_record_source(
        &self,
        source: &mut dyn crate::store::RecordSource,
    ) -> Result<StudyResults, DataError> {
        let coalesced =
            crate::shard::coalesce_record_source(source, self.config.coalesce, &self.metrics)?;
        Ok(self.run_coalesced(coalesced))
    }

    /// Run from per-node syslog text: Stage I, then the full analysis
    /// pipeline. Returns the results plus merged extraction statistics. A
    /// thin [`InMemorySource`] adapter over [`PipelineBuilder::run_source`].
    pub fn run_text(&self, node_logs: &[(NodeId, Vec<String>)]) -> (StudyResults, ExtractStats) {
        let mut source = InMemorySource::new(node_logs);
        match self.run_source(&mut source) {
            Ok(r) => r,
            // dr-lint: allow(panic-reachability): InMemorySource::next_chunk never returns Err
            Err(_) => unreachable!("in-memory sources are infallible"),
        }
    }

    /// Run from structured records (skips Stage I text extraction).
    pub fn run_records(&self, records: &[ErrorRecord]) -> StudyResults {
        let coalesced =
            crate::coalesce::coalesce_observed(records, self.config.coalesce, &self.metrics);
        self.run_coalesced(coalesced)
    }

    /// Run the analyses from already-coalesced errors: the
    /// [`StudyEngine`] adopts the vector (it becomes
    /// [`StudyResults::coalesced`]; no episode is copied), indexes it once,
    /// and finishes every section from that index. Every section is a
    /// pure function of the episode sequence, so the results are
    /// bit-identical with any sink.
    pub fn run_coalesced(&self, coalesced: Vec<CoalescedError>) -> StudyResults {
        use dr_obs::{Counter, Stage};
        let sink = &self.metrics;
        sink.add(Stage::Stats, Counter::Episodes, coalesced.len() as u64);
        let mut engine = StudyEngine::new(self.config, self.jobs, self.downtime);
        {
            let _span = sink.span(Stage::Stats, "fold");
            engine.extend(coalesced);
        }
        engine.finish_observed(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::syslog::format_line;
    use dr_xid::{ErrorDetail, GpuId, Timestamp, Xid};

    fn rec(secs: u64, node: u32, xid: Xid) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::from_secs(secs),
            GpuId::at_slot(dr_xid::NodeId(node), 0),
            xid,
            ErrorDetail::new(1, 2),
        )
    }

    #[test]
    fn records_path_produces_all_sections() {
        let records = vec![
            rec(100, 1, Xid::GspRpcTimeout),
            rec(102, 1, Xid::GspRpcTimeout), // merges
            rec(500, 2, Xid::MmuError),
            rec(900, 3, Xid::NvlinkError),
        ];
        let cfg = StudyConfig::ampere_study().with_window(1_000.0, 10);
        let r = PipelineBuilder::new(cfg).run_records(&records);
        assert_eq!(r.coalesced.len(), 3);
        assert_eq!(r.table1_row(Xid::GspRpcTimeout).unwrap().count, 1);
        assert_eq!(r.overall_mtbe_h.0, Some(1_000.0 / 3.0));
        assert!(r.job_impact.is_none());
        assert!(r.availability.is_none());
        assert!(!r.counterfactual.offenders.is_empty());
    }

    #[test]
    fn text_path_matches_records_path() {
        // Render records to text, re-extract, and verify identical stats.
        let records = vec![
            rec(3_600, 1, Xid::GspRpcTimeout),
            rec(3_604, 1, Xid::GspRpcTimeout),
            rec(7_200, 1, Xid::NvlinkError),
        ];
        let lines: Vec<String> = records.iter().map(|r| format_line(r, 0)).collect();
        let logs = vec![(dr_xid::NodeId(1), lines)];
        let cfg = StudyConfig::ampere_study().with_window(1_000.0, 10);
        let builder = PipelineBuilder::new(cfg);
        let (from_text, stats) = builder.run_text(&logs);
        let from_records = builder.run_records(&records);
        assert_eq!(stats.xid_lines, 3);
        assert_eq!(from_text.coalesced.len(), from_records.coalesced.len());
        assert_eq!(
            from_text.table1_row(Xid::GspRpcTimeout).unwrap().count,
            from_records.table1_row(Xid::GspRpcTimeout).unwrap().count
        );
    }

    #[test]
    fn sharded_text_path_matches_baseline_pipeline() {
        // The optimized pipeline (fast extractor, byte-balanced chunks,
        // streaming coalesce) must coalesce identically to the original
        // one (baseline VM, global sort, batch coalesce), for any chunk
        // size.
        let mut logs = Vec::new();
        for node in 1..=3u32 {
            let records: Vec<_> = (0..40)
                .map(|k| {
                    let mut r = rec(3_000 + k * 7 + node as u64, node, Xid::GspRpcTimeout);
                    if k % 3 == 0 {
                        r.xid = Xid::MmuError;
                    }
                    r
                })
                .collect();
            let lines: Vec<String> = records.iter().map(|r| format_line(r, 0)).collect();
            logs.push((dr_xid::NodeId(node), lines));
        }
        let cfg = StudyConfig::ampere_study().with_window(1_000.0, 10);
        // The reference: per-node extraction on the baseline engine,
        // concatenated, globally sorted, then batch-coalesced.
        let mut records = Vec::new();
        let mut base_stats = ExtractStats::default();
        for (_, lines) in &logs {
            let mut ex = dr_logscan::BaselineExtractor::new();
            records.append(&mut ex.extract_all(lines.iter().map(|s| s.as_str())));
            base_stats.merge(&ex.stats());
        }
        dr_xid::record::sort_records(&mut records);
        let base = PipelineBuilder::new(cfg).run_records(&records);
        for target in [Some(1), Some(200), Some(1 << 20), None] {
            let mut b = PipelineBuilder::new(cfg);
            if let Some(t) = target {
                b = b.chunk_bytes(t);
            }
            let (fast, stats) = b.run_text(&logs);
            assert_eq!(fast.coalesced, base.coalesced, "chunk target {target:?}");
            assert_eq!(stats.lines, base_stats.lines);
            assert_eq!(stats.xid_lines, base_stats.xid_lines);
        }
    }

    #[test]
    fn record_source_path_matches_text_path_exactly() {
        let mut logs = Vec::new();
        let mut per_node = Vec::new();
        let mut nodes = Vec::new();
        for node in 1..=3u32 {
            let records: Vec<_> = (0..30)
                .map(|k| rec(1_000 + k * 11 + node as u64, node, Xid::NvlinkError))
                .collect();
            let lines: Vec<String> = records.iter().map(|r| format_line(r, 0)).collect();
            logs.push((dr_xid::NodeId(node), lines));
            nodes.push(dr_xid::NodeId(node));
            per_node.push(records);
        }
        let cfg = StudyConfig::ampere_study().with_window(1_000.0, 10);
        let builder = PipelineBuilder::new(cfg);
        let (from_text, _) = builder.run_text(&logs);
        let mut source = crate::store::InMemoryRecordSource::new(&nodes, &per_node);
        let from_records = builder.run_record_source(&mut source).expect("record path");
        assert_eq!(
            format!("{from_text:?}"),
            format!("{from_records:?}"),
            "record replay must be bit-identical to the text path"
        );
    }

    #[test]
    fn text_path_ignores_noise() {
        let logs = vec![(
            dr_xid::NodeId(1),
            vec![
                "Jan  1 01:00:00 gpub001 systemd[1]: Started Session".to_string(),
                "not a syslog line at all".to_string(),
            ],
        )];
        let cfg = StudyConfig::ampere_study().with_window(1_000.0, 10);
        let (r, stats) = PipelineBuilder::new(cfg).run_text(&logs);
        assert_eq!(stats.lines, 2);
        assert_eq!(stats.xid_lines, 0);
        assert!(r.coalesced.is_empty());
    }
}
