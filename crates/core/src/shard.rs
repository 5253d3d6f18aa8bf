//! Byte-balanced sharded Stage I execution.
//!
//! The paper's Stage I scans 202 GB of per-node syslog. Parallelizing
//! only *across nodes* (the original pipeline) load-balances badly: node
//! log sizes are highly skewed, so one huge file serializes the tail, and
//! the whole extraction then feeds a global sort barrier before Stage II.
//!
//! This module shards the work by **bytes, not nodes**: each node's lines
//! are split at line boundaries into chunks of roughly equal byte volume
//! sized to the `dr-par` worker pool, so a single large log no longer
//! bounds the critical path. Correctness hinges on the syslog scanner's
//! year-inference state (timestamps carry no year; the scanner bumps the
//! year on month regressions), which is inherently serial per node. The
//! classic trick applies because state evolution composes:
//!
//! 1. **Summarize** (parallel): for every chunk, fold the months of its
//!    state-updating lines (exactly the predicate the extraction loop
//!    uses, [`dr_logscan::extract::scanner_update_month`]) into
//!    `(first_month, internal_bumps, last_month)`.
//! 2. **Prefix-fold** (serial, O(#chunks)): compose the summaries in
//!    order to recover the scanner state a serial scan would hold at
//!    each chunk boundary.
//! 3. **Extract** (parallel): run each chunk through an extractor seeded
//!    with its replayed state ([`XidExtractor::with_scanner_state`]).
//!
//! The result is **bit-identical** to a serial per-node scan (tested, and
//! differentially pinned against the pre-optimization pipeline), for any
//! chunk size and worker count.
//!
//! Stage I → Stage II then avoids the global sort barrier: per-node record
//! streams are already time-ordered, and a GPU (hence every coalescing
//! identity) lives on one node, so each node's stream runs through its
//! own incremental [`StreamCoalescer`] with no cross-node merge at all;
//! only the episodes are sorted. One private per-node driver does this
//! for both inputs: the text path's per-node `Vec`s
//! ([`merge_and_coalesce_observed`]) and the record replay, which decodes
//! store blocks one ahead on a [`Prefetcher`] thread and pushes each
//! into its node's coalescer as it arrives ([`coalesce_record_source`]),
//! so a replay holds at most two blocks plus the open and closed
//! episodes. The driver checks, record by record, that
//! each stream is time-ordered and holds one node's GPUs, and at the end
//! that no two streams share a node. If a pathological log breaks that
//! (e.g. a day regression without a month rollover), the code falls
//! back to the batch path over every record; the replay rewinds its
//! source to get them back. Batch and stream coalescing are equivalent
//! on ordered streams (property-tested), so both routes return the same
//! output, sorted by `(start, gpu, xid, detail)`.

use crate::coalesce::{coalesce, sort_episodes, CoalesceConfig, CoalescedError};
use crate::source::{pull_wave, LogChunk, LogSource, Prefetcher, Wave};
use crate::store::{RecordBatch, RecordSource};
use crate::stream::StreamCoalescer;
use dr_logscan::extract::scanner_update_month;
use dr_logscan::{ExtractStats, XidExtractor};
use dr_xid::record::sort_records;
use dr_xid::{DataError, ErrorRecord, NodeId, Timestamp};

/// How a chunk transforms year-inference state, independent of the state
/// it starts from: the month of its first state-updating line, the number
/// of month regressions strictly inside the chunk, and the month of its
/// last state-updating line. `None` when the chunk contains no
/// state-updating lines (identity transform).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateSummary {
    pub first: u8,
    pub internal_bumps: u32,
    pub last: u8,
}

/// Phase 1: fold a chunk's state-updating months into a [`StateSummary`].
pub fn summarize_chunk<'l>(lines: impl IntoIterator<Item = &'l str>) -> Option<StateSummary> {
    let mut summary: Option<StateSummary> = None;
    for line in lines {
        let Some(month) = scanner_update_month(line) else {
            continue;
        };
        match &mut summary {
            None => {
                summary = Some(StateSummary {
                    first: month,
                    internal_bumps: 0,
                    last: month,
                })
            }
            Some(s) => {
                if month < s.last {
                    s.internal_bumps += 1;
                }
                s.last = month;
            }
        }
    }
    summary
}

/// Phase 2 composition: the state after a chunk, given the state before it.
fn apply_summary(state: (i32, u8), summary: Option<StateSummary>) -> (i32, u8) {
    match summary {
        None => state,
        Some(s) => {
            let (mut year, last_month) = state;
            if s.first < last_month {
                year += 1;
            }
            year += s.internal_bumps as i32;
            (year, s.last)
        }
    }
}

/// Smallest default chunk: per-chunk overhead stays negligible.
const MIN_DEFAULT_TARGET: u64 = 64 * 1024;

/// Largest default chunk. Without a cap the target grows with the corpus,
/// and with it the resident waves: on the paper-scale 2.5 GB corpus the
/// uncapped target was 314 MB, two prefetched waves 1.5 GB.
const MAX_DEFAULT_TARGET: u64 = 16 * 1024 * 1024;

/// Default chunk size: enough chunks to keep the worker pool load-balanced
/// (4 per worker), within `[MIN_DEFAULT_TARGET, MAX_DEFAULT_TARGET]` so
/// per-chunk overhead stays negligible and the resident wave bounded.
fn default_target_bytes(total: u64, workers: usize) -> u64 {
    (total / ((workers as u64) * 4).max(1)).clamp(MIN_DEFAULT_TARGET, MAX_DEFAULT_TARGET)
}

/// Chunk-size target when the source cannot report its total size
/// (generative sources): large enough that per-chunk overhead vanishes,
/// small enough that a wave stays comfortably resident.
const DEFAULT_STREAM_TARGET: u64 = 256 * 1024;

/// Wave sizing for one driver run, derived from a *single*
/// `dr_par::max_workers()` snapshot. The chunk-size target and the wave
/// budget previously each read the worker count independently; if a
/// worker override changed between the two reads they could disagree,
/// skewing the budget. Capturing both here makes the
/// target/budget/worker triple self-consistent by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaveConfig {
    /// Worker-pool width the sizing was derived from.
    pub workers: usize,
    /// Per-chunk byte target handed to [`LogSource::next_chunk`].
    pub target_bytes: u64,
    /// Per-wave byte budget: `target_bytes × workers`.
    pub wave_budget: u64,
}

impl WaveConfig {
    /// Sizing from an explicit chunk target and/or a source's total-size
    /// hint (the explicit target wins; with neither, the streaming
    /// default applies).
    pub fn new(target_bytes: Option<u64>, total_hint: Option<u64>) -> WaveConfig {
        let workers = dr_par::max_workers();
        let target = target_bytes
            .or_else(|| total_hint.map(|t| default_target_bytes(t, workers)))
            .unwrap_or(DEFAULT_STREAM_TARGET)
            .max(1);
        WaveConfig {
            workers,
            target_bytes: target,
            wave_budget: target.saturating_mul(workers as u64),
        }
    }

    /// [`WaveConfig::new`] with the hint taken from `source`.
    pub fn for_source(source: &dyn LogSource<'_>, target_bytes: Option<u64>) -> WaveConfig {
        WaveConfig::new(target_bytes, source.total_bytes_hint())
    }
}

/// The streaming heart of Stage I: pull line-aligned chunks from `source`
/// one *wave* (≈ workers × target bytes) at a time, run the
/// summarize → prefix-fold → extract phases on each wave, and drop the
/// wave's text before pulling the next. Year-inference state composes
/// exactly across chunk boundaries, so the wave structure is invisible in
/// the output: records and stats are bit-identical to a serial per-node
/// scan of the same lines, for any `target_bytes`, wave size, or worker
/// count. Peak resident log text is one wave (recorded on the sink as the
/// `peak_resident_bytes` gauge), which is what lets the analysis host
/// stay at O(workers × chunk_bytes) on a 202 GB corpus.
pub fn extract_source_observed<'s>(
    source: &mut dyn LogSource<'s>,
    target_bytes: Option<u64>,
    sink: &dr_obs::MetricsSink,
) -> Result<(Vec<Vec<ErrorRecord>>, ExtractStats), DataError> {
    use dr_obs::{Counter, Stage};
    let cfg = WaveConfig::for_source(&*source, target_bytes);
    let mut driver = WaveDriver::new(source.nodes().len());
    loop {
        // Pull one wave. This is the only place log text enters memory;
        // the gauge records the high-water mark across waves (with no
        // prefetch, exactly one wave is ever resident).
        let wave = {
            let _span = sink.span(Stage::Shard, "total");
            pull_wave(source, cfg.target_bytes, cfg.wave_budget)?
        };
        let Some(wave) = wave else {
            break;
        };
        sink.add(Stage::Shard, Counter::Bytes, wave.bytes);
        sink.add(Stage::Shard, Counter::Chunks, wave.chunks.len() as u64);
        sink.gauge_max(Stage::Extract, "peak_resident_bytes", wave.bytes as f64);
        driver.process_wave(&wave, sink);
    }
    Ok(driver.finish())
}

/// [`extract_source_observed`] with I/O-overlapped wave prefetch: a
/// [`Prefetcher`] thread pulls wave *N+1* from `source` while the worker
/// pool extracts wave *N*. Results are bit-identical to the synchronous
/// path — wave boundaries come from the same [`pull_wave`] and the
/// per-wave processing is the same [`WaveDriver`] — only the overlap (and
/// therefore the `peak_resident_bytes` bound, ≤ 2 waves instead of 1)
/// differs.
pub fn extract_source_prefetch_observed<'s>(
    source: &mut (dyn LogSource<'s> + Send),
    target_bytes: Option<u64>,
    sink: &dr_obs::MetricsSink,
) -> Result<(Vec<Vec<ErrorRecord>>, ExtractStats), DataError> {
    use dr_obs::{Counter, Stage};
    let cfg = WaveConfig::for_source(&*source, target_bytes);
    let n_nodes = source.nodes().len();
    let pull = move || pull_wave(source, cfg.target_bytes, cfg.wave_budget);
    Prefetcher::new(pull).run(|waves| {
        let mut driver = WaveDriver::new(n_nodes);
        loop {
            // The span now measures only the *unhidden* part of I/O: time
            // spent waiting on the prefetch thread.
            let wave = {
                let _span = sink.span(Stage::Shard, "total");
                waves.recv()?
            };
            let Some(wave) = wave else {
                break;
            };
            sink.add(Stage::Shard, Counter::Bytes, wave.bytes);
            sink.add(Stage::Shard, Counter::Chunks, wave.chunks.len() as u64);
            sink.gauge_max(
                Stage::Extract,
                "peak_resident_bytes",
                waves.peak_resident_bytes() as f64,
            );
            driver.process_wave(&wave, sink);
        }
        Ok(driver.finish())
    })
}

/// Per-run extraction state shared by the synchronous and prefetching
/// drivers: the accumulating per-node record streams, the scanner state
/// carried across waves, and merged stats. Both drivers feed waves (from
/// the same [`pull_wave`] boundary rule) through the same
/// [`WaveDriver::process_wave`], which is what makes prefetch on/off
/// bit-identical by construction.
struct WaveDriver {
    per_node: Vec<Vec<ErrorRecord>>,
    /// Scanner state carried across waves, per node: (year, last month).
    per_node_state: Vec<(i32, u8)>,
    stats: ExtractStats,
}

impl WaveDriver {
    fn new(n_nodes: usize) -> WaveDriver {
        let mut per_node: Vec<Vec<ErrorRecord>> = Vec::new();
        per_node.resize_with(n_nodes, Vec::new);
        WaveDriver {
            per_node,
            per_node_state: vec![(2022, 1); n_nodes],
            stats: ExtractStats::default(),
        }
    }

    /// Run the summarize → prefix-fold → extract phases on one wave and
    /// fold the output into the per-node streams.
    fn process_wave(&mut self, wave: &Wave<'_>, sink: &dr_obs::MetricsSink) {
        use dr_obs::Stage;
        let chunks = &wave.chunks;
        let span = sink.span(Stage::Extract, "total");
        let stats_before = self.stats;

        // Phase 1 (parallel): per-chunk state summaries.
        let summaries: Vec<Option<StateSummary>> = {
            let _child = span.child("summarize");
            dr_par::par_map(chunks, |c| summarize_chunk(&c.lines))
        };

        // Phase 2 (serial, cheap): replay the incoming state of every
        // chunk, continuing from where the previous wave left each node.
        let work: Vec<(&LogChunk<'_>, (i32, u8))> = {
            let _child = span.child("prefix-fold");
            let mut incoming: Vec<(i32, u8)> = Vec::with_capacity(chunks.len());
            for (c, summary) in chunks.iter().zip(&summaries) {
                incoming.push(self.per_node_state[c.node]);
                self.per_node_state[c.node] =
                    apply_summary(self.per_node_state[c.node], *summary);
            }
            chunks.iter().zip(incoming).collect()
        };

        // Phase 3 (parallel): extract each chunk from its replayed state.
        // The per-chunk observed wrapper records chunk spans, line/byte
        // counters, and a MB/s histogram; with a disabled sink it is the
        // plain `extract_all` call the pre-observability code made.
        let extracted: Vec<(Vec<ErrorRecord>, ExtractStats)> = {
            let _child = span.child("extract-chunks");
            dr_par::par_map(&work, |(c, (year, last_month))| {
                let mut ex = XidExtractor::with_scanner_state(*year, *last_month);
                let recs = ex.extract_all_observed(&c.lines, sink);
                (recs, ex.stats())
            })
        };

        // Stitch the wave back into per-node streams (par_map preserves
        // input order, and chunks are node-major and in-order per node).
        for ((c, _), (mut recs, s)) in work.iter().zip(extracted) {
            self.per_node[c.node].append(&mut recs);
            self.stats.merge(&s);
        }

        // Per-wave prefilter telemetry: what fraction of this wave's
        // lines survived the literal needle scan. Diagnosing throughput
        // spread between corpora (noise-heavy vs XID-dense) starts here.
        if sink.is_enabled() {
            let lines = self.stats.lines - stats_before.lines;
            if lines > 0 {
                let hits = self.stats.prefilter_hits - stats_before.prefilter_hits;
                sink.observe(
                    Stage::Extract,
                    "wave_prefilter_hit_pct",
                    100.0 * hits as f64 / lines as f64,
                );
            }
        }
    }

    fn finish(self) -> (Vec<Vec<ErrorRecord>>, ExtractStats) {
        (self.per_node, self.stats)
    }
}

/// Stage I/II handoff: coalesce the per-node time-ordered streams
/// without a global record sort. Returns exactly what batch [`coalesce`]
/// would, sorted by `(start, gpu, xid, detail)`. Records a
/// `coalesce/total` span plus input record and output episode counters
/// on `sink`, which is write-only and never changes the output.
pub fn merge_and_coalesce_observed(
    per_node: Vec<Vec<ErrorRecord>>,
    cfg: CoalesceConfig,
    sink: &dr_obs::MetricsSink,
) -> Vec<CoalescedError> {
    use dr_obs::{Counter, Stage};
    let _span = sink.span(Stage::Coalesce, "total");
    let n_records: u64 = per_node.iter().map(|r| r.len() as u64).sum();
    let out = merge_and_coalesce_inner(per_node, cfg);
    sink.add(Stage::Coalesce, Counter::Records, n_records);
    sink.add(Stage::Coalesce, Counter::Episodes, out.len() as u64);
    out
}

/// An identity's GPU lives on one node, so when every stream is
/// time-ordered and holds one node no other stream holds, no episode
/// spans two streams: [`NodeCoalescer`] runs each through its own
/// coalescer, and a total sort gives batch order. Any other input (a
/// malformed log's day regression, a caller's mixed streams) takes the
/// batch path.
fn merge_and_coalesce_inner(
    per_node: Vec<Vec<ErrorRecord>>,
    cfg: CoalesceConfig,
) -> Vec<CoalescedError> {
    let mut nodes = NodeCoalescer::new(per_node.len(), cfg);
    for (i, recs) in per_node.iter().enumerate() {
        nodes.push(i, recs);
    }
    if let Some(out) = nodes.finish() {
        return out;
    }
    let mut records: Vec<ErrorRecord> = per_node.into_iter().flatten().collect();
    sort_records(&mut records);
    coalesce(&records, cfg)
}

/// The record replay's Stage II: a [`Prefetcher`] thread pulls and
/// decodes `source` one batch ahead while the caller pushes each batch
/// into its node's coalescer, so at most two decoded batches (one being
/// coalesced, one staged) are resident besides the episodes; with one
/// worker the pulls run inline and one batch is resident. Returns exactly
/// what batch [`coalesce`] would over every record, sorted by
/// `(start, gpu, xid, detail)`. If the streams are not per-node (see
/// [`NodeCoalescer`]), the prefetch thread is joined, the source is
/// rewound and drained again on the caller's thread into the batch
/// route, the one replay path that materializes records.
///
/// The `shard/total` span books the caller's wait for the next decoded
/// batch (with the `Bytes` counter, and under `extract` the `Records`
/// counter and the prefetcher's `peak_resident_bytes` high-water mark,
/// as on the text path); each batch's pushes, the fallback and the final
/// sort are booked under `coalesce/total`, with its `Records` and
/// `Episodes` counters. A batch naming a node index beyond the source's
/// node table, like any error of the source, is returned as the same
/// typed [`DataError`] from whichever thread pulled it.
pub(crate) fn coalesce_record_source(
    source: &mut dyn RecordSource,
    cfg: CoalesceConfig,
    sink: &dr_obs::MetricsSink,
) -> Result<Vec<CoalescedError>, DataError> {
    use dr_obs::{Counter, Stage};
    let n_nodes = source.nodes().len();
    let ahead = &mut *source;
    let (per_node, n_records) =
        Prefetcher::new(move || pull_batch(ahead, n_nodes)).run(|batches| {
            let mut nodes = NodeCoalescer::new(n_nodes, cfg);
            let mut n_records = 0u64;
            loop {
                let batch = {
                    let _span = sink.span(Stage::Shard, "total");
                    batches.recv()?
                };
                let Some(batch) = batch else {
                    break;
                };
                sink.add(Stage::Shard, Counter::Bytes, batch.bytes);
                sink.add(Stage::Extract, Counter::Records, batch.records.len() as u64);
                sink.gauge_max(
                    Stage::Extract,
                    "peak_resident_bytes",
                    batches.peak_resident_bytes() as f64,
                );
                n_records += batch.records.len() as u64;
                let _span = sink.span(Stage::Coalesce, "total");
                nodes.push(batch.node, &batch.records);
            }
            let _span = sink.span(Stage::Coalesce, "total");
            Ok::<_, DataError>((nodes.finish(), n_records))
        })?;
    let out = match per_node {
        Some(out) => out,
        None => {
            source.rewind()?;
            let mut records = Vec::new();
            loop {
                let batch = {
                    let _span = sink.span(Stage::Shard, "total");
                    pull_batch(source, n_nodes)?
                };
                let Some(mut batch) = batch else {
                    break;
                };
                records.append(&mut batch.records);
            }
            let _span = sink.span(Stage::Coalesce, "total");
            sort_records(&mut records);
            coalesce(&records, cfg)
        }
    };
    sink.add(Stage::Coalesce, Counter::Records, n_records);
    sink.add(Stage::Coalesce, Counter::Episodes, out.len() as u64);
    Ok(out)
}

/// Pull one batch, rejecting a node index beyond the source's
/// `n_nodes`-entry node table.
fn pull_batch(
    source: &mut dyn RecordSource,
    n_nodes: usize,
) -> Result<Option<RecordBatch>, DataError> {
    match source.next_batch()? {
        Some(b) if b.node >= n_nodes => Err(DataError::Store {
            path: "<record source>".to_string(),
            message: format!(
                "batch names node index {} but the source declares {n_nodes} nodes",
                b.node
            ),
        }),
        other => Ok(other),
    }
}

/// The per-node coalescing driver behind both [`merge_and_coalesce_observed`]
/// and [`coalesce_record_source`]. It is fed `(stream index, records)` in
/// any interleaving of streams (each stream's records in order) and runs
/// every stream through its own [`StreamCoalescer`] into one output. It
/// checks the per-node predicate record by record: each stream is
/// time-ordered and holds one node's GPUs; [`NodeCoalescer::finish`]
/// adds that no two non-empty streams share a node. Once the check
/// fails, the driver stops, `finish` returns `None`, and the caller
/// takes the batch route.
struct NodeCoalescer {
    streams: Vec<NodeStream>,
    /// Closed episodes of every stream, in no particular order until
    /// `finish` sorts them.
    out: Vec<CoalescedError>,
    clean: bool,
}

/// One stream's coalescer, plus its node and the time of its latest
/// record (`None` until the first record).
struct NodeStream {
    head: Option<(NodeId, Timestamp)>,
    coalescer: StreamCoalescer,
}

impl NodeCoalescer {
    fn new(n_streams: usize, cfg: CoalesceConfig) -> NodeCoalescer {
        NodeCoalescer {
            streams: (0..n_streams)
                .map(|_| NodeStream {
                    head: None,
                    coalescer: StreamCoalescer::new(cfg),
                })
                .collect(),
            out: Vec::new(),
            clean: true,
        }
    }

    /// Push the next `records` of stream `stream`. The first record that
    /// breaks the per-node predicate (or a `stream` out of range) drops
    /// all state, and every later push is a no-op.
    fn push(&mut self, stream: usize, records: &[ErrorRecord]) {
        if !self.clean {
            return;
        }
        let Some(s) = self.streams.get_mut(stream) else {
            return self.fail();
        };
        for rec in records {
            let node = match s.head {
                Some((node, last)) if node != rec.gpu.node || rec.at < last => {
                    return self.fail();
                }
                Some((node, _)) => node,
                None => rec.gpu.node,
            };
            s.head = Some((node, rec.at));
            s.coalescer.push_into(rec, &mut self.out);
        }
    }

    fn fail(&mut self) {
        self.clean = false;
        self.streams = Vec::new();
        self.out = Vec::new();
    }

    /// Close every stream and return all episodes sorted by
    /// `(start, gpu, xid, detail)`, or `None` if the input was not
    /// per-node: a failed push, or two non-empty streams on one node.
    fn finish(self) -> Option<Vec<CoalescedError>> {
        if !self.clean {
            return None;
        }
        let mut nodes: Vec<NodeId> = self
            .streams
            .iter()
            .filter_map(|s| s.head.map(|h| h.0))
            .collect();
        let streams = nodes.len();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() != streams {
            return None;
        }
        let mut out = self.out;
        for s in self.streams {
            out.extend(s.coalescer.finish());
        }
        sort_episodes(&mut out);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InMemorySource;
    use crate::testutil::plan_chunks;
    use dr_obs::MetricsSink;
    use dr_xid::syslog::{format_line, format_noise_line};
    use dr_xid::{Duration, ErrorDetail, GpuId, NodeId, Timestamp, Xid};

    /// A rollover-heavy multi-node synthetic campaign: XID bursts, noise,
    /// and garbage, with several year rollovers per node.
    fn synthetic_logs(nodes: u32, events_per_node: u64) -> Vec<(NodeId, Vec<String>)> {
        (0..nodes)
            .map(|n| {
                let mut lines = Vec::new();
                let mut t = Timestamp::EPOCH + Duration::from_hours(n as u64);
                for k in 0..events_per_node {
                    let xid = Xid::ALL[(k % Xid::ALL.len() as u64) as usize];
                    let rec = ErrorRecord::new(
                        t,
                        GpuId::at_slot(NodeId(n), (k % 8) as usize),
                        xid,
                        ErrorDetail::new((k % 5) as u16, (k % 11) as u32),
                    );
                    lines.push(format_line(&rec, k as u32));
                    if k % 3 == 0 {
                        lines.push(format_noise_line(t, NodeId(n), (k % 5) as u8));
                    }
                    if k % 17 == 0 {
                        lines.push("stray line without a header".to_string());
                    }
                    // ~100 days between some events: forces rollovers.
                    t = t + Duration::from_hours(if k % 7 == 0 { 2_400 } else { 3 });
                }
                (NodeId(n), lines)
            })
            .collect()
    }

    /// Reference: serial per-node extraction with one scanner per node.
    fn serial_extract(
        node_logs: &[(NodeId, Vec<String>)],
    ) -> (Vec<Vec<ErrorRecord>>, ExtractStats) {
        let mut stats = ExtractStats::default();
        let per_node = node_logs
            .iter()
            .map(|(_, lines)| {
                let mut ex = XidExtractor::new();
                let recs = ex.extract_all(lines.iter().map(|s| s.as_str()));
                stats.merge(&ex.stats());
                recs
            })
            .collect();
        (per_node, stats)
    }

    /// Stage I on the synchronous or the prefetching driver over an
    /// in-memory copy of `logs`.
    fn extract(
        logs: &[(NodeId, Vec<String>)],
        target_bytes: Option<u64>,
        prefetch: bool,
    ) -> (Vec<Vec<ErrorRecord>>, ExtractStats) {
        let mut source = InMemorySource::new(logs);
        let sink = MetricsSink::disabled();
        let out = if prefetch {
            extract_source_prefetch_observed(&mut source, target_bytes, &sink)
        } else {
            extract_source_observed(&mut source, target_bytes, &sink)
        };
        out.expect("in-memory sources are infallible")
    }

    #[test]
    fn default_wave_budget_stops_growing_with_the_corpus() {
        // Each check reads the worker count of its own `WaveConfig`: other
        // tests in this binary set the pool's worker override.
        for total in [0, 1 << 20, 1 << 26, 1 << 30, 1 << 34, 10 << 40, u64::MAX] {
            let cfg = WaveConfig::new(None, Some(total));
            let workers = cfg.workers as u64;
            let cap = MAX_DEFAULT_TARGET * workers;
            assert_eq!(cfg.wave_budget, cfg.target_bytes * workers, "total {total}");
            assert!(cfg.target_bytes >= MIN_DEFAULT_TARGET, "total {total}");
            if total >= MAX_DEFAULT_TARGET * workers * 4 {
                assert_eq!(cfg.wave_budget, cap, "total {total}");
            } else {
                // Below the cap the budget still tracks the corpus.
                assert!(cfg.wave_budget <= cap, "total {total}");
                assert_eq!(cfg.target_bytes, (total / (workers * 4)).max(MIN_DEFAULT_TARGET));
            }
        }
        // An explicit target is never capped.
        assert_eq!(WaveConfig::new(Some(u64::MAX / 2), Some(1)).target_bytes, u64::MAX / 2);
    }

    #[test]
    fn chunks_partition_lines_exactly() {
        let logs = synthetic_logs(3, 40);
        for target in [1, 37, 1_000, u64::MAX] {
            let chunks = plan_chunks(&logs, target);
            for (node, (_, lines)) in logs.iter().enumerate() {
                let mine: Vec<_> = chunks.iter().filter(|c| c.node == node).collect();
                assert!(!mine.is_empty());
                assert_eq!(mine[0].start, 0);
                assert_eq!(mine.last().unwrap().end, lines.len());
                for w in mine.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "gap/overlap at target {target}");
                }
            }
        }
    }

    #[test]
    fn chunk_bytes_are_balanced() {
        let logs = synthetic_logs(1, 300);
        let total: u64 = logs[0].1.iter().map(|l| l.len() as u64 + 1).sum();
        let chunks = plan_chunks(&logs, total / 8);
        assert!(chunks.len() >= 6, "got {} chunks", chunks.len());
        // Every chunk but the last is within one line of the target.
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.bytes >= total / 8);
            assert!(c.bytes < total / 8 + 200);
        }
    }

    #[test]
    fn sharded_extraction_is_bit_identical_to_serial() {
        let logs = synthetic_logs(3, 60);
        let (serial, serial_stats) = serial_extract(&logs);
        // Chunk sizes from "one line per chunk" up to "one chunk per node",
        // on both Stage I drivers.
        for prefetch in [false, true] {
            for target in [1, 64, 512, 4 * 1024, u64::MAX] {
                let (sharded, stats) = extract(&logs, Some(target), prefetch);
                let at = format!("target_bytes={target}, prefetch={prefetch}");
                assert_eq!(sharded, serial, "divergence at {at}");
                assert_eq!(stats, serial_stats, "stats divergence at {at}");
            }
        }
    }

    #[test]
    fn sharded_extraction_is_worker_count_invariant() {
        let logs = synthetic_logs(2, 50);
        dr_par::set_worker_override(Some(1));
        let (one, s1) = extract(&logs, Some(256), false);
        dr_par::set_worker_override(Some(8));
        let (eight, s8) = extract(&logs, Some(256), false);
        dr_par::set_worker_override(None);
        assert_eq!(one, eight);
        assert_eq!(s1, s8);
    }

    #[test]
    fn state_summary_composition_matches_direct_scan() {
        // The summary fold is exactly what a serial scanner does.
        let logs = synthetic_logs(1, 80);
        let lines = &logs[0].1;
        let mut ex = XidExtractor::new();
        let _ = ex.extract_all(lines.iter().map(|s| s.as_str()));
        let direct = ex.scanner_state();

        let mut state = (2022, 1u8);
        for chunk in lines.chunks(7) {
            state = apply_summary(state, summarize_chunk(chunk.iter().map(String::as_str)));
        }
        assert_eq!(state, direct);
    }

    #[test]
    fn merge_and_coalesce_matches_batch() {
        let logs = synthetic_logs(4, 50);
        let (per_node, _) = extract(&logs, Some(512), false);
        let mut all: Vec<ErrorRecord> = per_node.iter().flatten().copied().collect();
        sort_records(&mut all);
        let batch = coalesce(&all, CoalesceConfig::default());
        let streamed =
            merge_and_coalesce_observed(per_node, CoalesceConfig::default(), &MetricsSink::disabled());
        assert_eq!(streamed, batch);
    }

    #[test]
    fn non_monotonic_streams_fall_back_to_batch() {
        // A day regression without a month rollover makes a node stream
        // non-monotonic; the merge must detect it and still match batch.
        let rec = |secs: u64, node: u32| {
            ErrorRecord::new(
                Timestamp::from_secs(secs),
                GpuId::at_slot(NodeId(node), 0),
                Xid::MmuError,
                ErrorDetail::NONE,
            )
        };
        let per_node = vec![
            vec![rec(100, 1), rec(50, 1), rec(120, 1)],
            vec![rec(10, 2), rec(60, 2)],
        ];
        let mut all: Vec<ErrorRecord> = per_node.iter().flatten().copied().collect();
        sort_records(&mut all);
        let batch = coalesce(&all, CoalesceConfig::default());
        let merged =
            merge_and_coalesce_observed(per_node, CoalesceConfig::default(), &MetricsSink::disabled());
        assert_eq!(merged, batch);
    }

    /// One node's stream: `(seconds, slot, xid, detail)` draws, sorted.
    fn node_stream(node: u32, draws: &[(u64, u8, u8, u8)]) -> Vec<ErrorRecord> {
        const XIDS: [Xid; 3] = [Xid::MmuError, Xid::NvlinkError, Xid::GspRpcTimeout];
        let mut recs: Vec<ErrorRecord> = draws
            .iter()
            .map(|&(secs, slot, xid, detail)| {
                ErrorRecord::new(
                    Timestamp::from_secs(secs),
                    GpuId::at_slot(NodeId(node), usize::from(slot)),
                    XIDS[usize::from(xid)],
                    ErrorDetail::new(u16::from(detail), 0),
                )
            })
            .collect();
        recs.sort_by_key(|r| r.at);
        recs
    }

    fn batch_of(per_node: &[Vec<ErrorRecord>], cfg: CoalesceConfig) -> Vec<CoalescedError> {
        let mut all: Vec<ErrorRecord> = per_node.iter().flatten().copied().collect();
        sort_records(&mut all);
        coalesce(&all, cfg)
    }

    /// Whether [`NodeCoalescer`] takes `streams` on the per-node route.
    fn per_node_streams(streams: &[Vec<ErrorRecord>]) -> bool {
        let mut nodes = NodeCoalescer::new(streams.len(), CoalesceConfig::default());
        for (i, recs) in streams.iter().enumerate() {
            nodes.push(i, recs);
        }
        nodes.finish().is_some()
    }

    /// A [`RecordSource`] over per-node streams cut into batches of the
    /// sizes `cuts` (cycled) and interleaved across streams: each `picks`
    /// entry (cycled) names which stream, among those with batches left,
    /// yields the next batch. Each stream's batches stay in order, as the
    /// trait requires. Counts its rewinds.
    struct InterleavedSource {
        nodes: Vec<NodeId>,
        batches: Vec<RecordBatch>,
        next: usize,
        rewinds: usize,
    }

    impl InterleavedSource {
        fn new(streams: &[Vec<ErrorRecord>], cuts: &[usize], picks: &[usize]) -> Self {
            let mut cut = cuts.iter().cycle();
            let mut queues: Vec<std::collections::VecDeque<RecordBatch>> = streams
                .iter()
                .enumerate()
                .map(|(node, recs)| {
                    let mut queue = std::collections::VecDeque::new();
                    let mut rest = &recs[..];
                    while !rest.is_empty() {
                        let (head, tail) =
                            rest.split_at((*cut.next().unwrap_or(&1)).min(rest.len()));
                        queue.push_back(RecordBatch {
                            node,
                            records: head.to_vec(),
                            bytes: 0,
                        });
                        rest = tail;
                    }
                    queue
                })
                .collect();
            let mut batches = Vec::new();
            let mut pick = picks.iter().cycle();
            loop {
                let live: Vec<usize> = (0..queues.len())
                    .filter(|&q| !queues[q].is_empty())
                    .collect();
                if live.is_empty() {
                    break;
                }
                let q = live[pick.next().unwrap_or(&0) % live.len()];
                batches.extend(queues[q].pop_front());
            }
            InterleavedSource {
                nodes: (0..streams.len() as u32).map(NodeId).collect(),
                batches,
                next: 0,
                rewinds: 0,
            }
        }
    }

    impl RecordSource for InterleavedSource {
        fn nodes(&self) -> &[NodeId] {
            &self.nodes
        }

        fn next_batch(&mut self) -> Result<Option<RecordBatch>, DataError> {
            let batch = self.batches.get(self.next).cloned();
            self.next += 1;
            Ok(batch)
        }

        fn rewind(&mut self) -> Result<(), DataError> {
            self.next = 0;
            self.rewinds += 1;
            Ok(())
        }
    }

    /// The replay route over `streams` cut and interleaved as drawn, and
    /// how many times it rewound its source.
    fn replay(
        streams: &[Vec<ErrorRecord>],
        cuts: &[usize],
        picks: &[usize],
        cfg: CoalesceConfig,
    ) -> (Vec<CoalescedError>, usize) {
        let mut source = InterleavedSource::new(streams, cuts, picks);
        let out = coalesce_record_source(&mut source, cfg, &MetricsSink::disabled())
            .expect("an in-memory source is infallible");
        (out, source.rewinds)
    }

    #[test]
    fn replay_rejects_a_batch_beyond_the_node_table() {
        let streams = vec![
            node_stream(0, &[(1, 0, 0, 0)]),
            node_stream(1, &[(2, 0, 0, 0)]),
        ];
        let mut source = InterleavedSource::new(&streams, &[1], &[0]);
        source.nodes.truncate(1);
        let err = coalesce_record_source(
            &mut source,
            CoalesceConfig::default(),
            &MetricsSink::disabled(),
        )
        .expect_err("node index 1 of a one-node table");
        let msg = err.to_string();
        assert!(
            msg.contains("node index 1") && msg.contains("declares 1 nodes"),
            "{msg}"
        );
    }

    proptest::proptest! {
        /// The per-node route and the batch fallback both return batch
        /// Algorithm 1 over the sorted concatenation, on the text path's
        /// per-node `Vec`s and on the replay, which gets the same streams
        /// cut into batches of random size and interleaved across nodes.
        /// Each case runs the clean per-node streams (per-node route, no
        /// rewind) and one perturbation: a record moved onto another
        /// node's stream, a node split over two streams, a stream made
        /// non-monotone (all three fall back; the replay rewinds once),
        /// or empty streams spliced in (still per-node).
        #[test]
        fn merge_and_coalesce_equals_batch_on_both_routes(
            a in proptest::collection::vec((1u64..400, 0u8..3, 0u8..3, 0u8..2), 2..60),
            b in proptest::collection::vec((1u64..400, 0u8..3, 0u8..3, 0u8..2), 2..60),
            c in proptest::collection::vec((1u64..400, 0u8..3, 0u8..3, 0u8..2), 0..20),
            window in 1u64..30,
            persistence in 1u64..5,
            perturbation in 0u8..4,
            cuts in proptest::collection::vec(1usize..9, 1..8),
            picks in proptest::collection::vec(0usize..5, 1..16),
        ) {
            let cfg = CoalesceConfig {
                window: Duration::from_secs(window),
                max_persistence: Duration::from_secs(window * persistence),
            };
            let sink = MetricsSink::disabled();
            let clean = vec![node_stream(0, &a), node_stream(1, &b), node_stream(2, &c)];
            proptest::prop_assert!(per_node_streams(&clean));
            let batch = batch_of(&clean, cfg);
            proptest::prop_assert_eq!(
                &merge_and_coalesce_observed(clean.clone(), cfg, &sink),
                &batch
            );
            proptest::prop_assert_eq!(replay(&clean, &cuts, &picks, cfg), (batch, 0));

            let mut streams = clean;
            match perturbation {
                0 => {
                    let moved = streams[0].remove(0);
                    streams[1].push(moved);
                    streams[1].sort_by_key(|r| r.at);
                }
                1 => {
                    let half = streams[0].len() / 2;
                    let tail = streams[0].split_off(half);
                    streams.push(tail);
                }
                2 => {
                    let mut early = streams[1][0];
                    early.at = Timestamp::from_secs(0);
                    streams[1].push(early);
                }
                _ => {
                    streams.insert(0, Vec::new());
                    streams.insert(2, Vec::new());
                    streams.push(Vec::new());
                }
            }
            let per_node = perturbation == 3;
            proptest::prop_assert_eq!(per_node_streams(&streams), per_node);
            let batch = batch_of(&streams, cfg);
            let rewinds = usize::from(!per_node);
            proptest::prop_assert_eq!(replay(&streams, &cuts, &picks, cfg), (batch.clone(), rewinds));
            proptest::prop_assert_eq!(merge_and_coalesce_observed(streams, cfg, &sink), batch);
        }
    }
}
