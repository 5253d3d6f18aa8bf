//! The live path: rolling-window accumulators and threshold alerts on
//! top of the fold-based analysis core.
//!
//! A [`WatchSession`] is the monitoring deployment of the paper's
//! methodology: it drains a [`LogSource`] poll by poll (typically a
//! [`crate::tail::TailSource`] following growing files), extracts
//! records with per-node scanner state, reorders them through a
//! [`WatermarkBuffer`], coalesces with the incremental
//! [`StreamCoalescer`], and folds every completed episode into
//! rolling-window [`AnalysisEngine`] accumulators (windowed MTBE,
//! per-offender rates, windowed propagation pressure) plus three
//! alerts: emerging defective offender, XID-95 storm onset, and an
//! episode persisting longer than [`LONG_PERSISTER`] (the Section 4.3
//! tail, where a reset is due).
//!
//! **Determinism.** Everything here is keyed on *event time* — the
//! timestamps inside the log lines — never on a wall clock. Alerts
//! trigger on crossing edges of windowed counts or on a completed
//! episode's persistence, so replaying the same
//! corpus yields the same alerts at the same event times regardless of
//! poll cadence. Draining a completed corpus and calling
//! [`WatchSession::finish_observed`] produces a [`StudyResults`]
//! bit-identical to `gpures analyze` on the same logs, provided no
//! record was dropped as late ([`WatchSession::stats`]'s
//! `late_dropped == 0`).

use crate::coalesce::CoalescedError;
use crate::engine::AnalysisEngine;
use crate::pipeline::{PipelineBuilder, StudyConfig, StudyResults};
use crate::source::LogSource;
use crate::stream::{StreamCoalescer, WatermarkBuffer};
use dr_logscan::XidExtractor;
use dr_obs::MetricsSink;
use dr_stats::Mtbe;
use dr_xid::{DataError, Duration, GpuId, NodeId, Timestamp, Xid};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Tuning for a live watch session. All windows and thresholds are in
/// event time.
#[derive(Clone, Copy, Debug)]
pub struct WatchConfig {
    /// The batch study configuration the session converges to.
    pub study: StudyConfig,
    /// Allowed out-of-orderness: records older than the latest event
    /// time seen minus this lateness are released; anything arriving
    /// even later is counted as dropped.
    pub lateness: Duration,
    /// Rolling window for the windowed MTBE / offender-rate /
    /// propagation accumulators.
    pub window: Duration,
    /// Windowed episode count at which a GPU becomes an emerging
    /// offender (crossing edge fires the alert).
    pub offender_threshold: u64,
    /// Windowed XID-95 (uncontained ECC) episode count at which a storm
    /// alert fires.
    pub storm_threshold: u64,
    /// Per-poll chunk size handed to the source.
    pub chunk_bytes: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            study: StudyConfig::ampere_study(),
            lateness: Duration::from_secs(120),
            window: Duration::from_secs(24 * 3600),
            offender_threshold: 5,
            storm_threshold: 3,
            chunk_bytes: 1 << 20,
        }
    }
}

/// Windowed overall MTBE: characterized episodes inside the rolling
/// window, normalized exactly like the batch overall MTBE but over the
/// window instead of the observation period.
#[derive(Clone, Debug)]
pub struct WindowedMtbeAcc {
    window: Duration,
    node_count: u32,
    starts: VecDeque<Timestamp>,
    latest: Option<Timestamp>,
}

/// [`WindowedMtbeAcc::snapshot`] output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowedMtbe {
    pub window_h: f64,
    /// Characterized episodes inside the window.
    pub count: u64,
    pub mtbe_system_h: Option<f64>,
    pub mtbe_per_node_h: Option<f64>,
}

impl WindowedMtbeAcc {
    pub fn new(window: Duration, node_count: u32) -> Self {
        WindowedMtbeAcc {
            window,
            node_count,
            starts: VecDeque::new(),
            latest: None,
        }
    }

    fn evict(&mut self) {
        if let Some(latest) = self.latest {
            let horizon = latest.saturating_sub(self.window);
            while self.starts.front().is_some_and(|&t| t < horizon) {
                self.starts.pop_front();
            }
        }
    }
}

impl AnalysisEngine for WindowedMtbeAcc {
    type Snapshot = WindowedMtbe;

    fn ingest(&mut self, e: &CoalescedError) {
        self.latest = Some(self.latest.map_or(e.start, |l| l.max(e.start)));
        if e.xid.is_characterized() {
            self.starts.push_back(e.start);
        }
        self.evict();
    }

    fn snapshot(&self) -> WindowedMtbe {
        let window_h = self.window.as_hours_f64();
        let count = self.starts.len() as u64;
        let (mtbe_system_h, mtbe_per_node_h) = if window_h > 0.0 && self.node_count > 0 {
            let mtbe = Mtbe::new(window_h, self.node_count);
            (mtbe.system_hours(count), mtbe.per_node_hours(count))
        } else {
            (None, None)
        };
        WindowedMtbe {
            window_h,
            count,
            mtbe_system_h,
            mtbe_per_node_h,
        }
    }
}

/// Windowed per-GPU episode rates: which devices are erroring *now*.
/// The counterpart of the counterfactual pass's top-offender ranking,
/// but over a rolling window so an emerging defective GPU surfaces
/// within one window instead of after 855 days.
#[derive(Clone, Debug, Default)]
pub struct OffenderRateAcc {
    window: Duration,
    latest: Option<Timestamp>,
    per_gpu: BTreeMap<GpuId, VecDeque<Timestamp>>,
}

/// One row of [`OffenderRateAcc::snapshot`]: a GPU's windowed activity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffenderRate {
    pub gpu: GpuId,
    /// Episodes inside the window.
    pub count: u64,
    pub rate_per_h: f64,
}

impl OffenderRateAcc {
    pub fn new(window: Duration) -> Self {
        OffenderRateAcc {
            window,
            latest: None,
            per_gpu: BTreeMap::new(),
        }
    }

    /// Current windowed episode count for one GPU.
    pub fn count_for(&self, gpu: GpuId) -> u64 {
        self.per_gpu.get(&gpu).map_or(0, |q| q.len() as u64)
    }

    fn evict(&mut self) {
        if let Some(latest) = self.latest {
            let horizon = latest.saturating_sub(self.window);
            self.per_gpu.retain(|_, q| {
                while q.front().is_some_and(|&t| t < horizon) {
                    q.pop_front();
                }
                !q.is_empty()
            });
        }
    }
}

impl AnalysisEngine for OffenderRateAcc {
    type Snapshot = Vec<OffenderRate>;

    fn ingest(&mut self, e: &CoalescedError) {
        self.latest = Some(self.latest.map_or(e.start, |l| l.max(e.start)));
        self.per_gpu.entry(e.gpu).or_default().push_back(e.start);
        self.evict();
    }

    /// Active GPUs sorted by windowed count (desc), ties by id — a
    /// deterministic leaderboard.
    fn snapshot(&self) -> Vec<OffenderRate> {
        let hours = self.window.as_hours_f64();
        let mut rows: Vec<OffenderRate> = self
            .per_gpu
            .iter()
            .map(|(&gpu, q)| OffenderRate {
                gpu,
                count: q.len() as u64,
                rate_per_h: if hours > 0.0 {
                    q.len() as f64 / hours
                } else {
                    0.0
                },
            })
            .collect();
        rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.gpu.cmp(&b.gpu)));
        rows
    }
}

/// Windowed propagation pressure: how many nodes currently have multiple
/// distinct GPUs erroring inside the window — the live early-warning
/// version of the batch inter-GPU propagation analysis.
#[derive(Clone, Debug, Default)]
pub struct WindowedPropagationAcc {
    window: Duration,
    latest: Option<Timestamp>,
    events: VecDeque<(Timestamp, NodeId, GpuId)>,
}

/// [`WindowedPropagationAcc::snapshot`] output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowedPropagation {
    /// Episodes inside the window.
    pub events: u64,
    /// Nodes with ≥ 2 distinct GPUs erroring inside the window.
    pub multi_gpu_nodes: u64,
}

impl WindowedPropagationAcc {
    pub fn new(window: Duration) -> Self {
        WindowedPropagationAcc {
            window,
            latest: None,
            events: VecDeque::new(),
        }
    }

    fn evict(&mut self) {
        if let Some(latest) = self.latest {
            let horizon = latest.saturating_sub(self.window);
            while self.events.front().is_some_and(|&(t, _, _)| t < horizon) {
                self.events.pop_front();
            }
        }
    }
}

impl AnalysisEngine for WindowedPropagationAcc {
    type Snapshot = WindowedPropagation;

    fn ingest(&mut self, e: &CoalescedError) {
        self.latest = Some(self.latest.map_or(e.start, |l| l.max(e.start)));
        self.events.push_back((e.start, e.gpu.node, e.gpu));
        self.evict();
    }

    fn snapshot(&self) -> WindowedPropagation {
        let mut per_node: BTreeMap<NodeId, BTreeSet<GpuId>> = BTreeMap::new();
        for &(_, node, gpu) in &self.events {
            per_node.entry(node).or_default().insert(gpu);
        }
        WindowedPropagation {
            events: self.events.len() as u64,
            multi_gpu_nodes: per_node.values().filter(|g| g.len() >= 2).count() as u64,
        }
    }
}

/// Persistence beyond which a completed episode raises
/// [`AlertKind::LongPersister`]: the paper's long tail, where a GPU reset
/// is recommended.
pub const LONG_PERSISTER: Duration = Duration::from_secs(600);

/// Why an alert fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// A GPU's windowed episode count crossed the offender threshold.
    EmergingOffender { gpu: GpuId, count: u64 },
    /// Windowed XID-95 (uncontained ECC) episodes crossed the storm
    /// threshold — the onset signature Section 5 calls out on H100.
    Xid95Storm { count: u64 },
    /// A completed episode persisted longer than [`LONG_PERSISTER`].
    LongPersister {
        gpu: GpuId,
        xid: Xid,
        persistence: Duration,
        merged: u32,
    },
}

/// A fired alert, stamped with the *event time* of the episode
/// that caused it (never wall-clock time — replay gives identical
/// alerts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alert {
    pub at: Timestamp,
    pub kind: AlertKind,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = (self.at - Timestamp::EPOCH).as_secs_f64();
        match self.kind {
            AlertKind::EmergingOffender { gpu, count } => write!(
                f,
                "[t+{secs:.0}s] emerging offender: {gpu:?} reached {count} episodes in window"
            ),
            AlertKind::Xid95Storm { count } => write!(
                f,
                "[t+{secs:.0}s] XID-95 storm onset: {count} uncontained ECC episodes in window"
            ),
            AlertKind::LongPersister {
                gpu,
                xid,
                persistence,
                merged,
            } => write!(
                f,
                "[t+{secs:.0}s] long-persisting {xid} on {gpu}: {:.0}s, {merged} lines; reset recommended",
                persistence.as_secs_f64()
            ),
        }
    }
}

/// Cumulative session counters (also returned per poll as a delta).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchStats {
    pub polls: u64,
    pub bytes: u64,
    pub lines: u64,
    pub records: u64,
    /// Records released past the watermark into the coalescer.
    pub released: u64,
    /// Completed episodes folded into the accumulators.
    pub episodes: u64,
    /// Records dropped for arriving behind the released watermark; the
    /// session converges to the batch answer iff this stays 0.
    pub late_dropped: u64,
}

/// Point-in-time view of the live accumulators.
#[derive(Clone, Debug)]
pub struct WatchSnapshot {
    /// Latest event time folded so far.
    pub as_of: Option<Timestamp>,
    pub stats: WatchStats,
    /// Records still held back by the watermark.
    pub pending: u64,
    /// Episodes currently open in the coalescer.
    pub open_episodes: u64,
    pub windowed_mtbe: WindowedMtbe,
    pub offenders: Vec<OffenderRate>,
    pub propagation: WindowedPropagation,
    pub alerts_total: u64,
}

/// XID-95 storm detector: a windowed count of uncontained-ECC episodes.
#[derive(Clone, Debug, Default)]
struct StormAcc {
    window: Duration,
    latest: Option<Timestamp>,
    starts: VecDeque<Timestamp>,
}

impl StormAcc {
    fn new(window: Duration) -> Self {
        StormAcc {
            window,
            latest: None,
            starts: VecDeque::new(),
        }
    }

    fn count(&self) -> u64 {
        self.starts.len() as u64
    }

    fn ingest(&mut self, e: &CoalescedError) {
        self.latest = Some(self.latest.map_or(e.start, |l| l.max(e.start)));
        if e.xid == Xid::UncontainedEcc {
            self.starts.push_back(e.start);
        }
        if let Some(latest) = self.latest {
            let horizon = latest.saturating_sub(self.window);
            while self.starts.front().is_some_and(|&t| t < horizon) {
                self.starts.pop_front();
            }
        }
    }
}

/// A live analysis session over a polled [`LogSource`].
pub struct WatchSession {
    cfg: WatchConfig,
    /// One extractor per source node: syslog year inference is serial
    /// per node, so each node's lines must flow through its own scanner.
    extractors: Vec<XidExtractor>,
    buffer: WatermarkBuffer,
    coalescer: StreamCoalescer,
    /// Every completed episode, in completion order (the final results
    /// re-sort into batch order).
    episodes: Vec<CoalescedError>,
    windowed_mtbe: WindowedMtbeAcc,
    offenders: OffenderRateAcc,
    propagation: WindowedPropagationAcc,
    storm: StormAcc,
    alerts: Vec<Alert>,
    /// Alerts already handed out by [`WatchSession::take_new_alerts`].
    alerts_emitted: usize,
    latest_event: Option<Timestamp>,
    stats: WatchStats,
}

impl WatchSession {
    pub fn new(cfg: WatchConfig) -> Self {
        WatchSession {
            extractors: Vec::new(),
            buffer: WatermarkBuffer::new(cfg.lateness),
            coalescer: StreamCoalescer::new(cfg.study.coalesce),
            episodes: Vec::new(),
            windowed_mtbe: WindowedMtbeAcc::new(cfg.window, cfg.study.node_count),
            offenders: OffenderRateAcc::new(cfg.window),
            propagation: WindowedPropagationAcc::new(cfg.window),
            storm: StormAcc::new(cfg.window),
            alerts: Vec::new(),
            alerts_emitted: 0,
            latest_event: None,
            stats: WatchStats::default(),
            cfg,
        }
    }

    /// One poll cycle: pull chunks until the source reports caught-up
    /// (`Ok(None)`), extract, reorder through the watermark, coalesce,
    /// and fold completed episodes into the rolling accumulators.
    /// Returns this cycle's delta; cumulative totals live in
    /// [`WatchSession::stats`]. Purely event-time driven — the cycle
    /// does the same thing no matter when or how often it runs.
    pub fn run_observed<'s>(
        &mut self,
        source: &mut dyn LogSource<'s>,
        sink: &MetricsSink,
    ) -> Result<WatchStats, DataError> {
        use dr_obs::{Counter, Stage};
        let n_nodes = source.nodes().len();
        while self.extractors.len() < n_nodes {
            self.extractors.push(XidExtractor::new());
        }
        let mut delta = WatchStats {
            polls: 1,
            ..WatchStats::default()
        };
        {
            let _span = sink.span(Stage::Extract, "poll");
            while let Some(chunk) = source.next_chunk(self.cfg.chunk_bytes)? {
                crate::source::check_chunk_node(&chunk, n_nodes)?;
                delta.lines += chunk.lines.len() as u64;
                delta.bytes += chunk.bytes;
                // In range: the check above, and the table grown to
                // `n_nodes` extractors at the top of the poll.
                let ex = &mut self.extractors[chunk.node];
                let recs = ex.extract_all(&chunk.lines);
                delta.records += recs.len() as u64;
                for r in recs {
                    self.buffer.push(r);
                }
            }
        }
        sink.add(Stage::Extract, Counter::Bytes, delta.bytes);
        sink.add(Stage::Extract, Counter::Lines, delta.lines);
        sink.add(Stage::Extract, Counter::Records, delta.records);

        let released = self.buffer.drain_ready();
        delta.released = released.len() as u64;
        let mut closed = Vec::new();
        for r in &released {
            self.coalescer.push_into(r, &mut closed);
            for e in closed.drain(..) {
                self.observe_episode(e);
                delta.episodes += 1;
            }
        }
        sink.add(Stage::Coalesce, Counter::Records, delta.released);
        sink.add(Stage::Coalesce, Counter::Episodes, delta.episodes);

        delta.late_dropped = self.buffer.late_dropped() - self.stats.late_dropped;
        self.stats.polls += delta.polls;
        self.stats.bytes += delta.bytes;
        self.stats.lines += delta.lines;
        self.stats.records += delta.records;
        self.stats.released += delta.released;
        self.stats.episodes += delta.episodes;
        self.stats.late_dropped += delta.late_dropped;
        Ok(delta)
    }

    fn observe_episode(&mut self, e: CoalescedError) {
        self.latest_event = Some(self.latest_event.map_or(e.last, |l| l.max(e.last)));
        self.windowed_mtbe.ingest(&e);
        self.propagation.ingest(&e);

        let prev = self.offenders.count_for(e.gpu);
        self.offenders.ingest(&e);
        let count = self.offenders.count_for(e.gpu);
        if prev < self.cfg.offender_threshold && count >= self.cfg.offender_threshold {
            self.alerts.push(Alert {
                at: e.start,
                kind: AlertKind::EmergingOffender { gpu: e.gpu, count },
            });
        }

        let prev_storm = self.storm.count();
        self.storm.ingest(&e);
        let storm = self.storm.count();
        if prev_storm < self.cfg.storm_threshold && storm >= self.cfg.storm_threshold {
            self.alerts.push(Alert {
                at: e.start,
                kind: AlertKind::Xid95Storm { count: storm },
            });
        }

        if e.persistence() > LONG_PERSISTER {
            self.alerts.push(Alert {
                at: e.start,
                kind: AlertKind::LongPersister {
                    gpu: e.gpu,
                    xid: e.xid,
                    persistence: e.persistence(),
                    merged: e.merged,
                },
            });
        }

        self.episodes.push(e);
    }

    /// Cumulative counters.
    pub fn stats(&self) -> WatchStats {
        self.stats
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts fired since the last call (for appending to an alert log).
    pub fn take_new_alerts(&mut self) -> Vec<Alert> {
        let new = self.alerts.get(self.alerts_emitted..).unwrap_or(&[]).to_vec();
        self.alerts_emitted = self.alerts.len();
        new
    }

    /// Current rolling-window view.
    pub fn snapshot(&self) -> WatchSnapshot {
        WatchSnapshot {
            as_of: self.latest_event,
            stats: self.stats,
            pending: self.buffer.pending_len() as u64,
            open_episodes: self.coalescer.open_count() as u64,
            windowed_mtbe: self.windowed_mtbe.snapshot(),
            offenders: self.offenders.snapshot(),
            propagation: self.propagation.snapshot(),
            alerts_total: self.alerts.len() as u64,
        }
    }

    /// End of stream: flush the watermark buffer and close every open
    /// episode, folding the remnants through the rolling accumulators
    /// and alert detectors. Afterwards [`WatchSession::snapshot`] and
    /// [`WatchSession::alerts`] reflect the complete corpus — call this
    /// (or check `take_new_alerts` after it) before dropping a session,
    /// or threshold crossings inside the final open episodes are never
    /// surfaced. Idempotent.
    pub fn drain(&mut self) {
        let mut closed = Vec::new();
        for r in self.buffer.flush() {
            self.coalescer.push_into(&r, &mut closed);
            for e in closed.drain(..) {
                self.observe_episode(e);
            }
        }
        let coalescer = std::mem::replace(
            &mut self.coalescer,
            StreamCoalescer::new(self.cfg.study.coalesce),
        );
        for e in coalescer.finish() {
            self.observe_episode(e);
        }
    }

    /// End of session: [`WatchSession::drain`], then fold the complete
    /// episode set — re-sorted into batch order — through the
    /// incremental [`crate::engine::StudyEngine`]. Over a completed
    /// corpus with `late_dropped == 0` the result is bit-identical to
    /// `gpures analyze` on the same logs.
    pub fn finish_observed(mut self, sink: &MetricsSink) -> StudyResults {
        self.drain();
        let mut episodes = std::mem::take(&mut self.episodes);
        episodes.sort_by_key(|e| (e.start, e.gpu, e.xid, e.detail));
        PipelineBuilder::new(self.cfg.study)
            .metrics(sink.clone())
            .run_coalesced(episodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InMemorySource;

    fn line(secs: u64, node: u32, slot: usize, xid: Xid) -> String {
        dr_xid::syslog::format_line(
            &dr_xid::ErrorRecord::new(
                Timestamp::from_secs(secs),
                GpuId::at_slot(NodeId(node), slot),
                xid,
                dr_xid::ErrorDetail::new(1, 2),
            ),
            100,
        )
    }

    fn ep(secs: u64, node: u32, slot: usize, xid: Xid) -> CoalescedError {
        let start = Timestamp::from_secs(secs);
        CoalescedError {
            gpu: GpuId::at_slot(NodeId(node), slot),
            xid,
            detail: dr_xid::ErrorDetail::NONE,
            start,
            last: start,
            merged: 1,
        }
    }

    #[test]
    fn windowed_mtbe_counts_only_inside_the_window() {
        let mut acc = WindowedMtbeAcc::new(Duration::from_secs(3600), 4);
        acc.ingest(&ep(0, 1, 0, Xid::MmuError));
        acc.ingest(&ep(100, 1, 0, Xid::MmuError));
        assert_eq!(acc.snapshot().count, 2);
        // 2 hours later, both originals have aged out.
        acc.ingest(&ep(7_200, 1, 0, Xid::MmuError));
        let s = acc.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.mtbe_system_h.is_some());
        // Job-induced XIDs are not characterized and never counted.
        acc.ingest(&ep(7_300, 1, 0, Xid::GraphicsEngineException));
        assert_eq!(acc.snapshot().count, 1);
    }

    #[test]
    fn offender_rates_rank_deterministically_and_age_out() {
        let mut acc = OffenderRateAcc::new(Duration::from_secs(1_000));
        for k in 0..3 {
            acc.ingest(&ep(10 + k, 1, 0, Xid::MmuError));
        }
        acc.ingest(&ep(20, 2, 0, Xid::MmuError));
        let rows = acc.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].gpu, GpuId::at_slot(NodeId(1), 0));
        assert_eq!(rows[0].count, 3);
        assert_eq!(acc.count_for(GpuId::at_slot(NodeId(2), 0)), 1);
        // Far in the future the window is empty again.
        acc.ingest(&ep(10_000, 3, 0, Xid::MmuError));
        assert_eq!(acc.count_for(GpuId::at_slot(NodeId(1), 0)), 0);
        assert_eq!(acc.snapshot().len(), 1);
    }

    #[test]
    fn windowed_propagation_spots_multi_gpu_nodes() {
        let mut acc = WindowedPropagationAcc::new(Duration::from_secs(100));
        acc.ingest(&ep(0, 1, 0, Xid::NvlinkError));
        acc.ingest(&ep(5, 1, 1, Xid::NvlinkError));
        acc.ingest(&ep(7, 2, 0, Xid::MmuError));
        let s = acc.snapshot();
        assert_eq!(s.events, 3);
        assert_eq!(s.multi_gpu_nodes, 1);
    }

    #[test]
    fn emerging_offender_alert_fires_once_on_the_crossing_edge() {
        let cfg = WatchConfig {
            offender_threshold: 3,
            ..WatchConfig::default()
        };
        let mut session = WatchSession::new(cfg);
        for k in 0..5u64 {
            session.observe_episode(ep(100 * k, 7, 2, Xid::MmuError));
        }
        let alerts = session.take_new_alerts();
        assert_eq!(alerts.len(), 1, "one crossing, one alert: {alerts:?}");
        match alerts[0].kind {
            AlertKind::EmergingOffender { gpu, count } => {
                assert_eq!(gpu, GpuId::at_slot(NodeId(7), 2));
                assert_eq!(count, 3);
            }
            other => panic!("unexpected alert {other:?}"),
        }
        // Event-time stamp of the crossing episode, deterministic.
        assert_eq!(alerts[0].at, Timestamp::from_secs(200));
        assert!(session.take_new_alerts().is_empty());
    }

    #[test]
    fn xid95_storm_alert_fires_on_onset() {
        let cfg = WatchConfig {
            storm_threshold: 2,
            ..WatchConfig::default()
        };
        let mut session = WatchSession::new(cfg);
        session.observe_episode(ep(0, 1, 0, Xid::UncontainedEcc));
        session.observe_episode(ep(50, 2, 0, Xid::UncontainedEcc));
        let alerts = session.take_new_alerts();
        assert!(
            alerts
                .iter()
                .any(|a| matches!(a.kind, AlertKind::Xid95Storm { count: 2 })),
            "alerts: {alerts:?}"
        );
        let text = alerts
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("XID-95 storm onset"));
        assert!(text.contains("[t+50s]"));
    }

    #[test]
    fn long_persister_alert_fires_only_beyond_the_limit() {
        let mut session = WatchSession::new(WatchConfig::default());
        let mut long = ep(5_000, 3, 1, Xid::NvlinkError);
        long.last = long.start + LONG_PERSISTER; // at the limit: no alert
        session.observe_episode(long);
        long.last = long.last + Duration::from_secs(1);
        long.merged = 121;
        session.observe_episode(long);
        let alerts = session.take_new_alerts();
        assert_eq!(alerts.len(), 1, "alerts: {alerts:?}");
        assert_eq!(
            alerts[0].to_string(),
            "[t+5000s] long-persisting XID 74 (NVLink Error) on gpub003/0000:0f:00: 601s, 121 lines; \
             reset recommended"
        );
    }

    #[test]
    fn session_drains_a_source_and_converges_to_the_batch_pipeline() {
        // Two nodes, interleaved event times, with a same-identity burst
        // that must coalesce. The drained session's final StudyResults
        // must be Debug-identical to the batch pipeline on the same text.
        const DAY: u64 = 86_400;
        let logs: Vec<(NodeId, Vec<String>)> = vec![
            (
                NodeId(1),
                vec![
                    line(DAY + 10_800, 1, 0, Xid::FallenOffBus),
                    line(DAY + 10_802, 1, 0, Xid::FallenOffBus), // coalesces
                    line(DAY + 32_400, 1, 1, Xid::MmuError),
                ],
            ),
            (
                NodeId(2),
                vec![
                    line(DAY + 14_400, 2, 0, Xid::NvlinkError),
                    line(2 * DAY + 3_600, 2, 0, Xid::UncontainedEcc),
                ],
            ),
        ];
        let cfg = WatchConfig::default();
        let study = cfg.study;

        let mut session = WatchSession::new(cfg);
        let mut source = InMemorySource::new(&logs);
        let sink = MetricsSink::disabled();
        let delta = session.run_observed(&mut source, &sink).expect("drain");
        assert_eq!(delta.lines, 5);
        assert!(delta.records >= 4, "records: {}", delta.records);
        assert_eq!(session.stats().late_dropped, 0);
        let live = session.finish_observed(&sink);

        let (batch, _) = crate::pipeline::PipelineBuilder::new(study).run_text(&logs);
        assert_eq!(format!("{live:?}"), format!("{batch:?}"));
    }

    #[test]
    fn snapshot_reflects_progress_without_disturbing_state() {
        let mut session = WatchSession::new(WatchConfig::default());
        session.observe_episode(ep(10, 1, 0, Xid::MmuError));
        session.observe_episode(ep(20, 1, 0, Xid::DoubleBitEcc));
        let a = session.snapshot();
        let b = session.snapshot();
        assert_eq!(a.windowed_mtbe, b.windowed_mtbe);
        assert_eq!(a.offenders, b.offenders);
        assert_eq!(a.as_of, Some(Timestamp::from_secs(20)));
        assert_eq!(a.propagation.events, 2);
    }
}
