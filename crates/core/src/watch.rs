//! The live path: one rolling window and threshold alerts on top of the
//! analysis core.
//!
//! A [`WatchSession`] is the monitoring deployment of the paper's
//! methodology: it drains a [`LogSource`] poll by poll (typically a
//! [`crate::tail::TailSource`] following growing files), extracts
//! records with per-node scanner state, reorders them through a
//! [`WatermarkBuffer`], coalesces with the incremental
//! [`StreamCoalescer`], and keeps every completed episode for the study
//! it finishes at the end. Each episode also enters one rolling window, which every
//! live view reads (windowed MTBE, per-offender rates, windowed
//! propagation pressure) and which drives two of the three alerts:
//! emerging defective offender and XID-95 storm onset. The third fires
//! on an episode persisting longer than [`LONG_PERSISTER`] (the Section
//! 4.3 tail, where a reset is due).
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

use crate::coalesce::{sort_episodes, CoalescedError};
use crate::pipeline::{PipelineBuilder, StudyConfig, StudyResults};
use crate::source::LogSource;
use crate::stream::{StreamCoalescer, WatermarkBuffer};
use dr_logscan::XidExtractor;
use dr_obs::MetricsSink;
use dr_stats::Mtbe;
use dr_xid::{DataError, Duration, GpuId, Timestamp, Xid};
use std::collections::{BTreeMap, VecDeque};
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
    /// Rolling window behind the windowed MTBE, offender rates,
    /// propagation pressure and the offender and storm alerts.
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

/// [`WatchSnapshot::windowed_mtbe`]: characterized episodes inside the
/// rolling window, normalized exactly like the batch overall MTBE but
/// over the window instead of the observation period.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowedMtbe {
    pub window_h: f64,
    /// Characterized episodes inside the window.
    pub count: u64,
    pub mtbe_system_h: Option<f64>,
    pub mtbe_per_node_h: Option<f64>,
}

/// One row of [`WatchSnapshot::offenders`]: a GPU's windowed activity.
/// The counterpart of the counterfactual pass's top-offender ranking,
/// but over a rolling window so an emerging defective GPU surfaces
/// within one window instead of after 855 days.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffenderRate {
    pub gpu: GpuId,
    /// Episodes inside the window.
    pub count: u64,
    pub rate_per_h: f64,
}

/// [`WatchSnapshot::propagation`]: how many nodes currently have
/// multiple distinct GPUs erroring inside the window — the live
/// early-warning version of the batch inter-GPU propagation analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowedPropagation {
    /// Episodes inside the window.
    pub events: u64,
    /// Nodes with ≥ 2 distinct GPUs erroring inside the window.
    pub multi_gpu_nodes: u64,
}

/// The rolling window behind every live view and alert threshold: each
/// episode's start, GPU and XID, held once and ordered by start, plus
/// running counts. An episode is inside the window iff its start is at
/// or after `latest − span`, where `latest` is the greatest start
/// ingested so far.
#[derive(Clone, Debug)]
struct Window {
    span: Duration,
    latest: Option<Timestamp>,
    /// Ordered by start. Episodes close nearly in start order, so an
    /// insert walks back from the end only a few places.
    episodes: VecDeque<(Timestamp, GpuId, Xid)>,
    /// Characterized episodes inside the window.
    characterized: u64,
    /// XID-95 (uncontained ECC) episodes inside the window.
    xid95: u64,
    /// Episodes inside the window per GPU; GPUs with none are removed.
    per_gpu: BTreeMap<GpuId, u64>,
}

impl Window {
    fn new(span: Duration) -> Self {
        Window {
            span,
            latest: None,
            episodes: VecDeque::new(),
            characterized: 0,
            xid95: 0,
            per_gpu: BTreeMap::new(),
        }
    }

    /// Advance the horizon to the episode's start if it is the latest,
    /// evict what fell behind it, and keep the episode if it is inside.
    fn ingest(&mut self, e: &CoalescedError) {
        let latest = self.latest.map_or(e.start, |l| l.max(e.start));
        self.latest = Some(latest);
        let horizon = latest.saturating_sub(self.span);
        while let Some(&(start, gpu, xid)) = self.episodes.front() {
            if start >= horizon {
                break;
            }
            self.episodes.pop_front();
            self.tally(gpu, xid, false);
        }
        if e.start >= horizon {
            let at = self
                .episodes
                .iter()
                .rposition(|&(start, _, _)| start <= e.start)
                .map_or(0, |i| i + 1);
            self.episodes.insert(at, (e.start, e.gpu, e.xid));
            self.tally(e.gpu, e.xid, true);
        }
    }

    fn tally(&mut self, gpu: GpuId, xid: Xid, add: bool) {
        let step = |n: &mut u64| if add { *n += 1 } else { *n -= 1 };
        if xid.is_characterized() {
            step(&mut self.characterized);
        }
        if xid == Xid::UncontainedEcc {
            step(&mut self.xid95);
        }
        let n = self.per_gpu.entry(gpu).or_default();
        step(n);
        if *n == 0 {
            self.per_gpu.remove(&gpu);
        }
    }

    /// Episodes of one GPU inside the window.
    fn count_for(&self, gpu: GpuId) -> u64 {
        self.per_gpu.get(&gpu).copied().unwrap_or(0)
    }

    fn windowed_mtbe(&self, node_count: u32) -> WindowedMtbe {
        let window_h = self.span.as_hours_f64();
        let count = self.characterized;
        let (mtbe_system_h, mtbe_per_node_h) = if window_h > 0.0 && node_count > 0 {
            let mtbe = Mtbe::new(window_h, node_count);
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

    /// Active GPUs sorted by windowed count (desc), ties by id — a
    /// deterministic leaderboard.
    fn offenders(&self) -> Vec<OffenderRate> {
        let hours = self.span.as_hours_f64();
        let mut rows: Vec<OffenderRate> = self
            .per_gpu
            .iter()
            .map(|(&gpu, &count)| OffenderRate {
                gpu,
                count,
                rate_per_h: if hours > 0.0 { count as f64 / hours } else { 0.0 },
            })
            .collect();
        rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.gpu.cmp(&b.gpu)));
        rows
    }

    fn propagation(&self) -> WindowedPropagation {
        // `per_gpu` is ordered by node first, so a node's GPUs are adjacent.
        let mut multi_gpu_nodes = 0;
        let mut gpus = self.per_gpu.keys().map(|g| g.node).peekable();
        while let Some(node) = gpus.next() {
            let mut distinct = 1;
            while gpus.next_if_eq(&node).is_some() {
                distinct += 1;
            }
            if distinct >= 2 {
                multi_gpu_nodes += 1;
            }
        }
        WindowedPropagation {
            events: self.episodes.len() as u64,
            multi_gpu_nodes,
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
    /// Completed episodes observed (kept, and entered into the window).
    pub episodes: u64,
    /// Records dropped for arriving behind the released watermark; the
    /// session converges to the batch answer iff this stays 0.
    pub late_dropped: u64,
}

/// Point-in-time view of the live session and its rolling window.
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
    window: Window,
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
            window: Window::new(cfg.window),
            alerts: Vec::new(),
            alerts_emitted: 0,
            latest_event: None,
            stats: WatchStats::default(),
            cfg,
        }
    }

    /// One poll cycle: pull chunks until the source reports caught-up
    /// (`Ok(None)`), extract, reorder through the watermark, coalesce,
    /// and observe completed episodes in the rolling window.
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
        let (prev, prev_storm) = (self.window.count_for(e.gpu), self.window.xid95);
        self.window.ingest(&e);
        let (count, storm) = (self.window.count_for(e.gpu), self.window.xid95);
        if prev < self.cfg.offender_threshold && count >= self.cfg.offender_threshold {
            self.alerts.push(Alert {
                at: e.start,
                kind: AlertKind::EmergingOffender { gpu: e.gpu, count },
            });
        }
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
            windowed_mtbe: self.window.windowed_mtbe(self.cfg.study.node_count),
            offenders: self.window.offenders(),
            propagation: self.window.propagation(),
            alerts_total: self.alerts.len() as u64,
        }
    }

    /// End of stream: flush the watermark buffer and close every open
    /// episode, observing the remnants in the rolling window and alert
    /// detectors. Afterwards [`WatchSession::snapshot`] and
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

    /// End of session: [`WatchSession::drain`], then finish the study
    /// from the complete episode set — re-sorted into batch order —
    /// through [`PipelineBuilder::run_coalesced`]. Over a completed
    /// corpus with `late_dropped == 0` the result is bit-identical to
    /// `gpures analyze` on the same logs.
    pub fn finish_observed(mut self, sink: &MetricsSink) -> StudyResults {
        self.drain();
        let mut episodes = std::mem::take(&mut self.episodes);
        sort_episodes(&mut episodes);
        PipelineBuilder::new(self.cfg.study)
            .metrics(sink.clone())
            .run_coalesced(episodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InMemorySource;
    use dr_xid::NodeId;

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
        let mut acc = Window::new(Duration::from_secs(3600));
        acc.ingest(&ep(0, 1, 0, Xid::MmuError));
        acc.ingest(&ep(100, 1, 0, Xid::MmuError));
        assert_eq!(acc.windowed_mtbe(4).count, 2);
        // 2 hours later, both originals have aged out.
        acc.ingest(&ep(7_200, 1, 0, Xid::MmuError));
        let s = acc.windowed_mtbe(4);
        assert_eq!(s.count, 1);
        assert!(s.mtbe_system_h.is_some());
        // Job-induced XIDs are not characterized and never counted.
        acc.ingest(&ep(7_300, 1, 0, Xid::GraphicsEngineException));
        assert_eq!(acc.windowed_mtbe(4).count, 1);
    }

    #[test]
    fn offender_rates_rank_deterministically_and_age_out() {
        let mut acc = Window::new(Duration::from_secs(1_000));
        for k in 0..3 {
            acc.ingest(&ep(10 + k, 1, 0, Xid::MmuError));
        }
        acc.ingest(&ep(20, 2, 0, Xid::MmuError));
        let rows = acc.offenders();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].gpu, GpuId::at_slot(NodeId(1), 0));
        assert_eq!(rows[0].count, 3);
        assert_eq!(acc.count_for(GpuId::at_slot(NodeId(2), 0)), 1);
        // Far in the future the window is empty again.
        acc.ingest(&ep(10_000, 3, 0, Xid::MmuError));
        assert_eq!(acc.count_for(GpuId::at_slot(NodeId(1), 0)), 0);
        assert_eq!(acc.offenders().len(), 1);
    }

    #[test]
    fn windowed_propagation_spots_multi_gpu_nodes() {
        let mut acc = Window::new(Duration::from_secs(100));
        acc.ingest(&ep(0, 1, 0, Xid::NvlinkError));
        acc.ingest(&ep(5, 1, 1, Xid::NvlinkError));
        acc.ingest(&ep(7, 2, 0, Xid::MmuError));
        let s = acc.propagation();
        assert_eq!(s.events, 3);
        assert_eq!(s.multi_gpu_nodes, 1);
    }

    #[test]
    fn window_membership_is_exact_when_episodes_close_out_of_start_order() {
        // One GPU: a short episode starting at 5 000 s closes first, then a
        // long one that started at 2 000 s closes after it. An episode on
        // another GPU at 5 800 s moves the horizon to 2 200 s, between the
        // two starts, so only the later one is still inside the window.
        let cfg = WatchConfig {
            window: Duration::from_secs(3_600),
            ..WatchConfig::default()
        };
        let mut session = WatchSession::new(cfg);
        session.observe_episode(ep(5_000, 1, 0, Xid::MmuError));
        let mut long = ep(2_000, 1, 0, Xid::MmuError);
        long.last = Timestamp::from_secs(5_500);
        session.observe_episode(long);
        assert_eq!(session.snapshot().offenders[0].count, 2);
        session.observe_episode(ep(5_800, 2, 0, Xid::MmuError));

        let s = session.snapshot();
        let counts: Vec<(GpuId, u64)> = s.offenders.iter().map(|r| (r.gpu, r.count)).collect();
        assert_eq!(
            counts,
            vec![(GpuId::at_slot(NodeId(1), 0), 1), (GpuId::at_slot(NodeId(2), 0), 1)]
        );
        assert_eq!(s.windowed_mtbe.count, 2);
        assert_eq!(s.propagation.events, 2);
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
