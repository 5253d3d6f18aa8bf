//! Incremental, fold-based analysis core.
//!
//! [`AnalysisEngine`] is the fold shape of the study: `ingest` one
//! coalesced episode at a time, `snapshot` the answer whenever you want
//! it. [`StudyEngine`] is the whole study as one such fold, and is what
//! [`crate::pipeline::PipelineBuilder::run_coalesced`] runs; the downtime
//! summary is [`crate::downtime::downtime_stats`], called when the engine
//! finishes. The live path (`crate::watch`) keeps its episodes for this
//! fold and reads its live views from one rolling window of its own.
//!
//! `StudyEngine` keeps one shared episode index and every study section
//! finishes from it:
//!
//! - the episodes themselves, held once, in the vector that becomes
//!   [`StudyResults::coalesced`];
//! - each GPU interned to a dense id on first sight, found again through
//!   an in-crate hash table keyed by `GpuId` (the fold's per-episode
//!   lookup and the job join's per-GPU lookup), with its node, a list of
//!   `u32` positions of its episodes, and its episode count per XID;
//! - one position list per node;
//! - per-XID persistence samples in a dense table indexed by
//!   [`Xid::ordinal`].
//!
//! Per episode the fold does one GPU lookup and a few `Vec` pushes. At
//! finish, the sections walk the GPU and node lists in `GpuId` / `NodeId`
//! order, each list in arrival order stable-sorted by start (a no-op for a
//! start-ordered corpus), and the dense tables in `Xid` order. That is the
//! iteration order of the batch definitions the engine replaced, so every
//! float accumulation runs in the same sequence and the results are
//! bit-identical to them: tier-1 golden digests pin whole result bundles,
//! and a proptest compares the fold with the old map-based route, kept as
//! the test oracle.

use crate::coalesce::CoalescedError;
use crate::counterfactual::finish_counterfactual;
use crate::downtime::{availability, downtime_stats, DowntimeStats};
use crate::job_impact::{finish_job_impact, table3};
use crate::pipeline::{StudyConfig, StudyResults};
use crate::propagation::{finish_propagation, NVLINK_SPREAD_WINDOW};
use crate::stats::{finish_category_mtbe, finish_lost_hours, finish_overall_mtbe, finish_table1};
use dr_faults::DowntimeInterval;
use dr_obs::MetricsSink;
use dr_slurm::JobRecord;
use dr_stats::SummaryStats;
use dr_xid::{GpuId, NodeId, Timestamp, Xid};
use std::collections::BTreeMap;

/// Width of every dense per-XID table: one slot per [`Xid::ordinal`].
pub(crate) const XIDS: usize = Xid::ALL.len();

/// An incremental analysis pass: a fold over a stream of coalesced
/// errors with a read-out that can be taken at any point.
/// Implementations must be deterministic functions of the ingested
/// sequence — never of wall-clock time or iteration luck — so that
/// folding a finished corpus reproduces the batch result exactly and a
/// live session converges to the batch answer when the stream catches
/// up.
pub trait AnalysisEngine {
    /// What [`AnalysisEngine::snapshot`] produces.
    type Snapshot;

    /// Fold one episode into the accumulator.
    fn ingest(&mut self, e: &CoalescedError);

    /// Read the current answer without disturbing the accumulator.
    fn snapshot(&self) -> Self::Snapshot;
}

/// One interned GPU.
#[derive(Clone, Debug)]
struct GpuEntry {
    /// The GPU itself: its key in [`GpuTable`] and its place in `GpuId`
    /// order.
    gpu: GpuId,
    /// Dense id of the GPU's node.
    node: u32,
    /// Positions of the GPU's episodes, in arrival order until
    /// [`EpisodeIndex::sorted`] stable-sorts them by start.
    episodes: Vec<u32>,
    /// Episodes per XID ordinal.
    counts: [u64; XIDS],
}

/// The dense id of each interned GPU, by `GpuId`: an open-addressing
/// table (linear probing, at most half full) over a multiplicative hash
/// of the id's 64 bits. It grows with the GPUs interned, never with the
/// value of an id, so a lookup of a GPU from the jobs table on an
/// unknown or huge node id costs one probe sequence and allocates
/// nothing. Nothing iterates it, so its layout never reaches a result.
#[derive(Clone, Debug, Default)]
struct GpuTable {
    /// A power-of-two number of slots (or none before the first insert).
    slots: Vec<Option<(GpuId, u32)>>,
    len: usize,
}

impl GpuTable {
    /// The slot a probe for `gpu` starts at: the top bits of the packed id
    /// times 2⁶⁴/φ (Fibonacci hashing), so every bit of the node and the
    /// PCI address moves the slot. `slots` must be non-empty.
    fn home(&self, gpu: GpuId) -> usize {
        let key = (u64::from(gpu.node.0) << 32)
            | (u64::from(gpu.pci.domain) << 16)
            | (u64::from(gpu.pci.bus) << 8)
            | u64::from(gpu.pci.device);
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    // dr-lint: hot(begin)
    /// The dense id of `gpu`, if interned.
    fn get(&self, gpu: GpuId) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(gpu);
        // At most half the slots are full, so the probe meets a free one.
        loop {
            match self.slots.get(i)? {
                Some((g, id)) if *g == gpu => return Some(*id),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }
    // dr-lint: hot(end)

    /// Add `gpu`, which must not be in the table yet, with dense id `id`.
    fn insert(&mut self, gpu: GpuId, id: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            let slots = vec![None; (self.slots.len() * 2).max(16)];
            let old = std::mem::replace(&mut self.slots, slots);
            self.len = 0;
            for (g, id) in old.into_iter().flatten() {
                self.insert(g, id);
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(gpu);
        while let Some(Some(_)) = self.slots.get(i) {
            i = (i + 1) & mask;
        }
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = Some((gpu, id));
            self.len += 1;
        }
    }
}

/// The episodes of a study and the one index every section finishes from
/// (see the module docs). The index only ever refers to the episode
/// vector it owns, so no position in it can be out of range for a
/// different slice. Positions are `u32`: the index addresses the first
/// 2³² − 1 episodes (some 140 GB of them) and leaves any beyond out of
/// the per-GPU and per-node lists.
#[derive(Clone, Debug, Default)]
pub(crate) struct EpisodeIndex {
    episodes: Vec<CoalescedError>,
    gpu_ids: GpuTable,
    node_ids: BTreeMap<NodeId, u32>,
    gpus: Vec<GpuEntry>,
    nodes: Vec<Vec<u32>>,
    persistence: [Vec<f64>; XIDS],
}

impl EpisodeIndex {
    // dr-lint: hot(begin)
    /// Keep one episode and index it.
    fn push(&mut self, e: CoalescedError) {
        self.episodes.push(e);
        self.index_from(self.episodes.len() - 1);
    }

    /// Keep a run of episodes and index them. The first run is adopted as
    /// the engine's own episode vector, without a copy.
    fn extend(&mut self, episodes: Vec<CoalescedError>) {
        let first = self.episodes.len();
        if first == 0 {
            self.episodes = episodes;
        } else {
            self.episodes.extend(episodes);
        }
        self.index_from(first);
    }

    /// Index the episodes from position `first` on: one GPU lookup and a
    /// few pushes each.
    fn index_from(&mut self, first: usize) {
        for pos in first..self.episodes.len() {
            let Some(&e) = self.episodes.get(pos) else {
                break;
            };
            let Ok(pos) = u32::try_from(pos) else {
                break;
            };
            let gpu = match self.gpu_ids.get(e.gpu) {
                Some(id) => id,
                None => self.intern(e.gpu),
            };
            let x = e.xid.ordinal();
            if let Some(entry) = self.gpus.get_mut(gpu as usize) {
                entry.episodes.push(pos);
                entry.counts[x] += 1;
                if let Some(list) = self.nodes.get_mut(entry.node as usize) {
                    list.push(pos);
                }
            }
            self.persistence[x].push(e.persistence().as_secs_f64());
        }
    }
    // dr-lint: hot(end)

    /// First sight of a GPU (and maybe of its node): give it a dense id.
    /// Runs only for an episode whose position fits a `u32`, and there
    /// are never more GPUs or nodes than indexed episodes, so the ids
    /// fit too.
    fn intern(&mut self, gpu: GpuId) -> u32 {
        let node = match self.node_ids.get(&gpu.node) {
            Some(&id) => id,
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(Vec::new());
                self.node_ids.insert(gpu.node, id);
                id
            }
        };
        let id = self.gpus.len() as u32;
        self.gpus.push(GpuEntry {
            gpu,
            node,
            episodes: Vec::new(),
            counts: [0; XIDS],
        });
        self.gpu_ids.insert(gpu, id);
        id
    }

    /// Every interned GPU, in `GpuId` order.
    fn gpus_in_order(&self) -> Vec<&GpuEntry> {
        let mut gpus: Vec<&GpuEntry> = self.gpus.iter().collect();
        gpus.sort_unstable_by_key(|g| g.gpu);
        gpus
    }

    /// Every episode, in arrival order.
    pub(crate) fn episodes(&self) -> &[CoalescedError] {
        &self.episodes
    }

    /// Episodes of one XID.
    pub(crate) fn count(&self, xid: Xid) -> u64 {
        self.persistence
            .get(xid.ordinal())
            .map_or(0, |v| v.len() as u64)
    }

    /// Summary of every XID's persistence samples, by ordinal — shared by
    /// Table 1 and the lost-hours tail split.
    pub(crate) fn persistence_summaries(&self) -> [SummaryStats; XIDS] {
        self.persistence
            .each_ref()
            .map(|v| SummaryStats::from_samples(v))
    }

    /// Each GPU with its episode count per XID ordinal, in `GpuId` order.
    pub(crate) fn gpu_counts(&self) -> impl Iterator<Item = (GpuId, &[u64; XIDS])> + '_ {
        self.gpus_in_order().into_iter().map(|g| (g.gpu, &g.counts))
    }

    /// Stable-sort every GPU and node list by start, unless it already
    /// is. A list sorted mid-stream and appended to later sorts to the
    /// same order as its arrival order would, so this never changes a
    /// later finish.
    pub(crate) fn sorted(&mut self) -> Sorted<'_> {
        let episodes = &self.episodes;
        let start = |&p: &u32| episodes.get(p as usize).map(|e| e.start);
        let lists = self
            .gpus
            .iter_mut()
            .map(|g| &mut g.episodes)
            .chain(self.nodes.iter_mut());
        for list in lists {
            if !list.is_sorted_by_key(start) {
                list.sort_by_key(start);
            }
        }
        Sorted(self)
    }

    /// The episode vector, for [`StudyResults::coalesced`].
    fn into_episodes(self) -> Vec<CoalescedError> {
        self.episodes
    }
}

/// An [`EpisodeIndex`] whose GPU and node lists are in start order: what
/// the propagation walk and the job join read.
pub(crate) struct Sorted<'a>(&'a EpisodeIndex);

impl<'a> Sorted<'a> {
    /// Each GPU's episode positions, in `GpuId` order.
    pub(crate) fn gpu_lists(&self) -> impl Iterator<Item = &'a [u32]> + 'a {
        self.0
            .gpus_in_order()
            .into_iter()
            .map(|g| g.episodes.as_slice())
    }

    /// Each node's episode positions, in `NodeId` order.
    pub(crate) fn node_lists(&self) -> impl Iterator<Item = &'a [u32]> + 'a {
        let index = self.0;
        index
            .node_ids
            .values()
            .filter_map(|&id| index.nodes.get(id as usize).map(Vec::as_slice))
    }

    /// One GPU's episode positions (empty if it has none): one hashed
    /// lookup, whatever the GPU's id.
    pub(crate) fn gpu_list(&self, gpu: GpuId) -> &'a [u32] {
        let index = self.0;
        index
            .gpu_ids
            .get(gpu)
            .and_then(|id| index.gpus.get(id as usize))
            .map_or(&[], |g| g.episodes.as_slice())
    }

    /// The episode at a position of one of the lists.
    pub(crate) fn episode(&self, pos: u32) -> Option<&'a CoalescedError> {
        self.0.episodes.get(pos as usize)
    }

    /// Start time of the episode at `pos` (the lists' sort key).
    pub(crate) fn start(&self, pos: u32) -> Option<Timestamp> {
        self.episode(pos).map(|e| e.start)
    }

    /// Resolve a list into `out` (cleared first), in list order.
    pub(crate) fn resolve(&self, list: &[u32], out: &mut Vec<&'a CoalescedError>) {
        out.clear();
        out.extend(list.iter().filter_map(|&p| self.episode(p)));
    }
}

/// The full study as one fold: every section of [`StudyResults`],
/// finished from one shared episode index (see the module docs).
/// [`crate::pipeline::PipelineBuilder::run_coalesced`] hands it the whole
/// corpus and finishes; a live caller can [`StudyEngine::ingest`] one
/// episode at a time and [`AnalysisEngine::snapshot`] mid-stream.
#[derive(Clone, Debug)]
pub struct StudyEngine<'a> {
    config: StudyConfig,
    jobs: Option<&'a [JobRecord]>,
    downtime: Option<&'a [DowntimeInterval]>,
    index: EpisodeIndex,
}

impl<'a> StudyEngine<'a> {
    pub fn new(
        config: StudyConfig,
        jobs: Option<&'a [JobRecord]>,
        downtime: Option<&'a [DowntimeInterval]>,
    ) -> Self {
        StudyEngine {
            config,
            jobs,
            downtime,
            index: EpisodeIndex::default(),
        }
    }

    // dr-lint: hot(begin)
    /// Fold one coalesced error: the engine keeps a copy (its only one)
    /// and indexes it.
    pub fn ingest(&mut self, e: &CoalescedError) {
        self.index.push(*e);
    }
    // dr-lint: hot(end)

    /// Fold a run of coalesced errors, in order. The first run is adopted
    /// as the engine's episode vector — the one that becomes
    /// [`StudyResults::coalesced`] — without a copy.
    pub fn extend(&mut self, episodes: Vec<CoalescedError>) {
        self.index.extend(episodes);
    }

    /// Finish every section into a [`StudyResults`] bundle whose
    /// `coalesced` is the exact sequence that was folded. Per-section
    /// spans and counters go to `sink`, which is write-only: the results
    /// are bit-identical with any sink.
    pub fn finish_observed(self, sink: &MetricsSink) -> StudyResults {
        use dr_obs::{Counter, Stage};
        let StudyEngine {
            config,
            jobs,
            downtime,
            mut index,
        } = self;
        let (hours, nodes) = (config.observation_hours, config.node_count);
        let (t1, overall, cat, lost) = {
            let _span = sink.span(Stage::Stats, "tables");
            let summaries = index.persistence_summaries();
            (
                finish_table1(&summaries, hours, nodes),
                finish_overall_mtbe(&index, hours, nodes),
                finish_category_mtbe(&index, hours, nodes),
                finish_lost_hours(&index, &summaries),
            )
        };

        let (dt, cf, avail) = {
            let _span = sink.span(Stage::Stats, "downtime");
            let dt: Option<DowntimeStats> = downtime.map(downtime_stats);
            let mttr = dt.as_ref().map(|d| d.mean_service_h).unwrap_or(0.3);
            let cf = finish_counterfactual(&index, hours, nodes, mttr);
            let avail = match (&dt, overall.1) {
                (Some(d), Some(mtbe)) => Some(availability(mtbe, d.mean_service_h)),
                _ => None,
            };
            (dt, cf, avail)
        };

        let sorted = index.sorted();
        let prop = {
            let _span = sink.span(Stage::Propagation, "total");
            finish_propagation(&sorted, config.propagation_window, NVLINK_SPREAD_WINDOW)
        };

        let (ji, t3) = {
            let _span = jobs.map(|_| sink.span(Stage::JobImpact, "total"));
            if let Some(j) = jobs {
                sink.add(Stage::JobImpact, Counter::Jobs, j.len() as u64);
            }
            let ji = jobs.map(|j| finish_job_impact(j, &sorted, config.job_impact));
            (ji, jobs.map(table3))
        };

        StudyResults {
            config,
            table1: t1,
            overall_mtbe_h: overall,
            category_mtbe: cat,
            lost_hours: lost,
            propagation: prop,
            counterfactual: cf,
            job_impact: ji,
            table3: t3,
            downtime: dt,
            availability: avail,
            coalesced: index.into_episodes(),
        }
    }
}

impl AnalysisEngine for StudyEngine<'_> {
    type Snapshot = StudyResults;

    fn ingest(&mut self, e: &CoalescedError) {
        StudyEngine::ingest(self, e);
    }

    /// The results so far, from a copy of the engine.
    fn snapshot(&self) -> StudyResults {
        self.clone().finish_observed(&MetricsSink::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold_oracle as oracle;
    use crate::job_impact::JobImpactConfig;
    use dr_slurm::JobState;
    use dr_xid::{Duration, ErrorDetail};
    use proptest::prelude::*;

    fn err(xid: Xid, node: u32, slot: usize, at_s: u64, persist_s: u64) -> CoalescedError {
        let start = Timestamp::from_secs(at_s);
        CoalescedError {
            gpu: GpuId::at_slot(NodeId(node), slot),
            xid,
            detail: ErrorDetail::NONE,
            start,
            last: start + Duration::from_secs(persist_s),
            merged: 1,
        }
    }

    /// A mixed corpus with bursts, multiple nodes/GPUs, and every
    /// section-relevant class represented.
    fn corpus() -> Vec<CoalescedError> {
        let mut v = Vec::new();
        for k in 0..40u64 {
            let xid = match k % 5 {
                0 => Xid::GspRpcTimeout,
                1 => Xid::MmuError,
                2 => Xid::NvlinkError,
                3 => Xid::DoubleBitEcc,
                _ => Xid::GraphicsEngineException,
            };
            v.push(err(
                xid,
                (k % 3) as u32 + 1,
                (k % 4) as usize,
                k * 50,
                k % 7,
            ));
        }
        // A same-GPU burst for propagation edges and an NVLink cascade.
        v.push(err(Xid::PmuSpiError, 1, 0, 3_000, 1));
        v.push(err(Xid::MmuError, 1, 0, 3_005, 1));
        v.push(err(Xid::NvlinkError, 2, 0, 4_000, 1));
        v.push(err(Xid::NvlinkError, 2, 1, 4_003, 1));
        v.sort_by_key(|e| (e.start, e.gpu, e.xid));
        v
    }

    fn jobs() -> Vec<JobRecord> {
        let g = GpuId::at_slot(NodeId(1), 0);
        vec![
            JobRecord {
                id: 0,
                gpus: vec![g],
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(3_010),
                state: JobState::GpuFailed,
                exit_code: 137,
                ml: true,
            },
            JobRecord {
                id: 1,
                gpus: vec![g, GpuId::at_slot(NodeId(2), 1)],
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(10_000),
                state: JobState::Completed,
                exit_code: 0,
                ml: false,
            },
        ]
    }

    fn config() -> StudyConfig {
        StudyConfig::ampere_study().with_window(1_000.0, 12)
    }

    /// Fold `errors` one episode at a time (the `ingest` route).
    fn fold(errors: &[CoalescedError], jobs: Option<&[JobRecord]>) -> StudyResults {
        let mut engine = StudyEngine::new(config(), jobs, None);
        for e in errors {
            engine.ingest(e);
        }
        engine.finish_observed(&MetricsSink::disabled())
    }

    #[test]
    fn table1_fold_matches_batch_exactly() {
        let errors = corpus();
        assert_eq!(
            format!("{:?}", fold(&errors, None).table1),
            format!("{:?}", oracle::table1(&errors, 1_000.0, 12))
        );
    }

    #[test]
    fn overall_and_category_folds_match_batch_exactly() {
        let errors = corpus();
        let r = fold(&errors, None);
        assert_eq!(r.overall_mtbe_h, oracle::overall_mtbe(&errors, 1_000.0, 12));
        assert_eq!(r.category_mtbe, oracle::category_mtbe(&errors, 1_000.0, 12));
    }

    #[test]
    fn lost_hours_fold_matches_batch_exactly() {
        let errors = corpus();
        assert_eq!(
            fold(&errors, None).lost_hours,
            oracle::lost_gpu_hours(&errors)
        );
    }

    #[test]
    fn propagation_fold_matches_batch_exactly() {
        let errors = corpus();
        assert_eq!(
            format!("{:?}", fold(&errors, None).propagation),
            format!(
                "{:?}",
                oracle::propagation(&errors, Duration::from_secs(60), NVLINK_SPREAD_WINDOW)
            )
        );
    }

    #[test]
    fn counterfactual_fold_matches_batch_exactly() {
        let errors = corpus();
        let mut index = EpisodeIndex::default();
        index.extend(errors.clone());
        for mttr in [0.3, 1.7] {
            assert_eq!(
                finish_counterfactual(&index, 1_000.0, 12, mttr),
                oracle::counterfactual(&errors, 1_000.0, 12, mttr),
                "mttr {mttr}"
            );
        }
    }

    #[test]
    fn job_impact_fold_matches_batch_exactly() {
        let errors = corpus();
        let jobs = jobs();
        assert_eq!(
            format!("{:?}", fold(&errors, Some(&jobs)).job_impact),
            format!(
                "{:?}",
                Some(oracle::job_impact(
                    &jobs,
                    &errors,
                    JobImpactConfig::default()
                ))
            )
        );
    }

    #[test]
    fn job_join_matches_batch_on_hostile_gpu_ids() {
        use dr_xid::PciAddr;
        let max_node = GpuId::new(NodeId(u32::MAX), PciAddr::new(0xffff, 0xff, 0xff));
        let odd_pci = GpuId::new(NodeId(2), PciAddr::new(0, 0, 0));
        let mut errors = corpus();
        errors.push(CoalescedError {
            gpu: max_node,
            ..err(Xid::MmuError, 0, 0, 2_000, 3)
        });
        errors.push(CoalescedError {
            gpu: odd_pci,
            ..err(Xid::DoubleBitEcc, 0, 0, 2_100, 1)
        });
        errors.sort_by_key(|e| (e.start, e.gpu, e.xid));
        let job = |id: u64, gpus: Vec<GpuId>, exit_code: i32| JobRecord {
            id,
            gpus,
            start: Timestamp::from_secs(0),
            end: Timestamp::from_secs(3_000),
            state: if exit_code == 0 {
                JobState::Completed
            } else {
                JobState::GpuFailed
            },
            exit_code,
            ml: false,
        };
        let mut jobs = jobs();
        jobs.extend([
            // Nodes the episode index never saw, up to the largest id.
            job(10, vec![GpuId::at_slot(NodeId(9_999), 0)], 1),
            job(11, vec![GpuId::at_slot(NodeId(u32::MAX), 7)], 1),
            job(12, vec![GpuId::new(NodeId(u32::MAX - 1), PciAddr::new(0xffff, 0xff, 0xff))], 0),
            // GPUs that did fail, on a huge node id and an unusual bus.
            job(13, vec![max_node, odd_pci, GpuId::at_slot(NodeId(1), 0)], 1),
            job(14, vec![max_node], 0),
            // An unusual PCI address on a node that is indexed.
            job(15, vec![GpuId::new(NodeId(1), PciAddr::new(0x1234, 0xab, 0x1f)), odd_pci], 1),
            job(16, Vec::new(), 1),
        ]);
        let folded = fold(&errors, Some(&jobs)).job_impact.expect("jobs given");
        let expected = oracle::job_impact(&jobs, &errors, JobImpactConfig::default());
        assert_eq!(format!("{:?}", folded.table2), format!("{:?}", expected.table2));
        assert_eq!(
            format!("{:?}", folded.distributions),
            format!("{:?}", expected.distributions)
        );
        assert_eq!(folded.lost_gpu_hours, expected.lost_gpu_hours);
        assert_eq!(format!("{folded:?}"), format!("{expected:?}"));
        assert!(folded.gpu_failed_total >= 2, "the hostile GPUs' errors must join");
    }

    #[test]
    fn gpu_table_finds_every_id_and_nothing_else() {
        use dr_xid::PciAddr;
        let mut table = GpuTable::default();
        assert_eq!(table.get(GpuId::at_slot(NodeId(0), 0)), None);
        let gpu = |k: u32| {
            GpuId::new(
                NodeId(k.wrapping_mul(0x0100_0193) ^ (k << 20)),
                PciAddr::new((k % 3) as u16, (k % 256) as u8, (k % 32) as u8),
            )
        };
        let ids: Vec<GpuId> = (0..2_000)
            .map(gpu)
            .chain([GpuId::new(NodeId(u32::MAX), PciAddr::new(0xffff, 0xff, 0xff))])
            .collect();
        for (id, &g) in ids.iter().enumerate() {
            table.insert(g, id as u32);
        }
        assert!(table.slots.len().is_power_of_two() && table.len * 2 <= table.slots.len());
        for (id, &g) in ids.iter().enumerate() {
            assert_eq!(table.get(g), Some(id as u32), "{g:?}");
        }
        assert_eq!(table.get(GpuId::at_slot(NodeId(u32::MAX), 0)), None);
        assert_eq!(table.get(gpu(2_000)), None);
    }

    #[test]
    fn snapshot_is_non_destructive_and_monotone() {
        let errors = corpus();
        let mut engine = StudyEngine::new(config(), None, None);
        let (half, rest) = errors.split_at(errors.len() / 2);
        for e in half {
            engine.ingest(e);
        }
        let mid = format!("{:?}", engine.snapshot());
        assert_eq!(
            mid,
            format!("{:?}", engine.snapshot()),
            "snapshot must not disturb state"
        );
        assert_eq!(
            mid,
            format!("{:?}", oracle::study(half.to_vec(), None, None, config()))
        );
        for e in rest {
            engine.ingest(e);
        }
        assert_eq!(
            format!("{:?}", engine.snapshot()),
            format!("{:?}", oracle::study(errors, None, None, config()))
        );
    }

    #[test]
    fn study_engine_fold_matches_batch_study_results() {
        let errors = corpus();
        let jobs = jobs();
        let folded = fold(&errors, Some(&jobs));
        let batch = crate::pipeline::PipelineBuilder::new(config())
            .jobs(&jobs)
            .run_coalesced(errors.clone());
        let oracle = oracle::study(errors, Some(&jobs), None, config());
        assert_eq!(format!("{folded:?}"), format!("{batch:?}"));
        assert_eq!(format!("{folded:?}"), format!("{oracle:?}"));
    }

    #[test]
    fn lists_sorted_mid_stream_finish_like_arrival_order() {
        // Out-of-order arrival, a snapshot (which sorts a copy) and a
        // sort of the engine's own lists mid-stream must all leave the
        // finish where one sort of the arrival order would.
        let mut errors = corpus();
        errors.reverse();
        let (half, rest) = errors.split_at(errors.len() / 2);
        let mut engine = StudyEngine::new(config(), None, None);
        engine.extend(half.to_vec());
        let _ = engine.index.sorted();
        engine.extend(rest.to_vec());
        assert_eq!(
            format!("{:?}", engine.finish_observed(&MetricsSink::disabled())),
            format!("{:?}", oracle::study(errors, None, None, config()))
        );
    }

    /// One generated episode: (node, slot), (XID, start, persistence).
    type Spec = ((u64, u64), (u64, u64, u64));

    /// One generated job: (node, width), (start, length, exit).
    type JobSpec = ((u64, u64), (u64, u64, u64));

    /// A generated corpus: at least three nodes with up to eight GPUs
    /// each and every XID, coarse start times (so starts collide),
    /// NVLink bursts of up to eight GPUs inside ±10 s, then a
    /// deterministic shuffle so arrival order is not start order.
    fn episodes(specs: &[Spec], bursts: &[(u64, u64, u64)], shuffle: u64) -> Vec<CoalescedError> {
        let mut v: Vec<CoalescedError> = specs
            .iter()
            .map(|&((node, slot), (x, at, persist))| {
                let xid = Xid::ALL[x as usize % XIDS];
                err(xid, node as u32 % 4 + 1, slot as usize % 8, at * 5, persist)
            })
            .collect();
        for &(node, at, width) in bursts {
            for slot in 0..width as usize {
                let at = at * 5 + (slot as u64 * 3) % 11;
                v.push(err(
                    Xid::NvlinkError,
                    node as u32 % 4 + 1,
                    slot,
                    at,
                    slot as u64 % 3,
                ));
            }
        }
        // Fisher–Yates with a fixed LCG stream.
        let mut state = shuffle | 1;
        for i in (1..v.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            v.swap(i, (state >> 33) as usize % (i + 1));
        }
        v
    }

    /// Generated jobs over the same GPUs, one to eight GPUs each.
    fn generated_jobs(specs: &[JobSpec]) -> Vec<JobRecord> {
        specs
            .iter()
            .enumerate()
            .map(|(id, &((node, width), (start, len, exit)))| JobRecord {
                id: id as u64,
                gpus: (0..width as usize % 8 + 1)
                    .map(|s| GpuId::at_slot(NodeId(node as u32 % 4 + 1), s))
                    .collect(),
                start: Timestamp::from_secs(start * 5),
                end: Timestamp::from_secs(start * 5 + len),
                state: if exit % 3 == 0 {
                    JobState::Completed
                } else {
                    JobState::GpuFailed
                },
                exit_code: if exit % 3 == 0 { 0 } else { 137 },
                ml: exit % 2 == 0,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn fold_matches_the_map_based_oracle(
            specs in prop::collection::vec(((0u64..4, 0u64..8), (0u64..14, 0u64..60, 0u64..40)), 0..160),
            bursts in prop::collection::vec((0u64..4, 0u64..60, 1u64..9), 0..6),
            job_specs in prop::collection::vec(((0u64..4, 0u64..8), (0u64..60, 0u64..400, 0u64..6)), 0..12),
            shuffle in any::<u64>(),
            window_s in 1u64..90,
        ) {
            let errors = episodes(&specs, &bursts, shuffle);
            let jobs = generated_jobs(&job_specs);
            let cfg = StudyConfig {
                propagation_window: Duration::from_secs(window_s),
                ..config()
            };
            let mut engine = StudyEngine::new(cfg, Some(&jobs), None);
            for e in &errors {
                engine.ingest(e);
            }
            let folded = engine.finish_observed(&MetricsSink::disabled());
            let expected = oracle::study(errors, Some(&jobs), None, cfg);
            prop_assert_eq!(format!("{folded:?}"), format!("{expected:?}"));
        }
    }

    #[test]
    fn empty_fold_matches_the_oracle() {
        let jobs = jobs();
        assert_eq!(
            format!("{:?}", fold(&[], Some(&jobs))),
            format!(
                "{:?}",
                oracle::study(Vec::new(), Some(&jobs), None, config())
            )
        );
    }
}
