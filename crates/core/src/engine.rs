//! Incremental, fold-based analysis core.
//!
//! Every batch analysis in this crate (`stats`, `propagation`,
//! `job_impact`, `counterfactual`, `downtime`) is a pure function over a
//! fully-materialized slice — which means the pipeline can only answer
//! questions about corpora that have already ended. [`AnalysisEngine`]
//! recasts each pass as an *accumulator*: `ingest` one element at a
//! time, `snapshot` the answer whenever you want it. Folding a whole
//! corpus through an accumulator and snapshotting once is **bit-identical**
//! to the batch function on the same slice (tier-1 differential test):
//! each accumulator records exactly the per-group state the batch pass
//! would build on its first walk, in the same order, and `snapshot` runs
//! the same arithmetic in the same sequence.
//!
//! [`StudyEngine`] bundles one accumulator per study section and is what
//! [`crate::pipeline::PipelineBuilder::run_coalesced`] folds through; the
//! live path (`crate::watch`) layers rolling-window accumulators on the
//! same trait.

use crate::coalesce::CoalescedError;
use crate::counterfactual::CounterfactualReport;
use crate::downtime::{availability, DowntimeAcc, DowntimeStats};
use crate::job_impact::{finish_job_impact, table3, JobImpactAnalysis, JobImpactConfig};
use crate::pipeline::{StudyConfig, StudyResults};
use crate::propagation::{finish_propagation, PropagationAnalysis};
use crate::stats::{CategoryMtbe, LostHours, Table1Row};
use dr_faults::DowntimeInterval;
use dr_obs::MetricsSink;
use dr_slurm::JobRecord;
use dr_stats::{Mtbe, SummaryStats};
use dr_xid::{Duration, GpuId, NodeId, Xid};
use std::collections::BTreeMap;

/// An incremental analysis pass: a fold over a stream of inputs
/// (coalesced errors by default) with a read-out that can be taken at
/// any point. Implementations must be deterministic functions of the
/// ingested sequence — never of wall-clock time or iteration luck — so
/// that folding a finished corpus reproduces the batch result exactly
/// and a live session converges to the batch answer when the stream
/// catches up.
pub trait AnalysisEngine<In = CoalescedError> {
    /// What [`AnalysisEngine::snapshot`] produces.
    type Snapshot;

    /// Fold one element into the accumulator.
    fn ingest(&mut self, input: &In);

    /// Read the current answer without disturbing the accumulator.
    fn snapshot(&self) -> Self::Snapshot;
}

/// Incremental [`crate::stats::table1`]: per-XID persistence samples in
/// arrival order, summarized on demand.
#[derive(Clone, Debug)]
pub struct Table1Acc {
    observation_hours: f64,
    node_count: u32,
    per_xid: BTreeMap<Xid, Vec<f64>>,
}

impl Table1Acc {
    pub fn new(observation_hours: f64, node_count: u32) -> Self {
        Table1Acc {
            observation_hours,
            node_count,
            per_xid: BTreeMap::new(),
        }
    }
}

impl AnalysisEngine for Table1Acc {
    type Snapshot = Vec<Table1Row>;

    fn ingest(&mut self, e: &CoalescedError) {
        self.per_xid
            .entry(e.xid)
            .or_default()
            .push(e.persistence().as_secs_f64());
    }

    fn snapshot(&self) -> Vec<Table1Row> {
        let mtbe = Mtbe::new(self.observation_hours, self.node_count);
        Xid::TABLE1
            .iter()
            .map(|&xid| {
                let persistences: &[f64] = self
                    .per_xid
                    .get(&xid)
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]);
                let count = persistences.len() as u64;
                Table1Row {
                    xid,
                    count,
                    mtbe_system_h: mtbe.system_hours(count),
                    mtbe_per_node_h: mtbe.per_node_hours(count),
                    persistence: SummaryStats::from_samples(persistences),
                }
            })
            .collect()
    }
}

/// Incremental [`crate::stats::overall_mtbe`]: one characterized-error
/// counter.
#[derive(Clone, Debug)]
pub struct OverallMtbeAcc {
    observation_hours: f64,
    node_count: u32,
    count: u64,
}

impl OverallMtbeAcc {
    pub fn new(observation_hours: f64, node_count: u32) -> Self {
        OverallMtbeAcc {
            observation_hours,
            node_count,
            count: 0,
        }
    }
}

impl AnalysisEngine for OverallMtbeAcc {
    type Snapshot = (Option<f64>, Option<f64>);

    fn ingest(&mut self, e: &CoalescedError) {
        if e.xid.is_characterized() {
            self.count += 1;
        }
    }

    fn snapshot(&self) -> (Option<f64>, Option<f64>) {
        let mtbe = Mtbe::new(self.observation_hours, self.node_count);
        (mtbe.system_hours(self.count), mtbe.per_node_hours(self.count))
    }
}

/// Incremental [`crate::stats::category_mtbe`]: two class counters.
#[derive(Clone, Debug)]
pub struct CategoryMtbeAcc {
    observation_hours: f64,
    node_count: u32,
    hw_count: u64,
    mem_count: u64,
}

impl CategoryMtbeAcc {
    pub fn new(observation_hours: f64, node_count: u32) -> Self {
        CategoryMtbeAcc {
            observation_hours,
            node_count,
            hw_count: 0,
            mem_count: 0,
        }
    }
}

impl AnalysisEngine for CategoryMtbeAcc {
    type Snapshot = CategoryMtbe;

    fn ingest(&mut self, e: &CoalescedError) {
        let hardware = [
            Xid::GspRpcTimeout,
            Xid::PmuSpiError,
            Xid::NvlinkError,
            Xid::FallenOffBus,
        ];
        let memory = [Xid::DoubleBitEcc, Xid::RowRemapEvent, Xid::RowRemapFailure];
        if hardware.contains(&e.xid) {
            self.hw_count += 1;
        }
        if memory.contains(&e.xid) {
            self.mem_count += 1;
        }
    }

    fn snapshot(&self) -> CategoryMtbe {
        let mtbe = Mtbe::new(self.observation_hours, self.node_count);
        let hardware_per_node_h = mtbe.per_node_hours(self.hw_count);
        let memory_per_node_h = mtbe.per_node_hours(self.mem_count);
        let ratio = match (memory_per_node_h, hardware_per_node_h) {
            (Some(m), Some(h)) if h > 0.0 => Some(m / h),
            _ => None,
        };
        CategoryMtbe {
            hardware_per_node_h,
            memory_per_node_h,
            ratio,
        }
    }
}

/// Incremental [`crate::stats::lost_gpu_hours`]. Keeps both the per-XID
/// sample vectors (for the P95 thresholds) and the arrival sequence (for
/// the second walk), exactly as the batch pass iterates them.
#[derive(Clone, Debug, Default)]
pub struct LostHoursAcc {
    per_xid: BTreeMap<Xid, Vec<f64>>,
    sequence: Vec<(Xid, f64)>,
}

impl LostHoursAcc {
    pub fn new() -> Self {
        LostHoursAcc::default()
    }
}

impl AnalysisEngine for LostHoursAcc {
    type Snapshot = LostHours;

    fn ingest(&mut self, e: &CoalescedError) {
        let p = e.persistence().as_secs_f64();
        self.per_xid.entry(e.xid).or_default().push(p);
        self.sequence.push((e.xid, p));
    }

    fn snapshot(&self) -> LostHours {
        let thresholds: BTreeMap<Xid, f64> = self
            .per_xid
            .iter()
            .map(|(&xid, samples)| (xid, SummaryStats::from_samples(samples).p95))
            .collect();
        let mut total_s = 0.0;
        let mut tail_s = 0.0;
        for &(xid, p) in &self.sequence {
            total_s += p;
            if p > thresholds.get(&xid).copied().unwrap_or(f64::INFINITY) {
                tail_s += p;
            }
        }
        let total_h = total_s / 3_600.0;
        let beyond_p95_h = tail_s / 3_600.0;
        LostHours {
            total_h,
            beyond_p95_h,
            tail_share: if total_h > 0.0 {
                beyond_p95_h / total_h
            } else {
                0.0
            },
        }
    }
}

/// Incremental [`crate::propagation::analyze_with_spread_window`]. The
/// accumulator owns a copy of the error sequence plus the per-GPU and
/// per-node index lists the batch pass builds on its first walk (arrival
/// order — sorting by start happens inside the shared finish step), so
/// `snapshot` is exactly the batch analysis minus that first walk.
#[derive(Clone, Debug)]
pub struct PropagationAcc {
    window: Duration,
    spread_window: Duration,
    errors: Vec<CoalescedError>,
    by_gpu: BTreeMap<GpuId, Vec<usize>>,
    by_node: BTreeMap<NodeId, Vec<usize>>,
}

impl PropagationAcc {
    pub fn new(window: Duration) -> Self {
        Self::with_spread_window(window, Duration::from_secs(10))
    }

    pub fn with_spread_window(window: Duration, spread_window: Duration) -> Self {
        PropagationAcc {
            window,
            spread_window,
            errors: Vec::new(),
            by_gpu: BTreeMap::new(),
            by_node: BTreeMap::new(),
        }
    }
}

impl AnalysisEngine for PropagationAcc {
    type Snapshot = PropagationAnalysis;

    fn ingest(&mut self, e: &CoalescedError) {
        let i = self.errors.len();
        self.errors.push(*e);
        self.by_gpu.entry(e.gpu).or_default().push(i);
        self.by_node.entry(e.gpu.node).or_default().push(i);
    }

    fn snapshot(&self) -> PropagationAnalysis {
        finish_propagation(
            &self.errors,
            self.by_gpu.clone(),
            self.by_node.clone(),
            self.window,
            self.spread_window,
        )
    }
}

/// Incremental [`crate::job_impact::analyze_jobs`]: the per-GPU error
/// index accrues one error at a time; the per-job join runs at snapshot
/// via the shared finish step.
#[derive(Clone, Debug)]
pub struct JobImpactAcc<'a> {
    jobs: &'a [JobRecord],
    cfg: JobImpactConfig,
    by_gpu: BTreeMap<GpuId, Vec<CoalescedError>>,
}

impl<'a> JobImpactAcc<'a> {
    pub fn new(jobs: &'a [JobRecord], cfg: JobImpactConfig) -> Self {
        JobImpactAcc {
            jobs,
            cfg,
            by_gpu: BTreeMap::new(),
        }
    }
}

impl AnalysisEngine for JobImpactAcc<'_> {
    type Snapshot = JobImpactAnalysis;

    fn ingest(&mut self, e: &CoalescedError) {
        self.by_gpu.entry(e.gpu).or_default().push(*e);
    }

    fn snapshot(&self) -> JobImpactAnalysis {
        finish_job_impact(self.jobs, self.by_gpu.clone(), self.cfg)
    }
}

/// Incremental [`crate::counterfactual::counterfactual`]: the entire
/// what-if reduces to one `(XID, GPU) → count` table over characterized
/// errors — baseline, offender, and hardened counts are all sums over
/// it, so ingest is a single map increment.
#[derive(Clone, Debug)]
pub struct CounterfactualAcc {
    observation_hours: f64,
    node_count: u32,
    per_xid_gpu: BTreeMap<(Xid, GpuId), u64>,
}

impl CounterfactualAcc {
    pub fn new(observation_hours: f64, node_count: u32) -> Self {
        CounterfactualAcc {
            observation_hours,
            node_count,
            per_xid_gpu: BTreeMap::new(),
        }
    }

    /// The report at an explicit mean-time-to-repair (the batch pass's
    /// `mttr_h` argument). The trait [`AnalysisEngine::snapshot`] uses
    /// the 0.3 h paper default.
    pub fn snapshot_with_mttr(&self, mttr_h: f64) -> CounterfactualReport {
        let mtbe = Mtbe::new(self.observation_hours, self.node_count);
        let baseline_count: u64 = self.per_xid_gpu.values().sum();
        let baseline_mtbe_h = mtbe.per_node_hours(baseline_count).unwrap_or(f64::INFINITY);

        let mut offenders: Vec<(Xid, GpuId, u64)> = Vec::new();
        for &xid in &Xid::TABLE1 {
            if let Some((&(_, gpu), &count)) = self
                .per_xid_gpu
                .iter()
                .filter(|((x, _), _)| *x == xid)
                .max_by_key(|(_, &c)| c)
            {
                offenders.push((xid, gpu, count));
            }
        }
        let offender_count: u64 = offenders.iter().map(|&(_, _, c)| c).sum();
        let no_offender_count = baseline_count - offender_count;
        let no_offenders_mtbe_h = mtbe
            .per_node_hours(no_offender_count)
            .unwrap_or(f64::INFINITY);

        let peripheral = [Xid::GspRpcTimeout, Xid::PmuSpiError, Xid::NvlinkError];
        let hardened_count: u64 = self
            .per_xid_gpu
            .iter()
            .filter(|(&(xid, gpu), _)| {
                !offenders.iter().any(|&(ox, og, _)| ox == xid && og == gpu)
                    && !peripheral.contains(&xid)
            })
            .map(|(_, &c)| c)
            .sum();
        let hardened_mtbe_h = mtbe.per_node_hours(hardened_count).unwrap_or(f64::INFINITY);

        CounterfactualReport {
            baseline_mtbe_h,
            no_offenders_mtbe_h,
            hardened_mtbe_h,
            baseline_availability: Mtbe::availability(baseline_mtbe_h, mttr_h),
            hardened_availability: Mtbe::availability(hardened_mtbe_h, mttr_h),
            offenders,
        }
    }
}

impl AnalysisEngine for CounterfactualAcc {
    type Snapshot = CounterfactualReport;

    fn ingest(&mut self, e: &CoalescedError) {
        if e.xid.is_characterized() {
            *self.per_xid_gpu.entry((e.xid, e.gpu)).or_default() += 1;
        }
    }

    fn snapshot(&self) -> CounterfactualReport {
        self.snapshot_with_mttr(0.3)
    }
}

/// The full study as one fold: every batch section of
/// [`StudyResults`], each as its incremental accumulator.
/// [`crate::pipeline::PipelineBuilder::run_coalesced`] constructs one of
/// these, ingests the corpus, and finishes; live sessions can snapshot
/// mid-stream through the individual accumulators.
#[derive(Clone, Debug)]
pub struct StudyEngine<'a> {
    config: StudyConfig,
    jobs: Option<&'a [JobRecord]>,
    downtime: Option<&'a [DowntimeInterval]>,
    table1: Table1Acc,
    overall: OverallMtbeAcc,
    category: CategoryMtbeAcc,
    lost: LostHoursAcc,
    propagation: PropagationAcc,
    counterfactual: CounterfactualAcc,
    job_impact: Option<JobImpactAcc<'a>>,
}

impl<'a> StudyEngine<'a> {
    pub fn new(
        config: StudyConfig,
        jobs: Option<&'a [JobRecord]>,
        downtime: Option<&'a [DowntimeInterval]>,
    ) -> Self {
        let (hours, nodes) = (config.observation_hours, config.node_count);
        StudyEngine {
            config,
            jobs,
            downtime,
            table1: Table1Acc::new(hours, nodes),
            overall: OverallMtbeAcc::new(hours, nodes),
            category: CategoryMtbeAcc::new(hours, nodes),
            lost: LostHoursAcc::new(),
            propagation: PropagationAcc::new(config.propagation_window),
            counterfactual: CounterfactualAcc::new(hours, nodes),
            job_impact: jobs.map(|j| JobImpactAcc::new(j, config.job_impact)),
        }
    }

    /// Fold one coalesced error into every section's accumulator.
    pub fn ingest(&mut self, e: &CoalescedError) {
        self.table1.ingest(e);
        self.overall.ingest(e);
        self.category.ingest(e);
        self.lost.ingest(e);
        self.propagation.ingest(e);
        self.counterfactual.ingest(e);
        if let Some(ji) = self.job_impact.as_mut() {
            ji.ingest(e);
        }
    }

    /// Snapshot every section into a [`StudyResults`] bundle. `coalesced`
    /// is the exact sequence that was ingested (the results carry it).
    /// Per-section spans and counters go to `sink`, which is write-only:
    /// the results are bit-identical with any sink.
    pub fn finish_observed(
        self,
        coalesced: Vec<CoalescedError>,
        sink: &MetricsSink,
    ) -> StudyResults {
        use dr_obs::{Counter, Stage};
        let (t1, overall, cat, lost) = {
            let _span = sink.span(Stage::Stats, "tables");
            (
                self.table1.snapshot(),
                self.overall.snapshot(),
                self.category.snapshot(),
                self.lost.snapshot(),
            )
        };
        let prop = {
            let _span = sink.span(Stage::Propagation, "total");
            self.propagation.snapshot()
        };

        let (dt, cf, avail) = {
            let _span = sink.span(Stage::Stats, "downtime");
            let dt: Option<DowntimeStats> = self.downtime.map(|intervals| {
                let mut acc = DowntimeAcc::new();
                for iv in intervals {
                    acc.ingest(iv);
                }
                acc.snapshot()
            });
            let mttr = dt.as_ref().map(|d| d.mean_service_h).unwrap_or(0.3);
            let cf = self.counterfactual.snapshot_with_mttr(mttr);
            let avail = match (&dt, overall.1) {
                (Some(d), Some(mtbe)) => Some(availability(mtbe, d.mean_service_h)),
                _ => None,
            };
            (dt, cf, avail)
        };

        let (ji, t3) = {
            let _span = self.jobs.map(|_| sink.span(Stage::JobImpact, "total"));
            if let Some(j) = self.jobs {
                sink.add(Stage::JobImpact, Counter::Jobs, j.len() as u64);
            }
            let ji = self.job_impact.as_ref().map(|acc| acc.snapshot());
            (ji, self.jobs.map(table3))
        };

        StudyResults {
            config: self.config,
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
            coalesced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counterfactual::counterfactual;
    use crate::job_impact::analyze_jobs;
    use crate::propagation::analyze;
    use crate::stats::{category_mtbe, lost_gpu_hours, overall_mtbe, table1};
    use dr_slurm::JobState;
    use dr_xid::{ErrorDetail, Timestamp};

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
    /// accumulator-relevant class represented.
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
            v.push(err(xid, (k % 3) as u32 + 1, (k % 4) as usize, k * 50, k % 7));
        }
        // A same-GPU burst for propagation edges and an NVLink cascade.
        v.push(err(Xid::PmuSpiError, 1, 0, 3_000, 1));
        v.push(err(Xid::MmuError, 1, 0, 3_005, 1));
        v.push(err(Xid::NvlinkError, 2, 0, 4_000, 1));
        v.push(err(Xid::NvlinkError, 2, 1, 4_003, 1));
        v.sort_by_key(|e| (e.start, e.gpu, e.xid));
        v
    }

    fn fold<A: AnalysisEngine>(acc: &mut A, errors: &[CoalescedError]) {
        for e in errors {
            acc.ingest(e);
        }
    }

    #[test]
    fn table1_fold_matches_batch_exactly() {
        let errors = corpus();
        let mut acc = Table1Acc::new(1_000.0, 12);
        fold(&mut acc, &errors);
        assert_eq!(
            format!("{:?}", acc.snapshot()),
            format!("{:?}", table1(&errors, 1_000.0, 12))
        );
    }

    #[test]
    fn overall_and_category_folds_match_batch_exactly() {
        let errors = corpus();
        let mut overall = OverallMtbeAcc::new(1_000.0, 12);
        let mut cat = CategoryMtbeAcc::new(1_000.0, 12);
        fold(&mut overall, &errors);
        fold(&mut cat, &errors);
        assert_eq!(overall.snapshot(), overall_mtbe(&errors, 1_000.0, 12));
        assert_eq!(cat.snapshot(), category_mtbe(&errors, 1_000.0, 12));
    }

    #[test]
    fn lost_hours_fold_matches_batch_exactly() {
        let errors = corpus();
        let mut acc = LostHoursAcc::new();
        fold(&mut acc, &errors);
        assert_eq!(acc.snapshot(), lost_gpu_hours(&errors));
    }

    #[test]
    fn propagation_fold_matches_batch_exactly() {
        let errors = corpus();
        let mut acc = PropagationAcc::new(Duration::from_secs(60));
        fold(&mut acc, &errors);
        assert_eq!(
            format!("{:?}", acc.snapshot()),
            format!("{:?}", analyze(&errors, Duration::from_secs(60)))
        );
    }

    #[test]
    fn counterfactual_fold_matches_batch_exactly() {
        let errors = corpus();
        let mut acc = CounterfactualAcc::new(1_000.0, 12);
        fold(&mut acc, &errors);
        for mttr in [0.3, 1.7] {
            assert_eq!(
                acc.snapshot_with_mttr(mttr),
                counterfactual(&errors, 1_000.0, 12, mttr),
                "mttr {mttr}"
            );
        }
    }

    #[test]
    fn job_impact_fold_matches_batch_exactly() {
        let errors = corpus();
        let g = GpuId::at_slot(NodeId(1), 0);
        let jobs = vec![
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
                gpus: vec![g],
                start: Timestamp::from_secs(0),
                end: Timestamp::from_secs(10_000),
                state: JobState::Completed,
                exit_code: 0,
                ml: false,
            },
        ];
        let mut acc = JobImpactAcc::new(&jobs, JobImpactConfig::default());
        fold(&mut acc, &errors);
        assert_eq!(
            format!("{:?}", acc.snapshot()),
            format!("{:?}", analyze_jobs(&jobs, &errors, JobImpactConfig::default()))
        );
    }

    #[test]
    fn snapshot_is_non_destructive_and_monotone() {
        let errors = corpus();
        let mut acc = OverallMtbeAcc::new(1_000.0, 12);
        let (half, rest) = errors.split_at(errors.len() / 2);
        fold(&mut acc, half);
        let mid = acc.snapshot();
        assert_eq!(mid, acc.snapshot(), "snapshot must not disturb state");
        fold(&mut acc, rest);
        assert_eq!(acc.snapshot(), overall_mtbe(&errors, 1_000.0, 12));
    }

    #[test]
    fn study_engine_fold_matches_batch_study_results() {
        let errors = corpus();
        let cfg = StudyConfig::ampere_study().with_window(1_000.0, 12);
        let mut engine = StudyEngine::new(cfg, None, None);
        for e in &errors {
            engine.ingest(e);
        }
        let folded = engine.finish_observed(errors.clone(), &MetricsSink::disabled());
        let batch = crate::pipeline::PipelineBuilder::new(cfg).run_coalesced(errors);
        assert_eq!(format!("{folded:?}"), format!("{batch:?}"));
    }
}
