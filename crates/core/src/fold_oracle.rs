//! The map-based study fold the shared episode index of
//! [`crate::engine::finish`] replaced, kept as its test oracle.
//!
//! Every section is computed the way the batch passes computed it before
//! the index interned GPUs and went to dense per-XID tables: filters over
//! the whole slice for Table 1 and the MTBE counters, `BTreeMap<Xid, _>`
//! samples for lost hours, `BTreeMap<GpuId, Vec<usize>>` /
//! `BTreeMap<NodeId, Vec<usize>>` groupings and `BTreeMap<(Xid, Xid), _>`
//! edges for propagation, a `BTreeMap<(Xid, GpuId), u64>` table for the
//! counterfactual, owned per-GPU episode copies for the job join, and one
//! walk of the job table per Table 3 bucket. [`study`] assembles them the
//! way the pipeline always has, so `Debug` of its result must equal `Debug`
//! of the finish's.

use crate::coalesce::CoalescedError;
use crate::counterfactual::CounterfactualReport;
use crate::downtime::{availability, downtime_stats};
use crate::job_impact::{
    ElapsedDistributions, JobImpactAnalysis, JobImpactConfig, Table2Row, Table3Row,
};
use crate::pipeline::{StudyConfig, StudyResults};
use crate::propagation::{NvlinkSpread, PropagationAnalysis, PropagationEdge};
use crate::stats::{CategoryMtbe, LostHours, Table1Row};
use dr_faults::DowntimeInterval;
use dr_slurm::{JobRecord, JobState};
use dr_stats::{quantile_sorted, Histogram, Mtbe, OnlineStats, SummaryStats};
use dr_xid::{Duration, GpuId, NodeId, Xid};
use std::collections::{BTreeMap, BTreeSet};

/// The whole study over `coalesced`, in arrival order.
pub(crate) fn study(
    coalesced: Vec<CoalescedError>,
    jobs: Option<&[JobRecord]>,
    downtime: Option<&[DowntimeInterval]>,
    config: StudyConfig,
) -> StudyResults {
    let (hours, nodes) = (config.observation_hours, config.node_count);
    let overall = overall_mtbe(&coalesced, hours, nodes);
    let dt = downtime.map(downtime_stats);
    let mttr = dt.as_ref().map(|d| d.mean_service_h).unwrap_or(0.3);
    let avail = match (&dt, overall.1) {
        (Some(d), Some(mtbe)) => Some(availability(mtbe, d.mean_service_h)),
        _ => None,
    };
    StudyResults {
        config,
        table1: table1(&coalesced, hours, nodes),
        overall_mtbe_h: overall,
        category_mtbe: category_mtbe(&coalesced, hours, nodes),
        lost_hours: lost_gpu_hours(&coalesced),
        propagation: propagation(
            &coalesced,
            config.propagation_window,
            Duration::from_secs(10),
        ),
        counterfactual: counterfactual(&coalesced, hours, nodes, mttr),
        job_impact: jobs.map(|j| job_impact(j, &coalesced, config.job_impact)),
        table3: jobs.map(table3),
        downtime: dt,
        availability: avail,
        coalesced,
    }
}

pub(crate) fn table1(
    errors: &[CoalescedError],
    observation_hours: f64,
    node_count: u32,
) -> Vec<Table1Row> {
    let mtbe = Mtbe::new(observation_hours, node_count);
    Xid::TABLE1
        .iter()
        .map(|&xid| {
            let persistences: Vec<f64> = errors
                .iter()
                .filter(|e| e.xid == xid)
                .map(|e| e.persistence().as_secs_f64())
                .collect();
            let count = persistences.len() as u64;
            Table1Row {
                xid,
                count,
                mtbe_system_h: mtbe.system_hours(count),
                mtbe_per_node_h: mtbe.per_node_hours(count),
                persistence: SummaryStats::from_samples(&persistences),
            }
        })
        .collect()
}

pub(crate) fn overall_mtbe(
    errors: &[CoalescedError],
    observation_hours: f64,
    node_count: u32,
) -> (Option<f64>, Option<f64>) {
    let count = errors.iter().filter(|e| e.xid.is_characterized()).count() as u64;
    let mtbe = Mtbe::new(observation_hours, node_count);
    (mtbe.system_hours(count), mtbe.per_node_hours(count))
}

pub(crate) fn category_mtbe(
    errors: &[CoalescedError],
    observation_hours: f64,
    node_count: u32,
) -> CategoryMtbe {
    let mtbe = Mtbe::new(observation_hours, node_count);
    let hardware = [
        Xid::GspRpcTimeout,
        Xid::PmuSpiError,
        Xid::NvlinkError,
        Xid::FallenOffBus,
    ];
    let memory = [Xid::DoubleBitEcc, Xid::RowRemapEvent, Xid::RowRemapFailure];
    let hw_count = errors.iter().filter(|e| hardware.contains(&e.xid)).count() as u64;
    let mem_count = errors.iter().filter(|e| memory.contains(&e.xid)).count() as u64;
    let hardware_per_node_h = mtbe.per_node_hours(hw_count);
    let memory_per_node_h = mtbe.per_node_hours(mem_count);
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

pub(crate) fn lost_gpu_hours(errors: &[CoalescedError]) -> LostHours {
    let mut per_xid: BTreeMap<Xid, Vec<f64>> = BTreeMap::new();
    for e in errors {
        per_xid
            .entry(e.xid)
            .or_default()
            .push(e.persistence().as_secs_f64());
    }
    let thresholds: BTreeMap<Xid, f64> = per_xid
        .iter()
        .map(|(&xid, samples)| (xid, SummaryStats::from_samples(samples).p95))
        .collect();
    let mut total_s = 0.0;
    let mut tail_s = 0.0;
    for e in errors {
        let p = e.persistence().as_secs_f64();
        total_s += p;
        if p > thresholds.get(&e.xid).copied().unwrap_or(f64::INFINITY) {
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

pub(crate) fn propagation(
    errors: &[CoalescedError],
    window: Duration,
    spread_window: Duration,
) -> PropagationAnalysis {
    let mut by_gpu: BTreeMap<GpuId, Vec<usize>> = BTreeMap::new();
    let mut by_node: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (i, e) in errors.iter().enumerate() {
        by_gpu.entry(e.gpu).or_default().push(i);
        by_node.entry(e.gpu.node).or_default().push(i);
    }
    for v in by_gpu.values_mut() {
        v.sort_by_key(|&i| errors[i].start);
    }
    for v in by_node.values_mut() {
        v.sort_by_key(|&i| errors[i].start);
    }

    let mut sources: BTreeMap<Xid, u64> = BTreeMap::new();
    let mut intra_edges: BTreeMap<(Xid, Xid), (u64, OnlineStats)> = BTreeMap::new();
    let mut inter_edges: BTreeMap<(Xid, Xid), (u64, OnlineStats)> = BTreeMap::new();
    let mut terminal_counts: BTreeMap<Xid, u64> = BTreeMap::new();
    let mut isolated_counts: BTreeMap<Xid, u64> = BTreeMap::new();

    for list in by_gpu.values() {
        for (pos, &i) in list.iter().enumerate() {
            let e1 = &errors[i];
            *sources.entry(e1.xid).or_default() += 1;
            let successor = list[pos + 1..]
                .iter()
                .map(|&j| &errors[j])
                .find(|e2| e2.start > e1.start);
            match successor {
                Some(e2) if e2.start - e1.start <= window => {
                    let delay = (e2.start - e1.start).as_secs_f64();
                    let entry = intra_edges
                        .entry((e1.xid, e2.xid))
                        .or_insert((0, OnlineStats::new()));
                    entry.0 += 1;
                    entry.1.push(delay);
                }
                _ => *terminal_counts.entry(e1.xid).or_default() += 1,
            }
            let has_predecessor = list[..pos]
                .iter()
                .rev()
                .map(|&j| &errors[j])
                .take_while(|e0| e1.start - e0.start <= window)
                .next()
                .is_some();
            if !has_predecessor {
                *isolated_counts.entry(e1.xid).or_default() += 1;
            }
        }
    }

    for list in by_node.values() {
        for (pos, &i) in list.iter().enumerate() {
            let e1 = &errors[i];
            let successor = list[pos + 1..]
                .iter()
                .map(|&j| &errors[j])
                .take_while(|e2| e2.start - e1.start <= window)
                .find(|e2| e2.gpu != e1.gpu);
            if let Some(e2) = successor {
                let delay = (e2.start - e1.start).as_secs_f64();
                let entry = inter_edges
                    .entry((e1.xid, e2.xid))
                    .or_insert((0, OnlineStats::new()));
                entry.0 += 1;
                entry.1.push(delay);
            }
        }
    }

    let to_edges = |map: BTreeMap<(Xid, Xid), (u64, OnlineStats)>| -> Vec<PropagationEdge> {
        let mut v: Vec<PropagationEdge> = map
            .into_iter()
            .map(|((from, to), (count, delays))| PropagationEdge {
                from,
                to,
                probability: count as f64 / *sources.get(&from).unwrap_or(&1).max(&1) as f64,
                mean_delay_s: delays.mean(),
                count,
            })
            .collect();
        v.sort_by(|a, b| {
            a.from
                .cmp(&b.from)
                .then(b.probability.total_cmp(&a.probability))
                .then(a.to.cmp(&b.to))
        });
        v
    };
    let ratio = |counts: &BTreeMap<Xid, u64>| -> BTreeMap<Xid, f64> {
        counts
            .iter()
            .map(|(&xid, &c)| {
                (
                    xid,
                    c as f64 / *sources.get(&xid).unwrap_or(&1).max(&1) as f64,
                )
            })
            .collect()
    };

    PropagationAnalysis {
        intra: to_edges(intra_edges),
        inter: to_edges(inter_edges),
        terminal: ratio(&terminal_counts),
        isolated: ratio(&isolated_counts),
        sources,
        nvlink: nvlink_spread(errors, spread_window),
    }
}

fn nvlink_spread(errors: &[CoalescedError], window: Duration) -> NvlinkSpread {
    let mut by_node: BTreeMap<_, Vec<&CoalescedError>> = BTreeMap::new();
    for e in errors.iter().filter(|e| e.xid == Xid::NvlinkError) {
        by_node.entry(e.gpu.node).or_default().push(e);
    }
    let (mut total, mut single, mut multi, mut four_plus, mut all_eight) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for list in by_node.values_mut() {
        list.sort_by_key(|e| e.start);
        for (i, e) in list.iter().enumerate() {
            let mut gpus: Vec<_> = vec![e.gpu];
            for other in &list[i + 1..] {
                if other.start - e.start > window {
                    break;
                }
                if !gpus.contains(&other.gpu) {
                    gpus.push(other.gpu);
                }
            }
            total += 1;
            match gpus.len() {
                1 => single += 1,
                n => {
                    multi += 1;
                    if n >= 4 {
                        four_plus += 1;
                    }
                    if n >= 8 {
                        all_eight += 1;
                    }
                }
            }
        }
    }
    let denom = total.max(1) as f64;
    NvlinkSpread {
        incidents: total,
        single_gpu: single as f64 / denom,
        multi_gpu: multi as f64 / denom,
        four_plus: four_plus as f64 / denom,
        all_eight,
    }
}

pub(crate) fn counterfactual(
    errors: &[CoalescedError],
    observation_hours: f64,
    node_count: u32,
    mttr_h: f64,
) -> CounterfactualReport {
    let mtbe = Mtbe::new(observation_hours, node_count);
    let characterized: Vec<&CoalescedError> =
        errors.iter().filter(|e| e.xid.is_characterized()).collect();
    let baseline_count = characterized.len() as u64;
    let baseline_mtbe_h = mtbe.per_node_hours(baseline_count).unwrap_or(f64::INFINITY);

    let mut per_xid_gpu: BTreeMap<(Xid, GpuId), u64> = BTreeMap::new();
    for e in &characterized {
        *per_xid_gpu.entry((e.xid, e.gpu)).or_default() += 1;
    }
    let mut offenders: Vec<(Xid, GpuId, u64)> = Vec::new();
    for &xid in &Xid::TABLE1 {
        if let Some((&(_, gpu), &count)) = per_xid_gpu
            .iter()
            .filter(|((x, _), _)| *x == xid)
            .max_by_key(|(_, &c)| c)
        {
            offenders.push((xid, gpu, count));
        }
    }
    let is_offender = |e: &CoalescedError| {
        offenders
            .iter()
            .any(|&(xid, gpu, _)| e.xid == xid && e.gpu == gpu)
    };
    let no_offender_count = characterized.iter().filter(|e| !is_offender(e)).count() as u64;
    let no_offenders_mtbe_h = mtbe
        .per_node_hours(no_offender_count)
        .unwrap_or(f64::INFINITY);
    let peripheral = [Xid::GspRpcTimeout, Xid::PmuSpiError, Xid::NvlinkError];
    let hardened_count = characterized
        .iter()
        .filter(|e| !is_offender(e) && !peripheral.contains(&e.xid))
        .count() as u64;
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

pub(crate) fn job_impact(
    jobs: &[JobRecord],
    errors: &[CoalescedError],
    cfg: JobImpactConfig,
) -> JobImpactAnalysis {
    let mut by_gpu: BTreeMap<GpuId, Vec<CoalescedError>> = BTreeMap::new();
    for e in errors {
        by_gpu.entry(e.gpu).or_default().push(*e);
    }
    for v in by_gpu.values_mut() {
        v.sort_by_key(|e| e.start);
    }

    let mut encountering: BTreeMap<Xid, BTreeSet<u64>> = BTreeMap::new();
    let mut failed_with: BTreeMap<Xid, BTreeSet<u64>> = BTreeMap::new();
    let mut gpu_failed_jobs: BTreeSet<u64> = BTreeSet::new();
    let mut completed = 0u64;
    let mut failed_any = 0u64;
    let mut lost_gpu_hours = 0.0;
    let mut dist = ElapsedDistributions {
        completed: Histogram::new(0.0, 6_000.0, 60),
        gpu_failed: Histogram::new(0.0, 6_000.0, 60),
        errors_vs_duration_completed: Vec::new(),
        errors_vs_duration_failed: Vec::new(),
    };

    for job in jobs {
        let elapsed_min = job.elapsed().as_secs_f64() / 60.0;
        let mut errors_seen = 0u32;
        let mut xids_seen: Vec<Xid> = Vec::new();
        let mut fatal_xids: Vec<Xid> = Vec::new();
        let fail_window_start = job.end.saturating_sub(cfg.join_window);
        for &g in &job.gpus {
            let Some(list) = by_gpu.get(&g) else {
                continue;
            };
            let lo = list.partition_point(|e| e.start < job.start);
            for e in &list[lo..] {
                if e.start > job.end {
                    break;
                }
                errors_seen += 1;
                if !xids_seen.contains(&e.xid) {
                    xids_seen.push(e.xid);
                }
                if e.start >= fail_window_start && !fatal_xids.contains(&e.xid) {
                    fatal_xids.push(e.xid);
                }
            }
        }
        for &x in &xids_seen {
            encountering.entry(x).or_default().insert(job.id);
        }
        let job_failed = job.exit_code != 0;
        if job_failed && !fatal_xids.is_empty() {
            gpu_failed_jobs.insert(job.id);
            lost_gpu_hours += job.gpu_hours();
            for &x in &fatal_xids {
                failed_with.entry(x).or_default().insert(job.id);
            }
            dist.gpu_failed.push(elapsed_min);
            if errors_seen > 0 {
                dist.errors_vs_duration_failed
                    .push((elapsed_min, errors_seen));
            }
        } else if job.state == JobState::Completed {
            completed += 1;
            dist.completed.push(elapsed_min);
            if errors_seen > 0 {
                dist.errors_vs_duration_completed
                    .push((elapsed_min, errors_seen));
            }
        }
        if job_failed {
            failed_any += 1;
        }
    }

    let mut table2: Vec<Table2Row> = Xid::TABLE1
        .iter()
        .map(|&xid| Table2Row {
            xid,
            gpu_failed_jobs: failed_with.get(&xid).map(|s| s.len() as u64).unwrap_or(0),
            jobs_encountering: encountering.get(&xid).map(|s| s.len() as u64).unwrap_or(0),
        })
        .collect();
    table2.sort_by_key(|r| std::cmp::Reverse(r.gpu_failed_jobs));
    let total = jobs.len() as u64;
    JobImpactAnalysis {
        table2,
        gpu_failed_total: gpu_failed_jobs.len() as u64,
        completed,
        failed_any,
        success_rate: if total > 0 {
            1.0 - failed_any as f64 / total as f64
        } else {
            0.0
        },
        lost_gpu_hours,
        distributions: dist,
    }
}

pub(crate) fn table3(jobs: &[JobRecord]) -> Vec<Table3Row> {
    let buckets: [(u16, u16); 8] = [
        (1, 1),
        (2, 4),
        (5, 8),
        (9, 32),
        (33, 64),
        (65, 128),
        (129, 256),
        (257, u16::MAX),
    ];
    let total = jobs.len().max(1) as f64;
    buckets
        .iter()
        .map(|&(lo, hi)| {
            let mut elapsed: Vec<f64> = Vec::new();
            let mut ml_h = 0.0;
            let mut non_ml_h = 0.0;
            for j in jobs {
                let n = j.gpu_count() as u16;
                if n < lo || n > hi {
                    continue;
                }
                elapsed.push(j.elapsed().as_secs_f64() / 60.0);
                if j.ml {
                    ml_h += j.gpu_hours();
                } else {
                    non_ml_h += j.gpu_hours();
                }
            }
            elapsed.sort_by(f64::total_cmp);
            let count = elapsed.len() as u64;
            let mean = if count > 0 {
                elapsed.iter().sum::<f64>() / count as f64
            } else {
                0.0
            };
            Table3Row {
                min_gpus: lo,
                max_gpus: hi,
                count,
                share: count as f64 / total,
                elapsed_mean_min: mean,
                elapsed_p50_min: quantile_sorted(&elapsed, 0.5).unwrap_or(0.0),
                elapsed_p99_min: quantile_sorted(&elapsed, 0.99).unwrap_or(0.0),
                ml_gpu_hours_k: ml_h / 1_000.0,
                non_ml_gpu_hours_k: non_ml_h / 1_000.0,
            }
        })
        .collect()
}
