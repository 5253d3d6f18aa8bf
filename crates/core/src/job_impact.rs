//! Job-level fault analysis (Section 5, Tables 2–3, Figures 9a/9b).
//!
//! Jobs are classified **GPU-failed** when they exited non-zero and a GPU
//! error occurred on one of their allocated GPUs within a twenty-second
//! window before the failure time. Every error within the window is
//! considered responsible, and Table 2 reports, per XID, how many jobs
//! encountered the error at all versus how many died with it.

use crate::engine::{Sorted, XIDS};
use dr_slurm::{JobRecord, JobState};
use dr_stats::{quantile_sorted, Histogram};
use dr_xid::{Duration, Xid};
use std::collections::BTreeSet;

/// One row of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Table2Row {
    pub xid: Xid,
    /// Jobs that encountered this XID during their run and GPU-failed.
    pub gpu_failed_jobs: u64,
    /// Jobs that encountered this XID during their run.
    pub jobs_encountering: u64,
}

impl Table2Row {
    /// Failure probability given the XID (Table 2's last column).
    pub fn failure_probability(&self) -> f64 {
        if self.jobs_encountering == 0 {
            0.0
        } else {
            self.gpu_failed_jobs as f64 / self.jobs_encountering as f64
        }
    }
}

/// One row of Table 3 (recomputed from the accounting table).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table3Row {
    pub min_gpus: u16,
    pub max_gpus: u16,
    pub count: u64,
    pub share: f64,
    pub elapsed_mean_min: f64,
    pub elapsed_p50_min: f64,
    pub elapsed_p99_min: f64,
    pub ml_gpu_hours_k: f64,
    pub non_ml_gpu_hours_k: f64,
}

/// Binned elapsed-time distribution for Figure 9a and error-count
/// relation for Figure 9b.
#[derive(Clone, Debug)]
pub struct ElapsedDistributions {
    /// Completed-job elapsed histogram (minutes).
    pub completed: Histogram,
    /// GPU-failed-job elapsed histogram (minutes).
    pub gpu_failed: Histogram,
    /// (elapsed minutes, errors encountered) samples for completed jobs
    /// that saw at least one error.
    pub errors_vs_duration_completed: Vec<(f64, u32)>,
    /// Same for GPU-failed jobs.
    pub errors_vs_duration_failed: Vec<(f64, u32)>,
}

/// The full Section 5 analysis output.
#[derive(Clone, Debug)]
pub struct JobImpactAnalysis {
    pub table2: Vec<Table2Row>,
    /// Total GPU-failed jobs (the paper's 4,322).
    pub gpu_failed_total: u64,
    pub completed: u64,
    pub failed_any: u64,
    pub success_rate: f64,
    /// GPU hours consumed by GPU-failed jobs (wasted compute).
    pub lost_gpu_hours: f64,
    pub distributions: ElapsedDistributions,
}

/// The ±window join described in Section 5.3.
#[derive(Clone, Copy, Debug)]
pub struct JobImpactConfig {
    /// The error-to-failure attribution window (20 s in the paper).
    pub join_window: Duration,
}

impl Default for JobImpactConfig {
    fn default() -> Self {
        JobImpactConfig {
            join_window: Duration::from_secs(20),
        }
    }
}

/// Correlate errors with jobs: the join over the shared episode index,
/// where each job's GPUs look up their start-ordered episode lists in
/// its hashed GPU table (a GPU the index never saw finds an empty list).
pub(crate) fn finish_job_impact(
    jobs: &[JobRecord],
    index: &Sorted<'_>,
    cfg: JobImpactConfig,
) -> JobImpactAnalysis {
    let mut encountering: [BTreeSet<u64>; XIDS] = Default::default();
    let mut failed_with: [BTreeSet<u64>; XIDS] = Default::default();
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

    let mut xids_seen: Vec<Xid> = Vec::new();
    let mut fatal_xids: Vec<Xid> = Vec::new();
    for job in jobs {
        let elapsed_min = job.elapsed().as_secs_f64() / 60.0;
        let mut errors_seen = 0u32;
        xids_seen.clear();
        fatal_xids.clear();
        let fail_window_start = job.end.saturating_sub(cfg.join_window);

        for &g in &job.gpus {
            let list = index.gpu_list(g);
            // All errors starting within [job.start, job.end].
            let lo = list.partition_point(|&p| index.start(p).is_some_and(|s| s < job.start));
            for e in list.get(lo..).unwrap_or_default().iter().filter_map(|&p| index.episode(p)) {
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
            encountering[x.ordinal()].insert(job.id);
        }

        let job_failed = job.exit_code != 0;
        // "GPU-failed": non-zero exit with an error inside the pre-failure
        // window. (The paper classifies from the accounting data alone,
        // without knowing the true cause — so user failures that happen to
        // coincide with an error are counted too, exactly as in the study.)
        let is_gpu_failed = job_failed && !fatal_xids.is_empty();
        if is_gpu_failed {
            gpu_failed_jobs.insert(job.id);
            lost_gpu_hours += job.gpu_hours();
            for &x in &fatal_xids {
                failed_with[x.ordinal()].insert(job.id);
            }
            dist.gpu_failed.push(elapsed_min);
            if errors_seen > 0 {
                dist.errors_vs_duration_failed.push((elapsed_min, errors_seen));
            }
        } else if job.state == JobState::Completed {
            completed += 1;
            dist.completed.push(elapsed_min);
            if errors_seen > 0 {
                dist
                    .errors_vs_duration_completed
                    .push((elapsed_min, errors_seen));
            }
        }
        if job_failed {
            failed_any += 1;
        }
    }

    // Table 2, ordered by GPU-failed count descending like the paper.
    let mut table2: Vec<Table2Row> = Xid::TABLE1
        .iter()
        .map(|&xid| Table2Row {
            xid,
            gpu_failed_jobs: failed_with[xid.ordinal()].len() as u64,
            jobs_encountering: encountering[xid.ordinal()].len() as u64,
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

/// The standard Table 3 GPU-count buckets, `(min, max)` inclusive.
const TABLE3_BUCKETS: [(u16, u16); 8] = [
    (1, 1),
    (2, 4),
    (5, 8),
    (9, 32),
    (33, 64),
    (65, 128),
    (129, 256),
    (257, u16::MAX),
];

/// Recompute Table 3 from the accounting table using the standard
/// buckets, in one walk of the jobs: each job lands in its bucket's
/// elapsed samples and hour sums in job order.
pub fn table3(jobs: &[JobRecord]) -> Vec<Table3Row> {
    let mut elapsed: [Vec<f64>; 8] = Default::default();
    let mut ml_h = [0.0f64; 8];
    let mut non_ml_h = [0.0f64; 8];
    for j in jobs {
        let n = j.gpu_count() as u16;
        let Some(b) = TABLE3_BUCKETS.iter().position(|&(lo, hi)| lo <= n && n <= hi) else {
            continue;
        };
        elapsed[b].push(j.elapsed().as_secs_f64() / 60.0);
        if j.ml {
            ml_h[b] += j.gpu_hours();
        } else {
            non_ml_h[b] += j.gpu_hours();
        }
    }
    let total = jobs.len().max(1) as f64;
    TABLE3_BUCKETS
        .iter()
        .zip(elapsed.iter_mut())
        .zip(ml_h.iter().zip(&non_ml_h))
        .map(|((&(lo, hi), elapsed), (&ml_h, &non_ml_h))| {
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
                elapsed_p50_min: quantile_sorted(elapsed, 0.5).unwrap_or(0.0),
                elapsed_p99_min: quantile_sorted(elapsed, 0.99).unwrap_or(0.0),
                ml_gpu_hours_k: ml_h / 1_000.0,
                non_ml_gpu_hours_k: non_ml_h / 1_000.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::CoalescedError;
    use crate::pipeline::StudyConfig;
    use dr_xid::{ErrorDetail, GpuId, NodeId, Timestamp};

    /// The job impact `StudyEngine` finishes with the default ±20 s join.
    fn analyze_jobs(jobs: &[JobRecord], errors: &[CoalescedError]) -> JobImpactAnalysis {
        let study = crate::testutil::study(errors, StudyConfig::ampere_study(), Some(jobs));
        study.job_impact.expect("jobs were joined")
    }

    fn gpu(node: u32, slot: usize) -> GpuId {
        GpuId::at_slot(NodeId(node), slot)
    }

    fn job(id: u64, g: GpuId, start_s: u64, end_s: u64, exit: i32, state: JobState) -> JobRecord {
        JobRecord {
            id,
            gpus: vec![g],
            start: Timestamp::from_secs(start_s),
            end: Timestamp::from_secs(end_s),
            state,
            exit_code: exit,
            ml: false,
        }
    }

    fn err(g: GpuId, at_s: u64, xid: Xid) -> CoalescedError {
        CoalescedError {
            gpu: g,
            xid,
            detail: ErrorDetail::NONE,
            start: Timestamp::from_secs(at_s),
            last: Timestamp::from_secs(at_s),
            merged: 1,
        }
    }

    #[test]
    fn gpu_failed_classification_needs_window_hit() {
        let g = gpu(1, 0);
        let jobs = vec![
            // Dies 5 s after the error: GPU-failed.
            job(0, g, 0, 1_005, 137, JobState::GpuFailed),
            // Error mid-run but exits cleanly much later: encountered only.
            job(1, g, 2_000, 9_000, 0, JobState::Completed),
            // Fails with no error nearby: not GPU-failed.
            job(2, g, 20_000, 21_000, 1, JobState::UserFailed),
        ];
        let errors = vec![err(g, 1_000, Xid::GspRpcTimeout), err(g, 2_500, Xid::MmuError)];
        let a = analyze_jobs(&jobs, &errors);
        assert_eq!(a.gpu_failed_total, 1);
        let gsp = a.table2.iter().find(|r| r.xid == Xid::GspRpcTimeout).unwrap();
        assert_eq!(gsp.jobs_encountering, 1);
        assert_eq!(gsp.gpu_failed_jobs, 1);
        assert_eq!(gsp.failure_probability(), 1.0);
        let mmu = a.table2.iter().find(|r| r.xid == Xid::MmuError).unwrap();
        assert_eq!(mmu.jobs_encountering, 1);
        assert_eq!(mmu.gpu_failed_jobs, 0);
        assert_eq!(mmu.failure_probability(), 0.0);
    }

    #[test]
    fn error_after_job_end_is_not_encountered() {
        let g = gpu(1, 0);
        let jobs = vec![job(0, g, 0, 100, 0, JobState::Completed)];
        let errors = vec![err(g, 150, Xid::MmuError)];
        let a = analyze_jobs(&jobs, &errors);
        let mmu = a.table2.iter().find(|r| r.xid == Xid::MmuError).unwrap();
        assert_eq!(mmu.jobs_encountering, 0);
    }

    #[test]
    fn multiple_errors_in_window_all_blamed() {
        let g = gpu(1, 0);
        let jobs = vec![job(0, g, 0, 1_010, 139, JobState::GpuFailed)];
        let errors = vec![
            err(g, 1_000, Xid::NvlinkError),
            err(g, 1_005, Xid::MmuError),
        ];
        let a = analyze_jobs(&jobs, &errors);
        assert_eq!(a.gpu_failed_total, 1);
        for xid in [Xid::NvlinkError, Xid::MmuError] {
            let row = a.table2.iter().find(|r| r.xid == xid).unwrap();
            assert_eq!(row.gpu_failed_jobs, 1, "{xid}");
        }
    }

    #[test]
    fn coincidental_user_failure_counts_as_gpu_failed() {
        // The paper's classifier cannot see the true cause: a user failure
        // within 20 s of an unrelated error is attributed to the GPU.
        let g = gpu(1, 0);
        let jobs = vec![job(0, g, 0, 1_010, 1, JobState::UserFailed)];
        let errors = vec![err(g, 1_000, Xid::MmuError)];
        let a = analyze_jobs(&jobs, &errors);
        assert_eq!(a.gpu_failed_total, 1);
    }

    #[test]
    fn success_rate_and_lost_hours() {
        let g = gpu(1, 0);
        let jobs = vec![
            job(0, g, 0, 3_600, 0, JobState::Completed),
            job(1, g, 0, 7_210, 137, JobState::GpuFailed),
        ];
        let errors = vec![err(g, 7_200, Xid::GspRpcTimeout)];
        let a = analyze_jobs(&jobs, &errors);
        assert_eq!(a.completed, 1);
        assert_eq!(a.failed_any, 1);
        assert!((a.success_rate - 0.5).abs() < 1e-9);
        assert!((a.lost_gpu_hours - 7_210.0 / 3_600.0).abs() < 1e-9);
    }

    #[test]
    fn table3_buckets_and_hours() {
        let g = gpu(1, 0);
        let mut jobs = vec![
            job(0, g, 0, 3_600, 0, JobState::Completed),
            job(1, g, 0, 7_200, 0, JobState::Completed),
        ];
        jobs[1].gpus = vec![gpu(1, 0), gpu(1, 1), gpu(1, 2)];
        jobs[1].ml = true;
        let t3 = table3(&jobs);
        assert_eq!(t3[0].count, 1); // 1-GPU bucket
        assert_eq!(t3[1].count, 1); // 2-4 bucket
        assert!((t3[0].share - 0.5).abs() < 1e-9);
        assert!((t3[0].elapsed_mean_min - 60.0).abs() < 1e-9);
        assert!((t3[1].ml_gpu_hours_k - 3.0 * 2.0 / 1_000.0).abs() < 1e-9);
        assert_eq!(t3[1].non_ml_gpu_hours_k, 0.0);
        assert_eq!(t3[7].count, 0);
    }

    #[test]
    fn distributions_are_populated() {
        let g = gpu(1, 0);
        let jobs = vec![
            job(0, g, 0, 60_000, 0, JobState::Completed),
            job(1, g, 0, 1_010, 139, JobState::GpuFailed),
        ];
        let errors = vec![err(g, 1_000, Xid::NvlinkError)];
        let a = analyze_jobs(&jobs, &errors);
        assert_eq!(a.distributions.completed.count(), 1);
        assert_eq!(a.distributions.gpu_failed.count(), 1);
        assert_eq!(a.distributions.errors_vs_duration_failed.len(), 1);
        // The long completed job also saw the error mid-run.
        assert_eq!(a.distributions.errors_vs_duration_completed.len(), 1);
    }
}
