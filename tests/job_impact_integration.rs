//! Integration: campaign events × scheduler × impact × Table 2 recovery.
//!
//! The chain under test: the campaign produces ground-truth error events;
//! the scheduler places jobs; `apply_errors` decides which jobs die; and
//! the analysis pipeline must then *re-discover* the error→failure
//! associations from timestamps alone (the ±20 s join), without access to
//! the ground truth.

use gpu_resilience::core::{PipelineBuilder, StudyConfig, StudyResults};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::slurm::{
    apply_errors, DrainWindows, JobLoadConfig, JobState, MaskingModel, Scheduler,
};
use gpu_resilience::xid::{Duration, Xid};
use rand::prelude::*;

struct World {
    out: gpu_resilience::faults::CampaignOutput,
    jobs: Vec<gpu_resilience::slurm::JobRecord>,
    results: StudyResults,
}

fn build_world(seed: u64) -> World {
    let out = Campaign::run(CampaignConfig::tiny(seed));
    let drains = DrainWindows::from_events(
        out.events.iter().map(|e| (e.gpu.node, e.at)),
        Duration::from_hours(24),
    );
    let mut schedule = Scheduler::new(JobLoadConfig::tiny(seed ^ 0xabc)).run(&out.fleet, &drains);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdef);
    apply_errors(&mut schedule.jobs, &out.events, &MaskingModel::default(), &mut rng);
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let results = PipelineBuilder::new(cfg)
        .jobs(&schedule.jobs)
        .downtime(&out.downtime)
        .run_records(&out.records);
    World {
        out,
        jobs: schedule.jobs,
        results,
    }
}

#[test]
fn classifier_rediscovers_gpu_killed_jobs() {
    let w = build_world(5);
    let truly_gpu_failed = w
        .jobs
        .iter()
        .filter(|j| j.state == JobState::GpuFailed)
        .count() as f64;
    let ji = w.results.job_impact.as_ref().expect("job impact present");
    // The timestamp-join classifier must find nearly all true GPU kills
    // (it can also pick up coincidental user failures, so >=).
    assert!(
        ji.gpu_failed_total as f64 >= truly_gpu_failed * 0.95,
        "classifier found {} of {truly_gpu_failed}",
        ji.gpu_failed_total
    );
    // And not wildly more (coincidences are rare).
    assert!(
        (ji.gpu_failed_total as f64) < truly_gpu_failed * 1.3 + 10.0,
        "classifier found {} of {truly_gpu_failed}",
        ji.gpu_failed_total
    );
}

#[test]
fn gsp_failure_probability_is_total() {
    // Every job that encounters a GSP timeout in its kill window dies
    // (Table 2: 100 %).
    for seed in [5, 6, 7] {
        let w = build_world(seed);
        let ji = w.results.job_impact.as_ref().expect("job impact");
        let gsp = ji
            .table2
            .iter()
            .find(|r| r.xid == Xid::GspRpcTimeout)
            .expect("GSP row");
        if gsp.jobs_encountering > 0 {
            assert!(
                gsp.failure_probability() > 0.85,
                "GSP failure probability {}",
                gsp.failure_probability()
            );
            return;
        }
    }
    panic!("no GSP exposures in any seed");
}

#[test]
fn killed_jobs_die_within_the_join_window() {
    let w = build_world(9);
    for job in w.jobs.iter().filter(|j| j.state == JobState::GpuFailed) {
        let near_error = w.out.events.iter().any(|e| {
            job.gpus.contains(&e.gpu)
                && e.at <= job.end
                && job.end - e.at <= Duration::from_secs(20)
        });
        assert!(near_error, "job {} died without a nearby error", job.id);
    }
}

#[test]
fn table3_recovers_the_workload_mixture() {
    let w = build_world(11);
    let t3 = w.results.table3.as_ref().expect("table3");
    let total: u64 = t3.iter().map(|r| r.count).sum();
    assert_eq!(total, w.jobs.len() as u64);
    // Dominant buckets in proportion.
    assert!((t3[0].share - 0.6986).abs() < 0.03, "1-GPU share {}", t3[0].share);
    assert!((t3[1].share - 0.2731).abs() < 0.03);
    // Walltime cap honored.
    for row in t3 {
        assert!(row.elapsed_p99_min <= 2_880.5);
    }
}

#[test]
fn success_rate_reflects_user_failures_plus_gpu_failures() {
    let w = build_world(13);
    let ji = w.results.job_impact.as_ref().expect("job impact");
    // ~25 % user failures plus a small GPU-failed increment.
    assert!(ji.success_rate > 0.66 && ji.success_rate < 0.80,
        "success rate {}", ji.success_rate);
    assert!(ji.lost_gpu_hours >= 0.0);
}

#[test]
fn downtime_and_availability_are_reported() {
    let w = build_world(17);
    let d = w.results.downtime.as_ref().expect("downtime stats");
    assert!(d.incidents > 0);
    assert!(d.mean_service_h > 0.0 && d.mean_service_h < 5.0);
    let a = w.results.availability.expect("availability");
    assert!(a > 0.9 && a < 1.0, "availability {a}");
}
