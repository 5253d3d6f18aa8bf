//! Tier-1 differential gate for the fold-based analysis core: the
//! [`StudyResults`] a pipeline run streams from a source must be
//! **Debug-fingerprint-identical** to a `StudyEngine` folded once over
//! the run's final coalesced vector — on every existing source type
//! (text, generator, record store) and at 1 and 8 workers. The fold
//! itself is pinned against the map-based oracle by the crate's unit
//! tests and frozen by `tests/golden_digests.rs`.

use gpu_resilience::core::{
    GeneratorSource, InMemoryRecordSource, PipelineBuilder, StudyConfig, StudyEngine,
    StudyResults,
};
use gpu_resilience::faults::{Campaign, CampaignConfig, DowntimeInterval};
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::slurm::{DrainWindows, JobLoadConfig, JobRecord, Scheduler};
use gpu_resilience::xid::{ErrorRecord, NodeId};

/// The study folded once: a fresh `StudyEngine` fed the whole coalesced
/// vector in one `extend`, then finished. A streamed run must reproduce
/// it bit for bit.
fn batch_oracle(
    coalesced: Vec<gpu_resilience::core::CoalescedError>,
    jobs: Option<&[JobRecord]>,
    downtime: Option<&[DowntimeInterval]>,
    config: StudyConfig,
) -> StudyResults {
    let mut engine = StudyEngine::new(config, jobs, downtime);
    engine.extend(coalesced);
    engine.finish_observed(&MetricsSink::disabled())
}

struct Fixture {
    out: gpu_resilience::faults::CampaignOutput,
    jobs: Vec<JobRecord>,
    cfg: StudyConfig,
}

fn fixture(seed: u64) -> Fixture {
    let out = Campaign::run(CampaignConfig::tiny(seed));
    let drains = DrainWindows::default();
    let jobs = Scheduler::new(JobLoadConfig::tiny(seed ^ 0x5eed))
        .run(&out.fleet, &drains)
        .jobs;
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    Fixture { out, jobs, cfg }
}

fn assert_fold_matches_batch(results: &StudyResults, jobs: &[JobRecord], downtime: &[DowntimeInterval], label: &str) {
    let oracle = batch_oracle(
        results.coalesced.clone(),
        Some(jobs),
        Some(downtime),
        results.config,
    );
    assert_eq!(
        format!("{results:?}"),
        format!("{oracle:?}"),
        "the streamed run diverges from the study folded once on the {label} source"
    );
}

#[test]
fn folded_engine_matches_batch_on_text_source_at_1_and_8_workers() {
    let f = fixture(91);
    let builder = PipelineBuilder::new(f.cfg).jobs(&f.jobs).downtime(&f.out.downtime);
    for workers in [1usize, 8] {
        gpu_resilience::par::set_worker_override(Some(workers));
        let (results, _) = builder.run_text(&f.out.text_logs);
        gpu_resilience::par::set_worker_override(None);
        assert_fold_matches_batch(&results, &f.jobs, &f.out.downtime, "text");
    }
}

#[test]
fn folded_engine_matches_batch_on_generator_source_at_1_and_8_workers() {
    let f = fixture(92);
    let builder = PipelineBuilder::new(f.cfg).jobs(&f.jobs).downtime(&f.out.downtime);
    for workers in [1usize, 8] {
        gpu_resilience::par::set_worker_override(Some(workers));
        let mut source = GeneratorSource::from_campaign(&f.out);
        let (results, _) = builder.run_source(&mut source).expect("generator source");
        gpu_resilience::par::set_worker_override(None);
        assert_fold_matches_batch(&results, &f.jobs, &f.out.downtime, "generator");
    }
}

#[test]
fn folded_engine_matches_batch_on_record_store_source_at_1_and_8_workers() {
    let f = fixture(93);
    // Per-node record streams, as extraction (and therefore the store)
    // would persist them: grouped by node, time order preserved.
    let nodes: Vec<NodeId> = f.out.fleet.nodes().iter().map(|n| n.id).collect();
    let per_node: Vec<Vec<ErrorRecord>> = nodes
        .iter()
        .map(|&id| {
            f.out
                .records
                .iter()
                .filter(|r| r.gpu.node == id)
                .cloned()
                .collect()
        })
        .collect();
    let builder = PipelineBuilder::new(f.cfg).jobs(&f.jobs).downtime(&f.out.downtime);
    for workers in [1usize, 8] {
        gpu_resilience::par::set_worker_override(Some(workers));
        let mut source = InMemoryRecordSource::new(&nodes, &per_node);
        let results = builder.run_record_source(&mut source).expect("record source");
        gpu_resilience::par::set_worker_override(None);
        assert_fold_matches_batch(&results, &f.jobs, &f.out.downtime, "record-store");
    }
}

#[test]
fn folded_engine_matches_batch_without_jobs_or_downtime() {
    // The optional sections (job impact, downtime, availability) must
    // stay absent exactly as in the one-shot fold.
    let f = fixture(94);
    let (results, _) = PipelineBuilder::new(f.cfg).run_text(&f.out.text_logs);
    let oracle = batch_oracle(results.coalesced.clone(), None, None, results.config);
    assert_eq!(format!("{results:?}"), format!("{oracle:?}"));
    assert!(results.job_impact.is_none());
    assert!(results.availability.is_none());
}
