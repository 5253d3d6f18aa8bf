//! Reproducibility: identical seeds must give bit-identical results
//! through the whole stack, and different seeds must differ.

use gpu_resilience::availsim::{simulate, ProjectionConfig};
use gpu_resilience::core::{PipelineBuilder, StudyConfig};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::logscan::BaselineExtractor;
use gpu_resilience::slurm::{DrainWindows, JobLoadConfig, Scheduler};
use gpu_resilience::xid::record::sort_records;

#[test]
fn campaign_is_bit_reproducible() {
    let a = Campaign::run(CampaignConfig::tiny(77));
    let b = Campaign::run(CampaignConfig::tiny(77));
    assert_eq!(a.records, b.records);
    assert_eq!(a.events.len(), b.events.len());
    assert!(a.events.iter().zip(&b.events).all(|(x, y)| x == y));
    assert_eq!(a.downtime, b.downtime);
    assert_eq!(a.text_logs, b.text_logs);
}

#[test]
fn pipeline_is_deterministic_including_parallel_extraction() {
    // The text path fans extraction across threads; results must still be
    // identical run to run (dr-par restores input order).
    let out = Campaign::run(CampaignConfig::tiny(78));
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let builder = PipelineBuilder::new(cfg);
    let (r1, s1) = builder.run_text(&out.text_logs);
    let (r2, s2) = builder.run_text(&out.text_logs);
    assert_eq!(s1, s2);
    assert_eq!(r1.coalesced, r2.coalesced);
    assert_eq!(r1.overall_mtbe_h, r2.overall_mtbe_h);
}

#[test]
fn scheduler_is_deterministic() {
    let out = Campaign::run(CampaignConfig::tiny(79));
    let drains = DrainWindows::default();
    let s1 = Scheduler::new(JobLoadConfig::tiny(3)).run(&out.fleet, &drains);
    let s2 = Scheduler::new(JobLoadConfig::tiny(3)).run(&out.fleet, &drains);
    assert_eq!(s1.jobs.len(), s2.jobs.len());
    for (a, b) in s1.jobs.iter().zip(&s2.jobs) {
        assert_eq!(a.start, b.start);
        assert_eq!(a.gpus, b.gpus);
        assert_eq!(a.exit_code, b.exit_code);
    }
}

#[test]
fn single_thread_and_multi_thread_runs_are_bit_identical() {
    // The whole text pipeline must give the same bits whether dr-par runs
    // serially or fanned out: worker count is a performance knob, never a
    // results knob. (Process-wide override — keep both runs in this test.)
    let out = Campaign::run(CampaignConfig::tiny(80));
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);

    let builder = PipelineBuilder::new(cfg);
    gpu_resilience::par::set_worker_override(Some(1));
    let (r1, s1) = builder.run_text(&out.text_logs);
    gpu_resilience::par::set_worker_override(Some(8));
    let (rn, sn) = builder.run_text(&out.text_logs);
    gpu_resilience::par::set_worker_override(None);

    assert_eq!(s1, sn);
    assert_eq!(r1.coalesced, rn.coalesced);
    assert_eq!(r1.overall_mtbe_h, rn.overall_mtbe_h);
    assert_eq!(format!("{:?}", r1.table1), format!("{:?}", rn.table1));
}

#[test]
fn chunked_extraction_is_invariant_to_chunk_size_and_workers() {
    // The sharded Stage I path must be a pure performance knob: any chunk
    // size, any worker count, same bits. This is the end-to-end version of
    // the core crate's unit tests, through the public pipeline entry.
    let out = Campaign::run(CampaignConfig::tiny(81));
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);

    let (reference, ref_stats) = PipelineBuilder::new(cfg).run_text(&out.text_logs);
    for target in [Some(1), Some(4 * 1024), Some(u64::MAX), None] {
        for workers in [Some(1), Some(8)] {
            let mut builder = PipelineBuilder::new(cfg);
            if let Some(t) = target {
                builder = builder.chunk_bytes(t);
            }
            gpu_resilience::par::set_worker_override(workers);
            let (r, s) = builder.run_text(&out.text_logs);
            gpu_resilience::par::set_worker_override(None);
            assert_eq!(s, ref_stats, "stats drift at {target:?}/{workers:?}");
            assert_eq!(
                r.coalesced, reference.coalesced,
                "coalesced drift at {target:?}/{workers:?}"
            );
            assert_eq!(format!("{:?}", r.table1), format!("{:?}", reference.table1));
        }
    }
}

#[test]
fn every_worker_count_coalesces_like_the_serial_baseline_route() {
    // The tests above compare the fast path with itself; this one pins it
    // to the batch route, which shares none of its Stage I code: each
    // node's text through the serial baseline extractor, one global sort,
    // one fold over the records. Three days keep the five runs cheap.
    let out = Campaign::run(CampaignConfig {
        duration_days: 3.0,
        ..CampaignConfig::tiny(82)
    });
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let mut records = Vec::new();
    for (_, lines) in &out.text_logs {
        let mut ex = BaselineExtractor::new();
        records.append(&mut ex.extract_all(lines.iter().map(|s| s.as_str())));
    }
    sort_records(&mut records);
    let reference = PipelineBuilder::new(cfg).run_records(&records);
    assert!(!reference.coalesced.is_empty(), "corpus must hold XID episodes");

    for workers in [1, 2, 4, 8] {
        gpu_resilience::par::set_worker_override(Some(workers));
        let (r, _) = PipelineBuilder::new(cfg).run_text(&out.text_logs);
        gpu_resilience::par::set_worker_override(None);
        assert_eq!(r.coalesced, reference.coalesced, "episodes drift at {workers} workers");
    }
}

#[test]
fn projection_is_deterministic() {
    let cfg = ProjectionConfig::paper_scenario(5);
    assert_eq!(simulate(&cfg), simulate(&cfg));
}

#[test]
fn seeds_actually_matter() {
    let a = Campaign::run(CampaignConfig::tiny(1));
    let b = Campaign::run(CampaignConfig::tiny(2));
    assert_ne!(a.records.len(), 0);
    assert_ne!(a.records, b.records);
}
