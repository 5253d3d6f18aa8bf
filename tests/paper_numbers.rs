//! Full-scale paper-number reproduction (release mode; run explicitly):
//!
//! ```sh
//! cargo test --release --test paper_numbers -- --ignored
//! ```
//!
//! Runs the complete 855-day Ampere campaign plus the 1.44 M-job workload
//! and asserts that no compared quantity lands outside its tolerance band
//! (`Verdict::Mismatch`). The smaller non-ignored test below checks the
//! projection headlines, which are cheap.

use gpu_resilience::availsim::{simulate_mean, ProjectionConfig};
use gpu_resilience::core::{PipelineBuilder, StudyConfig};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::report::{ampere_comparison, h100_comparison, Verdict};
use gpu_resilience::slurm::{apply_errors, DrainWindows, JobLoadConfig, MaskingModel, Scheduler};
use gpu_resilience::xid::{Duration, Xid};
use rand::prelude::*;

#[test]
#[ignore = "full 855-day study; run with --release --ignored"]
fn full_ampere_study_has_no_mismatches() {
    let out = Campaign::run(CampaignConfig::ampere_study(2024));
    let drains = DrainWindows::from_events(
        out.events
            .iter()
            .filter(|e| {
                use gpu_resilience::gpu::device::Consequence::*;
                matches!(e.consequence, GpuErrorState | GpuLost)
                    && e.xid != Xid::UncontainedEcc
            })
            .map(|e| (e.gpu.node, e.at)),
        Duration::from_hours(24),
    );
    let mut schedule = Scheduler::new(JobLoadConfig::delta_study(7)).run(&out.fleet, &drains);
    let mut rng = StdRng::seed_from_u64(99);
    apply_errors(&mut schedule.jobs, &out.events, &MaskingModel::default(), &mut rng);

    let results = PipelineBuilder::new(StudyConfig::ampere_study())
        .jobs(&schedule.jobs)
        .downtime(&out.downtime)
        .run_records(&out.records);
    let cmp = ampere_comparison(&results);
    let mismatched: Vec<_> = cmp
        .items
        .iter()
        .filter(|e| e.verdict() == Verdict::Mismatch)
        .collect();
    assert!(
        mismatched.is_empty(),
        "mismatches:\n{}",
        mismatched
            .iter()
            .map(|e| format!("{} {}: paper {} vs measured {}", e.experiment, e.metric, e.paper, e.measured))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The vast majority should be tight matches, not just "close".
    assert!(
        cmp.matches() * 10 >= cmp.items.len() * 9,
        "only {} of {} matched",
        cmp.matches(),
        cmp.items.len()
    );
}

#[test]
#[ignore = "full H100 campaign; run with --release --ignored"]
fn h100_section6_has_no_mismatches() {
    let out = Campaign::run(CampaignConfig::h100_study(616));
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let results = PipelineBuilder::new(cfg)
        .downtime(&out.downtime)
        .run_records(&out.records);
    let cmp = h100_comparison(&results);
    assert_eq!(
        cmp.mismatches(),
        0,
        "H100 mismatches:\n{}",
        cmp.render()
    );
    // Section 6's signature observation: RRFs without RREs.
    let rre = results.table1_row(Xid::RowRemapEvent).map(|r| r.count).unwrap_or(0);
    let rrf = results.table1_row(Xid::RowRemapFailure).map(|r| r.count).unwrap_or(0);
    assert!(rrf > 0, "expected RRFs on the defective H100 parts");
    assert!(rre <= rrf, "H100 fleet should fail remaps, not succeed them");
}

#[test]
fn projection_headlines_match_section_5_4() {
    let base = ProjectionConfig::paper_scenario(42);
    let r40 = simulate_mean(&base, 30);
    let r5 = simulate_mean(&base.with_recovery_minutes(5.0), 30);
    // ~20 % and ~5 %, a ~4x reduction.
    assert!(
        (0.12..0.30).contains(&r40.required_overprovision),
        "40-min point {}",
        r40.required_overprovision
    );
    assert!(
        (0.02..0.10).contains(&r5.required_overprovision),
        "5-min point {}",
        r5.required_overprovision
    );
    let better = simulate_mean(&base.with_rate_factor(67.0 / 223.0), 30);
    assert!(
        r40.required_overprovision / better.required_overprovision > 2.5,
        "availability improvement cut: {} -> {}",
        r40.required_overprovision,
        better.required_overprovision
    );
}
