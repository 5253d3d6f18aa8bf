//! Cross-crate integration: campaign → logs → extraction → pipeline.
//!
//! These tests exercise the whole stack at a small scale (full fleet
//! shapes but shortened campaigns) and assert *internal consistency*:
//! what the pipeline recovers must agree with the campaign's ground
//! truth. Paper-number comparisons live in the `paper_numbers` test and
//! the `delta_study` example.

use gpu_resilience::core::{coalesce, CoalesceConfig, PipelineBuilder, StudyConfig};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::logscan::{BaselineExtractor, XidExtractor};
use gpu_resilience::xid::Xid;

fn tiny_output() -> gpu_resilience::faults::CampaignOutput {
    Campaign::run(CampaignConfig::tiny(1234))
}

#[test]
fn recovered_counts_match_ground_truth_events() {
    let out = tiny_output();
    let coalesced = coalesce(&out.records, CoalesceConfig::default());
    // The pipeline's coalesced errors must reproduce the campaign's
    // ground-truth episode counts exactly: the generator emits bursts
    // whose internal gaps stay below Δt and whose episodes are separated
    // by more than Δt (or differ in message detail).
    for xid in Xid::ALL {
        let truth = out.events.iter().filter(|e| e.xid == xid).count();
        let recovered = coalesced.iter().filter(|e| e.xid == xid).count();
        let diff = truth.abs_diff(recovered);
        // Allow a whisker of slack: independent episodes can collide in
        // time and detail by chance.
        assert!(
            diff <= 1 + truth / 50,
            "{xid}: ground truth {truth}, recovered {recovered}"
        );
    }
}

#[test]
fn fast_extractor_matches_the_baseline_on_campaign_text() {
    // The extractor's unit tests cover hand-built streams; this runs both
    // engines over a generated campaign's syslog, node by node. Records
    // and the shared counters must be identical (`syslog_lines` differs
    // by design: the baseline keeps the legacy header heuristic).
    let out = tiny_output();
    let mut records = 0;
    for (node, lines) in &out.text_logs {
        let mut fast = XidExtractor::new();
        let mut base = BaselineExtractor::new();
        let recs = fast.extract_all(lines.iter().map(|s| s.as_str()));
        assert_eq!(recs, base.extract_all(lines.iter().map(|s| s.as_str())), "node {node:?}");
        let (f, b) = (fast.stats(), base.stats());
        assert_eq!(
            (f.lines, f.xid_lines, f.unknown_xid, f.malformed),
            (b.lines, b.xid_lines, b.unknown_xid, b.malformed),
            "node {node:?}"
        );
        records += recs.len();
    }
    assert!(records > 0, "campaign text must contain XID records");
}

#[test]
fn recovered_persistence_matches_ground_truth() {
    let out = tiny_output();
    let coalesced = coalesce(&out.records, CoalesceConfig::default());
    let truth_sum: f64 = out.events.iter().map(|e| e.persistence.as_secs_f64()).sum();
    let recovered_sum: f64 = coalesced.iter().map(|e| e.persistence().as_secs_f64()).sum();
    let rel = (truth_sum - recovered_sum).abs() / truth_sum.max(1.0);
    assert!(
        rel < 0.05,
        "persistence sums diverge: truth {truth_sum}, recovered {recovered_sum}"
    );
}

#[test]
fn text_path_agrees_with_record_path() {
    // The text-enabled node subset must yield identical analysis results
    // whether the pipeline starts from raw text or structured records.
    let out = tiny_output();
    assert!(!out.text_logs.is_empty());
    let text_nodes: std::collections::HashSet<_> =
        out.text_logs.iter().map(|(n, _)| *n).collect();
    let subset: Vec<_> = out
        .records
        .iter()
        .filter(|r| text_nodes.contains(&r.gpu.node))
        .cloned()
        .collect();

    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let builder = PipelineBuilder::new(cfg);
    let (from_text, stats) = builder.run_text(&out.text_logs);
    let from_records = builder.run_records(&subset);

    assert_eq!(stats.xid_lines as usize, subset.len());
    assert_eq!(stats.malformed, 0, "rendered lines must re-parse");
    assert_eq!(from_text.coalesced.len(), from_records.coalesced.len());
    for xid in Xid::ALL {
        assert_eq!(
            from_text.table1_row(xid).map(|r| r.count),
            from_records.table1_row(xid).map(|r| r.count),
            "{xid}"
        );
    }
}

#[test]
fn coalescing_window_ablation_is_stable() {
    // Section 3.2: varying Δt from 5 to 20 s does not notably change the
    // result — by construction bursts are much tighter than inter-episode
    // gaps. Verify on generated data.
    let out = tiny_output();
    let base = coalesce(&out.records, CoalesceConfig::with_window_secs(5)).len();
    for secs in [10, 20] {
        let n = coalesce(&out.records, CoalesceConfig::with_window_secs(secs)).len();
        let rel = (base as f64 - n as f64).abs() / base as f64;
        assert!(
            rel < 0.05,
            "Δt={secs}s changes coalesced count by {:.1}% ({base} -> {n})",
            rel * 100.0
        );
    }
}

#[test]
fn recovered_persistence_distribution_matches_the_calibrated_model() {
    // Distribution-level check: the per-XID persistence durations the
    // pipeline recovers from raw log text must be statistically
    // indistinguishable (two-sample KS) from fresh draws of the calibrated
    // persistence model — i.e. the burst emitter + coalescer round-trip
    // preserves the distribution, not just its quantiles.
    use gpu_resilience::faults::PersistenceModel;
    use gpu_resilience::stats::ks_two_sample;
    use rand::prelude::*;

    let out = Campaign::run(CampaignConfig::tiny(4242));
    let coalesced = coalesce(&out.records, CoalesceConfig::default());
    let mmu: Vec<f64> = coalesced
        .iter()
        .filter(|e| e.xid == Xid::MmuError)
        .map(|e| e.persistence().as_secs_f64())
        .collect();
    assert!(mmu.len() > 50, "need a meaningful MMU sample: {}", mmu.len());

    let model = PersistenceModel::calibrate(2.85, 2.80, 5.80);
    let mut rng = StdRng::seed_from_u64(7);
    let reference: Vec<f64> = (0..mmu.len()).map(|_| model.sample(&mut rng).as_secs_f64()).collect();

    let r = ks_two_sample(&mmu, &reference).expect("non-empty");
    assert!(
        !r.rejects_same_distribution(0.001),
        "KS D={:.3}, p={:.4}: recovered persistence diverged from the model",
        r.statistic,
        r.p_value
    );
}

#[test]
fn downtime_intervals_cover_error_state_events() {
    use gpu_resilience::gpu::device::Consequence;
    let out = tiny_output();
    // Every repair interval must follow some error-state/lost event on
    // the same GPU.
    for d in &out.downtime {
        let caused = out.events.iter().any(|e| {
            e.gpu == d.gpu
                && e.at <= d.start
                && matches!(
                    e.consequence,
                    Consequence::GpuErrorState | Consequence::GpuLost
                )
        });
        assert!(caused, "repair of {} at {:?} has no cause", d.gpu, d.start);
    }
}

#[test]
fn fleet_health_is_consistent_at_campaign_end() {
    let out = tiny_output();
    // GPUs left unhealthy must have a more recent unrepaired error than
    // any repair.
    for node in out.fleet.nodes() {
        for gpu in &node.gpus {
            if !gpu.health().is_ok() {
                let has_recent_error = out.events.iter().any(|e| e.gpu == gpu.id());
                assert!(has_recent_error, "{} unhealthy without errors", gpu.id());
            }
        }
    }
}
