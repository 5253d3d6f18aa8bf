//! Tier-1 golden digests of whole [`StudyResults`] bundles.
//!
//! Each fixture corpus runs through `PipelineBuilder::run_records`, and
//! the result is reduced to one 64-bit FNV-1a digest exactly as the
//! repository benchmark's oracle does: episodes field by field through
//! `Hash`, every other section through its `Debug` form. The expected
//! values were computed by the map-based analysis fold that preceded the
//! shared episode index, so any change to any output bit of any section
//! fails here, whatever route the finish takes internally.
//!
//! If a digest changes on purpose (a deliberate change to an analysis),
//! print the new value with `cargo test --test golden_digests -- --nocapture`
//! and say in the change log which section moved and why.

use gpu_resilience::core::{CoalesceConfig, PipelineBuilder, StudyConfig, StudyResults};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::slurm::{DrainWindows, JobLoadConfig, JobRecord, JobState, Scheduler};
use gpu_resilience::xid::{ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// The benchmark oracle's digest, without the rendered report.
fn digest(r: &StudyResults) -> u64 {
    let mut h = Fnv64::default();
    for e in &r.coalesced {
        (e.gpu, e.xid, e.detail, e.start, e.last, e.merged).hash(&mut h);
    }
    let _ = write!(
        h,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        r.config,
        r.table1,
        r.overall_mtbe_h,
        r.category_mtbe,
        r.lost_hours,
        r.propagation,
        r.counterfactual,
        r.job_impact,
        r.table3,
        r.downtime,
        r.availability,
    );
    h.finish()
}

fn check(label: &str, r: &StudyResults, expected: u64) {
    let got = digest(r);
    println!("{label}: {got:#018x} ({} episodes)", r.coalesced.len());
    assert_eq!(
        got, expected,
        "{label}: StudyResults digest {got:#018x} differs from the golden {expected:#018x}"
    );
}

fn tiny_campaign(
    seed: u64,
) -> (
    gpu_resilience::faults::CampaignOutput,
    Vec<JobRecord>,
    StudyConfig,
) {
    let out = Campaign::run(CampaignConfig::tiny(seed));
    let jobs = Scheduler::new(JobLoadConfig::tiny(seed ^ 0x5eed))
        .run(&out.fleet, &DrainWindows::default())
        .jobs;
    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    (out, jobs, cfg)
}

#[test]
fn ampere_campaign_with_jobs_and_downtime() {
    let (out, jobs, cfg) = tiny_campaign(71);
    let r = PipelineBuilder::new(cfg)
        .jobs(&jobs)
        .downtime(&out.downtime)
        .run_records(&out.records);
    assert!(r.job_impact.is_some() && r.downtime.is_some());
    check("ampere campaign", &r, 0xa791_ee58_4b7e_a702);
}

#[test]
fn coalescing_ablation_at_one_second() {
    let (out, _, cfg) = tiny_campaign(72);
    let cfg = StudyConfig {
        coalesce: CoalesceConfig::with_window_secs(1),
        ..cfg
    };
    let r = PipelineBuilder::new(cfg)
        .downtime(&out.downtime)
        .run_records(&out.records);
    check("dt=1 ablation", &r, 0x5f29_6f87_3bbe_c6db);
}

/// Twelve NVLink cascades across all eight GPUs of one node, each GPU
/// re-logging its error (so coalescing merges), with PMU → MMU chains on
/// the same GPUs, background errors on two more nodes, and 8-GPU jobs
/// that die inside a cascade.
fn nvlink_cascade() -> (Vec<ErrorRecord>, Vec<JobRecord>) {
    let node = NodeId(5);
    let mut records = Vec::new();
    let mut jobs = Vec::new();
    for round in 0..12u64 {
        let base = 10_000 + round * 7_200;
        let width = 2 + (round as usize * 3) % 7; // 2..=8 GPUs
        for slot in 0..width {
            let gpu = GpuId::at_slot(node, slot);
            let at = base + slot as u64 * (1 + round % 3);
            for rep in 0..3u64 {
                records.push(ErrorRecord::new(
                    Timestamp::from_secs(at + rep * 2),
                    gpu,
                    Xid::NvlinkError,
                    ErrorDetail::new(slot as u16, 0x10 + round as u32),
                ));
            }
        }
        let chained = GpuId::at_slot(node, round as usize % 8);
        records.push(ErrorRecord::new(
            Timestamp::from_secs(base + 40),
            chained,
            Xid::PmuSpiError,
            ErrorDetail::new(0, 0x44),
        ));
        if round % 4 != 0 {
            records.push(ErrorRecord::new(
                Timestamp::from_secs(base + 41),
                chained,
                Xid::MmuError,
                ErrorDetail::new(3, 0xbeef),
            ));
        }
        for other in [6u32, 7] {
            records.push(ErrorRecord::new(
                Timestamp::from_secs(base + 300 + u64::from(other)),
                GpuId::at_slot(NodeId(other), round as usize % 4),
                if round % 2 == 0 {
                    Xid::GspRpcTimeout
                } else {
                    Xid::DoubleBitEcc
                },
                ErrorDetail::new(1, 2),
            ));
        }
        jobs.push(JobRecord {
            id: round,
            gpus: (0..8).map(|s| GpuId::at_slot(node, s)).collect(),
            start: Timestamp::from_secs(base - 3_000),
            end: Timestamp::from_secs(base + 10 + round % 5),
            state: if round % 3 == 0 {
                JobState::Completed
            } else {
                JobState::GpuFailed
            },
            exit_code: if round % 3 == 0 { 0 } else { 137 },
            ml: round % 2 == 1,
        });
    }
    gpu_resilience::xid::record::sort_records(&mut records);
    (records, jobs)
}

#[test]
fn eight_gpu_nvlink_cascade() {
    let (records, jobs) = nvlink_cascade();
    let cfg = StudyConfig::ampere_study().with_window(24.0 * 4.0, 3);
    let r = PipelineBuilder::new(cfg).jobs(&jobs).run_records(&records);
    assert!(
        r.propagation.nvlink.all_eight > 0,
        "the fixture must reach all eight GPUs"
    );
    check("nvlink cascade", &r, 0xca88_36a3_a077_038c);
}

#[test]
fn empty_corpus() {
    let jobs: Vec<JobRecord> = Vec::new();
    let cfg = StudyConfig::ampere_study().with_window(100.0, 4);
    let r = PipelineBuilder::new(cfg)
        .jobs(&jobs)
        .downtime(&[])
        .run_records(&[]);
    check("empty corpus", &r, 0x5b4c_e1aa_2b3f_0b4d);
}
