//! Workload mixture calibrated to Table 3.

use dr_stats::dist::Sampler;
use dr_stats::LogNormal;
use dr_xid::{Duration, GpuId, Timestamp};
use rand::Rng;

/// The 48-hour walltime limit visible in Table 3's P99 column (2,880 min).
pub const WALLTIME_CAP_MIN: f64 = 2_880.0;

/// One row of Table 3: a job-size bucket.
#[derive(Clone, Copy, Debug)]
pub struct SizeBucket {
    /// Inclusive GPU-count range.
    pub min_gpus: u16,
    pub max_gpus: u16,
    /// Fraction of all GPU jobs in this bucket.
    pub share: f64,
    /// Elapsed-time statistics (minutes).
    pub mean_min: f64,
    pub p50_min: f64,
    /// Fraction of this bucket's GPU hours attributed to ML workloads.
    pub ml_fraction: f64,
}

/// Table 3's eight buckets.
pub const TABLE3_BUCKETS: [SizeBucket; 8] = [
    SizeBucket { min_gpus: 1, max_gpus: 1, share: 0.698_6, mean_min: 175.62, p50_min: 10.15, ml_fraction: 0.081 },
    SizeBucket { min_gpus: 2, max_gpus: 4, share: 0.273_1, mean_min: 145.04, p50_min: 4.75, ml_fraction: 0.100 },
    SizeBucket { min_gpus: 5, max_gpus: 8, share: 0.015_5, mean_min: 133.89, p50_min: 2.70, ml_fraction: 0.146 },
    SizeBucket { min_gpus: 9, max_gpus: 32, share: 0.010_7, mean_min: 270.40, p50_min: 73.73, ml_fraction: 0.074 },
    SizeBucket { min_gpus: 33, max_gpus: 64, share: 0.001_4, mean_min: 204.52, p50_min: 10.25, ml_fraction: 0.417 },
    SizeBucket { min_gpus: 65, max_gpus: 128, share: 0.000_63, mean_min: 226.28, p50_min: 0.32, ml_fraction: 0.072 },
    SizeBucket { min_gpus: 129, max_gpus: 256, share: 0.000_06, mean_min: 226.53, p50_min: 9.19, ml_fraction: 0.0 },
    SizeBucket { min_gpus: 257, max_gpus: 512, share: 0.000_02, mean_min: 32.12, p50_min: 20.40, ml_fraction: 0.0 },
];

/// Heavy-tailed elapsed-time model: log-normal matched to the bucket's
/// median, with sigma solved so the walltime-truncated mean matches the
/// bucket's mean. Samples are winsorized at the 48 h cap — which is why
/// Table 3's P99 column pins at ~2,880 minutes for most buckets.
#[derive(Clone, Copy, Debug)]
pub struct ElapsedModel {
    ln: LogNormal,
    cap_min: f64,
}

impl ElapsedModel {
    /// Solve for sigma by bisection on the closed-form capped mean.
    pub fn fit(median_min: f64, mean_min: f64, cap_min: f64) -> Self {
        assert!(median_min > 0.0 && mean_min > 0.0 && cap_min > median_min);
        let mu = median_min.ln();
        // Capped mean is increasing in sigma, bounded by cap.
        let target = mean_min.min(cap_min * 0.98).max(median_min);
        let (mut lo, mut hi) = (0.0f64, 6.0f64);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if LogNormal::new(mu, mid).capped_mean(cap_min) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        ElapsedModel {
            ln: LogNormal::new(mu, 0.5 * (lo + hi)),
            cap_min,
        }
    }

    /// Draw an elapsed time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        let minutes = self.ln.sample(rng).min(self.cap_min);
        Duration::from_secs_f64(minutes * 60.0)
    }

    /// Analytic mean in minutes.
    pub fn mean_min(&self) -> f64 {
        self.ln.capped_mean(self.cap_min)
    }
}

/// Job lifecycle state in the accounting table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Ran to its natural end.
    Completed,
    /// Failed for reasons unrelated to GPUs (user bugs, OOM, I/O...).
    UserFailed,
    /// Killed by a GPU error.
    GpuFailed,
}

/// One accounting-table row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    pub id: u64,
    pub gpus: Vec<GpuId>,
    pub start: Timestamp,
    pub end: Timestamp,
    pub state: JobState,
    pub exit_code: i32,
    pub ml: bool,
}

impl JobRecord {
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }

    /// GPU hours consumed (elapsed × allocation size).
    pub fn gpu_hours(&self) -> f64 {
        self.elapsed().as_hours_f64() * self.gpus.len() as f64
    }

    /// Whether the job was running on `gpu` at instant `t`.
    pub fn running_on(&self, gpu: GpuId, t: Timestamp) -> bool {
        self.start <= t && t <= self.end && self.gpus.contains(&gpu)
    }
}

/// The generator for job sizes, durations, and labels.
#[derive(Clone, Debug)]
pub struct JobMix {
    buckets: Vec<SizeBucket>,
    elapsed: Vec<ElapsedModel>,
    cumulative_share: Vec<f64>,
}

impl Default for JobMix {
    fn default() -> Self {
        Self::table3()
    }
}

impl JobMix {
    /// The Table 3 mixture.
    pub fn table3() -> Self {
        let buckets: Vec<SizeBucket> = TABLE3_BUCKETS.to_vec();
        let elapsed = buckets
            .iter()
            .map(|b| ElapsedModel::fit(b.p50_min, b.mean_min, WALLTIME_CAP_MIN))
            .collect();
        let mut acc = 0.0;
        let cumulative_share = buckets
            .iter()
            .map(|b| {
                acc += b.share;
                acc
            })
            .collect();
        JobMix {
            buckets,
            elapsed,
            cumulative_share,
        }
    }

    pub fn buckets(&self) -> &[SizeBucket] {
        &self.buckets
    }

    /// Which bucket a GPU count belongs to (for recomputing Table 3).
    pub fn bucket_of(&self, gpu_count: usize) -> Option<usize> {
        self.buckets
            .iter()
            .position(|b| (b.min_gpus as usize..=b.max_gpus as usize).contains(&gpu_count))
    }

    /// Draw (gpu_count, elapsed, is_ml) for one job.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (u16, Duration, bool) {
        // Construction guarantees at least one bucket; 0.0 is a dead fallback.
        let total = self.cumulative_share.last().copied().unwrap_or(0.0);
        let x = rng.gen::<f64>() * total;
        let idx = self
            .cumulative_share
            .partition_point(|&c| c <= x)
            .min(self.buckets.len() - 1);
        let b = self.buckets[idx];
        // GPU counts are strongly skewed toward the low end of each
        // bucket (most 2–4-GPU jobs use 2); geometric decay over the span.
        let span = b.max_gpus - b.min_gpus;
        let mut offset = 0u16;
        while offset < span && rng.gen::<f64>() < 0.5 {
            offset += 1;
        }
        let gpus = b.min_gpus + offset;
        let elapsed = self.elapsed[idx].sample(rng);
        let ml = rng.gen::<f64>() < b.ml_fraction;
        (gpus, elapsed, ml)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = TABLE3_BUCKETS.iter().map(|b| b.share).sum();
        assert!((total - 1.0).abs() < 1e-3, "shares sum to {total}");
    }

    #[test]
    fn elapsed_fit_recovers_bucket_statistics() {
        // Bucket 1: median 10.15 min, mean 175.62 min, cap 2880 min.
        let m = ElapsedModel::fit(10.15, 175.62, WALLTIME_CAP_MIN);
        assert!((m.mean_min() - 175.62).abs() / 175.62 < 0.02);
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples: Vec<f64> = (0..200_000)
            .map(|_| m.sample(&mut rng).as_secs_f64() / 60.0)
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let p99 = samples[(samples.len() as f64 * 0.99) as usize];
        assert!((p50 - 10.15).abs() / 10.15 < 0.05, "p50 {p50}");
        assert!((mean - 175.62).abs() / 175.62 < 0.05, "mean {mean}");
        // The paper's P99 pins at the walltime cap.
        assert!((p99 - 2_483.0).abs() / 2_483.0 < 0.35, "p99 {p99}");
    }

    #[test]
    fn elapsed_never_exceeds_walltime() {
        let m = ElapsedModel::fit(10.0, 200.0, WALLTIME_CAP_MIN);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50_000 {
            assert!(m.sample(&mut rng).as_secs_f64() <= WALLTIME_CAP_MIN * 60.0);
        }
    }

    #[test]
    fn mix_reproduces_bucket_shares() {
        let mix = JobMix::table3();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u64; TABLE3_BUCKETS.len()];
        let n = 300_000;
        for _ in 0..n {
            let (gpus, _, _) = mix.sample(&mut rng);
            let idx = mix.bucket_of(gpus as usize).unwrap();
            counts[idx] += 1;
        }
        // Dominant buckets within 2 % absolute.
        assert!((counts[0] as f64 / n as f64 - 0.6986).abs() < 0.02);
        assert!((counts[1] as f64 / n as f64 - 0.2731).abs() < 0.02);
        // Rare buckets appear.
        assert!(counts[3] > 0);
    }

    #[test]
    fn gpu_counts_respect_bucket_bounds() {
        let mix = JobMix::table3();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100_000 {
            let (gpus, elapsed, _) = mix.sample(&mut rng);
            assert!(gpus >= 1);
            assert!(gpus <= 512);
            assert!(elapsed > Duration::ZERO);
            let idx = mix.bucket_of(gpus as usize).expect("in a bucket");
            let b = mix.buckets()[idx];
            assert!(gpus >= b.min_gpus && gpus <= b.max_gpus);
        }
    }

    #[test]
    fn job_record_helpers() {
        use dr_xid::NodeId;
        let g0 = GpuId::at_slot(NodeId(1), 0);
        let g1 = GpuId::at_slot(NodeId(1), 1);
        let job = JobRecord {
            id: 1,
            gpus: vec![g0, g1],
            start: Timestamp::from_secs(100),
            end: Timestamp::from_secs(3_700),
            state: JobState::Completed,
            exit_code: 0,
            ml: false,
        };
        assert_eq!(job.gpu_count(), 2);
        assert!((job.gpu_hours() - 2.0).abs() < 1e-9);
        assert!(job.running_on(g0, Timestamp::from_secs(200)));
        assert!(!job.running_on(g0, Timestamp::from_secs(5_000)));
        assert!(!job.running_on(GpuId::at_slot(NodeId(2), 0), Timestamp::from_secs(200)));
    }
}
