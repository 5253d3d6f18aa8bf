//! Job placement onto the fleet.
//!
//! A deliberately light scheduler: jobs arrive as a Poisson stream sized
//! to the study's 1.44 M GPU jobs over 855 days; each job draws its shape
//! from the Table 3 mixture and is placed on concrete GPUs. Two behaviors
//! matter for the resilience analysis and are modeled carefully:
//!
//! * **capacity probing** — placement prefers GPUs that are free at the
//!   job's start, so fleet utilization emerges near the observed ~40–50 %;
//! * **drain awareness** — nodes that recently threw an error-state XID
//!   are avoided for a drain window, mirroring SRE practice. This is why
//!   only 35 jobs *encountered* an NVLink error although Table 1 counts
//!   2,987 of them: flaky nodes spend most of their life drained.

use crate::jobs::{JobMix, JobRecord, JobState};
use dr_cluster::Fleet;
use dr_des::RngStreams;


use dr_xid::{Duration, GpuId, NodeId, Timestamp};
use rand::Rng;
use std::collections::BTreeMap;

/// Workload sizing.
#[derive(Clone, Debug)]
pub struct JobLoadConfig {
    /// Total GPU jobs to generate.
    pub total_jobs: u64,
    /// Campaign duration the jobs spread over.
    pub duration_days: f64,
    pub seed: u64,
    /// Baseline probability a job fails for non-GPU reasons
    /// (Section 5.2: overall success rate ≈ 74.7 %).
    pub user_failure_prob: f64,
    /// How long a node stays avoided after an error-state event.
    pub drain_hours: f64,
    /// Probability a drained node is still refused by placement probes.
    pub drain_strictness: f64,
    /// Placement probes before giving up on finding a free GPU.
    pub probes: u32,
    /// Early-deployment ramp: jobs during the first `ramp_days` arrive at
    /// `ramp_factor` of the steady-state rate (Delta's testing phase ran
    /// far fewer user jobs, which is why memory errors from the burn-in
    /// period rarely intersected production work).
    pub ramp_days: f64,
    pub ramp_factor: f64,
}

impl JobLoadConfig {
    /// The production workload: 1,445,119 GPU jobs over 855 days.
    pub fn delta_study(seed: u64) -> Self {
        JobLoadConfig {
            total_jobs: 1_445_119,
            duration_days: 855.0,
            seed,
            user_failure_prob: 0.2509,
            drain_hours: 24.0,
            drain_strictness: 0.97,
            probes: 12,
            ramp_days: 90.0,
            ramp_factor: 0.5,
        }
    }

    /// A scaled-down load for tests and examples.
    pub fn tiny(seed: u64) -> Self {
        JobLoadConfig {
            total_jobs: 4_000,
            duration_days: 30.0,
            ramp_days: 3.0,
            ..JobLoadConfig::delta_study(seed)
        }
    }
}

/// The placement result: the accounting table before error impact.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub jobs: Vec<JobRecord>,
    /// GPU hours actually allocated (for utilization sanity checks).
    pub allocated_gpu_hours: f64,
}

impl Schedule {
    /// Fleet utilization given a fleet capacity.
    pub fn utilization(&self, fleet_gpus: usize, duration: Duration) -> f64 {
        self.allocated_gpu_hours / (fleet_gpus as f64 * duration.as_hours_f64())
    }
}

/// Drain windows per node, derived from error-state events.
#[derive(Clone, Debug, Default)]
pub struct DrainWindows {
    /// Sorted (start, end) windows per node.
    windows: BTreeMap<NodeId, Vec<(Timestamp, Timestamp)>>,
}

impl DrainWindows {
    /// Build from (node, event time) pairs with a fixed drain duration.
    pub fn from_events<I>(events: I, drain: Duration) -> Self
    where
        I: IntoIterator<Item = (NodeId, Timestamp)>,
    {
        let mut windows: BTreeMap<NodeId, Vec<(Timestamp, Timestamp)>> = BTreeMap::new();
        for (node, at) in events {
            windows.entry(node).or_default().push((at, at + drain));
        }
        for w in windows.values_mut() {
            w.sort();
            // Merge overlapping windows.
            let mut merged: Vec<(Timestamp, Timestamp)> = Vec::with_capacity(w.len());
            for &(s, e) in w.iter() {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            *w = merged;
        }
        DrainWindows { windows }
    }

    /// Whether `node` is drained at `t`.
    pub fn is_drained(&self, node: NodeId, t: Timestamp) -> bool {
        match self.windows.get(&node) {
            None => false,
            Some(w) => {
                let idx = w.partition_point(|&(s, _)| s <= t);
                idx > 0 && w[idx - 1].1 >= t
            }
        }
    }
}

/// The scheduler.
pub struct Scheduler {
    cfg: JobLoadConfig,
    mix: JobMix,
}

impl Scheduler {
    pub fn new(cfg: JobLoadConfig) -> Self {
        Scheduler {
            cfg,
            mix: JobMix::table3(),
        }
    }

    /// Generate and place the workload. `drains` encodes node avoidance.
    pub fn run(&self, fleet: &Fleet, drains: &DrainWindows) -> Schedule {
        let streams = RngStreams::new(self.cfg.seed);
        let mut rng = streams.named("scheduler");
        let gpu_ids = fleet.gpu_ids();
        assert!(!gpu_ids.is_empty(), "fleet has no GPUs");

        // Per-GPU busy-until tracker (approximate first-fit).
        let mut busy_until: BTreeMap<GpuId, Timestamp> = BTreeMap::new();

        // A Poisson process conditioned on its count is N sorted uniform
        // arrival times — exact job count, monotone timeline. The ramp
        // thins the testing window by rejection (count preserved).
        let horizon_h = self.cfg.duration_days * 24.0;
        let ramp_h = (self.cfg.ramp_days * 24.0).min(horizon_h);
        let mut arrivals: Vec<f64> = (0..self.cfg.total_jobs)
            .map(|_| loop {
                let t = rng.gen::<f64>() * horizon_h;
                if t >= ramp_h || rng.gen::<f64>() < self.cfg.ramp_factor {
                    break t;
                }
            })
            .collect();
        arrivals.sort_by(f64::total_cmp);

        let mut jobs = Vec::with_capacity(self.cfg.total_jobs as usize);
        let mut allocated_gpu_hours = 0.0;
        for (id, t_h) in arrivals.into_iter().enumerate() {
            let id = id as u64;
            let start = Timestamp::EPOCH + Duration::from_secs_f64(t_h * 3_600.0);
            let (gpu_count, elapsed, ml) = self.mix.sample(&mut rng);
            let gpus = self.place(&gpu_ids, fleet, drains, &mut busy_until, start, gpu_count, &mut rng);
            let natural_end = start + elapsed;

            // Baseline non-GPU failure: the job dies somewhere inside its
            // planned window with a user exit code.
            let (state, end, exit_code) = if rng.gen::<f64>() < self.cfg.user_failure_prob {
                let frac: f64 = rng.gen::<f64>().max(0.02);
                let end = start + Duration::from_secs_f64(elapsed.as_secs_f64() * frac);
                (JobState::UserFailed, end, 1 + (rng.gen::<u32>() % 127) as i32)
            } else {
                (JobState::Completed, natural_end, 0)
            };

            allocated_gpu_hours += (end - start).as_hours_f64() * gpus.len() as f64;
            for &g in &gpus {
                let slot = busy_until.entry(g).or_insert(end);
                *slot = (*slot).max(end);
            }
            jobs.push(JobRecord {
                id,
                gpus,
                start,
                end,
                state,
                exit_code,
                ml,
            });
        }
        Schedule {
            jobs,
            allocated_gpu_hours,
        }
    }

    /// Choose `count` GPUs for a job starting at `start`.
    ///
    /// Single-node jobs probe random nodes for enough free, undrained
    /// GPUs; multi-node jobs assemble whole nodes. After the probe budget
    /// is spent the job is placed wherever the last probe landed (the
    /// cluster is saturated — overlap stands in for queueing delay).
    fn place<R: Rng + ?Sized>(
        &self,
        gpu_ids: &[GpuId],
        fleet: &Fleet,
        drains: &DrainWindows,
        busy_until: &mut BTreeMap<GpuId, Timestamp>,
        start: Timestamp,
        count: u16,
        rng: &mut R,
    ) -> Vec<GpuId> {
        let nodes = fleet.nodes();
        let want = count as usize;
        let mut chosen: Vec<GpuId> = Vec::with_capacity(want);

        let mut probes_left = self.cfg.probes.max(1);
        while chosen.len() < want && probes_left > 0 {
            probes_left -= 1;
            let node = &nodes[rng.gen_range(0..nodes.len())];
            if drains.is_drained(node.id, start) && rng.gen::<f64>() < self.cfg.drain_strictness {
                continue;
            }
            let mut free: Vec<GpuId> = node
                .gpus
                .iter()
                .map(|g| g.id())
                .filter(|g| busy_until.get(g).is_none_or(|&u| u <= start))
                .filter(|g| !chosen.contains(g))
                .collect();
            let need = want - chosen.len();
            free.truncate(need.min(node.gpus.len()));
            chosen.extend(free);
        }
        // Saturated: fill the remainder with arbitrary GPUs.
        while chosen.len() < want {
            let g = gpu_ids[rng.gen_range(0..gpu_ids.len())];
            if !chosen.contains(&g) || gpu_ids.len() <= want {
                chosen.push(g);
            }
        }
        chosen
    }

    /// Mark a schedule's jobs as occupying their GPUs (post-pass used by
    /// tests to measure conflicts).
    pub fn config(&self) -> &JobLoadConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_cluster::DeltaShape;
    use dr_gpu::RasTuning;

    fn tiny_fleet() -> Fleet {
        Fleet::build(DeltaShape::tiny(), RasTuning::default())
    }

    #[test]
    fn generates_exact_job_count() {
        let fleet = tiny_fleet();
        let sched = Scheduler::new(JobLoadConfig::tiny(1));
        let s = sched.run(&fleet, &DrainWindows::default());
        assert_eq!(s.jobs.len(), 4_000);
        assert!(s.allocated_gpu_hours > 0.0);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let fleet = tiny_fleet();
        let a = Scheduler::new(JobLoadConfig::tiny(5)).run(&fleet, &DrainWindows::default());
        let b = Scheduler::new(JobLoadConfig::tiny(5)).run(&fleet, &DrainWindows::default());
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert!(a
            .jobs
            .iter()
            .zip(&b.jobs)
            .all(|(x, y)| x.start == y.start && x.gpus == y.gpus));
    }

    #[test]
    fn jobs_lie_inside_the_window_and_walltime() {
        let fleet = tiny_fleet();
        let cfg = JobLoadConfig::tiny(2);
        let days = cfg.duration_days;
        let s = Scheduler::new(cfg).run(&fleet, &DrainWindows::default());
        let horizon = Timestamp::EPOCH + Duration::from_days(days as u64);
        for j in &s.jobs {
            assert!(j.start < horizon);
            assert!(j.end >= j.start);
            assert!(j.elapsed().as_hours_f64() <= 48.01);
            assert!(!j.gpus.is_empty());
        }
    }

    #[test]
    fn user_failure_rate_matches_config() {
        let fleet = tiny_fleet();
        let s = Scheduler::new(JobLoadConfig::tiny(3)).run(&fleet, &DrainWindows::default());
        let failed = s.jobs.iter().filter(|j| j.state == JobState::UserFailed).count();
        let frac = failed as f64 / s.jobs.len() as f64;
        assert!((frac - 0.2509).abs() < 0.03, "user-failure fraction {frac}");
        // Failed jobs carry non-zero exit codes.
        assert!(s
            .jobs
            .iter()
            .filter(|j| j.state == JobState::UserFailed)
            .all(|j| j.exit_code != 0));
    }

    #[test]
    fn multi_gpu_jobs_get_distinct_gpus() {
        let fleet = tiny_fleet();
        let s = Scheduler::new(JobLoadConfig::tiny(4)).run(&fleet, &DrainWindows::default());
        for j in s.jobs.iter().filter(|j| j.gpu_count() > 1 && j.gpu_count() <= 8) {
            let mut g = j.gpus.clone();
            let before = g.len();
            g.dedup();
            g.sort();
            g.dedup();
            assert_eq!(g.len(), before, "duplicate GPUs in allocation");
        }
    }

    #[test]
    fn drained_nodes_are_avoided() {
        let fleet = tiny_fleet();
        let node0 = fleet.nodes()[0].id;
        // Drain node 0 for the entire window.
        let drains = DrainWindows::from_events(
            (0..40).map(|d| (node0, Timestamp::EPOCH + Duration::from_days(d))),
            Duration::from_days(2),
        );
        assert!(drains.is_drained(node0, Timestamp::from_secs(3600)));
        let mut cfg = JobLoadConfig::tiny(6);
        cfg.drain_strictness = 1.0;
        let s = Scheduler::new(cfg).run(&fleet, &drains);
        let on_node0 = s
            .jobs
            .iter()
            .flat_map(|j| &j.gpus)
            .filter(|g| g.node == node0)
            .count();
        let total: usize = s.jobs.iter().map(|j| j.gpu_count()).sum();
        // Node 0 is 1 of 6 nodes; drained it should carry well under its
        // fair share (only saturation spillover lands there).
        assert!(
            (on_node0 as f64) < 0.4 * total as f64 / 6.0,
            "drained node got {on_node0} of {total}"
        );
    }

    #[test]
    fn drain_window_merging() {
        let n = NodeId(1);
        let d = DrainWindows::from_events(
            vec![
                (n, Timestamp::from_secs(100)),
                (n, Timestamp::from_secs(200)),
            ],
            Duration::from_secs(150),
        );
        assert!(d.is_drained(n, Timestamp::from_secs(100)));
        assert!(d.is_drained(n, Timestamp::from_secs(340)));
        assert!(!d.is_drained(n, Timestamp::from_secs(360)));
        assert!(!d.is_drained(n, Timestamp::from_secs(99)));
        assert!(!d.is_drained(NodeId(2), Timestamp::from_secs(100)));
    }
}
