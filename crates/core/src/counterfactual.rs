//! Counterfactual resilience analysis (Section 5.5).
//!
//! Two what-ifs, applied to the coalesced error stream:
//!
//! 1. **Remove top-offending GPUs**: for every error type, drop the GPU
//!    contributing the most occurrences (the defective parts that
//!    comprehensive burn-in testing would have culled). The paper sees
//!    node MTBE improve 3× from 67 to 190 hours.
//! 2. **Additionally remove peripheral-hardware errors** (GSP, PMU SPI,
//!    NVLink) — the improvement available from hardening the weak links:
//!    a further 16 % to 223 hours, lifting availability from 99.5 % to
//!    99.9 % and cutting overprovisioning 4×.

use crate::engine::{EpisodeIndex, XIDS};
use dr_stats::Mtbe;
use dr_xid::{GpuId, Xid};

/// The Section 5.5 report.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterfactualReport {
    /// Observed per-node MTBE over all characterized errors (paper: 67 h).
    pub baseline_mtbe_h: f64,
    /// Per-node MTBE with top offenders removed (paper: 190 h).
    pub no_offenders_mtbe_h: f64,
    /// ... and with GSP/PMU-SPI/NVLink errors also removed (paper: 223 h).
    pub hardened_mtbe_h: f64,
    /// Availability at the baseline MTBE (paper: 99.5 %).
    pub baseline_availability: f64,
    /// Availability at the hardened MTBE (paper: 99.9 %).
    pub hardened_availability: f64,
    /// The GPU dropped per error type.
    pub offenders: Vec<(Xid, GpuId, u64)>,
}

/// The counterfactual from the index's per-GPU XID counts: the baseline,
/// offender and hardened counts are all sums over that `(XID, GPU)`
/// table. Each XID's top offender is its highest count, ties going to
/// the last GPU in `GpuId` order. `mttr_h` is the measured mean repair
/// time.
pub(crate) fn finish_counterfactual(
    index: &EpisodeIndex,
    observation_hours: f64,
    node_count: u32,
    mttr_h: f64,
) -> CounterfactualReport {
    let mtbe = Mtbe::new(observation_hours, node_count);
    let characterized = || Xid::ALL.into_iter().filter(|x| x.is_characterized());

    let baseline_count: u64 = characterized().map(|x| index.count(x)).sum();
    let baseline_mtbe_h = mtbe.per_node_hours(baseline_count).unwrap_or(f64::INFINITY);

    // Top offender per error type.
    let mut top: [Option<(GpuId, u64)>; XIDS] = [None; XIDS];
    for (gpu, counts) in index.gpu_counts() {
        for (best, &count) in top.iter_mut().zip(counts) {
            if count > 0 && best.is_none_or(|(_, c)| count >= c) {
                *best = Some((gpu, count));
            }
        }
    }
    let offenders: Vec<(Xid, GpuId, u64)> = Xid::TABLE1
        .into_iter()
        .filter_map(|xid| {
            let (gpu, count) = top.get(xid.ordinal()).copied().flatten()?;
            Some((xid, gpu, count))
        })
        .collect();
    let offender_count: u64 = offenders.iter().map(|&(_, _, c)| c).sum();
    let no_offender_count = baseline_count - offender_count;
    let no_offenders_mtbe_h = mtbe
        .per_node_hours(no_offender_count)
        .unwrap_or(f64::INFINITY);

    let peripheral = [Xid::GspRpcTimeout, Xid::PmuSpiError, Xid::NvlinkError];
    let hardened = |xid: &Xid| !peripheral.contains(xid);
    let hardened_count = characterized().filter(hardened).map(|x| index.count(x)).sum::<u64>()
        - offenders
            .iter()
            .filter(|(xid, _, _)| hardened(xid))
            .map(|&(_, _, c)| c)
            .sum::<u64>();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::CoalescedError;
    use crate::pipeline::StudyConfig;
    use dr_xid::{Duration, ErrorDetail, NodeId, Timestamp};

    /// The counterfactual `StudyEngine` finishes over `hours` and
    /// `nodes`, at the default 0.3 h MTTR.
    fn counterfactual(errors: &[CoalescedError], hours: f64, nodes: u32) -> CounterfactualReport {
        let config = StudyConfig::ampere_study().with_window(hours, nodes);
        crate::testutil::study(errors, config, None).counterfactual
    }

    fn err(xid: Xid, node: u32, at_s: u64) -> CoalescedError {
        CoalescedError {
            gpu: GpuId::at_slot(NodeId(node), 0),
            xid,
            detail: ErrorDetail::NONE,
            start: Timestamp::from_secs(at_s),
            last: Timestamp::from_secs(at_s) + Duration::from_secs(1),
            merged: 1,
        }
    }

    #[test]
    fn offender_removal_improves_mtbe() {
        // 90 uncontained errors on one GPU, 10 spread elsewhere.
        let mut errors: Vec<_> = (0..90).map(|i| err(Xid::UncontainedEcc, 1, i * 100)).collect();
        for i in 0..10 {
            errors.push(err(Xid::UncontainedEcc, 2 + i, 50 + i as u64 * 333));
        }
        let r = counterfactual(&errors, 1_000.0, 10);
        // Baseline: 100 errors; no-offender: 10.
        assert!((r.baseline_mtbe_h - 100.0).abs() < 1e-9);
        assert!((r.no_offenders_mtbe_h - 1_000.0).abs() < 1e-9);
        assert!(r.hardened_mtbe_h >= r.no_offenders_mtbe_h);
        let off = r.offenders.iter().find(|(x, _, _)| *x == Xid::UncontainedEcc).unwrap();
        assert_eq!(off.1, GpuId::at_slot(NodeId(1), 0));
        assert_eq!(off.2, 90);
    }

    #[test]
    fn hardening_removes_peripheral_errors() {
        let mut errors: Vec<_> = (0..10).map(|i| err(Xid::GspRpcTimeout, i, i as u64)).collect();
        errors.extend((0..10).map(|i| err(Xid::MmuError, 20 + i, 100 + i as u64)));
        let r = counterfactual(&errors, 1_000.0, 10);
        // Offender removal drops 1 GSP + 1 MMU error (top GPU has 1 each);
        // hardening then removes the remaining 9 GSP errors.
        assert!((r.baseline_mtbe_h - 500.0).abs() < 1e-9);
        assert!((r.no_offenders_mtbe_h - 10_000.0 / 18.0).abs() < 1e-6);
        assert!((r.hardened_mtbe_h - 10_000.0 / 9.0).abs() < 1e-6);
        assert!(r.hardened_availability > r.baseline_availability);
    }

    #[test]
    fn software_errors_are_ignored() {
        let errors = vec![
            err(Xid::GraphicsEngineException, 1, 0),
            err(Xid::MmuError, 2, 10),
        ];
        let r = counterfactual(&errors, 100.0, 1);
        assert!((r.baseline_mtbe_h - 100.0).abs() < 1e-9);
    }
}
