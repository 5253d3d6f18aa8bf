//! Error statistics: counts, MTBE, persistence summaries (Table 1) and
//! lost-GPU-hours with tail analysis (Section 4.3).

use crate::engine::{EpisodeIndex, XIDS};
use dr_stats::{Mtbe, SummaryStats};
use dr_xid::Xid;

/// One row of Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table1Row {
    pub xid: Xid,
    pub count: u64,
    /// MTBE across all nodes (system hours); `None` if no errors.
    pub mtbe_system_h: Option<f64>,
    /// Per-node MTBE (node hours).
    pub mtbe_per_node_h: Option<f64>,
    /// Persistence summary in seconds.
    pub persistence: SummaryStats,
}

/// Table 1 from the per-XID persistence summaries (indexed by
/// [`Xid::ordinal`]); a summary's sample count is the row's count.
/// `observation_hours` is the measurement window; `node_count` the GPU
/// node population (206 Ampere nodes in the study). Rows follow the
/// paper's order; XIDs with zero occurrences still get a row.
pub(crate) fn finish_table1(
    persistence: &[SummaryStats; XIDS],
    observation_hours: f64,
    node_count: u32,
) -> Vec<Table1Row> {
    let mtbe = Mtbe::new(observation_hours, node_count);
    Xid::TABLE1
        .iter()
        .map(|&xid| {
            let summary = persistence.get(xid.ordinal()).copied().unwrap_or_default();
            Table1Row {
                xid,
                count: summary.count,
                mtbe_system_h: mtbe.system_hours(summary.count),
                mtbe_per_node_h: mtbe.per_node_hours(summary.count),
                persistence: summary,
            }
        })
        .collect()
}

/// Episodes of the given XIDs.
fn count_of(index: &EpisodeIndex, xids: impl IntoIterator<Item = Xid>) -> u64 {
    xids.into_iter().map(|x| index.count(x)).sum()
}

/// Overall MTBE across all characterized errors (the "67 node hours"
/// headline). Returns (system hours, per-node hours).
pub(crate) fn finish_overall_mtbe(
    index: &EpisodeIndex,
    observation_hours: f64,
    node_count: u32,
) -> (Option<f64>, Option<f64>) {
    let count = count_of(index, Xid::ALL.into_iter().filter(|x| x.is_characterized()));
    let mtbe = Mtbe::new(observation_hours, node_count);
    (mtbe.system_hours(count), mtbe.per_node_hours(count))
}

/// Category-level MTBE comparison (Section 4.2 (ii)): GPU hardware +
/// interconnect vs GPU memory. Uncontained memory errors are excluded
/// from the memory side, as the paper does, because a single defective
/// GPU dominates them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CategoryMtbe {
    /// GSP + PMU SPI + NVLink + Fallen-off-the-bus + MMU errors.
    pub hardware_per_node_h: Option<f64>,
    /// DBE + RRE + RRF (uncontained excluded as outlier-dominated).
    pub memory_per_node_h: Option<f64>,
    /// memory / hardware (the ">30×" headline).
    pub ratio: Option<f64>,
}

/// The paper's hardware-vs-memory comparison uses the peripheral
/// hardware + interconnect set against the DBE/RRE/RRF memory set.
pub(crate) fn finish_category_mtbe(
    index: &EpisodeIndex,
    observation_hours: f64,
    node_count: u32,
) -> CategoryMtbe {
    let mtbe = Mtbe::new(observation_hours, node_count);
    let hardware = [
        Xid::GspRpcTimeout,
        Xid::PmuSpiError,
        Xid::NvlinkError,
        Xid::FallenOffBus,
    ];
    let memory = [Xid::DoubleBitEcc, Xid::RowRemapEvent, Xid::RowRemapFailure];
    let hardware_per_node_h = mtbe.per_node_hours(count_of(index, hardware));
    let memory_per_node_h = mtbe.per_node_hours(count_of(index, memory));
    let ratio = match (memory_per_node_h, hardware_per_node_h) {
        (Some(m), Some(h)) if h > 0.0 => Some(m / h),
        _ => None,
    };
    CategoryMtbe {
        hardware_per_node_h,
        memory_per_node_h,
        ratio,
    }
}

/// Lost useful GPU computation derived from persistence durations
/// (Section 4.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LostHours {
    /// Total GPU hours lost (sum of persistences across all errors).
    pub total_h: f64,
    /// Hours contributed by errors persisting beyond the P95.
    pub beyond_p95_h: f64,
    /// beyond_p95_h / total_h (the paper's 91 %).
    pub tail_share: f64,
}

/// Lost hours: persistence summed over the episodes in arrival order,
/// split at each XID's P95 from its persistence summary to measure how
/// much of the loss the tail carries.
pub(crate) fn finish_lost_hours(index: &EpisodeIndex, persistence: &[SummaryStats; XIDS]) -> LostHours {
    let mut total_s = 0.0;
    let mut tail_s = 0.0;
    for e in index.episodes() {
        let p = e.persistence().as_secs_f64();
        total_s += p;
        if p > persistence.get(e.xid.ordinal()).map_or(f64::INFINITY, |s| s.p95) {
            tail_s += p;
        }
    }
    let total_h = total_s / 3_600.0;
    let beyond_p95_h = tail_s / 3_600.0;
    LostHours {
        total_h,
        beyond_p95_h,
        tail_share: if total_h > 0.0 {
            beyond_p95_h / total_h
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::CoalescedError;
    use crate::pipeline::{StudyConfig, StudyResults};
    use dr_xid::{Duration, ErrorDetail, GpuId, NodeId, Timestamp};

    /// The study finished over `hours` and `nodes`.
    fn study(errors: &[CoalescedError], hours: f64, nodes: u32) -> StudyResults {
        let config = StudyConfig::ampere_study().with_window(hours, nodes);
        crate::testutil::study(errors, config, None)
    }

    fn err(xid: Xid, start_s: u64, persist_s: u64, node: u32) -> CoalescedError {
        let start = Timestamp::from_secs(start_s);
        CoalescedError {
            gpu: GpuId::at_slot(NodeId(node), 0),
            xid,
            detail: ErrorDetail::NONE,
            start,
            last: start + Duration::from_secs(persist_s),
            merged: 1,
        }
    }

    #[test]
    fn table1_counts_and_mtbe() {
        let errors: Vec<_> = (0..10).map(|i| err(Xid::MmuError, i * 100, 2, 1)).collect();
        let rows = study(&errors, 1_000.0, 10).table1;
        let mmu = rows.iter().find(|r| r.xid == Xid::MmuError).unwrap();
        assert_eq!(mmu.count, 10);
        assert_eq!(mmu.mtbe_system_h, Some(100.0));
        assert_eq!(mmu.mtbe_per_node_h, Some(1_000.0));
        assert_eq!(mmu.persistence.mean, 2.0);
        // Absent XIDs still get rows with zero counts.
        let dbe = rows.iter().find(|r| r.xid == Xid::DoubleBitEcc).unwrap();
        assert_eq!(dbe.count, 0);
        assert_eq!(dbe.mtbe_system_h, None);
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn overall_mtbe_excludes_software_errors() {
        let mut errors = vec![err(Xid::MmuError, 0, 1, 1), err(Xid::MmuError, 10, 1, 1)];
        errors.push(CoalescedError {
            xid: Xid::GraphicsEngineException,
            ..errors[0]
        });
        let (sys, _) = study(&errors, 100.0, 5).overall_mtbe_h;
        assert_eq!(sys, Some(50.0)); // 2 characterized errors, not 3
    }

    #[test]
    fn category_ratio_reflects_hardware_weakness() {
        // 30 hardware errors vs 1 memory error in 1000 h.
        let mut errors: Vec<_> = (0..30).map(|i| err(Xid::GspRpcTimeout, i * 10, 1, 1)).collect();
        errors.push(err(Xid::DoubleBitEcc, 500, 1, 1));
        let c = study(&errors, 1_000.0, 10).category_mtbe;
        assert_eq!(c.hardware_per_node_h, Some(1_000.0 / 30.0 * 10.0));
        assert_eq!(c.memory_per_node_h, Some(10_000.0));
        assert!((c.ratio.unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn category_excludes_uncontained_from_memory() {
        let mut errors = vec![err(Xid::DoubleBitEcc, 0, 1, 1)];
        for i in 0..100 {
            errors.push(err(Xid::UncontainedEcc, i * 5 + 1, 1, 1));
        }
        let c = study(&errors, 1_000.0, 10).category_mtbe;
        // Memory MTBE sees only the single DBE.
        assert_eq!(c.memory_per_node_h, Some(10_000.0));
    }

    #[test]
    fn lost_hours_tail_share() {
        // 99 short errors (1 s) + 1 very long one (10,000 s).
        let mut errors: Vec<_> = (0..99).map(|i| err(Xid::MmuError, i * 100, 1, 1)).collect();
        errors.push(err(Xid::MmuError, 99 * 100, 10_000, 1));
        let lost = study(&errors, 1_000.0, 10).lost_hours;
        let expected_total = (99.0 + 10_000.0) / 3_600.0;
        assert!((lost.total_h - expected_total).abs() < 1e-9);
        // The single tail error carries ~99 % of the loss.
        assert!(lost.tail_share > 0.9, "tail share {}", lost.tail_share);
    }

    #[test]
    fn lost_hours_empty() {
        let lost = study(&[], 1_000.0, 10).lost_hours;
        assert_eq!(lost.total_h, 0.0);
        assert_eq!(lost.tail_share, 0.0);
    }
}
