//! Node unavailability and availability estimation (Fig. 9c, Section 5.4).
//!
//! [`downtime_stats`] is the one downtime summary: the study fold
//! ([`crate::engine::StudyEngine`]) calls it on the repair intervals
//! when it finishes.

use dr_faults::DowntimeInterval;
use dr_stats::{Mtbe, SummaryStats};

/// Downtime statistics across the campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct DowntimeStats {
    /// Number of repair incidents.
    pub incidents: u64,
    /// Expected time to service a failed node, hours (paper: 0.3 h).
    pub mean_service_h: f64,
    /// Service-time distribution (hours).
    pub service: SummaryStats,
    /// Total node hours lost to downtime (paper: 5,700).
    pub total_lost_h: f64,
}

/// Summarize repair intervals.
pub fn downtime_stats(intervals: &[DowntimeInterval]) -> DowntimeStats {
    let hours: Vec<f64> = intervals
        .iter()
        .map(|d| d.duration().as_hours_f64())
        .collect();
    let service = SummaryStats::from_samples(&hours);
    DowntimeStats {
        incidents: hours.len() as u64,
        mean_service_h: service.mean,
        service,
        total_lost_h: hours.iter().sum(),
    }
}

/// Availability from the measured node MTTF (taken conservatively as the
/// overall per-node MTBE, assuming every error interrupts the node — the
/// paper's assumption) and the measured MTTR.
pub fn availability(mtbe_per_node_h: f64, mttr_h: f64) -> f64 {
    Mtbe::availability(mtbe_per_node_h, mttr_h)
}

/// Downtime in minutes per day at a given availability.
pub fn downtime_minutes_per_day(availability: f64) -> f64 {
    (1.0 - availability) * 24.0 * 60.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::{GpuId, NodeId, Timestamp, Xid};

    fn interval(start_s: u64, dur_s: u64) -> DowntimeInterval {
        DowntimeInterval {
            gpu: GpuId::at_slot(NodeId(1), 0),
            start: Timestamp::from_secs(start_s),
            end: Timestamp::from_secs(start_s + dur_s),
            cause: Xid::GspRpcTimeout,
        }
    }

    #[test]
    fn stats_from_intervals() {
        let intervals = vec![interval(0, 1_800), interval(10_000, 360)];
        let s = downtime_stats(&intervals);
        assert_eq!(s.incidents, 2);
        assert!((s.mean_service_h - 0.3).abs() < 1e-9);
        assert!((s.total_lost_h - 0.6).abs() < 1e-9);
    }

    #[test]
    fn paper_availability_numbers() {
        // MTTF 67 h, MTTR 0.3 h -> 99.5 %; 223 h -> 99.9 % (Section 5.5).
        let a = availability(67.0, 0.3);
        assert!((a - 0.9955).abs() < 5e-4);
        let b = availability(223.0, 0.3);
        assert!(b > 0.9985);
        // 99.5 % availability is ~7 minutes of downtime per day.
        let mins = downtime_minutes_per_day(a);
        assert!((mins - 6.4).abs() < 1.0, "minutes {mins}");
    }

    #[test]
    fn empty_intervals() {
        let s = downtime_stats(&[]);
        assert_eq!(s.incidents, 0);
        assert_eq!(s.total_lost_h, 0.0);
    }
}
