//! Error propagation analysis (Section 3.2, Figures 5–7).
//!
//! The propagation probability from error e1 to e2 is the fraction of e1
//! occurrences followed by an e2 within Δt — on the same GPU (intra-GPU)
//! or on a different GPU of the same node (inter-GPU). The time between
//! the two is the propagation time; short times suggest causality.

use crate::coalesce::CoalescedError;
use crate::engine::{Sorted, XIDS};
use dr_stats::OnlineStats;
use dr_xid::{Duration, GpuId, Xid};
use std::collections::BTreeMap;

/// One edge of a propagation graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PropagationEdge {
    pub from: Xid,
    pub to: Xid,
    /// P(e_to follows | e_from occurred).
    pub probability: f64,
    /// Mean propagation time in seconds.
    pub mean_delay_s: f64,
    /// Number of observed propagation events.
    pub count: u64,
}

/// NVLink inter-GPU involvement (Figure 6), measured per error: how many
/// GPUs of the node threw NVLink errors within ±Δt of each error.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NvlinkSpread {
    /// NVLink errors examined.
    pub incidents: u64,
    /// Fraction touching exactly one GPU (paper: 84 %).
    pub single_gpu: f64,
    /// Fraction touching two or more GPUs (16 %).
    pub multi_gpu: f64,
    /// Fraction touching four or more GPUs (5 %).
    pub four_plus: f64,
    /// Incidents touching all eight GPUs of an 8-way node (35 errors).
    pub all_eight: u64,
}

/// The full propagation analysis result.
#[derive(Clone, Debug, Default)]
pub struct PropagationAnalysis {
    /// Same-GPU edges, sorted by (from, descending probability).
    pub intra: Vec<PropagationEdge>,
    /// Cross-GPU (same node) edges.
    pub inter: Vec<PropagationEdge>,
    /// P(no successor within Δt | e) per XID — terminal errors.
    pub terminal: BTreeMap<Xid, f64>,
    /// P(no predecessor within Δt | e) per XID — the paper's "99 % of GSP
    /// errors appeared in isolation".
    pub isolated: BTreeMap<Xid, f64>,
    /// Occurrences per XID (edge denominators).
    pub sources: BTreeMap<Xid, u64>,
    pub nvlink: NvlinkSpread,
}

impl PropagationAnalysis {
    /// Probability of the intra-GPU edge `from → to` (0 if absent).
    pub fn intra_probability(&self, from: Xid, to: Xid) -> f64 {
        self.intra
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| e.probability)
            .unwrap_or(0.0)
    }
}

/// The ±Δt of the Figure 6 NVLink-involvement statistic: tighter than
/// the propagation window, so chain repetitions on one GPU don't inflate
/// the involvement.
pub(crate) const NVLINK_SPREAD_WINDOW: Duration = Duration::from_secs(10);

/// An intra- or inter-GPU edge table: occurrences and delays per
/// `(from, to)` XID pair, indexed by [`Xid::ordinal`].
type EdgeTable = [[(u64, OnlineStats); XIDS]; XIDS];

/// The propagation analysis over the shared episode index. GPUs and
/// nodes are walked in id order and each list in start order, so the
/// Welford delay accumulators — sensitive to summation order — see every
/// delay in a reproducible sequence; the dense per-XID tables are read
/// out in `Xid` order, keeping only the pairs and codes that occurred.
pub(crate) fn finish_propagation(
    index: &Sorted<'_>,
    window: Duration,
    spread_window: Duration,
) -> PropagationAnalysis {
    let mut sources = [0u64; XIDS];
    let mut terminal = [0u64; XIDS];
    let mut isolated = [0u64; XIDS];
    let mut intra: EdgeTable = [[(0, OnlineStats::new()); XIDS]; XIDS];
    let mut inter: EdgeTable = [[(0, OnlineStats::new()); XIDS]; XIDS];
    let mut list: Vec<&CoalescedError> = Vec::new();

    // Intra-GPU pass.
    for positions in index.gpu_lists() {
        index.resolve(positions, &mut list);
        for (pos, e1) in list.iter().enumerate() {
            let from = e1.xid.ordinal();
            sources[from] += 1;

            // Successor: first error strictly after e1.start within Δt.
            let successor = list
                .get(pos + 1..)
                .unwrap_or_default()
                .iter()
                .find(|e2| e2.start > e1.start);
            match successor {
                Some(e2) if e2.start - e1.start <= window => {
                    let edge = &mut intra[from][e2.xid.ordinal()];
                    edge.0 += 1;
                    edge.1.push((e2.start - e1.start).as_secs_f64());
                }
                _ => terminal[from] += 1,
            }

            // Predecessor: the previous error within Δt (isolation check).
            let has_predecessor = pos
                .checked_sub(1)
                .and_then(|p| list.get(p))
                .is_some_and(|e0| e1.start - e0.start <= window);
            if !has_predecessor {
                isolated[from] += 1;
            }
        }
    }

    // Inter-GPU pass: first error on a *different* GPU of the same node
    // within Δt after e1. The node walk also yields the NVLink spread.
    let mut nvlink = NvlinkCounts::default();
    let mut nvlink_list: Vec<&CoalescedError> = Vec::new();
    let mut gpus: Vec<GpuId> = Vec::new();
    for positions in index.node_lists() {
        index.resolve(positions, &mut list);
        for (pos, e1) in list.iter().enumerate() {
            let successor = list
                .get(pos + 1..)
                .unwrap_or_default()
                .iter()
                .take_while(|e2| e2.start - e1.start <= window)
                .find(|e2| e2.gpu != e1.gpu);
            if let Some(e2) = successor {
                let edge = &mut inter[e1.xid.ordinal()][e2.xid.ordinal()];
                edge.0 += 1;
                edge.1.push((e2.start - e1.start).as_secs_f64());
            }
        }
        nvlink_list.clear();
        nvlink_list.extend(list.iter().filter(|e| e.xid == Xid::NvlinkError));
        nvlink.add_node(&nvlink_list, spread_window, &mut gpus);
    }

    let ratio = |count: u64, xid: usize| count as f64 / sources[xid].max(1) as f64;
    let to_edges = |table: &EdgeTable| -> Vec<PropagationEdge> {
        let mut v: Vec<PropagationEdge> = Vec::new();
        for (from, row) in Xid::ALL.iter().zip(table) {
            for (to, &(count, delays)) in Xid::ALL.iter().zip(row) {
                if count > 0 {
                    v.push(PropagationEdge {
                        from: *from,
                        to: *to,
                        probability: ratio(count, from.ordinal()),
                        mean_delay_s: delays.mean(),
                        count,
                    });
                }
            }
        }
        v.sort_by(|a, b| {
            a.from
                .cmp(&b.from)
                .then(b.probability.total_cmp(&a.probability))
                .then(a.to.cmp(&b.to))
        });
        v
    };
    let nonzero = |counts: [u64; XIDS]| Xid::ALL.into_iter().zip(counts).filter(|&(_, c)| c > 0);

    PropagationAnalysis {
        intra: to_edges(&intra),
        inter: to_edges(&inter),
        terminal: nonzero(terminal)
            .map(|(x, c)| (x, ratio(c, x.ordinal())))
            .collect(),
        isolated: nonzero(isolated)
            .map(|(x, c)| (x, ratio(c, x.ordinal())))
            .collect(),
        sources: nonzero(sources).collect(),
        nvlink: nvlink.finish(),
    }
}

/// NVLink multi-GPU involvement, measured **per error** as the paper does
/// ("84 % of the ~3,000 NVLink errors did not propagate across GPUs"):
/// for each NVLink error, count the distinct GPUs of its node that throw
/// NVLink errors within Δt *after* it (itself included) — i.e. whether
/// this error propagated across GPUs.
#[derive(Default)]
struct NvlinkCounts {
    total: u64,
    single: u64,
    multi: u64,
    four_plus: u64,
    all_eight: u64,
}

impl NvlinkCounts {
    /// Count one node's NVLink errors, in start order. `gpus` is scratch.
    fn add_node(&mut self, list: &[&CoalescedError], window: Duration, gpus: &mut Vec<GpuId>) {
        for (i, e) in list.iter().enumerate() {
            gpus.clear();
            gpus.push(e.gpu);
            for other in list.get(i + 1..).unwrap_or_default() {
                if other.start - e.start > window {
                    break;
                }
                if !gpus.contains(&other.gpu) {
                    gpus.push(other.gpu);
                }
            }
            self.total += 1;
            match gpus.len() {
                1 => self.single += 1,
                n => {
                    self.multi += 1;
                    if n >= 4 {
                        self.four_plus += 1;
                    }
                    if n >= 8 {
                        self.all_eight += 1;
                    }
                }
            }
        }
    }

    fn finish(&self) -> NvlinkSpread {
        let denom = self.total.max(1) as f64;
        NvlinkSpread {
            incidents: self.total,
            single_gpu: self.single as f64 / denom,
            multi_gpu: self.multi as f64 / denom,
            four_plus: self.four_plus as f64 / denom,
            all_eight: self.all_eight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StudyConfig;
    use dr_xid::{ErrorDetail, NodeId, Timestamp};

    /// The propagation section the study finishes at window Δt (and
    /// the production NVLink-involvement window).
    fn analyze(errors: &[CoalescedError], window: Duration) -> PropagationAnalysis {
        let mut config = StudyConfig::ampere_study();
        config.propagation_window = window;
        crate::testutil::study(errors, config, None).propagation
    }

    fn err_at(xid: Xid, secs: f64, node: u32, slot: usize) -> CoalescedError {
        let start = Timestamp::EPOCH + Duration::from_secs_f64(secs);
        CoalescedError {
            gpu: GpuId::at_slot(NodeId(node), slot),
            xid,
            detail: ErrorDetail::NONE,
            start,
            last: start,
            merged: 1,
        }
    }

    const W: Duration = Duration::from_secs(60);

    #[test]
    fn detects_pmu_to_mmu_edge() {
        let mut errors = Vec::new();
        for k in 0..100 {
            let base = k as f64 * 10_000.0;
            errors.push(err_at(Xid::PmuSpiError, base, 1, 0));
            if k < 82 {
                errors.push(err_at(Xid::MmuError, base + 1.0, 1, 0));
            }
        }
        let a = analyze(&errors, W);
        let p = a.intra_probability(Xid::PmuSpiError, Xid::MmuError);
        assert!((p - 0.82).abs() < 1e-9, "p {p}");
        let edge = a
            .intra
            .iter()
            .find(|e| e.from == Xid::PmuSpiError && e.to == Xid::MmuError)
            .unwrap();
        assert!((edge.mean_delay_s - 1.0).abs() < 1e-9);
        assert_eq!(edge.count, 82);
    }

    #[test]
    fn terminal_errors_have_no_successor() {
        let errors = vec![
            err_at(Xid::GspRpcTimeout, 0.0, 1, 0),
            err_at(Xid::GspRpcTimeout, 10_000.0, 1, 0),
        ];
        let a = analyze(&errors, W);
        assert_eq!(a.terminal[&Xid::GspRpcTimeout], 1.0);
        assert!(a.intra.is_empty());
    }

    #[test]
    fn isolation_requires_no_predecessor() {
        let errors = vec![
            err_at(Xid::PmuSpiError, 0.0, 1, 0),
            err_at(Xid::MmuError, 1.0, 1, 0), // has a predecessor
            err_at(Xid::MmuError, 10_000.0, 1, 0), // isolated
        ];
        let a = analyze(&errors, W);
        assert_eq!(a.isolated[&Xid::MmuError], 0.5);
        assert_eq!(a.isolated[&Xid::PmuSpiError], 1.0);
    }

    #[test]
    fn inter_gpu_edge_requires_same_node_different_gpu() {
        let errors = vec![
            err_at(Xid::NvlinkError, 0.0, 1, 0),
            err_at(Xid::NvlinkError, 2.0, 1, 1),   // same node, other GPU
            err_at(Xid::NvlinkError, 4.0, 2, 0),   // different node: ignored
        ];
        let a = analyze(&errors, W);
        let edge = a
            .inter
            .iter()
            .find(|e| e.from == Xid::NvlinkError && e.to == Xid::NvlinkError)
            .unwrap();
        assert_eq!(edge.count, 1);
        assert!((edge.mean_delay_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn successor_beyond_window_is_terminal() {
        let errors = vec![
            err_at(Xid::MmuError, 0.0, 1, 0),
            err_at(Xid::MmuError, 120.0, 1, 0),
        ];
        let a = analyze(&errors, W);
        assert_eq!(a.terminal[&Xid::MmuError], 1.0);
    }

    #[test]
    fn nvlink_spread_counts_distinct_gpus() {
        let errors = vec![
            // Incident A: 3 GPUs on node 1.
            err_at(Xid::NvlinkError, 0.0, 1, 0),
            err_at(Xid::NvlinkError, 5.0, 1, 1),
            err_at(Xid::NvlinkError, 10.0, 1, 2),
            // Incident B: 1 GPU on node 1 (far later).
            err_at(Xid::NvlinkError, 100_000.0, 1, 0),
            // Incident C: all 8 GPUs on node 2.
            err_at(Xid::NvlinkError, 0.0, 2, 0),
            err_at(Xid::NvlinkError, 1.0, 2, 1),
            err_at(Xid::NvlinkError, 2.0, 2, 2),
            err_at(Xid::NvlinkError, 3.0, 2, 3),
            err_at(Xid::NvlinkError, 4.0, 2, 4),
            err_at(Xid::NvlinkError, 5.0, 2, 5),
            err_at(Xid::NvlinkError, 6.0, 2, 6),
            err_at(Xid::NvlinkError, 7.0, 2, 7),
        ];
        let s = analyze(&errors, W).nvlink;
        // Per-error, forward-looking accounting within the 10 s
        // involvement window (inclusive): 12 NVLink errors total.
        // Node 1: error@0 sees 3 GPUs ahead, error@5 sees 2, error@10 and
        // the late error see only themselves. Node 2's cascade: the k-th
        // of 8 errors sees (8-k) distinct GPUs ahead of it.
        assert_eq!(s.incidents, 12);
        assert!((s.single_gpu - 3.0 / 12.0).abs() < 1e-9);
        assert!((s.multi_gpu - 9.0 / 12.0).abs() < 1e-9);
        assert!((s.four_plus - 5.0 / 12.0).abs() < 1e-9, "{}", s.four_plus);
        assert_eq!(s.all_eight, 1);
    }

    #[test]
    fn empty_input_is_empty_analysis() {
        let a = analyze(&[], W);
        assert!(a.intra.is_empty());
        assert!(a.sources.is_empty());
        assert_eq!(a.nvlink.incidents, 0);
    }
}
