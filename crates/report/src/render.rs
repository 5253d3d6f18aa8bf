//! Concrete renderers: `StudyResults` → the paper's tables and figures.

use crate::figures::{ascii_bars, dot_graph, DotEdge};
use crate::table::{fmt_count, fmt_opt, Align, Table};
use dr_xid::Xid;
use resilience_core::{JobImpactAnalysis, PropagationAnalysis, StudyResults, Table3Row};

/// Table 1: per-XID count, MTBE, persistence.
pub fn render_table1(results: &StudyResults) -> Table {
    let mut t = Table::new(vec![
        "XID", "Event", "Category", "Count", "MTBE sys (h)", "MTBE node (h)", "Pers. mean (s)",
        "P50", "P95",
    ])
    .aligns(vec![
        Align::Right,
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ])
    .title("Table 1: GPU error statistics");
    for row in &results.table1 {
        t.row(vec![
            row.xid.code().to_string(),
            row.xid.abbrev().to_string(),
            row.xid.category().to_string(),
            fmt_count(row.count),
            fmt_opt(row.mtbe_system_h, 2),
            fmt_opt(row.mtbe_per_node_h, 1),
            format!("{:.2}", row.persistence.mean),
            format!("{:.2}", row.persistence.p50),
            format!("{:.2}", row.persistence.p95),
        ]);
    }
    t
}

/// Table 2: job failure probability per XID.
pub fn render_table2(ji: &JobImpactAnalysis) -> Table {
    let mut t = Table::new(vec![
        "XID", "GPU Error", "# GPU-failed jobs", "# Jobs encountering", "P(fail | XID) %",
    ])
    .aligns(vec![
        Align::Right,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ])
    .title("Table 2: GPU-failed jobs per error type");
    for row in &ji.table2 {
        t.row(vec![
            row.xid.code().to_string(),
            row.xid.abbrev().to_string(),
            fmt_count(row.gpu_failed_jobs),
            fmt_count(row.jobs_encountering),
            format!("{:.2}", row.failure_probability() * 100.0),
        ]);
    }
    t
}

/// Table 3: job distribution by GPU count.
pub fn render_table3(rows: &[Table3Row]) -> Table {
    let mut t = Table::new(vec![
        "GPUs", "Count", "%", "Mean (min)", "P50", "P99", "ML GPUh (k)", "Non-ML GPUh (k)",
    ])
    .aligns(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ])
    .title("Table 3: job distribution and GPU hours");
    for r in rows {
        let label = if r.max_gpus == u16::MAX {
            format!("{}+", r.min_gpus)
        } else if r.min_gpus == r.max_gpus {
            r.min_gpus.to_string()
        } else {
            format!("{}-{}", r.min_gpus, r.max_gpus)
        };
        t.row(vec![
            label,
            fmt_count(r.count),
            format!("{:.3}", r.share * 100.0),
            format!("{:.2}", r.elapsed_mean_min),
            format!("{:.2}", r.elapsed_p50_min),
            format!("{:.2}", r.elapsed_p99_min),
            format!("{:.1}", r.ml_gpu_hours_k),
            format!("{:.1}", r.non_ml_gpu_hours_k),
        ]);
    }
    t
}

fn edges_for(prop: &PropagationAnalysis, members: &[Xid], intra: bool) -> Vec<DotEdge> {
    let list = if intra { &prop.intra } else { &prop.inter };
    list.iter()
        .filter(|e| members.contains(&e.from) && members.contains(&e.to) && e.count > 0)
        .map(|e| DotEdge {
            from: e.from.abbrev().to_string(),
            to: if intra {
                e.to.abbrev().to_string()
            } else {
                format!("{} (peer GPU)", e.to.abbrev())
            },
            label: format!("{:.2} ({:.1}s)", e.probability, e.mean_delay_s),
        })
        .collect()
}

/// Figure 5: intra-GPU hardware propagation graph (DOT).
pub fn render_fig5(prop: &PropagationAnalysis) -> String {
    let members = [
        Xid::GspRpcTimeout,
        Xid::PmuSpiError,
        Xid::MmuError,
        Xid::FallenOffBus,
    ];
    let mut edges = edges_for(prop, &members, true);
    // Terminal annotations as self-edges to an "error state" node.
    for &xid in &[Xid::GspRpcTimeout, Xid::FallenOffBus] {
        if let Some(&p) = prop.terminal.get(&xid) {
            edges.push(DotEdge {
                from: xid.abbrev().to_string(),
                to: "GPU error state".to_string(),
                label: format!("{p:.2}"),
            });
        }
    }
    dot_graph("Figure 5: intra-GPU hardware propagation", &edges)
}

/// Figure 6: NVLink propagation (DOT) plus the involvement summary.
pub fn render_fig6(prop: &PropagationAnalysis) -> String {
    let mut edges = edges_for(prop, &[Xid::NvlinkError], true);
    edges.extend(edges_for(prop, &[Xid::NvlinkError], false));
    if let Some(&p) = prop.terminal.get(&Xid::NvlinkError) {
        edges.push(DotEdge {
            from: Xid::NvlinkError.abbrev().to_string(),
            to: "GPU error state".to_string(),
            label: format!("{p:.2}"),
        });
    }
    let mut s = dot_graph("Figure 6: NVLink propagation", &edges);
    let nv = &prop.nvlink;
    s.push_str(&format!(
        "\nNVLink incidents: {}  single-GPU {:.0}%  multi-GPU {:.0}%  4+ GPUs {:.0}%  all-8 incidents {}\n",
        nv.incidents,
        nv.single_gpu * 100.0,
        nv.multi_gpu * 100.0,
        nv.four_plus * 100.0,
        nv.all_eight
    ));
    s
}

/// Figure 7: memory error recovery paths (DOT).
pub fn render_fig7(prop: &PropagationAnalysis) -> String {
    let members = [
        Xid::DoubleBitEcc,
        Xid::RowRemapEvent,
        Xid::RowRemapFailure,
        Xid::ContainedEcc,
        Xid::UncontainedEcc,
    ];
    let edges = edges_for(prop, &members, true);
    dot_graph("Figure 7: memory error recovery paths", &edges)
}

/// Figure 9a: elapsed-time distribution of completed vs GPU-failed jobs.
pub fn render_fig9a(ji: &JobImpactAnalysis) -> String {
    let mut out = String::from("Figure 9a: jobs by elapsed time (minutes)\n");
    for (name, hist) in [
        ("completed", &ji.distributions.completed),
        ("GPU-failed", &ji.distributions.gpu_failed),
    ] {
        out.push_str(&format!("  [{name}] n={}\n", hist.count()));
        let items: Vec<(String, f64)> = hist
            .iter_bins()
            .filter(|(_, _, c)| *c > 0)
            .map(|(lo, hi, c)| (format!("{lo:>6.0}-{hi:<6.0}"), c as f64))
            .collect();
        out.push_str(&ascii_bars(&items, 40));
    }
    out
}

/// Figure 9b: errors encountered vs job duration.
pub fn render_fig9b(ji: &JobImpactAnalysis) -> String {
    let mut out = String::from("Figure 9b: GPU errors encountered vs job duration\n");
    for (name, samples) in [
        ("completed", &ji.distributions.errors_vs_duration_completed),
        ("GPU-failed", &ji.distributions.errors_vs_duration_failed),
    ] {
        let (short, long): (Vec<_>, Vec<_>) = samples.iter().partition(|(m, _)| *m < 4_000.0);
        let mean = |v: &[&(f64, u32)]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().map(|(_, e)| *e as f64).sum::<f64>() / v.len() as f64
            }
        };
        out.push_str(&format!(
            "  [{name}] jobs with errors: {} | mean errors: <4000 min: {:.2}, >=4000 min: {:.2}\n",
            samples.len(),
            mean(&short.iter().collect::<Vec<_>>()),
            mean(&long.iter().collect::<Vec<_>>()),
        ));
    }
    out
}

/// The headline findings summary (abstract / Section 4.1 numbers).
pub fn render_summary(results: &StudyResults) -> String {
    let mut s = String::from("== Study summary ==\n");
    if let (_, Some(node)) = results.overall_mtbe_h {
        s.push_str(&format!("overall per-node MTBE: {node:.1} h\n"));
    }
    if let Some(ratio) = results.category_mtbe.ratio {
        s.push_str(&format!(
            "GPU memory vs hardware MTBE ratio: {ratio:.1}x (memory {} h, hardware {} h)\n",
            fmt_opt(results.category_mtbe.memory_per_node_h, 0),
            fmt_opt(results.category_mtbe.hardware_per_node_h, 0),
        ));
    }
    s.push_str(&format!(
        "lost GPU hours: {:.0} (beyond-P95 tail share {:.0}%)\n",
        results.lost_hours.total_h,
        results.lost_hours.tail_share * 100.0
    ));
    let cf = &results.counterfactual;
    s.push_str(&format!(
        "counterfactual MTBE: {:.0} -> {:.0} -> {:.0} h; availability {:.2}% -> {:.2}%\n",
        cf.baseline_mtbe_h,
        cf.no_offenders_mtbe_h,
        cf.hardened_mtbe_h,
        cf.baseline_availability * 100.0,
        cf.hardened_availability * 100.0
    ));
    if let Some(a) = results.availability {
        s.push_str(&format!("measured node availability: {:.2}%\n", a * 100.0));
    }
    if let Some(d) = &results.downtime {
        s.push_str(&format!(
            "downtime: {} incidents, mean service {:.2} h, total lost {:.0} node-hours\n",
            d.incidents, d.mean_service_h, d.total_lost_h
        ));
    }
    if let Some(ji) = &results.job_impact {
        s.push_str(&format!(
            "jobs: success rate {:.2}%, GPU-failed {}, wasted {:.0} GPU hours\n",
            ji.success_rate * 100.0,
            ji.gpu_failed_total,
            ji.lost_gpu_hours
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::{ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp};
    use resilience_core::{PipelineBuilder, StudyConfig};

    fn tiny_results() -> StudyResults {
        let g1 = GpuId::at_slot(NodeId(1), 0);
        let g2 = GpuId::at_slot(NodeId(1), 1);
        let records = vec![
            ErrorRecord::new(Timestamp::from_secs(100), g1, Xid::PmuSpiError, ErrorDetail::NONE),
            ErrorRecord::new(Timestamp::from_secs(101), g1, Xid::MmuError, ErrorDetail::NONE),
            ErrorRecord::new(Timestamp::from_secs(500), g1, Xid::NvlinkError, ErrorDetail::NONE),
            ErrorRecord::new(Timestamp::from_secs(503), g2, Xid::NvlinkError, ErrorDetail::NONE),
            ErrorRecord::new(Timestamp::from_secs(900), g1, Xid::GspRpcTimeout, ErrorDetail::NONE),
        ];
        PipelineBuilder::new(StudyConfig::ampere_study().with_window(1_000.0, 10))
            .run_records(&records)
    }

    #[test]
    fn table1_renders_all_rows() {
        let t = render_table1(&tiny_results());
        assert_eq!(t.row_count(), 10);
        let s = t.render();
        assert!(s.contains("MMU Error"));
        assert!(s.contains("GSP Error"));
    }

    #[test]
    fn fig5_contains_pmu_mmu_edge() {
        let r = tiny_results();
        let dot = render_fig5(&r.propagation);
        assert!(dot.contains("PMU SPI Error"), "{dot}");
        assert!(dot.contains("MMU Error"));
        assert!(dot.contains("GPU error state"));
    }

    #[test]
    fn fig6_reports_incidents() {
        let r = tiny_results();
        let s = render_fig6(&r.propagation);
        assert!(s.contains("NVLink incidents: 2"));
        assert!(s.contains("multi-GPU 50%"));
    }

    #[test]
    fn fig7_renders_even_when_empty() {
        let r = tiny_results();
        let dot = render_fig7(&r.propagation);
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn summary_mentions_counterfactual() {
        let s = render_summary(&tiny_results());
        assert!(s.contains("counterfactual MTBE"));
        assert!(s.contains("per-node MTBE"));
    }
}
