//! Section 6: emerging errors in the H100 (GH200) extension fleet.
//!
//! Runs the H100 early-deployment campaign (80 GH200 nodes, ~8 months,
//! low utilization) and compares the recovered counts against the paper's
//! Section 6 observations: 18 MMU errors, 10 DBEs, 5 RRFs with *no*
//! successful row-remap events, 9 contained ECC errors, 70 XID 136
//! events, and a per-node MTBE of ~4,114 hours.
//!
//! ```sh
//! cargo run --release --example h100_early
//! ```

use gpu_resilience::core::{PipelineBuilder, StudyConfig};
use gpu_resilience::faults::{Campaign, CampaignConfig};
use gpu_resilience::report::{self, h100_comparison};
use gpu_resilience::xid::Xid;

fn main() {
    let out = Campaign::run(CampaignConfig::h100_study(616));
    println!(
        "H100 campaign: {} raw records, {} events over {:.0} days on {} nodes\n",
        out.records.len(),
        out.events.len(),
        out.duration.as_hours_f64() / 24.0,
        out.fleet.node_count()
    );

    let cfg = StudyConfig::ampere_study()
        .with_window(out.observation_hours(), out.fleet.node_count() as u32);
    let results = PipelineBuilder::new(cfg)
        .downtime(&out.downtime)
        .run_records(&out.records);

    println!("{}", report::render_table1(&results).render());

    let x136 = results
        .coalesced
        .iter()
        .filter(|e| e.xid == Xid::Xid136)
        .count();
    println!("XID 136 events (undocumented, most frequent H100 error): {x136}");
    let rre = results.table1_row(Xid::RowRemapEvent).map(|r| r.count).unwrap_or(0);
    let rrf = results.table1_row(Xid::RowRemapFailure).map(|r| r.count).unwrap_or(0);
    println!(
        "row remapping: {rre} RREs vs {rrf} RRFs — \
         {}",
        if rre == 0 && rrf > 0 {
            "unusual: failures without successful remaps indicate exhausted \
             remappable rows (potential H100 memory issues, Section 6)"
        } else {
            "remap inventory not yet exhausted"
        }
    );
    if let (_, Some(node_mtbe)) = results.overall_mtbe_h {
        println!(
            "per-node MTBE: {node_mtbe:.0} h (paper: 4,114 h; high due to low \
             early-deployment utilization)\n"
        );
    }

    println!("== Paper (Section 6) vs measured ==");
    println!("{}", h100_comparison(&results).render());
}
