//! # dr-bench — the reports behind `gpures bench`
//!
//! Each module times one subsystem and produces one committed
//! `BENCH_*.json` artifact, written with the tiny dependency-free
//! [`json`] emitter (hosted by `dr-obs` and re-exported here so
//! `dr_bench::json` paths keep working). Every report cross-checks its
//! outputs, so a correctness regression cannot hide behind a fast
//! number; the tables and figures themselves are regenerated by the
//! `gpures` commands and `examples/` (see DESIGN.md's experiment index).
//!
//! [`stage1`] is the Stage I throughput benchmark, producing
//! `BENCH_stage1.json` (optimized vs. baseline extractor) and
//! `BENCH_pipeline.json` (the sharded front half across a worker matrix).
//! [`obs`] measures the observability layer itself, producing
//! `BENCH_obs.json` with the metrics-on vs metrics-off overhead.
//! [`stream`] measures bounded-memory streaming ingestion, producing
//! `BENCH_stream.json` with in-memory vs `DirSource` throughput and
//! peak resident chunk bytes.
//! [`records`] measures the columnar `ErrorRecord` store, producing
//! `BENCH_records.json` with the write-tee overhead and the replay
//! speedup of re-analyzing from records instead of re-parsing text.
//! [`lint`] times the dr-lint symbol-graph analysis itself, producing
//! `BENCH_lint.json` with the graph scale and findings-by-pass counts.
//! [`sweep`] times the scenario-battery driver behind `gpures sweep`,
//! producing `BENCH_sweep.json` with the serial vs full-pool speedup.
//! [`watch`] times the live-tail path behind `gpures watch`, producing
//! `BENCH_watch.json` with sustained ingest throughput and per-call
//! snapshot latency.

pub mod lint;
pub mod obs;
pub mod records;
pub mod stage1;
pub mod stream;
pub mod sweep;
pub mod watch;

pub use dr_obs::json;

use dr_cluster::DeltaShape;
use dr_faults::{Campaign, CampaignConfig, CampaignOutput};
use std::sync::OnceLock;

/// A text-bearing small campaign for the live-path benchmark, built once
/// per process so campaign generation stays out of the timings.
pub fn text_campaign() -> &'static CampaignOutput {
    static OUT: OnceLock<CampaignOutput> = OnceLock::new();
    OUT.get_or_init(|| {
        let mut cfg = CampaignConfig {
            shape: DeltaShape::tiny(),
            duration_days: 120.0,
            ..CampaignConfig::tiny(11)
        };
        cfg.text.nodes = 6;
        cfg.text.noise_per_node_hour = 4.0;
        Campaign::run(cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert!(!text_campaign().text_logs.is_empty());
    }
}
