//! # gpu-resilience
//!
//! A reproduction of the Delta GPU resilience study (*"Story of Two GPUs:
//! Characterizing the Resilience of Hopper H100 and Ampere A100 GPUs"*,
//! SC 2025): the paper's characterization pipeline as a reusable library,
//! plus the mechanistic simulation substrate that regenerates every table
//! and figure of its evaluation. This crate is a facade re-exporting the
//! workspace; see `README.md` for the architecture and `DESIGN.md` for the
//! experiment index.
//!
//! The one-screen version — inject faults, render logs, re-extract and
//! analyze them:
//!
//! ```
//! use gpu_resilience::core::{PipelineBuilder, StudyConfig};
//! use gpu_resilience::faults::{Campaign, CampaignConfig};
//! use gpu_resilience::xid::Xid;
//!
//! // 30 simulated days on a six-node fleet, with full syslog text.
//! let out = Campaign::run(CampaignConfig::tiny(42));
//! assert!(!out.records.is_empty());
//!
//! // The pipeline re-extracts structured errors from the *text* and
//! // recovers the study's statistics (Table 1, Figures 5-7, ...).
//! let cfg = StudyConfig::ampere_study()
//!     .with_window(out.observation_hours(), out.fleet.node_count() as u32);
//! let (results, stats) = PipelineBuilder::new(cfg)
//!     .downtime(&out.downtime)
//!     .run_text(&out.text_logs);
//! assert_eq!(stats.malformed, 0);
//! assert!(results.table1_row(Xid::MmuError).unwrap().count > 0);
//! ```

pub mod cli;

pub use dr_availsim as availsim;
pub use dr_cluster as cluster;
pub use dr_des as des;
pub use dr_faults as faults;
pub use dr_gpu as gpu;
pub use dr_logscan as logscan;
pub use dr_obs as obs;
pub use dr_par as par;
pub use dr_predict as predict;
pub use dr_report as report;
pub use dr_scenario as scenario;
pub use dr_slurm as slurm;
pub use dr_stats as stats;
pub use dr_xid as xid;
pub use resilience_core as core;
