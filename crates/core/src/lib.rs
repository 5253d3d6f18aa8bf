//! # resilience-core — the GPU resilience characterization pipeline
//!
//! The paper's primary contribution, as a reusable library. The pipeline
//! (Figure 4) takes raw log data — text syslogs or pre-extracted error
//! records — plus a job accounting table, and produces every quantity the
//! evaluation reports:
//!
//! - [`coalesce`] — **Algorithm 1**: error coalescing and persistence
//!   analysis (identical message + same GPU within Δt merge into one
//!   error; the span of the merged burst is its persistence).
//! - [`stats`] — error counts, system and per-node MTBE, persistence
//!   summaries (Table 1), lost-GPU-hours and the beyond-P95 tail share
//!   (Section 4.3).
//! - [`propagation`] — intra-GPU and inter-GPU conditional propagation
//!   probabilities with mean propagation times (Figures 5–7) and NVLink
//!   multi-GPU involvement (Figure 6).
//! - [`job_impact`] — the ±20 s error-to-job-failure join, per-XID job
//!   failure probabilities (Table 2), job statistics (Table 3), and the
//!   Figure 9a/9b distributions.
//! - [`downtime`] — node unavailability statistics and the
//!   MTTF/(MTTF+MTTR) availability estimate (Figure 9c, Section 5.4).
//! - [`counterfactual`] — the Section 5.5 what-if analysis: drop
//!   top-offending GPUs and/or whole error classes, recompute MTBE and
//!   availability.
//! - [`pipeline`] — end-to-end orchestration behind
//!   [`pipeline::PipelineBuilder`]: text → extraction (parallelized per
//!   node via `dr-par`) → coalescing → the full
//!   [`pipeline::StudyResults`] bundle.
//! - [`source`] — streaming log ingestion: the [`source::LogSource`]
//!   trait plus in-memory, directory, and campaign-generator
//!   implementations, so Stage I pulls bounded chunk waves instead of a
//!   materialized corpus.
//! - [`store`] — the write-once columnar `ErrorRecord` store: the
//!   extract pass tees per-node record streams into a checksummed
//!   binary file, and [`store::RecordSource`] replays them into the
//!   pipeline in milliseconds, one block at a time, with bit-identical
//!   results.
//! - [`stream`] — the online operators: the event-time
//!   [`stream::WatermarkBuffer`] that reorders late log lines, and
//!   [`stream::StreamCoalescer`], incremental Algorithm 1 over the
//!   reordered stream.
//! - `engine` (crate-private) — the analysis core behind
//!   [`pipeline::PipelineBuilder::run_coalesced`]: the study as one
//!   function of the coalesced episode vector. It holds each episode
//!   once and builds one shared index over them in one pass (interned
//!   GPUs with per-GPU and per-node episode lists, dense per-XID
//!   tables); every section of [`pipeline::StudyResults`] finishes from
//!   that index, bit-identical to the batch definitions (tier-1 golden
//!   digests and a proptest against the map-based oracle kept in test
//!   code).
//! - [`tail`] — [`tail::TailSource`]: a [`source::LogSource`] that
//!   follows growing, rotating per-node log files with inode/offset
//!   checkpoints for resumable live ingestion.
//! - [`watch`] — the live path and its one front door (`gpures watch`):
//!   [`watch::WatchSession`] chains tailed sources through extraction,
//!   watermarking, and incremental coalescing into one rolling window,
//!   which serves every live view, and deterministic event-time alerts.
//!
//! Everything operates on plain data types (`ErrorRecord`, `JobRecord`),
//! so the pipeline runs unchanged on synthetic campaigns or real logs.
//!
//! Every stage accepts a write-only [`dr_obs::MetricsSink`]: the Stage I
//! and merge drivers in [`shard`] take one as an argument, and
//! [`pipeline::PipelineBuilder::metrics`] attaches one to a whole run.
//! Attaching one never changes any result.

pub mod coalesce;
pub mod counterfactual;
pub mod downtime;
mod engine;
#[cfg(test)]
mod fold_oracle;
pub mod job_impact;
pub mod pipeline;
pub mod propagation;
pub mod shard;
pub mod source;
pub mod stats;
pub mod store;
pub mod stream;
pub mod tail;
#[cfg(test)]
mod testutil;
pub mod watch;

pub use coalesce::{coalesce, CoalesceConfig, CoalescedError};
pub use counterfactual::CounterfactualReport;
pub use downtime::{availability, DowntimeStats};
pub use job_impact::{JobImpactAnalysis, Table2Row, Table3Row};
pub use pipeline::{PipelineBuilder, StudyConfig, StudyResults};
pub use propagation::{NvlinkSpread, PropagationAnalysis, PropagationEdge};
pub use shard::{
    extract_source_prefetch_observed, merge_and_coalesce_observed,
    WaveConfig,
};
pub use source::{
    pull_wave, DirSource, GeneratorSource, InMemorySource, Lines, LogChunk, LogSource, PrefetchRx,
    Prefetched, Prefetcher, Wave,
};
pub use stats::{LostHours, Table1Row};
pub use store::{
    extract_to_store, write_store, InMemoryRecordSource, RecordBatch, RecordSource, RecordStore,
    RecordStoreWriter, StoreRecordSource, StoreSummary,
};
pub use stream::{StreamCoalescer, WatermarkBuffer};
pub use tail::TailSource;
pub use watch::{
    Alert, AlertKind, OffenderRate, WatchConfig, WatchSession, WatchSnapshot, WatchStats,
    WindowedMtbe, WindowedPropagation,
};
