//! `dr-obs` — pure-std observability for the resilience pipeline.
//!
//! The paper's Fig. 4 pipeline chews through hundreds of gigabytes of
//! syslog; this crate makes that work visible without perturbing it:
//!
//! * hierarchical timed spans ([`MetricsSink::span`] → [`SpanGuard`]),
//! * per-stage atomic counters ([`MetricsSink::add`]),
//! * log-scale latency/throughput histograms (reusing
//!   `dr_stats::LogHistogram`),
//! * a registry keyed by [`Stage`] (shard → extract → coalesce → stats →
//!   propagation → job impact, plus the simulation-side campaign and
//!   schedule stages),
//! * JSON export ([`MetricsSink::export_json`]) through the
//!   dependency-free [`json::Json`] writer.
//!
//! Two invariants the rest of the workspace leans on:
//!
//! 1. **Read-only w.r.t. results.** Instrumented code only ever writes
//!    into a sink; nothing it computes can depend on a recorded value.
//!    `StudyResults` is bit-identical whether a sink is disabled,
//!    recording, or absent. The `obs-isolation` dr-lint pass flags any
//!    read-back (`export_json`, `Stopwatch`, `clock::now`) outside the
//!    observability and CLI layers.
//! 2. **Scoped wall clock.** The determinism pass forbids
//!    `Instant::now()` in library code; the single exemption is
//!    [`clock`], and every timer here routes through it.
//!
//! Overhead discipline: hooks fire at chunk/stage granularity — never
//! per line — and a disabled sink short-circuits on one `Option` check,
//! so steady-state overhead stays under a 5 % budget (the repository
//! benchmark in `gpures-benchmark/` measures the pipeline this sink
//! instruments).

pub mod clock;
pub mod json;
mod sink;

pub use sink::{Counter, MetricsSink, SpanGuard, Stage};
