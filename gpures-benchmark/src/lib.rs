//! # gpures-benchmark — the repository benchmark
//!
//! Five workloads shaped like what users of `gpures` run, each measured
//! in fresh processes on inputs generated from a `.scn` scenario and a
//! seed, with every pass checked against a reference result:
//!
//! | workload | what it runs |
//! |---|---|
//! | `scan-noisy` | `gpures analyze --logs` over noise-dominated syslog text |
//! | `burst-tee` | `gpures analyze --logs --records` over XID-storm text |
//! | `study-replay` | `gpures analyze --from-records --jobs --downtime` |
//! | `fold-dt1` | `gpures analyze --from-records --downtime --dt 1` |
//! | `watch-live` | `gpures watch` following a corpus written at 50 k lines/s |
//!
//! An untraced run reports the end-to-end metrics; a traced run splits
//! the same work into timed calls to each layer's public functions. See
//! `BENCHMARK.md` for the metrics, bounds and measured numbers.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("gpures-benchmark reads /proc and clock_gettime: it builds for 64-bit Linux only");

pub mod batch;
pub mod compare;
pub mod harness;
pub mod inputs;
pub mod live;
pub mod metrics;
pub mod oracle;
pub mod run;

use inputs::Corpus;
use std::path::Path;

/// Wrap an error as `path: error`, the form every message of the
/// benchmark takes.
pub(crate) fn at<E: std::fmt::Display>(path: &Path) -> impl Fn(E) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScanNoisy,
    BurstTee,
    StudyReplay,
    FoldDt1,
    WatchLive,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ScanNoisy,
        Workload::BurstTee,
        Workload::StudyReplay,
        Workload::FoldDt1,
        Workload::WatchLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WatchLive => "watch-live",
            w => w.corpus().name(),
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The inputs the workload reads: `watch-live` streams `burst-tee`'s.
    pub fn corpus(self) -> Corpus {
        match self {
            Workload::ScanNoisy => Corpus::ScanNoisy,
            Workload::BurstTee | Workload::WatchLive => Corpus::BurstTee,
            Workload::StudyReplay => Corpus::StudyReplay,
            Workload::FoldDt1 => Corpus::FoldDt1,
        }
    }
}
